"""The names the benchmark's tracer wraps still exist.

``perfbench/tracer.py`` wraps every function or method named in its
``TARGETS`` and reads the ``ladder`` of each least favorable direction
it records, so renaming or deleting any of them breaks the benchmark's
traced run. These checks read the table without installing the tracer,
which would patch the modules for every later test in the process.
"""
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from semiinfo.calculus import LfdResult

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize("label", sorted(TARGETS))
def test_every_traced_name_resolves(label):
    module, attr, cls = TARGETS[label]
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr)), label


def test_the_least_favorable_direction_keeps_its_ladder():
    assert "ladder" in {f.name for f in dataclasses.fields(LfdResult)}
