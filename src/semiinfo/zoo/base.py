"""Shared container for the bundled example models.

Each model module exposes ``build(**overrides) -> ZooModel``. A ZooModel
packages the likelihood components, a default state, an exact enumeration
engine over the finite outcome space, and independently derived reference
quantities used by the test suite. Monte Carlo runs resample the exact
engine's law; ``sampler`` is the same engine under the name the benchmark
workloads (``perfbench/workloads.py``) read. The references are computed
from simplified closed forms, never through the structural-function
pipeline, so agreement between the two is evidence rather than tautology.

The references are computed on first read and kept for the model's life.
Only ``validate`` and the tests read them; ``analyze`` and ``influence``
never do, so they do not pay for them. What the components, the engines
or ``extras`` read is computed when the model is built.
"""
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..calculus import Category
from ..engines import ExactEnumeration
from ..errors import ConfigError, NotAvailableError
from ..likelihood import ModelComponents, ModelState
from ..measure import DiscreteMeasure, Grid, MeasureKind


# What a builder raises for parameters it cannot build; ``zoo.build`` and
# the first read of the references turn them into a ConfigError.
BUILD_ERRORS = (TypeError, ValueError, KeyError, OverflowError)


def build_error(model_id: str, exc: Exception) -> ConfigError:
    return ConfigError(f"cannot build {model_id!r}: {exc}")


class References(Mapping):
    """A model's closed-form references: ``compute()`` runs once, on the
    first read, and its dict is kept. A build error it raises becomes the
    ConfigError ``zoo.build`` gives, naming the model. Two of these compare
    by identity, so a comparison computes nothing."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, model_id: str, compute: Callable[[], dict]):
        self._model_id = model_id
        self._compute = compute
        self._values = None

    def _read(self) -> dict:
        if self._values is None:
            try:
                self._values = self._compute()
            except BUILD_ERRORS as exc:
                raise build_error(self._model_id, exc) from exc
        return self._values

    def __getitem__(self, name):
        return self._read()[name]

    def __iter__(self):
        return iter(self._read())

    def __len__(self):
        return len(self._read())


@dataclass(frozen=True)
class ZooModel:
    """A ready-to-run example model with reference answers.

    ``references`` is a read-only mapping computed on its first read and
    kept (see ``References``); ``analyze`` and ``influence`` never read
    it, only ``validate`` and the tests do.
    """

    model_id: str
    components: ModelComponents
    state: ModelState
    exact: ExactEnumeration
    sampler: ExactEnumeration
    references: References
    expected_category: Category
    adjoint_tol: float
    notes: str = ""
    extras: dict = field(default_factory=dict)


def check_state(model: ZooModel, state: Optional[ModelState]) -> None:
    """Refuse a state other than the build state (None means the build
    state); references are computed there only."""
    if state is None:
        return
    s0 = model.state
    same = (
        np.array_equal(np.asarray(state.theta, dtype=float), s0.theta)
        and np.array_equal(state.eta.grid.points, s0.eta.grid.points)
        and np.array_equal(state.eta.masses, s0.eta.masses)
    )
    if not same:
        raise NotAvailableError(
            f"{model.model_id}: references are computed at the build state; "
            "rebuild the model to evaluate them elsewhere"
        )


def require_flag(name: str, value) -> bool:
    """A boolean build parameter, refused unless it is true or false."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def require_count(name: str, value, minimum: int) -> int:
    """An integer build parameter, refused unless it is an int (not a
    bool) of at least ``minimum``."""
    if isinstance(value, (bool, np.bool_)) \
            or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_theta(value, p: int) -> np.ndarray:
    """The parameter theta as a finite 1-d float vector of length ``p``
    (a number counts when p == 1), refused unless it is one: a bool, a
    string or a nested list is not."""
    try:
        th = np.asarray(value)
    except ValueError:      # a ragged list
        th = np.asarray(None)
    if th.dtype.kind in "iuf":
        th = th.astype(float)
        if th.ndim == 0 and p == 1:
            th = th.reshape(1)
        if th.shape == (p,) and np.all(np.isfinite(th)):
            return th
    raise ValueError(
        f"theta must be a finite vector of length {p}, got {value!r}")


def power(x, n) -> np.ndarray:
    """x ** n by math.pow on each real entry, the C pow that scalar ``**``
    computes: numpy's vector power rounds some results differently."""
    x = np.asarray(x)
    if x.dtype.kind == "c":     # a complex-step derivative
        return x ** n
    return np.reshape([math.pow(v, n) for v in x.ravel().tolist()], x.shape)


def positive_measure(points, masses, tau) -> DiscreteMeasure:
    return DiscreteMeasure(Grid(np.asarray(points, dtype=float), float(tau)),
                           np.asarray(masses, dtype=float),
                           MeasureKind.POSITIVE_FINITE)


def probability_measure(points, masses, tau) -> DiscreteMeasure:
    return DiscreteMeasure(Grid(np.asarray(points, dtype=float), float(tau)),
                           np.asarray(masses, dtype=float),
                           MeasureKind.PROBABILITY)


def finish(model_id: str, components: ModelComponents, state: ModelState,
           outcomes, references: Callable[[], dict],
           expected_category: Category, adjoint_tol: float, notes: str = "",
           extras: Optional[dict] = None) -> ZooModel:
    """Wire the exact engine around a model; ``references`` returns the
    reference dict and runs on the first read of ``model.references``."""
    exact = ExactEnumeration(outcomes)
    return ZooModel(
        model_id=model_id, components=components, state=state, exact=exact,
        sampler=exact, references=References(model_id, references),
        expected_category=expected_category, adjoint_tol=adjoint_tol,
        notes=notes, extras=dict(extras or {}),
    )
