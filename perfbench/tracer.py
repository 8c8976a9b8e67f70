"""Span recorder for the traced run, wrapped around `semiinfo`'s public
functions from outside the program.

`Tracer.install()` replaces each function named in `TARGETS` with a
wrapper in every `semiinfo` module namespace that binds it (modules
import by name, so `calculus` holds its own binding of
`score_operator`), and each method on its class. A wrapper records one
span per call: name, start, end, parent span and operation index, kept
in flat arrays in memory and written out by `save()`.

`per_layer()` turns the spans into the per-operation metrics named in
`PER_LAYER`. Self time is a span's duration minus the time covered by
its child spans; calls run one at a time, so the children's durations
simply add.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# label -> (module, attribute, class or None)
TARGETS = {
    "likelihood.score_operator":
        ("semiinfo.likelihood", "score_operator", None),
    "likelihood.g_values": ("semiinfo.likelihood", "g_values", None),
    "likelihood.log_density": ("semiinfo.likelihood", "log_density", None),
    "likelihood.score_theta": ("semiinfo.likelihood", "score_theta", None),
    "engines.structural_functions":
        ("semiinfo.engines", "structural_functions", None),
    "engines.expect": ("semiinfo.engines", "expect", None),
    "engines.probabilities":
        ("semiinfo.engines", "probabilities", "ExactEnumeration"),
    "engines.normalization_deficit":
        ("semiinfo.engines", "normalization_deficit", "ExactEnumeration"),
    "engines.draw_weights": ("semiinfo.engines", "draw_weights", "MonteCarlo"),
    "calculus.analyze_model": ("semiinfo.calculus", "analyze_model", None),
    "calculus.nonparametric_influence":
        ("semiinfo.calculus", "nonparametric_influence", None),
    "calculus.local_identifiability":
        ("semiinfo.calculus", "local_identifiability", None),
    "calculus.least_favorable_direction":
        ("semiinfo.calculus", "least_favorable_direction", None),
    "calculus.efficient_information":
        ("semiinfo.calculus", "efficient_information", None),
    "calculus.fisher_information":
        ("semiinfo.calculus", "fisher_information", None),
    "calculus.v_operator": ("semiinfo.calculus", "v_operator", None),
    "operators.solve": ("semiinfo.operators", "solve", None),
    "operators.eta_weighted_min_eigen":
        ("semiinfo.operators", "eta_weighted_min_eigen", None),
    "operators.as_matrix": ("semiinfo.operators", "as_matrix", None),
    "validate.suite_for_model": ("semiinfo.validate", "suite_for_model", None),
    "validate.check_adjoint_identity":
        ("semiinfo.validate", "check_adjoint_identity", None),
    "validate.check_centering_construction":
        ("semiinfo.validate", "check_centering_construction", None),
    "measure.perturb_measure": ("semiinfo.measure", "perturb_measure", None),
    "zoo.build": ("semiinfo.zoo", "build", None),
    "serialize.dump_json": ("semiinfo.serialize", "dump_json", None),
    "serialize.write_matrix_csv":
        ("semiinfo.serialize", "write_matrix_csv", None),
    "cli.main": ("semiinfo.cli", "main", None),
}

# The three functions that build an outcome law (probabilities or weights).
OUTCOME_LAWS = ("engines.probabilities", "engines.normalization_deficit",
                "engines.draw_weights")

# name -> unit, in report order. Every value is per traced operation.
PER_LAYER = {
    "likelihood.score_operator.calls": "count",
    "likelihood.score_operator.total_s": "s",
    "likelihood.g_values.calls": "count",
    "likelihood.g_values.total_s": "s",
    "likelihood.log_density.calls": "count",
    "likelihood.log_density.total_s": "s",
    "likelihood.score_theta.calls": "count",
    "engines.structural_functions.total_s": "s",
    "engines.structural_functions.self_s": "s",
    "engines.expect.calls": "count",
    "engines.expect.self_s": "s",
    "engines.probabilities.calls": "count",
    "engines.probabilities.total_s": "s",
    "engines.normalization_deficit.calls": "count",
    "engines.draw_weights.calls": "count",
    "engines.draw_weights.total_s": "s",
    "engines.law.calls": "count",
    "engines.law.useful_ratio": "ratio",
    "calculus.analyze_model.total_s": "s",
    "calculus.nonparametric_influence.total_s": "s",
    "calculus.local_identifiability.total_s": "s",
    "calculus.least_favorable_direction.total_s": "s",
    "calculus.efficient_information.total_s": "s",
    "calculus.fisher_information.total_s": "s",
    "calculus.v_operator.total_s": "s",
    "calculus.least_favorable_direction.rungs": "count",
    "operators.solve.calls": "count",
    "operators.solve.total_s": "s",
    "operators.solve.self_s": "s",
    "operators.solve.useful_ratio": "ratio",
    "operators.eta_weighted_min_eigen.total_s": "s",
    "operators.as_matrix.calls": "count",
    "validate.suite_for_model.total_s": "s",
    "validate.check_adjoint_identity.total_s": "s",
    "validate.check_centering_construction.total_s": "s",
    "validate.check_adjoint_identity.calls": "count",
    "measure.perturb_measure.calls": "count",
    "measure.perturb_measure.total_s": "s",
    "zoo.build.total_s": "s",
    "serialize.dump_json.total_s": "s",
    "serialize.write_matrix_csv.total_s": "s",
    "serialize.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder. Records only while `active` is set."""

    def __init__(self):
        self.labels = list(TARGETS)
        self.label_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rungs = 0
        self.active = False
        self.op_index = -1
        self._stack = [-1]

    def _wrap(self, label, fn):
        lid = self.labels.index(label)
        count_rungs = label == "calculus.least_favorable_direction"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.label_id.append(lid)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_index)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if count_rungs:
                self.rungs += len(result.ladder)
            return result

        return traced

    def install(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and
                   (name == "semiinfo" or name.startswith("semiinfo."))]
        for label, (module, attr, cls) in TARGETS.items():
            owner = sys.modules[module]
            if cls is not None:
                klass = getattr(owner, cls)
                setattr(klass, attr, self._wrap(label, getattr(klass, attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def arrays(self):
        return {
            "label_id": np.frombuffer(self.label_id, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "op": np.frombuffer(self.op, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def save(self, path):
        np.savez(path, labels=np.array(self.labels), **self.arrays())

    def per_layer(self, n_ops, bytes_written, overhead_s):
        """Per-operation layer metrics over the `n_ops` traced operations."""
        spans = self.arrays()
        label_id, parent = spans["label_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n_labels = len(self.labels)
        calls = np.bincount(label_id, minlength=n_labels)
        total = np.bincount(label_id, weights=dur, minlength=n_labels)
        own = np.bincount(label_id, weights=self_time, minlength=n_labels)

        # A law built inside another (the Monte Carlo sampler asks the
        # exact engine for probabilities) is part of that one build.
        law_ids = [self.labels.index(name) for name in OUTCOME_LAWS]
        parent_label = np.where(has_parent,
                                label_id[np.maximum(parent, 0)], -1)
        outer = np.isin(label_id, law_ids) & ~np.isin(parent_label, law_ids)
        law_calls = int(np.sum(outer))
        lfd_calls = calls[
            self.labels.index("calculus.least_favorable_direction")]
        solve_calls = calls[self.labels.index("operators.solve")]

        by_kind = {"calls": calls, "total_s": total, "self_s": own}
        values = {}
        for name in PER_LAYER:
            label, _, kind = name.rpartition(".")
            if label in TARGETS and kind in by_kind:
                lid = self.labels.index(label)
                values[name] = by_kind[kind][lid] / n_ops
        values["engines.law.calls"] = law_calls / n_ops
        values["engines.law.useful_ratio"] = \
            n_ops / law_calls if law_calls else 0.0
        values["calculus.least_favorable_direction.rungs"] = self.rungs / n_ops
        values["operators.solve.useful_ratio"] = \
            float(lfd_calls / solve_calls) if solve_calls else 0.0
        values["serialize.bytes_written"] = bytes_written / n_ops
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in PER_LAYER.items()}
