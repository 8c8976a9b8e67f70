"""Shared container for the bundled example models.

Each model module exposes ``build(**overrides) -> ZooModel``. A ZooModel
packages the likelihood components, a default state, an exact enumeration
engine over the finite outcome space, and independently derived reference
quantities used by the test suite. Monte Carlo runs resample the exact
engine's law; ``sampler`` is the same engine under the name the benchmark
workloads (``perfbench/workloads.py``) read. The references are computed
from simplified closed forms, never through the structural-function
pipeline, so agreement between the two is evidence rather than tautology.
"""
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..calculus import Category
from ..engines import ExactEnumeration
from ..errors import NotAvailableError
from ..likelihood import ModelComponents, ModelState
from ..measure import DiscreteMeasure, Grid, MeasureKind


@dataclass(frozen=True)
class ZooModel:
    """A ready-to-run example model with reference answers."""

    model_id: str
    components: ModelComponents
    state: ModelState
    exact: ExactEnumeration
    sampler: ExactEnumeration
    references: dict
    expected_category: Category
    adjoint_tol: float
    notes: str = ""
    extras: dict = field(default_factory=dict)


def check_state(model: ZooModel, state: Optional[ModelState]) -> None:
    """Refuse a state other than the build state (None means the build
    state); references and closed forms are computed there only."""
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


def positive_measure(points, masses, tau) -> DiscreteMeasure:
    return DiscreteMeasure(Grid(np.asarray(points, dtype=float), float(tau)),
                           np.asarray(masses, dtype=float),
                           MeasureKind.POSITIVE_FINITE)


def probability_measure(points, masses, tau) -> DiscreteMeasure:
    return DiscreteMeasure(Grid(np.asarray(points, dtype=float), float(tau)),
                           np.asarray(masses, dtype=float),
                           MeasureKind.PROBABILITY)


def finish(model_id: str, components: ModelComponents, state: ModelState,
           outcomes, references: dict, expected_category: Category,
           adjoint_tol: float, notes: str = "",
           extras: Optional[dict] = None) -> ZooModel:
    """Wire the exact engine around a model."""
    exact = ExactEnumeration(outcomes)
    return ZooModel(
        model_id=model_id, components=components, state=state, exact=exact,
        sampler=exact, references=references,
        expected_category=expected_category, adjoint_tol=adjoint_tol,
        notes=notes, extras=dict(extras or {}),
    )
