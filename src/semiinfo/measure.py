"""Discrete measures on a finite grid and the weighted l2 geometry they induce.

Everything downstream (score operators, adjoints, information operators)
lives in L2(eta) for a finite discrete measure eta on grid points
``0 <= u_1 < ... < u_m <= tau``. A direction ``a`` is represented by its
values on the grid; the inner product is ``<a, b> = sum_i a_i b_i w_i``
with ``w`` the masses of eta. Probability measures additionally carry the
mean-zero (centered) subspace, the tangent space of perturbations that
keep total mass one. Every direction that enters a mean-zero tangent
space passes the one centering test, :func:`require_centered`.

Tolerances are module constants so calling code can tighten or relax them
in one place.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, MeasureKindWarning

# Absolute tolerance on |<a, 1>_eta| for a direction claimed to be centered.
TOL_CENTERED = 1e-10
# Absolute tolerance on |total mass - 1| for probability measures.
TOL_PROB_MASS = 1e-12
# Dense linear algebra throughout; grids beyond this are refused.
MAX_GRID_POINTS = 1000


class MeasureKind(enum.Enum):
    """Whether a measure is a probability or just positive and finite.

    The distinction matters because the tangent space differs: probability
    measures may only be perturbed along mean-zero directions without
    leaving the class.
    """

    PROBABILITY = "probability"
    POSITIVE_FINITE = "positive_finite"


def _freeze(obj, name, arr):
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class Grid:
    """Strictly increasing support points inside ``[0, tau]``.

    Parameters
    ----------
    points : array_like, shape (m,)
        Strictly increasing, all within ``[0, tau]``.
    tau : float
        Right endpoint of the observation window, ``tau > 0``.
    """

    points: np.ndarray
    tau: float

    def __post_init__(self):
        pts = _freeze(self, "points", self.points)
        if pts.ndim != 1 or pts.size == 0:
            raise DimensionError("grid points must be a nonempty 1-d array")
        if pts.size > MAX_GRID_POINTS:
            raise DomainError(
                f"grid has {pts.size} points, more than the dense-solver "
                f"cap of {MAX_GRID_POINTS}"
            )
        tau = float(self.tau)
        object.__setattr__(self, "tau", tau)
        if not np.isfinite(tau) or tau <= 0.0:
            raise DomainError(f"tau must be positive and finite, got {tau}")
        if not np.all(np.isfinite(pts)):
            bad = int(np.flatnonzero(~np.isfinite(pts))[0])
            raise DomainError(f"grid point {bad} is not finite")
        if pts[0] < 0.0 or pts[-1] > tau:
            bad = 0 if pts[0] < 0.0 else int(pts.size - 1)
            raise DomainError(
                f"grid point {bad} ({pts[bad]}) lies outside [0, {tau}]"
            )
        if pts.size > 1:
            diffs = np.diff(pts)
            if np.any(diffs <= 0.0):
                bad = int(np.flatnonzero(diffs <= 0.0)[0]) + 1
                raise DomainError(
                    f"grid points must be strictly increasing; "
                    f"point {bad} ({pts[bad]}) does not exceed its predecessor"
                )

    @property
    def size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative masses on a :class:`Grid`, tagged with a :class:`MeasureKind`.

    Probability measures must have total mass 1 within ``TOL_PROB_MASS``.
    Zero masses are allowed (dead grid cells); operations that need the
    support restrict to ``masses > 0``.
    """

    grid: Grid
    masses: np.ndarray
    kind: MeasureKind

    def __post_init__(self):
        w = _freeze(self, "masses", self.masses)
        if w.ndim != 1 or w.size != self.grid.size:
            raise DimensionError(
                f"masses have shape {w.shape}, expected ({self.grid.size},)"
            )
        if not np.isfinite(w).all():
            bad = int(np.flatnonzero(~np.isfinite(w))[0])
            raise DomainError(f"mass {bad} is not finite")
        if (w < 0.0).any():
            bad = int(np.flatnonzero(w < 0.0)[0])
            raise DomainError(f"mass {bad} is negative ({w[bad]})")
        if not isinstance(self.kind, MeasureKind):
            raise DomainError(f"kind must be a MeasureKind, got {self.kind!r}")
        if self.kind is MeasureKind.PROBABILITY:
            total = float(np.sum(w))
            if abs(total - 1.0) > TOL_PROB_MASS:
                raise DomainError(
                    f"probability measure has total mass {total!r}, "
                    f"off by more than {TOL_PROB_MASS}"
                )

    @property
    def size(self) -> int:
        return self.grid.size

    def support(self) -> np.ndarray:
        """Indices of grid points carrying positive mass."""
        return np.flatnonzero(self.masses > 0.0)

    @cached_property
    def _support_and_root(self):
        """(sup, root): the support and ``sqrt(w)`` on it, computed once."""
        sup = self.support()
        if sup.size == 0:
            raise DomainError("measure has empty support")
        return sup, np.sqrt(self.masses[sup])

    @cached_property
    def _mean_zero_basis(self) -> np.ndarray:
        """Orthonormal basis (columns) of the mean-zero subspace in the
        coordinates ``y = sqrt(w) a`` on the support, computed on first use."""
        root = self._support_and_root[1]
        q0 = root / np.linalg.norm(root)
        # The projector onto the mean-zero subspace has rank size - 1;
        # its leading singular vectors form the basis, deterministically.
        u_mat = np.linalg.svd(np.eye(root.size) - np.outer(q0, q0))[0]
        return u_mat[:, : root.size - 1]


@dataclass(frozen=True)
class Direction:
    """A tangent direction: finite values on the grid."""

    values: np.ndarray

    def __post_init__(self):
        v = _freeze(self, "values", self.values)
        if v.ndim != 1:
            raise DimensionError(f"direction values must be 1-d, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise DomainError(f"direction value {bad} is not finite")


def as_values(a, m: int | None = None) -> np.ndarray:
    """Coerce a Direction or array-like to a float vector, checking length."""
    v = a.values if isinstance(a, Direction) else np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-d direction, got shape {v.shape}")
    if m is not None and v.size != m:
        raise DimensionError(f"direction has length {v.size}, expected {m}")
    return v


def inner_product(a, b, eta: DiscreteMeasure) -> float:
    """Weighted inner product ``sum_i a_i b_i w_i`` in L2(eta)."""
    av = as_values(a, eta.size)
    bv = as_values(b, eta.size)
    return float(np.sum(av * bv * eta.masses))


def norm(a, eta: DiscreteMeasure) -> float:
    """L2(eta) norm of a direction."""
    return float(np.sqrt(max(inner_product(a, a, eta), 0.0)))


def mean(a, eta: DiscreteMeasure) -> float:
    """Integral ``sum_i a_i w_i`` of a direction against eta."""
    av = as_values(a, eta.size)
    return float(np.sum(av * eta.masses))


def is_centered(a, eta: DiscreteMeasure) -> bool:
    return abs(mean(a, eta)) <= TOL_CENTERED


def require_centered(a, eta: DiscreteMeasure, what: str = "direction") -> np.ndarray:
    """Return the values of ``a`` after checking mean zero under eta: one
    direction, or each column of an (m, k) array, the first off-centre
    column named by its index."""
    if np.ndim(a) == 2:
        av = np.asarray(a, dtype=float)
        if av.shape[0] != eta.size:
            raise DimensionError(
                f"directions must have shape ({eta.size}, k), got {av.shape}")
        means = eta.masses @ av
    else:
        av = as_values(a, eta.size)
        means = np.sum(av * eta.masses)[np.newaxis]
    off = np.flatnonzero(np.abs(means) > TOL_CENTERED)
    if off.size:
        j = int(off[0])
        name = f"{what} {j}" if av.ndim == 2 else what
        raise DomainError(
            f"{name} must be centered under eta; integral is "
            f"{float(means[j])!r} (tolerance {TOL_CENTERED})"
        )
    return av


def center(a, eta: DiscreteMeasure) -> Direction:
    """Project ``a`` onto the mean-zero subspace: ``a - (integral of a) 1``.

    Only defined for probability measures; for a plain positive finite
    measure the mean-zero constraint has no tangent-space meaning here.
    """
    if eta.kind is not MeasureKind.PROBABILITY:
        raise DomainError("center() requires a probability measure")
    av = as_values(a, eta.size)
    return Direction(av - float(np.sum(av * eta.masses)))


def cumulative(a, eta: DiscreteMeasure, t: float) -> float:
    """Running integral ``sum_{u_i <= t} a_i w_i``.

    Inclusive of an atom sitting exactly at ``t``. Requires
    ``0 <= t <= tau``; values of ``t`` below the first grid point give 0.
    """
    t = float(t)
    if not (0.0 <= t <= eta.grid.tau):
        raise DomainError(f"t={t} outside [0, {eta.grid.tau}]")
    av = as_values(a, eta.size)
    sel = eta.grid.points <= t
    return float(np.sum(av[sel] * eta.masses[sel]))


def perturb_measure(eta: DiscreteMeasure, a, t: float) -> DiscreteMeasure:
    """One-parameter mass perturbation ``w_i -> w_i (1 + t a_i)``: the
    one-direction, one-t case of :func:`_mass_path`.

    Requires ``|t| * max|a| < 1`` so masses stay positive on the support.
    A probability measure stays a probability measure when ``a`` is mean
    zero; otherwise the result is demoted to POSITIVE_FINITE and a
    :class:`~semiinfo.errors.MeasureKindWarning` is emitted.
    """
    masses, kinds = _mass_path(eta, as_values(a, eta.size)[np.newaxis], (t,))
    return DiscreteMeasure(eta.grid, masses[0, 0], kinds[0])


def _mass_path(eta: DiscreteMeasure, directions, ts) -> tuple:
    """The masses ``w_i (1 + t a_i)`` for each direction a, a row of the
    (P, m) ``directions``, and each t in ``ts``, as :func:`perturb_measure`
    gives them one at a time: ``(masses, kinds)``, a (P, T, m) array in
    (direction, t) order and each direction's measure kind.

    The checks are those of a walk one direction and one t at a time,
    vectorized: the ``|t| * max|a| < 1`` error names the first offending
    (direction, t), an uncentered direction on a probability measure
    demotes every measure of its path with one warning for the call, and
    the first moved masses that :class:`DiscreteMeasure` would refuse
    (not finite, negative, or total mass off one) raise its error. Every
    caller reaches this through one function of its own, so the warning
    points at that function's caller."""
    arr = np.asarray(directions, dtype=float)
    ts = np.array([float(t) for t in ts])
    amax = np.max(np.abs(arr), axis=1)
    steep = np.abs(ts) * amax[:, np.newaxis] >= 1.0
    if steep.any():
        k, i = np.unravel_index(np.argmax(steep), steep.shape)
        raise DomainError(
            f"|t| * max|a| = {float(abs(ts[i]) * amax[k])!r} >= 1 would "
            "produce nonpositive masses"
        )
    kinds = [eta.kind] * len(arr)
    if eta.kind is MeasureKind.PROBABILITY:
        off = ~(np.abs(np.sum(arr * eta.masses, axis=1)) <= TOL_CENTERED)
        if off.any():
            warnings.warn(
                "perturbation direction is not mean zero; result demoted "
                "to a positive finite measure",
                MeasureKindWarning,
                stacklevel=3,
            )
            kinds = [MeasureKind.POSITIVE_FINITE if o else eta.kind
                     for o in off]
    masses = eta.masses * (1.0 + ts[:, np.newaxis] * arr[:, np.newaxis])
    refused = ~np.isfinite(masses).all(axis=2) | (masses < 0.0).any(axis=2)
    refused |= (np.abs(np.sum(masses, axis=2) - 1.0) > TOL_PROB_MASS) & (
        np.array([kind is MeasureKind.PROBABILITY for kind in kinds])
        [:, np.newaxis])
    if refused.any():
        k, i = np.unravel_index(np.argmax(refused), refused.shape)
        DiscreteMeasure(eta.grid, masses[k, i], kinds[k])  # raises its error
    return masses, tuple(kinds)
