"""Model components: likelihoods built from a finite-dimensional parameter
and a discrete measure, with scores in both.

A model here is a log density of the form

    log p(o; theta, eta) = r(theta, o) + f(x(theta, eta, o), o) + L(log w, o)

where ``x = integral of g(u; theta, o) deta(u)`` is a d-vector of linear
functionals of eta, f is a smooth outer function, and L is a linear
functional of directions (for likelihoods with point-mass factors such as
hazard atoms; L may be absent). The parameter score is

    score_theta = r_dot + f_dot . (integral of g_dot deta)

and the measure score in a tangent direction a is

    (B a)(o) = f_dot . (integral of g a deta) + L(a, o).

B is linear in a, so k directions stacked as the columns of an (m, k)
array A cost one evaluation of g and f_dot per outcome:
``f_dot . g^T (eta * A) + L(A, o)`` (:func:`score_matrix`).

On a probability measure the tangent space is the mean-zero subspace of
L2(eta) and directions fed to B must be centered; on a positive finite
measure it is all of L2(eta).

Component callables receive ``(theta, obs, points)`` for g and g_dot,
``(x, obs)`` for f and its derivatives, ``(values, obs)`` for L, and
``(theta, obs)`` for r and r_dot. L may receive an (m, k) array of
directions, one per column, and must then return a scalar or a (k,)
vector (indexing rows of ``values`` does this). Scalar models (d == 1)
may work with scalars and flat arrays; the accessors below normalize
shapes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DimensionError, DomainError, EvaluationError
from .measure import (
    DiscreteMeasure,
    MeasureKind,
    TOL_CENTERED,
    as_values,
    require_centered,
)


class TangentKind(enum.Enum):
    """Which subspace of L2(eta) perturbations may move along."""

    L2 = "l2"
    L2_ZERO = "l2_zero"


# The measure kind each tangent space presumes.
_KIND_FOR_TANGENT = {
    TangentKind.L2: MeasureKind.POSITIVE_FINITE,
    TangentKind.L2_ZERO: MeasureKind.PROBABILITY,
}


@dataclass(frozen=True)
class ModelComponents:
    """The six building blocks of a model likelihood plus dimensions.

    ``ell`` is the linear functional L (None when the likelihood has no
    point-mass factor). ``gdim`` is d, the number of integral functionals
    feeding f.
    """

    p: int
    tangent: TangentKind
    r: Callable
    r_dot: Callable
    g: Callable
    g_dot: Callable
    f: Callable
    f_dot: Callable
    f_ddot: Callable
    ell: Optional[Callable] = None
    gdim: int = 1
    label: str = ""

    def __post_init__(self):
        if self.p < 0:
            raise DomainError(f"parameter dimension must be >= 0, got {self.p}")
        if self.gdim < 1:
            raise DomainError(f"gdim must be >= 1, got {self.gdim}")
        if not isinstance(self.tangent, TangentKind):
            raise DomainError(f"tangent must be a TangentKind, got {self.tangent!r}")


@dataclass(frozen=True)
class ModelState:
    """A point (theta, eta) in the model's parameter space."""

    theta: np.ndarray
    eta: DiscreteMeasure

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        if th.ndim != 1:
            raise DimensionError(f"theta must be 1-d, got shape {th.shape}")
        if not np.all(np.isfinite(th)):
            raise DomainError("theta has non-finite entries")
        th = th.copy()
        th.setflags(write=False)
        object.__setattr__(self, "theta", th)


def check_state(components: ModelComponents, state: ModelState) -> None:
    """Validate that a state is usable with the given components:
    matching parameter dimension and measure kind consistent with the
    tangent space."""
    if state.theta.size != components.p:
        raise DimensionError(
            f"theta has length {state.theta.size}, model expects {components.p}"
        )
    expected = _KIND_FOR_TANGENT[components.tangent]
    if state.eta.kind is not expected:
        raise DomainError(
            f"tangent space {components.tangent.value} requires a "
            f"{expected.value} measure, got {state.eta.kind.value}"
        )


def g_values(components: ModelComponents, state: ModelState, obs) -> np.ndarray:
    """g on the grid as an (m, d) array."""
    pts = state.eta.grid.points
    arr = np.asarray(components.g(state.theta, obs, pts), dtype=float)
    m, d = pts.size, components.gdim
    if d == 1 and arr.shape == (m,):
        arr = arr[:, np.newaxis]
    if arr.shape != (m, d):
        raise DimensionError(
            f"g returned shape {arr.shape}, expected ({m}, {d})"
        )
    return arr


def g_dot_values(components: ModelComponents, state: ModelState, obs) -> np.ndarray:
    """dg/dtheta on the grid as an (m, d, p) array."""
    pts = state.eta.grid.points
    arr = np.asarray(components.g_dot(state.theta, obs, pts), dtype=float)
    m, d, p = pts.size, components.gdim, components.p
    if d == 1 and arr.shape == (m, p):
        arr = arr[:, np.newaxis, :]
    if arr.shape != (m, d, p):
        raise DimensionError(
            f"g_dot returned shape {arr.shape}, expected ({m}, {d}, {p})"
        )
    return arr


def _f_args(components: ModelComponents, x: np.ndarray):
    return float(x[0]) if components.gdim == 1 else x


def f_dot_values(components: ModelComponents, x: np.ndarray, obs) -> np.ndarray:
    out = np.asarray(components.f_dot(_f_args(components, x), obs), dtype=float)
    d = components.gdim
    if out.shape == ():
        out = out.reshape(1)
    if out.shape != (d,):
        raise DimensionError(f"f_dot returned shape {out.shape}, expected ({d},)")
    return out


def f_ddot_values(components: ModelComponents, x: np.ndarray, obs) -> np.ndarray:
    out = np.asarray(components.f_ddot(_f_args(components, x), obs), dtype=float)
    d = components.gdim
    if out.shape == ():
        out = out.reshape(1, 1)
    if out.shape != (d, d):
        raise DimensionError(
            f"f_ddot returned shape {out.shape}, expected ({d}, {d})"
        )
    return out


def log_density(components: ModelComponents, state: ModelState, obs) -> float:
    """Log density of one observation. May be -inf (zero-probability
    outcome, for example an event at a zero-mass grid point); NaN raises
    :class:`EvaluationError`."""
    check_state(components, state)
    return _log_density(components, state, obs,
                        g_values(components, state, obs))


def _log_density(components: ModelComponents, state: ModelState, obs,
                 gv: np.ndarray) -> float:
    """:func:`log_density` from g on the grid, which depends on theta,
    the outcome and the grid points but not on the masses."""
    x = state.eta.masses @ gv
    val = float(components.r(state.theta, obs))
    val += float(components.f(_f_args(components, x), obs))
    if components.ell is not None:
        with np.errstate(divide="ignore"):
            logw = np.log(state.eta.masses)
        val += float(components.ell(logw, obs))
    if np.isnan(val):
        raise EvaluationError(f"log density is NaN at observation {obs!r}")
    return val


def _g_and_f_dot(components: ModelComponents, state: ModelState, obs):
    """g on the grid and f_dot at x: the evaluations of one outcome that
    the parameter score and every measure score share."""
    gv = g_values(components, state, obs)
    return gv, f_dot_values(components, state.eta.masses @ gv, obs)


def _r_dot_values(components: ModelComponents, state: ModelState,
                  obs) -> np.ndarray:
    return np.asarray(components.r_dot(state.theta, obs),
                      dtype=float).reshape(components.p)


def _parameter_score(obs, masses: np.ndarray, fd: np.ndarray,
                     gd: np.ndarray, r_dot: np.ndarray) -> np.ndarray:
    out = r_dot + fd @ np.einsum("ide,i->de", gd, masses)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"parameter score not finite at {obs!r}")
    return out


class _Outcome(NamedTuple):
    """What every score and structural integrand at one outcome is built
    from: g on the grid, x, f_dot and f_ddot at x, the parameter score
    (empty when p == 0) and g_dot on the grid. A law stacks these over
    its N outcomes (:func:`_evaluate`): each field then has a leading
    axis of length N."""

    gv: np.ndarray
    x: np.ndarray
    fd: np.ndarray
    fdd: np.ndarray
    score: np.ndarray
    gd: np.ndarray


def _outcome(components: ModelComponents, state: ModelState, obs,
             gv: Optional[np.ndarray] = None) -> _Outcome:
    """Evaluate g (unless ``gv`` holds it), g_dot, f_dot and f_ddot at one
    outcome, and r_dot when p > 0."""
    if gv is None:
        gv = g_values(components, state, obs)
    x = state.eta.masses @ gv
    fd = f_dot_values(components, x, obs)
    gd = g_dot_values(components, state, obs)
    score = _parameter_score(
        obs, state.eta.masses, fd, gd, _r_dot_values(components, state, obs)
    ) if components.p else np.zeros(0)
    return _Outcome(gv, x, fd, f_ddot_values(components, x, obs), score, gd)


def _evaluate(components: ModelComponents, state: ModelState, outcomes,
              gvs: np.ndarray) -> _Outcome:
    """Each outcome's :func:`_outcome` written into row i of stacked
    arrays: ``gvs``, the (N, m, d) g on the grid it starts from, then
    (N, d) x and f_dot, (N, d, d) f_ddot, (N, p) scores and (N, m, d, p)
    g_dot."""
    n, m, d = gvs.shape
    stacked = _Outcome(gvs, np.empty((n, d)), np.empty((n, d)),
                       np.empty((n, d, d)), np.empty((n, components.p)),
                       np.empty((n, m, d, components.p)))
    for row, obs in enumerate(outcomes):
        outcome = _outcome(components, state, obs, gvs[row])
        for field, value in zip(stacked[1:], outcome[1:]):
            field[row] = value
    return stacked


def _measure_score(components: ModelComponents, obs, gv: np.ndarray,
                   fd: np.ndarray, weighted: np.ndarray,
                   av: np.ndarray) -> float:
    """(B a)(o) from g on the grid, f_dot at x and ``weighted``, the
    masses times a."""
    val = float(fd @ (weighted @ gv))
    if components.ell is not None:
        val += float(components.ell(av, obs))
    if not np.isfinite(val):
        raise EvaluationError(f"measure score not finite at {obs!r}")
    return val


def _directions(components: ModelComponents, state: ModelState,
                directions):
    """Check an (m, k) array of tangent directions, one per column (on a
    mean-zero tangent space every column must be centered under eta),
    and return it with the masses times it, which every outcome's
    scores along it share."""
    eta = state.eta
    arr = np.asarray(directions, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != eta.size:
        raise DimensionError(
            f"directions must have shape ({eta.size}, k), got {arr.shape}"
        )
    if components.tangent is TangentKind.L2_ZERO:
        means = eta.masses @ arr
        off = np.flatnonzero(np.abs(means) > TOL_CENTERED)
        if off.size:
            j = int(off[0])
            raise DomainError(
                f"tangent direction {j} must be centered under eta; "
                f"integral is {float(means[j])!r} (tolerance {TOL_CENTERED})"
            )
    return arr, eta.masses[:, np.newaxis] * arr


def _ell_values(components: ModelComponents, obs,
                arr: np.ndarray) -> np.ndarray:
    """L applied to the k columns of an (m, k) array, shape (k,)."""
    lv = np.asarray(components.ell(arr, obs), dtype=float)
    try:
        return np.broadcast_to(lv, (arr.shape[1],))
    except ValueError:
        raise DimensionError(
            f"L returned shape {lv.shape} for {arr.shape[1]} directions, "
            f"expected a scalar or ({arr.shape[1]},)"
        ) from None


def _direction_scores(components: ModelComponents, obs, dirs,
                      gv: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """Measure scores along checked directions ``dirs`` (from
    :func:`_directions`) from g on the grid and f_dot at x."""
    arr, weighted = dirs
    out = fd @ (gv.T @ weighted)
    if components.ell is not None:
        out = out + _ell_values(components, obs, arr)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"measure score not finite at {obs!r}")
    return out


def _ell_rows(components: ModelComponents, outcomes,
              m: int) -> Optional[np.ndarray]:
    """Each outcome's representer of L, one (m,) row per outcome with
    L(a, o) = row . a: L applied to the identity (None when L is
    absent)."""
    if components.ell is None:
        return None
    eye = np.eye(m)
    return np.stack([_ell_values(components, obs, eye) for obs in outcomes])


def _stacked_measure_scores(outcomes, stacked: _Outcome,
                            ell_rows: Optional[np.ndarray], dirs,
                            out: np.ndarray) -> np.ndarray:
    """Write into the (N, k) ``out`` the measure scores of the N stacked
    ``outcomes`` along checked directions ``dirs`` (from
    :func:`_directions`): M a for each direction a, with
    M = (f_dot . g^T) * masses plus the representers of L, formed as
    f_dot . (g^T (masses a)) + L(a) by one batched product over the
    stacked g and f_dot, so M itself is never formed. numpy makes each
    outcome's slice of the batch the BLAS call that
    :func:`_direction_scores` makes for that outcome alone, so the two
    agree bit for bit wherever the representer product rounds as L
    does (L picking entries of a, or integer combinations of them).
    Raises :class:`EvaluationError` naming the first outcome whose
    scores are not finite."""
    arr, weighted = dirs
    np.matmul(stacked.fd[:, np.newaxis],
              stacked.gv.transpose(0, 2, 1) @ weighted,
              out=out[:, np.newaxis])
    if ell_rows is not None:
        out += ell_rows @ arr
    bad = ~np.all(np.isfinite(out), axis=1)
    if np.any(bad):
        raise EvaluationError("measure score not finite at "
                              f"{outcomes[int(np.argmax(bad))]!r}")
    return out


def _joint_score(components: ModelComponents, obs, outcome: _Outcome,
                 dirs) -> np.ndarray:
    return np.concatenate([outcome.score, _direction_scores(
        components, obs, dirs, outcome.gv, outcome.fd)])


def score_theta(components: ModelComponents, state: ModelState, obs) -> np.ndarray:
    """Parameter score, shape (p,)."""
    check_state(components, state)
    return _outcome(components, state, obs).score


def score_matrix(components: ModelComponents, state: ModelState, obs,
                 directions) -> np.ndarray:
    """Measure scores (B a_j)(o) for the k columns a_j of an (m, k)
    array, shape (k,), from one evaluation of g and f_dot.

    For a mean-zero tangent space every column must be centered under
    the state's measure (checked numerically).
    """
    check_state(components, state)
    dirs = _directions(components, state, directions)
    return _direction_scores(components, obs, dirs,
                             *_g_and_f_dot(components, state, obs))


def joint_score(components: ModelComponents, state: ModelState, obs,
                directions) -> np.ndarray:
    """The parameter score followed by the measure scores of
    :func:`score_matrix`, shape (p + k,), from one evaluation of g and
    f_dot."""
    check_state(components, state)
    dirs = _directions(components, state, directions)
    return _joint_score(components, obs, _outcome(components, state, obs),
                        dirs)


def score_operator(components: ModelComponents, state: ModelState, obs, a) -> float:
    """Measure score (B a)(o) in the tangent direction a.

    For a mean-zero tangent space the direction must be centered under
    the state's measure (checked numerically).
    """
    return _score_operator(components, state, obs, a)[0]


def _score_operator(components: ModelComponents, state: ModelState, obs, a):
    """:func:`score_operator` with the g on the grid it evaluated."""
    check_state(components, state)
    if components.tangent is TangentKind.L2_ZERO:
        av = require_centered(a, state.eta, "tangent direction")
    else:
        av = as_values(a, state.eta.size)
    gv, fd = _g_and_f_dot(components, state, obs)
    return _measure_score(components, obs, gv, fd, state.eta.masses * av,
                          av), gv

