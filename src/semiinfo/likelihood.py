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

B is linear in a, and L is linear too, so L(a, o) = l_o . a with l_o
its representer: L applied to the m coordinate directions. Every
measure score is then one product over outcomes stacked N high, for k
directions stacked as the columns of an (m, k) array A:
``f_dot . g^T (eta * A) + l_o . A`` (:func:`_measure_scores`). The
public one-outcome functions (:func:`score_operator`,
:func:`score_matrix`, :func:`joint_score`) are its case N = 1. Only the
log density applies L to anything else, the log masses: there a
representer would meet log 0 = -inf at a zero mass and give NaN.

On a probability measure the tangent space is the mean-zero subspace of
L2(eta) and directions fed to B must be centered; on a positive finite
measure it is all of L2(eta).

Component callables receive ``(theta, obs, points)`` for g and g_dot,
``(x, obs)`` for f and its derivatives (x a float when d == 1),
``(values, obs)`` for L, and ``(theta, obs)`` for r and r_dot. With m
grid points, every output must have its shape:

    r, f, L(log w)   a scalar
    r_dot            (p,)
    g                (m, d), or (m,) when d == 1
    g_dot            (m, d, p), or (m, p) when d == 1
    f_dot            (d,), or a scalar when d == 1
    f_ddot           (d, d), or a scalar when d == 1

and any other shape raises :class:`DimensionError` naming the component
(:func:`_output`). L also receives the (m, m) identity, one coordinate
direction per column, and must then return a scalar or an (m,) vector,
its representer (indexing rows of ``values`` does both).
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
    """The eight building blocks of a model likelihood (r, r_dot, g,
    g_dot, f, f_dot, f_ddot and L) plus dimensions and a label.

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
        if not np.isfinite(th).all():
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


def _output(name: str, value, shape: tuple,
            bare: Optional[tuple] = None) -> np.ndarray:
    """The output of component ``name`` as a float array of ``shape``.
    When d == 1 the caller passes ``bare``, ``shape`` without its d
    axes, and an output of that shape gets the d axes back; any other
    shape raises :class:`DimensionError` naming the component."""
    arr = np.asarray(value, dtype=float)
    if bare is not None and arr.shape == bare:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise DimensionError(
            f"{name} returned shape {arr.shape}, expected {shape}"
        )
    return arr


def g_values(components: ModelComponents, state: ModelState, obs) -> np.ndarray:
    """g on the grid as an (m, d) array."""
    pts = state.eta.grid.points
    m, d = pts.size, components.gdim
    return _output("g", components.g(state.theta, obs, pts), (m, d),
                   (m,) if d == 1 else None)


def _f_args(components: ModelComponents, x: np.ndarray):
    return float(x[0]) if components.gdim == 1 else x


def f_dot_values(components: ModelComponents, x: np.ndarray, obs) -> np.ndarray:
    """f_dot at x as a (d,) array."""
    d = components.gdim
    return _output("f_dot", components.f_dot(_f_args(components, x), obs),
                   (d,), () if d == 1 else None)


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
    val = float(_output("r", components.r(state.theta, obs), ()))
    val += float(_output("f", components.f(_f_args(components, x), obs),
                         ()))
    if components.ell is not None:
        with np.errstate(divide="ignore"):
            logw = np.log(state.eta.masses)
        val += float(_output("L", components.ell(logw, obs), ()))
    if np.isnan(val):
        raise EvaluationError(f"log density is NaN at observation {obs!r}")
    return val


def _g_and_f_dot(components: ModelComponents, state: ModelState, obs):
    """g on the grid and f_dot at x: the evaluations of one outcome that
    the parameter score and every measure score share."""
    gv = g_values(components, state, obs)
    return gv, f_dot_values(components, state.eta.masses @ gv, obs)


class _Outcome(NamedTuple):
    """What every score and structural integrand at one outcome is built
    from: g on the grid, x, f_dot and f_ddot at x, the parameter score,
    g_dot on the grid and r_dot (both scores empty when p == 0). A law
    stacks these over its N outcomes (:func:`_evaluate`): each field
    then has a leading axis of length N."""

    gv: np.ndarray
    x: np.ndarray
    fd: np.ndarray
    fdd: np.ndarray
    score: np.ndarray
    gd: np.ndarray
    r_dot: np.ndarray


def _outcome(components: ModelComponents, state: ModelState, obs,
             gv: Optional[np.ndarray] = None) -> _Outcome:
    """Evaluate g (unless ``gv`` holds it), g_dot, f_dot and f_ddot at one
    outcome, and r_dot when p > 0: the one-row case of :func:`_evaluate`."""
    if gv is None:
        gv = g_values(components, state, obs)
    stacked = _evaluate(components, state, [obs], gv[np.newaxis])
    return _Outcome(*(field[0] for field in stacked))


def _evaluate(components: ModelComponents, state: ModelState, outcomes,
              gvs: np.ndarray) -> _Outcome:
    """The evaluations of each outcome written into row i of stacked
    arrays: ``gvs``, the (N, m, d) g on the grid it starts from, then
    (N, d) x and f_dot, (N, d, d) f_ddot, (N, p) parameter scores,
    (N, m, d, p) g_dot and (N, p) r_dot. Only the model is called per
    outcome; the parameter scores are one product over the stacks
    (:func:`_stacked_parameter_score`)."""
    n, m, d = gvs.shape
    p = components.p
    theta, pts, masses = state.theta, state.eta.grid.points, state.eta.masses
    x, fd, fdd = np.empty((n, d)), np.empty((n, d)), np.empty((n, d, d))
    gd, r_dot = np.empty((n, m, d, p)), np.empty((n, p))
    for row, obs in enumerate(outcomes):
        x_row = masses @ gvs[row]
        x[row] = x_row
        fd[row] = f_dot_values(components, x_row, obs)
        gd[row] = _output("g_dot", components.g_dot(theta, obs, pts),
                          (m, d, p), (m, p) if d == 1 else None)
        fdd[row] = _output("f_ddot",
                           components.f_ddot(_f_args(components, x_row), obs),
                           (d, d), () if d == 1 else None)
        if p:
            r_dot[row] = _output("r_dot", components.r_dot(theta, obs),
                                 (p,))
    # with p == 0 the scores are the empty (N, 0) r_dot
    score = (_stacked_parameter_score(outcomes, masses, fd, gd, r_dot)
             if p else r_dot)
    return _Outcome(gvs, x, fd, fdd, score, gd, r_dot)


def _stacked_parameter_score(outcomes, masses: np.ndarray, fd: np.ndarray,
                             gd: np.ndarray, r_dot: np.ndarray) -> np.ndarray:
    """The (N, p) parameter scores of the N stacked ``outcomes``,
    r_dot + f_dot . (integral of g_dot deta), as one product over the
    stacks; every parameter score is formed here, a single outcome as
    N = 1. Raises :class:`EvaluationError` naming the first outcome, in
    law order, whose score is not finite."""
    score = r_dot + np.einsum("nd,nde->ne", fd,
                              np.einsum("nide,i->nde", gd, masses))
    return _finite_rows(outcomes, score, "parameter score")


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


def _column(masses: np.ndarray, a: np.ndarray):
    """One checked direction a as :func:`_directions` gives it: a and the
    masses times a, each an (m, 1) column."""
    return a[:, np.newaxis], (masses * a)[:, np.newaxis]


def _ell_rows(components: ModelComponents, outcomes,
              m: int) -> Optional[np.ndarray]:
    """Each outcome's representer of L, one (m,) row per outcome with
    L(a, o) = row . a: L applied to the (m, m) identity, whose columns
    are the m coordinate directions (None when L is absent)."""
    if components.ell is None:
        return None
    eye = np.eye(m)
    rows = []
    for obs in outcomes:
        lv = np.asarray(components.ell(eye, obs), dtype=float)
        try:
            rows.append(np.broadcast_to(lv, (m,)))
        except ValueError:
            raise DimensionError(
                f"L returned shape {lv.shape} for {m} directions, the "
                f"columns of the ({m}, {m}) identity; expected a scalar "
                f"or ({m},)"
            ) from None
    return np.stack(rows)


def _measure_scores(outcomes, gvs: np.ndarray, fd: np.ndarray,
                    ell_rows: Optional[np.ndarray], dirs,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """The (N, k) measure scores of the N stacked ``outcomes`` along
    checked directions ``dirs`` (from :func:`_directions`), written into
    ``out`` (a new array by default), from their (N, m, d) g on the
    grid, their (N, d) f_dot and their (N, m) representers of L
    (:func:`_ell_rows`; None when L is absent): M a for each direction
    a, with M = (f_dot . g^T) * masses plus the representers, formed as
    f_dot . (g^T (masses a)) + representer . a by one batched product
    over the stacks, so M itself is never formed. Every measure score is
    formed here, a single outcome as N = 1 (:func:`_outcome_scores`).
    Raises :class:`EvaluationError` naming the first outcome, in law
    order, whose scores are not finite."""
    arr, weighted = dirs
    if out is None:
        out = np.empty((len(outcomes), arr.shape[1]))
    np.matmul(fd[:, np.newaxis], gvs.transpose(0, 2, 1) @ weighted,
              out=out[:, np.newaxis])
    if ell_rows is not None:
        out += ell_rows @ arr
    return _finite_rows(outcomes, out, "measure score")


def _outcome_scores(components: ModelComponents, obs, dirs,
                    gv: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """The (k,) measure scores of one outcome along checked directions
    ``dirs`` from its g on the grid and f_dot at x: the case N = 1 of
    :func:`_measure_scores`, with the outcome's own representer of L."""
    return _measure_scores([obs], gv[np.newaxis], fd[np.newaxis],
                           _ell_rows(components, [obs], gv.shape[0]),
                           dirs)[0]


def _stacked_score_matrix(outcomes, stacked: _Outcome,
                          ell_rows: Optional[np.ndarray],
                          masses: np.ndarray) -> np.ndarray:
    """M, the (N, m) measure scores of the N stacked ``outcomes`` along
    the m coordinate directions, checked finite: M = (f_dot . g^T) *
    masses plus the representers of L, by the batched product of
    :func:`_measure_scores` with no directions. It bypasses
    :func:`_directions`, which refuses the uncentered coordinate
    directions on a mean-zero tangent, and is not that product with the
    identity, which would cost O(N d m^2) and round (f_dot . g^T) * masses
    differently."""
    out = np.matmul(stacked.fd[:, np.newaxis],
                    stacked.gv.transpose(0, 2, 1))[:, 0] * masses
    if ell_rows is not None:
        out += ell_rows
    return _finite_rows(outcomes, out, "measure score")


def _finite_rows(outcomes, out: np.ndarray, what: str) -> np.ndarray:
    """``out``, the (N, k) scores of the N ``outcomes``, once checked
    finite; raises :class:`EvaluationError` naming the first outcome, in
    law order, whose ``what`` is not. The finite case is one pass over
    the stack: ``validate``'s adjoint check scores all N outcomes of each
    perturbed state in one stacked product and checks them here."""
    finite = np.isfinite(out)
    if finite.all():
        return out
    bad = int(np.argmin(finite.all(axis=1)))
    raise EvaluationError(f"{what} not finite at {outcomes[bad]!r}")


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
    return _outcome_scores(components, obs, dirs,
                           *_g_and_f_dot(components, state, obs))


def joint_score(components: ModelComponents, state: ModelState, obs,
                directions) -> np.ndarray:
    """The parameter score followed by the measure scores of
    :func:`score_matrix`, shape (p + k,), from one evaluation of g and
    f_dot."""
    check_state(components, state)
    dirs = _directions(components, state, directions)
    outcome = _outcome(components, state, obs)
    return np.concatenate([outcome.score, _outcome_scores(
        components, obs, dirs, outcome.gv, outcome.fd)])


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
    dirs = _column(state.eta.masses, av)
    gv, fd = _g_and_f_dot(components, state, obs)
    return float(_outcome_scores(components, obs, dirs, gv, fd)[0]), gv

