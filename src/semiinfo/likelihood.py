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
measure score is then one product over N outcomes, for k directions
stacked as the columns of an (m, k) array A:
``f_dot . g^T (eta * A) + l_o . A`` (:func:`_measure_scores`). Only the
log density applies L to anything else, the log masses: there a
representer would meet log 0 = -inf at a zero mass and give NaN.

On a probability measure the tangent space is the mean-zero subspace of
L2(eta) and directions fed to B must be centered; on a positive finite
measure it is all of L2(eta). One gate admits every direction: a single
one passes :func:`_tangent`, the columns of an array :func:`_directions`,
and on a mean-zero tangent space both apply ``measure.require_centered``.

Each component is called once per law, on its outcome table: the
outcomes' namedtuple type built with one (N,) array per field
(:func:`outcome_table`), so ``o.u_index`` reads a column. The public
one-outcome functions are the table of N = 1. Components receive
``(theta, table, points)`` for g and g_dot, ``(x, table)`` for f and its
derivatives (x (N, d), or (N,) when d == 1), ``(values, table)`` for L
and ``(theta, table)`` for r and r_dot. With m grid points, every
output must have its shape:

    r, f             (N,)
    r_dot            (N, p)
    g                (N, m, d), or (N, m) when d == 1
    g_dot            (N, m, d, p), or (N, m, p) when d == 1
    f_dot            (N, d), or (N,) when d == 1
    f_ddot           (N, d, d), or (N,) when d == 1
    L(values)        (N, k), for an (m, k) array of values

and any other shape raises :class:`DimensionError` naming the component
(:func:`_output`). L receives the log masses as one (m, 1) column, or
as N columns when each outcome sits at masses of its own along a mass
path (``validate``'s score check), and the (m, m) identity, whose
(N, m) image is the representers.
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


def outcome_table(outcomes) -> tuple:
    """The table of N distinct outcomes of one namedtuple type: that type
    built with one (N,) array per field. Raises :class:`DomainError`
    naming the first outcome that is of another type or repeated."""
    kind, seen = type(outcomes[0]), set()
    for obs in outcomes:
        if type(obs) is not kind or not hasattr(kind, "_fields"):
            raise DomainError(
                f"outcome {obs!r} is not a namedtuple of the first "
                f"outcome's type ({kind.__name__})")
        if obs in seen:
            raise DomainError(f"outcome {obs!r} is listed twice")
        seen.add(obs)
    return kind._make(np.array(column) for column in zip(*outcomes))


def _output(name: str, value, shape: tuple,
            bare: Optional[tuple] = None) -> np.ndarray:
    """The output of component ``name``, one row per outcome, as a float
    array of ``shape``. When d == 1 the caller passes ``bare``, ``shape``
    without its d axes, and an output of that shape gets the d axes
    back; any other shape raises :class:`DimensionError` naming the
    component."""
    arr = np.asarray(value, dtype=float)
    if bare is not None and arr.shape == bare:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise DimensionError(
            f"{name} returned shape {arr.shape}, expected {shape}"
        )
    return arr


def g_values(components: ModelComponents, state: ModelState,
             table) -> np.ndarray:
    """g on the grid for the table's N outcomes, an (N, m, d) array."""
    pts = state.eta.grid.points
    n, m, d = len(table[0]), pts.size, components.gdim
    return _output("g", components.g(state.theta, table, pts), (n, m, d),
                   (n, m) if d == 1 else None)


def _at_x(components: ModelComponents, name: str, x: np.ndarray,
          table) -> np.ndarray:
    """f, f_dot or f_ddot (``name``) at the table's (N, d) x, passed as
    (N,) when d == 1: an (N,), (N, d) or (N, d, d) array."""
    n, d = x.shape
    shape = {"f": (n,), "f_dot": (n, d), "f_ddot": (n, d, d)}[name]
    value = getattr(components, name)(x[:, 0] if d == 1 else x, table)
    return _output(name, value, shape, (n,) if d == 1 else None)


def log_density(components: ModelComponents, state: ModelState, obs) -> float:
    """Log density of one observation. May be -inf (zero-probability
    outcome, for example an event at a zero-mass grid point); NaN raises
    :class:`EvaluationError`."""
    check_state(components, state)
    table = outcome_table((obs,))
    return float(_log_density(components, state, (obs,), table,
                              g_values(components, state, table))[0])


def _log_density(components: ModelComponents, state: ModelState, outcomes,
                 table, gvs: np.ndarray,
                 masses: Optional[np.ndarray] = None) -> np.ndarray:
    """The (N,) log densities of the N ``outcomes`` (``table``) from their
    (N, m, d) g on the grid, which does not depend on the masses: at the
    state, or, when ``masses`` is given, each row at its own (m,) masses,
    row i of the (N, m) ``masses`` on the state's grid. L then receives
    those log masses as N columns, of which row i reads column i. Raises
    :class:`EvaluationError` naming the first outcome whose log density
    is NaN."""
    n, own = len(outcomes), masses is not None
    val = _output("r", components.r(state.theta, table), (n,))
    x = (np.matmul(masses[:, np.newaxis], gvs)[:, 0] if own
         else np.matmul(state.eta.masses, gvs))
    val = val + _at_x(components, "f", x, table)
    if components.ell is not None:
        with np.errstate(divide="ignore"):
            logw = (np.log(masses).T if own
                    else np.log(state.eta.masses)[:, np.newaxis])
        ell = _output("L", components.ell(logw, table), (n, logw.shape[1]))
        val += np.diagonal(ell) if own else ell[:, 0]
    nan = np.isnan(val)
    if nan.any():
        raise EvaluationError(
            f"log density is NaN at observation {outcomes[np.argmax(nan)]!r}")
    return val


class _Outcome(NamedTuple):
    """What every score and structural integrand of a law's outcomes is
    built from, one row per outcome (:func:`_evaluate`): (N, m, d) g on
    the grid, (N, d) x, f_dot at x, (N, d, d) f_ddot at x, (N, p)
    parameter scores, (N, m, d, p) g_dot on the grid, (N, p) r_dot and
    the (N, m) representers of L, L(a, o_i) = row i . a (None when L is
    absent)."""

    gv: np.ndarray
    x: np.ndarray
    fd: np.ndarray
    fdd: np.ndarray
    score: np.ndarray
    gd: np.ndarray
    r_dot: np.ndarray
    ell: Optional[np.ndarray]


def _evaluate(components: ModelComponents, state: ModelState, outcomes,
              table, gvs: np.ndarray) -> _Outcome:
    """The evaluations of the N ``outcomes`` (``table``) from ``gvs``,
    their (N, m, d) g on the grid: one call each of f_dot, f_ddot, g_dot,
    r_dot and L (on the (m, m) identity), and the parameter scores as one
    product over the stacks (:func:`_stacked_parameter_score`)."""
    n, m, d = gvs.shape
    p, theta, masses = components.p, state.theta, state.eta.masses
    x = np.matmul(masses, gvs)
    fd = _at_x(components, "f_dot", x, table)
    fdd = _at_x(components, "f_ddot", x, table)
    gd = _output("g_dot",
                 components.g_dot(theta, table, state.eta.grid.points),
                 (n, m, d, p), (n, m, p) if d == 1 else None)
    r_dot = _output("r_dot", components.r_dot(theta, table), (n, p))
    ell = (None if components.ell is None else
           _output("L", components.ell(np.eye(m), table), (n, m)))
    # with p == 0 the scores are the empty (N, 0) r_dot
    score = (_stacked_parameter_score(outcomes, masses, fd, gd, r_dot)
             if p else r_dot)
    return _Outcome(gvs, x, fd, fdd, score, gd, r_dot, ell)


def _evaluate_one(components: ModelComponents, state: ModelState,
                  obs) -> tuple:
    """One outcome's table and evaluation, the case N = 1 of
    :func:`_evaluate`."""
    check_state(components, state)
    table = outcome_table((obs,))
    return table, _evaluate(components, state, (obs,), table,
                            g_values(components, state, table))


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


def _tangent(components: ModelComponents, state: ModelState, a,
             what: str) -> np.ndarray:
    """The values of one tangent direction a at the state: a vector of
    the grid's length, centered under eta on a mean-zero tangent space
    (``what`` names it in an error)."""
    av = as_values(a, state.eta.size)
    if components.tangent is TangentKind.L2_ZERO:
        require_centered(av, state.eta, what)
    return av


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
        require_centered(arr, eta, "tangent direction")
    return arr, eta.masses[:, np.newaxis] * arr


def _column(masses: np.ndarray, a: np.ndarray):
    """One checked direction a as :func:`_directions` gives it: a and the
    masses times a, each an (m, 1) column."""
    return a[:, np.newaxis], (masses * a)[:, np.newaxis]


def _measure_scores(outcomes, stacked: _Outcome, dirs,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """The (N, k) measure scores of the N ``outcomes`` along checked
    directions ``dirs`` (from :func:`_directions`), written into ``out``
    (a new array by default), from their ``stacked`` evaluation (g on
    the grid, f_dot and the representers of L): M a for each direction
    a, with M = (f_dot . g^T) * masses plus the representers, formed as
    f_dot . (g^T (masses a)) + representer . a by one batched product
    over the stacks, so M itself is never formed. Every measure score is
    formed here, a single outcome as N = 1. Raises
    :class:`EvaluationError` naming the first outcome, in law order,
    whose scores are not finite."""
    arr, weighted = dirs
    if out is None:
        out = np.empty((len(outcomes), arr.shape[1]))
    np.matmul(stacked.fd[:, np.newaxis],
              stacked.gv.transpose(0, 2, 1) @ weighted,
              out=out[:, np.newaxis])
    if stacked.ell is not None:
        out += stacked.ell @ arr
    return _finite_rows(outcomes, out, "measure score")


def _stacked_score_matrix(outcomes, stacked: _Outcome,
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
    if stacked.ell is not None:
        out += stacked.ell
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
    return _evaluate_one(components, state, obs)[1].score[0]


def score_matrix(components: ModelComponents, state: ModelState, obs,
                 directions) -> np.ndarray:
    """Measure scores (B a_j)(o) for the k columns a_j of an (m, k)
    array, shape (k,): :func:`joint_score` without the parameter score.
    The columns are admitted by :func:`_directions`."""
    return joint_score(components, state, obs, directions)[components.p:]


def joint_score(components: ModelComponents, state: ModelState, obs,
                directions) -> np.ndarray:
    """The parameter score followed by the measure scores (B a_j)(o) for
    the k columns a_j of an (m, k) array, shape (p + k,), from one
    evaluation of the outcome."""
    check_state(components, state)
    dirs = _directions(components, state, directions)
    st = _evaluate_one(components, state, obs)[1]
    return np.concatenate([st.score[0], _measure_scores((obs,), st, dirs)[0]])


def score_operator(components: ModelComponents, state: ModelState, obs, a) -> float:
    """Measure score (B a)(o) in the tangent direction a, admitted by
    :func:`_tangent`."""
    check_state(components, state)
    av = _tangent(components, state, a, "tangent direction")
    one = _evaluate_one(components, state, obs)[1]
    return float(_measure_scores((obs,), one,
                                 _column(state.eta.masses, av))[0, 0])
