"""The information calculus: adjoints, information operators, least
favorable directions, efficient scores, and efficient information.

Given structural functions at a state, everything downstream is linear
algebra in L2(eta):

- the adjoint of the parameter score is
  ``A(v) = integral beta(v, u) deta(u) + alpha(v)``, an (m, p) array;
- the information operator of the measure score is the multiplier-plus-
  kernel operator with pieces (gamma, kappa), centered on mean-zero
  tangent spaces;
- the least favorable direction solves ``(B*B) a = A`` column by column;
- the efficient score is ``score_theta - B a`` and its second moment is
  the efficient information, which must also equal
  ``fisher - <A, a>_eta`` (the two routes are computed independently and
  their gap is reported);
- the parametric correction ``V = B*B - A fisher^{-1} A*`` is the
  information operator for the measure after profiling out theta, and is
  positive semidefinite by construction.

The classification of the information operator drives how it is
inverted: an everywhere-positive bounded multiplier makes the operator
invertible up to a compact perturbation (direct solves are expected to
succeed); an identically-zero multiplier leaves a pure integral operator
(smoothing, so direct solves are expected to fail and a ridge ladder is
walked instead).

Each expectation here is one walk of the outcome law that evaluates g
once per outcome, and each per-outcome integrand is one helper shared
by the public functions and ``analyze_model``. ``analyze_model`` walks
its law twice and evaluates the model once per outcome: the pass before
the solve sums the structural functions, the Fisher information and the
identifiability Gram from one evaluation of g, g_dot, f_dot, f_ddot and
r_dot, and keeps each outcome's g on the grid, f_dot and parameter
score; the efficient-information pass after the solve reads those and
evaluates only L along the solved directions. Only the structural
functions carry standard errors, so on a sampled law no other sum forms
second moments, and the symmetric identifiability Gram is summed as its
packed upper triangle.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .engines import (
    ClosedForm,
    StructuralFunctions,
    _mean,
    _reduce,
    _structural_result,
    outcome_law,
    structural_functions,
)
from .errors import DomainError, IllPosedError, NotIdentifiableError
from .likelihood import (
    ModelComponents,
    ModelState,
    TangentKind,
    _direction_scores,
    _directions,
    _joint_score,
    _Outcome,
    _outcome,
    _structural_terms,
    check_state,
    g_dot_values,
    score_operator,
)
from .measure import DiscreteMeasure, require_centered
from .operators import (
    KernelOperator,
    SolveResult,
    centered_basis,
    eta_weighted_min_eigen,
    min_eigen_sym,
    solve,
    _solve_psd,
)

# Ridge values walked, largest to smallest, when a direct solve is
# refused or leaves too large a residual.
RIDGE_LADDER_DEFAULT = tuple(10.0 ** (-k) for k in range(2, 11))
# A direct solve is accepted outright below this relative residual.
DIRECT_ACCEPT_REL_RESID = 1e-8
# Default bound for the multiplier-dominant classification test.
CATEGORY_BOUND_DEFAULT = 1e6
# Zero test for the multiplier under exact engines.
CATEGORY_ZERO_TOL_EXACT = 1e-10
# Above this relative residual (after the ladder) a functional is
# declared non-regular: no square-integrable influence direction exists
# at numerical precision.
NONREGULAR_RESID_TOL = 1e-3


class Category(enum.Enum):
    """How the information operator's multiplier behaves.

    INVERTIBLE_MULTIPLIER: gamma bounded inside [1/bound, bound], so the
    operator is a multiplier plus an integral perturbation and direct
    inversion is well posed.
    VANISHING_MULTIPLIER: gamma is numerically zero everywhere and the
    operator is purely integral (smoothing); inversion is ill posed.
    INDETERMINATE: neither test holds.
    """

    INVERTIBLE_MULTIPLIER = "invertible_multiplier"
    VANISHING_MULTIPLIER = "vanishing_multiplier"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class CategoryResult:
    category: Category
    gamma_min: float
    gamma_max: float
    abs_gamma_max: float
    tol_zero: float
    bound: float


def classify_category(sf: StructuralFunctions, *,
                      tol_zero: Optional[float] = None,
                      bound: float = CATEGORY_BOUND_DEFAULT) -> CategoryResult:
    """Classify the information operator by its multiplier.

    For Monte Carlo structural functions the zero test widens to four
    standard errors unless an explicit tolerance is passed.
    """
    if bound <= 1.0:
        raise DomainError(f"bound must exceed 1, got {bound}")
    if tol_zero is None:
        if sf.is_exact():
            tol_zero = CATEGORY_ZERO_TOL_EXACT
        else:
            tol_zero = 4.0 * float(np.max(sf.se_gamma)) if sf.se_gamma.size \
                else CATEGORY_ZERO_TOL_EXACT
    g = sf.gamma
    gmin = float(np.min(g)) if g.size else 0.0
    gmax = float(np.max(g)) if g.size else 0.0
    absmax = float(np.max(np.abs(g))) if g.size else 0.0
    if g.size and gmin >= 1.0 / bound and gmax <= bound:
        cat = Category.INVERTIBLE_MULTIPLIER
    elif absmax <= tol_zero:
        cat = Category.VANISHING_MULTIPLIER
    else:
        cat = Category.INDETERMINATE
    return CategoryResult(cat, gmin, gmax, absmax, float(tol_zero), float(bound))


def _symmetric(value: np.ndarray) -> np.ndarray:
    return 0.5 * (value + value.T)


def _fisher_term(outcome: _Outcome) -> np.ndarray:
    return np.outer(outcome.score, outcome.score)


def fisher_information(engine, components: ModelComponents,
                       state: ModelState) -> np.ndarray:
    """Second moment of the parameter score, shape (p, p)."""
    if components.p == 0:
        return np.zeros((0, 0))
    check_state(components, state)
    value = _mean(engine, components, state, lambda obs: _fisher_term(
        _outcome(components, state, obs)))
    return _symmetric(value)


def adjoint_of_score(sf: StructuralFunctions, eta: DiscreteMeasure,
                     tangent: TangentKind) -> np.ndarray:
    """Adjoint applied to the parameter score:
    ``integral beta(., u) deta(u) + alpha``, shape (m, p).

    On a mean-zero tangent space the adjoint lives in the mean-zero
    subspace, so the assembled columns are centered (the uncentered
    assembly is correct only as a functional on centered directions)."""
    raw = np.einsum("vuj,u->vj", sf.beta, eta.masses) + sf.alpha
    if tangent is TangentKind.L2_ZERO:
        raw = raw - np.sum(raw * eta.masses[:, np.newaxis], axis=0)
    return raw


def info_operator(sf: StructuralFunctions, eta: DiscreteMeasure,
                  tangent: TangentKind) -> KernelOperator:
    """The information operator of the measure score as a
    multiplier-plus-kernel operator (centering on mean-zero tangents)."""
    return KernelOperator(eta, sf.gamma, sf.kappa,
                          centering=tangent is TangentKind.L2_ZERO)


def v_operator(sf: StructuralFunctions, eta: DiscreteMeasure,
               tangent: TangentKind, fisher: np.ndarray) -> np.ndarray:
    """Matrix of the profiled information operator
    ``V = B*B - A fisher^{-1} A*`` acting on grid values.

    Positive semidefinite on the tangent space by the projection
    identity ``<V a, a> = E[(Ba)^2] - E[Ba score^T] fisher^{-1}
    E[score Ba]``. Raises :class:`NotIdentifiableError` when the
    parameter information is singular.
    """
    return _v_matrix(info_operator(sf, eta, tangent),
                     adjoint_of_score(sf, eta, tangent), fisher)


def _v_matrix(op: KernelOperator, adjoint: np.ndarray,
              fisher: np.ndarray) -> np.ndarray:
    """:func:`v_operator` from the information operator and the adjoint."""
    if fisher.shape[0] == 0:
        return op._matrix
    inv_at_w = _solve_psd("parameter information", fisher,
                          (adjoint * op.base.masses[:, np.newaxis]).T)
    return op._matrix - adjoint @ inv_at_w


@dataclass(frozen=True)
class LfdResult:
    """A least favorable direction solve with its ridge ladder trace and
    the information operator it solved (kept factored, for reuse)."""

    values: np.ndarray
    solve_result: SolveResult
    ladder: tuple
    ridge_used: float
    operator: KernelOperator


def least_favorable_direction(sf: StructuralFunctions, eta: DiscreteMeasure,
                              tangent: TangentKind, rhs,
                              ridge_ladder: Optional[Sequence[float]] = None
                              ) -> LfdResult:
    """Solve ``(B*B) a = rhs`` (columns independently).

    A direct solve is attempted first and accepted below
    ``DIRECT_ACCEPT_REL_RESID``. If it is refused as ill posed, or its
    residual is too large, the ridge ladder is walked and the step with
    the smallest relative residual wins (ties go to the smaller ridge).
    Without a ladder (None or empty), an ill-posed direct solve
    propagates :class:`IllPosedError`.
    """
    op = info_operator(sf, eta, tangent)
    candidates = []
    ladder_log = []
    direct_error: Optional[IllPosedError] = None
    try:
        direct = solve(op, rhs, 0.0)
        candidates.append(direct)
        ladder_log.append((0.0, direct.relative_residual))
    except IllPosedError as err:
        direct_error = err
        ladder_log.append((0.0, float("inf")))

    if not (candidates and candidates[0].relative_residual
            <= DIRECT_ACCEPT_REL_RESID):
        for ridge in ridge_ladder or ():
            res = solve(op, rhs, float(ridge))
            candidates.append(res)
            ladder_log.append((float(ridge), res.relative_residual))
    if not candidates:
        raise direct_error

    best = min(candidates,
               key=lambda r: (r.relative_residual, r.ridge))
    return LfdResult(best.solution, best, tuple(ladder_log), best.ridge, op)


def _lfd_directions(components: ModelComponents, state: ModelState,
                    lfd_values: np.ndarray):
    """Check a least favorable direction (one column per parameter) as
    tangent directions at the state."""
    lfd = np.asarray(lfd_values, dtype=float)
    if lfd.ndim != 2 or lfd.shape != (state.eta.size, components.p):
        raise DomainError(
            f"least favorable direction has shape {lfd.shape}, expected "
            f"({state.eta.size}, {components.p})"
        )
    check_state(components, state)
    return _directions(components, state, lfd)


def _efficient_score(components: ModelComponents, obs, outcome: _Outcome,
                     dirs) -> np.ndarray:
    return outcome.score - _direction_scores(components, obs, dirs,
                                             outcome.gv, outcome.fd)


def _efficient_term(components: ModelComponents, obs, outcome: _Outcome,
                    dirs) -> np.ndarray:
    v = _efficient_score(components, obs, outcome, dirs)
    return np.outer(v, v)


def efficient_score_function(components: ModelComponents, state: ModelState,
                             lfd_values: np.ndarray) -> Callable:
    """The map ``obs -> score_theta - B a`` with a the least favorable
    direction, one column per parameter."""
    dirs = _lfd_directions(components, state, lfd_values)

    def eff_score(obs):
        return _efficient_score(components, obs,
                                _outcome(components, state, obs), dirs)

    return eff_score


@dataclass(frozen=True)
class EfficientInformation:
    """Efficient information by two independent routes.

    ``by_score`` is the second moment of the efficient score;
    ``by_adjoint`` is ``fisher - <A, a>_eta``. They agree when the least
    favorable solve is exact; the gap is a solve diagnostic.
    """

    by_score: np.ndarray
    by_adjoint: np.ndarray
    discrepancy: float


def efficient_information(engine, components: ModelComponents,
                          state: ModelState, lfd_values: np.ndarray,
                          adjoint: np.ndarray,
                          fisher: np.ndarray) -> EfficientInformation:
    return _efficient_information(engine, components, state, lfd_values,
                                  adjoint, fisher,
                                  functools.partial(_outcome, components,
                                                    state))


def _efficient_information(engine, components: ModelComponents,
                           state: ModelState, lfd_values: np.ndarray,
                           adjoint: np.ndarray, fisher: np.ndarray,
                           outcome: Callable) -> EfficientInformation:
    """:func:`efficient_information` with ``outcome(obs)`` giving each
    outcome's evaluation (:func:`analyze_model` hands in the ones its
    first pass kept)."""
    dirs = _lfd_directions(components, state, lfd_values)
    by_score = _symmetric(_mean(
        engine, components, state,
        lambda obs: _efficient_term(components, obs, outcome(obs), dirs)))
    cross = adjoint.T @ dirs[1]
    by_adjoint = fisher - cross
    gap = float(np.max(np.abs(by_score - by_adjoint))) if fisher.size else 0.0
    return EfficientInformation(by_score, by_adjoint, gap)


@dataclass(frozen=True)
class IdentifiabilityResult:
    """Smallest eigenvalue of the joint score second-moment matrix over
    the parameter score and a basis of tangent directions. Zero exposes a
    direction (parametric, nonparametric, or mixed) along which the model
    does not move."""

    min_eigen: float
    dimension: int


def _identifiability_directions(components: ModelComponents,
                                state: ModelState):
    """A basis of the tangent space, orthonormal in L2(eta), checked as
    tangent directions."""
    eta = state.eta
    if components.tangent is TangentKind.L2_ZERO:
        basis = centered_basis(eta)
    else:
        live = eta.masses > 0.0
        scale = np.ones(eta.size)
        scale[live] = 1.0 / np.sqrt(eta.masses[live])
        basis = np.diag(scale)
    return _directions(components, state, basis)


def _gram_dimension(components: ModelComponents, dirs) -> int:
    """The number of scores in the joint score: the parameter score and
    one per direction in ``dirs``."""
    return components.p + dirs[0].shape[1]


def _gram_term(components: ModelComponents, obs, outcome: _Outcome, dirs,
               upper) -> np.ndarray:
    """The joint score's outer product packed as its ``upper`` triangle:
    the same products as ``np.outer``, which is exactly symmetric."""
    v = _joint_score(components, obs, outcome, dirs)
    return v[upper[0]] * v[upper[1]]


def _gram(packed: np.ndarray, k: int) -> np.ndarray:
    """The symmetric (k, k) Gram from its summed packed upper triangle."""
    upper = np.triu_indices(k)
    gram = np.empty((k, k))
    gram[upper] = packed
    gram[upper[::-1]] = packed
    return gram


def _identifiability_result(gram: np.ndarray) -> IdentifiabilityResult:
    return IdentifiabilityResult(min_eigen_sym(gram), gram.shape[0])


def local_identifiability(engine, components: ModelComponents,
                          state: ModelState) -> IdentifiabilityResult:
    check_state(components, state)
    dirs = _identifiability_directions(components, state)
    k = _gram_dimension(components, dirs)
    upper = np.triu_indices(k)
    packed = _mean(engine, components, state, lambda obs: _gram_term(
        components, obs, _outcome(components, state, obs), dirs, upper))
    return _identifiability_result(_gram(packed, k))


@dataclass(frozen=True)
class InfluenceResult:
    """Efficient influence computation for a functional of the measure."""

    lfd: np.ndarray
    solve_result: SolveResult
    ladder: tuple
    non_regular: bool
    influence: Callable


def nonparametric_influence(engine, components: ModelComponents,
                            state: ModelState, chi_dot,
                            ridge_ladder: Sequence[float] = RIDGE_LADDER_DEFAULT,
                            nonregular_tol: float = NONREGULAR_RESID_TOL
                            ) -> InfluenceResult:
    """Efficient influence function of a smooth functional of the measure
    in a model without parametric part.

    ``chi_dot`` is the derivative's representer on the grid; for
    mean-zero tangent spaces it must be centered. The influence direction
    solves ``(B*B) a = chi_dot``; when even the best ladder step leaves a
    relative residual above ``nonregular_tol`` the functional is flagged
    non-regular (its derivative is not attained by any square-integrable
    direction at numerical precision) and the returned influence is the
    best-effort ridge solution.
    """
    if components.p != 0:
        raise DomainError(
            "influence for measure functionals requires a model with no "
            "parametric part; profile theta first"
        )
    if components.tangent is TangentKind.L2_ZERO:
        chi_vec = require_centered(chi_dot, state.eta, "functional derivative")
    else:
        chi_vec = np.asarray(chi_dot, dtype=float)
    sf = structural_functions(engine, components, state)
    lfd = least_favorable_direction(sf, state.eta, components.tangent,
                                    chi_vec, ridge_ladder)
    non_regular = lfd.solve_result.relative_residual > nonregular_tol

    def influence(obs):
        return score_operator(components, state, obs, lfd.values)

    return InfluenceResult(lfd.values, lfd.solve_result, lfd.ladder,
                           bool(non_regular), influence)


@dataclass(frozen=True)
class InfoReport:
    """Everything analyze() computes at one state."""

    label: str
    p: int
    m: int
    tangent: str
    engine: str
    structural: StructuralFunctions
    category: CategoryResult
    fisher: np.ndarray
    adjoint: np.ndarray
    lfd: Optional[LfdResult]
    efficient: Optional[EfficientInformation]
    v_min_eigen: float
    identifiability: Optional[IdentifiabilityResult]
    normalization_deficit: Optional[float]
    diagnostics: dict = field(default_factory=dict)


def _walk_before_solve(law, components: ModelComponents, state: ModelState,
                       ident_dirs):
    """One pass over the law summing the structural functions, the
    Fisher information and, given identifiability directions, the joint
    score Gram (as its packed upper triangle), from one evaluation of g,
    g_dot, f_dot, f_ddot and r_dot per outcome. Also returns each
    outcome's evaluation, in law order. Only the structural functions
    get standard errors.

    The compensated sum is elementwise, so summing the integrands in one
    pass gives the bits of one pass per quantity.
    """
    kept = []
    if ident_dirs is not None:
        k = _gram_dimension(components, ident_dirs)
        upper = np.triu_indices(k)

    def terms(obs):
        gd = g_dot_values(components, state, obs)
        outcome = _outcome(components, state, obs, gd)
        kept.append(outcome)
        out = list(_structural_terms(components, state, obs, outcome.gv, gd,
                                     outcome.fd))
        if components.p:
            out.append(_fisher_term(outcome))
        if ident_dirs is not None:
            out.append(_gram_term(components, obs, outcome, ident_dirs,
                                  upper))
        return out

    values, ses = _reduce(law, terms, 4)
    sf = _structural_result(law, values[:4], ses)
    fisher = _symmetric(values[4]) if components.p else np.zeros((0, 0))
    gram = _gram(values[-1], k) if ident_dirs is not None else None
    return sf, fisher, gram, kept


def analyze_model(components: ModelComponents, state: ModelState, engine, *,
                  ridge_ladder: Optional[Sequence[float]] = RIDGE_LADDER_DEFAULT,
                  category_bound: float = CATEGORY_BOUND_DEFAULT,
                  tol_zero: Optional[float] = None,
                  with_identifiability: bool = True,
                  label: str = "") -> InfoReport:
    """Run the full calculus at one state and collect the results.

    Under an outcome law this walks the law twice and evaluates the
    model once per outcome (building an exact law evaluates the log
    density besides). The pass before the solve sums the structural
    functions, the Fisher information and the identifiability Gram, and
    keeps each outcome's g on the grid, f_dot and parameter score; the
    efficient-information pass after the solve reads those. It builds
    one information operator per state: the least favorable solve
    factors it and V is formed from its dense matrix. A closed-form
    engine answers through its handles.
    """
    eta = state.eta
    closed = isinstance(engine, ClosedForm)
    gram = ident_dirs = None
    if closed:
        law = engine
        sf = structural_functions(engine, components, state)
        fisher = fisher_information(engine, components, state)
        outcome = functools.partial(_outcome, components, state)
    else:
        law = outcome_law(engine, components, state)
        check_state(components, state)
        if with_identifiability:
            ident_dirs = _identifiability_directions(components, state)
        sf, fisher, gram, kept = _walk_before_solve(law, components, state,
                                                    ident_dirs)
        replay = iter(kept)

        def outcome(obs):
            # The pass after the solve walks the same law in the same order.
            return next(replay)

    cat = classify_category(sf, tol_zero=tol_zero, bound=category_bound)
    adjoint = adjoint_of_score(sf, eta, components.tangent)

    lfd = None
    efficient = None
    fisher_singular = None
    if components.p:
        try:
            lfd = least_favorable_direction(sf, eta, components.tangent,
                                            adjoint, ridge_ladder)
            efficient = _efficient_information(law, components, state,
                                               lfd.values, adjoint, fisher,
                                               outcome)
            v_mat = _v_matrix(lfd.operator, adjoint, fisher)
        except NotIdentifiableError as exc:
            # Singular parameter block: skip the quantities that divide by
            # it so the identifiability check below can still name the
            # flat direction.
            fisher_singular = str(exc)
            v_mat = None
    else:
        v_mat = info_operator(sf, eta, components.tangent)._matrix
    if v_mat is None:
        v_min = float("nan")
    else:
        v_min = eta_weighted_min_eigen(
            v_mat, eta, centered=components.tangent is TangentKind.L2_ZERO
        )

    ident = None
    if gram is not None:
        ident = _identifiability_result(gram)

    diagnostics = {
        "max_structural_se": sf.max_se(),
        "route_discrepancy": efficient.discrepancy if efficient else 0.0,
        "lfd_relative_residual":
            lfd.solve_result.relative_residual if lfd else 0.0,
        "lfd_ridge": lfd.ridge_used if lfd else 0.0,
    }
    if fisher_singular is not None:
        diagnostics["fisher_singular"] = fisher_singular
    return InfoReport(
        label=label or components.label, p=components.p, m=eta.size,
        tangent=components.tangent.value, engine=sf.engine,
        structural=sf, category=cat, fisher=fisher, adjoint=adjoint,
        lfd=lfd, efficient=efficient, v_min_eigen=float(v_min),
        identifiability=ident,
        normalization_deficit=None if closed else law.deficit,
        diagnostics=diagnostics,
    )
