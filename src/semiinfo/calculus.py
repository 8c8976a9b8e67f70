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

The classification of the information operator by its multiplier is a
reported diagnostic of how well posed its inversion is: an
everywhere-positive bounded multiplier makes the operator invertible up
to a compact perturbation (direct solves are expected to succeed); an
identically-zero multiplier leaves a pure integral operator (smoothing,
so its reduced system is expected to lose rank). The least favorable
solve does not read it: it makes one rank-revealing solve, whose rank
and residual it reports.

Every quantity has one path. Each expectation here is one walk of the
outcome law over the evaluations the law keeps (g and g_dot on the
grid, f_dot at x and the parameter score, computed once per outcome on
first use), so a law asked for several quantities evaluates the model
once per outcome. ``analyze_model`` is the composition of the public
functions on one law: the structural functions, Fisher information and
identifiability before the solve, the efficient information after it,
which evaluates only L along the solved directions. Only the structural
functions carry standard errors, so on a sampled law no other sum forms
second moments. The identifiability Gram is not a per-outcome sum: the
joint scores of the N outcomes are stacked into one (N, k) matrix S and
the Gram is one product ``R.T @ R`` with ``R = sqrt(w) S``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .engines import (
    ClosedForm,
    StructuralFunctions,
    _reduce,
    outcome_law,
    structural_functions,
)
from .errors import DomainError, NotIdentifiableError
from .likelihood import (
    ModelComponents,
    ModelState,
    TangentKind,
    _direction_scores,
    _directions,
    _joint_score,
    _Outcome,
    _outcome,
    check_state,
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

# Bound for the multiplier-dominant classification test.
CATEGORY_BOUND = 1e6
# Zero test for the multiplier under exact engines.
CATEGORY_ZERO_TOL_EXACT = 1e-10
# Above this relative residual of the min-norm solve a functional is
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


def classify_category(sf: StructuralFunctions) -> CategoryResult:
    """Classify the information operator by its multiplier.

    For Monte Carlo structural functions the zero test widens to four
    standard errors.
    """
    if sf.is_exact() or not sf.se_gamma.size:
        tol_zero = CATEGORY_ZERO_TOL_EXACT
    else:
        tol_zero = 4.0 * float(np.max(sf.se_gamma))
    g = sf.gamma
    gmin = float(np.min(g)) if g.size else 0.0
    gmax = float(np.max(g)) if g.size else 0.0
    absmax = float(np.max(np.abs(g))) if g.size else 0.0
    if g.size and gmin >= 1.0 / CATEGORY_BOUND and gmax <= CATEGORY_BOUND:
        cat = Category.INVERTIBLE_MULTIPLIER
    elif absmax <= tol_zero:
        cat = Category.VANISHING_MULTIPLIER
    else:
        cat = Category.INDETERMINATE
    return CategoryResult(cat, gmin, gmax, absmax, float(tol_zero),
                          float(CATEGORY_BOUND))


def _symmetric(value: np.ndarray) -> np.ndarray:
    return 0.5 * (value + value.T)


def _evaluated_mean(engine, components: ModelComponents, state: ModelState,
                    term: Callable) -> np.ndarray:
    """The mean of ``term(obs, outcome)`` under the outcome law, with
    ``outcome`` the law's evaluation of ``obs``."""
    law = outcome_law(engine, components, state)
    evaluated = law.evaluated
    (value,), _ = _reduce(law, lambda obs: (term(obs, evaluated[obs]),), 0)
    return value


def fisher_information(engine, components: ModelComponents,
                       state: ModelState) -> np.ndarray:
    """Second moment of the parameter score, shape (p, p)."""
    if components.p == 0:
        return np.zeros((0, 0))
    return _symmetric(_evaluated_mean(
        engine, components, state,
        lambda obs, outcome: np.outer(outcome.score, outcome.score)))


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
    """A least favorable direction solve and the information operator it
    solved (kept factored, for reuse). ``ladder`` logs the one solve
    made, as ``((rank, relative_residual),)``."""

    values: np.ndarray
    solve_result: SolveResult
    ladder: tuple
    operator: KernelOperator


def least_favorable_direction(sf: StructuralFunctions, eta: DiscreteMeasure,
                              tangent: TangentKind, rhs) -> LfdResult:
    """Solve ``(B*B) a = rhs`` (columns independently) by one
    rank-revealing solve (:func:`operators.solve`): the min-norm least
    squares solution, which is the direct one at full rank."""
    op = info_operator(sf, eta, tangent)
    res = solve(op, rhs)
    return LfdResult(res.solution, res, ((res.rank, res.relative_residual),),
                     op)


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
    """Both routes to the efficient information from the least favorable
    direction, the adjoint of the score and the Fisher information."""
    dirs = _lfd_directions(components, state, lfd_values)
    by_score = _symmetric(_evaluated_mean(
        engine, components, state,
        lambda obs, outcome: _efficient_term(components, obs, outcome,
                                             dirs)))
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


def _identifiability_gram(engine, components: ModelComponents,
                          state: ModelState) -> np.ndarray:
    """The second moment of the joint score over the parameter score and
    an L2(eta)-orthonormal tangent basis, shape (k, k): one product of
    the weighted (N, k) score matrix of the N outcomes with itself."""
    check_state(components, state)
    dirs = _identifiability_directions(components, state)
    law = outcome_law(engine, components, state)
    evaluated = law.evaluated
    root = np.empty((len(law.pairs), components.p + dirs[0].shape[1]))
    for row, (obs, weight) in zip(root, law.pairs):
        row[:] = np.sqrt(weight) * _joint_score(components, obs,
                                                evaluated[obs], dirs)
    # numpy forms ``A.T @ A`` as a symmetric rank-k update, so the Gram
    # is exactly symmetric.
    return root.T @ root


def local_identifiability(engine, components: ModelComponents,
                          state: ModelState) -> IdentifiabilityResult:
    gram = _identifiability_gram(engine, components, state)
    return IdentifiabilityResult(min_eigen_sym(gram), gram.shape[0])


@dataclass(frozen=True)
class InfluenceResult:
    """Efficient influence computation for a functional of the measure."""

    lfd: np.ndarray
    solve_result: SolveResult
    non_regular: bool
    influence: Callable


def nonparametric_influence(engine, components: ModelComponents,
                            state: ModelState, chi_dot,
                            nonregular_tol: float = NONREGULAR_RESID_TOL
                            ) -> InfluenceResult:
    """Efficient influence function of a smooth functional of the measure
    in a model without parametric part.

    ``chi_dot`` is the derivative's representer on the grid; for
    mean-zero tangent spaces it must be centered. The influence direction
    solves ``(B*B) a = chi_dot``; when the min-norm solve leaves a
    relative residual above ``nonregular_tol`` the functional is flagged
    non-regular (its derivative is not attained by any square-integrable
    direction at numerical precision) and the returned influence is that
    of the min-norm least squares direction.
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
                                    chi_vec)
    non_regular = lfd.solve_result.relative_residual > nonregular_tol

    def influence(obs):
        return score_operator(components, state, obs, lfd.values)

    return InfluenceResult(lfd.values, lfd.solve_result, bool(non_regular),
                           influence)


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


def analyze_model(components: ModelComponents, state: ModelState, engine, *,
                  label: str = "") -> InfoReport:
    """Run the full calculus at one state and collect the results.

    This is the public functions composed on one outcome law, which
    evaluates the model once per outcome (building an exact law
    evaluates the log density besides): the structural functions, the
    Fisher information and identifiability before the least favorable
    solve, the efficient information after it. It builds one information
    operator per state: the least favorable solve factors it and V is
    formed from its dense matrix. A closed-form engine answers through
    its structural callable and reports no identifiability.
    """
    eta = state.eta
    closed = isinstance(engine, ClosedForm)
    law = engine if closed else outcome_law(engine, components, state)
    sf = structural_functions(law, components, state)
    fisher = fisher_information(law, components, state)
    ident = None if closed else local_identifiability(law, components, state)
    cat = classify_category(sf)
    adjoint = adjoint_of_score(sf, eta, components.tangent)

    lfd = None
    efficient = None
    fisher_singular = None
    if components.p:
        try:
            lfd = least_favorable_direction(sf, eta, components.tangent,
                                            adjoint)
            efficient = efficient_information(law, components, state,
                                              lfd.values, adjoint, fisher)
            v_mat = _v_matrix(lfd.operator, adjoint, fisher)
        except NotIdentifiableError as exc:
            # Singular parameter block: skip the quantities that divide by
            # it so the identifiability result can still name the flat
            # direction.
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

    diagnostics = {
        "max_structural_se": sf.max_se(),
        "route_discrepancy": efficient.discrepancy if efficient else 0.0,
        "lfd_relative_residual":
            lfd.solve_result.relative_residual if lfd else 0.0,
        "lfd_rank": lfd.solve_result.rank if lfd else 0,
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
