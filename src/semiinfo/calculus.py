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

The influence of a functional of the measure (:func:`nonparametric_influence`)
solves the same way, on one of two factorizations of the operator's
reduced system. On an exact law with fewer outcomes N than that system's
dimension, and a score mean at rounding, it takes the thin SVD of the
(N, m) score factor F (``operators.outcome_factored``): it forms neither
the structural functions nor any m x m matrix or basis, and its
residual is that of F^T F, which the score-mean gate makes equal to the
Hessian-form operator's to rounding (measured within 4e-14 relative on
``mixture``, m from 7 to 800). Everywhere else, and in ``analyze``, it
takes the SVD of the operator's matrix, and the residual is that
matrix's.

Every quantity has one path. Each expectation here reads the
evaluations the outcome law keeps, stacked one row per outcome (g and
g_dot on the grid, x, f_dot and f_ddot at x, the parameter score and
r_dot, computed on first use), so a law asked for several quantities
calls each component once per law. ``analyze_model`` is
the composition of the public functions on one law: the structural
functions, Fisher information and identifiability before the solve, the
efficient information after it. Only the structural functions carry
standard errors. The Fisher information and ``by_score`` are each the
law mean (``engines._law_mean``) of the outer products of stacked rows
V: V = S, the (N, p) parameter scores, for the Fisher information, and
V = S - M a for ``by_score``, with M a the law's measure scores along
the least favorable direction a (``OutcomeLaw.measure_scores``). On an
exact law that mean is compensated in law order, on a sampled law one
matrix product. The identifiability Gram is one product ``R.T @ R`` on
either law, with ``R = sqrt(w) [S | M Phi]`` and Phi the tangent basis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .engines import (
    StructuralFunctions,
    _law_mean,
    outcome_law,
    structural_functions,
)
from .errors import DomainError, NotIdentifiableError
from .likelihood import (
    ModelComponents,
    ModelState,
    TangentKind,
    _column,
    _directions,
    _evaluate_one,
    _measure_scores,
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
    outcome_factored,
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
# The influence solve runs in outcome space only where the score mean is
# at most this times the largest singular value of the score factor:
# there the Hessian-form information operator is the outer product the
# factor gives, to rounding.
SCORE_MEAN_REL_TOL = 1e-12


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

    For Monte Carlo structural functions both tests widen to four
    standard errors: the multiplier is invertible only if the whole band
    gamma +- 4 se_gamma lies in [1 / CATEGORY_BOUND, CATEGORY_BOUND] at
    every point, and vanishing if |gamma| stays within the largest
    4 se_gamma.
    """
    g = sf.gamma
    if sf.is_exact() or not sf.se_gamma.size:
        tol_zero = CATEGORY_ZERO_TOL_EXACT
        low, high = g, g
    else:
        band = 4.0 * sf.se_gamma
        tol_zero = float(np.max(band))
        low, high = g - band, g + band
    gmin = float(np.min(g)) if g.size else 0.0
    gmax = float(np.max(g)) if g.size else 0.0
    absmax = float(np.max(np.abs(g))) if g.size else 0.0
    if (g.size and float(np.min(low)) >= 1.0 / CATEGORY_BOUND
            and float(np.max(high)) <= CATEGORY_BOUND):
        cat = Category.INVERTIBLE_MULTIPLIER
    elif absmax <= tol_zero:
        cat = Category.VANISHING_MULTIPLIER
    else:
        cat = Category.INDETERMINATE
    return CategoryResult(cat, gmin, gmax, absmax, float(tol_zero),
                          float(CATEGORY_BOUND))


def _symmetric(value: np.ndarray) -> np.ndarray:
    return 0.5 * (value + value.T)


def _second_moment(law, rows: np.ndarray) -> np.ndarray:
    """E[v v^T] over the law of the (N, k) ``rows``, row i being v at
    outcome i, symmetrized: the mean of their outer products."""
    return _symmetric(_law_mean(law, rows[:, :, np.newaxis]
                                * rows[:, np.newaxis, :]))


def fisher_information(engine, components: ModelComponents,
                       state: ModelState) -> np.ndarray:
    """Second moment of the parameter score, shape (p, p)."""
    if components.p == 0:
        return np.zeros((0, 0))
    law = outcome_law(engine, components, state)
    return _second_moment(law, law.stacked.score)


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


def efficient_score_function(components: ModelComponents, state: ModelState,
                             lfd_values: np.ndarray) -> Callable:
    """The map ``obs -> score_theta - B a`` with a the least favorable
    direction, one column per parameter."""
    dirs = _lfd_directions(components, state, lfd_values)

    def eff_score(obs):
        st = _evaluate_one(components, state, obs)[1]
        return st.score[0] - _measure_scores((obs,), st, dirs)[0]

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
    law = outcome_law(engine, components, state)
    by_score = _second_moment(law,
                              law.stacked.score - law.measure_scores(dirs))
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
    an L2(eta)-orthonormal tangent basis Phi, shape (k, k): one product
    R^T R of the weighted (N, k) joint-score matrix
    R = sqrt(w) [S_theta | M Phi] of the N outcomes, with S_theta the
    stacked parameter scores and M Phi their measure scores along the
    basis (``OutcomeLaw.measure_scores``)."""
    check_state(components, state)
    dirs = _identifiability_directions(components, state)
    law = outcome_law(engine, components, state)
    p = components.p
    root = np.empty((len(law.pairs), p + dirs[0].shape[1]))
    root[:, :p] = law.stacked.score
    law.measure_scores(dirs, out=root[:, p:])
    root *= np.sqrt(law.weights)[:, np.newaxis]
    # numpy forms ``A.T @ A`` as a symmetric rank-k update, so the Gram
    # is exactly symmetric.
    return root.T @ root


def local_identifiability(engine, components: ModelComponents,
                          state: ModelState) -> IdentifiabilityResult:
    gram = _identifiability_gram(engine, components, state)
    return IdentifiabilityResult(min_eigen_sym(gram), gram.shape[0])


@dataclass(frozen=True)
class InfluenceResult:
    """Efficient influence computation for a functional of the measure.

    ``factorization`` names the reduced system the solve factored:
    ``"outcome"`` (the thin SVD of the score factor) or ``"operator"``
    (the SVD of the operator's matrix). ``score_mean`` is the outcome
    route's gate value, None where the gate was not evaluated."""

    lfd: np.ndarray
    solve_result: SolveResult
    non_regular: bool
    influence: Callable
    factorization: str
    score_mean: Optional[float]


def _outcome_factorization(law, eta: DiscreteMeasure, centered: bool):
    """``(factored, score_mean)``: the information operator's reduced
    system factored in outcome space (``operators.outcome_factored``)
    where that route applies, else None, and the score mean its gate
    read, None where the gate was not evaluated.

    The route applies on an exact law with fewer outcomes than the
    reduced dimension, and only where the score mean is at most
    ``SCORE_MEAN_REL_TOL`` times the factor's largest singular value."""
    if law.n is not None \
            or len(law.pairs) >= eta._support_and_root[0].size - centered:
        return None, None
    factored, score_mean, s_max = outcome_factored(
        eta, centered, law.score_matrix(), law.weights)
    if score_mean > SCORE_MEAN_REL_TOL * s_max:
        factored = None
    return factored, score_mean


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

    On an exact law with N outcomes, fewer than the reduced dimension,
    B*B has rank at most N (N - 1 on a mean-zero tangent), and where the
    score mean is at rounding the solve runs on the thin SVD of the
    (N, m) score factor F: it never forms the structural functions, the
    operator's m x m matrix or the mean-zero basis. Its residual is that
    of F^T F, which the gate makes equal to the Hessian-form operator's
    to rounding (measured within 4e-14 relative), so ``nonregular_tol``
    reads the same quantity on both routes. Everywhere else it is
    :func:`least_favorable_direction`'s solve, with the residual of the
    Hessian-form operator.

    The influence of each of the law's outcomes is its row of one
    stacked product, the law's measure scores along the direction
    (``OutcomeLaw.measure_scores``), so it evaluates no component; an
    outcome outside the law (one a sampled law never drew) is scored
    alone by :func:`likelihood.score_operator`, with the same formula.
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
    eta, tangent = state.eta, components.tangent
    law = outcome_law(engine, components, state)
    factored, score_mean = _outcome_factorization(
        law, eta, tangent is TangentKind.L2_ZERO)
    if factored is None:
        sf = structural_functions(law, components, state)
        res = least_favorable_direction(sf, eta, tangent,
                                        chi_vec).solve_result
    else:
        res = solve(factored, chi_vec)
    lfd = res.solution
    row_of = {obs: i for i, obs in enumerate(law.outcomes)}
    scores = law.measure_scores(_column(eta.masses, lfd))[:, 0]

    def influence(obs):
        i = row_of.get(obs)
        if i is None:
            return score_operator(components, state, obs, lfd)
        return float(scores[i])

    return InfluenceResult(
        lfd, res, bool(res.relative_residual > nonregular_tol), influence,
        "operator" if factored is None else "outcome", score_mean)


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
    identifiability: IdentifiabilityResult
    normalization_deficit: Optional[float]    # None on a sampled law
    diagnostics: dict = field(default_factory=dict)


def analyze_model(components: ModelComponents, state: ModelState, engine, *,
                  label: str = "") -> InfoReport:
    """Run the full calculus at one state and collect the results.

    This is the public functions composed on one outcome law, which
    calls each component once per law (building an exact law evaluates
    the log density besides): the structural functions, the
    Fisher information and identifiability before the least favorable
    solve, the efficient information after it. It builds one information
    operator per state: the least favorable solve factors it and V is
    formed from its dense matrix.
    """
    eta = state.eta
    law = outcome_law(engine, components, state)
    sf = structural_functions(law, components, state)
    fisher = fisher_information(law, components, state)
    ident = local_identifiability(law, components, state)
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
        normalization_deficit=law.deficit,
        diagnostics=diagnostics,
    )
