"""Expectation engines, their outcome laws, and assembly of the four
structural functions.

An engine's ``law(components, state)`` is its :class:`OutcomeLaw` at one
state: the ordered (outcome, weight) pairs every expectation there sums
over. Exact enumeration weights a finite outcome space by the
exponentiated log density (checked to sum to one); Monte Carlo weights
the distinct draws of a seeded sample by frequency, listed in the exact
law's order, so results are bit-reproducible for a given seed. Monte
Carlo over an exact enumeration resamples the exact law at the state: it
draws what ``Generator.choice`` with the exact probabilities draws,
counted per outcome on the sorted uniforms without a search per draw,
and each drawn outcome keeps the g its exact weight was computed from.

A law stands in for its engine at its own state and calls each
component once per law, on its outcome table (a resampled law's is the
drawn rows of the exact law's): on first use it stacks g and g_dot on
the grid, x, f_dot and f_ddot at x, r_dot and the representers of L
(L applied to the identity), one row per outcome, and forms every
parameter score as one product over those stacks
(:attr:`OutcomeLaw.stacked`). Every quantity summed over the law reads
those (the structural functions here; the Fisher information,
identifiability Gram and efficient information in ``calculus``), and so
does ``validate`` at its mass-path states. The g they start from is
the one the law's weights came from. The measure scores of every
outcome along k directions A, an (m, k) array, are M A with
M = (f_dot . g^T) * masses plus each outcome's representer of L
(:meth:`OutcomeLaw.measure_scores`): one batched product of the stacked
f_dot with g^T (masses * A), plus the representers times A, the one
measure-score product of ``likelihood``; M itself is never formed.

Every mean over a law is summed in one of two ways, and which depends
only on whether the law is sampled. On an exact law it is one
fixed-order compensated (Kahan) step per outcome; exact results carry
no standard error, so no second moment is formed. A sampled law's sums
carry sampling noise of order n^(-1/2), far above rounding, so there it
is one weighted matrix product over the rows, and a standard error
comes from the mean of the squared rows. :func:`_law_mean` sums stacked
rows, one per outcome in law order, this way: :func:`expect` over its
callable's values, and in ``calculus`` the Fisher information and
``by_score`` over the outer products of the stacked scores.

The structural pass forms its integrands once, as stacked factors, for
either law (:func:`_structural_factors`): each outcome's gamma | alpha
row, and h_e = -sum_i g_i f_ddot_ie, which multiplies the stacked
g_e | g_dot_e, so kappa | beta is sum_e h_e (x) [g_e | g_dot_e]. An
exact law sums one (1 + m, m (1 + p)) term per outcome, the row over
that block, with one compensated step each, in law order, reading g
and g_dot from the law's own stacks one outcome at a time
(:func:`_exact_structural`). A term is +-0 on every block row where all
of the outcome's h_e are zero, so each step covers only the leading
rows some outcome has reached so far; rows past them hold +0, where a
step of a +-0 term changes nothing, so the sum keeps the bits of the
full step. A sampled law sums the same layout and its second moment by
weighted products of the factors (:func:`_sampled_structural`). The
identifiability Gram, which carries no standard error, is one matrix
product of the stacked outcome scores on either law (``calculus``).

The structural functions are the four expectations that assemble adjoints
and information operators. With x the vector of integral functionals:

    gamma(v)    = - E[ f_dot . (g(v) - x) ] + E[L(1)]   (mean-zero tangent)
    gamma(v)    = - E[ f_dot . g(v) ]                   (full L2 tangent)
    alpha(v)    = - E[ f_dot . g_dot(v) ]
    kappa(v, u) = - E[ g(v) . f_ddot . g(u) ]
    beta(v, u)  = - E[ g(v) . f_ddot . g_dot(u) ]

On a mean-zero tangent space, alpha, beta, and kappa are determined only
up to shifts that vanish against centered directions (constants for
alpha, separable kernels for kappa and beta); the values reported here
are the plain uncentered representatives. Everything assembled from them
downstream (adjoints, operator inner products, solves) is invariant to
that choice because it is evaluated against centered directions or
projected onto the mean-zero subspace.

The multiplier gamma has no such freedom: it is pinned by
``<(B*B) a, b>_eta = E[(Ba)(Bb)]``. On a mean-zero tangent that forces
the centered first slot plus the additive E[L(1)] term (the point-mass
functional applied to the constant direction 1); dropping either breaks
the identity by an O(1) amount, not by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, EngineError
from .likelihood import (
    ModelComponents,
    ModelState,
    TangentKind,
    _evaluate,
    _log_density,
    _measure_scores,
    _stacked_score_matrix,
    _Outcome,
    check_state,
    g_values,
    outcome_table,
)

# Exact enumeration must normalize to this absolute accuracy.
ENGINE_TOTAL_MASS_TOL = 1e-10


@dataclass(frozen=True)
class ExpectResult:
    """An expectation with its standard error (zero for exact engines)."""

    value: np.ndarray | float
    se: np.ndarray | float
    n: Optional[int] = None


@dataclass(frozen=True, eq=False)
class OutcomeLaw:
    """The weighted outcomes an engine produces at one state.

    ``n`` is the Monte Carlo sample size (None when exact) and
    ``deficit`` the exact engine's normalization deficit. ``table`` is
    the outcome table every component is called on, and ``gvs`` the
    (N, m, d) g on the grid computed for the weights, which
    :attr:`stacked`, the evaluation of the table, takes as its g;
    :attr:`weights` is the (N,) array of weights, in law order, and
    :meth:`measure_scores` every outcome's measure scores. A law stands in
    for its engine: asked about its own components and state (by
    identity) it returns itself, anywhere else it has its engine build a
    new one, with evaluations of its own.
    """

    pairs: tuple
    n: Optional[int]
    deficit: Optional[float]
    engine: object
    components: ModelComponents
    state: ModelState
    gvs: np.ndarray = field(repr=False)
    table: tuple = field(repr=False)

    def law(self, components: ModelComponents,
            state: ModelState) -> OutcomeLaw:
        if components is self.components and state is self.state:
            return self
        return self.engine.law(components, state)

    @cached_property
    def outcomes(self) -> tuple:
        """The N outcomes, in law order."""
        return tuple(obs for obs, _ in self.pairs)

    @cached_property
    def weights(self) -> np.ndarray:
        """The (N,) weights, in law order."""
        return np.array([weight for _, weight in self.pairs])

    @cached_property
    def stacked(self) -> _Outcome:
        """Every outcome's evaluation at the law's state, computed on first
        use and stacked in law order: row i of each field is outcome i's
        g and g_dot on the grid, x, f_dot and f_ddot at x, parameter
        score and r_dot."""
        check_state(self.components, self.state)
        return _evaluate(self.components, self.state, self.outcomes,
                         self.table, self.gvs)

    def measure_scores(self, dirs,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """(B a)(o_i) for each outcome i and each of k checked directions
        a (``dirs``, from ``likelihood._directions``), written into the
        (N, k) ``out`` (a new array by default) and checked finite: one
        batched product whose row i is, bit for bit, the score that
        ``score_matrix`` gives outcome i alone."""
        stacked = self.stacked
        return _measure_scores(self.outcomes, self.stacked, dirs, out)

    def score_matrix(self) -> np.ndarray:
        """M, the (N, m) measure scores of every outcome along the m
        coordinate directions, checked finite: the matrix that
        :meth:`measure_scores` multiplies without forming it."""
        return _stacked_score_matrix(self.outcomes, self.stacked,
                                     self.state.eta.masses)


@dataclass(frozen=True)
class ExactEnumeration:
    """Expectation by exact enumeration of a finite outcome space: distinct
    outcomes of one namedtuple type, whose outcome table is ``table``."""

    outcomes: tuple

    def __init__(self, outcomes: Sequence):
        object.__setattr__(self, "outcomes", tuple(outcomes))
        if not self.outcomes:
            raise DomainError("outcome list is empty")
        object.__setattr__(self, "table", outcome_table(self.outcomes))

    def probabilities(self, components: ModelComponents, state: ModelState,
                      gvs: Optional[np.ndarray] = None) -> np.ndarray:
        """Each outcome's probability, from the (N, m, d) g on the grid
        when ``gvs`` holds it."""
        check_state(components, state)
        if gvs is None:
            gvs = g_values(components, state, self.table)
        probs = np.exp(_log_density(components, state, self.outcomes,
                                    self.table, gvs))
        if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
            raise EngineError("outcome probabilities must be finite and >= 0")
        total = float(np.sum(probs))
        if abs(total - 1.0) > ENGINE_TOTAL_MASS_TOL:
            raise EngineError(
                f"outcome probabilities sum to {total!r}, off by more than "
                f"{ENGINE_TOTAL_MASS_TOL}"
            )
        return probs

    def law(self, components: ModelComponents,
            state: ModelState) -> OutcomeLaw:
        check_state(components, state)
        gvs = g_values(components, state, self.table)
        probs = self.probabilities(components, state, gvs)
        return OutcomeLaw(tuple(zip(self.outcomes, probs)), None,
                          abs(1.0 - float(np.sum(probs))), self,
                          components, state, gvs, self.table)

    def normalization_deficit(self, components: ModelComponents,
                              state: ModelState) -> float:
        return self.law(components, state).deficit


def _categorical_counts(probs: np.ndarray, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    """How often each outcome is drawn by
    ``rng.choice(len(probs), size, p=probs)``: the same CDF and uniforms,
    renormalized (tiny-mass designs carry a deficit far below sampling
    noise). Outcome i takes the uniforms in [cdf[i - 1], cdf[i]), counted
    on the sorted uniforms without a search per draw."""
    cdf = np.cumsum(probs / probs.sum())
    cdf /= cdf[-1]
    u = np.sort(rng.random(size))
    return np.diff(np.searchsorted(u, cdf, side="left"), prepend=0)


@dataclass(frozen=True)
class MonteCarlo:
    """Expectation by simulation.

    ``sampler`` is an :class:`ExactEnumeration`, whose law at the state
    is resampled. The engine counts the draws per outcome and lists them
    in the exact law's order, so two runs with the same seed agree bit
    for bit.
    """

    sampler: ExactEnumeration
    n: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.sampler, ExactEnumeration):
            raise DomainError(
                "MonteCarlo sampler must be an ExactEnumeration, "
                f"got {self.sampler!r}")
        for name, minimum in (("n", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, (int, np.integer)) \
                    or value < minimum:
                raise DomainError(
                    f"MonteCarlo {name} must be an integer >= {minimum}, "
                    f"got {value!r}")

    def draw_weights(self, components: ModelComponents,
                     state: ModelState) -> tuple:
        """``(pairs, gvs, table)``: the distinct draws with their
        frequencies, in the exact law's order, their g on the grid and
        their outcome table."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        exact = self.sampler.law(components, state)
        counts = _categorical_counts(exact.weights, rng, self.n)
        idx = np.flatnonzero(counts)
        return (tuple((exact.outcomes[i], int(counts[i]) / self.n)
                      for i in idx.tolist()),
                exact.gvs[idx],
                type(exact.table)._make(col[idx] for col in exact.table))

    def law(self, components: ModelComponents,
            state: ModelState) -> OutcomeLaw:
        pairs, gvs, table = self.draw_weights(components, state)
        return OutcomeLaw(pairs, self.n, None, self, components, state, gvs,
                          table)


def outcome_law(engine, components: ModelComponents,
                state: ModelState) -> OutcomeLaw:
    """The engine's outcome law at the state (a law at that state is
    returned as is)."""
    build = getattr(engine, "law", None)
    if build is None:
        raise DomainError(f"unknown engine {engine!r}")
    return build(components, state)


class _CompensatedSums:
    """A compensated sum of arrays of one shape, in three buffers (running
    total, compensation and term). The caller writes one outcome's
    weighted term into :attr:`term` and :meth:`add` adds it in one
    compensated (Kahan) step; :attr:`total` holds the sum.

    A step covers :attr:`part` of the three buffers: every entry, or a
    caller's ``slice(rows)`` of leading rows, one contiguous pass per
    ufunc. Rows that were never stepped hold +0 in total and
    compensation, so stepping a +-0 term there would be a no-op:
    y = +-0, t = +0 and comp = +0."""

    def __init__(self, shape):
        self.total, self.comp, self.term = (np.zeros(shape) for _ in range(3))
        self.part = ...

    def add(self):
        # The Kahan step y = term - comp, t = total + y,
        # comp = (t - total) - y, total = t, in place in three buffers.
        part = self.part
        total, comp, term = self.total[part], self.comp[part], self.term[part]
        np.subtract(term, comp, out=term)
        np.add(total, term, out=comp)
        np.subtract(comp, total, out=total)
        np.subtract(total, term, out=total)
        self.total, self.comp = self.comp, self.total


def _standard_error(law: OutcomeLaw, mean: np.ndarray,
                    second: np.ndarray) -> np.ndarray:
    """The standard error of a sampled mean from its second moment."""
    return np.sqrt(np.maximum(second - mean * mean, 0.0) / law.n)


def _law_mean(law: OutcomeLaw, rows: np.ndarray) -> np.ndarray:
    """The mean over the law of ``rows``, whose leading axis runs over the
    law's outcomes in law order: sum_i w_i rows_i.

    On an exact law it is the compensated (Kahan) sum in law order, one
    :class:`_CompensatedSums` step per outcome, each elementwise, so its
    bits are those of the per-outcome sum. On a sampled law, whose sums
    carry sampling noise far above rounding, it is the one product w V
    with V the rows flattened to (N, K)."""
    if law.n is not None:
        flat = law.weights @ rows.reshape(len(rows), -1)
        return flat.reshape(rows.shape[1:])
    acc = _CompensatedSums(rows.shape[1:])
    for weight, row in zip(law.weights, rows):
        np.multiply(weight, row, out=acc.term)
        acc.add()
    return acc.total


def expect(engine, components: ModelComponents, state: ModelState,
           functional: Callable) -> ExpectResult:
    """Expectation of ``functional(obs)`` (scalar or array valued) under
    the model's outcome law at the given state."""
    law = outcome_law(engine, components, state)
    rows = np.stack([np.asarray(functional(obs), dtype=float)
                     for obs in law.outcomes])
    value = _law_mean(law, rows)
    if law.n is None:
        se = np.zeros_like(value)
    else:
        se = _standard_error(law, value, _law_mean(law, rows * rows))
    if np.ndim(value) == 0:
        value, se = float(value), float(se)
    return ExpectResult(value, se, law.n)


@dataclass(frozen=True)
class StructuralFunctions:
    """The four structural expectations on a grid of size m with p
    parameters, plus standard errors (zeros for exact engines)."""

    gamma: np.ndarray        # (m,)
    alpha: np.ndarray        # (m, p)
    kappa: np.ndarray        # (m, m)
    beta: np.ndarray         # (m, m, p)
    se_gamma: np.ndarray
    se_alpha: np.ndarray
    se_kappa: np.ndarray
    se_beta: np.ndarray
    engine: str = "exact"
    n: Optional[int] = None

    def max_se(self) -> float:
        parts = [self.se_gamma, self.se_alpha, self.se_kappa, self.se_beta]
        return float(max(np.max(np.abs(x)) if x.size else 0.0 for x in parts))

    def is_exact(self) -> bool:
        return self.engine != "mc"


def structural_functions(engine, components: ModelComponents,
                         state: ModelState) -> StructuralFunctions:
    """Assemble the structural functions under the given engine."""
    law = outcome_law(engine, components, state)
    factors = _structural_factors(law, components)
    if law.n is None:
        sums = _exact_structural(law, *factors)
        ses = np.zeros_like(sums)
    else:
        sums, ses = _sampled_structural(law, *factors)
    m, p = state.eta.size, components.p
    gamma, alpha, kappa, beta = _split_structural(sums, m, p)
    ses = _split_structural(ses, m, p)
    # Symmetrize kappa; it is symmetric in exact arithmetic.
    kappa = 0.5 * (kappa + kappa.T)
    return StructuralFunctions(
        gamma=gamma, alpha=alpha, kappa=kappa, beta=beta,
        se_gamma=ses[0], se_alpha=ses[1], se_kappa=ses[2], se_beta=ses[3],
        engine="exact" if law.n is None else "mc", n=law.n,
    )


def _structural_factors(law: OutcomeLaw,
                        components: ModelComponents) -> tuple:
    """Every outcome's structural integrands as stacked factors, formed
    from the law's stacked evaluation: ``(first, h)``.

    ``first`` is the (N, m (1 + p)) gamma | alpha row of each outcome.
    kappa(v, u) sums h_e(v) g_e(u) over e, with h_e = sum_i g_i (-f_ddot_ie),
    and beta the same with g_dot_e(u, j) for g_e(u): ``h`` is the
    (N, d, m) array of the h_e, summed elementwise in i order so its bits
    depend neither on BLAS nor on how f_ddot is laid out. The g_e and
    g_dot_e it multiplies are the law's own stacked g and g_dot."""
    st = law.stacked
    n_out, m, d, p = st.gd.shape
    centered = components.tangent is TangentKind.L2_ZERO
    # gamma and alpha written in place (alpha's columns viewed as
    # (m, p)), then negated in place
    first = np.empty((n_out, m * (1 + p)))
    np.einsum("nid,nd->ni",
              st.gv - st.x[:, np.newaxis] if centered else st.gv, st.fd,
              out=first[:, :m])
    np.einsum("nidj,nd->nij", st.gd, st.fd,
              out=first[:, m:].reshape(n_out, m, p))
    np.negative(first, out=first)
    if centered and st.ell is not None:
        # L(1) of each outcome: its representer summed
        first[:, :m] += np.sum(st.ell, axis=1)[:, np.newaxis]
    g = st.gv.transpose(0, 2, 1)
    minus_fdd = np.negative(st.fdd)[..., np.newaxis]
    h = sum((g[:, i, np.newaxis] * minus_fdd[:, i] for i in range(1, d)),
            g[:, 0, np.newaxis] * minus_fdd[:, 0])
    return first, h


def _exact_structural(law: OutcomeLaw, first: np.ndarray,
                      h: np.ndarray) -> np.ndarray:
    """The (1 + m, m (1 + p)) sum over an exact law of the gamma | alpha
    row over the kappa | beta block, compensated in law order: each
    outcome's term is its ``first`` row over sum_e h_e (x) [g_e | g_dot_e],
    added elementwise in e order, weighted in place before one
    compensated step. g_e | g_dot_e is copied from the law's stacked
    evaluation into one row buffer, one outcome and e at a time.

    An outcome's term is +-0 on every block row where all its h_e are
    zero, so each step covers only the leading rows some outcome has
    reached so far (:func:`_structural_reach`). The rows it writes,
    weights and steps are those of that extent, which keeps every bit of
    the full step."""
    st = law.stacked
    m, d, p = st.gd.shape[1:]
    acc = _CompensatedSums((1 + m, first.shape[1]))
    spare = np.empty_like(acc.term[1:]) if d > 1 else None
    right = np.empty(first.shape[1])
    right_g, right_dot = right[:m], right[m:].reshape(m, p)
    for weight, row, hs, gv, gd, rows in zip(
            law.weights, first, h, st.gv, st.gd, _structural_reach(law, h)):
        acc.part = slice(rows)
        live = acc.term[acc.part]
        live[0] = row
        block = live[1:]
        for e in range(d):
            np.copyto(right_g, gv[:, e])
            np.copyto(right_dot, gd[:, e])
            np.multiply(hs[e, :rows - 1, np.newaxis], right,
                        out=spare[:rows - 1] if e else block)
            if e:
                block += spare[:rows - 1]
        np.multiply(weight, live, out=live)
        acc.add()
    return acc.total


def _structural_reach(law: OutcomeLaw, h: np.ndarray) -> list:
    """The leading rows each outcome's step covers in
    :func:`_exact_structural`: the running maximum, in law order, of 1
    plus the last block row where any of the outcome's h_e is nonzero.
    If any of h, g or g_dot is not finite, a zero term could be NaN
    (0 * inf), so every step covers every row (the weights are checked
    finite when the law is built)."""
    n_out, _, m = h.shape
    st = law.stacked
    if not all(np.all(np.isfinite(a)) for a in (h, st.gv, st.gd)):
        return [1 + m] * n_out
    nonzero = np.any(h != 0.0, axis=1)
    last = m - np.argmax(nonzero[:, ::-1], axis=1)
    reach = np.where(np.any(nonzero, axis=1), 1 + last, 1)
    return np.maximum.accumulate(reach).tolist()


def _sampled_structural(law: OutcomeLaw, first: np.ndarray,
                        h: np.ndarray) -> tuple:
    """The sum over a sampled law of the gamma | alpha row over the
    kappa | beta block, as in :func:`_exact_structural`, with its standard
    error: each mean and second moment is one weighted matrix product.

    With right the (N, d, m (1 + p)) stacked g_e | g_dot_e, over the
    stacked (outcome, e) rows of h and of right the block is the one
    product (w h)^T right; its second moment is the same product over the
    (outcome, e, e') rows of h_e h_e' and of right_e right_e'."""
    def pairs(a):     # the (N, d * d, K) products a_e a_e'
        return (a[:, :, np.newaxis] * a[:, np.newaxis]).reshape(
            len(a), -1, a.shape[2])

    st = law.stacked
    n_out, m, d, p = st.gd.shape
    right = np.concatenate(
        [st.gv.transpose(0, 2, 1),
         st.gd.transpose(0, 2, 1, 3).reshape(n_out, d, m * p)], axis=2)
    mean = _weighted_structural(law.weights, first, h, right)
    second = _weighted_structural(law.weights, first * first, pairs(h),
                                  pairs(right))
    return mean, _standard_error(law, mean, second)


def _weighted_structural(weights: np.ndarray, rows: np.ndarray,
                         left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_o w_o rows_o over sum_o w_o sum_e left_oe (x) right_oe, for
    (N, W) rows and (N, k, m) and (N, k, W) factors, by matrix products."""
    k, m = left.shape[1:]
    block = ((np.repeat(weights, k)[:, np.newaxis] * left.reshape(-1, m)).T
             @ right.reshape(-1, right.shape[2]))
    return np.concatenate([(weights @ rows)[np.newaxis], block])


def _split_structural(sums: np.ndarray, m: int, p: int) -> list:
    """Gamma, alpha, kappa and beta from the (1 + m, m (1 + p)) gamma |
    alpha row over the kappa | beta block, as copies, so no caller keeps
    the whole layout alive through a view."""
    rows, block = sums[0], sums[1:]
    return [part.copy() for part in (rows[:m], rows[m:].reshape(m, p),
                                     block[:, :m],
                                     block[:, m:].reshape(m, m, p))]
