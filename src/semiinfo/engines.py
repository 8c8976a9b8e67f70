"""Expectation engines, their outcome laws, and assembly of the four
structural functions.

An engine's ``law(components, state)`` is its :class:`OutcomeLaw` at one
state: the ordered (outcome, weight) pairs every expectation there sums
over. Exact enumeration weights a finite outcome space by the
exponentiated log density (checked to sum to one); Monte Carlo weights
the distinct draws of a seeded sample by frequency, in a canonical
order, so results are bit-reproducible for a given seed. Monte Carlo
over an exact enumeration resamples the exact law at the state: it
draws what ``Generator.choice`` with the exact probabilities draws,
counted per outcome on the sorted uniforms without a search per draw,
and each drawn outcome keeps the g its exact weight was computed from.
Any other sampler is a callable whose draws are grouped by outcome. A
closed-form engine has no outcome law: it is one callable that returns
the structural functions analytically.

A law stands in for its engine at its own state and evaluates the model
once per outcome: on first use it keeps each outcome's g and g_dot on
the grid, f_dot at x and parameter score (:attr:`OutcomeLaw.evaluated`),
and every quantity summed over the law reads those (the structural
functions here; the Fisher information, identifiability Gram and
efficient information in ``calculus``), however many a caller asks
for. Those evaluations start from the g a law already holds: an exact
law's, computed once per outcome for its weights, and a resampled
law's, taken from the exact law it was drawn from. One fixed-order
compensated step sums each expectation in place, in one flat
buffer for all its sums, forming second moments only for the sums whose
standard errors are reported; the identifiability Gram, which carries
no standard error, is instead one matrix product of the stacked outcome
scores (``calculus``). The structural pass builds no per-outcome
(m, m) temporaries when d == 1: ``likelihood._structural_terms`` writes
each outcome's gamma, alpha, kappa and beta straight into the buffer
(kappa and beta as outer products), and one multiply weights the block
(term = w v, then square = term v on a sampled law) before the
compensated step. Every element takes the operations of the expression
form in the same law order, so its sum has the same bits.

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

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, EngineError, NotAvailableError
from .likelihood import (
    ModelComponents,
    ModelState,
    _log_density,
    _outcome,
    _structural_terms,
    check_state,
    g_values,
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
    ``deficit`` the exact engine's normalization deficit. ``gvs`` holds
    each outcome's g on the grid where it is already known (None for the
    draws of a callable sampler), so that :attr:`evaluated` does not
    evaluate g again. A law stands in for its engine: asked about its own
    components and state (by identity) it returns itself, anywhere else
    it has its engine build a new one, with evaluations of its own.
    """

    pairs: tuple
    n: Optional[int]
    deficit: Optional[float]
    engine: object
    components: ModelComponents
    state: ModelState
    gvs: tuple = field(repr=False)

    def law(self, components: ModelComponents,
            state: ModelState) -> OutcomeLaw:
        if components is self.components and state is self.state:
            return self
        return self.engine.law(components, state)

    @cached_property
    def evaluated(self) -> dict:
        """Each outcome's evaluation at the law's state (g and g_dot on
        the grid, f_dot at x and the parameter score), computed on first
        use."""
        check_state(self.components, self.state)
        return {obs: _outcome(self.components, self.state, obs, gv)
                for (obs, _), gv in zip(self.pairs, self.gvs)}


@dataclass(frozen=True)
class ExactEnumeration:
    """Expectation by exact enumeration of a finite outcome space."""

    outcomes: tuple

    def __init__(self, outcomes: Sequence):
        object.__setattr__(self, "outcomes", tuple(outcomes))
        if not self.outcomes:
            raise DomainError("outcome list is empty")
        seen = set()
        for obs in self.outcomes:
            if obs in seen:
                raise DomainError(f"outcome {obs!r} is listed twice")
            seen.add(obs)

    def probabilities(self, components: ModelComponents, state: ModelState,
                      gvs: Optional[Sequence] = None) -> np.ndarray:
        """Each outcome's probability, from its g on the grid when
        ``gvs`` holds it (one (m, d) array per outcome, in order)."""
        check_state(components, state)
        if gvs is None:
            gvs = [g_values(components, state, o) for o in self.outcomes]
        probs = np.array([np.exp(_log_density(components, state, o, gv))
                          for o, gv in zip(self.outcomes, gvs)])
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
        gvs = [g_values(components, state, o) for o in self.outcomes]
        probs = self.probabilities(components, state, gvs)
        return OutcomeLaw(tuple(zip(self.outcomes, probs)), None,
                          abs(1.0 - float(np.sum(probs))), self,
                          components, state, tuple(gvs))

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
    is resampled, or a callable ``sampler(state, rng, size)`` that
    returns ``size`` hashable outcomes. The engine groups the draws by
    outcome and reduces in a canonical order, so two runs with the same
    seed agree bit for bit.
    """

    sampler: ExactEnumeration | Callable
    n: int
    seed: int

    def __post_init__(self):
        if not (isinstance(self.sampler, ExactEnumeration)
                or callable(self.sampler)):
            raise DomainError(
                "MonteCarlo sampler must be an ExactEnumeration or callable, "
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
        """``(pairs, gvs)``: the distinct draws with their frequencies in
        canonical order, and each draw's g on the grid where known."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        if isinstance(self.sampler, ExactEnumeration):
            exact = self.sampler.law(components, state)
            counts = _categorical_counts(
                np.array([p for _, p in exact.pairs]), rng, self.n)
            drawn = [(exact.pairs[i][0], int(counts[i]), exact.gvs[i])
                     for i in np.flatnonzero(counts).tolist()]
        else:
            drawn = [(obs, cnt, None) for obs, cnt
                     in Counter(self.sampler(state, rng, self.n)).items()]
        drawn.sort(key=lambda d: repr(d[0]))
        return (tuple((obs, cnt / self.n) for obs, cnt, _ in drawn),
                tuple(gv for _, _, gv in drawn))

    def law(self, components: ModelComponents,
            state: ModelState) -> OutcomeLaw:
        pairs, gvs = self.draw_weights(components, state)
        return OutcomeLaw(pairs, self.n, None, self, components, state, gvs)


@dataclass(frozen=True)
class ClosedForm:
    """Engine for models whose structural functions have closed form.

    ``structural(components, state)`` returns the
    :class:`StructuralFunctions`; every other expectation is refused.
    """

    structural: Callable

    def law(self, components: ModelComponents, state: ModelState):
        raise NotAvailableError("closed-form engines have no outcome law")


def outcome_law(engine, components: ModelComponents,
                state: ModelState) -> OutcomeLaw:
    """The engine's outcome law at the state (a law at that state is
    returned as is)."""
    build = getattr(engine, "law", None)
    if build is None:
        raise DomainError(f"unknown engine {engine!r}")
    return build(components, state)


class _CompensatedSums:
    """Compensated sums of a fixed list of arrays, in three flat buffers
    (running total, compensation and term). The caller writes one
    outcome's weighted terms into :attr:`slots`, views of the term
    buffer, and :meth:`add` adds the whole buffer in one compensated
    (Kahan) step."""

    def __init__(self, shapes):
        ends = list(accumulate(math.prod(shape) for shape in shapes))
        self.spans = list(zip([0] + ends, ends, shapes))
        self.total, self.comp, self.term = np.zeros((3, ends[-1]))
        self.slots = [self.term[a:b].reshape(shape)
                      for a, b, shape in self.spans]

    def add(self):
        # The Kahan step y = term - comp, t = total + y,
        # comp = (t - total) - y, total = t, in place in three buffers.
        total, comp, term = self.total, self.comp, self.term
        np.subtract(term, comp, out=term)
        np.add(total, term, out=comp)
        np.subtract(comp, total, out=total)
        np.subtract(total, term, out=total)
        self.total, self.comp = comp, total

    def sums(self) -> list:
        """Copies of the sums, so no caller keeps the buffers alive."""
        return [self.total[a:b].reshape(shape).copy()
                for a, b, shape in self.spans]


def _moments(law: OutcomeLaw, sums: list, k: int, n_se: Optional[int]):
    """The k means and the standard errors of the first ``n_se`` of them
    from the sums (the means, then the second moments on a sampled
    law)."""
    means, seconds = sums[:k], sums[k:]
    if law.n is None:
        return means, [np.zeros_like(v) for v in means[:n_se]]
    ses = [np.sqrt(np.maximum(s2 - v * v, 0.0) / law.n)
           for v, s2 in zip(means, seconds)]
    return means, ses


def _reduce(law: OutcomeLaw, functional: Callable,
            n_se: Optional[int] = None):
    """Weighted sums over the law of each array ``functional(obs)``
    returns, compensated in law order, with the standard errors of the
    first ``n_se`` of them (all by default; zeros unless the law is
    sampled). Each sum is elementwise, so a sum's bits do not depend on
    which others are formed.

    All sums share one :class:`_CompensatedSums`, the means first and the
    second moments after them: per outcome the weighted terms are written
    into its term buffer and one compensated step adds them."""
    sampled = law.n is not None
    acc = None
    for obs, weight in law.pairs:
        vals = [np.asarray(v, dtype=float) for v in functional(obs)]
        if acc is None:
            shapes = [v.shape for v in vals]
            acc = _CompensatedSums(
                shapes + (shapes[:n_se] if sampled else []))
        slots = acc.slots
        for v, slot in zip(vals, slots):
            np.multiply(weight, v, out=slot)
        for v, slot, square in zip(vals, slots, slots[len(vals):]):
            np.multiply(slot, v, out=square)
        acc.add()
    return _moments(law, acc.sums(), len(vals), n_se)


def expect(engine, components: ModelComponents, state: ModelState,
           functional: Callable) -> ExpectResult:
    """Expectation of ``functional(obs)`` (scalar or array valued) under
    the model's outcome law at the given state."""
    law = outcome_law(engine, components, state)
    (value,), (se,) = _reduce(law, lambda obs: (functional(obs),))
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
    if isinstance(engine, ClosedForm):
        return engine.structural(components, state)

    law = outcome_law(engine, components, state)
    evaluated = law.evaluated
    m, p = state.eta.size, components.p
    shapes = [(m,), (m, p), (m, m), (m, m, p)]
    sampled = law.n is not None
    acc = _CompensatedSums(shapes * 2 if sampled else shapes)
    # Each outcome's values v are written straight into the last block of
    # the term buffer and weighted in place: term = w v, and on a sampled
    # law square = term v from the second-moment block they were written
    # into.
    means, seconds = np.split(acc.term, 2) if sampled else (acc.term,) * 2
    values = acc.slots[-len(shapes):]
    for obs, weight in law.pairs:
        e = evaluated[obs]
        _structural_terms(components, state, obs, e.gv, e.gd, e.fd, values)
        np.multiply(weight, seconds, out=means)
        if sampled:
            np.multiply(means, seconds, out=seconds)
        acc.add()
    (gamma, alpha, kappa, beta), ses = _moments(law, acc.sums(), 4, None)
    # Symmetrize kappa; it is symmetric in exact arithmetic.
    kappa = 0.5 * (kappa + kappa.T)
    return StructuralFunctions(
        gamma=gamma, alpha=alpha, kappa=kappa, beta=beta,
        se_gamma=ses[0], se_alpha=ses[1], se_kappa=ses[2], se_beta=ses[3],
        engine="exact" if law.n is None else "mc", n=law.n,
    )
