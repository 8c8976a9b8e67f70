"""Expectation engines, their outcome laws, and assembly of the four
structural functions.

An engine's ``law(components, state)`` is its :class:`OutcomeLaw` at one
state: the ordered (outcome, weight) pairs every expectation there sums
over. Exact enumeration weights a finite outcome space by the
exponentiated log density (checked to sum to one); Monte Carlo weights
the distinct draws of a seeded sampler by frequency, in a canonical
order, so results are bit-reproducible for a given seed. A sampler may
also tally its draws as (outcome, count) pairs, as the categorical
sampler does by counting outcome indices, and the engine then skips
grouping the outcomes itself. A closed-form engine has no outcome law:
it is one callable that returns the structural functions analytically.

A law stands in for its engine at its own state and evaluates the model
once per outcome: on first use it keeps each outcome's g and g_dot on
the grid, f_dot at x and parameter score (:attr:`OutcomeLaw.evaluated`),
and every quantity summed over the law reads those (the structural
functions here; the Fisher information, identifiability Gram and
efficient information in ``calculus``), however many a caller asks
for. One fixed-order compensated reducer sums each expectation, forming
second moments only for the sums whose standard errors are reported;
the identifiability Gram, which carries no standard error, is instead
one matrix product of the stacked outcome scores (``calculus``).

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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, EngineError, NotAvailableError
from .likelihood import (
    ModelComponents,
    ModelState,
    _outcome,
    _structural_terms,
    check_state,
    log_density,
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
    ``deficit`` the exact engine's normalization deficit. A law stands in
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
        return {obs: _outcome(self.components, self.state, obs)
                for obs, _ in self.pairs}


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

    def probabilities(self, components: ModelComponents,
                      state: ModelState) -> np.ndarray:
        probs = np.array(
            [np.exp(log_density(components, state, o)) for o in self.outcomes]
        )
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
        probs = self.probabilities(components, state)
        return OutcomeLaw(tuple(zip(self.outcomes, probs)), None,
                          abs(1.0 - float(np.sum(probs))), self,
                          components, state)

    def normalization_deficit(self, components: ModelComponents,
                              state: ModelState) -> float:
        return self.law(components, state).deficit


@dataclass(frozen=True)
class MonteCarlo:
    """Expectation by simulation.

    ``sampler(state, rng, size)`` returns ``size`` hashable outcomes. The
    engine groups the draws by outcome and reduces in a canonical order,
    so two runs with the same seed agree bit for bit. A sampler with a
    ``tally(state, rng, size)`` method, which returns the same draws as
    distinct (outcome, count) pairs, is asked for those instead.
    """

    sampler: Callable
    n: int
    seed: int

    def __post_init__(self):
        for name, minimum in (("n", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, (int, np.integer)) \
                    or value < minimum:
                raise DomainError(
                    f"MonteCarlo {name} must be an integer >= {minimum}, "
                    f"got {value!r}")

    def draw_weights(self, state: ModelState) -> list:
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        tally = getattr(self.sampler, "tally", None)
        if tally is None:
            counts = Counter(self.sampler(state, rng, self.n)).items()
        else:
            counts = tally(state, rng, self.n)
        items = sorted(counts, key=lambda kv: repr(kv[0]))
        return [(obs, cnt / self.n) for obs, cnt in items]

    def law(self, components: ModelComponents,
            state: ModelState) -> OutcomeLaw:
        return OutcomeLaw(tuple(self.draw_weights(state)), self.n, None,
                          self, components, state)


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


def _reduce(law: OutcomeLaw, functional: Callable,
            n_se: Optional[int] = None):
    """Weighted sums over the law of each array ``functional(obs)``
    returns, compensated in law order, with the standard errors of the
    first ``n_se`` of them (all by default; zeros unless the law is
    sampled). Each sum is elementwise, so a sum's bits do not depend on
    which others are formed."""
    sampled = law.n is not None
    acc = None
    for obs, weight in law.pairs:
        vals = [np.asarray(v, dtype=float) for v in functional(obs)]
        terms = [weight * v for v in vals]
        if sampled:
            terms += [term * v for term, v in zip(terms, vals[:n_se])]
        if acc is None:
            acc = [[np.zeros(np.shape(term)), np.zeros(np.shape(term))]
                   for term in terms]
        for a, term in zip(acc, terms):
            y = term - a[1]
            t = a[0] + y
            a[1] = (t - a[0]) - y
            a[0] = t
    sums = [a[0] for a in acc]
    if not sampled:
        return sums, [np.zeros_like(v) for v in sums[:n_se]]
    k = len(vals)  # the means; the second moments follow them
    means, seconds = sums[:k], sums[k:]
    ses = [np.sqrt(np.maximum(s2 - v * v, 0.0) / law.n)
           for v, s2 in zip(means, seconds)]
    return means, ses


def expect(engine, components: ModelComponents, state: ModelState,
           functional: Callable) -> ExpectResult:
    """Expectation of ``functional(obs)`` (scalar or array valued) under
    the model's outcome law at the given state."""
    law = outcome_law(engine, components, state)
    (value,), (se,) = _reduce(law, lambda obs: (functional(obs),))
    if np.ndim(value) == 0:
        value, se = float(value), float(se)
    return ExpectResult(value, se, law.n)


def _mean(engine, components: ModelComponents, state: ModelState,
          functional: Callable) -> np.ndarray:
    """The value of :func:`expect`, without forming its standard error."""
    law = outcome_law(engine, components, state)
    (value,), _ = _reduce(law, lambda obs: (functional(obs),), 0)
    return value


def mc_convergence_probe(engine: MonteCarlo, components: ModelComponents,
                         state: ModelState, functional: Callable,
                         sizes: Sequence[int]) -> list:
    """Re-run a Monte Carlo expectation at several sample sizes with
    independent substreams; returns [(n, value, se), ...] so callers can
    verify the 1/sqrt(n) error decay."""
    if not isinstance(engine, MonteCarlo):
        raise DomainError("convergence probe requires a MonteCarlo engine")
    children = np.random.SeedSequence(engine.seed).spawn(len(sizes))
    out = []
    for size, child in zip(sizes, children):
        sub = MonteCarlo(engine.sampler, int(size),
                         int(child.generate_state(1)[0]))
        res = expect(sub, components, state, functional)
        out.append((int(size), res.value, res.se))
    return out


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

    def terms(obs):
        e = evaluated[obs]
        return _structural_terms(components, state, obs, e.gv, e.gd, e.fd)

    (gamma, alpha, kappa, beta), ses = _reduce(law, terms)
    # Symmetrize kappa; it is symmetric in exact arithmetic.
    kappa = 0.5 * (kappa + kappa.T)
    return StructuralFunctions(
        gamma=gamma, alpha=alpha, kappa=kappa, beta=beta,
        se_gamma=ses[0], se_alpha=ses[1], se_kappa=ses[2], se_beta=ses[3],
        engine="exact" if law.n is None else "mc", n=law.n,
    )


def make_categorical_sampler(exact: ExactEnumeration,
                             components: ModelComponents) -> Callable:
    """Sampler over a finite outcome space driven by the exact engine's
    probabilities at the sampled state (renormalized; tiny-mass designs
    carry a deficit far below sampling noise)."""

    outcomes = exact.outcomes

    def draw(state: ModelState, rng: np.random.Generator, size: int):
        probs = exact.probabilities(components, state)
        probs = probs / probs.sum()
        return rng.choice(len(outcomes), size=size, p=probs)

    def sampler(state: ModelState, rng: np.random.Generator, size: int):
        return [outcomes[i] for i in draw(state, rng, size).tolist()]

    def tally(state: ModelState, rng: np.random.Generator, size: int):
        # The same draws as the sampler, counted by outcome index (the
        # exact engine's outcomes are distinct).
        counts = np.bincount(draw(state, rng, size), minlength=len(outcomes))
        return [(outcomes[i], int(counts[i]))
                for i in np.flatnonzero(counts).tolist()]

    sampler.tally = tally
    return sampler
