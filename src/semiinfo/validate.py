"""Property checks tying the operator calculus to finite differences.

The adjoint and information-operator formulas are exact identities, so
any discrepancy beyond roundoff is a bug.  Finite differences are the
only approximation used here; every FD-based check therefore carries an
order-of-convergence probe (halving the step must divide the error by
about four) so a failing identity cannot hide behind step-size error.

The finite-difference checks share one core and run one pass per law.
A model's adjoint checks, the centering check's pairs and its score
checks are each one batch (:func:`_adjoint_identities`,
:func:`_score_fds`). A batch walks the mass path once for all its
directions (:func:`_walk`) and reads g, g_dot, f_dot, r_dot and L's
representers from the law's evaluation, which the walk does not move.
One builder (:func:`_fd_result`) makes each pair's result from its
central differences and exact reference, and one summary
(:func:`_summary`) takes the worst of a list of results, a NaN
included. On an exact law each result is, bit for bit, that of its
pair alone: :func:`check_adjoint_identity` and :func:`check_score_fd`
are the one-pair cases, and a batch that raises raises what its first
offending pair raises alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (adjoint_of_score, classify_category,
                       efficient_information, fisher_information,
                       info_operator, least_favorable_direction)
from .engines import _law_mean, outcome_law, structural_functions
from .errors import DomainError, SemiinfoError
from .likelihood import (ModelComponents, ModelState, TangentKind, _Outcome,
                         _at_x, _column, _evaluate_one, _log_density,
                         _measure_scores, _stacked_parameter_score,
                         _tangent, check_state)
from .measure import _mass_path, center, perturb_measure, require_centered
from .operators import apply

FD_STEP_DEFAULT = 1e-4
# FD tolerance is FD_TOL_FACTOR * scale * h**2 where scale is the size of
# the quantities entering the identity; generous because the constant in
# the h**2 term involves third derivatives along the perturbation path.
FD_TOL_FACTOR = 100.0
# The halving probe runs at this coarser step. At the default step the
# h**2 term is near the eps/h cancellation noise of a central difference
# and ratios are garbage; at 2e-3 truncation dominates by several orders
# while the expansion is still firmly in the h**2 regime.
FD_ORDER_STEP = 2e-3
# Below this (scaled) error the halving ratio is roundoff noise, not a
# convergence order, and the order probe passes vacuously.
FD_ORDER_FLOOR = 1e-11
FD_ORDER_WINDOW = (3.5, 4.5)
EXACT_PAIR_TOL = 1e-10
REFERENCE_TOL = 1e-9
DEFICIT_TOL = 1e-10
ROUTE_TOL = 1e-8
SUITE_SEED_DEFAULT = 318
# The suite's counts: random measure-score families checked by the
# adjoint identity (after the p parameter-score components), pairing
# directions per family (also the centering check's), and the most
# probable outcomes whose measure score is checked against finite
# differences (two random directions each).
SUITE_OP_DIRS = 2
SUITE_PAIRS = 4
SUITE_OUTCOMES = 3


@dataclass(frozen=True)
class PropertyResult:
    """One named check: pass iff the discrepancy is within tolerance."""

    name: str
    max_discrepancy: float
    tolerance: float
    passed: bool = field(init=False)
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        ok = bool(self.max_discrepancy <= self.tolerance)
        object.__setattr__(self, "passed", ok)
        object.__setattr__(self, "max_discrepancy", float(self.max_discrepancy))
        object.__setattr__(self, "tolerance", float(self.tolerance))


def _first_error(batch, pairs):
    """``batch(pairs)``. A batch that raises is rerun one pair at a time,
    so what it raises is what the first offending pair raises alone."""
    try:
        return batch(pairs)
    except SemiinfoError as err:
        if len(pairs) == 1:
            raise
        failure = err
    for pair in pairs:
        batch([pair])
    raise failure


def _walk(components, state, pairs, what, h):
    """``(directions, moved, central)`` of a batch: the pairs' (P, m)
    directions, each checked by ``likelihood._tangent`` (centered on a
    mean-zero tangent space, so that the state's check covers every
    moved state; ``what`` names them), the (P, 6, m) masses at +-h,
    +-FD_ORDER_STEP and +-half it, in that order, and the map of a
    direction's (6, k) values at its moved states to their (3, k)
    central differences."""
    check_state(components, state)
    eta = state.eta
    directions = np.array([_tangent(components, state, a, what)
                           for _, a in pairs])
    steps = np.array([h, FD_ORDER_STEP, FD_ORDER_STEP / 2.0])
    moved = _mass_path(eta, directions,
                       [sign * step for step in steps for sign in (1.0, -1.0)])
    spans = 2.0 * steps[:, np.newaxis]

    def central(values):
        return (values[0::2] - values[1::2]) / spans

    return directions, moved[0], central


def _fd_result(name, reference, fds, h, scale, others=(), **head):
    """One pair's PropertyResult from its central differences ``fds`` at
    a walk's steps and the exact ``reference`` they approximate: context
    ``head`` then the order probe's; the largest of ``others`` and the
    error at h (NaN if any is) against FD_TOL_FACTOR * scale * h**2."""
    fd_error, order_err, order_err_half = [abs(float(v) - reference)
                                           for v in fds]
    head.update(fd_error=fd_error, order_error=order_err,
                order_error_half=order_err_half,
                richardson_ratio=(float(order_err / order_err_half)
                                  if order_err_half > 0.0 else np.inf),
                h=float(h), h_order=FD_ORDER_STEP, scale=scale)
    return PropertyResult(name, max((*others, fd_error),
                                    key=lambda v: (math.isnan(v), v)),
                          FD_TOL_FACTOR * scale * h * h, context=head)


def _score_family(components, sf, law, state, which_score):
    """Resolve the scrutinized score into (label, adjoint values on the
    grid, scorer), once for all of its pairing directions.

    An integer selects a component of the parameter score; a direction
    selects the measure score along it, re-centered under each state's
    measure on a mean-zero tangent space. The scorer takes S states,
    their masses as the rows of an (S, m) array and the S (N, d) f_dot
    of the law's N outcomes at their x, and returns the (N,) scores at
    every state, one stacked product per state over the law's g, g_dot
    and r_dot, in the arithmetic of ``score_theta`` and
    ``score_operator``.
    """
    eta, tangent = state.eta, components.tangent
    outcomes, stacked = law.outcomes, law.stacked
    if isinstance(which_score, (int, np.integer)):
        j = int(which_score)
        if not 0 <= j < components.p:
            raise DomainError(f"score component {j} outside range({components.p})")

        def scores(weights, fds):
            return [_stacked_parameter_score(outcomes, w, fd, stacked.gd,
                                             stacked.r_dot)[:, j]
                    for w, fd in zip(weights, fds)]

        return f"score[{j}]", adjoint_of_score(sf, eta, tangent)[:, j], scores

    a = _tangent(components, state, which_score, "operator direction")

    def scores(weights, fds):
        values = (a - np.sum(a * weights, axis=1)[:, np.newaxis]
                  if tangent is TangentKind.L2_ZERO else [a] * len(weights))
        return [_measure_scores(outcomes, stacked._replace(fd=fd),
                                _column(w, v))[:, 0]
                for w, v, fd in zip(weights, values, fds)]

    return "operator", apply(info_operator(sf, eta, tangent), a), scores


def _adjoint_identities(law, components: ModelComponents, state: ModelState,
                        pairs, h: float, sf) -> list:
    """The adjoint identity of :func:`check_adjoint_identity` for each
    (score family, pairing direction b) of ``pairs``, all on one law, in
    one pass: a family's adjoint values and base-state scores serve its
    run of consecutive pairs (the same object), one f_dot call serves
    the 6P moved states, and one mean over the law the 4P columns (g Bb
    and three central differences per pair)."""
    return _first_error(
        lambda batch: _adjoint_pass(law, components, state, batch, h, sf),
        pairs)


def _adjoint_pass(law, components, state, pairs, h, sf):
    eta = state.eta
    bs, moved, central = _walk(components, state, pairs,
                               "pairing direction", h)
    families = []
    for k, (which, _) in enumerate(pairs):
        if k == 0 or which is not pairs[k - 1][0]:
            family = _score_family(components, sf, law, state, which)
        families.append(family)
    t1s = np.sum(np.array([adj for _, adj, _ in families]) * bs * eta.masses,
                 axis=1)

    stacked = law.stacked
    n, _, d = stacked.gv.shape
    flat = moved.reshape(-1, eta.size)
    table = type(law.table)._make(np.tile(column, len(flat))
                                  for column in law.table)
    x = np.matmul(flat[:, np.newaxis, np.newaxis], stacked.gv)
    fds = _at_x(components, "f_dot", x.reshape(-1, d), table)
    fds = fds.reshape(moved.shape[:2] + (n, d))

    rows = np.empty((n, 4 * len(pairs)))
    for k, ((_, _, scores), bv) in enumerate(zip(families, bs)):
        if k == 0 or scores is not families[k - 1][2]:
            g0 = scores(eta.masses[np.newaxis], [stacked.fd])[0]
        g = np.array(scores(moved[k], fds[k]))
        bb = _measure_scores(law.outcomes, stacked,
                             _column(eta.masses, bv))[:, 0]
        rows[:, 4 * k] = g0 * bb
        rows[:, 4 * k + 1:4 * k + 4] = central(g).T
    sums = _law_mean(law, rows)
    results = []
    for k, (label, _, _) in enumerate(families):
        t1, t2 = float(t1s[k]), float(sums[4 * k])
        fd = [-float(v) for v in sums[4 * k + 1:4 * k + 4]]
        exact_pair = abs(t1 - t2)
        results.append(_fd_result(
            "adjoint_identity", t2, fd, h, max(1.0, abs(t1), abs(t2)),
            (exact_pair, abs(fd[0] - t1)), score=label,
            t1_adjoint_pairing=t1, t2_expectation=t2,
            t3_finite_difference=fd[0], exact_pair=exact_pair))
    return results


def check_adjoint_identity(engine, components: ModelComponents,
                           state: ModelState, which_score, b,
                           h: float = FD_STEP_DEFAULT, *,
                           sf=None) -> PropertyResult:
    """Three-way identity behind the adjoint assembly.

    For a score family g (a parameter-score component or the measure
    score of a fixed direction) and an admissible direction b, the
    pairing of the assembled adjoint with b, the expectation E[g Bb],
    and minus the derivative of E-free g along the mass path through b
    all agree.  The first two are exact; the third is approximated by a
    central difference of step h.  The convergence order is probed at
    the coarser step FD_ORDER_STEP where truncation dominates roundoff.
    This is the one-pair case of :func:`_adjoint_identities`.
    """
    law = outcome_law(engine, components, state)
    if sf is None:
        sf = structural_functions(law, components, state)
    return _adjoint_identities(law, components, state, [(which_score, b)],
                               h, sf)[0]


def fd_order_ok(fd_error: float, fd_error_half: float, scale: float = 1.0,
                exact_pair: float = 0.0) -> bool:
    """Whether a halved step shows second-order convergence:
    :func:`_order_distance` is 0."""
    return _order_distance(fd_error, fd_error_half, scale, exact_pair) == 0.0


def _order_distance(fd_error: float, fd_error_half: float,
                    scale: float = 1.0, exact_pair: float = 0.0) -> float:
    """0.0 when a halved step shows second-order convergence, else the
    distance of the halving ratio from the admissible window (inf when
    the halved error is 0, NaN when an error is). Both errors at the
    resolution limit pass vacuously: the roundoff floor, or the
    identity's own exact-pair gap (nonzero where the law carries a tiny
    normalization deficit), below which the FD error is h-independent."""
    floor = max(FD_ORDER_FLOOR * max(1.0, scale), 4.0 * exact_pair)
    if fd_error <= floor and fd_error_half <= floor:
        return 0.0
    if fd_error_half <= 0.0:
        return np.inf
    ratio = fd_error / fd_error_half
    lo, hi = FD_ORDER_WINDOW
    if lo <= ratio <= hi:
        return 0.0
    return float(lo - ratio) if ratio < lo else float(ratio - hi)


def _summary(results) -> tuple:
    """The worst of a list of finite-difference results: the largest
    exact-pair gap (0 where none), discrepancy over tolerance and
    :func:`_order_distance`, and the first Richardson ratio at that
    distance. Each is ``np.max``'s, so a NaN anywhere is the summary's."""
    ctxs = [res.context for res in results]
    worst = np.array([(ctx.get("exact_pair", 0.0),
                       res.max_discrepancy / res.tolerance,
                       _order_distance(ctx["order_error"],
                                       ctx["order_error_half"], ctx["scale"],
                                       ctx.get("exact_pair", 0.0)))
                      for res, ctx in zip(results, ctxs)])
    gap, fd, order = np.max(worst, axis=0).tolist()
    return gap, fd, order, ctxs[int(np.argmax(worst[:, 2]))]["richardson_ratio"]


def check_score_fd(components: ModelComponents, state: ModelState, o, a,
                   h: float = FD_STEP_DEFAULT) -> PropertyResult:
    """The measure score at one outcome against a central difference of
    the log density along the mass path through the direction: the
    one-pair case of :func:`_score_fds`. An outcome of probability zero
    (log density -inf) raises :class:`DomainError`."""
    return _score_fds(components, state,
                      ((o,),) + _evaluate_one(components, state, o),
                      [(0, a)], h)[0]


def _score_fds(components: ModelComponents, state: ModelState, evaluation,
               pairs, h: float) -> list:
    """:func:`check_score_fd` for each (outcome, direction) of ``pairs``
    in one pass, each pair naming its outcome by its row in
    ``evaluation``, ``(outcomes, table, stacked)`` at the state. That
    row's g serves every log density along the mass path, and one r, f
    and L call each scores the 6P rows of (outcome, moved state)."""
    return _first_error(
        lambda batch: _score_fd_pass(components, state, evaluation, batch, h),
        pairs)


def _score_fd_pass(components, state, evaluation, pairs, h):
    eta = state.eta
    dirs, moved, central = _walk(components, state, pairs,
                                 "tangent direction", h)
    outcomes, table, stacked = evaluation
    analytic = np.array([
        _measure_scores((outcomes[i],), _Outcome._make(
            None if field is None else field[i:i + 1] for field in stacked),
            _column(eta.masses, av))[0, 0]
        for (i, _), av in zip(pairs, dirs)])
    rows = np.repeat([i for i, _ in pairs], moved.shape[1])
    densities = _log_density(
        components, state, [outcomes[i] for i in rows],
        type(table)._make(column[rows] for column in table),
        stacked.gv[rows], moved.reshape(-1, eta.size))
    dead = np.isneginf(densities)
    if dead.any():
        raise DomainError(f"log density is -inf at observation "
                          f"{outcomes[rows[np.argmax(dead)]]!r}: an outcome "
                          "of probability zero has no finite difference")
    fds = central(densities.reshape(moved.shape[:2]).T).T
    return [_fd_result("score_fd", float(value), fd, h,
                       max(1.0, abs(float(value))), analytic=float(value))
            for value, fd in zip(analytic, fds)]


def check_centering_construction(engine, components: ModelComponents,
                                 state: ModelState, a, t: float,
                                 h: float = FD_STEP_DEFAULT, *,
                                 seed: int = 0) -> PropertyResult:
    """Stability of the mean-zero construction off the base point.

    Moves the measure along an admissible direction a, re-centers a
    under the moved measure, and reruns the adjoint identity there for
    SUITE_PAIRS randomly drawn pairing directions.  At t = 0 this is
    exactly the base-point identity.  Discrepancies are reported relative
    to each rerun's own FD tolerance, so the tolerance here is 1.
    """
    if components.tangent is not TangentKind.L2_ZERO:
        raise DomainError(
            "centering construction applies to mean-zero tangent spaces only"
        )
    eta = state.eta
    av = require_centered(a, eta, "perturbation direction")
    eta_t = perturb_measure(eta, av, t)
    state_t = ModelState(state.theta, eta_t)
    a_t = center(av, eta_t).values
    law_t = outcome_law(engine, components, state_t)
    sf_t = structural_functions(law_t, components, state_t)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    bs = [center(rng.uniform(-1.0, 1.0, eta.size), eta_t).values
          for _ in range(SUITE_PAIRS)]
    results = _adjoint_identities(law_t, components, state_t,
                                  [(a_t, b) for b in bs], h, sf_t)
    _, worst, order, _ = _summary(results)
    ctx = {
        "t": float(t),
        "h": float(h),
        "richardson_ratios": [float(res.context["richardson_ratio"])
                              for res in results],
        "orders_ok": order == 0.0,
    }
    return PropertyResult("centering_construction", worst, 1.0, context=ctx)


def _admissible(rng, eta, tangent):
    raw = rng.uniform(-1.0, 1.0, eta.size)
    if tangent is TangentKind.L2_ZERO:
        return center(raw, eta).values
    return raw


def suite_for_model(model, *, seed: int = SUITE_SEED_DEFAULT,
                    h: float = FD_STEP_DEFAULT) -> list:
    """All property checks for one zoo model under its exact engine.

    Deterministic given (model, seed, h); results come back in a fixed
    declaration order with the model id in every context.
    """
    if h * h == 0.0:  # the finite-difference tolerances scale with h * h
        raise DomainError(f"finite-difference step h={h!r} squares to 0")
    c, s = model.components, model.state
    law = model.exact.law(c, s)
    eta = s.eta
    tangent = c.tangent
    base_ctx = {"model": model.model_id,
                "theta": [float(v) for v in s.theta],
                "seed": int(seed)}
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    results = []

    def add(name, disc, tol, **extra):
        ctx = dict(base_ctx)
        ctx.update(extra)
        results.append(PropertyResult(f"{model.model_id}:{name}",
                                      disc, tol, context=ctx))

    add("normalization", law.deficit, DEFICIT_TOL)

    sf = structural_functions(law, c, s)
    for piece in ("gamma", "alpha", "kappa", "beta"):
        ref = model.references[piece]
        disc = float(np.max(np.abs(getattr(sf, piece) - ref))) if ref.size else 0.0
        add(f"{piece}_reference", disc, REFERENCE_TOL)

    kap = sf.kappa
    add("kappa_symmetry", float(np.max(np.abs(kap - kap.T))),
        1e-12 * (1.0 + float(np.max(np.abs(kap)))))

    adjoint = adjoint_of_score(sf, eta, tangent)
    if "adjoint" in model.references and adjoint.size:
        disc = float(np.max(np.abs(adjoint - model.references["adjoint"])))
        add("adjoint_reference", disc, model.adjoint_tol)

    cat = classify_category(sf)
    add("category", 0.0 if cat.category is model.expected_category else 1.0,
        0.0, expected=model.expected_category.name, got=cat.category.name)

    score_list = list(range(c.p))
    for _ in range(SUITE_OP_DIRS):
        score_list.append(_admissible(rng, eta, tangent))
    pairs = [(which, _admissible(rng, eta, tangent))
             for which in score_list for _ in range(SUITE_PAIRS)]
    exact_pair, fd_norm, order_dist, worst_ratio = _summary(
        _adjoint_identities(law, c, s, pairs, h, sf))
    add("adjoint_exact_pair", exact_pair, EXACT_PAIR_TOL)
    add("adjoint_identity_fd", fd_norm, 1.0)
    add("adjoint_identity_order", order_dist, 0.0, worst_ratio=worst_ratio)

    order = np.argsort(law.weights)[::-1][:SUITE_OUTCOMES]
    fd_pairs = [(int(idx), _admissible(rng, eta, tangent))
                for idx in order for _ in range(2)]
    _, score_fd_norm, score_order, _ = _summary(_score_fds(
        c, s, (law.outcomes, law.table, law.stacked), fd_pairs, h))
    add("score_fd", score_fd_norm, 1.0)
    add("score_fd_order", score_order, 0.0)

    if tangent is TangentKind.L2_ZERO:
        a = _admissible(rng, eta, tangent)
        res = check_centering_construction(law, c, s, a, 0.1, h, seed=seed)
        add("centering_construction", res.max_discrepancy, res.tolerance,
            orders_ok=res.context["orders_ok"])

    if c.p > 0:
        fisher = fisher_information(law, c, s)
        lfd = least_favorable_direction(sf, eta, tangent, adjoint)
        eff = efficient_information(law, c, s, lfd.values, adjoint, fisher)
        scale = 1.0 + float(np.max(np.abs(eff.by_adjoint)))
        # A fixed ``ridge`` field: the seed-318 report carries it, and
        # perfbench/workloads.py and the CLI tests pin that report's digest.
        add("efficient_info_routes", eff.discrepancy, ROUTE_TOL * scale,
            ridge=0.0)

    return results


def run_suite(model_ids=None, *, seed: int = SUITE_SEED_DEFAULT,
              h: float = FD_STEP_DEFAULT, params=None) -> list:
    """Run every property check over the selected zoo models.

    ``params`` maps a model id to builder keyword arguments.  Results
    are deterministic for a fixed (ids, seed, h, params) and come back
    in model order, check order.
    """
    from . import zoo

    ids = list(model_ids) if model_ids is not None else list(zoo.MODELS)
    params = params or {}
    results = []
    for mid in ids:
        model = zoo.build(mid, **params.get(mid, {}))
        results.extend(suite_for_model(model, seed=seed, h=h))
    return results
