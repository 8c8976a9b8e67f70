"""Property checks tying the operator calculus to finite differences.

The adjoint and information-operator formulas are exact identities, so
any discrepancy beyond roundoff is a bug.  Finite differences are the
only approximation used here; every FD-based check therefore carries an
order-of-convergence probe (halving the step must divide the error by
about four) so a failing identity cannot hide behind step-size error.

Each adjoint check walks the outcome law once and reads each outcome's
g, g_dot and f_dot from the law's own evaluation, so it evaluates no g
of its own: the mass path through b moves only the masses, and
components take ``(theta, obs, points)``, so the law's g serves the base
state and all six perturbed states of the three central differences.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import (adjoint_of_score, classify_category,
                       efficient_information, fisher_information,
                       info_operator, least_favorable_direction)
from .engines import expect, outcome_law, structural_functions
from .errors import DomainError
from .likelihood import (ModelComponents, ModelState, TangentKind,
                         _log_density, _measure_score, _parameter_score,
                         _r_dot_values, _score_operator, check_state,
                         f_dot_values)
from .measure import (as_values, center, inner_product, perturb_measure,
                      require_centered)
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


def _score_family(components, sf, states, which_score):
    """Resolve the scrutinized score into (label, adjoint values on the
    grid, scorer).

    An integer selects a component of the parameter score; a direction
    selects the measure score along it, re-centered under each state's
    measure on a mean-zero tangent space. The scorer takes an outcome,
    g and g_dot on the grid and f_dot at each state's x, and returns the
    score at every state, in the arithmetic of ``score_theta`` and
    ``score_operator``.
    """
    eta = states[0].eta
    tangent = components.tangent
    masses = [st.eta.masses for st in states]
    if isinstance(which_score, (int, np.integer)):
        j = int(which_score)
        if not 0 <= j < components.p:
            raise DomainError(f"score component {j} outside range({components.p})")
        adjoint_values = adjoint_of_score(sf, eta, tangent)[:, j]

        def scores(o, gv, gd, fds):
            r_dot = _r_dot_values(components, states[0], o)
            return [float(_parameter_score(o, w, fd, gd, r_dot)[j])
                    for w, fd in zip(masses, fds)]

        return f"score[{j}]", adjoint_values, scores

    a = as_values(which_score, eta.size)
    if tangent is TangentKind.L2_ZERO:
        require_centered(a, eta, "operator direction")
        dirs = [require_centered(center(a, st.eta).values, st.eta,
                                 "tangent direction") for st in states]
    else:
        dirs = [a] * len(states)
    adjoint_values = apply(info_operator(sf, eta, tangent), a)
    weighted = [w * d for w, d in zip(masses, dirs)]

    def scores(o, gv, gd, fds):
        return [_measure_score(components, o, gv, fd, wd, d)
                for fd, wd, d in zip(fds, weighted, dirs)]

    return "operator", adjoint_values, scores


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
    One pass over the outcome law sums g Bb and the three central
    differences, from the law's own evaluation of each outcome.
    """
    law = outcome_law(engine, components, state)
    if sf is None:
        sf = structural_functions(law, components, state)
    eta = state.eta
    bv = as_values(b, eta.size)
    if components.tangent is TangentKind.L2_ZERO:
        require_centered(bv, eta, "pairing direction")

    steps = (h, FD_ORDER_STEP, FD_ORDER_STEP / 2.0)
    states = [state] + [ModelState(state.theta,
                                   perturb_measure(eta, bv, sign * step))
                        for step in steps for sign in (1.0, -1.0)]
    for st in states:
        check_state(components, st)
    label, adjoint_values, scores = _score_family(components, sf, states,
                                                  which_score)
    t1 = inner_product(adjoint_values, bv, eta)
    weighted_b = eta.masses * bv
    evaluated = law.evaluated

    def integrand(o):
        gv, fd, _, gd = evaluated[o]
        fds = [fd] + [f_dot_values(components, st.eta.masses @ gv, o)
                      for st in states[1:]]
        g = scores(o, gv, gd, fds)
        bb = _measure_score(components, o, gv, fds[0], weighted_b, bv)
        return np.array([g[0] * bb] + [
            (plus - minus) / (2.0 * step)
            for plus, minus, step in zip(g[1::2], g[2::2], steps)])

    sums = expect(law, components, state, integrand).value
    t2 = float(sums[0])
    t3, fd_order, fd_order_half = (-float(v) for v in sums[1:])
    order_err = abs(fd_order - t2)
    order_err_half = abs(fd_order_half - t2)

    scale = max(1.0, abs(t1), abs(t2))
    exact_pair = abs(t1 - t2)
    fd_error = abs(t3 - t2)
    ratio = order_err / order_err_half if order_err_half > 0.0 else np.inf
    max_disc = max(exact_pair, fd_error, abs(t3 - t1))
    ctx = {
        "score": label,
        "t1_adjoint_pairing": t1,
        "t2_expectation": t2,
        "t3_finite_difference": t3,
        "exact_pair": exact_pair,
        "fd_error": fd_error,
        "order_error": order_err,
        "order_error_half": order_err_half,
        "richardson_ratio": float(ratio),
        "h": float(h),
        "h_order": FD_ORDER_STEP,
        "scale": scale,
    }
    return PropertyResult("adjoint_identity", max_disc,
                          FD_TOL_FACTOR * scale * h * h, context=ctx)


def fd_order_ok(fd_error: float, fd_error_half: float, scale: float = 1.0,
                exact_pair: float = 0.0) -> bool:
    """Whether a halved step shows second-order convergence.

    Passes vacuously when both errors sit at the resolution limit: the
    roundoff floor, or the identity's own exact-pair gap (nonzero for
    constructions whose outcome law carries a tiny normalization
    deficit), below which the FD error is h-independent by nature.
    """
    floor = max(FD_ORDER_FLOOR * max(1.0, scale), 4.0 * exact_pair)
    if fd_error <= floor and fd_error_half <= floor:
        return True
    if fd_error_half <= 0.0:
        return False
    ratio = fd_error / fd_error_half
    return FD_ORDER_WINDOW[0] <= ratio <= FD_ORDER_WINDOW[1]


def _order_distance(fd_error: float, fd_error_half: float,
                    scale: float = 1.0, exact_pair: float = 0.0) -> float:
    """0.0 when the order probe is satisfied, else the distance of the
    halving ratio from the admissible window."""
    if fd_order_ok(fd_error, fd_error_half, scale, exact_pair):
        return 0.0
    if fd_error_half <= 0.0:
        return np.inf
    ratio = fd_error / fd_error_half
    lo, hi = FD_ORDER_WINDOW
    return float(lo - ratio) if ratio < lo else float(ratio - hi)


def check_score_fd(components: ModelComponents, state: ModelState, o, a,
                   h: float = FD_STEP_DEFAULT) -> PropertyResult:
    """The measure score at one outcome against a central difference of
    the log density along the mass path through the direction.

    The mass path moves only the masses, so the g on the grid that the
    analytic score evaluates serves every log density along it.
    """
    analytic, gv = _score_operator(components, state, o, a)
    av = as_values(a, state.eta.size)

    def log_density(st):
        check_state(components, st)
        return _log_density(components, st, o, gv)

    def quotient(hh):
        plus = ModelState(state.theta, perturb_measure(state.eta, av, +hh))
        minus = ModelState(state.theta, perturb_measure(state.eta, av, -hh))
        return (log_density(plus) - log_density(minus)) / (2.0 * hh)

    err = abs(analytic - quotient(h))
    order_err = abs(analytic - quotient(FD_ORDER_STEP))
    order_err_half = abs(analytic - quotient(FD_ORDER_STEP / 2.0))
    scale = max(1.0, abs(analytic))
    ctx = {
        "analytic": float(analytic),
        "fd_error": float(err),
        "order_error": float(order_err),
        "order_error_half": float(order_err_half),
        "richardson_ratio": (float(order_err / order_err_half)
                             if order_err_half > 0.0 else np.inf),
        "h": float(h),
        "h_order": FD_ORDER_STEP,
        "scale": scale,
    }
    return PropertyResult("score_fd", err, FD_TOL_FACTOR * scale * h * h,
                          context=ctx)


def check_centering_construction(engine, components: ModelComponents,
                                 state: ModelState, a, t: float,
                                 h: float = FD_STEP_DEFAULT, *,
                                 n_pair: int = 10,
                                 seed: int = 0) -> PropertyResult:
    """Stability of the mean-zero construction off the base point.

    Moves the measure along an admissible direction a, re-centers a
    under the moved measure, and reruns the adjoint identity there for
    randomly drawn pairing directions.  At t = 0 this is exactly the
    base-point identity.  Discrepancies are reported relative to each
    rerun's own FD tolerance, so the tolerance here is 1.
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
    worst = 0.0
    ratios = []
    all_orders_ok = True
    for _ in range(n_pair):
        b = center(rng.uniform(-1.0, 1.0, eta.size), eta_t).values
        res = check_adjoint_identity(law_t, components, state_t, a_t, b, h,
                                     sf=sf_t)
        worst = max(worst, res.max_discrepancy / res.tolerance)
        ratios.append(res.context["richardson_ratio"])
        all_orders_ok = all_orders_ok and fd_order_ok(
            res.context["order_error"], res.context["order_error_half"],
            res.context["scale"], res.context["exact_pair"])
    ctx = {
        "t": float(t),
        "h": float(h),
        "n_pair": int(n_pair),
        "richardson_ratios": [float(r) for r in ratios],
        "orders_ok": bool(all_orders_ok),
    }
    return PropertyResult("centering_construction", worst, 1.0, context=ctx)


def _admissible(rng, eta, tangent):
    raw = rng.uniform(-1.0, 1.0, eta.size)
    if tangent is TangentKind.L2_ZERO:
        return center(raw, eta).values
    return raw


def suite_for_model(model, *, seed: int = SUITE_SEED_DEFAULT,
                    h: float = FD_STEP_DEFAULT, n_op_dirs: int = 2,
                    n_pair: int = 4, n_outcomes: int = 3) -> list:
    """All property checks for one zoo model under its exact engine.

    Deterministic given (model, seed, h, counts); results come back in a
    fixed declaration order with the model id in every context.
    """
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
    for _ in range(n_op_dirs):
        score_list.append(_admissible(rng, eta, tangent))
    exact_pair = 0.0
    fd_norm = 0.0
    order_dist = 0.0
    worst_ratio = None
    for which in score_list:
        for _ in range(n_pair):
            b = _admissible(rng, eta, tangent)
            res = check_adjoint_identity(law, c, s, which, b, h, sf=sf)
            exact_pair = max(exact_pair, res.context["exact_pair"])
            fd_norm = max(fd_norm, res.max_discrepancy / res.tolerance)
            dist = _order_distance(res.context["order_error"],
                                   res.context["order_error_half"],
                                   res.context["scale"],
                                   res.context["exact_pair"])
            if worst_ratio is None or dist > order_dist:
                worst_ratio = res.context["richardson_ratio"]
            order_dist = max(order_dist, dist)
    add("adjoint_exact_pair", exact_pair, EXACT_PAIR_TOL)
    add("adjoint_identity_fd", fd_norm, 1.0)
    add("adjoint_identity_order", order_dist, 0.0, worst_ratio=worst_ratio)

    probs = np.array([weight for _, weight in law.pairs])
    order = np.argsort(probs)[::-1][:n_outcomes]
    score_fd_norm = 0.0
    score_order = 0.0
    for idx in order:
        o = law.pairs[int(idx)][0]
        for _ in range(2):
            a = _admissible(rng, eta, tangent)
            res = check_score_fd(c, s, o, a, h)
            score_fd_norm = max(score_fd_norm,
                                res.max_discrepancy / res.tolerance)
            score_order = max(score_order, _order_distance(
                res.context["order_error"], res.context["order_error_half"],
                res.context["scale"]))
    add("score_fd", score_fd_norm, 1.0)
    add("score_fd_order", score_order, 0.0)

    if tangent is TangentKind.L2_ZERO:
        a = _admissible(rng, eta, tangent)
        res = check_centering_construction(law, c, s, a, 0.1, h,
                                           n_pair=n_pair, seed=seed)
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
              h: float = FD_STEP_DEFAULT, n_op_dirs: int = 2,
              n_pair: int = 4, n_outcomes: int = 3,
              params=None) -> list:
    """Run every property check over the selected zoo models.

    ``params`` maps a model id to builder keyword arguments.  Results
    are deterministic for a fixed (ids, seed, h, counts, params) and
    come back in model order, check order.
    """
    from . import zoo

    ids = list(model_ids) if model_ids is not None else list(zoo.MODELS)
    params = params or {}
    results = []
    for mid in ids:
        model = zoo.build(mid, **params.get(mid, {}))
        results.extend(suite_for_model(model, seed=seed, h=h,
                                       n_op_dirs=n_op_dirs, n_pair=n_pair,
                                       n_outcomes=n_outcomes))
    return results
