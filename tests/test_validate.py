import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from semiinfo import (
    ModelState,
    PropertyResult,
    TangentKind,
    check_adjoint_identity,
    check_centering_construction,
    check_score_fd,
    run_suite,
    score_operator,
    score_theta,
    suite_for_model,
    zoo,
)
from semiinfo.engines import expect, outcome_law, structural_functions
from semiinfo import validate
from semiinfo.errors import DomainError, EvaluationError
from semiinfo.likelihood import _stacked_parameter_score as stacked_parameter_score
from semiinfo.measure import center, perturb_measure, require_centered
from semiinfo.validate import (FD_ORDER_STEP, FD_ORDER_WINDOW,
                               FD_STEP_DEFAULT, fd_order_ok)


def test_property_result_pass_rule():
    assert PropertyResult("x", 1e-12, 1e-10).passed
    assert PropertyResult("x", 1e-10, 1e-10).passed
    assert not PropertyResult("x", 2e-10, 1e-10).passed


def test_fd_order_ok_window():
    assert fd_order_ok(4e-6, 1e-6)
    assert not fd_order_ok(2e-6, 1e-6)
    assert not fd_order_ok(8e-6, 1e-6)
    # both errors at rounding level: the probe is vacuous, not failed
    assert fd_order_ok(3e-12, 1e-12)
    # a measured exact-pair gap lifts the floor
    assert fd_order_ok(3e-9, 3e-9, exact_pair=1e-9)
    # a NaN error is no order, and its distance from the window is NaN
    assert not fd_order_ok(np.nan, 1e-6)
    assert np.isnan(validate._order_distance(np.nan, 1e-6))


def test_adjoint_identity_on_toy_models():
    for model_id in ("cox_rc", "mixture"):
        model = zoo.build(model_id)
        eta = model.state.eta
        b = np.ones(eta.size)
        if model_id == "mixture":
            b = center(np.arange(eta.size, dtype=float), eta).values
        res = check_adjoint_identity(model.exact, model.components,
                                     model.state, 0, b)
        assert res.passed
        assert res.context["exact_pair"] < 1e-10
        assert abs(res.context["t1_adjoint_pairing"]
                   - res.context["t2_expectation"]) < 1e-10


def test_adjoint_identity_rejects_uncentered_pairing():
    model = zoo.build("mixture")
    with pytest.raises(DomainError):
        check_adjoint_identity(model.exact, model.components, model.state,
                               0, np.ones(model.state.eta.size))


def test_score_fd_converges_at_second_order():
    model = zoo.build("missing_cov")
    eta = model.state.eta
    a = center(np.linspace(-1.0, 1.0, eta.size), eta).values
    o = model.exact.outcomes[0]
    res = check_score_fd(model.components, model.state, o, a)
    assert res.passed
    lo, hi = FD_ORDER_WINDOW
    assert lo < res.context["richardson_ratio"] < hi


def test_score_fd_evaluates_g_once():
    model = zoo.build("missing_cov")
    calls = []

    def g(theta, table, pts):
        calls.append(table)
        return model.components.g(theta, table, pts)

    c = dataclasses.replace(model.components, g=g)
    eta = model.state.eta
    a = center(np.linspace(-1.0, 1.0, eta.size), eta).values
    res = check_score_fd(c, model.state, model.exact.outcomes[0], a)
    assert res.passed
    assert len(calls) == 1


def test_centering_construction_needs_mean_zero_tangent():
    model = zoo.build("cox_rc")
    with pytest.raises(DomainError):
        check_centering_construction(model.exact, model.components,
                                     model.state,
                                     np.ones(model.state.eta.size), 0.1)


def test_centering_construction_at_zero_step():
    model = zoo.build("mixture")
    eta = model.state.eta
    a = center(np.linspace(0.0, 1.0, eta.size), eta).values
    at_zero = check_centering_construction(model.exact, model.components,
                                           model.state, a, 0.0, seed=4)
    moved = check_centering_construction(model.exact, model.components,
                                         model.state, a, 0.1, seed=4)
    assert at_zero.passed and moved.passed


def test_suite_passes_and_is_deterministic():
    first = suite_for_model(zoo.build("mixture"), seed=11)
    second = suite_for_model(zoo.build("mixture"), seed=11)
    assert all(r.passed for r in first)
    assert [r.name for r in first] == [r.name for r in second]
    assert [r.max_discrepancy for r in first] == [r.max_discrepancy for r in second]
    shifted = suite_for_model(zoo.build("mixture"), seed=12)
    assert [r.max_discrepancy for r in first] != [r.max_discrepancy for r in shifted]


def test_run_suite_accepts_params():
    results = run_suite(["cox_rc"], params={"cox_rc": {"theta": 0.0}}, seed=2)
    assert all(r.passed for r in results)
    assert all(r.name.startswith("cox_rc:") for r in results)


# 1e-300 squared underflows to 0, and every finite-difference tolerance
# scales with h * h.
@pytest.mark.parametrize("suite", [
    lambda h: run_suite(["cox_rc"], seed=1, h=h),
    lambda h: suite_for_model(zoo.build("cox_rc"), seed=1, h=h)],
    ids=["run_suite", "suite_for_model"])
def test_suite_refuses_a_step_whose_square_underflows(suite):
    with pytest.raises(DomainError, match="h=1e-300"):
        suite(1e-300)


def test_suite_catches_injected_sign_error():
    model = zoo.build("mixture")
    c = model.components
    broken = dataclasses.replace(
        model, components=dataclasses.replace(
            c, f_ddot=lambda x, o: -c.f_ddot(x, o)))
    results = suite_for_model(broken, seed=11)
    failed = {r.name.split(":", 1)[1] for r in results if not r.passed}
    assert "kappa_reference" in failed
    assert "adjoint_exact_pair" in failed
    assert len(failed) >= 3


def test_suite_covers_expected_checks():
    results = suite_for_model(zoo.build("missing_cov"), seed=5)
    names = {r.name.split(":", 1)[1] for r in results}
    for expected in ("normalization", "gamma_reference", "kappa_symmetry",
                     "category", "adjoint_exact_pair", "adjoint_identity_fd",
                     "adjoint_identity_order", "score_fd",
                     "centering_construction", "efficient_info_routes"):
        assert expected in names, expected


def _admissible(rng, c, eta):
    raw = rng.uniform(-1.0, 1.0, eta.size)
    return center(raw, eta).values if c.tangent is TangentKind.L2_ZERO else raw


def _separate_passes(law, c, s, which, bv, h=FD_STEP_DEFAULT,
                     h_order=FD_ORDER_STEP):
    """The adjoint check's sums, one pass over the law each, scoring
    every state from scratch with score_theta / score_operator."""
    def family(st):
        if isinstance(which, int):
            return lambda o: float(score_theta(c, st, o)[which])
        a = (center(which, st.eta).values
             if c.tangent is TangentKind.L2_ZERO else which)
        return lambda o: score_operator(c, st, o, a)

    def fd(step):
        plus = family(ModelState(s.theta, perturb_measure(s.eta, bv, +step)))
        minus = family(ModelState(s.theta, perturb_measure(s.eta, bv, -step)))
        return -float(expect(law, c, s,
                             lambda o: (plus(o) - minus(o)) / (2.0 * step)
                             ).value)

    base = family(s)
    t2 = float(expect(law, c, s,
                      lambda o: base(o) * score_operator(c, s, o, bv)).value)
    return {"t2_expectation": t2,
            "t3_finite_difference": fd(h),
            "order_error": abs(fd(h_order) - t2),
            "order_error_half": abs(fd(h_order / 2.0) - t2)}


# Every zoo model as built by default, then the build options that move
# the grid's support or the likelihood's form.
BUILDS = [(model_id, {}) for model_id in zoo.MODELS] + [
    ("missing_cov", {"zero_cell": True}),
    ("missing_cov", {"degenerate_z": True}),
    ("mixture", {"parametric": False}),
    ("cox_rc", {"duplicated_covariate": True}),
    ("kaplan_meier", {"zero_mass_point": True}),
    ("recurrent_transform", {"transform": "identity"}),
]


@pytest.mark.parametrize("model_id, params", BUILDS, ids=[
    mid + "".join(f"-{key}={value}" for key, value in kw.items())
    for mid, kw in BUILDS])
def test_adjoint_check_sums_match_separate_passes_exactly(model_id, params):
    model = zoo.build(model_id, **params)
    c, s = model.components, model.state
    law = outcome_law(model.exact, c, s)
    sf = structural_functions(law, c, s)
    rng = np.random.default_rng(5)
    families = ([0] if c.p else []) + [_admissible(rng, c, s.eta)]
    for which in families:
        bv = _admissible(rng, c, s.eta)
        res = check_adjoint_identity(law, c, s, which, bv, sf=sf)
        ref = _separate_passes(law, c, s, which, bv)
        for key, value in ref.items():
            assert res.context[key] == value, (which, key)


@pytest.mark.parametrize("family", ["score", "operator"])
def test_adjoint_check_evaluates_g_once_per_law(family):
    model = zoo.build("missing_cov")
    calls = []

    def g(theta, table, pts):
        calls.append(len(table[0]))
        return model.components.g(theta, table, pts)

    c = dataclasses.replace(model.components, g=g)
    s = model.state
    law = outcome_law(model.exact, c, s)
    sf = structural_functions(law, c, s)
    assert calls == [len(law.outcomes)]
    rng = np.random.default_rng(3)
    which = 1 if family == "score" else _admissible(rng, c, s.eta)
    b = _admissible(rng, c, s.eta)
    # The structural functions have evaluated the law's outcomes, and
    # the check reads those evaluations.
    calls.clear()
    check_adjoint_identity(law, c, s, which, b, sf=sf)
    assert calls == []


def _law_and_sf(c, s, model):
    law = outcome_law(model.exact, c, s)
    return law, structural_functions(law, c, s)


def test_adjoint_check_scores_each_state_in_one_product(monkeypatch):
    model = zoo.build("missing_cov")
    c, s = model.components, model.state
    law, sf = _law_and_sf(c, s, model)
    calls = []

    def counted(outcomes, *args):
        calls.append(len(outcomes))
        return stacked_parameter_score(outcomes, *args)

    monkeypatch.setattr(validate, "_stacked_parameter_score", counted)
    rng = np.random.default_rng(3)
    check_adjoint_identity(law, c, s, 1, _admissible(rng, c, s.eta), sf=sf)
    # the base state and the six states of the three central differences
    assert calls == [len(law.outcomes)] * 7


@pytest.mark.parametrize("family", ["score", "operator"])
def test_adjoint_check_calls_f_dot_once_for_all_moved_states(family):
    model = zoo.build("missing_cov")
    calls = []

    def f_dot(x, table):
        calls.append(len(table[0]))
        return model.components.f_dot(x, table)

    c = dataclasses.replace(model.components, f_dot=f_dot)
    s = model.state
    law, sf = _law_and_sf(c, s, model)
    rng = np.random.default_rng(3)
    which = 1 if family == "score" else _admissible(rng, c, s.eta)
    b = _admissible(rng, c, s.eta)
    calls.clear()
    check_adjoint_identity(law, c, s, which, b, sf=sf)
    # the base state reads the law's f_dot; the six moved states share
    # one call on the law's table tiled six times
    assert calls == [6 * len(law.outcomes)]


def test_the_suite_calls_f_dot_once_for_its_adjoint_batch():
    model = zoo.build("missing_cov")
    calls = []

    def f_dot(x, table):
        calls.append(len(table[0]))
        return model.components.f_dot(x, table)

    c = dataclasses.replace(model.components, f_dot=f_dot)
    suite_for_model(dataclasses.replace(model, components=c), seed=318)
    n = len(model.exact.outcomes)
    pairs = (c.p + validate.SUITE_OP_DIRS) * validate.SUITE_PAIRS
    # the law's stacked evaluation, the 6 moved states of every adjoint
    # pair in one call, then the centering check's law and its batch
    assert calls == [n, 6 * pairs * n, n, 6 * validate.SUITE_PAIRS * n]


@pytest.mark.parametrize("family", ["score", "operator"])
def test_adjoint_check_applies_no_l_on_a_law_with_representers(family):
    # L's representer does not depend on the masses, so the law's one
    # representer per outcome scores the base state, the six moved states
    # and g Bb alike.
    model = zoo.build("missing_cov")
    calls = []

    def ell(vals, table):
        calls.append(table)
        return model.components.ell(vals, table)

    c = dataclasses.replace(model.components, ell=ell)
    s = model.state
    law, sf = _law_and_sf(c, s, model)
    assert law.stacked.ell is not None
    rng = np.random.default_rng(3)
    which = 1 if family == "score" else _admissible(rng, c, s.eta)
    b = _admissible(rng, c, s.eta)
    calls.clear()
    check_adjoint_identity(law, c, s, which, b, sf=sf)
    assert calls == []


def test_the_suite_applies_l_twice_per_law(monkeypatch):
    # Each law applies L once for its weights (the log density) and once
    # for its representers; a mean-zero model's centering check adds a
    # second law. score_fd reads its 3 outcomes' representers from the
    # law, and applies L once to the log densities of all 3 x 2 x 6
    # (outcome, moved state) rows.
    build, calls, want = zoo.build, Counter(), Counter()

    def counting_build(model_id, **params):
        model = build(model_id, **params)
        ell = model.components.ell
        if ell is None:
            return model
        laws = 2 if model.components.tangent is TangentKind.L2_ZERO else 1
        want[model_id] = 2 * laws + 1

        def counting(vals, table):
            calls[model_id] += 1
            return ell(vals, table)

        return dataclasses.replace(model, components=dataclasses.replace(
            model.components, ell=counting))

    monkeypatch.setattr(zoo, "build", counting_build)
    run_suite(seed=318)
    assert calls == want
    assert sum(calls.values()) == 14


def test_the_suite_calls_r_dot_once_per_law(monkeypatch):
    # Each law calls r_dot once into its stacks, and the parameter-score
    # adjoint checks read it there; a mean-zero model's centering check
    # adds a second law. score_fd scores its outcomes from the law's
    # stacks and calls r, not r_dot, on its moved states.
    build, calls, want = zoo.build, Counter(), Counter()

    def counting_build(model_id, **params):
        model = build(model_id, **params)
        r_dot = model.components.r_dot
        laws = 2 if model.components.tangent is TangentKind.L2_ZERO else 1
        want[model_id] = laws

        def counting(theta, table):
            calls[model_id] += 1
            return r_dot(theta, table)

        return dataclasses.replace(model, components=dataclasses.replace(
            model.components, r_dot=counting))

    monkeypatch.setattr(zoo, "build", counting_build)
    run_suite(seed=318)
    assert calls == want
    assert want == {"cox_rc": 1, "cox_cs": 1, "recurrent_transform": 1,
                    "kaplan_meier": 1, "mixture": 2, "missing_cov": 2}


def _same_result(batched, one):
    assert batched.name == one.name
    assert batched.max_discrepancy == one.max_discrepancy
    assert batched.tolerance == one.tolerance
    assert batched.context.keys() == one.context.keys()
    for key, value in one.context.items():
        assert batched.context[key] == value, key


@pytest.mark.parametrize("model_id, params", BUILDS, ids=[
    mid + "".join(f"-{key}={value}" for key, value in kw.items())
    for mid, kw in BUILDS])
def test_batched_checks_equal_the_one_pair_checks(model_id, params):
    model = zoo.build(model_id, **params)
    c, s = model.components, model.state
    law, sf = _law_and_sf(c, s, model)
    rng = np.random.default_rng(7)
    families = list(range(c.p)) + [_admissible(rng, c, s.eta)
                                   for _ in range(validate.SUITE_OP_DIRS)]
    pairs = [(which, _admissible(rng, c, s.eta)) for which in families
             for _ in range(validate.SUITE_PAIRS)]
    batched = validate._adjoint_identities(law, c, s, pairs,
                                           FD_STEP_DEFAULT, sf)
    assert len(batched) == len(pairs)
    for (which, b), res in zip(pairs, batched):
        _same_result(res, check_adjoint_identity(law, c, s, which, b, sf=sf))

    order = np.argsort(law.weights)[::-1][:validate.SUITE_OUTCOMES]
    fd_pairs = [(int(i), _admissible(rng, c, s.eta)) for i in order
                for _ in range(2)]
    batched = validate._score_fds(
        c, s, (law.outcomes, law.table, law.stacked), fd_pairs,
        FD_STEP_DEFAULT)
    assert len(batched) == len(fd_pairs)
    for (i, a), res in zip(fd_pairs, batched):
        _same_result(res, check_score_fd(c, s, law.outcomes[i], a))


MEAN_ZERO_BUILDS = [(mid, kw) for mid, kw in BUILDS
                    if zoo.build(mid, **kw).components.tangent
                    is TangentKind.L2_ZERO]


@pytest.mark.parametrize("model_id, params", MEAN_ZERO_BUILDS, ids=[
    mid + "".join(f"-{key}={value}" for key, value in kw.items())
    for mid, kw in MEAN_ZERO_BUILDS])
def test_the_centering_batch_equals_its_one_pair_checks(model_id, params):
    model = zoo.build(model_id, **params)
    c, s = model.components, model.state
    eta = s.eta
    a = center(np.linspace(-1.0, 1.0, eta.size), eta).values
    res = check_centering_construction(model.exact, c, s, a, 0.1, seed=4)
    # the moved state and the draws of check_centering_construction
    eta_t = perturb_measure(eta, a, 0.1)
    s_t = ModelState(s.theta, eta_t)
    a_t = center(a, eta_t).values
    law_t, sf_t = _law_and_sf(c, s_t, model)
    rng = np.random.default_rng(np.random.SeedSequence(4))
    bs = [center(rng.uniform(-1.0, 1.0, eta.size), eta_t).values
          for _ in range(validate.SUITE_PAIRS)]
    batched = validate._adjoint_identities(law_t, c, s_t,
                                           [(a_t, b) for b in bs],
                                           FD_STEP_DEFAULT, sf_t)
    ones = [check_adjoint_identity(law_t, c, s_t, a_t, b, sf=sf_t)
            for b in bs]
    for one, batch in zip(ones, batched):
        _same_result(batch, one)
    assert res.context["richardson_ratios"] == [
        one.context["richardson_ratio"] for one in ones]
    assert res.max_discrepancy == max(one.max_discrepancy / one.tolerance
                                      for one in ones)


def _faulty_draws(monkeypatch, faults):
    """Have the suite's k-th draw of a direction replaced by
    ``faults[k](drawn)``; return the list of replaced values, in order."""
    draw, count, replaced = validate._admissible, itertools.count(), []

    def admissible(rng, eta, tangent):
        value = draw(rng, eta, tangent)
        k = next(count)
        if k in faults:
            value = faults[k](value)
            replaced.append(value)
        return value

    monkeypatch.setattr(validate, "_admissible", admissible)
    return replaced


# The suite's draws on mixture (p = 1): 0 and 1 are the operator
# directions, 2-13 the adjoint pairs' b (families score[0], the two
# operator directions, 4 each), 14-19 score_fd's directions (2 for each
# of its 3 outcomes). Each test also faults a later pair at a stage that
# comes earlier in a pass, so it pins that the first pair in suite order
# decides the error.
def test_a_batch_names_the_first_uncentered_pairing_direction(monkeypatch):
    model = zoo.build("mixture")
    replaced = _faulty_draws(monkeypatch, {4: lambda b: b + 0.5,
                                           9: lambda b: b - 2.0})
    with pytest.raises(DomainError) as err:
        suite_for_model(model, seed=318)
    with pytest.raises(DomainError) as want:
        require_centered(replaced[0], model.state.eta, "pairing direction")
    assert str(err.value) == str(want.value)


def test_a_batch_names_the_first_step_too_long(monkeypatch):
    # max|b| = 600: the h steps are fine, the order probe's 2e-3 is not
    model = zoo.build("mixture")
    replaced = _faulty_draws(monkeypatch, {
        5: lambda b: b * (600.0 / np.max(np.abs(b))),
        9: lambda b: b + 0.5})
    with pytest.raises(DomainError, match="nonpositive masses") as err:
        suite_for_model(model, seed=318)
    with pytest.raises(DomainError) as want:
        perturb_measure(model.state.eta, replaced[0], FD_ORDER_STEP)
    assert str(err.value) == str(want.value)


def test_a_batch_names_the_first_score_component_out_of_range(monkeypatch):
    model = zoo.build("mixture")
    _faulty_draws(monkeypatch, {0: lambda a: np.int64(3),
                                11: lambda b: b + 0.5})
    with pytest.raises(DomainError) as err:
        suite_for_model(model, seed=318)
    assert str(err.value) == "score component 3 outside range(1)"


def test_a_batch_names_the_first_outcome_with_a_nan_log_density(monkeypatch):
    # f is NaN off the state's x at the second and third most probable
    # outcomes, so only score_fd's moved log densities see it
    model = zoo.build("mixture")
    c, s = model.components, model.state
    law = outcome_law(model.exact, c, s)
    order = np.argsort(law.weights)[::-1]
    x0 = law.stacked.x[:, 0]
    table = model.exact.table
    nan_rows = [int(i) for i in order[1:3]]

    def f(x, tab):
        value = np.array(c.f(x, tab), dtype=float)
        for i in nan_rows:
            hit = np.all([col == table[j][i] for j, col in enumerate(tab)],
                         axis=0)
            value[hit & (x != x0[i])] = np.nan
        return value

    broken = dataclasses.replace(model, components=dataclasses.replace(c, f=f))
    _faulty_draws(monkeypatch, {18: lambda a: a + 0.5})
    with pytest.raises(EvaluationError) as err:
        suite_for_model(broken, seed=318)
    assert str(err.value) == (
        f"log density is NaN at observation {law.outcomes[nan_rows[0]]!r}")


def _nan_result(res):
    """``res`` as a check that computed NaN: its discrepancy and every
    float of its context."""
    ctx = {key: np.nan if isinstance(value, float) else value
           for key, value in res.context.items()}
    return PropertyResult(res.name, np.nan, res.tolerance, context=ctx)


def _nan_in_batch(monkeypatch, call, k):
    """Have the ``call``-th adjoint batch return NaN as its k-th result."""
    batch, count = validate._adjoint_identities, itertools.count()

    def adjoint_identities(*args):
        results = batch(*args)
        if next(count) == call:
            results[k] = _nan_result(results[k])
        return results

    monkeypatch.setattr(validate, "_adjoint_identities", adjoint_identities)


def test_a_nan_adjoint_result_fails_the_suite(monkeypatch):
    # Python's max(0.0, nan) is 0.0: folded that way, the NaN pair
    # would leave all three aggregates passing.
    model = zoo.build("cox_cs")
    clean = {r.name: r for r in suite_for_model(model, seed=318)}
    _nan_in_batch(monkeypatch, 0, 2)
    results = suite_for_model(model, seed=318)
    nan = {"adjoint_exact_pair", "adjoint_identity_fd",
           "adjoint_identity_order"}
    for res in results:
        if res.name.split(":", 1)[1] in nan:
            assert not res.passed and np.isnan(res.max_discrepancy), res.name
        else:
            assert res == clean[res.name]
    order = next(r for r in results if r.name.endswith("adjoint_identity_order"))
    assert np.isnan(order.context["worst_ratio"])


def test_a_nan_pair_fails_the_centering_check(monkeypatch):
    model = zoo.build("mixture")
    eta = model.state.eta
    a = center(np.linspace(-1.0, 1.0, eta.size), eta).values
    _nan_in_batch(monkeypatch, 0, 1)
    res = check_centering_construction(model.exact, model.components,
                                       model.state, a, 0.1, seed=4)
    assert not res.passed and np.isnan(res.max_discrepancy)
    assert res.context["orders_ok"] is False


def _zero_weight_outcomes(model_id, params):
    model = zoo.build(model_id, **params)
    law = outcome_law(model.exact, model.components, model.state)
    return [(model_id, params, obs) for obs, weight in law.pairs
            if weight == 0.0]


ZERO_WEIGHT = (_zero_weight_outcomes("missing_cov", {"zero_cell": True})
               + _zero_weight_outcomes("kaplan_meier",
                                       {"zero_mass_point": True}))


@pytest.mark.parametrize("model_id, params, obs", ZERO_WEIGHT,
                         ids=[repr(obs) for _, _, obs in ZERO_WEIGHT])
def test_score_fd_refuses_an_outcome_of_probability_zero(model_id, params,
                                                         obs):
    # Its log density is -inf at the state and along the mass path, so a
    # central difference would subtract -inf from -inf.
    model = zoo.build(model_id, **params)
    c, s = model.components, model.state
    law = outcome_law(model.exact, c, s)
    a = _admissible(np.random.default_rng(2), c, s.eta)
    want = (f"log density is -inf at observation {obs!r}: an outcome of "
            "probability zero has no finite difference")
    with pytest.raises(DomainError) as err:
        check_score_fd(c, s, obs, a)
    assert str(err.value) == want
    # in a batch, after the most probable outcome
    pairs = [(int(np.argmax(law.weights)), a), (law.outcomes.index(obs), a)]
    with pytest.raises(DomainError) as err:
        validate._score_fds(c, s, (law.outcomes, law.table, law.stacked),
                            pairs, FD_STEP_DEFAULT)
    assert str(err.value) == want


def test_both_builds_have_outcomes_of_probability_zero():
    assert len(ZERO_WEIGHT) == 8
