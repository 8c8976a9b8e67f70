import re

import numpy as np
import pytest

from semiinfo import (
    ClosedForm,
    ExactEnumeration,
    MonteCarlo,
    expect,
    mc_convergence_probe,
    structural_functions,
    zoo,
)
from semiinfo.engines import _reduce, outcome_law
from semiinfo.errors import DomainError, NotAvailableError
from semiinfo.likelihood import (ModelState, TangentKind, _g_and_f_dot,
                                 _structural_terms, g_dot_values, log_density)
from semiinfo.measure import center, perturb_measure

STRUCTURAL_NAMES = ("gamma", "alpha", "kappa", "beta")


def test_exact_probabilities_sum_to_one():
    model = zoo.build("mixture")
    probs = model.exact.probabilities(model.components, model.state)
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) < 1e-12
    deficit = model.exact.normalization_deficit(model.components, model.state)
    assert abs(deficit) < 1e-12


def test_tiny_mass_deficit_is_small_but_nonzero():
    model = zoo.build("cox_rc")
    deficit = model.exact.normalization_deficit(model.components, model.state)
    assert 0.0 < abs(deficit) < 1e-9


@pytest.mark.parametrize("model_id", list(zoo.MODELS))
def test_normalization_deficit_is_the_law_deficit(model_id):
    model = zoo.build(model_id)
    c, s = model.components, model.state
    deficit = model.exact.normalization_deficit(c, s)
    assert deficit == model.exact.law(c, s).deficit
    probs = [np.exp(log_density(c, s, o)) for o in model.exact.outcomes]
    assert deficit == abs(1.0 - float(np.sum(probs)))


def test_exact_expectation_is_deterministic_with_zero_se():
    model = zoo.build("mixture")
    res = expect(model.exact, model.components, model.state, lambda o: 1.0)
    assert res.se == 0.0
    assert res.n is None
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_mc_reproducible_across_runs():
    model = zoo.build("mixture")
    f = lambda o: float(o.x)
    a = expect(MonteCarlo(model.sampler, 2000, 99), model.components, model.state, f)
    b = expect(MonteCarlo(model.sampler, 2000, 99), model.components, model.state, f)
    c = expect(MonteCarlo(model.sampler, 2000, 100), model.components, model.state, f)
    assert a.value == b.value and a.se == b.se
    assert a.value != c.value


def test_mc_agrees_with_exact_within_se():
    model = zoo.build("mixture")
    f = lambda o: float(o.x)
    exact = expect(model.exact, model.components, model.state, f)
    mc = expect(MonteCarlo(model.sampler, 4000, 7), model.components, model.state, f)
    assert mc.n == 4000
    assert mc.se > 0.0
    assert abs(mc.value - exact.value) < 4.0 * mc.se


def test_mc_convergence_probe_rate():
    model = zoo.build("mixture")
    f = lambda o: float(o.x)
    exact = expect(model.exact, model.components, model.state, f).value
    engine = MonteCarlo(model.sampler, 100, 2024)
    rows = mc_convergence_probe(engine, model.components, model.state, f,
                                sizes=[400, 6400])
    for n, value, se in rows:
        assert abs(value - exact) < 4.0 * se
    # standard errors shrink like 1/sqrt(n); sizes differ by 16x so the
    # ratio should sit near 4
    ratio = rows[0][2] / rows[1][2]
    assert 2.0 < ratio < 8.0


def test_mc_convergence_probe_draws_independent_substreams():
    model = zoo.build("mixture")
    draws = []

    def sampler(state, rng, size):
        out = model.sampler(state, rng, size)
        draws.append(list(out))
        return out

    engine = MonteCarlo(sampler, 100, 2024)
    mc_convergence_probe(engine, model.components, model.state,
                         lambda o: float(o.x), sizes=[400, 6400])
    small, large = draws
    assert small != large[:len(small)]


def test_mc_convergence_probe_requires_mc_engine():
    model = zoo.build("mixture")
    with pytest.raises(DomainError):
        mc_convergence_probe(model.exact, model.components, model.state,
                             lambda o: 1.0, sizes=[10])


def test_structural_exact_vs_mc():
    model = zoo.build("missing_cov")
    sf = structural_functions(model.exact, model.components, model.state)
    assert sf.is_exact()
    assert sf.max_se() == 0.0
    mc = structural_functions(MonteCarlo(model.sampler, 5000, 13),
                              model.components, model.state)
    assert not mc.is_exact()
    assert mc.engine == "mc"
    for name in ("gamma", "alpha", "kappa", "beta"):
        est = getattr(mc, name)
        ref = getattr(sf, name)
        se = getattr(mc, "se_" + name)
        gap = np.abs(est - ref)
        # a loose single-seed sanity bound; the acceptance suite does the
        # multi-seed coverage statistics
        assert np.all(gap <= 6.0 * se + 1e-12)


def test_structural_kappa_is_symmetric():
    model = zoo.build("cox_cs")
    sf = structural_functions(model.exact, model.components, model.state)
    np.testing.assert_array_equal(sf.kappa, sf.kappa.T)


def test_closed_form_dispatch():
    model = zoo.build("kaplan_meier")
    engine = model.extras["closed_engine"]
    assert isinstance(engine, ClosedForm)
    sf = structural_functions(engine, model.components, model.state)
    np.testing.assert_allclose(sf.gamma, model.references["gamma"], atol=1e-12)
    with pytest.raises(NotAvailableError):
        expect(engine, model.components, model.state, lambda o: 1.0)


def test_sampler_determinism():
    model = zoo.build("cox_rc")
    draws_a = model.sampler(model.state, np.random.default_rng(5), 50)
    draws_b = model.sampler(model.state, np.random.default_rng(5), 50)
    assert list(draws_a) == list(draws_b)


def test_unknown_engine_rejected():
    model = zoo.build("mixture")
    with pytest.raises(DomainError):
        expect(object(), model.components, model.state, lambda o: 1.0)


def _moved_state(model, seed=11, t=0.3):
    """The build state with its measure moved along a seeded admissible
    direction (centered on mean-zero tangent spaces)."""
    eta = model.state.eta
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, eta.size)
    if model.components.tangent is TangentKind.L2_ZERO:
        a = center(a, eta).values
    return ModelState(model.state.theta, perturb_measure(eta, a, t))


def test_every_engine_matches_exact_or_refuses_at_a_moved_state():
    exact_tol = 1e-9
    entries = within = 0
    for model_id in zoo.MODELS:
        model = zoo.build(model_id)
        c = model.components
        moved = _moved_state(model)
        ref = structural_functions(model.exact, c, moved)
        engines = [model.exact]
        engines += [MonteCarlo(model.sampler, 4000, seed) for seed in range(3)]
        if "closed_engine" in model.extras:
            engines.append(model.extras["closed_engine"])
        for engine in engines:
            try:
                sf = structural_functions(engine, c, moved)
            except NotAvailableError:
                continue
            for name in STRUCTURAL_NAMES:
                gap = np.abs(getattr(sf, name) - getattr(ref, name))
                if sf.is_exact():
                    assert np.all(gap <= exact_tol), (model_id, sf.engine, name)
                    continue
                ok = gap <= 4.0 * getattr(sf, "se_" + name)
                entries += ok.size
                within += int(ok.sum())
                assert np.all(gap[~ok] <= exact_tol), (model_id, name)
    assert within >= 0.99 * entries


def test_exact_enumeration_refuses_repeated_outcomes():
    outcomes = zoo.build("mixture").exact.outcomes
    with pytest.raises(DomainError, match=re.escape(repr(outcomes[1]))):
        ExactEnumeration(outcomes[:3] + outcomes[1:2] + outcomes[:1])


@pytest.mark.parametrize("n", [3, 40, 5000])
@pytest.mark.parametrize("model_id", list(zoo.MODELS))
def test_tally_and_counter_draw_the_same_law(model_id, n):
    model = zoo.build(model_id)

    def bare(state, rng, size):
        return model.sampler(state, rng, size)

    assert hasattr(model.sampler, "tally") and not hasattr(bare, "tally")
    for seed in (0, 7, 2024):
        tallied = MonteCarlo(model.sampler, n, seed).draw_weights(model.state)
        counted = MonteCarlo(bare, n, seed).draw_weights(model.state)
        assert tallied == counted
        if n == 3:
            # some outcomes are never drawn and get no entry in the law
            assert len(tallied) < len(model.exact.outcomes)


def test_reduced_means_do_not_depend_on_which_second_moments_are_formed():
    model = zoo.build("cox_cs", m=12)
    c, s = model.components, model.state
    law = outcome_law(MonteCarlo(model.sampler, 3000, 11), c, s)

    def terms(obs):
        gv, fd = _g_and_f_dot(c, s, obs)
        return _structural_terms(c, s, obs, gv, g_dot_values(c, s, obs), fd)

    means, ses = _reduce(law, terms)
    assert len(ses) == 4 and all(np.any(se > 0.0) for se in ses)
    for n_se in (0, 1, 2, 4):
        got_means, got_ses = _reduce(law, terms, n_se)
        assert len(got_ses) == n_se
        for want, got in zip(means + ses, got_means + got_ses):
            assert np.array_equal(want, got)


@pytest.mark.parametrize("n, seed, field", [
    (2.5, 1, "n"), (True, 1, "n"), (0, 1, "n"), ("10", 1, "n"),
    (10, -1, "seed"), (10, 1.5, "seed"), (10, False, "seed"),
    (10, None, "seed"),
])
def test_monte_carlo_refuses_non_integer_or_out_of_range_inputs(n, seed,
                                                                 field):
    sampler = zoo.build("mixture").sampler
    with pytest.raises(DomainError, match=f"MonteCarlo {field} must be"):
        MonteCarlo(sampler, n, seed)


def test_monte_carlo_accepts_numpy_integers():
    model = zoo.build("mixture")
    engine = MonteCarlo(model.sampler, np.int64(50), np.uint32(4))
    assert (engine.draw_weights(model.state)
            == MonteCarlo(model.sampler, 50, 4).draw_weights(model.state))
