import dataclasses
import re

import numpy as np
import pytest

from semiinfo import (
    ClosedForm,
    ExactEnumeration,
    MonteCarlo,
    expect,
    structural_functions,
    zoo,
)
from semiinfo.engines import _reduce, outcome_law
from semiinfo.errors import DomainError, NotAvailableError
from semiinfo.likelihood import (ModelState, TangentKind, _g_and_f_dot,
                                 _structural_terms, ell_of_ones,
                                 f_ddot_values, g_dot_values, g_values,
                                 log_density)
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
    c, s = model.components, model.state
    pairs_a, gvs_a = MonteCarlo(model.sampler, 50, 5).draw_weights(c, s)
    pairs_b, gvs_b = MonteCarlo(model.sampler, 50, 5).draw_weights(c, s)
    assert pairs_a == pairs_b
    assert all(np.array_equal(a, b) for a, b in zip(gvs_a, gvs_b))


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


def _structural_oracle(c, s, obs, gv, gd, fd):
    """The per-outcome structural integrands as fresh arrays, each by one
    numpy expression: the reference the in-place writer
    ``likelihood._structural_terms`` must match bit for bit."""
    x = s.eta.masses @ gv
    fdd = f_ddot_values(c, x, obs)
    if c.tangent is TangentKind.L2_ZERO:
        gamma = -((gv - x[np.newaxis, :]) @ fd) + ell_of_ones(c, s, obs)
    else:
        gamma = -(gv @ fd)
    alpha = -np.einsum("vdj,d->vj", gd, fd)
    kappa = -np.einsum("vd,de,ue->vu", gv, fdd, gv)
    beta = -np.einsum("vd,de,uej->vuj", gv, fdd, gd)
    return gamma, alpha, kappa, beta


_IN_PLACE_CASES = (
    [pytest.param(model_id, {}, n, id=f"{model_id}-{n or 'exact'}")
     for model_id in zoo.MODELS for n in (None, 1, 40, 20000)]
    + [pytest.param("cox_cs", {"m": 40}, n, id=f"cox_cs-m40-{n or 'exact'}")
       for n in (None, 20000)])


@pytest.mark.parametrize("model_id,params,n", _IN_PLACE_CASES)
def test_in_place_structural_pass_matches_the_reference_bit_for_bit(
        model_id, params, n):
    model = zoo.build(model_id, **params)
    c, s = model.components, model.state
    engine = model.exact if n is None else MonteCarlo(model.exact, n, 3)
    law = outcome_law(engine, c, s)
    evaluated = law.evaluated

    def terms(obs):
        e = evaluated[obs]
        return _structural_oracle(c, s, obs, e.gv, e.gd, e.fd)

    (gamma, alpha, kappa, beta), ses = _reduce(law, terms)
    want = dict(zip(STRUCTURAL_NAMES, (gamma, alpha, 0.5 * (kappa + kappa.T),
                                       beta)))
    want.update(zip(["se_" + name for name in STRUCTURAL_NAMES], ses))
    sf = structural_functions(law, c, s)
    if n is not None and n >= 40:
        assert sf.max_se() > 0.0
    for name, value in want.items():
        got = getattr(sf, name)
        assert got.shape == value.shape, name
        assert np.array_equal(got, value), name
        assert np.array_equal(np.signbit(got), np.signbit(value)), name


def test_in_place_terms_sum_a_dense_f_ddot_in_the_reference_order():
    # recurrent_transform's f_ddot is diagonal, so its d = 2 terms add
    # zeros; a dense, nonsymmetric f_ddot makes the order of the sum over
    # (i, j) show in the rounding.
    model = zoo.build("recurrent_transform")
    dense = np.array([[1.3, -0.7], [0.45, -2.1]]) / 3.0
    c = dataclasses.replace(model.components,
                            f_ddot=lambda x, o: dense * (1.0 + x[0]))
    s = model.state
    law = outcome_law(model.exact, c, s)
    m, p = s.eta.size, c.p
    for obs, _ in law.pairs:
        e = law.evaluated[obs]
        out = [np.full(shape, np.nan)
               for shape in ((m,), (m, p), (m, m), (m, m, p))]
        _structural_terms(c, s, obs, e.gv, e.gd, e.fd, out)
        for got, want in zip(out, _structural_oracle(c, s, obs, e.gv, e.gd,
                                                      e.fd)):
            assert np.array_equal(got, want)


def test_reduced_means_do_not_depend_on_which_second_moments_are_formed():
    model = zoo.build("cox_cs", m=12)
    c, s = model.components, model.state
    law = outcome_law(MonteCarlo(model.sampler, 3000, 11), c, s)

    def terms(obs):
        gv, fd = _g_and_f_dot(c, s, obs)
        return _structural_oracle(c, s, obs, gv, g_dot_values(c, s, obs), fd)

    means, ses = _reduce(law, terms)
    assert len(ses) == 4 and all(np.any(se > 0.0) for se in ses)
    for n_se in (0, 1, 2, 4):
        got_means, got_ses = _reduce(law, terms, n_se)
        assert len(got_ses) == n_se
        for want, got in zip(means + ses, got_means + got_ses):
            assert np.array_equal(want, got)


def _kahan_oracle(law, functional, n_se=None):
    """The compensated reducer written as one pair of accumulators per
    array, with fresh temporaries each step: the reference ``_reduce``
    must match bit for bit."""
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
    k = len(vals)
    ses = [np.sqrt(np.maximum(s2 - v * v, 0.0) / law.n)
           for v, s2 in zip(sums[:k], sums[k:])]
    return sums[:k], ses


@pytest.mark.parametrize("n_se", [0, 1, None])
@pytest.mark.parametrize("kind", ["exact", "mc"])
def test_reduce_matches_the_per_array_kahan_sum(kind, n_se):
    model = zoo.build("cox_cs", m=12)
    c, s = model.components, model.state
    engine = (model.exact if kind == "exact"
              else MonteCarlo(model.sampler, 3000, 11))
    law = outcome_law(engine, c, s)
    evaluated = law.evaluated

    def terms(obs):
        e = evaluated[obs]
        # a scalar first, then the (m,), (m, p), (m, m) and (m, m, p) terms
        return (float(e.fd @ e.gv.sum(axis=0)),
                *_structural_oracle(c, s, obs, e.gv, e.gd, e.fd))

    means, ses = _reduce(law, terms, n_se)
    want_means, want_ses = _kahan_oracle(law, terms, n_se)
    assert len(means) == 5 and len(ses) == len(want_ses)
    assert means[0].shape == ()
    for want, got in zip(want_means + want_ses, means + ses):
        assert got.shape == want.shape and np.array_equal(got, want)
    if kind == "mc" and n_se != 0:
        assert np.any(ses[-1] > 0.0)
    out = means + ses
    for i, a in enumerate(out):
        for b in out[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("model_id", list(zoo.MODELS))
def test_categorical_draws_are_those_of_generator_choice(model_id):
    model = zoo.build(model_id)
    c, s = model.components, model.state
    outcomes = model.exact.outcomes
    probs = model.exact.probabilities(c, s)
    probs = probs / probs.sum()
    for seed in (0, 7, 2024):
        for n in (1, 3, 40, 100000):
            idx = np.random.default_rng(seed).choice(len(outcomes), size=n,
                                                     p=probs)
            counts = np.bincount(idx, minlength=len(outcomes))
            want = sorted(((outcomes[i], int(counts[i]) / n)
                           for i in np.flatnonzero(counts).tolist()),
                          key=lambda kv: repr(kv[0]))
            pairs, gvs = MonteCarlo(model.exact, n, seed).draw_weights(c, s)
            assert pairs == tuple(want)
            # each drawn outcome keeps the exact law's g
            assert len(gvs) == len(pairs)
            for (obs, _), gv in zip(pairs, gvs):
                assert np.array_equal(gv, g_values(c, s, obs))
            if n == 3:
                # some outcomes are never drawn and get no entry in the law
                assert len(pairs) < len(outcomes)


@pytest.mark.parametrize("sampler", [None, 3, "exact", [1, 2],
                                     lambda state, rng, size: []])
def test_monte_carlo_refuses_a_sampler_it_cannot_draw_from(sampler):
    with pytest.raises(DomainError, match="MonteCarlo sampler must be"):
        MonteCarlo(sampler, 10, 1)


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
    c, s = model.components, model.state
    engine = MonteCarlo(model.sampler, np.int64(50), np.uint32(4))
    assert (engine.draw_weights(c, s)[0]
            == MonteCarlo(model.sampler, 50, 4).draw_weights(c, s)[0])
