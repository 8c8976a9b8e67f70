import dataclasses
import re

import numpy as np
import pytest

from semiinfo import (
    ClosedForm,
    ExactEnumeration,
    MonteCarlo,
    analyze_model,
    expect,
    structural_functions,
    zoo,
)
from semiinfo.calculus import (_identifiability_directions,
                               _identifiability_gram, _lfd_directions)
from semiinfo.engines import OutcomeLaw, _law_mean, outcome_law
from semiinfo.errors import DomainError, NotAvailableError
from semiinfo.likelihood import (ModelState, TangentKind, _direction_scores,
                                 _directions, _g_and_f_dot,
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
    """The per-outcome structural integrands as fresh arrays, in the order
    of the structural factors: h_e = sum_i g_i (-f_ddot[i, e]) summed in
    i order, then kappa = sum_e h_e (x) g_e and beta the same with g_dot_e,
    summed in e order; with d == 1 each is one product."""
    x = s.eta.masses @ gv
    fdd = f_ddot_values(c, x, obs)
    if c.tangent is TangentKind.L2_ZERO:
        gamma = -((gv - x[np.newaxis, :]) @ fd)
        if c.ell is not None:
            gamma = gamma + float(c.ell(np.ones(s.eta.size), obs))
    else:
        gamma = -(gv @ fd)
    alpha = -np.einsum("vdj,d->vj", gd, fd)
    hs = [sum((gv[:, i] * -fdd[i, e] for i in range(1, c.gdim)),
              gv[:, 0] * -fdd[0, e]) for e in range(c.gdim)]
    kappas = [np.multiply.outer(h, gv[:, e]) for e, h in enumerate(hs)]
    betas = [h[:, np.newaxis, np.newaxis] * gd[np.newaxis, :, e]
             for e, h in enumerate(hs)]
    return gamma, alpha, sum(kappas[1:], kappas[0]), sum(betas[1:], betas[0])


def _pairwise_oracle(c, s, obs, gv, gd, fd):
    """:func:`_structural_oracle` with kappa and beta summed as the d * d
    products g_i(v) (-f_ddot[i, j]) g_j(u) over (i, j), i outer and j
    inner: an order that rounds differently from the factor order once
    the components of g overlap and f_ddot is dense."""
    gamma, alpha, _, _ = _structural_oracle(c, s, obs, gv, gd, fd)
    fdd = f_ddot_values(c, s.eta.masses @ gv, obs)
    kappas, betas = [], []
    for i in range(c.gdim):
        for j in range(c.gdim):
            a = gv[:, i] * -fdd[i, j]
            kappas.append(np.multiply.outer(a, gv[:, j]))
            betas.append(a[:, np.newaxis, np.newaxis] * gd[np.newaxis, :, j])
    return gamma, alpha, sum(kappas[1:], kappas[0]), sum(betas[1:], betas[0])


_IN_PLACE_CASES = (
    [pytest.param(model_id, {}, n, id=f"{model_id}-{n or 'exact'}")
     for model_id in zoo.MODELS for n in (None, 1, 40, 20000)]
    + [pytest.param("cox_cs", {"m": 40}, n, id=f"cox_cs-m40-{n or 'exact'}")
       for n in (None, 20000)]
    + [pytest.param("mixture", {"m": 30, "parametric": False}, n,
                    id=f"mixture-np-m30-{n or 'exact'}")
       for n in (None, 1, 40, 20000)])


@pytest.mark.parametrize("model_id,params,n", _IN_PLACE_CASES)
def test_in_place_structural_pass_matches_the_reference_bit_for_bit(
        model_id, params, n):
    # Exact laws are compensated in law order and match the Kahan oracle
    # bit for bit; sampled laws sum by matrix products and match it within
    # the rounding bounds of _assert_within_rounding.
    model = zoo.build(model_id, **params)
    c, s = model.components, model.state
    engine = model.exact if n is None else MonteCarlo(model.exact, n, 3)
    law = outcome_law(engine, c, s)
    evaluated = law.evaluated

    def terms(obs):
        e = evaluated[obs]
        return _structural_oracle(c, s, obs, e.gv, e.gd, e.fd)

    sf = structural_functions(law, c, s)
    if n is not None and n >= 40:
        assert sf.max_se() > 0.0
    got = [getattr(sf, name) for name in STRUCTURAL_NAMES]
    got_ses = [getattr(sf, "se_" + name) for name in STRUCTURAL_NAMES]
    if n is not None:
        _assert_within_rounding(law, terms, got, got_ses,
                                symmetrized=(2,))
        return
    (gamma, alpha, kappa, beta), ses = _kahan_oracle(law, terms)
    want = (gamma, alpha, 0.5 * (kappa + kappa.T), beta) + tuple(ses)
    for name, value, got_value in zip(
            STRUCTURAL_NAMES + tuple("se_" + x for x in STRUCTURAL_NAMES),
            want, got + got_ses):
        assert got_value.shape == value.shape, name
        assert np.array_equal(got_value, value), name
        assert np.array_equal(np.signbit(got_value), np.signbit(value)), name


def _dense_f_ddot(model, order="C"):
    """recurrent_transform's components with a dense, nonsymmetric f_ddot
    laid out in ``order``: its f_ddot is diagonal, so its d = 2 terms add
    zeros, while a dense one makes the order of the sum over (i, j) show
    in the rounding."""
    dense = np.array([[1.3, -0.7], [0.45, -2.1]]) / 3.0
    return dataclasses.replace(
        model.components,
        f_ddot=lambda x, o: np.asarray(dense * (1.0 + x[0]), order=order))


def _overlapping_law(model, c):
    """An exact law over ``model``'s outcomes and weights whose d = 2
    components of g and of g_dot share every grid row: recurrent_transform's
    g and g_dot plus seeded positive arrays, one pair per outcome."""
    rng = np.random.default_rng(1)
    law = outcome_law(model.exact, model.components, model.state)
    (_, m, d), p = law.gvs.shape, c.p
    shift = {obs: (rng.uniform(0.1, 1.0, (m, d)),
                   rng.uniform(0.1, 1.0, (m, d, p))) for obs in law.outcomes}
    base = model.components
    c = dataclasses.replace(
        c, g=lambda theta, obs, pts: base.g(theta, obs, pts) + shift[obs][0],
        g_dot=lambda theta, obs, pts: base.g_dot(theta, obs, pts)
        + shift[obs][1])
    gvs = np.stack([g_values(c, model.state, obs) for obs in law.outcomes])
    return OutcomeLaw(law.pairs, None, law.deficit, model.exact, c,
                      model.state, gvs)


@pytest.mark.parametrize("overlap", [False, True])
def test_a_dense_f_ddot_is_summed_in_the_factor_order(overlap):
    # The exact structural pass sums h_e = sum_i g_i (-f_ddot[i, e]) in i
    # order, then h_e (x) g_e in e order. On recurrent_transform's own g
    # the (i, j) pairwise order rounds the same way; with overlapping g
    # it does not, and the pass still matches the factor-order oracle.
    model = zoo.build("recurrent_transform")
    c, s = _dense_f_ddot(model), model.state
    law = (_overlapping_law(model, c) if overlap
           else outcome_law(model.exact, c, s))
    c = law.components
    evaluated = law.evaluated

    def oracle(order):
        def terms(obs):
            e = evaluated[obs]
            return order(c, s, obs, e.gv, e.gd, e.fd)
        (gamma, alpha, kappa, beta), _ = _kahan_oracle(law, terms)
        return gamma, alpha, 0.5 * (kappa + kappa.T), beta

    sf = structural_functions(law, c, s)
    got = [getattr(sf, name) for name in STRUCTURAL_NAMES]
    for name, want, value in zip(STRUCTURAL_NAMES, oracle(_structural_oracle),
                                 got):
        assert np.array_equal(value, want), name
    pairwise = oracle(_pairwise_oracle)
    same = [np.array_equal(value, want) for value, want in zip(got, pairwise)]
    assert same == [True, True, not overlap, not overlap]


@pytest.mark.parametrize("kind", ["exact", "mc"])
def test_a_dense_f_ddot_gives_the_same_bytes_in_either_memory_order(kind):
    model = zoo.build("recurrent_transform")
    s = model.state
    got = []
    for order in ("C", "F"):
        c = _dense_f_ddot(model, order)
        assert c.f_ddot(np.ones(2), None).flags[order + "_CONTIGUOUS"]
        engine = (model.exact if kind == "exact"
                  else MonteCarlo(model.exact, 2000, 3))
        sf = structural_functions(engine, c, s)
        got.append([getattr(sf, name).tobytes() for name in STRUCTURAL_NAMES])
    assert got[0] == got[1]


def _kahan_oracle(law, functional, n_se=None):
    """The compensated reducer written as one pair of accumulators per
    array, with fresh temporaries each step: the reference ``_law_mean``
    must match bit for bit on an exact law, and within rounding on a
    sampled one."""
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


# The unit roundoff u = 2**-53.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), which bounds the relative error
    of k rounded operations."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _assert_within_rounding(law, functional, means, ses, symmetrized=()):
    """Sampled means and standard errors against the Kahan oracle: each
    mean within gamma_{N+4} sum_o w_o |v_o| (a dot product of N terms,
    Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 4,
    with four roundings to spare for the weighting and the oracle's own
    error), and each standard error within sqrt(4 N u sum_o w_o v_o^2 / n).
    The arrays at the ``symmetrized`` positions are compared as
    0.5 (x + x^T), with their bounds symmetrized too."""
    n_out = len(law.pairs)

    def mapped(fn):
        return lambda obs: [fn(np.asarray(v, dtype=float))
                            for v in functional(obs)]

    want_means, want_ses = _kahan_oracle(law, functional, len(ses))
    abs_sums = _kahan_oracle(law, mapped(np.abs), 0)[0]
    square_sums = _kahan_oracle(law, mapped(np.square), 0)[0]
    for i in symmetrized:
        want_means[i] = 0.5 * (want_means[i] + want_means[i].T)
        abs_sums[i] = 0.5 * (abs_sums[i] + abs_sums[i].T)
    assert len(means) == len(want_means) and len(ses) == len(want_ses)
    for got, want, bound in zip(means, want_means, abs_sums):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= _gamma(n_out + 4) * bound)
    for got, want, squares in zip(ses, want_ses, square_sums):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want)
                      <= np.sqrt(4 * n_out * UNIT_ROUNDOFF * squares / law.n))


@pytest.mark.parametrize("n", [None, 1, 40, 3000])
def test_law_mean_matches_the_per_array_kahan_sum(n):
    # Bit for bit on an exact law; within rounding on a sampled law, which
    # _law_mean sums by one matrix product. expect's standard errors, from
    # the law mean of the squared rows, are within rounding too.
    model = zoo.build("cox_cs", m=12)
    c, s = model.components, model.state
    engine = (model.exact if n is None
              else MonteCarlo(model.sampler, n, 11))
    law = outcome_law(engine, c, s)
    evaluated = law.evaluated

    def terms(obs):
        e = evaluated[obs]
        # a scalar first, then the (m,), (m, p), (m, m) and (m, m, p) terms
        return (float(e.fd @ e.gv.sum(axis=0)),
                *_structural_oracle(c, s, obs, e.gv, e.gd, e.fd))

    rows = [np.stack(column) for column in
            zip(*(terms(obs) for obs in law.outcomes))]
    means = [_law_mean(law, r) for r in rows]
    assert len(means) == 5 and means[0].shape == ()
    results = [expect(law, c, s, lambda obs, i=i: terms(obs)[i])
               for i in range(5)]
    for mean, result in zip(means, results):
        assert np.array_equal(mean, result.value)
    ses = [np.asarray(result.se) for result in results]
    if n is not None:
        _assert_within_rounding(law, terms, means, ses)
        assert np.any(ses[-1] > 0.0) == (len(law.pairs) > 1)
    else:
        want_means, want_ses = _kahan_oracle(law, terms)
        for want, got in zip(want_means + want_ses, means + ses):
            assert got.shape == want.shape and np.array_equal(got, want)
    for i, a in enumerate(means):
        for b in means[i + 1:]:
            assert not np.shares_memory(a, b)


def test_exact_law_means_do_not_depend_on_the_other_columns():
    # The compensated step is elementwise, so on an exact law the mean of
    # any block of columns has the bits of that block of the joint mean,
    # and second moments summed apart (Fisher, by_score) equal a joint sum.
    model = zoo.build("cox_cs", m=12)
    law = outcome_law(model.exact, model.components, model.state)
    st = law.stacked
    rows = np.concatenate([st.score, st.gv.reshape(len(st.gv), -1)], axis=1)
    joint = _law_mean(law, rows)
    for a, b in ((0, 1), (0, 3), (1, 5), (4, rows.shape[1])):
        assert np.array_equal(_law_mean(law, rows[:, a:b]), joint[a:b])
    outer = rows[:, :, None] * rows[:, None, :]
    assert np.array_equal(_law_mean(law, outer)[:2, :2],
                          _law_mean(law, outer[:, :2, :2]))


@pytest.mark.parametrize("shape", [(), (2,)])
@pytest.mark.parametrize("n", [None, 500])
def test_expect_gives_a_standard_error_in_the_shape_of_its_value(n, shape):
    # A scalar functional gives floats; an array one gives arrays of its
    # shape. The standard error is zero on an exact law and, on a sampled
    # one, sqrt((E v^2 - (E v)^2) / n) over the drawn frequencies.
    model = zoo.build("mixture")
    c, s = model.components, model.state
    engine = model.exact if n is None else MonteCarlo(model.sampler, n, 5)

    def f(obs):
        x = float(obs.x)
        return x if shape == () else np.array([x, x * x])

    res = expect(engine, c, s, f)
    assert res.n == n
    if shape == ():
        assert type(res.value) is float and type(res.se) is float
    else:
        assert res.value.shape == res.se.shape == shape
    law = outcome_law(engine, c, s)
    values = np.array([f(obs) for obs in law.outcomes])
    mean = np.tensordot(law.weights, values, axes=1)
    assert np.allclose(res.value, mean, rtol=1e-13, atol=0.0)
    if n is None:
        assert np.all(np.asarray(res.se) == 0.0)
    else:
        second = np.tensordot(law.weights, values * values, axes=1)
        want = np.sqrt((second - mean * mean) / n)
        assert np.all(want > 0.0)
        assert np.allclose(res.se, want, rtol=1e-9, atol=0.0)


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
            # in the exact law's order
            want = [(outcomes[i], int(counts[i]) / n)
                    for i in np.flatnonzero(counts).tolist()]
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


_STACKED_CASES = (
    [pytest.param(model_id, {}, id=model_id) for model_id in zoo.MODELS]
    + [pytest.param("mixture", {"m": 30, "parametric": False},
                    id="mixture-np-m30")])


def _assert_scores_are_per_outcome(c, s, law, directions):
    """The stacked measure scores M a, for the columns a of
    ``directions``, against the per-outcome ones, bit for bit: each
    outcome's slice of the batched product is the BLAS call one outcome's
    score makes, and the zoo's L picks entries of a (or integer
    combinations of them), which its representer product reproduces."""
    st = law.stacked
    dirs = _directions(c, s, directions)
    got = law.measure_scores(dirs)
    for row, obs in enumerate(law.outcomes):
        want = _direction_scores(c, obs, dirs, st.gv[row], st.fd[row])
        assert np.array_equal(got[row], want), obs
    return got


@pytest.mark.parametrize("n", [None, 1, 40, 20000])
@pytest.mark.parametrize("model_id,params", _STACKED_CASES)
def test_stacked_second_moments_are_within_rounding_of_the_kahan_oracle(
        model_id, params, n):
    # The identifiability Gram, the Fisher information and by_score read
    # the stacked scores on every law: the parameter scores, and the
    # measure scores M a of the law's (N, m) measure-score matrix M. Each
    # stacked score must equal the per-outcome score bit for bit. The
    # Gram is one product R^T R, exactly symmetric and within rounding of
    # the compensated mean of the outer products of its rows; Fisher and
    # by_score are that compensated mean bit for bit on an exact law, and
    # within rounding of it on a sampled one.
    model = zoo.build(model_id, **params)
    c, s = model.components, model.state
    engine = model.exact if n is None else MonteCarlo(model.exact, n, 3)
    law = outcome_law(engine, c, s)
    evaluated = law.evaluated
    report = analyze_model(c, s, law)
    basis, _ = _identifiability_directions(c, s)
    gram = _identifiability_gram(law, c, s)
    assert np.array_equal(gram, gram.T)
    scores = law.stacked.score
    got = [gram]
    stacked = [np.concatenate(
        [scores, _assert_scores_are_per_outcome(c, s, law, basis)], axis=1)]
    if c.p:
        lfd = _lfd_directions(c, s, report.lfd.values)
        got += [report.fisher, report.efficient.by_score]
        stacked += [scores,
                    scores - _assert_scores_are_per_outcome(c, s, law, lfd[0])]
        if n is None:
            # On an exact law both are compensated sums of the
            # per-outcome outer products, bit for bit.
            def efficient_score(obs):
                e = evaluated[obs]
                return e.score - _direction_scores(c, obs, lfd, e.gv, e.fd)

            for got_value, vector in (
                    (report.fisher, lambda obs: evaluated[obs].score),
                    (report.efficient.by_score, efficient_score)):
                (want,), _ = _kahan_oracle(
                    law, lambda obs: [np.outer(vector(obs), vector(obs))], 0)
                assert np.array_equal(got_value, 0.5 * (want + want.T))
            del got[1:], stacked[1:]
    row = {obs: i for i, obs in enumerate(law.outcomes)}
    _assert_within_rounding(
        law, lambda obs: [np.outer(v[row[obs]], v[row[obs]]) for v in stacked],
        got, [], symmetrized=range(len(got)))
