import dataclasses

import numpy as np
import pytest

from semiinfo import (
    adjoint_of_score,
    apply,
    efficient_score_function,
    expect,
    info_operator,
    least_favorable_direction,
    score_operator,
    score_theta,
    structural_functions,
    zoo,
)
from semiinfo.engines import StructuralFunctions
from semiinfo.errors import ConfigError, NotAvailableError
from semiinfo.likelihood import ModelState
from semiinfo.validate import REFERENCE_TOL, suite_for_model
from semiinfo.zoo import base
from semiinfo.zoo import (
    invertibility_conditions,
    reference_adjoint,
    reference_gamma,
    reference_kappa,
    reference_lfd,
)

ALL_IDS = sorted(zoo.MODELS)


def pipeline_lfd(model):
    sf = structural_functions(model.exact, model.components, model.state)
    adj = adjoint_of_score(sf, model.state.eta, model.components.tangent)
    return least_favorable_direction(sf, model.state.eta,
                                     model.components.tangent, adj)


def test_registry_rejects_unknown_id():
    with pytest.raises(ConfigError):
        zoo.build("not_a_model")


def test_registry_lists_six_models():
    assert ALL_IDS == ["cox_cs", "cox_rc", "kaplan_meier", "missing_cov",
                       "mixture", "recurrent_transform"]


def maxabs(arr):
    return float(np.max(np.abs(arr))) if arr.size else 0.0


@pytest.mark.parametrize("model_id", ALL_IDS)
def test_structural_functions_match_references(model_id):
    model = zoo.build(model_id)
    sf = structural_functions(model.exact, model.components, model.state)
    tol = 1e-9
    assert maxabs(sf.gamma - model.references["gamma"]) < tol
    assert maxabs(sf.alpha - model.references["alpha"]) < tol
    assert maxabs(sf.kappa - model.references["kappa"]) < tol
    assert maxabs(sf.beta - model.references["beta"]) < tol


@pytest.fixture
def reference_calls(monkeypatch):
    """The model ids whose references were computed, one entry per
    computation, for every model built while the fixture is active."""
    calls = []
    init = base.References.__init__

    def counted_init(self, model_id, compute):
        def counted():
            calls.append(model_id)
            return compute()
        init(self, model_id, counted)

    monkeypatch.setattr(base.References, "__init__", counted_init)
    return calls


@pytest.mark.parametrize("model_id", ALL_IDS)
def test_reference_accessors_return_build_values(model_id, reference_calls):
    model = zoo.build(model_id)
    # Building, comparing and refusing another state compute nothing.
    assert model.references == model.references
    assert model.references != zoo.build(model_id).references
    theta, eta = model.state.theta, model.state.eta
    other = ModelState(theta + 0.1, eta) if theta.size else ModelState(
        theta, type(eta)(eta.grid, eta.masses * 0.5, eta.kind))
    with pytest.raises(NotAvailableError):
        reference_gamma(model, other)
    assert reference_calls == []

    np.testing.assert_array_equal(reference_gamma(model),
                                  model.references["gamma"])
    np.testing.assert_array_equal(reference_kappa(model, model.state),
                                  model.references["kappa"])
    assert reference_adjoint(model) is model.references["adjoint"]
    assert "adjoint" in model.references
    if "lfd" in model.references:
        assert reference_lfd(model) is model.references["lfd"]
    else:
        with pytest.raises(NotAvailableError):
            reference_lfd(model)
    with pytest.raises(NotAvailableError):
        reference_kappa(model, other)
    assert all(r.passed for r in suite_for_model(model))
    assert reference_calls == [model.model_id]


def test_reference_accessors_guard_against_other_states():
    model = zoo.build("cox_rc")
    eta = model.state.eta
    other = ModelState(model.state.theta,
                       type(eta)(eta.grid, eta.masses * 0.5, eta.kind))
    with pytest.raises(NotAvailableError):
        reference_gamma(model, other)
    shifted = ModelState(model.state.theta + 0.1, eta)
    with pytest.raises(NotAvailableError):
        reference_kappa(model, shifted)


def test_reference_lfd_not_available_where_no_closed_form():
    for model_id in ("mixture", "missing_cov", "recurrent_transform"):
        with pytest.raises(NotAvailableError):
            reference_lfd(zoo.build(model_id))


def test_reference_adjoint_matches_pipeline():
    model = zoo.build("mixture")
    sf = structural_functions(model.exact, model.components, model.state)
    adj = adjoint_of_score(sf, model.state.eta, model.components.tangent)
    assert np.max(np.abs(adj - reference_adjoint(model))) < model.adjoint_tol


def test_cs_expected_event_fraction_frozen():
    # exact enumeration at theta = 0 against the closed three-term sum
    model = zoo.build("cox_cs", theta=0.0)
    got = expect(model.exact, model.components, model.state,
                 lambda o: float(o.delta)).value
    closed = (1.0 / 3.0) * ((1.0 - np.exp(-0.2)) + (1.0 - np.exp(-0.5))
                            + (1.0 - np.exp(-0.9)))
    assert got == pytest.approx(closed, abs=1e-12)
    assert got == pytest.approx(0.3893896424895952, abs=1e-12)


def test_cs_parameter_score_frozen():
    from semiinfo.zoo.cox_cs import CsObs
    model = zoo.build("cox_cs", theta=0.0)
    got = score_theta(model.components, model.state, CsObs(1, 1, 1))
    want = 0.5 * np.exp(-0.5) / (1.0 - np.exp(-0.5))
    assert got[0] == pytest.approx(want, abs=1e-12)
    assert got[0] == pytest.approx(0.7707470412683991, abs=1e-12)


def test_cs_efficient_score_matches_display_on_toy():
    model = zoo.build("cox_cs")
    lfd = pipeline_lfd(model)
    eff = efficient_score_function(model.components, model.state, lfd.values)
    display = model.references["efficient_score"]
    bound = 5.0 * float(np.max(model.references["truncation_bound"]))
    worst = max(abs(float(eff(o)[0]) - float(display(o)))
                for o in model.exact.outcomes)
    assert worst < max(bound, 1e-10)


def test_cs_discrete_exact_direction_matches_solver():
    for kwargs in ({}, {"m": 200}):
        model = zoo.build("cox_cs", **kwargs)
        lfd = pipeline_lfd(model)
        gap = np.max(np.abs(lfd.values - model.references["lfd_exact"]))
        assert gap < 1e-9


def test_cs_quotient_direction_is_first_order_in_spacing():
    model = zoo.build("cox_cs", m=200)
    lfd = pipeline_lfd(model)
    pts = model.state.eta.grid.points
    zeta = model.references["zeta"]
    lam = model.extras["Lam"]
    h = float(np.max(np.diff(pts)))
    zdot = np.gradient(zeta, pts)
    bound = 2.0 * h * float(np.max(np.abs(zdot))) * (1.0 + float(np.max(lam)))
    gap = np.max(np.abs(lfd.values - model.references["lfd"]))
    assert gap < bound


def test_km_ratio_solves_normal_equation_on_support():
    model = zoo.build("kaplan_meier")
    sf = structural_functions(model.exact, model.components, model.state)
    op = info_operator(sf, model.state.eta, model.components.tangent)
    t = model.state.eta.grid.points[2]
    a = model.references["lfd"](t)
    rhs = model.references["chi_dot"](t)
    live = model.state.eta.masses > 0.0
    assert np.max(np.abs((apply(op, a) - rhs)[live])) < 1e-12


@pytest.mark.parametrize("zero_mass_point", [False, True])
def test_km_structural_reference_is_pi_and_matches_the_exact_engine(
        zero_mass_point):
    model = zoo.build("kaplan_meier", zero_mass_point=zero_mass_point)
    ref = model.references["structural"]
    assert isinstance(ref, StructuralFunctions)
    assert np.array_equal(ref.gamma, model.references["pi"])
    assert np.all(ref.kappa == 0.0)
    sf = structural_functions(model.exact, model.components, model.state)
    for name in ("gamma", "alpha", "kappa", "beta"):
        got, want = getattr(ref, name), getattr(sf, name)
        assert got.shape == want.shape, name
        assert np.all(np.abs(got - want) <= REFERENCE_TOL), name


def test_km_direction_at_first_point_is_minus_survival():
    # everyone is at risk at the first grid point, so the ratio form
    # reduces to -S(t) there; agreement is limited by the tiny-mass
    # normalization deficit of the discretization
    model = zoo.build("kaplan_meier")
    t0 = model.state.eta.grid.points[0]
    a = model.references["lfd"](t0)
    pi0 = model.references["pi"][0]
    assert pi0 == pytest.approx(1.0, abs=1e-9)
    assert a[0] == pytest.approx(-model.references["survival"](t0), abs=1e-9)


def test_recurrent_transforms_build_and_match():
    for transform in ("identity", "log1p"):
        model = zoo.build("recurrent_transform", transform=transform)
        sf = structural_functions(model.exact, model.components, model.state)
        assert maxabs(sf.gamma - model.references["gamma"]) < 1e-9
    with pytest.raises(ConfigError):
        zoo.build("recurrent_transform", transform="exp")
    with pytest.raises(ConfigError):
        zoo.build("cox_rc", no_such_param=1)


def test_missing_cov_condition_checks():
    ok, diag = invertibility_conditions(zoo.build("missing_cov"))
    assert ok and not diag["failing"]
    ok, diag = invertibility_conditions(zoo.build("missing_cov", zero_cell=True))
    assert not ok and "selection_positivity" in diag["failing"]
    ok, diag = invertibility_conditions(
        zoo.build("missing_cov", degenerate_z=True))
    assert not ok and "cell_information" in diag["failing"]


def test_missing_cov_conditions_build_one_outcome_law():
    # The structural functions, the Fisher information and the efficient
    # information read one law at the build state; r and f enter only its
    # weights.
    model = zoo.build("missing_cov")
    c, calls = model.components, []

    def counted(name):
        def component(*args):
            calls.append(name)
            return getattr(c, name)(*args)
        return component

    counting = dataclasses.replace(model, components=dataclasses.replace(
        c, r=counted("r"), f=counted("f")))
    assert invertibility_conditions(counting) == invertibility_conditions(model)
    assert calls == ["r", "f"]


def test_missing_cov_full_selection_trivializes():
    model = zoo.build("missing_cov", selection=1.0)
    sf = structural_functions(model.exact, model.components, model.state)
    np.testing.assert_allclose(sf.gamma, 1.0, atol=1e-12)
    np.testing.assert_allclose(sf.kappa, 0.0, atol=1e-12)


def test_cox_rc_empirical_at_risk_ratio_converges():
    # replace the two expectations in the closed-form direction by sample
    # averages; the resulting plug-in efficient score approaches the
    # pipeline one at the Monte Carlo rate
    model = zoo.build("cox_rc")
    c, s = model.components, model.state
    lfd = pipeline_lfd(model)
    eff = efficient_score_function(c, s, lfd.values)
    th = float(s.theta[0])
    zlv = np.array([0.0, 1.0])

    probs = model.exact.probabilities(c, s)

    def empirical_direction(n, seed):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(probs), size=n, p=probs / probs.sum())
        draws = [model.exact.outcomes[i] for i in idx.tolist()]
        t_idx = np.array([o.time_index for o in draws])
        z = zlv[np.array([o.z_index for o in draws])]
        w = np.exp(th * z)
        at_risk = t_idx[:, np.newaxis] >= np.arange(s.eta.size)
        num = np.mean((w * z)[:, np.newaxis] * at_risk, axis=0)
        den = np.mean(w[:, np.newaxis] * at_risk, axis=0)
        return num / den

    gaps = {}
    for n in (500, 50000):
        a_n = empirical_direction(n, seed=0)
        gaps[n] = max(abs(float(eff(o)[0]) - float(score_theta(c, s, o)[0]
                      - score_operator(c, s, o, a_n)))
                      for o in model.exact.outcomes)
        assert gaps[n] * np.sqrt(n) < 2.0
    assert gaps[50000] < gaps[500]


def test_mixture_variants():
    model = zoo.build("mixture", parametric=False)
    assert model.components.p == 0
    with pytest.raises(NotAvailableError):
        reference_lfd(model)
    bigger = zoo.build("mixture", m=25)
    assert bigger.state.eta.size == 25
