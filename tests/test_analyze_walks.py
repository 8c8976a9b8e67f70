"""``analyze_model`` is the public functions composed on one outcome law:
the law evaluates g once per outcome, and every quantity the report
carries is bit for bit what the separate public functions return."""
import dataclasses

import numpy as np
import pytest

from semiinfo import (
    MonteCarlo,
    adjoint_of_score,
    analyze_model,
    calculus,
    efficient_information,
    engines,
    expect,
    fisher_information,
    info_operator,
    least_favorable_direction,
    likelihood,
    local_identifiability,
    structural_functions,
    v_operator,
    zoo,
)
from semiinfo.calculus import _identifiability_directions, _identifiability_gram
from semiinfo.engines import outcome_law
from semiinfo.likelihood import TangentKind, _joint_score
from semiinfo.operators import (as_matrix, eta_weighted_min_eigen,
                                min_eigen_sym)


def test_analyze_model_evaluates_g_once_per_outcome():
    model = zoo.build("cox_cs", m=20)
    calls = []

    def g(theta, obs, pts):
        calls.append(obs)
        return model.components.g(theta, obs, pts)

    c = dataclasses.replace(model.components, g=g)
    law = outcome_law(model.exact, c, model.state)
    report = analyze_model(c, model.state, law)
    assert report.identifiability is not None
    assert len(calls) == len(law.pairs)


def test_a_sampled_analyze_evaluates_g_only_for_the_exact_law():
    # The resampled law takes each drawn outcome's g from the exact law
    # it was drawn from, built with the components it is given.
    model = zoo.build("cox_cs", m=20)
    calls = []

    def g(theta, obs, pts):
        calls.append(obs)
        return model.components.g(theta, obs, pts)

    c = dataclasses.replace(model.components, g=g)
    law = outcome_law(MonteCarlo(model.sampler, 30, 1), c, model.state)
    assert len(calls) == len(model.exact.outcomes)
    analyze_model(c, model.state, law)
    assert len(calls) == len(model.exact.outcomes)


def _separately(engine, c, s):
    """The reported quantities from one public function each."""
    eta, tangent = s.eta, c.tangent
    sf = structural_functions(engine, c, s)
    fisher = fisher_information(engine, c, s)
    adjoint = adjoint_of_score(sf, eta, tangent)
    out = {"fisher": fisher,
           "min_eigen": local_identifiability(engine, c, s).min_eigen}
    for name in ("gamma", "alpha", "kappa", "beta"):
        out[name] = getattr(sf, name)
        out["se_" + name] = getattr(sf, "se_" + name)
    if c.p:
        lfd = least_favorable_direction(sf, eta, tangent, adjoint)
        eff = efficient_information(engine, c, s, lfd.values, adjoint,
                                    fisher)
        out["by_score"], out["by_adjoint"] = eff.by_score, eff.by_adjoint
        v_mat = v_operator(sf, eta, tangent, fisher)
    else:
        v_mat = as_matrix(info_operator(sf, eta, tangent))
    out["v_min_eigen"] = eta_weighted_min_eigen(
        v_mat, eta, centered=tangent is TangentKind.L2_ZERO)
    return out


@pytest.mark.parametrize("kind", ["exact", "mc"])
@pytest.mark.parametrize("model_id", list(zoo.MODELS))
def test_analyze_model_matches_the_public_functions(model_id, kind):
    model = zoo.build(model_id)
    c, s = model.components, model.state
    engine = (model.exact if kind == "exact"
              else MonteCarlo(model.sampler, 2000, 5))
    report = analyze_model(c, s, engine)
    sf = report.structural
    got = {"fisher": report.fisher,
           "min_eigen": report.identifiability.min_eigen,
           "v_min_eigen": report.v_min_eigen}
    for name in ("gamma", "alpha", "kappa", "beta"):
        got[name] = getattr(sf, name)
        got["se_" + name] = getattr(sf, "se_" + name)
    if c.p:
        got["by_score"] = report.efficient.by_score
        got["by_adjoint"] = report.efficient.by_adjoint
    want = _separately(engine, c, s)
    assert set(got) == set(want)
    for name, value in want.items():
        assert np.array_equal(got[name], value), name


_GRAM_CASES = (
    [pytest.param(model_id, {}, kind, id=f"{model_id}-{kind}")
     for model_id in zoo.MODELS for kind in ("exact", "mc")]
    + [pytest.param("cox_cs", {"m": 100}, "exact", id="cox_cs-m100-exact"),
       pytest.param("mixture", {"m": 30, "parametric": False}, "exact",
                    id="mixture-np-m30-exact")])


@pytest.mark.parametrize("model_id,params,kind", _GRAM_CASES)
def test_stacked_gram_matches_the_compensated_outer_product_gram(
        model_id, params, kind):
    model = zoo.build(model_id, **params)
    c, s = model.components, model.state
    law = outcome_law(model.exact if kind == "exact"
                      else MonteCarlo(model.sampler, 2000, 5), c, s)
    dirs = _identifiability_directions(c, s)

    def outer(obs):
        v = _joint_score(c, obs, law.evaluated[obs], dirs)
        return np.outer(v, v)

    want = expect(law, c, s, outer).value
    got = _identifiability_gram(law, c, s)
    assert got.shape == want.shape
    assert np.array_equal(got, got.T)
    # A BLAS dot of N terms against a compensated sum: each element of a
    # PSD Gram is off by at most about N eps max|G|, and by Weyl's bound
    # the smallest eigenvalue by at most k times that.
    n, k = len(law.pairs), got.shape[0]
    bound = n * np.finfo(float).eps * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound
    ident = local_identifiability(law, c, s)
    assert ident.dimension == k
    assert abs(ident.min_eigen - min_eigen_sym(want)) <= k * bound
    assert analyze_model(c, s, law).identifiability.min_eigen \
        == ident.min_eigen


@pytest.mark.parametrize("kind", ["exact", "mc"])
def test_identifiability_on_a_warm_law_reduces_nothing(kind, monkeypatch):
    model = zoo.build("cox_cs", m=20)
    calls = []

    def g(theta, obs, pts):
        calls.append(obs)
        return model.components.g(theta, obs, pts)

    c, s = dataclasses.replace(model.components, g=g), model.state
    law = outcome_law(model.exact if kind == "exact"
                      else MonteCarlo(model.sampler, 2000, 5), c, s)
    structural_functions(law, c, s)
    mean_calls = []
    law_mean = engines._law_mean

    def counting_mean(*args, **kwargs):
        mean_calls.append(args)
        return law_mean(*args, **kwargs)

    monkeypatch.setattr(engines, "_law_mean", counting_mean)
    monkeypatch.setattr(calculus, "_law_mean", counting_mean)
    calls.clear()
    local_identifiability(law, c, s)
    assert mean_calls == []
    assert calls == []


@pytest.mark.parametrize("kind", ["exact", "mc"])
def test_a_sampled_analyze_makes_no_compensated_step(kind, monkeypatch):
    # An exact law compensates its structural functions, Fisher
    # information and efficient information (by_score) in law order, one
    # Kahan step per outcome each; a sampled law forms all three by
    # matrix products.
    model = zoo.build("cox_cs", m=20)
    c, s = model.components, model.state
    law = outcome_law(model.exact if kind == "exact"
                      else MonteCarlo(model.sampler, 2000, 5), c, s)
    steps = []
    add = engines._CompensatedSums.add

    def counting_add(self):
        steps.append(self)
        return add(self)

    monkeypatch.setattr(engines._CompensatedSums, "add", counting_add)
    analyze_model(c, s, law)
    assert len(steps) == (3 * len(law.pairs) if kind == "exact" else 0)


def test_a_sampled_analyze_makes_no_per_outcome_score_pass(monkeypatch):
    # The Gram and by_score read the law's stacked measure scores, on a
    # sampled and an exact law alike: no outcome is scored on its own.
    model = zoo.build("cox_cs", m=20)
    c, s = model.components, model.state
    calls = []
    direction_scores = likelihood._direction_scores

    def counting(*args, **kwargs):
        calls.append(args[1])
        return direction_scores(*args, **kwargs)

    monkeypatch.setattr(likelihood, "_direction_scores", counting)
    monkeypatch.setattr(calculus, "_direction_scores", counting)
    for engine in (MonteCarlo(model.sampler, 2000, 5), model.exact):
        law = outcome_law(engine, c, s)
        calls.clear()
        report = analyze_model(c, s, law)
        assert report.efficient is not None
        assert calls == []


@pytest.mark.parametrize("model_id,kind", [("cox_rc", "mc"),
                                           ("missing_cov", "exact"),
                                           ("kaplan_meier", "exact")])
def test_an_analyze_applies_l_once_per_outcome(model_id, kind):
    # L's representer of each outcome is formed once, in law order (a
    # sampled law lists its draws in the exact law's order), and serves
    # the structural pass, the Gram and by_score alike.
    model = zoo.build(model_id)
    calls = []

    def ell(vals, obs):
        calls.append(obs)
        return model.components.ell(vals, obs)

    c, s = dataclasses.replace(model.components, ell=ell), model.state
    law = outcome_law(model.exact if kind == "exact"
                      else MonteCarlo(model.sampler, 20000, 5), c, s)
    calls.clear()
    report = analyze_model(c, s, law)
    if model.components.p:
        assert report.efficient is not None
    drawn = set(law.outcomes)
    assert calls == list(law.outcomes) \
        == [obs for obs in model.exact.outcomes if obs in drawn]
