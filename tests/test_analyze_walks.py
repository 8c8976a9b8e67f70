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
    efficient_information,
    fisher_information,
    info_operator,
    least_favorable_direction,
    local_identifiability,
    structural_functions,
    v_operator,
    zoo,
)
from semiinfo.calculus import (RIDGE_LADDER_DEFAULT, _gram, _gram_dimension,
                               _gram_term, _identifiability_directions)
from semiinfo.engines import _mean, outcome_law
from semiinfo.likelihood import TangentKind, _joint_score, _outcome
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
    calls.clear()
    report = analyze_model(c, model.state, law)
    assert report.identifiability is not None
    assert len(calls) == len(law.pairs)


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
        lfd = least_favorable_direction(sf, eta, tangent, adjoint,
                                        RIDGE_LADDER_DEFAULT)
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


@pytest.mark.parametrize("kind", ["exact", "mc"])
@pytest.mark.parametrize("model_id", ["cox_cs", "mixture"])
def test_packed_gram_is_the_outer_product_gram(model_id, kind):
    model = zoo.build(model_id)
    c, s = model.components, model.state
    law = outcome_law(model.exact if kind == "exact"
                      else MonteCarlo(model.sampler, 2000, 5), c, s)
    dirs = _identifiability_directions(c, s)
    k = _gram_dimension(c, dirs)
    upper = np.triu_indices(k)

    def outer(obs):
        v = _joint_score(c, obs, _outcome(c, s, obs), dirs)
        return np.outer(v, v)

    want = _mean(law, c, s, outer)
    packed = _mean(law, c, s, lambda obs: _gram_term(
        c, obs, _outcome(c, s, obs), dirs, upper))
    assert np.array_equal(_gram(packed, k), want)
    assert (analyze_model(c, s, law).identifiability.min_eigen
            == local_identifiability(law, c, s).min_eigen
            == min_eigen_sym(want))
