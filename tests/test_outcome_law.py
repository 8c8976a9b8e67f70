"""The one-law contract: an outcome law is built once per state, stands in
for its engine there, and never answers for another state."""
import numpy as np
import pytest

from semiinfo import (
    ExactEnumeration,
    MonteCarlo,
    adjoint_of_score,
    analyze_model,
    efficient_information,
    expect,
    fisher_information,
    least_favorable_direction,
    local_identifiability,
    structural_functions,
    suite_for_model,
    zoo,
)
from semiinfo.likelihood import ModelState, TangentKind, score_theta
from semiinfo.measure import perturb_measure


def _count_builds(monkeypatch, cls):
    """Record the state of every law ``cls`` builds."""
    states = []
    build = cls.law

    def counted(self, components, state):
        states.append(state)
        return build(self, components, state)

    monkeypatch.setattr(cls, "law", counted)
    return states


def _mc(model, n=2000, seed=3):
    return MonteCarlo(model.sampler, n, seed)


def _moved(state):
    a = np.linspace(-0.5, 0.5, state.eta.size)
    return ModelState(state.theta, perturb_measure(state.eta, a, 0.4))


@pytest.mark.parametrize("cls", [ExactEnumeration, MonteCarlo])
def test_analyze_model_builds_one_law(monkeypatch, cls):
    model = zoo.build("cox_cs")
    engine = model.exact if cls is ExactEnumeration else _mc(model)
    states = _count_builds(monkeypatch, cls)
    analyze_model(model.components, model.state, engine)
    assert states == [model.state]


@pytest.mark.parametrize("model_id", list(zoo.MODELS))
def test_suite_for_model_builds_one_law_per_state(monkeypatch, model_id):
    model = zoo.build(model_id)
    states = _count_builds(monkeypatch, ExactEnumeration)
    suite_for_model(model)
    # The centering check moves the measure once on mean-zero tangents.
    moved = model.components.tangent is TangentKind.L2_ZERO
    assert len(states) == 1 + moved
    assert states[0] is model.state
    assert len({id(s) for s in states}) == len(states)


@pytest.mark.parametrize("kind", ["exact", "mc"])
def test_law_asked_about_another_state_answers_for_that_state(kind):
    model = zoo.build("mixture")
    c, a = model.components, model.state
    b = _moved(a)
    engine = model.exact if kind == "exact" else _mc(model)
    law_a = engine.law(c, a)
    assert law_a.law(c, a) is law_a
    law_b = law_a.law(c, b)
    assert law_b is not law_a and law_b.state is b
    fresh_b = engine.law(c, b)
    assert law_b.pairs == fresh_b.pairs
    assert law_b.pairs != law_a.pairs

    f = lambda o: float(o.x) ** 2
    via_a = expect(law_a, c, b, f)
    assert via_a.value == expect(engine, c, b, f).value
    assert via_a.value != expect(engine, c, a, f).value


@pytest.mark.parametrize("kind", ["exact", "mc"])
def test_law_in_place_of_engine_gives_identical_results(kind):
    model = zoo.build("cox_cs")
    c, s = model.components, model.state
    engine = model.exact if kind == "exact" else _mc(model)
    law = engine.law(c, s)

    def run(eng):
        sf = structural_functions(eng, c, s)
        adjoint = adjoint_of_score(sf, s.eta, c.tangent)
        fisher = fisher_information(eng, c, s)
        lfd = least_favorable_direction(sf, s.eta, c.tangent, adjoint)
        eff = efficient_information(eng, c, s, lfd.values, adjoint, fisher)
        mean = expect(eng, c, s, lambda o: score_theta(c, s, o))
        ident = local_identifiability(eng, c, s)
        return [mean.value, mean.se, sf.gamma, sf.alpha, sf.kappa, sf.beta,
                sf.se_gamma, sf.se_kappa, fisher, eff.by_score,
                eff.by_adjoint, ident.min_eigen]

    for got, want in zip(run(law), run(engine)):
        assert np.array_equal(got, want)
