"""The batched measure score: ``score_matrix`` evaluates B on every column
of an (m, k) array of directions with one evaluation of g per outcome,
agrees with ``score_operator`` column by column, and refuses what
``score_operator`` refuses."""
import dataclasses
import re

import numpy as np
import pytest

from semiinfo import (
    ModelComponents,
    MonteCarlo,
    ModelState,
    TangentKind,
    adjoint_of_score,
    efficient_information,
    fisher_information,
    joint_score,
    least_favorable_direction,
    local_identifiability,
    score_matrix,
    score_operator,
    score_theta,
    zoo,
)
from semiinfo.engines import outcome_law, structural_functions
from semiinfo.errors import DimensionError, DomainError, EvaluationError
from semiinfo.measure import DiscreteMeasure, Grid, MeasureKind
from semiinfo.operators import centered_basis

BATCHED = [score_matrix, joint_score]


def _directions(components, eta, k=5, seed=11):
    """The identifiability basis plus k random directions, centered under
    eta on mean-zero tangent spaces."""
    rand = np.random.default_rng(seed).standard_normal((eta.size, k))
    if components.tangent is TangentKind.L2_ZERO:
        rand = rand - eta.masses @ rand
        return np.hstack([centered_basis(eta), rand])
    live = eta.masses > 0.0
    scale = np.ones(eta.size)
    scale[live] = 1.0 / np.sqrt(eta.masses[live])
    return np.hstack([np.diag(scale), rand])


@pytest.mark.parametrize("model_id", list(zoo.MODELS))
def test_score_matrix_matches_score_operator_column_by_column(model_id):
    model = zoo.build(model_id)
    c, s = model.components, model.state
    dirs = _directions(c, s.eta)
    for obs in model.exact.outcomes:
        batched = score_matrix(c, s, obs, dirs)
        ref = np.array([score_operator(c, s, obs, dirs[:, j])
                        for j in range(dirs.shape[1])])
        assert batched.shape == ref.shape
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(batched - ref)) <= 1e-13 * scale, obs
        theta_part = [score_theta(c, s, obs)] if c.p else []
        assert np.array_equal(joint_score(c, s, obs, dirs),
                              np.concatenate(theta_part + [batched]))


def _counting_g(model):
    calls = []

    def g(theta, obs, pts):
        calls.append(obs)
        return model.components.g(theta, obs, pts)

    return dataclasses.replace(model.components, g=g), calls


def test_local_identifiability_evaluates_g_once_per_outcome():
    model = zoo.build("cox_cs", m=20)
    c, calls = _counting_g(model)
    law = outcome_law(model.exact, c, model.state)
    local_identifiability(law, c, model.state)
    assert len(calls) == len(law.pairs)


def _efficient_inputs(engine, c, s):
    """The structural functions, adjoint, LFD and Fisher information
    that efficient_information takes."""
    sf = structural_functions(engine, c, s)
    adjoint = adjoint_of_score(sf, s.eta, c.tangent)
    lfd = least_favorable_direction(sf, s.eta, c.tangent, adjoint)
    return sf, adjoint, lfd, fisher_information(engine, c, s)


def test_efficient_information_evaluates_g_once_per_outcome():
    model = zoo.build("cox_cs", m=20)
    c, calls = _counting_g(model)
    s = model.state
    _, adjoint, lfd, fisher = _efficient_inputs(
        outcome_law(model.exact, c, s), c, s)
    # A fresh law: the one above has already evaluated its outcomes.
    calls.clear()
    law = outcome_law(model.exact, c, s)
    efficient_information(law, c, s, lfd.values, adjoint, fisher)
    assert len(calls) == len(law.pairs)


@pytest.mark.parametrize("kind", ["exact", "mc"])
def test_a_warm_law_evaluates_g_no_more(kind):
    model = zoo.build("cox_cs", m=20)
    c, calls = _counting_g(model)
    s = model.state
    engine = (model.exact if kind == "exact"
              else MonteCarlo(model.sampler, 2000, 3))
    law = outcome_law(engine, c, s)
    _, adjoint, lfd, fisher = _efficient_inputs(law, c, s)
    calls.clear()
    assert np.array_equal(fisher_information(law, c, s), fisher)
    local_identifiability(law, c, s)
    efficient_information(law, c, s, lfd.values, adjoint, fisher)
    assert calls == []


def test_a_law_asked_about_another_state_evaluates_it_afresh():
    model = zoo.build("cox_cs", m=20)
    c, calls = _counting_g(model)
    s = model.state
    other = ModelState(s.theta + 0.25, s.eta)
    law = outcome_law(model.exact, c, s)
    own_fisher = fisher_information(law, c, s)
    calls.clear()
    sf, _, _, fisher = _efficient_inputs(law, c, other)
    assert calls  # the other state's outcomes were evaluated
    want_sf, _, _, want_fisher = _efficient_inputs(model.exact, c, other)
    assert np.array_equal(fisher, want_fisher)
    assert not np.array_equal(fisher, own_fisher)
    for name in ("gamma", "alpha", "kappa", "beta"):
        assert np.array_equal(getattr(sf, name), getattr(want_sf, name))


def _toy(ell):
    c = ModelComponents(
        p=1, tangent=TangentKind.L2,
        r=lambda th, o: 0.0,
        r_dot=lambda th, o: np.zeros(1),
        g=lambda th, o, pts: pts * o,
        g_dot=lambda th, o, pts: np.zeros((pts.size, 1)),
        f=lambda x, o: -x,
        f_dot=lambda x, o: -1.0,
        f_ddot=lambda x, o: 0.0,
        ell=ell, label="toy",
    )
    eta = DiscreteMeasure(Grid(np.array([1.0, 2.0, 3.0]), 3.0),
                          np.array([0.5, 0.25, 0.25]),
                          MeasureKind.POSITIVE_FINITE)
    return c, ModelState(np.array([0.1]), eta)


@pytest.mark.parametrize("fn", BATCHED)
@pytest.mark.parametrize("directions", [np.ones(3), np.ones((2, 2)),
                                        np.ones((3, 2, 1))])
def test_batched_scores_reject_misshapen_directions(fn, directions):
    c, s = _toy(None)
    with pytest.raises(DimensionError, match=r"directions must have shape"):
        fn(c, s, 1.0, directions)


@pytest.mark.parametrize("fn", BATCHED)
def test_batched_scores_reject_ell_that_does_not_broadcast(fn):
    # An L applied elementwise returns the whole array it is given: here
    # the (m, m) identity, whose product with the directions forms L.
    c, s = _toy(lambda vals, o: vals * o)
    with pytest.raises(DimensionError,
                       match=r"L returned shape \(3, 3\) for 3 directions, "
                             r"the columns of the \(3, 3\) identity"):
        fn(c, s, 1.0, np.ones((3, 2)))


@pytest.mark.parametrize("fn", BATCHED)
def test_batched_scores_require_every_column_centered(fn):
    model = zoo.build("mixture")
    c, s = model.components, model.state
    dirs = centered_basis(s.eta)
    dirs[:, 1] += 1.0
    with pytest.raises(DomainError,
                       match=r"tangent direction 1 must be centered under "
                             r"eta; integral is .* \(tolerance 1e-10\)"):
        fn(c, s, model.exact.outcomes[0], dirs)


@pytest.mark.parametrize("fn", BATCHED)
def test_batched_scores_reject_non_finite_result(fn):
    c, s = _toy(lambda vals, o: vals[0] * o)
    dirs = np.ones((3, 2))
    dirs[1, 1] = np.nan
    with pytest.raises(EvaluationError, match="measure score not finite"):
        fn(c, s, 1.0, dirs)


def _nan_on_directions(model, bad):
    """The model's components with an L that returns NaN for the
    outcomes in ``bad`` when applied to an (m, k) array of directions
    (the log masses of the log density stay finite)."""
    ell = model.components.ell

    def nan_ell(vals, obs):
        out = ell(vals, obs)
        return out * np.nan if np.ndim(vals) == 2 and obs in bad else out

    return dataclasses.replace(model.components, ell=nan_ell)


@pytest.mark.parametrize("kind", ["exact", "mc"])
def test_stacked_scores_name_the_first_outcome_that_is_not_finite(kind):
    # The Gram and by_score check each stacked product once and name the
    # first outcome, in law order, whose row is not finite.
    model = zoo.build("missing_cov")
    s = model.state
    clean = outcome_law(model.exact, model.components, s)
    bad = {o for o in model.exact.outcomes if o.observed and o.k >= 2}
    c = _nan_on_directions(model, bad)
    engine = (model.exact if kind == "exact"
              else MonteCarlo(model.sampler, 20000, 5))
    law = outcome_law(engine, c, s)
    outcomes = [obs for obs, _ in law.pairs]
    first = next(o for o in outcomes if o in bad)
    assert first != outcomes[0]
    with pytest.raises(EvaluationError,
                       match=re.escape(f"measure score not finite at "
                                       f"{first!r}")):
        local_identifiability(law, c, s)
    _, adjoint, lfd, fisher = _efficient_inputs(clean, model.components, s)
    with pytest.raises(EvaluationError, match="measure score not finite"):
        efficient_information(law, c, s, lfd.values, adjoint, fisher)


def test_the_representer_of_l_is_shape_checked():
    # An L applied elementwise returns the whole (m, m) identity.
    model = zoo.build("cox_rc")
    ell = model.components.ell
    c = dataclasses.replace(
        model.components,
        ell=lambda vals, o: vals if np.ndim(vals) == 2 else ell(vals, o))
    law = outcome_law(model.exact, c, model.state)
    with pytest.raises(DimensionError, match=r"L returned shape \(3, 3\) "
                                             r"for 3 directions"):
        local_identifiability(law, c, model.state)
