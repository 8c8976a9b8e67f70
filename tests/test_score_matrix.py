"""The batched measure score: ``score_matrix`` evaluates B on every column
of an (m, k) array of directions with one evaluation of the outcome,
agrees with ``score_operator`` column by column, and refuses what
``score_operator`` refuses."""
import dataclasses
import re
from collections import namedtuple

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
    """The model's components with a g that records the number of rows
    of each table it is called on."""
    calls = []

    def g(theta, table, pts):
        calls.append(len(table[0]))
        return model.components.g(theta, table, pts)

    return dataclasses.replace(model.components, g=g), calls


def test_local_identifiability_calls_g_once_per_law():
    model = zoo.build("cox_cs", m=20)
    c, calls = _counting_g(model)
    law = outcome_law(model.exact, c, model.state)
    local_identifiability(law, c, model.state)
    assert calls == [len(law.pairs)]


def _efficient_inputs(engine, c, s):
    """The structural functions, adjoint, LFD and Fisher information
    that efficient_information takes."""
    sf = structural_functions(engine, c, s)
    adjoint = adjoint_of_score(sf, s.eta, c.tangent)
    lfd = least_favorable_direction(sf, s.eta, c.tangent, adjoint)
    return sf, adjoint, lfd, fisher_information(engine, c, s)


def test_efficient_information_calls_g_once_per_law():
    model = zoo.build("cox_cs", m=20)
    c, calls = _counting_g(model)
    s = model.state
    _, adjoint, lfd, fisher = _efficient_inputs(
        outcome_law(model.exact, c, s), c, s)
    # A fresh law: the one above has already evaluated its outcomes.
    calls.clear()
    law = outcome_law(model.exact, c, s)
    efficient_information(law, c, s, lfd.values, adjoint, fisher)
    assert calls == [len(law.pairs)]


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


Obs = namedtuple("Obs", ["v"])


def _toy(ell):
    c = ModelComponents(
        p=1, tangent=TangentKind.L2,
        r=lambda th, o: np.zeros(o.v.size),
        r_dot=lambda th, o: np.zeros((o.v.size, 1)),
        g=lambda th, o, pts: pts * o.v[:, np.newaxis],
        g_dot=lambda th, o, pts: np.zeros((o.v.size, pts.size, 1)),
        f=lambda x, o: -x,
        f_dot=lambda x, o: np.full_like(x, -1.0),
        f_ddot=lambda x, o: np.zeros_like(x),
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
        fn(c, s, Obs(1.0), directions)


@pytest.mark.parametrize("fn", BATCHED)
def test_batched_scores_reject_an_ell_of_the_wrong_shape(fn):
    # An L applied elementwise returns the whole array it is given: here
    # the (m, m) identity, whose (N, m) image is the representers.
    c, s = _toy(lambda vals, o: vals * o.v[0])
    with pytest.raises(DimensionError,
                       match=r"L returned shape \(3, 3\), expected \(1, 3\)"):
        fn(c, s, Obs(1.0), np.ones((3, 2)))


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
    c, s = _toy(lambda vals, o: o.v[:, np.newaxis] * vals[0])
    dirs = np.ones((3, 2))
    dirs[1, 1] = np.nan
    with pytest.raises(EvaluationError, match="measure score not finite"):
        fn(c, s, Obs(1.0), dirs)


def _nan_on_directions(model, bad):
    """The model's components with an L that returns NaN on the rows of
    the outcomes in ``bad`` when applied to the (m, m) identity (the
    (m, 1) log masses of the log density stay finite)."""
    ell = model.components.ell

    def nan_ell(vals, table):
        out = ell(vals, table)
        if vals.shape[1] == 1:
            return out
        rows = [type(table)._make(row) in bad for row in zip(*table)]
        return np.where(np.array(rows)[:, np.newaxis], np.nan, out)

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
    # An L applied elementwise returns the whole (m, m) identity, not the
    # (N, m) representers of the law's 12 outcomes.
    model = zoo.build("cox_rc")
    ell = model.components.ell
    c = dataclasses.replace(
        model.components,
        ell=lambda vals, o: vals if vals.shape[1] > 1 else ell(vals, o))
    law = outcome_law(model.exact, c, model.state)
    with pytest.raises(DimensionError, match=r"L returned shape \(3, 3\), "
                                             r"expected \(12, 3\)"):
        local_identifiability(law, c, model.state)
