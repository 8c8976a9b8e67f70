import dataclasses
import re
from collections import namedtuple

import numpy as np
import pytest

from semiinfo import (
    ModelComponents,
    ModelState,
    TangentKind,
    log_density,
    perturb_measure,
    score_operator,
    score_theta,
)
from semiinfo.errors import DimensionError, DomainError, EvaluationError
from semiinfo.likelihood import _Outcome, _evaluate_one, check_state
from semiinfo.measure import DiscreteMeasure, Grid, MeasureKind
from semiinfo import zoo


Obs = namedtuple("Obs", ["v"])


def toy_components(ell=True, f=None):
    """One parameter, one integral functional, a linear point-mass term;
    the outcome is one number, the field v."""
    return ModelComponents(
        p=1,
        tangent=TangentKind.L2,
        r=lambda th, o: th[0] * o.v,
        r_dot=lambda th, o: o.v[:, np.newaxis],
        g=lambda th, o, pts: np.exp(th[0]) * pts * o.v[:, np.newaxis],
        g_dot=lambda th, o, pts: (np.exp(th[0]) * pts
                                  * o.v[:, np.newaxis])[:, :, np.newaxis],
        f=f or (lambda x, o: -0.5 * x * x),
        f_dot=lambda x, o: -x,
        f_ddot=lambda x, o: np.full_like(x, -1.0),
        ell=(lambda vals, o: o.v[:, np.newaxis] * vals[0]) if ell else None,
        label="toy",
    )


def toy_state(theta=0.3, masses=(0.5, 0.25)):
    eta = DiscreteMeasure(Grid(np.array([1.0, 2.0]), 2.0),
                          np.array(masses, dtype=float),
                          MeasureKind.POSITIVE_FINITE)
    return ModelState(np.array([theta]), eta)


def test_log_density_hand_assembly():
    c = toy_components()
    s = toy_state()
    obs = 2.0
    x = np.exp(0.3) * (0.5 * 1.0 * obs + 0.25 * 2.0 * obs)
    want = 0.3 * obs - 0.5 * x * x + np.log(0.5) * obs
    assert log_density(c, s, Obs(obs)) == pytest.approx(want, abs=1e-14)


def test_score_theta_hand_derivative():
    # x(theta) = 2 e^theta for obs = 2, so the chain rule gives 2 - x^2.
    c = toy_components()
    s = toy_state()
    x = 2.0 * np.exp(0.3)
    got = score_theta(c, s, Obs(2.0))
    assert got.shape == (1,)
    assert got[0] == pytest.approx(2.0 - x * x, abs=1e-12)


def test_score_theta_matches_fd():
    c = toy_components()
    obs = Obs(1.5)
    h = 1e-6
    analytic = score_theta(c, toy_state(0.3), obs)[0]
    fd = (log_density(c, toy_state(0.3 + h), obs)
          - log_density(c, toy_state(0.3 - h), obs)) / (2 * h)
    assert abs(analytic - fd) < 1e-7


def test_score_operator_hand_value():
    # The integral part cancels for a = (1, -1) at obs = 2; only the
    # point-mass functional survives: a[0] * obs.
    c = toy_components()
    s = toy_state()
    assert score_operator(c, s, Obs(2.0), [1.0, -1.0]) \
        == pytest.approx(2.0, abs=1e-12)


def test_score_operator_matches_fd_along_path():
    rng = np.random.default_rng(41)
    c = toy_components()
    s = toy_state()
    h = 1e-6
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, 2)
        obs = Obs(float(rng.uniform(0.5, 2.0)))
        analytic = score_operator(c, s, obs, a)
        up = ModelState(s.theta, perturb_measure(s.eta, a, h))
        dn = ModelState(s.theta, perturb_measure(s.eta, a, -h))
        fd = (log_density(c, up, obs) - log_density(c, dn, obs)) / (2 * h)
        assert abs(analytic - fd) < 1e-7 * (1.0 + abs(analytic))


def test_zero_mass_event_is_minus_inf():
    c = toy_components()
    s = toy_state(masses=(0.0, 0.5))
    assert log_density(c, s, Obs(1.0)) == -np.inf


def test_nan_log_density_raises():
    c = toy_components(f=lambda x, o: np.full_like(x, np.nan))
    with pytest.raises(EvaluationError,
                       match=re.escape("log density is NaN at observation "
                                       "Obs(v=1.0)")):
        log_density(c, toy_state(), Obs(1.0))


def test_state_validation():
    c = toy_components()
    eta_prob = DiscreteMeasure(Grid(np.array([1.0, 2.0]), 2.0),
                               np.array([0.5, 0.5]), MeasureKind.PROBABILITY)
    with pytest.raises(DimensionError):
        check_state(c, ModelState(np.array([0.1, 0.2]), toy_state().eta))
    with pytest.raises(DomainError):
        check_state(c, ModelState(np.array([0.1]), eta_prob))


def test_mean_zero_tangent_requires_centered_direction():
    model = zoo.build("mixture")
    with pytest.raises(DomainError):
        score_operator(model.components, model.state,
                       model.exact.outcomes[0], np.ones(model.state.eta.size))


# One wrong-shaped output per case, for the toy's one-outcome table
# (N = 1) and m = 2, d = 1, p = 1: (component, replacement, message). r,
# f, L(log w) and g reach the log density; r_dot, g_dot, f_dot and
# f_ddot the parameter score.
BAD_OUTPUTS = [
    pytest.param("r", lambda th, o: (th[0] * o.v)[:, np.newaxis],
                 "r returned shape (1, 1), expected (1,)", id="r"),
    pytest.param("f", lambda x, o: (-0.5 * x * x)[:, np.newaxis],
                 "f returned shape (1, 1), expected (1,)", id="f"),
    pytest.param("ell", lambda vals, o: o.v * vals[0],
                 "L returned shape (1,), expected (1, 1)", id="ell"),
    pytest.param("r_dot", lambda th, o: np.column_stack((o.v, o.v)),
                 "r_dot returned shape (1, 2), expected (1, 1)",
                 id="r_dot-size"),
    pytest.param("r_dot", lambda th, o: o.v,
                 "r_dot returned shape (1,), expected (1, 1)",
                 id="r_dot-ndim"),
    pytest.param("g", lambda th, o, pts: np.ones((o.v.size, pts.size, 3)),
                 "g returned shape (1, 2, 3), expected (1, 2, 1)", id="g"),
    pytest.param("g_dot",
                 lambda th, o, pts: np.ones((o.v.size, pts.size, 2)),
                 "g_dot returned shape (1, 2, 2), expected (1, 2, 1, 1)",
                 id="g_dot"),
    pytest.param("f_dot", lambda x, o: np.column_stack((-x, x)),
                 "f_dot returned shape (1, 2), expected (1, 1)", id="f_dot"),
    pytest.param("f_ddot", lambda x, o: np.column_stack((-x, x)),
                 "f_ddot returned shape (1, 2), expected (1, 1, 1)",
                 id="f_ddot"),
]


@pytest.mark.parametrize("name, bad, message", BAD_OUTPUTS)
def test_a_wrong_output_shape_names_the_component(name, bad, message):
    c = dataclasses.replace(toy_components(), **{name: bad})
    compute = (log_density if name in ("r", "f", "ell", "g")
               else score_theta)
    with pytest.raises(DimensionError, match=re.escape(message)):
        compute(c, toy_state(), Obs(1.0))


def test_bare_d1_outputs_match_the_full_shapes():
    # The toy returns g, g_dot, f_dot and f_ddot in their d == 1 bare
    # forms; with the d axes written out every evaluation is the same.
    bare = toy_components()
    full = dataclasses.replace(
        bare,
        g=lambda th, o, pts: bare.g(th, o, pts)[:, :, np.newaxis],
        g_dot=lambda th, o, pts: bare.g_dot(th, o, pts)[:, :, np.newaxis],
        f_dot=lambda x, o: bare.f_dot(x, o)[:, np.newaxis],
        f_ddot=lambda x, o: bare.f_ddot(x, o)[:, np.newaxis, np.newaxis])
    s = toy_state()
    for obs in (Obs(0.5), Obs(2.0)):
        got = _evaluate_one(bare, s, obs)[1]
        want = _evaluate_one(full, s, obs)[1]
        for field in _Outcome._fields:
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert log_density(bare, s, obs) == log_density(full, s, obs)
