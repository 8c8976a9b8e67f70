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
from semiinfo.likelihood import check_state
from semiinfo.measure import DiscreteMeasure, Grid, MeasureKind
from semiinfo import zoo


def toy_components(ell=True, f=None):
    """One parameter, one integral functional, a linear point-mass term."""
    return ModelComponents(
        p=1,
        tangent=TangentKind.L2,
        r=lambda th, o: th[0] * o,
        r_dot=lambda th, o: np.array([o]),
        g=lambda th, o, pts: np.exp(th[0]) * pts * o,
        g_dot=lambda th, o, pts: (np.exp(th[0]) * pts * o)[:, np.newaxis],
        f=f or (lambda x, o: -0.5 * x * x),
        f_dot=lambda x, o: -x,
        f_ddot=lambda x, o: -1.0,
        ell=(lambda vals, o: vals[0] * o) if ell else None,
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
    assert log_density(c, s, obs) == pytest.approx(want, abs=1e-14)


def test_score_theta_hand_derivative():
    # x(theta) = 2 e^theta for obs = 2, so the chain rule gives 2 - x^2.
    c = toy_components()
    s = toy_state()
    x = 2.0 * np.exp(0.3)
    got = score_theta(c, s, 2.0)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(2.0 - x * x, abs=1e-12)


def test_score_theta_matches_fd():
    c = toy_components()
    obs = 1.5
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
    assert score_operator(c, s, 2.0, [1.0, -1.0]) == pytest.approx(2.0, abs=1e-12)


def test_score_operator_matches_fd_along_path():
    rng = np.random.default_rng(41)
    c = toy_components()
    s = toy_state()
    h = 1e-6
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, 2)
        obs = float(rng.uniform(0.5, 2.0))
        analytic = score_operator(c, s, obs, a)
        up = ModelState(s.theta, perturb_measure(s.eta, a, h))
        dn = ModelState(s.theta, perturb_measure(s.eta, a, -h))
        fd = (log_density(c, up, obs) - log_density(c, dn, obs)) / (2 * h)
        assert abs(analytic - fd) < 1e-7 * (1.0 + abs(analytic))


def test_zero_mass_event_is_minus_inf():
    c = toy_components()
    s = toy_state(masses=(0.0, 0.5))
    assert log_density(c, s, 1.0) == -np.inf


def test_nan_log_density_raises():
    c = toy_components(f=lambda x, o: float("nan"))
    with pytest.raises(EvaluationError):
        log_density(c, toy_state(), 1.0)


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


def test_bad_g_shape_is_reported():
    c = toy_components()
    broken = ModelComponents(
        p=1, tangent=TangentKind.L2,
        r=c.r, r_dot=c.r_dot,
        g=lambda th, o, pts: np.ones((pts.size, 3)),
        g_dot=c.g_dot, f=c.f, f_dot=c.f_dot, f_ddot=c.f_ddot,
    )
    with pytest.raises(DimensionError):
        log_density(broken, toy_state(), 1.0)
