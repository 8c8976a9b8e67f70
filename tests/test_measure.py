import numpy as np
import pytest

from semiinfo import center, cumulative, inner_product, mean, norm, perturb_measure
from semiinfo.errors import DimensionError, DomainError, MeasureKindWarning
from semiinfo.measure import (
    DiscreteMeasure,
    Direction,
    Grid,
    MeasureKind,
    _mass_path,
    as_values,
    is_centered,
    require_centered,
)


def pos(points, masses, tau=None):
    points = np.asarray(points, dtype=float)
    if tau is None:
        tau = float(points[-1])
    return DiscreteMeasure(Grid(points, tau), np.asarray(masses, dtype=float),
                           MeasureKind.POSITIVE_FINITE)


def prob(points, masses, tau=None):
    points = np.asarray(points, dtype=float)
    if tau is None:
        tau = float(points[-1])
    return DiscreteMeasure(Grid(points, tau), np.asarray(masses, dtype=float),
                           MeasureKind.PROBABILITY)


def test_inner_product_hand_value():
    eta = pos([1.0, 2.0, 3.0], [0.2, 0.3, 0.4])
    # 1*1*0.2 + 2*1*0.3 + 3*1*0.4
    assert inner_product([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], eta) == pytest.approx(2.0, abs=1e-15)
    assert norm([1.0, 2.0, 3.0], eta) == pytest.approx(np.sqrt(0.2 + 4 * 0.3 + 9 * 0.4), abs=1e-15)


def test_inner_product_bilinear():
    rng = np.random.default_rng(7)
    eta = pos([0.5, 1.0, 1.5, 2.0], rng.uniform(0.1, 1.0, 4))
    for _ in range(20):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        c = rng.normal(size=4)
        s = rng.normal()
        lhs = inner_product(a, s * b + c, eta)
        rhs = s * inner_product(a, b, eta) + inner_product(a, c, eta)
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(lhs))
        assert abs(inner_product(a, b, eta) - inner_product(b, a, eta)) < 1e-14


def test_center_hand_value():
    eta = prob([0.0, 1.0, 2.0], [0.5, 0.25, 0.25])
    out = center([1.0, 0.0, 0.0], eta)
    assert isinstance(out, Direction)
    np.testing.assert_allclose(out.values, [0.5, -0.5, -0.5], atol=1e-15)
    assert abs(mean(out.values, eta)) < 1e-15
    assert is_centered(out, eta)


def test_center_rejects_positive_finite():
    eta = pos([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        center([1.0, 2.0], eta)


def test_require_centered():
    eta = prob([0.0, 1.0], [0.5, 0.5])
    vals = require_centered([1.0, -1.0], eta)
    np.testing.assert_array_equal(vals, [1.0, -1.0])
    with pytest.raises(DomainError):
        require_centered([1.0, 0.0], eta, "test direction")


def test_require_centered_checks_each_column():
    # An (m, k) array passes column by column; the first off-centre
    # column is named by its index, and a wrong row count is refused.
    eta = prob([0.0, 1.0], [0.5, 0.5])
    cols = np.array([[1.0, 2.0, 1.0], [-1.0, -2.0, 0.0]])
    np.testing.assert_array_equal(require_centered(cols[:, :2], eta),
                                  cols[:, :2])
    with pytest.raises(DomainError, match=r"^test direction 2 must be "
                       r"centered under eta; integral is 0\.5 "):
        require_centered(cols, eta, "test direction")
    with pytest.raises(DimensionError):
        require_centered(np.zeros((3, 2)), eta)


def test_cumulative_hand_value():
    eta = pos([1.0, 2.0, 3.0], [0.2, 0.3, 0.4])
    # inclusive at t=2: 2*0.2 + 1*0.3
    assert cumulative([2.0, 1.0, 1.0], eta, 2.0) == pytest.approx(0.7, abs=1e-15)
    assert cumulative([2.0, 1.0, 1.0], eta, 0.0) == 0.0
    assert cumulative([2.0, 1.0, 1.0], eta, 3.0) == pytest.approx(1.1, abs=1e-15)


def test_cumulative_outside_window():
    eta = pos([1.0, 2.0], [0.5, 0.5], tau=2.5)
    with pytest.raises(DomainError):
        cumulative([1.0, 1.0], eta, -0.1)
    with pytest.raises(DomainError):
        cumulative([1.0, 1.0], eta, 2.6)


def test_perturb_hand_value():
    eta = pos([0.0, 1.0], [0.5, 0.5])
    out = perturb_measure(eta, [1.0, -1.0], 0.2)
    np.testing.assert_allclose(out.masses, [0.6, 0.4], atol=1e-15)
    assert out.kind is MeasureKind.POSITIVE_FINITE


def test_perturb_preserves_probability_for_centered():
    eta = prob([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    a = center([1.0, 0.0, -1.0], eta)
    out = perturb_measure(eta, a, 0.3)
    assert out.kind is MeasureKind.PROBABILITY
    assert abs(out.masses.sum() - 1.0) < 1e-15


def test_perturb_uncentered_probability_warns_and_demotes():
    eta = prob([0.0, 1.0], [0.5, 0.5])
    with pytest.warns(MeasureKindWarning):
        out = perturb_measure(eta, [1.0, 0.0], 0.1)
    assert out.kind is MeasureKind.POSITIVE_FINITE


def test_perturb_step_too_large():
    eta = pos([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        perturb_measure(eta, [2.0, 0.0], 0.5)


STEPS = (1e-4, -1e-4, 2e-3, -2e-3, 1e-3, -1e-3)


@pytest.mark.parametrize("kind", ["probability", "positive_finite"])
def test_mass_path_matches_perturb_measure_bit_for_bit(kind):
    rng = np.random.default_rng(8)
    points = np.linspace(0.0, 3.0, 7)
    masses = rng.uniform(0.1, 1.0, 7)
    if kind == "probability":
        eta = prob(points, masses / masses.sum())
        dirs = [center(rng.uniform(-1.0, 1.0, 7), eta).values
                for _ in range(3)]
    else:
        eta = pos(points, masses)
        dirs = [rng.uniform(-1.0, 1.0, 7) for _ in range(3)]
    path, kinds = _mass_path(eta, dirs, STEPS)
    assert path.shape == (len(dirs), len(STEPS), 7)
    assert kinds == (eta.kind,) * len(dirs)
    for a, moved in zip(dirs, path):
        for t, masses_t in zip(STEPS, moved):
            one = perturb_measure(eta, a, t)
            assert masses_t.tobytes() == one.masses.tobytes()
            assert one.kind is eta.kind


def test_mass_path_refuses_the_first_step_too_large():
    eta = pos([0.0, 1.0], [0.5, 0.5])
    a = [2.0, 0.0]
    with pytest.raises(DomainError) as one:
        perturb_measure(eta, a, -0.6)
    with pytest.raises(DomainError) as path:
        _mass_path(eta, [a], [0.1, -0.6, 0.7])
    assert str(path.value) == str(one.value)
    # over a stack, the first offending (direction, t) in that order
    with pytest.raises(DomainError) as stack:
        _mass_path(eta, [[0.5, 0.0], a, [4.0, 0.0]], [0.1, -0.6, 0.7])
    assert str(stack.value) == str(one.value)


def test_mass_path_raises_the_measure_error_of_the_first_refused_step():
    # a direction centered within TOL_CENTERED moves the total mass by
    # t times its integral, which a long step takes past TOL_PROB_MASS
    eta = prob([0.0, 1.0], [0.5, 0.5])
    a = np.array([1.0 + 1e-10, -1.0])
    with pytest.raises(DomainError, match="total mass") as one:
        perturb_measure(eta, a, 0.5)
    with pytest.raises(DomainError) as stack:
        _mass_path(eta, [[0.5, -0.5], a], [0.01, 0.5, -0.5])
    assert str(stack.value) == str(one.value)


def test_mass_path_warns_once_and_demotes_every_measure():
    eta = prob([0.0, 1.0], [0.5, 0.5])
    with pytest.warns(MeasureKindWarning) as one:
        perturb_measure(eta, [1.0, 0.0], 0.1)
    def walk():  # callers reach the path through a function of their own
        return _mass_path(eta, [[1.0, 0.0], [0.5, -0.5], [0.0, 1.0]],
                          [0.1, -0.1, 0.2])

    with pytest.warns(MeasureKindWarning) as path:
        _, kinds = walk()
    assert len(one) == len(path) == 1
    assert str(path[0].message) == str(one[0].message)
    assert path[0].filename == one[0].filename == __file__
    assert kinds == (MeasureKind.POSITIVE_FINITE, MeasureKind.PROBABILITY,
                     MeasureKind.POSITIVE_FINITE)


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid(np.array([2.0, 1.0]), 3.0)
    with pytest.raises(DomainError):
        Grid(np.array([1.0, 2.0]), 1.5)
    with pytest.raises(DomainError, match="mass 1 is negative"):
        DiscreteMeasure(Grid(np.array([1.0, 2.0]), 2.0),
                        np.array([0.5, -0.1]), MeasureKind.POSITIVE_FINITE)
    with pytest.raises(DomainError, match="mass 1 is not finite"):
        DiscreteMeasure(Grid(np.array([1.0, 2.0]), 2.0),
                        np.array([0.5, np.nan]), MeasureKind.POSITIVE_FINITE)
    with pytest.raises(DomainError):
        DiscreteMeasure(Grid(np.array([1.0, 2.0]), 2.0),
                        np.array([0.5, 0.4]), MeasureKind.PROBABILITY)


def test_as_values_shapes():
    np.testing.assert_array_equal(as_values([1.0, 2.0], 2), [1.0, 2.0])
    d = Direction(np.array([1.0, -1.0]))
    np.testing.assert_array_equal(as_values(d, 2), [1.0, -1.0])
    with pytest.raises(DimensionError):
        as_values([1.0, 2.0, 3.0], 2)


def test_measure_is_immutable():
    eta = pos([1.0, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        eta.masses[0] = 9.0
    with pytest.raises(ValueError):
        eta.grid.points[0] = 9.0
