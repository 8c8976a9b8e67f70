import numpy as np
import pytest

from semiinfo import (
    BlockInformation,
    KernelOperator,
    apply,
    as_matrix,
    block_inverse_identity_check,
    efficient_info_parametric,
    invertibility_verdict,
    min_eigen_sym,
    solve,
)
from semiinfo.errors import DimensionError, DomainError, NotIdentifiableError
from semiinfo.measure import DiscreteMeasure, Grid, MeasureKind
from semiinfo.operators import centered_basis, eta_weighted_min_eigen


def measure(masses, kind=MeasureKind.POSITIVE_FINITE):
    masses = np.asarray(masses, dtype=float)
    pts = np.arange(1.0, masses.size + 1.0)
    return DiscreteMeasure(Grid(pts, float(pts[-1])), masses, kind)


def op_from(gamma, kappa, eta, centering=False):
    return KernelOperator(eta, np.asarray(gamma, dtype=float),
                          np.asarray(kappa, dtype=float), centering)


def test_min_eigen_hand_value():
    assert min_eigen_sym(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, abs=1e-12)


def test_apply_matches_matrix():
    rng = np.random.default_rng(11)
    eta = measure(rng.uniform(0.1, 1.0, 5))
    gamma = rng.uniform(0.5, 2.0, 5)
    kappa = rng.normal(size=(5, 5))
    kappa = 0.5 * (kappa + kappa.T)
    op = op_from(gamma, kappa, eta)
    mat = as_matrix(op)
    for _ in range(10):
        a = rng.normal(size=5)
        np.testing.assert_allclose(apply(op, a), mat @ a, atol=1e-13)


def test_multiplier_only_is_pointwise():
    eta = measure([0.3, 0.7])
    op = op_from([2.0, 5.0], np.zeros((2, 2)), eta)
    np.testing.assert_array_equal(apply(op, [1.0, 1.0]), [2.0, 5.0])


def test_solve_recovers_known_solution():
    rng = np.random.default_rng(23)
    eta = measure(rng.uniform(0.2, 1.0, 6))
    gamma = rng.uniform(1.0, 2.0, 6)
    kappa = rng.normal(size=(6, 6)) * 0.1
    kappa = 0.5 * (kappa + kappa.T)
    op = op_from(gamma, kappa, eta)
    a_true = rng.normal(size=6)
    res = solve(op, apply(op, a_true))
    np.testing.assert_allclose(res.solution, a_true, atol=1e-10)
    assert res.relative_residual < 1e-12
    assert res.rank == 6


def test_solve_of_a_zero_operator_is_zero():
    # Rank zero: no singular value is kept, the solution is zero and the
    # whole right-hand side is left as the residual.
    eta = measure([0.5, 0.5])
    op = op_from([0.0, 0.0], np.zeros((2, 2)), eta)
    for rhs in ([1.0, 1.0], [[1.0, 2.0], [1.0, -1.0]]):
        res = solve(op, rhs)
        assert res.rank == 0
        assert np.array_equal(res.solution, np.zeros(np.shape(rhs)))
        assert res.relative_residual == 1.0


def test_solve_rejects_zero_dim_rhs():
    op = op_from([1.0, 2.0], np.zeros((2, 2)), measure([0.5, 0.5]))
    with pytest.raises(DimensionError):
        solve(op, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_rejects_non_finite_rhs(bad):
    op = op_from([1.0, 2.0], np.zeros((2, 2)), measure([0.5, 0.5]))
    for rhs in ([bad, 1.0], [[bad], [1.0]]):
        with pytest.raises(DomainError):
            solve(op, rhs)


def test_solve_on_a_rank_one_kernel_is_the_pinv_solution():
    # Rank-one kernel with no multiplier: the equation is first kind, the
    # solve keeps one singular value, and with equal masses its min-norm
    # solution is the pseudo-inverse's, in or out of the range.
    eta = measure([0.25, 0.25, 0.25, 0.25])
    u = np.array([1.0, 2.0, 3.0, 4.0])
    op = op_from(np.zeros(4), np.outer(u, u), eta)
    mat = as_matrix(op)
    for rhs in (apply(op, np.ones(4)), np.array([1.0, -1.0, 0.5, 2.0])):
        res = solve(op, rhs)
        assert res.rank == 1
        np.testing.assert_allclose(res.solution, np.linalg.pinv(mat) @ rhs,
                                   rtol=1e-12, atol=1e-14)
    # the second right-hand side is off the range: the residual is its
    # component orthogonal to u
    off = rhs - (rhs @ u) / (u @ u) * u
    assert res.relative_residual == pytest.approx(
        np.linalg.norm(off) / np.linalg.norm(rhs), rel=1e-12)


def test_centering_variant_respects_mean_zero():
    rng = np.random.default_rng(5)
    eta = measure([0.2, 0.3, 0.5], MeasureKind.PROBABILITY)
    gamma = rng.uniform(1.0, 2.0, 3)
    kappa = rng.normal(size=(3, 3))
    kappa = 0.5 * (kappa + kappa.T)
    op = op_from(gamma, kappa, eta, centering=True)
    mat = as_matrix(op)
    for j in range(3):
        a = np.zeros(3)
        a[j] = 1.0
        np.testing.assert_allclose(apply(op, a), mat @ a, atol=1e-13)


def test_eta_weighted_min_eigen_diagonal():
    eta = measure([0.5, 0.5])
    mat = np.diag([3.0, 7.0])
    got = eta_weighted_min_eigen(mat, eta, centered=False)
    assert got == pytest.approx(3.0, abs=1e-10)


def test_operator_min_eigen_multiplier():
    eta = measure([0.4, 0.6])
    op = op_from([2.0, 5.0], np.zeros((2, 2)), eta)
    got = eta_weighted_min_eigen(as_matrix(op), op.base, centered=op.centering)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_centered_basis_columns_are_centered():
    eta = measure([0.2, 0.3, 0.5], MeasureKind.PROBABILITY)
    basis = centered_basis(eta)
    assert basis.shape == (3, 2)
    means = eta.masses @ basis
    np.testing.assert_allclose(means, 0.0, atol=1e-14)


def make_pd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def test_block_round_trip():
    rng = np.random.default_rng(3)
    mat = make_pd(rng, 5)
    info = BlockInformation.from_matrix(mat, 2)
    assert info.p == 2 and info.q == 3
    np.testing.assert_allclose(info.full(), mat, atol=0.0)


def test_schur_complement_hand_value():
    mat = np.array([[4.0, 1.0], [1.0, 2.0]])
    info = BlockInformation.from_matrix(mat, 1)
    # 4 - 1 * (1/2) * 1
    np.testing.assert_allclose(efficient_info_parametric(info), [[3.5]], atol=1e-14)


def test_inverse_identity_small_on_pd():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(1, n))
        info = BlockInformation.from_matrix(make_pd(rng, n), p)
        assert block_inverse_identity_check(info) < 1e-10


def test_singular_nuisance_block_is_named():
    mat = np.zeros((3, 3))
    mat[0, 0] = 1.0
    info = BlockInformation.from_matrix(mat, 1)
    with pytest.raises(NotIdentifiableError, match="i_pp"):
        efficient_info_parametric(info)


def test_verdict_keys_and_equivalence():
    rng = np.random.default_rng(29)
    info = BlockInformation.from_matrix(make_pd(rng, 4), 2)
    v = invertibility_verdict(info)
    assert v["full_invertible"] and v["nuisance_invertible"] and v["profiled_invertible"]
    assert v["equivalence_holds"]
    singular = BlockInformation.from_matrix(np.diag([1.0, 1.0, 0.0]), 2)
    v2 = invertibility_verdict(singular)
    assert not v2["full_invertible"]
    assert not v2["nuisance_invertible"]
    assert v2["equivalence_holds"]


def test_block_shape_errors():
    with pytest.raises(DimensionError):
        BlockInformation.from_matrix(np.zeros((2, 3)), 1)
    with pytest.raises(DomainError):
        BlockInformation.from_matrix(np.eye(2), 3)
    with pytest.raises(DomainError):
        BlockInformation(np.eye(2), np.zeros((2, 1)), np.array([[np.nan]]))
