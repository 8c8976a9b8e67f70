"""Multiplier-plus-kernel operators on L2(eta) and parametric block algebra.

The operators this package manipulates all share one finite-dimensional
shape: ``(T a)(v) = gamma(v) a(v) + sum_u kernel(v, u) a(u) w_u`` with an
optional centering correction ``- sum_u gamma(u) a(u) w_u`` (a constant
function) used on mean-zero tangent spaces. Information operators,
their parametric corrections, and the systems solved for least favorable
directions are all of this form.

Solves respect the geometry of L2(eta): zero-mass grid points are dropped
(their equations carry no weight), and for centering operators the system
is restricted to the mean-zero subspace, where these operators are well
defined. A solve is rank revealing: it keeps the singular values of the
reduced system above ``SIGMA_MIN_REL_TOL`` times the largest and returns
the min-norm least squares solution on them, which is the direct solution
when the system has full rank.

Every eigenvalue decision on a symmetric matrix reads its spectrum at
one cut, ``EIGEN_REL_CUT`` (1e-10) times the largest eigenvalue. The
solve's truncation is a second cut, ``SIGMA_MIN_REL_TOL`` (1e-8) times
the largest singular value; no code path reads both ranks of one
matrix. A singular or near singular block (condition number above 1e10)
is refused by name where it is inverted and is not invertible in the
verdict; a matrix with an eigenvalue below minus the cut is indefinite,
and ``paramcheck`` refuses it.

A measure computes its mean-zero basis (one SVD) once, on first use.
An operator builds its dense matrix once and factors its reduced system
(one SVD) on its first solve; every later solve on it reuses both,
whatever its right-hand side. ``analyze`` builds one operator per state
and forms V from its matrix.

An information operator over N outcomes has a second factorization:
its reduced system is F^T F for the weighted (N, m) score factor F, so
one thin SVD of F (:func:`outcome_factored`) gives the singular vectors
and values the solve needs. That costs O(N^2 m) instead of O(m^3), and a
solve on it never builds the m x m matrix or mean-zero basis: on a
centered operator F's rows are projected off ``sqrt(w)`` instead. Each
factorization (:class:`Factored`) carries the map its residual applies:
an operator's is its dense matrix, the outcome one's is F^T (F .), in
O(N m). Where the score mean is at rounding, F^T F equals the
Hessian-form operator to rounding: the two residuals of a non-regular
solve on ``mixture`` agree within 4e-14 relative, m from 7 to 800. The
solve and its rank cut are the same code either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DimensionError, DomainError, NotIdentifiableError
from .measure import DiscreteMeasure, as_values

# A solve keeps the singular values above this times the largest.
SIGMA_MIN_REL_TOL = 1e-8
# Symmetry validation for information blocks, relative to the matrix scale.
BLOCK_SYMMETRY_TOL = 1e-8
# A symmetric matrix's rank counts its eigenvalues above this times its
# largest; it is indefinite when its smallest is below minus that.
EIGEN_REL_CUT = 1e-10


@dataclass(frozen=True)
class KernelOperator:
    """The operator ``a -> gamma * a + K (a deta) [- <gamma, a>_eta]``.

    Parameters
    ----------
    base : DiscreteMeasure
        The measure eta defining the geometry.
    multiplier : array, shape (m,)
        Pointwise multiplier gamma.
    kernel : array, shape (m, m)
        Kernel K(v, u), integrated against ``a(u) deta(u)`` in its second
        argument.
    centering : bool
        If True, subtract the constant ``<gamma, a>_eta``. Used when the
        operator acts on the mean-zero subspace of a probability measure.
    """

    base: DiscreteMeasure
    multiplier: np.ndarray
    kernel: np.ndarray
    centering: bool = False

    def __post_init__(self):
        m = self.base.size
        mult = np.asarray(self.multiplier, dtype=float)
        kern = np.asarray(self.kernel, dtype=float)
        if mult.shape != (m,):
            raise DimensionError(
                f"multiplier has shape {mult.shape}, expected ({m},)"
            )
        if kern.shape != (m, m):
            raise DimensionError(
                f"kernel has shape {kern.shape}, expected ({m}, {m})"
            )
        if not (np.all(np.isfinite(mult)) and np.all(np.isfinite(kern))):
            raise DomainError("operator pieces must be finite")
        mult = mult.copy()
        kern = kern.copy()
        mult.setflags(write=False)
        kern.setflags(write=False)
        object.__setattr__(self, "multiplier", mult)
        object.__setattr__(self, "kernel", kern)
        object.__setattr__(self, "centering", bool(self.centering))

    @property
    def size(self) -> int:
        return self.base.size

    @cached_property
    def _matrix(self) -> np.ndarray:
        """The dense matrix (:func:`as_matrix`), built once; the pieces and
        the masses are read-only, so no cached value here can go stale."""
        return as_matrix(self)

    @cached_property
    def _factored(self) -> Factored:
        """The SVD of the reduced system of :func:`_reduce`, with the dense
        matrix as the residual map. Built on the first solve and reused by
        every later one."""
        reduced, sup, root, q = _reduce(self._matrix, self.base,
                                        self.centering)
        svd = np.linalg.svd(reduced) if reduced.shape[0] else None
        return Factored(self.base, self.centering, sup, root, q, svd,
                        self._matrix.__matmul__)


@dataclass(frozen=True, eq=False)
class Factored:
    """A reduced system factored for :func:`solve`.

    The system lives in the solve coordinates ``y = sqrt(w) a`` on the
    support ``sup`` of ``base`` (``root`` is ``sqrt(w)`` there),
    projected onto the mean-zero basis ``q`` when ``q`` is not None.
    ``svd`` is its SVD ``(u, s, vt)``, None when it is empty. ``apply``
    is the residual map: it takes grid values a, a vector or columns,
    to the grid values of ``T a``. ``centering`` says the equation lives
    on the mean-zero subspace, where the residual drops its constant
    component.
    """

    base: DiscreteMeasure
    centering: bool
    sup: np.ndarray
    root: np.ndarray
    q: Optional[np.ndarray]
    svd: Optional[tuple]
    apply: Callable = field(repr=False)


def apply(op: KernelOperator, a) -> np.ndarray:
    """Evaluate the operator at a direction, returning grid values."""
    av = as_values(a, op.size)
    w = op.base.masses
    out = op.multiplier * av + op.kernel @ (w * av)
    if op.centering:
        out = out - float(np.sum(op.multiplier * av * w))
    return out


def as_matrix(op: KernelOperator) -> np.ndarray:
    """Dense matrix M with ``M @ a == apply(op, a)`` up to rounding.

    The construction mirrors apply() term by term (diagonal, kernel times
    mass, rank-one centering), but M @ a sums those terms in another
    order than apply() does, so the two can differ in the last bits.
    """
    w = op.base.masses
    mat = np.diag(op.multiplier) + op.kernel * w[np.newaxis, :]
    if op.centering:
        mat = mat - np.outer(np.ones(op.size), op.multiplier * w)
    return mat


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an operator solve.

    ``solution`` has the shape of ``rhs`` (vector or matrix of columns).
    ``residual`` is the L2(eta) norm of ``T a - rhs`` (max over columns),
    ``relative_residual`` divides by the rhs norm per column. The
    singular values are those of the reduced system actually solved
    (support-restricted, centered-projected when applicable): ``rank``
    counts the ones the solve kept, ``condition`` is the largest over the
    smallest kept one (infinite at rank zero), and ``sigma_min`` and
    ``sigma_max`` are the smallest and largest of all of them, so a
    ``sigma_min`` far below ``sigma_max / condition`` shows what the solve
    dropped.
    """

    solution: np.ndarray
    residual: float
    relative_residual: float
    condition: float
    rank: int
    sigma_min: float
    sigma_max: float


def _reduce(mat: np.ndarray, eta: DiscreteMeasure, centered: bool):
    """Return (reduced, sup, root, q): an operator matrix in the solve
    coordinates ``y = sqrt(w) a`` on the support ``sup`` (``root`` is
    ``sqrt(w)`` there), projected onto the mean-zero basis q when
    ``centered`` (q is None otherwise)."""
    sup, root = eta._support_and_root
    # The basis first: its SVD then runs before the copies below exist.
    q = eta._mean_zero_basis if centered else None
    reduced = (mat[np.ix_(sup, sup)] * (1.0 / root)[np.newaxis, :]) \
        * root[:, np.newaxis]
    if centered:
        reduced = q.T @ reduced @ q
    return reduced, sup, root, q


def outcome_factored(eta: DiscreteMeasure, centered: bool,
                     scores: np.ndarray, probs: np.ndarray) -> tuple:
    """The reduced system of an outer-product information operator on eta,
    factored through its N outcomes: ``(factored, score_mean, s_max)``.

    ``scores`` is M, the (N, m) measure scores of the outcomes along the
    coordinate directions, and ``probs`` their (N,) probabilities. In the
    solve coordinates on the support the operator ``a -> E[(B a) B]``
    reduces to F^T F, with F = sqrt(p) M diag(w)^(-1/2) restricted to the
    support's columns and, when ``centered``, its rows projected off
    ``sqrt(w) / |sqrt(w)|``; neither step builds the m x m mean-zero
    basis. With the thin SVD F = U S V^T that system is V S^2 V^T, so
    ``factored``, the :class:`Factored` that :func:`solve` takes, holds V
    for both singular-vector factors and S^2 padded with zeros up to the
    reduced dimension (the support size, less one when centered), where
    the system's other eigenvalues are exactly zero. N must be below that
    dimension. Its residual map is F^T (F .) on the support, zero at the
    dead points: O(N m), with no m x m matrix.

    ``score_mean`` is |F^T sqrt(p)|, the largest |E[B a]| over unit
    tangent directions a, and ``s_max`` the largest singular value of F.
    A Hessian-form operator equals F^T F only where the score mean is at
    rounding; the caller decides which to solve.
    """
    sup, root = eta._support_and_root
    reduced = sup.size - centered
    if probs.shape[0] >= reduced:
        raise DimensionError(
            f"{probs.shape[0]} outcomes do not factor a reduced system of "
            f"dimension {reduced}: need fewer outcomes"
        )
    root_p = np.sqrt(probs)
    factor = (root_p[:, np.newaxis] * scores[:, sup]) / root
    if centered:
        unit = root / np.linalg.norm(root)
        factor -= np.outer(factor @ unit, unit)
    _, svals, vt = np.linalg.svd(factor, full_matrices=False)
    squares = np.zeros(reduced)
    squares[:svals.size] = svals * svals

    def outer(a):
        scale = root if a.ndim == 1 else root[:, np.newaxis]
        image = np.zeros(a.shape)
        image[sup] = factor.T @ (factor @ (a[sup] * scale)) / scale
        return image

    return (Factored(eta, centered, sup, root, None, (vt.T, squares, vt),
                     outer),
            float(np.linalg.norm(factor.T @ root_p)), float(svals[0]))


def solve(system, rhs) -> SolveResult:
    """Solve ``T a = rhs`` in L2(eta) by a truncated SVD.

    The singular values of the reduced system above ``SIGMA_MIN_REL_TOL``
    times the largest are kept, and the solution is the min-norm least
    squares one ``V_r S_r^{-1} U_r^T rhs`` on them: the direct solution
    at full rank, the zero solution at rank zero. ``rank`` in the result
    counts the kept values.

    For centering operators the solve is restricted to the mean-zero
    subspace; the right-hand side is projected onto it (information
    right-hand sides are mean zero up to rounding already) and the
    solution comes back centered.

    ``rhs`` may be a vector ``(m,)`` or a matrix of columns ``(m, k)``,
    and must be finite.

    ``system`` is a :class:`KernelOperator`, solved on its own SVD of
    its matrix (built on first use) with the residual of that matrix,
    or a :class:`Factored`, such as the outcome-space one of
    :func:`outcome_factored`: that solve builds neither the mean-zero
    basis nor any m x m matrix, and its residual is that of F^T F,
    which equals the operator matrix's to rounding where the score mean
    is at rounding.
    """
    m = system.base.size
    rhs_arr = np.asarray(rhs, dtype=float)
    if rhs_arr.ndim not in (1, 2) or rhs_arr.shape[0] != m:
        raise DimensionError(
            f"rhs has shape {rhs_arr.shape}, expected ({m},) or ({m}, k)"
        )
    if not np.all(np.isfinite(rhs_arr)):
        raise DomainError("rhs must be finite")

    fac = system._factored if isinstance(system, KernelOperator) else system
    sup, root, q = fac.sup, fac.root, fac.q
    if fac.svd is None:
        return SolveResult(np.zeros_like(rhs_arr), 0.0, 0.0, 1.0, 0, 0.0,
                           0.0)
    w = fac.base.masses
    if rhs_arr.ndim == 2:
        root, w = root[:, np.newaxis], w[:, np.newaxis]
    target = rhs_arr[sup] * root
    if q is not None:
        target = q.T @ target

    u_mat, svals, vt = fac.svd
    sigma_max = float(svals[0])
    # The singular values come sorted, so the kept ones are a prefix.
    rank = int(np.count_nonzero(svals > SIGMA_MIN_REL_TOL * sigma_max))
    condition = sigma_max / float(svals[rank - 1]) if rank else float("inf")
    y = vt[:rank].T @ ((u_mat[:, :rank].T @ target).T / svals[:rank]).T

    if q is not None:
        y = q @ y
    solution = np.zeros(rhs_arr.shape)
    solution[sup] = y / root

    resid_vec = fac.apply(solution) - rhs_arr
    if fac.centering:
        # The equation lives on the mean-zero subspace; the residual's
        # constant component is an artifact of the kernel representative.
        total = float(np.sum(fac.base.masses))
        resid_vec = resid_vec - np.sum(resid_vec * w, axis=0) / total
    col_res = np.sqrt(np.sum(resid_vec * resid_vec * w, axis=0))
    col_rhs = np.sqrt(np.sum(rhs_arr * rhs_arr * w, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(col_rhs > 0.0, col_res / col_rhs, 0.0)
    return SolveResult(solution, float(np.max(col_res, initial=0.0)),
                       float(np.max(rel, initial=0.0)), condition, rank,
                       float(svals[-1]), sigma_max)


def _spectrum(mat) -> tuple[np.ndarray, int]:
    """Ascending eigenvalues of the symmetric part of a square matrix, and
    its rank: the count of them above ``EIGEN_REL_CUT`` times the largest
    (none when the largest is not positive)."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    eig = np.linalg.eigvalsh(0.5 * (arr + arr.T))
    top = eig[-1] if eig.size else 0.0
    return eig, int(np.count_nonzero(eig > EIGEN_REL_CUT * top))


def min_eigen_sym(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of a square matrix."""
    eig = _spectrum(mat)[0]
    return float(eig[0]) if eig.size else 0.0


def eta_weighted_min_eigen(mat: np.ndarray, eta: DiscreteMeasure,
                           centered: bool = False) -> float:
    """Smallest eigenvalue of an operator matrix in the L2(eta) geometry.

    The matrix acts on grid values; the eigenproblem is posed on the
    support in the symmetric coordinates ``y = sqrt(w) a`` (restricted to
    the mean-zero subspace when ``centered``), after symmetrizing.
    """
    arr = np.asarray(mat, dtype=float)
    if arr.shape != (eta.size, eta.size):
        raise DimensionError(
            f"matrix has shape {arr.shape}, expected ({eta.size}, {eta.size})"
        )
    return min_eigen_sym(_reduce(arr, eta, centered)[0])


def centered_basis(eta: DiscreteMeasure) -> np.ndarray:
    """Columns forming an eta-orthonormal basis of the mean-zero subspace
    on the support, padded with the raw coordinate directions of any
    zero-mass points (those are trivially mean zero and, feeding operators
    built from eta, trivially dead; keeping them makes rank defects from
    dead cells visible instead of silently dropped)."""
    sup, root = eta._support_and_root
    m = eta.size
    q = eta._mean_zero_basis
    cols = np.zeros((m, q.shape[1]))
    cols[sup, :] = q / root[:, np.newaxis]
    dead = np.setdiff1d(np.arange(m), sup)
    if dead.size:
        extra = np.zeros((m, dead.size))
        extra[dead, np.arange(dead.size)] = 1.0
        cols = np.hstack([cols, extra])
    return cols


# ---------------------------------------------------------------------------
# Parametric block algebra for partitioned information matrices.
# ---------------------------------------------------------------------------


def _check_symmetric(name: str, mat: np.ndarray) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"block {name} must be square, got {arr.shape}")
    if arr.size:
        scale = max(float(np.max(np.abs(arr))), 1.0)
        if float(np.max(np.abs(arr - arr.T))) > BLOCK_SYMMETRY_TOL * scale:
            raise DomainError(f"block {name} is not symmetric")
    return arr


@dataclass(frozen=True)
class BlockInformation:
    """A partitioned information matrix ``[[i_tt, i_tp], [i_tp^T, i_pp]]``
    for a parameter split into an interest block (size p) and a nuisance
    block (size q)."""

    i_tt: np.ndarray
    i_tp: np.ndarray
    i_pp: np.ndarray

    def __post_init__(self):
        tt = _check_symmetric("interest (i_tt)", self.i_tt)
        pp = _check_symmetric("nuisance (i_pp)", self.i_pp)
        tp = np.asarray(self.i_tp, dtype=float)
        if tp.shape != (tt.shape[0], pp.shape[0]):
            raise DimensionError(
                f"cross block has shape {tp.shape}, expected "
                f"({tt.shape[0]}, {pp.shape[0]})"
            )
        for name, arr in (("i_tt", tt), ("i_tp", tp), ("i_pp", pp)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise DomainError(f"block {name} has non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "i_tt", tt)
        object.__setattr__(self, "i_tp", tp)
        object.__setattr__(self, "i_pp", pp)

    @classmethod
    def from_matrix(cls, mat, p: int) -> "BlockInformation":
        """Split a square matrix after its first ``p`` rows and columns.
        The lower-left block must be the transpose of the cross block
        ``i_tp`` within ``BLOCK_SYMMETRY_TOL`` times the matrix scale."""
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got {arr.shape}")
        if not 0 <= p <= arr.shape[0]:
            raise DomainError(
                f"split {p} outside [0, {arr.shape[0]}]"
            )
        info = cls(arr[:p, :p], arr[:p, p:], arr[p:, p:])
        if info.i_tp.size:
            # Not ``>``: a NaN in the lower-left block must fail too.
            scale = max(float(np.max(np.abs(arr))), 1.0)
            if not float(np.max(np.abs(arr[p:, :p] - info.i_tp.T))) \
                    <= BLOCK_SYMMETRY_TOL * scale:
                raise DomainError(
                    "block lower-left (i_tp^T) differs from the transpose "
                    "of the cross block i_tp"
                )
        return info

    @property
    def p(self) -> int:
        return self.i_tt.shape[0]

    @property
    def q(self) -> int:
        return self.i_pp.shape[0]

    def full(self) -> np.ndarray:
        top = np.hstack([self.i_tt, self.i_tp])
        bottom = np.hstack([self.i_tp.T, self.i_pp])
        return np.vstack([top, bottom])


def _solve_psd(name: str, mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    eig, rank = _spectrum(mat)
    if rank < eig.size:
        raise NotIdentifiableError(
            f"block {name} is singular (min eigenvalue {eig[0]:.3e})"
        )
    return np.linalg.solve(mat, rhs)


def efficient_info_parametric(info: BlockInformation) -> np.ndarray:
    """Schur complement ``i_tt - i_tp i_pp^{-1} i_tp^T``: the information
    left for the interest block after profiling out the nuisance block."""
    return info.i_tt - info.i_tp @ _solve_psd("nuisance (i_pp)", info.i_pp,
                                              info.i_tp.T)


def block_inverse_identity_check(info: BlockInformation) -> float:
    """Max-abs discrepancy between the two classical expressions for the
    inverse of the profiled information.

    The inverse of the Schur complement must equal
    ``i_tt^{-1} + i_tt^{-1} i_tp (i_pp - i_tp^T i_tt^{-1} i_tp)^{-1}
    i_tp^T i_tt^{-1}``. Exact algebra makes these identical; the returned
    number measures the numerical gap.
    """
    if info.p == 0:
        return 0.0
    eff = efficient_info_parametric(info)
    lhs = _solve_psd("profiled interest", eff, np.eye(info.p))
    itt_inv = _solve_psd("interest (i_tt)", info.i_tt, np.eye(info.p))
    schur_pp = info.i_pp - info.i_tp.T @ itt_inv @ info.i_tp
    mid = _solve_psd("profiled nuisance", schur_pp, np.eye(info.q))
    rhs = itt_inv + itt_inv @ info.i_tp @ mid @ info.i_tp.T @ itt_inv
    return float(np.max(np.abs(lhs - rhs)))


def invertibility_verdict(info: BlockInformation) -> dict:
    """Report whether the full matrix and the two blocks governing its
    invertibility (nuisance block and profiled interest block) are each
    of full rank at ``EIGEN_REL_CUT``, and whether the equivalence between
    'full invertible' and 'both pieces invertible' holds. The profiled
    block is the min-norm Schur complement ``i_tt - i_tp i_pp^+ i_tp^T``,
    the pseudoinverse taken at the same cut."""

    def invertible(mat: np.ndarray) -> tuple[bool, float]:
        eig, rank = _spectrum(mat)
        return rank == eig.size, float(eig.min(initial=np.inf))

    full_ok, full_min = invertible(info.full())
    pp_ok, pp_min = invertible(info.i_pp)
    pp_pinv = np.linalg.pinv(info.i_pp, rtol=EIGEN_REL_CUT, hermitian=True)
    eff_ok, eff_min = invertible(info.i_tt - info.i_tp @ pp_pinv @ info.i_tp.T)
    return {
        "full_invertible": full_ok,
        "full_min_eigen": full_min,
        "nuisance_invertible": pp_ok,
        "nuisance_min_eigen": pp_min,
        "profiled_invertible": eff_ok,
        "profiled_min_eigen": eff_min,
        "equivalence_holds": full_ok == (pp_ok and eff_ok),
    }
