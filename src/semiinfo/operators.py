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

A measure computes its mean-zero basis (one SVD) once, on first use.
An operator builds its dense matrix once and factors its reduced system
(one SVD) on its first solve; every later solve on it reuses both,
whatever its right-hand side. ``analyze`` builds one operator per state
and forms V from its matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, NotIdentifiableError
from .measure import DiscreteMeasure, as_values

# A solve keeps the singular values above this times the largest.
SIGMA_MIN_REL_TOL = 1e-8
# Symmetry validation for information blocks, relative to the matrix scale.
BLOCK_SYMMETRY_TOL = 1e-8
# A block is invertible when its smallest eigenvalue exceeds this times
# its largest.
VERDICT_REL_TOL = 1e-10


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
    def _factored(self):
        """(sup, root, q, svd): the reduction of :func:`_reduce` and the
        SVD ``(u, s, vt)`` of the reduced system (None when it is empty).
        Built on the first solve and reused by every later one."""
        reduced, sup, root, q = _reduce(self._matrix, self.base,
                                        self.centering)
        svd = np.linalg.svd(reduced) if reduced.shape[0] else None
        return sup, root, q, svd


def apply(op: KernelOperator, a) -> np.ndarray:
    """Evaluate the operator at a direction, returning grid values."""
    av = as_values(a, op.size)
    w = op.base.masses
    out = op.multiplier * av + op.kernel @ (w * av)
    if op.centering:
        out = out - float(np.sum(op.multiplier * av * w))
    return out


def as_matrix(op: KernelOperator) -> np.ndarray:
    """Dense matrix M with ``M @ a == apply(op, a)`` exactly.

    The construction mirrors apply() term by term (diagonal, kernel times
    mass, rank-one centering), so the agreement is exact, not just up to
    rounding differences.
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
    ``relative_residual`` divides by the rhs norm per column. ``condition``
    and the singular values describe the reduced system actually solved
    (support-restricted, centered-projected when applicable); ``rank`` is
    the number of its singular values the solve kept.
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


def solve(op: KernelOperator, rhs) -> SolveResult:
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
    """
    rhs_arr = np.asarray(rhs, dtype=float)
    if rhs_arr.ndim not in (1, 2) or rhs_arr.shape[0] != op.size:
        raise DimensionError(
            f"rhs has shape {rhs_arr.shape}, expected ({op.size},) or "
            f"({op.size}, k)"
        )
    if not np.all(np.isfinite(rhs_arr)):
        raise DomainError("rhs must be finite")

    sup, root, q, svd = op._factored
    if svd is None:
        return SolveResult(np.zeros_like(rhs_arr), 0.0, 0.0, 1.0, 0, 0.0,
                           0.0)
    w = op.base.masses
    if rhs_arr.ndim == 2:
        root, w = root[:, np.newaxis], w[:, np.newaxis]
    target = rhs_arr[sup] * root
    if q is not None:
        target = q.T @ target

    u_mat, svals, vt = svd
    sigma_max = float(svals[0])
    sigma_min = float(svals[-1])
    condition = sigma_max / sigma_min if sigma_min > 0.0 else float("inf")
    # The singular values come sorted, so the kept ones are a prefix.
    rank = int(np.count_nonzero(svals > SIGMA_MIN_REL_TOL * sigma_max))
    y = vt[:rank].T @ ((u_mat[:, :rank].T @ target).T / svals[:rank]).T

    if q is not None:
        y = q @ y
    solution = np.zeros(rhs_arr.shape)
    solution[sup] = y / root

    resid_vec = op._matrix @ solution - rhs_arr
    if op.centering:
        # The equation lives on the mean-zero subspace; the residual's
        # constant component is an artifact of the kernel representative.
        total = float(np.sum(op.base.masses))
        resid_vec = resid_vec - np.sum(resid_vec * w, axis=0) / total
    col_res = np.sqrt(np.sum(resid_vec * resid_vec * w, axis=0))
    col_rhs = np.sqrt(np.sum(rhs_arr * rhs_arr * w, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(col_rhs > 0.0, col_res / col_rhs, 0.0)
    return SolveResult(solution, float(np.max(col_res, initial=0.0)),
                       float(np.max(rel, initial=0.0)), condition, rank,
                       sigma_min, sigma_max)


def min_eigen_sym(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of a square matrix."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        return 0.0
    sym = 0.5 * (arr + arr.T)
    return float(np.linalg.eigvalsh(sym).min())


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
    reduced = _reduce(arr, eta, centered)[0]
    if reduced.shape[0] == 0:
        return 0.0
    return min_eigen_sym(reduced)


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
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got {arr.shape}")
        if not 0 <= p <= arr.shape[0]:
            raise DomainError(
                f"split {p} outside [0, {arr.shape[0]}]"
            )
        return cls(arr[:p, :p], arr[:p, p:], arr[p:, p:])

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
    if mat.shape[0] == 0:
        return np.zeros((0,) + rhs.shape[1:])
    eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eig[-1] <= 0.0 or eig[0] <= 1e-12 * eig[-1]:
        raise NotIdentifiableError(
            f"block {name} is singular (min eigenvalue {eig[0]:.3e})"
        )
    return np.linalg.solve(mat, rhs)


def efficient_info_parametric(info: BlockInformation) -> np.ndarray:
    """Schur complement ``i_tt - i_tp i_pp^{-1} i_tp^T``: the information
    left for the interest block after profiling out the nuisance block."""
    if info.q == 0:
        return info.i_tt.copy()
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
    if info.q == 0:
        return float(np.max(np.abs(lhs - itt_inv)))
    schur_pp = info.i_pp - info.i_tp.T @ itt_inv @ info.i_tp
    mid = _solve_psd("profiled nuisance", schur_pp, np.eye(info.q))
    rhs = itt_inv + itt_inv @ info.i_tp @ mid @ info.i_tp.T @ itt_inv
    return float(np.max(np.abs(lhs - rhs)))


def invertibility_verdict(info: BlockInformation) -> dict:
    """Report whether the full matrix and the two blocks governing its
    invertibility (nuisance block and profiled interest block) are each
    numerically invertible, and whether the equivalence between 'full
    invertible' and 'both pieces invertible' holds at the relative
    eigenvalue threshold ``VERDICT_REL_TOL``."""

    def invertible(mat: np.ndarray) -> tuple[bool, float]:
        if mat.shape[0] == 0:
            return True, float("inf")
        eig = np.linalg.eigvalsh(0.5 * (mat + mat.T))
        scale = max(float(eig[-1]), 0.0)
        ok = bool(scale > 0.0 and eig[0] > VERDICT_REL_TOL * scale)
        return ok, float(eig[0])

    full_ok, full_min = invertible(info.full())
    pp_ok, pp_min = invertible(info.i_pp)
    try:
        eff = efficient_info_parametric(info)
        eff_ok, eff_min = invertible(eff)
    except NotIdentifiableError:
        eff_ok, eff_min = False, 0.0
    return {
        "full_invertible": full_ok,
        "full_min_eigen": full_min,
        "nuisance_invertible": pp_ok,
        "nuisance_min_eigen": pp_min,
        "profiled_invertible": eff_ok,
        "profiled_min_eigen": eff_min,
        "equivalence_holds": full_ok == (pp_ok and eff_ok),
    }
