"""Sparse linear solves: direct sparse LU, and conjugate gradients on the
symmetrically Jacobi-scaled system with an ILU(0) preconditioner (IC(0) for
the symmetric matrices solved here), plus dense partial-pivot elimination
for the small per-node Newton systems.

Matrices are scipy CSR with sorted, duplicate-free column indices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# SuperLU's triangular solve, called with the arguments that
# spla.spsolve_triangular builds for CSR factors (see Ilu0.solve)
from scipy.sparse.linalg._dsolve._superlu import gstrs as _gstrs

from .errors import LinearSolveError, SingularMatrixError

logger = logging.getLogger(__name__)

DIRECT = "direct"
KRYLOV_ILU0 = "krylov_ilu0"

_DIRECT_CHECK = 1.0e-10  # expected direct-solve residual bound (relative)
_CG_TOL = 1.0e-12  # CG stopping bound on the scaled residual (relative)


@dataclass(frozen=True)
class LinearSolveSpec:
    """Method and tolerances of a linear solve."""

    method: str = KRYLOV_ILU0
    abs_tol: float = 1.0e-8
    rel_tol: float = 1.0e-8
    max_iter: int = 2000

    def __post_init__(self):
        if self.method not in (DIRECT, KRYLOV_ILU0):
            raise ValueError("unknown linear solve method %r" % self.method)
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


def _as_sorted_csr(A):
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    A.sort_indices()
    return A


_PLAN_CACHE_SIZE = 8
_plans = {}  # (indptr bytes, indices bytes) -> _Ilu0Plan, oldest first


class _Ilu0Plan:
    """Pattern-only data of ILU(0) on one sorted CSR pattern.

    Elimination step (i, k) turns a_ik into l_ik = a_ik / u_kk and applies
    a_ij -= l_ik u_kj to the entries of row i that meet row k right of the
    diagonal.  The steps of row i run in column order, as in the row-by-row
    IKJ loop, and a step runs once its pivot row is finished; each step is
    scheduled at the first time both hold.  The steps of one time touch
    distinct rows and read only finished ones, so each runs as one
    vectorized group: ``groups`` holds per time the positions of a_ik and
    u_kk and the update triples (target, source, owner), owner indexing
    the group's a_ik.  The split of the combined factor into SuperLU's CSC
    arguments is kept as positions into the factor data.
    """

    def __init__(self, indptr, indices):
        n = len(indptr) - 1
        counts = np.diff(indptr)
        rows = np.repeat(np.arange(n), counts)
        on_diag = indices == rows
        has_diag = np.zeros(n, dtype=bool)
        has_diag[rows[on_diag]] = True
        if not has_diag.all():
            raise SingularMatrixError(
                "ILU(0): missing diagonal in row %d" % int(np.argmin(has_diag)))
        self.diag_ptr = np.flatnonzero(on_diag)
        n_lower = self.diag_ptr - indptr[:-1]

        cols, ptr, n_below = indices.tolist(), indptr.tolist(), n_lower.tolist()
        finished = [-1] * n  # time of each row's last step
        time = []  # per step, i.e. per strictly lower entry in CSR order
        for i in range(n):
            t = -1
            for k in cols[ptr[i]:ptr[i] + n_below[i]]:
                t = max(t, finished[k]) + 1
                time.append(t)
            finished[i] = t
        time = np.asarray(time, dtype=np.int64)

        # every (i, k) pair with a_ik in the pattern, and per pair the
        # entries u_kj (j > k) of row k that meet an entry a_ij of row i
        lik = np.flatnonzero(indices < rows)
        i_of, k_of = rows[lik], indices[lik]
        n_upper = indptr[k_of + 1] - self.diag_ptr[k_of] - 1
        owner = np.repeat(np.arange(lik.size), n_upper)
        first = np.cumsum(n_upper) - n_upper
        src = self.diag_ptr[k_of][owner] + 1 + np.arange(owner.size) - first[owner]
        keys = rows * n + indices
        want = i_of[owner] * n + indices[src]
        tgt = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        hit = keys[tgt] == want
        tgt, src, owner = tgt[hit], src[hit], owner[hit]

        order = np.argsort(time, kind="stable")
        upd_order = np.argsort(time[owner], kind="stable")
        ids, cuts = np.unique(time[order], return_index=True)
        upd_cuts = np.searchsorted(time[owner][upd_order], ids)
        slot = np.empty(lik.size, dtype=np.int64)
        self.groups = []
        for members, upd in zip(np.split(order, cuts[1:]), np.split(upd_order, upd_cuts[1:])):
            slot[members] = np.arange(members.size)
            # intp positions: numpy converts other index types on every use
            self.groups.append((lik[members], self.diag_ptr[k_of[members]],
                                tgt[upd], src[upd], slot[owner[upd]]))

        # CSR rows of L (strict lower plus diagonal) and U (diagonal plus
        # strict upper), which are the CSC columns of their transposes
        self.lower_pos = np.flatnonzero(indices <= rows)
        self.lower_indices = indices[self.lower_pos].astype(np.int32)
        self.lower_indptr = np.concatenate([[0], np.cumsum(n_lower + 1)]).astype(np.int32)
        self.lower_diag = self.lower_indptr[1:] - 1
        self.upper_pos = np.flatnonzero(indices >= rows)
        self.upper_indices = indices[self.upper_pos].astype(np.int32)
        self.upper_indptr = np.concatenate(
            [[0], np.cumsum(counts - n_lower)]).astype(np.int32)


def _ilu0_plan(indptr, indices):
    """The cached plan of a CSR pattern; built on first use."""
    key = (indptr.tobytes(), indices.tobytes())
    plan = _plans.get(key)
    if plan is None:
        plan = _Ilu0Plan(indptr, indices)
        if len(_plans) >= _PLAN_CACHE_SIZE:
            del _plans[next(iter(_plans))]
        _plans[key] = plan
    return plan


class Ilu0:
    """ILU(0) factorization on the sparsity pattern of A.

    Stores unit-lower L and U jointly in the pattern of A; the pattern is
    preserved exactly (no fill, no dropping).  The values equal those of
    the row-by-row IKJ elimination bit for bit; the elimination runs in the
    vectorized step groups of the pattern's cached plan.
    """

    def __init__(self, A):
        A = _as_sorted_csr(A)
        n = A.shape[0]
        plan = _ilu0_plan(A.indptr, A.indices)
        data = A.data.astype(float)  # a copy
        # zero pivots are checked once every group has run: the first such
        # row is the one the IKJ loop stops at, as earlier rows never read it
        with np.errstate(divide="ignore", invalid="ignore"):
            for lik, piv, tgt, src, own in plan.groups:
                factor = data[lik] / data[piv]
                data[lik] = factor
                data[tgt] -= factor[own] * data[src]
        diag = data[plan.diag_ptr]
        zero = np.flatnonzero(diag == 0.0)
        if zero.size:
            raise SingularMatrixError("ILU(0): zero pivot in row %d" % zero[0])
        self.n = n
        self.indptr, self.indices, self.data = A.indptr, A.indices, data
        self.diag_ptr = plan.diag_ptr
        # gstrs arguments of spsolve_triangular(L, unit_diagonal=True) and
        # spsolve_triangular(U) on the CSR factors: trans "T" solves with
        # the transposed CSC views; L's diagonal is held as explicit zeros,
        # and U is scaled by 1 / diag(U) column-wise, undone after the solve
        eye_cols = np.arange(n + 1, dtype=np.int32)
        lower = data[plan.lower_pos]
        lower[plan.lower_diag] = 0.0
        self._lower_args = ("T", n, n, np.ones(n), eye_cols[:-1], eye_cols,
                            n, lower.size, lower, plan.lower_indices, plan.lower_indptr)
        self._inv_diag = 1.0 / diag
        upper = data[plan.upper_pos] * self._inv_diag[plan.upper_indices]
        self._upper_args = ("T", n, upper.size, upper, plan.upper_indices,
                            plan.upper_indptr, n, 0, np.empty(0),
                            np.empty(0, dtype=np.int32), np.zeros(n + 1, dtype=np.int32))

    def solve(self, b):
        """Apply (LU)^-1 b (one vector, or one per column) by
        forward/backward substitution."""
        y, info = _gstrs(*self._lower_args, np.asarray(b, dtype=float))
        if not info:
            x, info = _gstrs(*self._upper_args, y)
        if info:
            raise SingularMatrixError("ILU(0) triangular solve failed (info %d)" % info)
        return x * self._inv_diag.reshape((-1,) + (1,) * (x.ndim - 1))

    def as_operator(self):
        return spla.LinearOperator((self.n, self.n), matvec=self.solve)

    def pattern_matrix(self):
        """Combined factor values on the original pattern (for testing)."""
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))


def factorize(A):
    """SuperLU factorization of A with a symmetric fill-reducing ordering.

    The matrices solved here have a symmetric pattern (stiffness operators
    with pinned Dirichlet rows), so minimum degree on A^T + A with diagonal
    pivots preferred gives less fill than SuperLU's default COLAMD.
    """
    try:
        return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                         options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularMatrixError(str(exc)) from exc


class ScaledCG:
    """Preconditioned CG for a symmetric positive definite A.

    CG runs on As y = S b with As = S A S, S = diag(A)^-1/2, and returns
    x = S y.  The transformed systems carry diagonals spanning e^(+-cap);
    As has a unit diagonal instead, so that span leaves the stopping test
    and the conditioning CG sees.  As keeps A's pattern, so its ILU(0)
    (IC(0) up to rounding, A being symmetric) reuses the pattern's cached
    plan.  The iterate is not checked here: callers check it against A.
    """

    def __init__(self, A):
        A = _as_sorted_csr(A)
        diag = A.diagonal()
        bad = np.flatnonzero(~(diag > 0.0))
        if bad.size:
            raise LinearSolveError("CG needs a positive diagonal: row %d has %g"
                                   % (bad[0], diag[bad[0]]))
        self.scale = 1.0 / np.sqrt(diag)
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        self.A = sp.csr_matrix(
            (A.data * self.scale[rows] * self.scale[A.indices], A.indices, A.indptr),
            shape=A.shape)
        self._precond = Ilu0(self.A).as_operator()

    def solve(self, b, max_iter):
        """CG iterate for A x = b after at most ``max_iter`` steps."""
        y, _ = spla.cg(self.A, self.scale * b, rtol=_CG_TOL, atol=0.0,
                       maxiter=max_iter, M=self._precond)
        return self.scale * y


def solve(A, b, spec: LinearSolveSpec):
    """Solve A x = b per ``spec``; raises LinearSolveError on failure."""
    A = _as_sorted_csr(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise LinearSolveError("shape mismatch: A %s, b %s" % (A.shape, b.shape))
    bnorm = np.linalg.norm(b)
    anorm = spla.norm(A, np.inf) if A.nnz else 0.0

    def backward_error(x):
        # normwise backward error: transformed systems carry entries spanning
        # e^(+-cap), so the raw residual alone has no fixed scale
        scale = anorm * np.linalg.norm(x) + bnorm
        return np.linalg.norm(A @ x - b) / max(scale, 1.0e-300)

    if spec.method == DIRECT:
        lu = factorize(A)
        x = lu.solve(b)
        if backward_error(x) > _DIRECT_CHECK:
            x = x + lu.solve(b - A @ x)  # one refinement step
            err = backward_error(x)
            if err > 1.0e-6:
                raise LinearSolveError("direct solve backward error %.3e too large" % err)
            logger.warning("direct solve backward error %.3e above check bound", err)
        return x
    x = ScaledCG(A).solve(b, spec.max_iter)
    res = np.linalg.norm(A @ x - b)
    target = max(spec.abs_tol, spec.rel_tol * bnorm)
    # written so that a NaN residual fails the check
    if not (res <= target or backward_error(x) <= spec.rel_tol):
        raise LinearSolveError(
            "CG-ILU0 did not converge: final residual %.3e > %.3e" % (res, target))
    return x


def small_dense_solve(A, b):
    """Gaussian elimination with partial pivoting for n <= 8 systems."""
    A = np.array(A, dtype=float)
    x = np.array(b, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or x.shape != (n,):
        raise LinearSolveError("shape mismatch in small dense solve")
    if n > 8:
        raise LinearSolveError("small_dense_solve limited to n <= 8, got %d" % n)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[piv, k]) < 1.0e-14:
            raise SingularMatrixError("singular pivot in column %d" % k)
        if piv != k:
            A[[k, piv]] = A[[piv, k]]
            x[[k, piv]] = x[[piv, k]]
        m = A[k + 1:, k] / A[k, k]
        A[k + 1:, k:] -= m[:, None] * A[k, k:]
        x[k + 1:] -= m * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - A[k, k + 1:] @ x[k + 1:]) / A[k, k]
    return x
