"""Sparse linear solves: direct sparse LU and restarted GMRES with an
ILU(0) preconditioner, plus dense partial-pivot elimination for the small
per-node Newton systems.

Matrices are scipy CSR with sorted, duplicate-free column indices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolveError, SingularMatrixError

logger = logging.getLogger(__name__)

DIRECT = "direct"
KRYLOV_ILU0 = "krylov_ilu0"

_DIRECT_CHECK = 1.0e-10  # expected direct-solve residual bound (relative)


@dataclass(frozen=True)
class LinearSolveSpec:
    """Method and tolerances of a linear solve."""

    method: str = KRYLOV_ILU0
    abs_tol: float = 1.0e-8
    rel_tol: float = 1.0e-8
    max_iter: int = 2000
    restart: int = 30

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


class Ilu0:
    """In-place ILU(0) factorization on the sparsity pattern of A.

    Stores unit-lower L and U jointly in the pattern of A; the pattern is
    preserved exactly (no fill, no dropping).
    """

    def __init__(self, A):
        A = _as_sorted_csr(A)
        n = A.shape[0]
        indptr, indices = A.indptr, A.indices
        data = A.data.astype(float).copy()
        diag_ptr = np.empty(n, dtype=np.int64)
        for i in range(n):
            row = indices[indptr[i]:indptr[i + 1]]
            pos = np.searchsorted(row, i)
            if pos == len(row) or row[pos] != i:
                raise SingularMatrixError("ILU(0): missing diagonal in row %d" % i)
            diag_ptr[i] = indptr[i] + pos
        col_pos = [dict(zip(indices[indptr[i]:indptr[i + 1]].tolist(),
                            range(indptr[i], indptr[i + 1])))
                   for i in range(n)]
        for i in range(n):
            for kk in range(indptr[i], diag_ptr[i]):
                k = indices[kk]
                piv = data[diag_ptr[k]]
                if piv == 0.0:
                    raise SingularMatrixError("ILU(0): zero pivot in row %d" % k)
                lik = data[kk] / piv
                data[kk] = lik
                row_k = col_pos[k]
                for jj in range(diag_ptr[k] + 1, indptr[k + 1]):
                    j = indices[jj]
                    tgt = col_pos[i].get(j)
                    if tgt is not None:
                        data[tgt] -= lik * data[jj]
            if data[diag_ptr[i]] == 0.0:
                raise SingularMatrixError("ILU(0): zero pivot in row %d" % i)
        self.n = n
        self.indptr, self.indices, self.data = indptr, indices, data
        self.diag_ptr = diag_ptr
        combined = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        self._upper = sp.triu(combined, k=0).tocsr()
        lower = sp.tril(combined, k=-1).tocsr()
        self._lower = (lower + sp.eye(n, format="csr")).tocsr()

    def solve(self, b):
        """Apply (LU)^-1 b by forward/backward substitution."""
        y = spla.spsolve_triangular(self._lower, np.asarray(b, dtype=float),
                                    lower=True, unit_diagonal=True)
        return spla.spsolve_triangular(self._upper, y, lower=False)

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
    # GMRES's internal relative-residual test is unreachable on the badly
    # conditioned transformed systems (entries spanning e^(+-cap)), so run in
    # restart-length bursts and stop on the true residual / backward error
    M = Ilu0(A).as_operator()
    target = max(spec.abs_tol, spec.rel_tol * bnorm)
    x = np.zeros_like(b)
    # scipy's maxiter counts restart cycles; spec.max_iter budgets inner
    # iterations
    for _ in range(max(1, spec.max_iter // spec.restart)):
        x, _ = spla.gmres(A, b, x0=x, rtol=1.0e-14, atol=0.0,
                          restart=spec.restart, maxiter=1, M=M)
        if (np.linalg.norm(A @ x - b) <= target
                or backward_error(x) <= spec.rel_tol):
            return x
    res = np.linalg.norm(A @ x - b)
    if res > target and backward_error(x) > spec.rel_tol:
        raise LinearSolveError(
            "GMRES-ILU0 did not converge: final residual %.3e > %.3e" % (res, target))
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
