"""Sparse linear solves: direct sparse LU, and conjugate gradients on the
symmetrically Jacobi-scaled system with an ILU(0) preconditioner (IC(0) for
the symmetric matrices solved here).

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


_PLAN_CACHE_SIZE = 8
_plans = {}  # (indptr bytes, indices bytes) -> _PatternPlan, oldest first


class _PatternPlan:
    """What every factorization of one sorted CSR pattern shares, each part
    built by the first factorization that needs it: the ILU(0) schedule
    (``ilu0``, an _Ilu0Plan) and SuperLU's fill-reducing ordering
    (``ordering``, an _Ordering)."""

    def __init__(self):
        self.ilu0 = None
        self.ordering = None


def _pattern_plan(A):
    """The cached plan of sorted CSR A's pattern; an empty one on first use."""
    key = (A.indptr.tobytes(), A.indices.tobytes())
    plan = _plans.get(key)
    if plan is None:
        if len(_plans) >= _PLAN_CACHE_SIZE:
            del _plans[next(iter(_plans))]
        plan = _plans[key] = _PatternPlan()
    return plan


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
        shared = _pattern_plan(A)
        if shared.ilu0 is None:
            shared.ilu0 = _Ilu0Plan(A.indptr, A.indices)
        plan = shared.ilu0
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

    def pattern_matrix(self):
        """Combined factor values on the original pattern (for testing)."""
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))


class _Ordering:
    """SuperLU's symmetric fill-reducing ordering of one CSR pattern.

    With q = argsort(perm_c), the reordered matrix is B = A[q][:, q]: entry
    a_rc moves to (perm_c[r], perm_c[c]).  ``gather`` takes A's CSR data to
    B's CSC data, whose pattern is ``indices`` and ``indptr``; these arrays
    are read-only, as every factorization of the pattern shares them.
    """

    def __init__(self, A, perm_c):
        n = A.shape[0]
        perm_c = np.asarray(perm_c, dtype=np.intp)
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
    pattern and kept in the pattern's cached plan; every factorization,
    the first included, then factors the reordered matrix in natural order,
    which gives the same fill without the ordering's cost, and the same
    answer whether or not the pattern was factored before.  Threshold
    pivoting runs on every factorization.
    """
    A = _as_sorted_csr(A)
    plan = _pattern_plan(A)
    options = dict(SymmetricMode=True)
    try:
        if plan.ordering is None:
            # the minimum-degree factor itself is dropped at once
            perm_c = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", options=options).perm_c
            plan.ordering = _Ordering(A, perm_c)
        lu = spla.splu(plan.ordering.reordered(A), permc_spec="NATURAL", options=options)
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SingularMatrixError(str(exc)) from exc
    return _ReorderedLU(lu, plan.ordering.q)


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
    S = diag(A)^-1/2: As has a unit diagonal, so the e^(+-cap) span of the
    transformed diagonals leaves the stopping test, and keeps A's pattern,
    so its ILU(0) (IC(0) up to rounding) reuses the pattern's cached plan.
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
    M = spla.LinearOperator(A.shape, matvec=Ilu0(As).solve)

    def cg(rhs):
        y, _ = spla.cg(As, scale * rhs, rtol=_CG_TOL, atol=0.0,
                       maxiter=_CG_MAX_ITER, M=M)
        return scale * y

    return _checked_solve(A, b, cg, "CG-ILU0 solve")
