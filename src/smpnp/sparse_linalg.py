"""Sparse linear solves: direct sparse LU, and one preconditioned
conjugate-gradient loop (``_pcg``) with one stopping rule, preconditioned
either by the SuperLU factor of a nearby system, which a run keeps, or by
the Jacobi diagonal.

Matrices are scipy CSR with sorted, duplicate-free column indices.
"""

from __future__ import annotations

import contextlib
import copy
import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import LinearSolveError, SingularMatrixError, require

logger = logging.getLogger(__name__)

DIRECT = "direct"
KRYLOV_ILU0 = "krylov_ilu0"

_REFINE_ABOVE = 1.0e-10  # backward error that triggers one refinement step
_ACCEPT_BELOW = 1.0e-8  # backward error a returned solution must meet
_PCG_TOL = 1.0e-12  # CG stops when max|M^-1 r| <= _PCG_TOL max|x|
_PCG_MAX_STEPS = 40  # CG steps preconditioned by a kept factor
_CG_MAX_ITER = 2000  # CG steps preconditioned by the Jacobi diagonal

_KEEP = 2  # SuperLU factors a spec keeps for reuse
_SPAN_BOUND = 1.5  # largest diagonal-ratio span a kept factor is tried on

# a SuperLU factor with the pattern key and the diagonal of its matrix
_Kept = namedtuple("_Kept", "key diag lu")


class KeptFactors:
    """The SuperLU factors of recent direct solves, kept for reuse:
    ``entries`` holds at most _KEEP _Kept factors, least recently used
    first.  ``factorizations`` and ``pcg_steps`` count the fresh
    factorizations and the CG steps (of either path) of the solves that
    used this store."""

    def __init__(self):
        self.entries = []
        self.factorizations = 0
        self.pcg_steps = 0

    def closest(self, key, diag):
        """The kept entry of pattern ``key`` whose diagonal ratio to ``diag``
        has the smallest span max(d/d_F) / min(d/d_F), if that span is at
        most _SPAN_BOUND; else None."""
        best, best_span = None, _SPAN_BOUND
        for entry in self.entries:
            if entry.key != key:
                continue
            ratio = diag / entry.diag
            lo, hi = ratio.min(), ratio.max()
            if lo > 0.0 and hi / lo <= best_span:
                best, best_span = entry, hi / lo
        return best

    def use(self, entry):
        """Mark ``entry`` most recently used."""
        self.entries = [e for e in self.entries if e is not entry] + [entry]

    def make_room(self):
        """Drop the least recently used entries until one more fits, before
        a new factor is built: at most _KEEP factors are alive at a time."""
        del self.entries[:max(0, len(self.entries) + 1 - _KEEP)]


@dataclass(frozen=True)
class LinearSolveSpec:
    """Method of a Block-1 linear solve, plus the store of its kept factors
    and step counts, and the start of its CG iteration (see ``solve``).
    ``kept`` and ``start`` are left out of the constructor, of equality and
    of repr: two specs of one method are equal, and each has no store and
    starts from x = 0.  A spec with no store keeps no factor beyond one
    solve; a run gives its own copy a store (``keeping_factors``), so its
    factors die with the run."""

    method: str = KRYLOV_ILU0
    kept: KeptFactors = field(default=None, init=False, compare=False, repr=False)
    start: np.ndarray = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        require(self.method in (DIRECT, KRYLOV_ILU0), ValueError,
                "unknown linear solve method %r" % self.method, "method")

    def _with(self, name, value):
        spec = copy.copy(self)
        object.__setattr__(spec, name, value)
        return spec

    def keeping_factors(self):
        """This spec with a fresh store: a copy whose solves keep their
        factors and count their work in ``kept``."""
        return self._with("kept", KeptFactors())

    def starting_at(self, x0):
        """This spec with CG started from ``x0``: a copy that shares ``kept``."""
        return self._with("start", x0)


def _as_sorted_csr(A):
    """A as a CSR matrix with sorted, duplicate-free column indices.  On an
    assembled matrix, which is canonical already, the conversion shares its
    arrays and the two calls only check them, so the shared read-only
    pattern is neither copied nor written."""
    A = sp.csr_matrix(A)
    A.sum_duplicates()
    A.sort_indices()
    return A


def _pattern_key(A):
    return A.indptr.tobytes(), A.indices.tobytes()


_ORDERING_CACHE_SIZE = 8
_orderings = {}  # (indptr bytes, indices bytes) -> _Ordering, oldest first


class Ilu0:
    """Placeholder that the benchmark's tracer wraps; no solve builds it
    (the Krylov path preconditions CG by the Jacobi diagonal)."""


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
    key = _pattern_key(A)
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


def inf_norm(A):
    """max_i sum_j |a_ij|: the row sums of |A| by one sparse product with
    the ones vector (rows may be empty), |A| taking A's own index arrays."""
    A = sp.csr_matrix(A)
    abs_a = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    return (abs_a @ np.ones(A.shape[1])).max(initial=0.0)


def _backward_error(A, x, b, a_norm):
    # normwise: transformed systems carry entries spanning e^(+-cap), so
    # the raw residual alone has no fixed scale; a_norm is inf_norm(A)
    scale = a_norm * np.linalg.norm(x) + np.linalg.norm(b)
    return np.linalg.norm(A @ x - b) / max(scale, 1.0e-300)


def _checked_solve(A, b, apply, label, a_norm, start=None):
    """x = apply(b, start), accepted by its normwise backward error with
    ``a_norm`` = inf_norm(A) (see _backward_error): above _REFINE_ABOVE one refinement step
    x += apply(b - A x, None), a correction from zero, runs and logs a
    warning, and an error still above _ACCEPT_BELOW, or NaN, raises
    LinearSolveError."""
    x = apply(b, start)
    if not _backward_error(A, x, b, a_norm) <= _REFINE_ABOVE:
        x = x + apply(b - A @ x, None)
        err = _backward_error(A, x, b, a_norm)
        if not err <= _ACCEPT_BELOW:
            raise LinearSolveError("%s backward error %.3e too large" % (label, err))
        logger.warning("%s backward error %.3e after one refinement step", label, err)
    return x


def solve_factored(A, lu, b, a_norm):
    """Solve A x = b with ``lu``, a SuperLU factorization of A; the answer
    passes the backward-error check of _checked_solve.  ``a_norm`` is
    inf_norm(A)."""
    return _checked_solve(A, b, lambda rhs, _: lu.solve(rhs), "direct solve", a_norm)


class _Jacobi:
    """The preconditioner M = diag(A) of a positive diagonal."""

    def __init__(self, diag):
        bad = np.flatnonzero(~(diag > 0.0))
        if bad.size:
            raise LinearSolveError("CG needs a positive diagonal: row %d has %g"
                                   % (bad[0], diag[bad[0]]))
        self.inverse = 1.0 / diag

    def solve(self, r):
        return r * self.inverse


def _pcg(A, b, M, kept, max_steps, start=None):
    """CG on A x = b preconditioned by M (``M.solve`` applies M^-1), from
    the spec's start (``start``; x = 0 when None), each step counted in
    ``kept.pcg_steps``.  It stops when max|M^-1 r| <= _PCG_TOL max|x|, an
    estimate of the forward error when M is close to A, not a bound: the
    true forward error can exceed it (a seed-1 benchmark run reads 4.1e-12
    on iv-r12-direct, and the tests allow 1e-10).  A zero b gives x = 0
    whatever the start, and a start with a zero residual is returned as it
    is.  Raises LinearSolveError on
    a p^T A p that is zero or not finite, and when ``max_steps`` steps do
    not stop."""
    if not b.any():
        return np.zeros_like(b)
    if start is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(start, dtype=float)
        r = b - A @ x
        if not r.any():
            return x
    p = z = M.solve(r)
    rz = r @ z
    for _ in range(max_steps):
        q = A @ p
        pq = p @ q
        if pq == 0.0 or not math.isfinite(pq):
            raise LinearSolveError("CG step with p^T A p = %g" % pq)
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = M.solve(r)
        kept.pcg_steps += 1
        if np.abs(z).max() <= _PCG_TOL * np.abs(x).max():
            return x
        rz, rz_old = r @ z, rz
        p *= rz / rz_old
        p += z
    raise LinearSolveError("CG did not stop in %d steps" % max_steps)


def _direct_solve(A, b, kept: KeptFactors, start, a_norm):
    """Solve A x = b by PCG from ``start`` on the closest kept factor of A's
    pattern, or, when none is close or PCG fails, with a fresh factor that
    is kept."""
    key, diag = _pattern_key(A), A.diagonal()
    entry = kept.closest(key, diag)
    if entry is not None:
        with contextlib.suppress(LinearSolveError):
            x = _checked_solve(A, b,
                               lambda rhs, x0: _pcg(A, rhs, entry.lu, kept, _PCG_MAX_STEPS, x0),
                               "PCG solve", a_norm, start)
            kept.use(entry)
            return x
    kept.make_room()
    lu = factorize(A)
    kept.factorizations += 1
    kept.use(_Kept(key, diag, lu))
    return solve_factored(A, lu, b, a_norm)


def solve(A, b, spec: LinearSolveSpec):
    """Solve A x = b per ``spec`` (the Block-1 systems) with _pcg, which
    starts from ``spec.start`` and stops on a forward-error estimate, not a
    residual norm (Arioli, Numer. Math. 97, 2004); answers pass
    _checked_solve, else LinearSolveError.  The start only moves where CG
    begins: each stop rule and check is the one of a cold solve.

    Direct: a run's Block-1 coefficients change little from sweep to sweep,
    so one system's factor is a near-perfect preconditioner for the next
    (Knoll & Keyes, J. Comput. Phys. 193, 2004): for per-tet weighted
    stiffness matrices of one pattern the eigenvalues of M^-1 A lie within
    the range of the per-tet weight ratios.  ``spec.kept`` holds the _KEEP
    SuperLU factors most recently built or used; a system gets
    _PCG_MAX_STEPS steps on the closest one of its pattern (see
    KeptFactors.closest), or else a fresh factor, which is kept.  A spec
    with no store (``kept`` None) solves with a store of this call alone.

    Krylov: _CG_MAX_ITER steps preconditioned by a positive diag(A), which
    is CG on S A S y = S b, S = diag(A)^-1/2.  The unit diagonal of S A S
    takes the e^(+-cap) span of the transformed diagonals out of the
    iteration and is within a small factor of the best diagonal scaling of
    an SPD matrix (van der Sluis, Numer. Math. 14, 1969)."""
    A = _as_sorted_csr(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
        raise LinearSolveError("shape mismatch: A %s, b %s" % (A.shape, b.shape))
    a_norm = inf_norm(A)
    kept = KeptFactors() if spec.kept is None else spec.kept
    if spec.method == DIRECT:
        return _direct_solve(A, b, kept, spec.start, a_norm)
    jacobi = _Jacobi(A.diagonal())
    return _checked_solve(A, b, lambda rhs, x0: _pcg(A, rhs, jacobi, kept, _CG_MAX_ITER, x0),
                          "CG solve", a_norm, spec.start)
