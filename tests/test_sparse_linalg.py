import logging
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from smpnp import electrostatics, fem_core, mesh as meshmod, sparse_linalg
from smpnp.errors import LinearSolveError, SingularMatrixError
from smpnp.physics_model import ModelConstants
from smpnp.sparse_linalg import LinearSolveSpec, solve

DIRECT = LinearSolveSpec(method="direct")
KRYLOV = LinearSolveSpec(method="krylov_ilu0")


def lap1d(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


def test_solve_identity(rng):
    b = rng.normal(size=10)
    x = solve(sp.eye(10, format="csr"), b, DIRECT)
    assert np.allclose(x, b)


def test_solve_2x2_hand_elimination():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = solve(A, np.array([3.0, 4.0]), DIRECT)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_krylov_matches_direct_on_laplacian(rng):
    A = lap1d(50)
    b = rng.normal(size=50)
    xd = solve(A, b, DIRECT)
    xk = solve(A, b, KRYLOV)
    assert np.linalg.norm(xk - xd) <= 1e-6 * np.linalg.norm(xd)


def test_krylov_matches_direct_on_spd(rng):
    B = rng.normal(size=(30, 30))
    A = sp.csr_matrix(B @ B.T + 30 * np.eye(30))
    b = rng.normal(size=30)
    assert np.allclose(solve(A, b, KRYLOV), solve(A, b, DIRECT), atol=1e-6)


def test_solve_shape_mismatch():
    with pytest.raises(LinearSolveError):
        solve(sp.eye(3, format="csr"), np.zeros(4), DIRECT)


def test_direct_singular():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(LinearSolveError):
        solve(A, np.array([1.0, 2.0]), DIRECT)


@pytest.mark.parametrize("spec", [DIRECT, KRYLOV], ids=["direct", "krylov"])
def test_nan_right_hand_side_raises(spec):
    A = sp.diags(np.full(5, 2.0), format="csr")
    with pytest.raises(LinearSolveError):
        solve(A, np.array([1.0, np.nan, 1.0, 1.0, 1.0]), spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        LinearSolveSpec(method="cholesky")
    # the acceptance rule is fixed: no tolerance to set
    with pytest.raises(TypeError):
        LinearSolveSpec(abs_tol=1e-8)


def test_spec_has_no_restart():
    # CG has no restart length to set
    with pytest.raises(TypeError):
        LinearSolveSpec(restart=30)


@pytest.mark.parametrize("diag", [0.0, -2.0, np.nan])
def test_krylov_rejects_nonpositive_diagonal(diag):
    A = lap1d(6).tolil()
    A[3, 3] = diag
    # the check comes before S = diag(A)^-1/2 is formed: a square root or
    # division of the bad entry would raise FloatingPointError here
    with np.errstate(all="raise"), \
            mock.patch.object(spla, "cg") as cg, \
            pytest.raises(LinearSolveError, match="positive diagonal: row 3"):
        solve(A.tocsr(), np.ones(6), KRYLOV)
    cg.assert_not_called()


def _convection_diffusion(m, skew):
    """5-point Laplacian on an m x m grid plus a skew-symmetric part."""
    T = sp.diags([-np.ones(m - 1), 2 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    lap = sp.kron(sp.eye(m), T) + sp.kron(T, sp.eye(m))
    n = m * m
    skw = sp.diags([np.ones(n - 1), -np.ones(n - 1)], [-1, 1]) \
        + sp.diags([np.ones(n - m), -np.ones(n - m)], [-m, m])
    return (lap + skew * skw).tocsr()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # CG breakdown
@pytest.mark.parametrize("skew", [0.1, 1.0, 5.0])
def test_krylov_nonsymmetric_is_rejected_or_checked(skew, rng):
    # CG assumes symmetry; on a nonsymmetric matrix it may stall, diverge or
    # break down to NaN, and then solve must raise rather than return
    A = _convection_diffusion(12, skew)
    b = rng.normal(size=A.shape[0])
    try:
        x = solve(A, b, KRYLOV)
    except LinearSolveError:
        return
    res = np.linalg.norm(A @ x - b)
    bwd = res / (spla.norm(A, np.inf) * np.linalg.norm(x) + np.linalg.norm(b))
    assert bwd <= 1e-8


@pytest.mark.parametrize("bad", [np.zeros, lambda n: np.full(n, np.nan)])
def test_krylov_returns_only_checked_answers(bad):
    # whatever the iteration hands back is checked against A and b
    A = lap1d(20)
    with mock.patch.object(spla, "cg", return_value=(bad(20), 0)), \
            pytest.raises(LinearSolveError, match="backward error"):
        solve(A, np.ones(20), KRYLOV)


def _inexact_once(offset):
    """An exact solve of A x = rhs whose first answer is shifted by
    ``offset``; returns it and the list of its right-hand sides."""
    calls = []

    def solve_(A, rhs):
        calls.append(rhs)
        x = spla.spsolve(sp.csc_matrix(A), rhs)
        return x + offset if len(calls) == 1 else x
    return solve_, calls


@pytest.mark.parametrize("spec", [DIRECT, KRYLOV], ids=["direct", "krylov"])
def test_inexact_answer_is_refined_once(spec, caplog):
    # a first answer with backward error near 1e-9 takes one refinement
    # step, logs one warning and is returned
    A, b = lap1d(20), np.ones(20)
    fake, calls = _inexact_once(1e-6)
    if spec == DIRECT:
        patch = mock.patch.object(sparse_linalg, "factorize",
                                  return_value=SimpleNamespace(solve=lambda r: fake(A, r)))
    else:
        patch = mock.patch.object(spla, "cg", side_effect=lambda As, r, **kw: (fake(As, r), 0))
    with patch, mock.patch.object(sparse_linalg, "_backward_error",
                                  wraps=sparse_linalg._backward_error) as err, \
            caplog.at_level(logging.WARNING, logger="smpnp.sparse_linalg"):
        x = solve(A, b, spec)
    assert len(calls) == 2
    first, second = [sparse_linalg._backward_error(*c.args) for c in err.call_args_list]
    assert 1e-10 < first < 1e-8 and second <= 1e-15
    assert len(caplog.records) == 1 and "refinement" in caplog.messages[0]
    assert np.allclose(x, spla.spsolve(A.tocsc(), b), rtol=1e-14)


@pytest.fixture(scope="module")
def channel12_systems():
    """R=12 pinned Block-1 system (nodal weights e^+-45) and the pinned box
    Poisson operator, a second pattern."""
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=12))
    sub = meshmod.extract_solvent_submesh(mesh)
    r = np.random.default_rng(12)
    weight = np.exp(r.uniform(-45.0, 45.0, size=sub.num_vertices))
    bottom, top = sub.dirichlet_side_nodes()
    d = fem_core.DirichletSet(np.concatenate([bottom, top]),
                              np.concatenate([np.full(len(bottom), 0.1),
                                              np.full(len(top), 2.5)]))
    block1, b = fem_core.pinned_stiffness_system(sub, weight, d)
    box = electrostatics.box_poisson(mesh, ModelConstants())
    return {"block1": (block1, b), "box": (box.A, None)}


def _mmd_lu(A):
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))


def test_ordering_cache_is_bounded(monkeypatch):
    # one ordering per pattern, the oldest dropped first
    monkeypatch.setattr(sparse_linalg, "_orderings", {})
    sizes = range(5, 5 + sparse_linalg._ORDERING_CACHE_SIZE + 3)
    for n in sizes:
        sparse_linalg.factorize(lap1d(n))
    keys = [(A.indptr.tobytes(), A.indices.tobytes()) for A in map(lap1d, sizes)]
    assert list(sparse_linalg._orderings) == keys[3:]


@pytest.mark.parametrize("which", ["block1", "box"])
def test_ordering_equals_minimum_degree_splu(which, channel12_systems):
    # the throwaway incomplete factor orders the columns as a full
    # minimum-degree factorization does, so the factors stay bitwise
    A, _ = channel12_systems[which]
    A = sparse_linalg._as_sorted_csr(A)
    perm_c = _mmd_lu(A).perm_c
    assert np.array_equal(sparse_linalg._Ordering(A).q, np.argsort(perm_c))


def test_factorize_orders_each_pattern_once(monkeypatch, channel12_systems):
    # the ordering is computed once per pattern; every factorization factors
    # the reordered matrix in natural order, so the first and a later one
    # give the same bits, with the fill of a fresh minimum-degree factor and
    # an answer as accurate as its.  SuperLU visits the renumbered rows in
    # another order, so the rounding differs from the fresh factor's: on
    # this e^+-45 system the answers differ by 1e-11 (max norm, relative),
    # less than either's distance to the refined solution (1.6e-11)
    monkeypatch.setattr(sparse_linalg, "_orderings", {})
    A, b = channel12_systems["block1"]
    with mock.patch.object(spla, "spilu", wraps=spla.spilu) as spilu, \
            mock.patch.object(spla, "splu", wraps=spla.splu) as splu:
        first, second = sparse_linalg.factorize(A), sparse_linalg.factorize(A)
    assert [c.kwargs["permc_spec"] for c in spilu.call_args_list] == ["MMD_AT_PLUS_A"]
    assert [c.kwargs["permc_spec"] for c in splu.call_args_list] == ["NATURAL", "NATURAL"]
    fresh = _mmd_lu(A)
    assert first.lu.nnz == second.lu.nnz == fresh.nnz
    x_fresh, x = fresh.solve(b), second.solve(b)
    assert np.array_equal(first.solve(b), x)
    x_fine = x_fresh
    for _ in range(3):  # refinement with extended-precision residuals
        r = b.astype(np.longdouble) - A.astype(np.longdouble) @ x_fine.astype(np.longdouble)
        x_fine = x_fine + fresh.solve(r.astype(float))

    def error(y):
        return np.max(np.abs(y - x_fine)) / np.max(np.abs(x_fine))
    assert np.max(np.abs(x - x_fresh)) <= error(x_fresh) * np.max(np.abs(x_fresh))
    assert error(x) <= 1.1 * error(x_fresh)
    assert sparse_linalg._backward_error(A, x, b) <= 1e-15


def test_factorize_singular_after_ordering(monkeypatch):
    # a later factorization of a pattern still reports a singular matrix
    monkeypatch.setattr(sparse_linalg, "_orderings", {})
    A = lap1d(4)
    sparse_linalg.factorize(A)
    S = A.copy()
    S.data[:] = 0.0
    with pytest.raises(SingularMatrixError):
        sparse_linalg.factorize(S)


def test_shared_pattern_arrays_are_never_mutated(channel12_systems):
    # Block-1 matrices share their pattern arrays with the mesh's cached
    # scatter, and factorizations share the ordering's: both are read-only,
    # and the solves' _as_sorted_csr leaves them as they are
    A, b = channel12_systems["block1"]
    indptr, indices = A.indptr.copy(), A.indices.copy()
    for spec in (DIRECT, KRYLOV, DIRECT):
        solve(A, b, spec)
    assert np.array_equal(A.indptr, indptr) and np.array_equal(A.indices, indices)
    ordering = sparse_linalg._orderings[(indptr.tobytes(), indices.tobytes())]
    for a in (A.indptr, A.indices, ordering.indptr, ordering.indices, ordering.gather):
        assert not a.flags.writeable


def test_inf_norm_reads_csr_data(channel12_systems):
    A, _ = channel12_systems["block1"]
    empty_rows = sp.csr_matrix(np.array([[1.0, -2.0, 0.0], [0.0, 0.0, 0.0],
                                         [0.0, 3.0, -0.5], [0.0, 0.0, 0.0]]))
    for M in (A, empty_rows, sp.csr_matrix((3, 3))):
        assert sparse_linalg._inf_norm(M) == pytest.approx(spla.norm(M, np.inf), rel=1e-15)
