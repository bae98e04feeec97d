from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from smpnp import electrostatics, fem_core, mesh as meshmod, sparse_linalg
from smpnp.errors import LinearSolveError, SingularMatrixError
from smpnp.physics_model import ModelConstants
from smpnp.sparse_linalg import Ilu0, LinearSolveSpec, small_dense_solve, solve

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


def test_spec_validation():
    with pytest.raises(ValueError):
        LinearSolveSpec(method="cholesky")
    with pytest.raises(ValueError):
        LinearSolveSpec(abs_tol=0.0)


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
            mock.patch.object(sparse_linalg, "Ilu0") as ilu, \
            pytest.raises(LinearSolveError, match="positive diagonal: row 3"):
        solve(A.tocsr(), np.ones(6), KRYLOV)
    ilu.assert_not_called()


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
    assert (res <= max(KRYLOV.abs_tol, KRYLOV.rel_tol * np.linalg.norm(b))
            or bwd <= KRYLOV.rel_tol)


@pytest.mark.parametrize("bad", [np.zeros, lambda n: np.full(n, np.nan)])
def test_krylov_returns_only_checked_answers(bad):
    # whatever the iteration hands back is checked against A and b
    A = lap1d(20)
    with mock.patch.object(spla, "cg", return_value=(bad(20), 0)), \
            pytest.raises(LinearSolveError, match="did not converge"):
        solve(A, np.ones(20), KRYLOV)


def test_ilu0_preserves_pattern(rng):
    A = lap1d(20)
    fac = Ilu0(A)
    P = fac.pattern_matrix()
    assert np.array_equal(P.indptr, A.indptr)
    assert np.array_equal(P.indices, A.indices)


def test_ilu0_exact_on_tridiagonal(rng):
    # no fill occurs, so ILU(0) is an exact factorization
    A = lap1d(15)
    b = rng.normal(size=15)
    x = Ilu0(A).solve(b)
    assert np.allclose(A @ x, b, atol=1e-10)
    B = rng.normal(size=(15, 2))
    assert np.allclose(A @ Ilu0(A).solve(B), B, atol=1e-10)


def test_ilu0_missing_diagonal():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    A.eliminate_zeros()
    with pytest.raises(SingularMatrixError):
        Ilu0(A)


def ilu0_reference(A):
    """Row-by-row IKJ ILU(0): the combined factor values on A's pattern."""
    A = sp.csr_matrix(A)
    A.sort_indices()
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
            for jj in range(diag_ptr[k] + 1, indptr[k + 1]):
                tgt = col_pos[i].get(indices[jj])
                if tgt is not None:
                    data[tgt] -= lik * data[jj]
        if data[diag_ptr[i]] == 0.0:
            raise SingularMatrixError("ILU(0): zero pivot in row %d" % i)
    return data


@pytest.fixture(scope="module")
def channel12_systems():
    """R=12 pinned Block-1 system (nodal weights e^+-45) and the box
    Poisson operator the ionic-potential solve factors."""
    mesh = meshmod.synth_channel_mesh(meshmod.ChannelGeometry(resolution=12))
    sub = meshmod.extract_solvent_submesh(mesh)
    r = np.random.default_rng(12)
    weight = np.exp(r.uniform(-45.0, 45.0, size=sub.num_vertices))
    bottom, top = sub.dirichlet_side_nodes()
    d = fem_core.DirichletSet(np.concatenate([bottom, top]),
                              np.concatenate([np.full(len(bottom), 0.1),
                                              np.full(len(top), 2.5)]))
    block1, b = fem_core.pinned_stiffness_system(sub, weight, d)
    phit = electrostatics.PhiTildeSystem(mesh, sub, [1.0, -1.0], ModelConstants(), KRYLOV)
    return {"block1": (block1, b), "box": (phit.A, None)}


@pytest.mark.parametrize("which", ["block1", "box"])
def test_ilu0_factor_equals_reference_loop(which, channel12_systems):
    A, _ = channel12_systems[which]
    assert np.array_equal(Ilu0(A).data, ilu0_reference(A))


def test_ilu0_solve_equals_spsolve_triangular(channel12_systems, rng):
    # Ilu0.solve calls SuperLU's private triangular solve with the arguments
    # spsolve_triangular builds; a scipy that changes them fails here
    A, b = channel12_systems["block1"]
    fac = Ilu0(A)
    P = fac.pattern_matrix()
    L = (sp.tril(P, k=-1) + sp.eye(A.shape[0])).tocsr()
    U = sp.triu(P).tocsr()
    for rhs in (b, rng.normal(size=A.shape[0])):
        y = spla.spsolve_triangular(L, rhs, lower=True, unit_diagonal=True)
        assert np.array_equal(fac.solve(rhs), spla.spsolve_triangular(U, y, lower=False))


def test_ilu0_plan_built_once_per_pattern(monkeypatch, rng):
    monkeypatch.setattr(sparse_linalg, "_plans", {})
    A = lap1d(40)
    B = A.copy()
    B.data = rng.uniform(1.0, 2.0, size=B.nnz) * np.sign(B.data)
    with mock.patch.object(sparse_linalg, "_Ilu0Plan",
                           wraps=sparse_linalg._Ilu0Plan) as build:
        for M in (A, B):
            assert np.array_equal(Ilu0(M).data, ilu0_reference(M))
        assert build.call_count == 1
        Ilu0(lap1d(41))
        assert build.call_count == 2


def test_ilu0_plan_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(sparse_linalg, "_plans", {})
    for n in range(5, 5 + sparse_linalg._PLAN_CACHE_SIZE + 3):
        Ilu0(lap1d(n))
    assert len(sparse_linalg._plans) == sparse_linalg._PLAN_CACHE_SIZE
    A = lap1d(n)
    assert (A.indptr.tobytes(), A.indices.tobytes()) in sparse_linalg._plans


def test_ilu0_zero_pivot_in_later_level_names_reference_row():
    # u_22 = 1 - 1 / (2 - 1 / 1) = 0 exactly, in elimination level 2; row 3
    # is level 0 with a stored zero diagonal, found first level by level
    T = sp.diags([np.ones(2), [1.0, 2.0, 1.0], np.ones(2)], [-1, 0, 1])
    A = sp.block_diag([T, sp.coo_matrix(([0.0], ([0], [0])), shape=(1, 1))], format="csr")
    assert A.nnz == 8
    with pytest.raises(SingularMatrixError) as ref:
        ilu0_reference(A)
    with pytest.raises(SingularMatrixError) as new:
        Ilu0(A)
    assert str(new.value) == str(ref.value) == "ILU(0): zero pivot in row 2"


def _cofactor_solve(A, b):
    n = A.shape[0]
    det = np.linalg.det(A)
    x = np.empty(n)
    for j in range(n):
        Aj = A.copy()
        Aj[:, j] = b
        x[j] = np.linalg.det(Aj) / det
    return x


def test_small_dense_identity():
    assert np.allclose(small_dense_solve(np.eye(3), [1.0, 2.0, 3.0]),
                       [1.0, 2.0, 3.0])


def test_small_dense_1x1():
    assert np.allclose(small_dense_solve(np.array([[4.0]]), [2.0]), [0.5])


def test_small_dense_vs_cofactor_oracle(rng):
    for _ in range(20):
        A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        b = rng.normal(size=4)
        assert np.allclose(small_dense_solve(A, b), _cofactor_solve(A, b),
                           atol=1e-12)


def test_small_dense_rejects_large_and_singular():
    with pytest.raises(LinearSolveError):
        small_dense_solve(np.eye(9), np.zeros(9))
    with pytest.raises(SingularMatrixError):
        small_dense_solve(np.zeros((2, 2)), np.ones(2))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_small_dense_matches_numpy(n, seed):
    r = np.random.default_rng(seed)
    A = r.normal(size=(n, n)) + n * np.eye(n)
    b = r.normal(size=n)
    assert np.allclose(small_dense_solve(A, b), np.linalg.solve(A, b),
                       rtol=1e-9, atol=1e-9)
