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
from smpnp.sparse_linalg import LinearSolveSpec, inf_norm, solve

from helpers import CAPPED_FIELDS, capped_block1_weights, pinned_system, reference_stiffness

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
    # the check comes before the Jacobi preconditioner diag(A)^-1 is formed:
    # a division by the bad entry would raise FloatingPointError here
    with np.errstate(all="raise"), \
            mock.patch.object(sparse_linalg, "_pcg") as pcg, \
            pytest.raises(LinearSolveError, match="positive diagonal: row 3"):
        solve(A.tocsr(), np.ones(6), KRYLOV)
    pcg.assert_not_called()


@pytest.mark.parametrize("spec", [DIRECT, KRYLOV], ids=["direct", "krylov"])
def test_zero_right_hand_side_takes_no_step(spec):
    # on the direct path the second solve is tried on the kept factor
    spec = LinearSolveSpec(spec.method).keeping_factors()
    A = lap1d(20)
    solve(A, np.ones(20), spec)
    factors, steps = spec.kept.factorizations, spec.kept.pcg_steps
    with mock.patch.object(sparse_linalg, "_pcg", wraps=sparse_linalg._pcg) as pcg:
        x = solve(A, np.zeros(20), spec)
    assert pcg.call_count == 1
    assert np.array_equal(x, np.zeros(20))
    assert (spec.kept.factorizations, spec.kept.pcg_steps) == (factors, steps)


# p^T A p is 0 on the singular [[1, 1], [1, 1]] with b = (1, -1), and NaN
# when A has a NaN entry
@pytest.mark.parametrize("off", [1.0, np.nan], ids=["zero", "nan"])
@pytest.mark.parametrize("precond", ["kept-factor", "jacobi"])
def test_cg_refuses_a_step_it_cannot_take(precond, off):
    A = sp.csr_matrix(np.array([[1.0, off], [off, 1.0]]))
    if precond == "jacobi":
        M = sparse_linalg._Jacobi(A.diagonal())
    else:  # the factor of a nearby matrix of A's pattern
        M = sparse_linalg.factorize(sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
    kept = sparse_linalg.KeptFactors()
    with pytest.raises(LinearSolveError, match=r"p\^T A p = (0|nan)"):
        sparse_linalg._pcg(A, np.array([1.0, -1.0]), M, kept, 40)
    assert kept.pcg_steps == 0


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
    with mock.patch.object(sparse_linalg, "_pcg", return_value=bad(20)), \
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
    # step, logs one warning and is returned; a spec with no store has no
    # kept factor to solve with in place of the patched one
    A, b = lap1d(20), np.ones(20)
    fake, calls = _inexact_once(1e-6)
    if spec == DIRECT:
        patch = mock.patch.object(sparse_linalg, "factorize",
                                  return_value=SimpleNamespace(solve=lambda r: fake(A, r)))
    else:
        patch = mock.patch.object(sparse_linalg, "_pcg",
                                  side_effect=lambda A_, r, *args: fake(A_, r))
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
    g = fem_core.face_values(sub, 0.1, 2.5)
    block1, b = pinned_system(sub, weight, g)
    box = electrostatics.BoxPoisson(mesh, ModelConstants())
    return {"block1": (block1, b), "box": (box.A, None), "block1_data": (sub, weight, g)}


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
    # this e^+-45 system the answers differ by 1.4e-12 (max norm, relative),
    # less than either's distance to the refined solution (2.7e-12 and
    # 2.4e-12).  The ratio of these two rounding errors reads 0.59-1.42 over
    # weight seeds 1-7 and 12, so "as accurate" means within a factor 2, and
    # by the triangle inequality the answers then differ by at most 3 times
    # the fresh factor's error (they read 0.15-1.29 times it there)
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
    assert np.max(np.abs(x - x_fresh)) <= 3.0 * error(x_fresh) * np.max(np.abs(x_fresh))
    assert error(x) <= 2.0 * error(x_fresh)
    assert sparse_linalg._backward_error(A, x, b, inf_norm(A)) <= 1e-15


def _componentwise_backward_error(A, x, b):
    """max_i |b - A x|_i / (|A| |x| + |b|)_i (Oettli-Prager)."""
    return np.max(np.abs(b - A @ x) / (abs(A) @ np.abs(x) + np.abs(b)))


def test_roundoff_entries_do_not_move_the_answer(channel12_systems):
    # the Block-1 system assembled with the exact zeros that rounding made
    # nonzero (14,741 stored entries against 8,999) is the same problem up
    # to rounding: a fresh factor's answer to either solves both with a
    # componentwise backward error of a few eps (3.4e-16 to 7.7e-16 over
    # weight seeds 1-7 and 12).  The two answers differ by 1.3e-11 (max
    # norm, relative), as any two roundings of this e^+-45 system do:
    # assembling the pruned pattern in another order moves its refined
    # solution by 2.1e-11
    A, b = channel12_systems["block1"]
    sub, weight, g = channel12_systems["block1_data"]
    A_kept, b_kept = fem_core.apply_dirichlet(
        reference_stiffness(sub, weight, drop_roundoff=False), np.zeros(len(b)),
        fem_core.p1_operator(sub).pinned, g)
    assert A_kept.nnz > A.nnz
    x, x_kept = _mmd_lu(A).solve(b), _mmd_lu(A_kept).solve(b_kept)
    for M, rhs in ((A, b), (A_kept, b_kept)):
        for y in (x, x_kept):
            assert _componentwise_backward_error(M, y, rhs) <= 1e-15


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
        assert inf_norm(M) == pytest.approx(spla.norm(M, np.inf), rel=1e-15)


# kept factors: a direct spec reuses the SuperLU factor of a nearby system
# of its pattern as a CG preconditioner

GEOM12 = meshmod.ChannelGeometry(resolution=12)


@pytest.fixture(scope="module")
def submesh12():
    return meshmod.extract_solvent_submesh(meshmod.synth_channel_mesh(GEOM12))


def _relative_error(x, x_ref):
    return np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref))


@pytest.mark.parametrize("species", ["Cl-", "NO3-", "Na+", "K+"])
@pytest.mark.parametrize("field", CAPPED_FIELDS)
def test_reused_factor_keeps_forward_accuracy(submesh12, field, species):
    # diagonals spanning 1e20 and more, where CG on the Jacobi-scaled system
    # loses the forward solution: the answer after a 20% perturbation of the
    # weights matches a fresh factorization's, whether PCG on the kept
    # factor gave it or a fresh factor did after PCG failed
    dhat, g = capped_block1_weights(submesh12, GEOM12, field, species)
    spec = LinearSolveSpec(method="direct").keeping_factors()
    solve(*pinned_system(submesh12, dhat, g), spec)
    scale = np.random.default_rng(13).uniform(1.0, 1.2, size=dhat.shape)
    A, b = pinned_system(submesh12, scale * dhat, g)
    diagonal = A.diagonal()
    assert diagonal.max() / diagonal.min() >= 1e20
    x = solve(A, b, spec)
    assert spec.kept.factorizations in (1, 2)
    x_fresh = sparse_linalg.solve_factored(A, sparse_linalg.factorize(A), b, inf_norm(A))
    assert _relative_error(x, x_fresh) <= 1e-10


def _scaled(A, s):
    """S A S with S = diag(s): the pattern of A, diagonal ratio s^2."""
    S = sp.diags(s)
    return sparse_linalg._as_sorted_csr(S @ A @ S)


def test_far_system_gets_fresh_factor(rng):
    # the kept factors' diagonal ratios span 4 and 16 against the new
    # system, beyond the 1.5 bound: no PCG, a fresh SuperLU factor
    A = lap1d(40)
    half = np.arange(40) < 20
    spec = LinearSolveSpec(method="direct").keeping_factors()
    b = rng.normal(size=40)
    for s in (np.ones(40), np.where(half, 2.0, 1.0)):
        solve(_scaled(A, s), b, spec)
    far = _scaled(A, np.where(half, 1.0, 2.0))
    with mock.patch.object(sparse_linalg, "_pcg") as pcg, \
            mock.patch.object(spla, "splu", wraps=spla.splu) as splu:
        x = solve(far, b, spec)
    pcg.assert_not_called()
    assert splu.call_count == 1 and spec.kept.factorizations == 3
    assert len(spec.kept.entries) == 2
    assert np.array_equal(spec.kept.entries[-1].diag, far.diagonal())
    assert np.allclose(far @ x, b, atol=1e-12 * np.max(np.abs(b)))


def test_closest_kept_factor_preconditions(rng):
    # the kept factors' diagonal ratios span 1.6 against each other, and
    # 1.3 and 1.23 against the new system: PCG runs on the closer one, and
    # nothing is factored
    A = lap1d(40)
    half = np.arange(40) < 20
    spec = LinearSolveSpec(method="direct").keeping_factors()
    b = rng.normal(size=40)
    for s in (np.ones(40), np.where(half, np.sqrt(1.6), 1.0)):
        solve(_scaled(A, s), b, spec)
    factors = [entry.lu for entry in spec.kept.entries]
    B = _scaled(A, np.where(half, np.sqrt(1.3), 1.0))
    with mock.patch.object(sparse_linalg, "_pcg", wraps=sparse_linalg._pcg) as pcg, \
            mock.patch.object(sparse_linalg, "factorize") as factorize:
        x = solve(B, b, spec)
    factorize.assert_not_called()
    assert len(factors) == 2 and pcg.call_args.args[2] is factors[1]
    assert [entry.lu for entry in spec.kept.entries] == factors
    assert spec.kept.pcg_steps >= 1
    assert np.allclose(B @ x, b, atol=1e-12 * np.max(np.abs(b)))


def test_pcg_that_does_not_stop_falls_back(monkeypatch, channel12_systems):
    # one PCG step cannot meet the stopping test after a 20% perturbation:
    # the solve factors afresh, and its answer passes the backward-error check
    A, b = channel12_systems["block1"]
    spec = LinearSolveSpec(method="direct").keeping_factors()
    solve(A, b, spec)
    monkeypatch.setattr(sparse_linalg, "_PCG_MAX_STEPS", 1)
    s = np.sqrt(np.random.default_rng(14).uniform(1.0, 1.2, size=A.shape[0]))
    B = _scaled(A, s)
    with mock.patch.object(sparse_linalg, "_checked_solve",
                           wraps=sparse_linalg._checked_solve) as checked:
        x = solve(B, b, spec)
    assert spec.kept.pcg_steps == 1 and spec.kept.factorizations == 2
    assert [c.args[3] for c in checked.call_args_list] == ["PCG solve", "direct solve"]
    assert sparse_linalg._backward_error(B, x, b, inf_norm(B)) <= 1e-10
    fresh = sparse_linalg.solve_factored(B, sparse_linalg.factorize(B), b, inf_norm(B))
    assert np.array_equal(x, fresh)


def test_kept_factor_is_tried_on_its_pattern_only():
    # one spec alternates between R=6 and R=8 Block-1 systems: each
    # perturbed system is preconditioned by the factor of its own mesh
    spec = LinearSolveSpec(method="direct").keeping_factors()
    systems = []
    for resolution in (6, 8):
        geom = meshmod.ChannelGeometry(resolution=resolution)
        sub = meshmod.extract_solvent_submesh(meshmod.synth_channel_mesh(geom))
        dhat, g = capped_block1_weights(sub, geom, "x-ramp", "Cl-")
        systems.append([pinned_system(sub, f * dhat, g)
                        for f in (1.0, 1.1)])
    factored = {}
    factorize = sparse_linalg.factorize

    def spy(A):
        lu = factorize(A)
        factored[id(lu)] = sparse_linalg._pattern_key(A)
        return lu

    with mock.patch.object(sparse_linalg, "factorize", spy), \
            mock.patch.object(sparse_linalg, "_pcg", wraps=sparse_linalg._pcg) as pcg:
        for k in (0, 1):
            for per_mesh in systems:
                A, b = per_mesh[k]
                x = solve(A, b, spec)
                fresh = sparse_linalg.solve_factored(A, factorize(A), b, inf_norm(A))
                assert _relative_error(x, fresh) <= 1e-10
    assert spec.kept.factorizations == 2 and pcg.call_count == 2
    for call in pcg.call_args_list:
        A, lu = sparse_linalg._as_sorted_csr(call.args[0]), call.args[2]
        assert factored[id(lu)] == sparse_linalg._pattern_key(A)


def test_spec_factors_stay_out_of_equality_and_repr(channel12_systems):
    A, b = channel12_systems["block1"]
    used = LinearSolveSpec(method="direct").keeping_factors()
    solve(A, b, used)
    assert used.kept.entries and used == LinearSolveSpec(method="direct")
    assert repr(used) == "LinearSolveSpec(method='direct')"
    assert LinearSolveSpec(method="direct").kept is None


def test_spec_with_no_store_keeps_no_factor_between_solves(channel12_systems):
    # a spec as a config builds it: each solve factors afresh, and the spec
    # is left without a store
    A, b = channel12_systems["block1"]
    spec = LinearSolveSpec(method="direct")
    with mock.patch.object(sparse_linalg, "factorize",
                           wraps=sparse_linalg.factorize) as factorize, \
            mock.patch.object(sparse_linalg, "_pcg") as pcg:
        first, second = solve(A, b, spec), solve(A, b, spec)
    assert factorize.call_count == 2 and spec.kept is None
    pcg.assert_not_called()
    assert np.array_equal(first, second)


# a spec's start: CG begins from the current iterate, with every stop rule
# and check of a cold solve

def _started_systems(path, channel12_systems):
    """(spec, A, b, start) on a path: a kept factor of a nearby system, or
    the Jacobi diagonal; ``start`` is the nearby system's answer."""
    sub, weight, g = channel12_systems["block1_data"]
    weight = np.exp(np.log(weight) / 15.0)  # diagonals spanning e^+-3
    spec = LinearSolveSpec("direct" if path == "kept-factor" else "krylov_ilu0").keeping_factors()
    start = solve(*pinned_system(sub, weight, g), spec)
    scale = np.random.default_rng(15).uniform(1.0, 1.2, size=weight.shape)
    A, b = pinned_system(sub, scale * weight, g)
    return spec, A, b, start


@pytest.mark.parametrize("path", ["kept-factor", "jacobi"])
def test_started_solve_agrees_with_cold_solve(path, channel12_systems):
    # both answers meet the forward-error stop max|M^-1 r| <= 1e-12 max|x|,
    # an estimate: here they differ by 1.7e-13 (kept factor, 9 -> 7 CG
    # steps) and 2.5e-12 (Jacobi, 122 -> 103 steps) of max|x|, and each is
    # within 2.4e-12 of a fresh factor's answer
    spec, A, b, start = _started_systems(path, channel12_systems)
    factors = spec.kept.factorizations
    steps = spec.kept.pcg_steps
    cold = solve(A, b, spec)
    cold_steps, steps = spec.kept.pcg_steps - steps, spec.kept.pcg_steps
    warm = solve(A, b, spec.starting_at(start))
    assert spec.kept.factorizations == factors  # both ran CG, no fresh factor
    assert 0 < spec.kept.pcg_steps - steps < cold_steps
    fresh = sparse_linalg.solve_factored(A, sparse_linalg.factorize(A), b, inf_norm(A))
    for x in (cold, warm):
        assert _relative_error(x, fresh) <= 10 * sparse_linalg._PCG_TOL
    assert _relative_error(warm, cold) <= 10 * sparse_linalg._PCG_TOL


@pytest.mark.parametrize("path", ["kept-factor", "jacobi"])
def test_started_solve_of_zero_right_hand_side_is_zero(path, channel12_systems):
    spec, A, b, start = _started_systems(path, channel12_systems)
    steps = spec.kept.pcg_steps
    x = solve(A, np.zeros_like(b), spec.starting_at(start))
    assert np.array_equal(x, np.zeros_like(b)) and spec.kept.pcg_steps == steps


@pytest.mark.parametrize("path", ["kept-factor", "jacobi"])
def test_solve_started_at_the_answer_takes_one_step(path, channel12_systems):
    spec, A, b, _ = _started_systems(path, channel12_systems)
    answer = solve(A, b, spec)
    assert (b - A @ answer).any()  # a rounding residual: CG takes its step
    steps = spec.kept.pcg_steps
    x = solve(A, b, spec.starting_at(answer))
    assert spec.kept.pcg_steps - steps == 1
    assert _relative_error(x, answer) <= sparse_linalg._PCG_TOL


def test_started_spec_shares_the_kept_factors():
    spec = LinearSolveSpec(method="direct").keeping_factors()
    started = spec.starting_at(np.ones(3))
    assert started.kept is spec.kept and started == spec
    assert spec.start is None and np.array_equal(started.start, np.ones(3))
    assert repr(started) == "LinearSolveSpec(method='direct')"
