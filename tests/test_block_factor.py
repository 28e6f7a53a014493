import numpy as np
import pytest

from conftest import rand_block_system, rand_complex_symmetric, scalar_permutation
from ddsolve import blockmat, factor, ordering, symbolic
from ddsolve.factor import FactorConsistencyError, SingularBlockError, \
    block_ldlt, block_solve, dense_ldlt_bk, scatter_factor
from ddsolve.ordering import identity_ordering


def plan_for(K, order=None):
    g = blockmat.clique_graph(K)
    if order is None:
        order = ordering.reorder(g, K.sizes)
    return symbolic.symbolic_factor(g, order, K.sizes)


def split_blocks(x, sizes):
    off = np.zeros(len(sizes) + 1, dtype=int)
    np.cumsum(sizes, out=off[1:])
    return [x[off[i]:off[i + 1]] for i in range(len(sizes))]


def test_single_block_equals_dense_kernel():
    M = rand_complex_symmetric(9, 0)
    K = blockmat.from_blocks([9], [(0, 0, M)])
    F = block_ldlt(K, plan_for(K))
    ref = dense_ldlt_bk(M)
    assert np.array_equal(F.diag[0].L, ref.L)
    assert np.array_equal(F.diag[0].d, ref.d)
    assert np.array_equal(F.diag[0].perm, ref.perm)
    assert F.offdiag == {}


def test_arrow_matrix_vs_dense_oracle():
    # 3 blocks (2, 3, 4): first column coupled to both others
    rng = np.random.default_rng(5)
    sizes = [2, 3, 4]
    n = 9
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = (G + G.T) / 2 + 2 * n * np.eye(n)
    S[2:5, 5:9] = 0.0
    S[5:9, 2:5] = 0.0
    K = blockmat.from_blocks(sizes, [
        (0, 0, S[0:2, 0:2]), (1, 1, S[2:5, 2:5]), (2, 2, S[5:9, 5:9]),
        (1, 0, S[2:5, 0:2]), (2, 0, S[5:9, 0:2])])
    F = block_ldlt(K, plan_for(K, identity_ordering(3)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = np.concatenate(block_solve(F, split_blocks(b, sizes)))
    x_ref = np.linalg.solve(S, b)
    assert np.linalg.norm(x - x_ref) <= 1e-11 * np.linalg.norm(x_ref)


def test_four_cycle_creates_single_fill_block():
    rng = np.random.default_rng(6)
    sizes = [2, 3, 2, 4]

    def sym(n):
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (G + G.T) / 2 + 3 * n * np.eye(n)

    tri = [(i, i, sym(sizes[i])) for i in range(4)]
    for (i, j) in [(1, 0), (2, 1), (3, 2), (3, 0)]:
        tri.append((i, j, rng.standard_normal((sizes[i], sizes[j])) + 0j))
    K = blockmat.from_blocks(sizes, tri)
    g = blockmat.clique_graph(K)
    plan = plan_for(K, identity_ordering(4))
    fills = symbolic.fill_blocks(plan, g)
    assert fills == [(3, 1)]
    F = block_ldlt(K, plan)
    created = set(F.offdiag) - {(i, j) for (i, j) in K.blocks if i != j}
    assert created == {(3, 1)}


def test_identity_blocks_solve_is_identity():
    sizes = [3, 2]
    K = blockmat.from_blocks(sizes, [(0, 0, np.eye(3, dtype=complex)),
                                     (1, 1, np.eye(2, dtype=complex))])
    F = block_ldlt(K, plan_for(K))
    g = [np.arange(3) + 0j, np.array([5.0, 6.0]) + 1j]
    x = block_solve(F, g)
    assert np.array_equal(x[0], g[0])
    assert np.array_equal(x[1], g[1])


@pytest.mark.parametrize("seed", range(10))
def test_random_systems_residual(seed):
    K, S = rand_block_system(seed, max_blocks=8, max_size=8)
    F = block_ldlt(K, plan_for(K))
    rng = np.random.default_rng(900 + seed)
    n = S.shape[0]
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = np.concatenate(block_solve(F, split_blocks(b, K.sizes)))
    assert np.linalg.norm(S @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("seed", range(6))
def test_reconstruction_of_permuted_matrix(seed):
    K, S = rand_block_system(seed + 20, max_blocks=6, max_size=6)
    plan = plan_for(K)
    F = block_ldlt(K, plan)
    L, D = scatter_factor(F)
    sp = scalar_permutation(K.sizes, plan.order.perm)
    Kperm = S[np.ix_(sp, sp)]
    err = np.linalg.norm(Kperm - L @ D @ L.T, "fro")
    assert err <= 1e-11 * np.linalg.norm(S, "fro")


def test_two_rhs_identical_to_two_single_rhs():
    K, _ = rand_block_system(77, max_blocks=5, max_size=6)
    F = block_ldlt(K, plan_for(K))
    rng = np.random.default_rng(78)
    B = [rng.standard_normal((int(s), 2)) + 1j * rng.standard_normal((int(s), 2))
         for s in K.sizes]
    X = block_solve(F, B)
    Xa = block_solve(F, [b[:, :1] for b in B])
    Xb = block_solve(F, [b[:, 1:] for b in B])
    for i in range(K.nblocks):
        assert np.array_equal(X[i][:, :1], Xa[i])
        assert np.array_equal(X[i][:, 1:], Xb[i])


def test_factor_entries_match_symbolic_exactly():
    for seed in range(8):
        K, _ = rand_block_system(seed + 40)
        plan = plan_for(K)
        F = block_ldlt(K, plan)
        assert F.stats.factor_entries == plan.total_factor_entries
        assert F.stats.peak_bytes >= 16 * F.stats.factor_entries


def test_determinism_bit_identical():
    K, _ = rand_block_system(55)
    plan = plan_for(K)
    F1 = block_ldlt(K, plan)
    F2 = block_ldlt(K, plan)
    for j in range(K.nblocks):
        assert np.array_equal(F1.diag[j].L, F2.diag[j].L)
        assert np.array_equal(F1.diag[j].d, F2.diag[j].d)
    for key in F1.offdiag:
        assert np.array_equal(F1.offdiag[key], F2.offdiag[key])


def test_singular_block_reports_column():
    sizes = [2, 2]
    K = blockmat.from_blocks(sizes, [(0, 0, np.zeros((2, 2), dtype=complex)),
                                     (1, 1, np.eye(2, dtype=complex))])
    with pytest.raises(SingularBlockError, match="block column 0"):
        block_ldlt(K, plan_for(K, identity_ordering(2)))


def test_cancelling_update_leaves_symmetric_diagonal_block():
    # K_11 is the Schur complement K_10 K_00^-1 K_10^T plus 1e-9 I, so the
    # update cancels it to about 1e-9: rounding asymmetry in the update,
    # unless symmetrized, fails the next diagonal factor's symmetry check
    rng = np.random.default_rng(7)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    G = cplx(2, 2)
    K00 = G + G.T + 6 * np.eye(2)
    K10 = cplx(3, 2)
    S = K10 @ np.linalg.solve(K00, K10.T)
    K = blockmat.from_blocks([2, 3], [(0, 0, K00), (1, 0, K10),
                                      (1, 1, (S + S.T) / 2 + 1e-9 * np.eye(3))])
    F = block_ldlt(K, plan_for(K, identity_ordering(2)))
    L, D = scatter_factor(F)
    Kd = K.scatter()
    assert np.linalg.norm(Kd - L @ D @ L.T) <= 1e-13 * np.linalg.norm(Kd)


def test_plan_for_other_block_sizes_rejected():
    # same graph and block count, sizes swapped: the plan's panel offsets
    # would mis-slice every block of K
    rng = np.random.default_rng(63)
    K = blockmat.from_blocks([2, 3], [
        (0, 0, 4 * np.eye(2) + 0j), (1, 1, 4 * np.eye(3) + 0j),
        (1, 0, rng.standard_normal((3, 2)) + 0j)])
    plan = symbolic.symbolic_factor(blockmat.clique_graph(K),
                                    identity_ordering(2), [3, 2])
    with pytest.raises(ValueError, match="block sizes"):
        block_ldlt(K, plan)


def test_plan_missing_pattern_blocks_raises():
    # K couples block 0 to blocks 1 and 2, so eliminating 0 updates (2, 1)
    sizes = [2, 1, 2]
    K = blockmat.from_blocks(sizes, [(i, i, 3 * np.eye(s) + 0j)
                                     for i, s in enumerate(sizes)]
                             + [(1, 0, np.ones((1, 2)) + 0j),
                                (2, 0, np.ones((2, 2)) + 0j)])
    order = identity_ordering(3)
    no_fill = symbolic.EliminationPlan(
        order, np.array([1, -1, -1]),
        [np.array([1, 2]), np.array([], dtype=np.int64),
         np.array([], dtype=np.int64)], np.array(sizes), 13)
    with pytest.raises(FactorConsistencyError, match="outside pattern"):
        block_ldlt(K, no_fill)
    g = blockmat.CliqueGraph(3)
    g.add_edge(1, 0)
    with pytest.raises(FactorConsistencyError, match="unconsumed blocks"):
        block_ldlt(K, symbolic.symbolic_factor(g, order, sizes))


@pytest.mark.parametrize("order, stats", [
    (None, (15, 60, 352, 0)),
    (identity_ordering(3), (15, 60, 384, 0))])
def test_zero_size_block(order, stats):
    # block 1 has no rows but is coupled to both others, so it sits in the
    # patterns and takes part in updates; stats as (factor_entries, flops,
    # peak_bytes, n_2x2_pivots)
    sizes = [2, 0, 3]
    S = rand_complex_symmetric(5, 64) + 10.0 * np.eye(5)
    off = [0, 2, 2, 5]
    K = blockmat.from_blocks(sizes, [
        (i, j, S[off[i]:off[i + 1], off[j]:off[j + 1]])
        for i in range(3) for j in range(i + 1)])
    F = block_ldlt(K, plan_for(K, order))
    s = F.stats
    assert (s.factor_entries, s.flops, s.peak_bytes, s.n_2x2_pivots) == stats
    rng = np.random.default_rng(65)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x = np.concatenate(block_solve(F, split_blocks(b, sizes)))
    assert x.shape == (5,)
    assert np.linalg.norm(K.scatter() @ x - b) <= 1e-12 * np.linalg.norm(b)


def _block_bytes(K):
    return {key: blk.tobytes() for key, blk in K.blocks.items()}


def test_factor_leaves_matrix_unchanged(reduced_systems):
    # the factor's panels must own their storage: a panel aliasing a block
    # of K would overwrite it with L or with trailing updates
    cases = [rand_block_system(seed) for seed in (40, 41, 42, 43)]
    cases.append((reduced_systems["interface-bound"].K, None))
    n_fill = 0
    for K, _ in cases:
        plan = plan_for(K)
        n_fill += len(symbolic.fill_blocks(plan, blockmat.clique_graph(K)))
        before = _block_bytes(K)
        block_ldlt(K, plan)
        assert _block_bytes(K) == before
    assert n_fill > 0


# FactorStats of the benchmark geometries as (factor_entries, flops,
# peak_bytes, n_2x2_pivots); they do not depend on the incidence angle.
BENCHMARK_STATS = {
    "interface-bound": (16958, 305460, 274512, 0),
    "angle-sweep": (3778, 82773, 66656, 0),
    "subdomain-bound": (984, 22596, 23152, 0),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_STATS))
def test_benchmark_geometry_factor_stats(reduced_systems, name):
    rsys = reduced_systems[name]
    F = block_ldlt(rsys.K, plan_for(rsys.K))
    s = F.stats
    assert (s.factor_entries, s.flops, s.peak_bytes, s.n_2x2_pivots) == \
        BENCHMARK_STATS[name]
    assert s.growth_factor <= 2.57


def test_growth_and_pivot_stats_propagate():
    K, _ = rand_block_system(60)
    F = block_ldlt(K, plan_for(K))
    assert F.stats.growth_factor >= 1.0
    assert F.stats.n_2x2_pivots == sum(f.n_2x2 for f in F.diag)


def test_empty_system():
    K = blockmat.BlockSparseSym([])
    plan = plan_for(K, identity_ordering(0))
    F = block_ldlt(K, plan)
    assert block_solve(F, []) == []
    assert F.stats.factor_entries == 0


def test_rhs_block_count_checked():
    K, _ = rand_block_system(61)
    F = block_ldlt(K, plan_for(K))
    with pytest.raises(ValueError):
        block_solve(F, [np.ones(2, dtype=complex)] * (K.nblocks + 1))


def test_indefinite_block_system():
    # mixed-sign spectrum across the scattered matrix
    rng = np.random.default_rng(62)
    n = 12
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.concatenate([np.linspace(1, 4, 6), -np.linspace(1, 4, 6)])
    S = (Q * vals) @ Q.T
    S = (S + S.T) / 2
    sizes = [4, 4, 4]
    K = blockmat.from_blocks(sizes, [
        (0, 0, S[0:4, 0:4]), (1, 1, S[4:8, 4:8]), (2, 2, S[8:12, 8:12]),
        (1, 0, S[4:8, 0:4]), (2, 1, S[8:12, 4:8]), (2, 0, S[8:12, 0:4])])
    F = block_ldlt(K, plan_for(K))
    b = rng.standard_normal(n) + 0j
    x = np.concatenate(block_solve(F, split_blocks(b, sizes)))
    assert np.linalg.norm(K.scatter() @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_tiny_blocks_with_2x2_pivot():
    # blocks of 2, 1 and 2 rows eliminated in order; the first has a zero
    # diagonal, so it is one 2x2 pivot and every off-diagonal block goes
    # through the 2x2 branch of D^-1
    sizes = [2, 1, 2]
    S = np.array([[0.0, 4.0, 1.0, 0.5j, 2.0],
                  [4.0, 0.0, 2.0j, 1.0, 0.0],
                  [1.0, 2.0j, 5.0, 1.0, -1.0],
                  [0.5j, 1.0, 1.0, 1.0, 0.5],
                  [2.0, 0.0, -1.0, 0.5, -2.0]], dtype=complex)
    off = [0, 2, 3, 5]
    K = blockmat.from_blocks(sizes, [
        (i, j, S[off[i]:off[i + 1], off[j]:off[j + 1]])
        for i in range(3) for j in range(i + 1)])
    F = block_ldlt(K, plan_for(K, identity_ordering(3)))
    assert F.diag[0].n_2x2 == 1 and list(F.diag[0].tags) == [2, 0]
    assert F.stats.n_2x2_pivots == sum(f.n_2x2 for f in F.diag)
    L, D = scatter_factor(F)
    assert np.abs(L @ D @ L.T - S).max() <= 1e-13 * np.abs(S).max()
    rng = np.random.default_rng(63)
    B = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    X = np.concatenate(block_solve(F, split_blocks(B, sizes)))
    X_ref = np.linalg.solve(S, B)
    assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)
