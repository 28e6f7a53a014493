from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import add_block, factor_blocks, fill_blocks, rand_block_system, \
    rand_complex_symmetric, scalar_permutation
from ddsolve import blockmat, factor, ordering, symbolic
from ddsolve.factor import BlockFactor, FactorConsistencyError, FactorStats, \
    SingularBlockError, _unit_lower_solve, blas_matmul, block_ldlt, \
    block_solve, dense_ldlt_bk, scatter_factor
from ddsolve.ordering import identity_ordering


def plan_for(K, order=None):
    g = blockmat.clique_graph(K)
    if order is None:
        order = ordering.reorder(g, K.sizes)
    return symbolic.symbolic_factor(g, order, K.sizes)


def test_single_block_equals_dense_kernel():
    M = rand_complex_symmetric(9, 0)
    K = blockmat.from_blocks([9], [(0, 0, M)])
    F = block_ldlt(K, plan_for(K))
    ref = dense_ldlt_bk(M)
    assert np.array_equal(F.diag[0].L, ref.L)
    assert np.array_equal(F.diag[0].d, ref.d)
    assert np.array_equal(F.diag[0].perm, ref.perm)
    assert F.panels[0].shape == (0, 9) and F.panel_rows[0].size == 0


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
    x = block_solve(F, b)
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
    fills = fill_blocks(plan, g)
    assert fills == [(3, 1)]
    F = block_ldlt(K, plan)
    created = factor_blocks(F) - {(i, j) for (i, j) in K.blocks if i != j}
    assert created == {(3, 1)}


def test_identity_blocks_solve_is_identity():
    sizes = [3, 2]
    K = blockmat.from_blocks(sizes, [(0, 0, np.eye(3, dtype=complex)),
                                     (1, 1, np.eye(2, dtype=complex))])
    F = block_ldlt(K, plan_for(K))
    g = np.array([0, 1, 2, 5 + 1j, 6 + 1j])
    assert np.array_equal(block_solve(F, g), g)


@pytest.mark.parametrize("seed", range(10))
def test_random_systems_residual(seed):
    K, S = rand_block_system(seed, max_blocks=8, max_size=8)
    F = block_ldlt(K, plan_for(K))
    rng = np.random.default_rng(900 + seed)
    n = S.shape[0]
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = block_solve(F, b)
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
    B = rng.standard_normal((K.order, 2)) + 1j * rng.standard_normal((K.order, 2))
    X = block_solve(F, B)
    assert X.shape == B.shape
    for c in range(2):
        assert X[:, c].tobytes() == block_solve(F, B[:, c]).tobytes()
        assert X[:, c:c + 1].tobytes() == block_solve(F, B[:, c:c + 1]).tobytes()


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
        assert np.array_equal(F1.panels[j], F2.panels[j])


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
    with pytest.raises(FactorConsistencyError,
                       match=r"update targets block \(2, 1\) outside pattern"):
        block_ldlt(K, no_fill)
    g = blockmat.CliqueGraph(3)
    g.add_edge(1, 0)
    with pytest.raises(FactorConsistencyError,
                       match=r"unconsumed blocks: block \(2, 0\) of K"):
        block_ldlt(K, symbolic.symbolic_factor(g, order, sizes))


def test_consistency_errors_name_blocks_in_elimination_order():
    # the reversed order transposes every block of K into place: (2, 1)
    # lands on (1, 0) and (2, 0) on itself, so eliminating column 0 needs
    # the fill block (2, 1); errors name blocks of the permuted matrix
    sizes = [2, 2, 1]
    K = blockmat.from_blocks(sizes, [(i, i, 3 * np.eye(s) + 0j)
                                     for i, s in enumerate(sizes)]
                             + [(2, 1, np.ones((1, 2)) + 0j),
                                (2, 0, np.ones((1, 2)) + 0j)])
    order = ordering.Ordering(np.array([2, 1, 0]))
    no_fill = symbolic.EliminationPlan(
        order, np.array([1, -1, -1]),
        [np.array([1, 2]), np.array([], dtype=np.int64),
         np.array([], dtype=np.int64)], np.array([1, 2, 2]), 11)
    with pytest.raises(FactorConsistencyError, match=r"block \(2, 1\) outside"):
        block_ldlt(K, no_fill)
    g = blockmat.CliqueGraph(3)
    g.add_edge(2, 1)
    with pytest.raises(FactorConsistencyError, match=r"block \(2, 0\) of K"):
        block_ldlt(K, symbolic.symbolic_factor(g, order, sizes))


@pytest.mark.parametrize("order", [None, identity_ordering(3)])
def test_asymmetric_diagonal_block_rejected(order):
    # add_block alone does not validate, so only the factor sees the
    # asymmetric diagonal block (1, 1)
    sizes = [2, 3, 2]
    K = blockmat.BlockSparseSym(sizes)
    for i, s in enumerate(sizes):
        add_block(K, i, i, rand_complex_symmetric(s, 70 + i) + 6 * np.eye(s))
    add_block(K, 1, 0, np.ones((3, 2)) + 0j)
    add_block(K, 2, 1, np.ones((2, 3)) + 0j)
    K.blocks[(1, 1)][0, 2] += 1e-9
    with pytest.raises(ValueError, match="not symmetric"):
        block_ldlt(K, plan_for(K, order))
    K.blocks[(1, 1)][0, 2] -= 1e-9
    K.blocks[(1, 1)][2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        block_ldlt(K, plan_for(K, order))


@pytest.mark.parametrize("order, stats", [
    (None, (15, 60, 976, 0)),
    (identity_ordering(3), (15, 60, 1056, 0))])
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
    x = block_solve(F, b)
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
        n_fill += len(fill_blocks(plan, blockmat.clique_graph(K)))
        before = _block_bytes(K)
        block_ldlt(K, plan)
        assert _block_bytes(K) == before
    assert n_fill > 0


# FactorStats of the benchmark geometries as (factor_entries, flops,
# peak_bytes, n_2x2_pivots); they do not depend on the incidence angle.
BENCHMARK_STATS = {
    "interface-bound": (16958, 305460, 457568, 0),
    "angle-sweep": (3778, 82773, 149696, 0),
    "subdomain-bound": (984, 22596, 59200, 0),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_STATS))
def test_benchmark_geometry_factor_stats(reduced_systems, name):
    rsys = reduced_systems[name]
    F = block_ldlt(rsys.K, plan_for(rsys.K))
    s = F.stats
    assert (s.factor_entries, s.flops, s.peak_bytes, s.n_2x2_pivots) == \
        BENCHMARK_STATS[name]
    assert s.growth_factor <= 2.57


def test_peak_bytes_counts_what_the_factor_holds(reduced_systems):
    # 16 bytes per entry of K, of the panel buffer (diagonal blocks on top
    # of the panels), of the diagonal L factors and of the widest column's
    # X (m x n) and update U (m x m), all held at once
    for name, rsys in reduced_systems.items():
        F = block_ldlt(rsys.K, plan_for(rsys.K))
        n = F.plan.sizes_perm
        m = np.array([p.shape[0] for p in F.panels])
        k_entries = sum(b.size for b in rsys.K.blocks.values())
        buffer = sum(p.size for p in F.panels) + int((n * n).sum())
        diag_l = sum(f.L.size for f in F.diag)
        widest = int((m * n + m * m).max())
        assert F.stats.peak_bytes == 16 * (k_entries + buffer + diag_l + widest), name
        if name == "interface-bound":
            assert buffer == 17508
            assert F.stats.peak_bytes >= 16 * buffer


def test_growth_and_pivot_stats_propagate():
    K, _ = rand_block_system(60)
    F = block_ldlt(K, plan_for(K))
    assert F.stats.growth_factor >= 1.0
    assert F.stats.n_2x2_pivots == sum(f.n_2x2 for f in F.diag)


def test_empty_system():
    K = blockmat.BlockSparseSym([])
    plan = plan_for(K, identity_ordering(0))
    F = block_ldlt(K, plan)
    assert block_solve(F, np.zeros(0)).shape == (0,)
    assert block_solve(F, np.zeros((0, 3))).shape == (0, 3)
    assert F.stats.factor_entries == 0


def test_rhs_shape_checked():
    K, _ = rand_block_system(61)
    F = block_ldlt(K, plan_for(K))
    for shape in ((K.order + 1,), (K.order - 1, 2), (K.order, 1, 1), ()):
        with pytest.raises(ValueError, match="right-hand side"):
            block_solve(F, np.ones(shape, dtype=complex))


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
    x = block_solve(F, b)
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
    X = block_solve(F, B)
    X_ref = np.linalg.solve(S, B)
    assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)


def reference_block_ldlt(K, plan, pivot_tol=factor.DEFAULT_PIVOT_TOL):
    """Block LDL^T with one working panel per column, per-pair pattern
    checks and a symmetrized update, each diagonal block factored by the
    public dense kernel."""
    nb = K.nblocks
    if plan.nblocks != nb:
        raise ValueError("plan and matrix disagree on block count")
    sizes = plan.sizes_perm
    if not np.array_equal(sizes, K.sizes[plan.order.perm]):
        raise ValueError("plan and matrix disagree on block sizes")
    inv = plan.order.inverse().tolist()
    n = sizes.tolist()
    offsets = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    work, start, rows = [], [], []
    for j in range(nb):
        blocks = np.concatenate(([j], plan.pattern[j]))
        bs = sizes[blocks]
        local = np.zeros(blocks.size + 1, dtype=np.int64)
        np.cumsum(bs, out=local[1:])
        start.append(dict(zip(blocks.tolist(), local[:-1].tolist())))
        rows.append(np.arange(local[-1]) + np.repeat(offsets[blocks] - local[:-1], bs))
        work.append(np.zeros((int(local[-1]), n[j]), dtype=np.complex128))
    for (i, j), blk in K.blocks.items():
        a, b = inv[i], inv[j]
        if a < b:
            a, b, blk = b, a, blk.T
        r = start[b].get(a)
        if r is None:
            raise FactorConsistencyError(
                f"unconsumed blocks: block {(a, b)} of K has no place in the plan")
        work[b][r:r + n[a]] = blk

    diag, panels, panel_rows = [], [], []
    stats = FactorStats()
    stored_entries = 0
    flops = 0
    widest = 0
    for j in range(nb):
        nj = n[j]
        try:
            fac = dense_ldlt_bk(work[j][:nj], pivot_tol)
        except SingularBlockError as err:
            raise SingularBlockError(f"block column {j}: {err}") from err
        diag.append(fac)
        stored_entries += nj * (nj + 1) // 2
        flops += nj ** 3 // 3 + nj ** 2
        pat = plan.pattern[j].tolist()
        Lp = work[j][nj:]
        m = Lp.shape[0]
        X = _unit_lower_solve(fac.L, Lp[:, fac.perm].T).T
        Lp[...] = X
        fac.apply_dinv(Lp.T)
        panels.append(Lp)
        prow = rows[j][nj:]
        panel_rows.append(prow)
        lo = [start[j][i] - nj for i in pat]
        stored_entries += m * nj
        flops += m * nj * nj + m * nj
        flops += nj * (m * m + sum(n[i] * n[i] for i in pat)) // 2
        # X and the update U = X L^T, m x m
        widest = max(widest, X.size + m * m)
        if not pat:
            continue
        U = blas_matmul(X, Lp.T)
        U = np.tril(U) + np.tril(U, -1).T
        for a, (k, s) in enumerate(zip(pat, lo)):
            into = start[k]
            for i in pat[a:]:
                if i not in into:
                    raise FactorConsistencyError(
                        f"update targets block {(i, k)} outside pattern")
            pos = rows[k].searchsorted(prow[s:])
            work[k][pos] -= U[s:, s:s + n[k]]

    stats.factor_entries = stored_entries
    stats.flops = flops
    # K, every working panel, every diagonal L and the widest column's X, U
    stats.peak_bytes = 16 * (sum(b.size for b in K.blocks.values())
                             + sum(w.size for w in work)
                             + sum(f.L.size for f in diag) + widest)
    stats.growth_factor = max((f.growth for f in diag), default=1.0)
    stats.n_2x2_pivots = sum(f.n_2x2 for f in diag)
    return BlockFactor(plan, diag, panels, panel_rows, stats)


def reference_block_solve(F, g):
    """Block substitution of one flat right-hand side, with D^-1 applied
    block column by block column."""
    perm = F.plan.order.perm
    ends = np.cumsum(F.plan.sizes_perm).tolist()
    spans = [slice(e - int(n), e) for e, n in zip(ends, F.plan.sizes_perm)]
    scalar = scalar_permutation(F.plan.sizes_perm[F.plan.order.inverse()], perm)
    b = np.asarray(g, dtype=np.complex128)[scalar][:, None]
    for fac, Lp, rows, sj in zip(F.diag, F.panels, F.panel_rows, spans):
        zj = _unit_lower_solve(fac.L, b[sj][fac.perm])
        b[sj] = zj
        if rows.size:
            b[rows] -= blas_matmul(Lp, zj)
    for fac, sj in zip(F.diag, spans):
        fac.apply_dinv(b[sj])
    for j in range(len(spans) - 1, -1, -1):
        fac, rows, sj = F.diag[j], F.panel_rows[j], spans[j]
        w = b[sj]
        if rows.size:
            w = w - blas_matmul(F.panels[j].T, b[rows])
        b[sj.start + fac.perm] = _unit_lower_solve(fac.L, w, trans=1)
    x = np.empty(b.shape[0], dtype=np.complex128)
    x[scalar] = b[:, 0]
    return x


def assert_solve_matches_reference(F, n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = block_solve(F, g)
    ref = reference_block_solve(F, g)
    assert (got.shape, got.tobytes()) == (ref.shape, ref.tobytes())


def factor_bytes(F):
    """Every array of a block factor as bytes, with its shape and dtype,
    plus the stats."""
    def b(a):
        return (a.shape, a.dtype.str, a.tobytes())
    return ([b(p) for p in F.panels], [b(r) for r in F.panel_rows],
            [(b(f.L), b(f.d), b(f.e), b(f.perm), b(f.tags), f.growth, f.n_2x2)
             for f in F.diag],
            F.stats)


def assert_matches_reference(K, plan):
    try:
        ref = reference_block_ldlt(K, plan)
    except (SingularBlockError, ValueError) as err:
        with pytest.raises(type(err)) as got:
            block_ldlt(K, plan)
        assert str(got.value) == str(err)
        return None
    F = block_ldlt(K, plan)
    assert factor_bytes(F) == factor_bytes(ref)
    return F


@st.composite
def block_systems(draw):
    """Block systems with zero-size blocks, couplings that leave fill, and
    diagonal blocks with a zero diagonal, which take 2x2 pivots.  Real
    systems carry imaginary parts of +0.0 or -0.0, so that the factor's
    signed zeros are compared too."""
    nb = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(0, 4), min_size=nb, max_size=nb))
    pairs = [(i, j) for i in range(nb) for j in range(i)]
    coupled = draw(st.lists(st.booleans(), min_size=len(pairs),
                            max_size=len(pairs)))
    hollow = draw(st.lists(st.booleans(), min_size=nb, max_size=nb))
    kind = draw(st.sampled_from(["complex", "real", "real, -0.0 imag"]))
    natural = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def rand(*shape):
        z = rng.standard_normal(shape)
        if kind == "complex":
            return z + 1j * rng.standard_normal(shape)
        return z + 0j if kind == "real" else np.conj(z + 0j)

    triples = []
    for i, s in enumerate(sizes):
        G = rand(s, s)
        D = (G + G.T) / 2
        if hollow[i] and s >= 2:
            np.fill_diagonal(D, -0.0)
            D *= 8.0
        else:
            D += 4.0 * s * np.eye(s)
        triples.append((i, i, D))
    triples += [(i, j, 0.3 * rand(sizes[i], sizes[j]))
                for (i, j), c in zip(pairs, coupled) if c]
    K = blockmat.from_blocks(sizes, triples)
    return K, identity_ordering(nb) if natural else None


def test_matches_reference_on_drawn_systems():
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(block_systems())
    def check(case):
        K, order = case
        plan = plan_for(K, order)
        F = assert_matches_reference(K, plan)
        if F is not None:
            assert_solve_matches_reference(F, K.order, K.nblocks)
            seen["2x2"] += F.stats.n_2x2_pivots > 0
            seen["fill"] += bool(fill_blocks(plan, blockmat.clique_graph(K)))
            seen["empty"] += bool((K.sizes == 0).any())

    check()
    assert min(seen[k] for k in ("2x2", "fill", "empty")) > 0, seen


def test_matches_reference_on_reduced_systems(reduced_systems):
    for rsys in reduced_systems.values():
        F = assert_matches_reference(rsys.K, plan_for(rsys.K))
        assert F is not None
        assert block_solve(F, rsys.g).tobytes() == \
            reference_block_solve(F, rsys.g).tobytes()
