import numpy as np
import pytest
from conftest import GEOMETRIES, fill_blocks, graph, graph_edges, rand_clique_graph
from hypothesis import given, settings, strategies as st
from ddsolve import blockmat, factor, symbolic
from ddsolve.ordering import Ordering, identity_ordering, reorder
from ddsolve.symbolic import symbolic_factor


def brute_force_pattern(g, n):
    """Elimination-graph oracle: re-derive fill by explicit edge insertion."""
    adj = [set(s) for s in g]
    pattern = []
    for j in range(n):
        rows = sorted(r for r in adj[j] if r > j)
        pattern.append(rows)
        for a, u in enumerate(rows):
            for w in rows[a + 1:]:
                adj[u].add(w)
                adj[w].add(u)
    return pattern


def test_edgeless_plan():
    g = graph(4)
    sizes = np.array([2, 3, 1, 4])
    plan = symbolic_factor(g, identity_ordering(4), sizes)
    assert all(p.size == 0 for p in plan.pattern)
    assert (plan.etree_parent == -1).all()
    assert plan.total_factor_entries == sum(s * (s + 1) // 2 for s in sizes)


def test_four_cycle_natural_order():
    g = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    plan = symbolic_factor(g, identity_ordering(4), np.ones(4, dtype=int))
    assert [p.tolist() for p in plan.pattern] == [[1, 3], [2, 3], [3], []]
    assert plan.etree_parent.tolist() == [1, 2, 3, -1]
    assert fill_blocks(plan, g) == [(3, 1)]


def test_etree_parent_is_min_pattern_row():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        g = rand_clique_graph(rng, n, 0.4)
        plan = symbolic_factor(g, identity_ordering(n), rng.integers(1, 5, size=n))
        for j in range(n):
            if plan.pattern[j].size:
                assert plan.etree_parent[j] == plan.pattern[j][0]
            else:
                assert plan.etree_parent[j] == -1


def test_matches_brute_force_oracle_with_permutation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        g = rand_clique_graph(rng, n, 0.5)
        perm = rng.permutation(n).astype(np.int64)
        order = Ordering(perm)
        plan = symbolic_factor(g, order, rng.integers(1, 5, size=n))
        # relabel, then brute force on the permuted graph
        inv = order.inverse()
        gp = graph(n, [(int(inv[i]), int(inv[j])) for i in range(n) for j in g[i]])
        oracle = brute_force_pattern(gp, n)
        assert [p.tolist() for p in plan.pattern] == oracle


def test_fill_monotone_under_subgraphs():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(3, 11))
        g = rand_clique_graph(rng, n, 0.6)
        edges = graph_edges(g)
        if not edges:
            continue
        sub = graph(n, [e for e in edges if rng.random() < 0.6])
        sizes = np.ones(n, dtype=int)
        p_super = symbolic_factor(g, identity_ordering(n), sizes)
        p_sub = symbolic_factor(sub, identity_ordering(n), sizes)
        for j in range(n):
            assert set(p_sub.pattern[j].tolist()) <= set(p_super.pattern[j].tolist())


def test_original_blocks_subset_of_pattern():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        g = rand_clique_graph(rng, n, 0.4)
        perm = rng.permutation(n).astype(np.int64)
        plan = symbolic_factor(g, Ordering(perm), np.ones(n, dtype=int))
        inv = plan.order.inverse()
        for i in range(n):
            for j in g[i]:
                a, b = int(inv[i]), int(inv[j])
                if a > b:
                    assert a in plan.pattern[b]


def test_total_entries_formula():
    rng = np.random.default_rng(4)
    g = rand_clique_graph(rng, 8, 0.5)
    sizes = rng.integers(1, 6, size=8)
    plan = symbolic_factor(g, identity_ordering(8), sizes)
    expect = 0
    for j in range(8):
        nj = int(sizes[j])
        expect += nj * (nj + 1) // 2
        expect += nj * sum(int(sizes[i]) for i in plan.pattern[j])
    assert plan.total_factor_entries == expect


def test_numeric_factor_never_leaves_pattern():
    # numeric/symbolic cross-check on random block systems
    from conftest import assert_factor_in_pattern, rand_block_system
    from ddsolve import ordering as om
    for seed in range(12):
        K, _ = rand_block_system(seed + 300, max_blocks=10, max_size=5)
        g = blockmat.clique_graph(K)
        order = om.reorder(g, K.sizes)
        plan = symbolic_factor(g, order, K.sizes)
        F = factor.block_ldlt(K, plan)
        assert_factor_in_pattern(F)
        assert F.stats.factor_entries == plan.total_factor_entries


def test_format_plan_mentions_bytes():
    g = graph(2, [(0, 1)])
    plan = symbolic_factor(g, identity_ordering(2), np.array([2, 3]))
    text = symbolic.format_plan(plan)
    assert "predicted factor bytes" in text
    assert str(16 * plan.total_factor_entries) in text


def reference_symbolic_factor(g, order, sizes):
    """The per-column loop that preceded the one-array pass: one int64 array
    per column, and the totals summed column by column.  Returns
    ``(pattern, etree_parent, total_factor_entries)``."""
    n = len(g)
    sizes = np.asarray(sizes, dtype=np.int64)
    inv = order.inverse().tolist()
    below = [set() for _ in range(n)]
    for i in range(n):
        a = inv[i]
        below[a].update(b for b in (inv[j] for j in g[i]) if b > a)
    pattern = []
    parent = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        rows = sorted(below[j])
        pattern.append(np.array(rows, dtype=np.int64))
        if rows:
            parent[j] = rows[0]
            below[rows[0]].update(rows[1:])
    sizes_perm = sizes[order.perm]
    total = 0
    for j in range(n):
        nj = int(sizes_perm[j])
        total += nj * (nj + 1) // 2
        total += nj * int(sizes_perm[pattern[j]].sum())
    return pattern, parent, total


def assert_plan_matches_reference(g, order, sizes):
    plan = symbolic_factor(g, order, sizes)
    pattern, parent, total = reference_symbolic_factor(g, order, sizes)
    assert len(plan.pattern) == len(pattern)
    for got, want in zip(plan.pattern, pattern):
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert plan.etree_parent.dtype == np.int64
    assert plan.etree_parent.tobytes() == parent.tobytes()
    assert type(plan.total_factor_entries) is int
    assert plan.total_factor_entries == total


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_plan_matches_per_column_reference_on_reduced_graphs(reduced_systems, name):
    K = reduced_systems[name].K
    g = blockmat.clique_graph(K)
    for order in (reorder(g, K.sizes), identity_ordering(len(g))):
        assert_plan_matches_reference(g, order, K.sizes)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_plan_matches_per_column_reference_on_drawn_graphs(data):
    n = data.draw(st.integers(0, 30))
    p = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = rand_clique_graph(rng, n, p)
    sizes = rng.integers(0, 7, size=n)
    for order in (reorder(g, sizes), identity_ordering(n),
                  Ordering(rng.permutation(n))):
        assert_plan_matches_reference(g, order, sizes)


def test_patterns_are_read_only():
    g = graph(3, [(0, 2), (1, 2)])
    plan = symbolic_factor(g, identity_ordering(3), np.ones(3, dtype=int))
    with pytest.raises(ValueError, match="read-only"):
        plan.pattern[0][0] = 1


@pytest.mark.parametrize("sizes, first_bad", [
    ([1.5, 2.7, 0.2], "block size 0 is 1.5"),
    ([-1, 2, 3], "block size 0 is -1"),
    ([1, 2, float("nan")], "block size 2 is nan"),
    ([1, float("inf"), 2], "block size 1 is inf"),
    ([2.0, -0.5, 1.0], "block size 1 is -0.5"),
])
def test_non_integer_negative_or_non_finite_sizes_rejected(sizes, first_bad):
    g = graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=first_bad):
        symbolic_factor(g, identity_ordering(3), sizes)


def test_integer_valued_float_sizes_accepted():
    g = graph(3, [(0, 1), (1, 2)])
    plan = symbolic_factor(g, identity_ordering(3), [2.0, 1.0, 3.0])
    ref = symbolic_factor(g, identity_ordering(3), [2, 1, 3])
    assert plan.sizes_perm.dtype == np.int64
    assert plan.sizes_perm.tolist() == ref.sizes_perm.tolist() == [2, 1, 3]
    assert plan.total_factor_entries == ref.total_factor_entries == 15
