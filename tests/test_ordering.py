import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import GEOMETRIES, fill_blocks, graph, rand_clique_graph
from ddsolve import mesh, ordering, subdomain, symbolic
from ddsolve.blockmat import clique_graph
from ddsolve.ordering import Ordering, OrderingError, _min_degree_order, \
    check_permutation, identity_ordering, load_ordering_file, reorder, \
    reorder_with_plan


def path_graph(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n_leaves):
    return graph(n_leaves + 1, [(0, leaf) for leaf in range(1, n_leaves + 1)])


def rand_tree(rng, n):
    return graph(n, [(v, int(rng.integers(0, v))) for v in range(1, n)])


def n_fill(g, order, weights):
    plan = symbolic.symbolic_factor(g, order, weights)
    return len(fill_blocks(plan, g))


def factor_entries(g, order, weights):
    return symbolic.symbolic_factor(g, order, weights).total_factor_entries


def reference_min_degree_order(g, weights):
    """Full-rescan minimum degree: every step recomputes the key of every
    live vertex, including its simplicial test."""
    n = len(g)
    adj = [set(s) for s in g]
    alive = [True] * n
    order = []
    for _ in range(n):
        best = -1
        best_key = None
        for v in range(n):
            if not alive[v]:
                continue
            deg = int(sum(weights[u] for u in adj[v]))
            nbrs = sorted(adj[v])
            simplicial = all(w in adj[u] for a_i, u in enumerate(nbrs)
                             for w in nbrs[a_i + 1:])
            key = (0 if simplicial else 1, deg, v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        order.append(best)
        alive[best] = False
        nbrs = sorted(adj[best])
        for u in nbrs:
            adj[u].discard(best)
        for a_i, u in enumerate(nbrs):
            for w in nbrs[a_i + 1:]:
                adj[u].add(w)
                adj[w].add(u)
    return np.array(order, dtype=np.int64)


def reference_incremental_min_degree(g, weights):
    """The set-based incremental minimum degree that preceded the bitset
    one: closed neighbourhoods as sets, keys ``(not simplicial, weighted
    degree, index)`` in a heap with lazy invalidation, and the subset test
    rerun for every neighbour of the eliminated vertex."""
    n = len(g)
    w = np.asarray(weights).tolist()
    nb = [s | {v} for v, s in enumerate(g)]
    deg = [sum(w[u] for u in s) for s in g]

    def key(v):
        nv = nb[v]
        return (0 if all(nv <= nb[u] for u in nv) else 1, deg[v], v)

    keys = [key(v) for v in range(n)]
    heap = list(keys)
    heapq.heapify(heap)
    order = []
    while heap:
        k = heapq.heappop(heap)
        v = k[2]
        if keys[v] != k:
            continue
        keys[v] = None
        order.append(v)
        nbrs = nb[v]
        nbrs.discard(v)
        wv = w[v]
        for u in nbrs:
            nb[u].discard(v)
            deg[u] -= wv
        fill = []
        for u in nbrs:
            nu = nb[u]
            new = nbrs - nu
            if new:
                nu |= new
                deg[u] += sum(w[x] for x in new)
                fill.extend((u, x) for x in new if x > u)
        touched = set(nbrs)
        for a, b in fill:
            touched |= nb[a] & nb[b]
        for u in touched:
            if u in nbrs or keys[u][0]:
                k = key(u)
                if k != keys[u]:
                    keys[u] = k
                    heapq.heappush(heap, k)
    return np.array(order, dtype=np.int64)


def simplicial_vertices(adj, alive):
    """Live vertices whose live neighbors are pairwise adjacent."""
    return {v for v in range(len(adj)) if alive[v]
            and all(b in adj[a] for a in adj[v] for b in adj[v] if a != b)}


def reference_reorder(g, weights):
    """The natural-order guard of ``reorder`` around the reference order."""
    md = Ordering(reference_min_degree_order(g, weights))
    natural = identity_ordering(len(g))
    if factor_entries(g, md, weights) <= factor_entries(g, natural, weights):
        return md.perm
    return natural.perm


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(1, 24))
    p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    rnd = draw(st.randoms(use_true_random=False))
    g = graph(n, [(i, j) for i in range(n) for j in range(i) if rnd.random() < p])
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    return g, weights


@st.composite
def varied_weighted_graphs(draw):
    """Graphs up to complete, with weights that include zeros, one
    distinct weight per vertex, or one weight for all."""
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    g = graph(n, [(i, j) for i in range(n) for j in range(i) if rnd.random() < p])
    kind = draw(st.sampled_from(["small", "distinct", "uniform"]))
    if kind == "small":
        weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    elif kind == "distinct":
        weights = draw(st.permutations(range(n)))
    else:
        weights = [draw(st.integers(0, 7))] * n
    return g, np.array(weights, dtype=np.int64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weighted_graphs())
def test_min_degree_matches_full_rescan_reference(gw):
    g, weights = gw
    assert np.array_equal(_min_degree_order(g, weights).order.perm,
                          reference_min_degree_order(g, weights))
    assert np.array_equal(reorder(g, weights).perm, reference_reorder(g, weights))


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_min_degree_matches_reference_on_reduced_graphs(reduced_systems, name):
    K = reduced_systems[name].K
    g = clique_graph(K)
    order = _min_degree_order(g, K.sizes).order.perm
    assert np.array_equal(order, reference_min_degree_order(g, K.sizes))
    assert np.array_equal(order, reference_incremental_min_degree(g, K.sizes))
    assert np.array_equal(reorder(g, K.sizes).perm,
                          reference_reorder(g, K.sizes))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(varied_weighted_graphs())
def test_min_degree_matches_set_based_reference(gw):
    g, weights = gw
    order = _min_degree_order(g, weights).order.perm
    assert order.dtype == np.int64
    assert np.array_equal(order, reference_incremental_min_degree(g, weights))
    if len(g) <= 24:
        assert np.array_equal(order, reference_min_degree_order(g, weights))


def test_min_degree_matches_set_based_reference_at_480_blocks():
    """8 wavelengths, ppw 10, 16x16 tiles: too large for the full-rescan
    reference."""
    side, ppw, tiles = 8.0, 10, 16
    cfg = mesh.ProblemConfig(side_lambda=side, ppw=ppw, px=tiles, py=tiles,
                             theta_inc=0.3)
    m = mesh.build_rect_mesh(side, ppw)
    part = mesh.partition_mesh(m, tiles, tiles)
    K = subdomain.assemble_reduced(
        [subdomain.reduce_domain(s)
         for s in subdomain.build_subdomain_systems(m, part, cfg)], part).K
    g = clique_graph(K)
    assert len(g) == 480
    assert np.array_equal(_min_degree_order(g, K.sizes).order.perm,
                          reference_incremental_min_degree(g, K.sizes))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(varied_weighted_graphs())
def test_simplicial_vertices_stay_simplicial(gw):
    """Along the full-rescan reference's elimination, a simplicial vertex
    stays simplicial until it is eliminated; the bitset minimum degree
    re-keys such a vertex from its degree alone."""
    g, weights = gw
    adj = [set(s) for s in g]
    alive = [True] * len(g)
    simplicial = simplicial_vertices(adj, alive)
    for v in reference_min_degree_order(g, weights).tolist():
        alive[v] = False
        nbrs = adj[v]
        for u in nbrs:
            adj[u].discard(v)
            adj[u] |= nbrs - {u}
        now = simplicial_vertices(adj, alive)
        assert simplicial - {v} <= now
        simplicial = now


def assert_same_plan(plan, ref):
    assert np.array_equal(plan.order.perm, ref.order.perm)
    for name in ("etree_parent", "sizes_perm"):
        a, b = getattr(plan, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert len(plan.pattern) == len(ref.pattern)
    for a, b in zip(plan.pattern, ref.pattern):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert a.flags.writeable == b.flags.writeable
    assert plan.total_factor_entries == ref.total_factor_entries


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weighted_graphs())
def test_plan_is_that_of_the_chosen_order(gw):
    """The guard's plan is returned, whichever order wins, and it is the
    plan a separate symbolic pass over the chosen order gives."""
    g, weights = gw
    plan = reorder_with_plan(g, weights)
    assert_same_plan(plan, symbolic.symbolic_factor(g, reorder(g, weights), weights))


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_plan_is_that_of_the_chosen_order_on_reduced_graphs(reduced_systems, name):
    K = reduced_systems[name].K
    g = clique_graph(K)
    assert_same_plan(reorder_with_plan(g, K.sizes),
                     symbolic.symbolic_factor(g, reorder(g, K.sizes), K.sizes))


def assert_min_degree_plan_is_its_symbolic_plan(g, weights):
    weights = np.asarray(weights, dtype=np.int64)
    md = _min_degree_order(g, weights)
    assert_same_plan(md, symbolic.symbolic_factor(g, md.order, weights))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(varied_weighted_graphs())
def test_min_degree_plan_is_the_symbolic_plan_of_its_order(gw):
    """Minimum degree's plan, built from its elimination graph, is byte for
    byte the plan a separate symbolic pass over its order gives."""
    assert_min_degree_plan_is_its_symbolic_plan(*gw)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_min_degree_plan_is_the_symbolic_plan_on_reduced_graphs(reduced_systems, name):
    K = reduced_systems[name].K
    assert_min_degree_plan_is_its_symbolic_plan(clique_graph(K), K.sizes)


@pytest.mark.parametrize("weights", [[], [0], [3], [0, 0, 0, 0, 0, 0],
                                     [0, 2, 0, 1, 0, 3]])
def test_min_degree_plan_of_zero_size_and_tiny_graphs(weights):
    n = len(weights)
    for g in (graph(n), graph(n, [(i, j) for i in range(n) for j in range(i)
                                  if (i + j) % 3])):
        assert_min_degree_plan_is_its_symbolic_plan(g, weights)


def test_guard_chooses_what_the_full_natural_plan_chooses():
    """The counting guard against the full natural plan and ``md.total <=
    natural.total``.  The drawn graphs hold ties where the two orders
    differ, so a guard that sent ties to the natural order would fail here,
    and graphs where the natural order is strictly smaller."""
    rng = np.random.default_rng(0)
    ties = natural_smaller = 0
    for _ in range(300):
        n = int(rng.integers(5, 15))
        g = rand_clique_graph(rng, n, float(rng.uniform(0.3, 0.9)))
        w = rng.integers(0, 5, size=n)
        md = Ordering(reference_min_degree_order(g, w))
        md_total = factor_entries(g, md, w)
        natural_total = factor_entries(g, identity_ordering(n), w)
        chosen = md if md_total <= natural_total else identity_ordering(n)
        assert_same_plan(reorder_with_plan(g, w),
                         symbolic.symbolic_factor(g, chosen, w))
        ties += md_total == natural_total and not np.array_equal(md.perm, np.arange(n))
        natural_smaller += natural_total < md_total
    assert ties and natural_smaller


def test_factor_entries_exact_past_int64():
    """At weights 2^40 a block has about 2^80 entries, past int64: the plan
    counts them exactly, and the guard compares exact totals.  On the
    5-vertex graph the natural order is strictly smaller than minimum
    degree's, which a total wrapped modulo 2^64 would hide."""
    w = 1 << 40
    plan = reorder_with_plan(path_graph(3), [w] * 3)
    assert plan.total_factor_entries == 3 * (w * (w + 1) // 2) + 2 * w * w \
        == 4_231_240_368_652_851_378_913_280
    assert np.array_equal(plan.order.perm, _min_degree_order(path_graph(3),
                          np.array([w] * 3)).order.perm)  # a tie keeps it
    g = graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (3, 4)])
    weights = np.array([4, 3, 2, 6, 6]) * w
    md = _min_degree_order(g, weights)
    natural = symbolic.symbolic_factor(g, identity_ordering(5), weights)
    for plan in (md, natural):
        s = plan.sizes_perm.tolist()
        assert plan.total_factor_entries == sum(x * (x + 1) // 2 for x in s) + sum(
            s[j] * s[i] for j, rows in enumerate(plan.pattern) for i in rows.tolist())
    assert natural.total_factor_entries < md.total_factor_entries
    assert_same_plan(reorder_with_plan(g, weights), natural)


def test_natural_win_checks_the_graph_once_and_walks_the_fill_once(monkeypatch):
    """Where the natural order wins, the guard's one walk is its plan: no
    second walk of the fill and no second check of the graph."""
    g = graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (3, 4)])
    checks, walks = [], []
    check_adjacency, fill_plan = ordering.check_adjacency, symbolic.fill_plan

    def counted_check(g, error):
        checks.append(error)
        check_adjacency(g, error)

    def counted_walk(*args):
        walks.append(args[1])
        return fill_plan(*args)

    for module in (ordering, symbolic):
        monkeypatch.setattr(module, "check_adjacency", counted_check)
        monkeypatch.setattr(module, "fill_plan", counted_walk)
    plan = reorder_with_plan(g, [4, 3, 2, 6, 6])
    assert np.array_equal(plan.order.perm, np.arange(5))    # natural wins
    assert checks == [OrderingError]
    assert walks == [plan.order]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weighted_graphs(), st.data())
def test_fill_plan_is_none_exactly_when_its_entries_reach_the_limit(gw, data):
    """Given a limit, the walk stops once the count reaches it; otherwise it
    returns the plan ``symbolic_factor`` gives, bit for bit."""
    g, weights = gw
    order = Ordering(data.draw(st.permutations(range(len(g)))))
    full = symbolic.symbolic_factor(g, order, weights)
    total = full.total_factor_entries
    limit = data.draw(st.one_of(st.sampled_from([total - 1, total, total + 1]),
                                st.integers(0, 2 * total)))
    plan = symbolic.fill_plan(g, order, weights, limit)
    if total >= limit:
        assert plan is None
    else:
        assert_same_plan(plan, full)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weighted_graphs())
def test_packed_keys_keep_the_order_at_weights_near_2_to_the_40(gw):
    g, weights = gw
    for big in ((1 << 40) + weights, (1 << 40) - weights, weights << 38):
        assert np.array_equal(_min_degree_order(g, big).order.perm,
                              reference_min_degree_order(g, big))


def test_edgeless_gives_ascending_order():
    g = graph(6)
    o = reorder(g, np.ones(6, dtype=int))
    assert np.array_equal(o.perm, np.arange(6))


def test_path_p5_zero_fill():
    g = path_graph(5)
    w = np.ones(5, dtype=int)
    assert n_fill(g, reorder(g, w), w) == 0


def test_star_center_last_vs_center_first():
    g = star_graph(5)
    w = np.ones(6, dtype=int)
    center_last = Ordering(np.array([1, 2, 3, 4, 5, 0]))
    assert n_fill(g, center_last, w) == 0
    center_first = Ordering(np.arange(6))
    assert n_fill(g, center_first, w) == 10  # complete fill among 5 leaves
    # the built-in order must find a fill-free elimination too
    assert n_fill(g, reorder(g, w), w) == 0


@pytest.mark.parametrize("seed", range(20))
def test_orders_are_bijections(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    g = rand_clique_graph(rng, n, float(rng.uniform(0.0, 0.8)))
    o = reorder(g, rng.integers(1, 6, size=n))
    assert sorted(o.perm.tolist()) == list(range(n))


@pytest.mark.parametrize("seed", range(25))
def test_trees_get_zero_fill(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 14))
    g = rand_tree(rng, n)
    w = rng.integers(1, 9, size=n)
    assert n_fill(g, reorder(g, w), w) == 0


def test_never_worse_than_identity_on_random_suite():
    # 100-graph randomized suite; fill measured as the symbolic module's
    # predicted factor entries
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        g = rand_clique_graph(rng, n, float(rng.uniform(0.1, 0.7)))
        w = rng.integers(1, 6, size=n)
        assert factor_entries(g, reorder(g, w), w) <= \
            factor_entries(g, identity_ordering(n), w)


@pytest.mark.parametrize("perm,named", [([0.0, 1.7], "position 1 is 1.7"),
                                        ([[0, 1]], "one-dimensional"),
                                        ([[0, 1], [2]], "one-dimensional"),
                                        ([1, -1], "position 1 is -1"),
                                        (["a"], "not numbers")])
def test_positions_must_be_a_sequence_of_integers(perm, named):
    with pytest.raises(OrderingError, match=named):
        Ordering(perm)


def test_integer_valued_float_positions_accepted():
    perm = Ordering([2.0, 0.0, 1.0]).perm
    assert perm.dtype == np.int64 and perm.tolist() == [2, 0, 1]


def test_invalid_permutation_rejected():
    with pytest.raises(OrderingError):
        Ordering(np.array([0, 0, 1]))
    with pytest.raises(OrderingError):
        Ordering(np.array([0, 3]))


@pytest.mark.parametrize("perm", [[0, -1, 1], [0, 3, 1], [2, 0, 2], [1, 1, 1],
                                  [-3, 1, 2], [3]])
def test_check_permutation_rejects(perm):
    with pytest.raises(OrderingError, match="not a bijection on 0..n-1"):
        check_permutation(np.array(perm, dtype=np.int64))


@pytest.mark.parametrize("perm", [[], [0], [2, 0, 1], list(range(9, -1, -1))])
def test_check_permutation_accepts(perm):
    check_permutation(np.array(perm, dtype=np.int64))
    assert Ordering(np.array(perm, dtype=np.int64)).n == len(perm)


def test_weight_length_check():
    with pytest.raises(OrderingError):
        reorder(graph(3), np.ones(2, dtype=int))


@pytest.mark.parametrize("weights, first_bad", [
    ([1.5, 2.7, 0.2], "weight 0 is 1.5"),
    ([1, -2, 3], "weight 1 is -2"),
    ([1, 2, float("nan")], "weight 2 is nan"),
    ([1, float("inf"), 2], "weight 1 is inf"),
    ([2.0, -0.5, 1.0], "weight 1 is -0.5"),
])
def test_non_integer_negative_or_non_finite_weights_rejected(weights, first_bad):
    g = path_graph(3)
    for fn in (reorder, reorder_with_plan):
        with pytest.raises(OrderingError, match=first_bad):
            fn(g, weights)


def test_non_numeric_weights_rejected():
    with pytest.raises(OrderingError, match="not numbers"):
        reorder(path_graph(3), ["1", "2", "3"])


def test_integer_valued_float_weights_accepted():
    rng = np.random.default_rng(7)
    g = rand_clique_graph(rng, 12, 0.4)
    w = rng.integers(0, 6, size=12)
    as_float = reorder_with_plan(g, w.astype(float))
    assert_same_plan(as_float, reorder_with_plan(g, w))
    assert as_float.sizes_perm.dtype == np.int64


@pytest.mark.parametrize("g, named", [
    ([{-1}, set()], "vertex 0 has neighbor -1;"),
    ([{5}], "vertex 0 has neighbor 5;"),
    ([{0}], "vertex 0 has neighbor 0;"),
    ([{1.0}, {0}], "vertex 0 has neighbor 1.0;"),
    ([{True}, {0}], "vertex 0 has neighbor True;"),
    ([set(), {0}], "vertex 1 has neighbor 0, but vertex 0 does not list 1"),
    ([{1, 2}, {0, 2}, {1}], "vertex 0 has neighbor 2, but vertex 2 does not list 0"),
], ids=["negative", "out-of-range", "self-loop", "float", "bool", "one-sided",
        "one-sided-in-triangle"])
def test_malformed_adjacency_rejected(g, named):
    sizes = np.ones(len(g), dtype=np.int64)
    with pytest.raises(OrderingError, match=named):
        reorder(g, sizes)
    with pytest.raises(OrderingError, match=named):
        reorder_with_plan(g, sizes)
    with pytest.raises(ValueError, match=named):
        symbolic.symbolic_factor(g, identity_ordering(len(g)), sizes)


def test_numpy_integer_neighbors_accepted():
    rng = np.random.default_rng(11)
    g = rand_clique_graph(rng, 12, 0.4)
    w = rng.integers(1, 6, size=12)
    as_numpy = [{np.int32(u) if u % 2 else np.int64(u) for u in s} for s in g]
    assert_same_plan(reorder_with_plan(as_numpy, w), reorder_with_plan(g, w))
    order = Ordering(rng.permutation(12))
    assert_same_plan(symbolic.symbolic_factor(as_numpy, order, w),
                     symbolic.symbolic_factor(g, order, w))


class TestOrderingFile:
    def test_load(self, tmp_path):
        p = tmp_path / "ord.txt"
        p.write_text("# comment\n2\n0\n\n1\n")
        o = load_ordering_file(p, 3)
        assert np.array_equal(o.perm, [2, 0, 1])

    def test_wrong_length(self, tmp_path):
        p = tmp_path / "ord.txt"
        p.write_text("0\n1\n")
        with pytest.raises(OrderingError):
            load_ordering_file(p, 3)

    def test_not_bijection(self, tmp_path):
        p = tmp_path / "ord.txt"
        p.write_text("0\n0\n2\n")
        with pytest.raises(OrderingError):
            load_ordering_file(p, 3)

    def test_non_integer_line(self, tmp_path):
        p = tmp_path / "ord.txt"
        p.write_text("0\n1.5\n2\n")
        with pytest.raises(OrderingError, match="1.5"):
            load_ordering_file(p, 3)
