"""Fill-reducing elimination orders for the clique graph.

The built-in algorithm is a weighted minimum-degree elimination: at each step
the vertex whose neighbors carry the smallest total block size is eliminated
and its remaining neighbors are merged into a clique.  The explicit
elimination graph is kept, one int bitset per closed neighborhood, and only
the keys an elimination can change are recomputed.  Ties break toward the
smaller vertex index, which makes the order fully deterministic.  The
neighbors a vertex has when it is eliminated are its column's pattern, so
minimum degree emits its symbolic plan itself.

A natural-order guard keeps minimum degree unless the natural order's
factor is strictly smaller.  One walk of the natural order's fill counts its
entries column by column and stops as soon as they reach minimum degree's;
a walk that completes is the natural plan.  An externally computed
permutation can be loaded from a text file with one index per line instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .blockmat import check_adjacency, nonnegative_integers
from .symbolic import EliminationPlan, fill_plan, plan_from_rows


class OrderingError(Exception):
    pass


@dataclass(eq=False)
class Ordering:
    perm: np.ndarray  # perm[new_position] = old_index

    def __post_init__(self):
        try:
            perm = np.asarray(self.perm)
        except ValueError as err:   # a ragged nested sequence
            raise OrderingError("an ordering is a one-dimensional sequence") from err
        if perm.ndim != 1:
            raise OrderingError("an ordering is a one-dimensional sequence")
        self.perm = nonnegative_integers(perm, "position", OrderingError)
        check_permutation(self.perm)

    @property
    def n(self) -> int:
        return int(self.perm.size)

    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.perm.size)
        return inv


def check_permutation(perm: np.ndarray) -> None:
    n = perm.size
    if n and (perm.min() < 0 or perm.max() >= n
              or np.bincount(perm, minlength=n).max() > 1):
        raise OrderingError("ordering is not a bijection on 0..n-1")


def _min_degree_order(g: list[set[int]], weights: np.ndarray) -> EliminationPlan:
    """Eliminate by the smallest key ``(not simplicial, weighted degree,
    index)`` and return the plan of that order.  Keys are held in a heap
    with lazy invalidation, each packed into one int whose fields are wide
    enough for ``n`` and the total weight, so they never overlap.

    ``nb[v]`` is the closed neighborhood of ``v`` as an int bitset, so ``v``
    is simplicial (its neighbors form a clique) exactly when ``nb[v]`` is a
    subset of ``nb[u]`` for every neighbor ``u``.  A neighbor that failed
    that test is kept as ``v``'s witness and tried first next time: while it
    is still a neighbor and still fails, ``v`` is not simplicial and no scan
    runs.  An eliminated witness has left ``nb[v]``, and its stale bitset is
    not read.  Eliminating ``v`` takes
    ``w[v]`` from each neighbor's degree and adds the weights of its new
    fill neighbors.

    Eliminating ``v`` turns its neighbors into a clique.  Only two kinds of
    vertex can change key: the neighbors of ``v``, whose adjacency changed,
    and vertices adjacent to both ends of a new fill edge, which may become
    simplicial.  Every other vertex keeps its neighbors and the edges among
    them, so only these keys are recomputed (George & Liu 1989).  A
    simplicial neighbor ``u`` stays simplicial: ``nb[u]`` lay inside
    ``nb[v]``, and becomes ``nb[v]`` minus ``v``, now a clique.

    The neighbors of ``v`` when it is eliminated are its column's pattern,
    fill included, so the plan needs no second symbolic pass.
    """
    n = len(g)
    w = weights.tolist()
    bit = [1 << v for v in range(n)]
    nb = [sum(map(bit.__getitem__, s), bit[v]) for v, s in enumerate(g)]
    deg = [sum(map(w.__getitem__, s)) for s in g]
    shift = n.bit_length()  # key: not simplicial | degree | index
    index = (1 << shift) - 1
    flag = 1 << (shift + sum(w).bit_length())
    wit = list(range(n))  # per vertex, the neighbor that last showed it not simplicial

    def simplicial(v: int) -> bool:
        nv = nb[v]
        x = wit[v]
        if nv & bit[x] and nv & nb[x] != nv:
            return False
        rest = nv ^ bit[v]
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            if nv & nb[x] != nv:
                wit[v] = x
                return False
            rest ^= low
        return True

    keys = [(0 if simplicial(v) else flag) | deg[v] << shift | v for v in range(n)]
    heap = list(keys)
    heapq.heapify(heap)
    order = []
    cols = []  # per eliminated vertex, its neighbors then: its column's pattern
    while heap:
        k = heapq.heappop(heap)
        v = k & index
        if keys[v] != k:
            continue  # stale entry of an eliminated or re-keyed vertex
        keys[v] = -1
        order.append(v)
        vb = bit[v]
        nbrs = nb[v] ^ vb
        us = []
        touched = 0  # vertices adjacent to both ends of a fill edge
        rest = nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            us.append(u)
            nu = nb[u] ^ vb
            new = nbrs & ~nu
            d = deg[u] - w[v]
            if new:
                nu |= new
                while new:
                    low = new & -new
                    new ^= low
                    x = low.bit_length() - 1
                    d += w[x]
                    if x > u:
                        touched |= nu & nb[x]
            nb[u] = nu
            deg[u] = d
        cols.append(us)
        for u in us:
            k = (flag if keys[u] & flag and not simplicial(u) else 0) \
                | deg[u] << shift | u
            if k != keys[u]:
                keys[u] = k
                heapq.heappush(heap, k)
        # A vertex outside nb[v] keeps its degree and can only become
        # simplicial.  Its bit in touched does not depend on whether nb[x]
        # was read before or after its update, which stays inside nb[v].
        rest = touched & ~nb[v]
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if keys[u] & flag and simplicial(u):
                keys[u] = k = deg[u] << shift | u
                heapq.heappush(heap, k)
    # column j's rows: the positions of cols[j], ascending by one sort of
    # all (column, position) keys
    order = Ordering(order)
    counts = np.fromiter(map(len, cols), np.int64, n)
    column = np.repeat(np.arange(n, dtype=np.int64) * n, counts)
    flat = order.inverse()[np.fromiter(chain.from_iterable(cols), np.int64,
                                       counts.sum())]
    flat += column
    flat.sort()
    flat -= column
    return plan_from_rows(order, flat, [0, *np.cumsum(counts).tolist()], weights)


def reorder(g: list[set[int]], weights) -> Ordering:
    """Fill-reducing order of adjacency list ``g``; ``weights`` are block sizes.

    Runs weighted minimum degree with a simplicial-vertex preference
    (vertices of zero deficiency go first, so chordal graphs, trees and
    paths come out fill-free), ties broken by weighted degree then vertex
    index.  The produced order is kept only if its predicted factor size is
    no worse than the natural order's, the usual ordering-portfolio guard of
    sparse direct solvers; minimum degree alone is a heuristic and can lose
    to the natural order on small graphs.  A tie keeps minimum degree.
    """
    return reorder_with_plan(g, weights).order


def reorder_with_plan(g: list[set[int]], weights) -> EliminationPlan:
    """The symbolic plan of :func:`reorder`'s order; ``plan.order`` is that
    order.  ``g`` is checked by :func:`~ddsolve.blockmat.check_adjacency`,
    and weights must be non-negative integers (integer-valued floats
    included); either raises OrderingError naming the first bad entry.

    Minimum degree builds its plan from its own elimination graph.  The
    guard is one :func:`~ddsolve.symbolic.fill_plan` walk of the natural
    order, stopped once its entries reach minimum degree's: a tie keeps
    minimum degree, and no symbolic pass repeats.
    """
    check_adjacency(g, OrderingError)
    n = len(g)
    if np.size(weights) != n:
        raise OrderingError("weights length does not match graph size")
    weights = nonnegative_integers(weights, "weight", OrderingError)
    md = _min_degree_order(g, weights)
    natural = fill_plan(g, identity_ordering(n), weights, md.total_factor_entries)
    return md if natural is None else natural


def identity_ordering(n: int) -> Ordering:
    return Ordering(np.arange(n, dtype=np.int64))


def load_ordering_file(path, n: int) -> Ordering:
    """Read one supernode index per line; blank lines and # comments skipped."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                try:
                    values.append(int(line))
                except ValueError as err:
                    raise OrderingError(
                        f"{path}:{lineno}: bad index {line!r}") from err
    if len(values) != n:
        raise OrderingError(
            f"ordering file has {len(values)} entries, expected {n}")
    return Ordering(np.array(values, dtype=np.int64))
