"""Fill-reducing elimination orders for the clique graph.

The built-in algorithm is a weighted minimum-degree elimination: at each step
the vertex whose neighbors carry the smallest total block size is eliminated
and its remaining neighbors are merged into a clique.  The explicit
elimination graph is kept, one int bitset per closed neighborhood, and only
the keys an elimination can change are recomputed.  Ties break toward the
smaller vertex index, which makes the order fully deterministic.  An
externally computed permutation can be loaded from a text file with one
index per line instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .blockmat import nonnegative_integers
from .symbolic import EliminationPlan, symbolic_factor


class OrderingError(Exception):
    pass


@dataclass(eq=False)
class Ordering:
    perm: np.ndarray  # perm[new_position] = old_index

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=np.int64)
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


def _members(x: int) -> list[int]:
    """Indices of the set bits of ``x``, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _min_degree_order(g: list[set[int]], weights: np.ndarray) -> np.ndarray:
    """Eliminate by the smallest key ``(not simplicial, weighted degree,
    index)``, keys held in a heap with lazy invalidation.

    ``nb[v]`` is the closed neighborhood of ``v`` as an int bitset, so ``v``
    is simplicial (its neighbors form a clique) exactly when ``nb[v]`` is a
    subset of ``nb[u]`` for every neighbor ``u``.  Eliminating ``v`` takes
    ``w[v]`` from each neighbor's degree and adds the weights of its new
    fill neighbors.

    Eliminating ``v`` turns its neighbors into a clique.  Only two kinds of
    vertex can change key: the neighbors of ``v``, whose adjacency changed,
    and vertices adjacent to both ends of a new fill edge, which may become
    simplicial.  Every other vertex keeps its neighbors and the edges among
    them, so only these keys are recomputed (George & Liu 1989).  A
    simplicial neighbor ``u`` stays simplicial: ``nb[u]`` lay inside
    ``nb[v]``, and becomes ``nb[v]`` minus ``v``, now a clique.
    """
    n = len(g)
    w = weights.tolist()
    bit = [1 << v for v in range(n)]
    nb = [sum(bit[u] for u in s) | bit[v] for v, s in enumerate(g)]
    deg = [sum(w[u] for u in s) for s in g]

    def simplicial(v: int) -> bool:
        nv = nb[v]
        rest = nv ^ bit[v]
        while rest:
            low = rest & -rest
            if nv & nb[low.bit_length() - 1] != nv:
                return False
            rest ^= low
        return True

    keys: list = [(0 if simplicial(v) else 1, deg[v], v) for v in range(n)]
    heap = list(keys)
    heapq.heapify(heap)
    order = []
    while heap:
        k = heapq.heappop(heap)
        v = k[2]
        if keys[v] != k:
            continue  # stale entry of an eliminated or re-keyed vertex
        keys[v] = None
        order.append(v)
        vb = bit[v]
        nbrs = nb[v] ^ vb
        us = _members(nbrs)
        touched = 0  # vertices adjacent to both ends of a fill edge
        for u in us:
            nu = nb[u] ^ vb
            new = nbrs & ~nu
            d = deg[u] - w[v]
            if new:
                nu |= new
                for x in _members(new):
                    d += w[x]
                    if x > u:
                        touched |= nu & nb[x]
            nb[u] = nu
            deg[u] = d
        for u in us:
            k = (1 if keys[u][0] and not simplicial(u) else 0, deg[u], u)
            if k != keys[u]:
                keys[u] = k
                heapq.heappush(heap, k)
        # A vertex outside nb[v] keeps its degree and can only become
        # simplicial.  Its bit in touched does not depend on whether nb[x]
        # was read before or after its update, which stays inside nb[v].
        for u in _members(touched & ~nb[v]):
            if keys[u][0] and simplicial(u):
                keys[u] = k = (0, deg[u], u)
                heapq.heappush(heap, k)
    return np.array(order, dtype=np.int64)


def reorder(g: list[set[int]], weights) -> Ordering:
    """Fill-reducing order of adjacency list ``g``; ``weights`` are block sizes.

    Runs weighted minimum degree with a simplicial-vertex preference
    (vertices of zero deficiency go first, so chordal graphs, trees and
    paths come out fill-free), ties broken by weighted degree then vertex
    index.  The produced order is kept only if its predicted factor size is
    no worse than the natural order, the usual ordering-portfolio guard of
    sparse direct solvers; minimum degree alone is a heuristic and can lose
    to the natural order on small graphs.
    """
    return reorder_with_plan(g, weights).order


def reorder_with_plan(g: list[set[int]], weights) -> EliminationPlan:
    """The symbolic plan of :func:`reorder`'s order; ``plan.order`` is that
    order.  The guard's own plan of the chosen order is returned, so no
    symbolic pass is repeated.  Weights must be non-negative integers
    (integer-valued floats included); any other raises OrderingError."""
    n = len(g)
    if np.size(weights) != n:
        raise OrderingError("weights length does not match graph size")
    weights = nonnegative_integers(weights, "weight", OrderingError)
    md = symbolic_factor(g, Ordering(_min_degree_order(g, weights)), weights)
    if np.array_equal(md.order.perm, np.arange(n)):
        return md
    natural = symbolic_factor(g, identity_ordering(n), weights)
    if md.total_factor_entries <= natural.total_factor_entries:
        return md
    return natural


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
