"""Fill-reducing elimination orders for the clique graph.

The built-in algorithm is a weighted minimum-degree elimination: at each step
the vertex whose neighbors carry the smallest total block size is eliminated
and its remaining neighbors are merged into a clique (quotient-graph update).
Ties break toward the smaller vertex index, which makes the order fully
deterministic.  An externally computed permutation can be loaded from a text
file with one index per line instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .blockmat import CliqueGraph
from .symbolic import symbolic_factor


class OrderingError(Exception):
    pass


@dataclass
class Ordering:
    perm: np.ndarray  # perm[new_position] = old_index
    source: str = "builtin"

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
    seen = np.zeros(n, dtype=bool)
    for v in perm:
        if v < 0 or v >= n or seen[v]:
            raise OrderingError("ordering is not a bijection on 0..n-1")
        seen[v] = True


def _simplicial(adj: list[set[int]], v: int) -> bool:
    """Whether the neighbors of ``v`` form a clique (zero deficiency)."""
    nbrs = adj[v]
    return all(len(nbrs & adj[u]) == len(nbrs) - 1 for u in nbrs)


def _min_degree_order(g: CliqueGraph, weights: np.ndarray) -> np.ndarray:
    """Eliminate by the smallest key ``(not simplicial, weighted degree,
    index)``, keys held in a heap with lazy invalidation.

    Eliminating ``v`` turns its neighbors into a clique.  Only two kinds of
    vertex can change key: the neighbors of ``v``, whose adjacency changed,
    and vertices adjacent to both ends of a new fill edge, which may become
    simplicial.  Every other vertex keeps its neighbors and the edges among
    them, so only these keys are recomputed (George & Liu 1989).
    """
    n = g.n
    adj = [set(s) for s in g.adj]
    w = weights.tolist()

    def key(v: int) -> tuple[int, int, int]:
        return (0 if _simplicial(adj, v) else 1, sum(w[u] for u in adj[v]), v)

    keys: list = [key(v) for v in range(n)]
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
        nbrs = adj[v]
        for u in nbrs:
            adj[u].discard(v)
        fill = []
        for u in nbrs:
            new = nbrs - adj[u]
            new.discard(u)
            if new:
                adj[u] |= new
                fill.extend((u, x) for x in new if x > u)
        touched = set(nbrs)
        for a, b in fill:
            touched |= adj[a] & adj[b]
        for u in touched:
            # A vertex outside nbrs keeps its degree and can only become
            # simplicial, so a simplicial one keeps its key.
            if u in nbrs or keys[u][0]:
                k = key(u)
                if k != keys[u]:
                    keys[u] = k
                    heapq.heappush(heap, k)
    return np.array(order, dtype=np.int64)


def reorder(g: CliqueGraph, weights) -> Ordering:
    """Fill-reducing order of ``g``; ``weights`` are block sizes.

    Runs weighted minimum degree with a simplicial-vertex preference
    (vertices of zero deficiency go first, so chordal graphs, trees and
    paths come out fill-free), ties broken by weighted degree then vertex
    index.  The produced order is kept only if its predicted factor size is
    no worse than the natural order, the usual ordering-portfolio guard of
    sparse direct solvers; minimum degree alone is a heuristic and can lose
    to the natural order on small graphs.
    """
    n = g.n
    weights = np.asarray(weights, dtype=np.int64)
    if weights.size != n:
        raise OrderingError("weights length does not match graph size")
    md = Ordering(_min_degree_order(g, weights), source="builtin")
    natural = identity_ordering(n)
    if np.array_equal(md.perm, natural.perm):
        return md
    if (symbolic_factor(g, md, weights).total_factor_entries
            <= symbolic_factor(g, natural, weights).total_factor_entries):
        return md
    return natural


def identity_ordering(n: int) -> Ordering:
    return Ordering(np.arange(n, dtype=np.int64), source="builtin")


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
    return Ordering(np.array(values, dtype=np.int64), source="external-file")
