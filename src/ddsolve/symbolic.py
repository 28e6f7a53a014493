"""Symbolic block factorization of the reordered clique graph.

Standard elimination-graph analysis: processing block columns in order, the
still-uneliminated neighbors of column ``j`` become pairwise adjacent, and
``pattern[j]`` records the rows below ``j`` (original plus fill) that the
numeric factorization will populate.  The elimination-tree parent of ``j`` is
the smallest row in its pattern and inherits the rest of it, so a column's
pattern is its original neighbors below it plus its children's inherited rows
(Liu 1990): one set union per column, no fill edge inserted pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .blockmat import CliqueGraph

if TYPE_CHECKING:
    from .ordering import Ordering


@dataclass(eq=False)
class EliminationPlan:
    order: Ordering
    etree_parent: np.ndarray          # parent per block column, -1 for roots
    pattern: list[np.ndarray]         # per column: sorted rows > j
    sizes_perm: np.ndarray            # block sizes in elimination order
    total_factor_entries: int

    @property
    def nblocks(self) -> int:
        return int(self.sizes_perm.size)


def symbolic_factor(g: CliqueGraph, order: Ordering, sizes) -> EliminationPlan:
    n = g.n
    sizes = np.asarray(sizes, dtype=np.int64)
    if order.n != n or sizes.size != n:
        raise ValueError("graph, ordering and sizes disagree on block count")
    inv = order.inverse().tolist()
    # below[j]: original neighbors after j, then the rows children pass up
    below: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        a = inv[i]
        below[a].update(b for b in (inv[j] for j in g.adj[i]) if b > a)
    pattern: list[np.ndarray] = []
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
    return EliminationPlan(order, parent, pattern, sizes_perm, total)


def format_plan(plan: EliminationPlan) -> str:
    """Human-readable symbolic summary (used by --print-symbolic)."""
    lines = []
    lines.append(f"block columns: {plan.nblocks}")
    for j, rows in enumerate(plan.pattern):
        row_s = " ".join(str(int(r)) for r in rows) if rows.size else "-"
        lines.append(f"col {j:4d} (size {int(plan.sizes_perm[j]):4d})"
                     f" parent {int(plan.etree_parent[j]):4d} pattern: {row_s}")
    lines.append(f"factor entries: {plan.total_factor_entries}")
    lines.append(f"predicted factor bytes: {16 * plan.total_factor_entries}")
    return "\n".join(lines)
