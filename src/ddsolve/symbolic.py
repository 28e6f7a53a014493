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

if TYPE_CHECKING:
    from .ordering import Ordering


@dataclass(eq=False)
class EliminationPlan:
    order: Ordering
    etree_parent: np.ndarray          # parent per block column, -1 for roots
    pattern: list[np.ndarray]         # per column: sorted rows > j, read-only
    sizes_perm: np.ndarray            # block sizes in elimination order
    total_factor_entries: int

    @property
    def nblocks(self) -> int:
        return int(self.sizes_perm.size)


def symbolic_factor(g: list[set[int]], order: Ordering, sizes) -> EliminationPlan:
    n = len(g)
    sizes = np.asarray(sizes, dtype=np.int64)
    if order.n != n or sizes.size != n:
        raise ValueError("graph, ordering and sizes disagree on block count")
    position = order.inverse().tolist().__getitem__
    # below[j]: original neighbors after j, then the rows children pass up
    below = [{b for b in map(position, g[i]) if b > j}
             for j, i in enumerate(order.perm.tolist())]
    # all columns' sorted rows in one array, pattern[j] a read-only view
    rows: list[int] = []
    start = [0]
    parent = [-1] * n
    for j in range(n):
        r = sorted(below[j])
        if r:
            parent[j] = r[0]
            below[r[0]].update(r[1:])
            rows += r
        start.append(len(rows))
    flat = np.fromiter(rows, np.int64, len(rows))
    flat.flags.writeable = False
    pattern = [flat[a:b] for a, b in zip(start, start[1:])]
    sizes_perm = sizes[order.perm]
    total = int((sizes_perm * (sizes_perm + 1) // 2).sum()
                + (np.repeat(sizes_perm, np.diff(start)) * sizes_perm[flat]).sum())
    return EliminationPlan(order, np.array(parent, dtype=np.int64), pattern,
                           sizes_perm, total)


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
