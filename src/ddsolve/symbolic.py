"""Symbolic block factorization of the reordered clique graph.

Standard elimination-graph analysis: processing block columns in order, the
still-uneliminated neighbors of column ``j`` become pairwise adjacent, and
``pattern[j]`` records the rows below ``j`` (original plus fill) that the
numeric factorization will populate.  The elimination-tree parent of ``j`` is
the smallest row in its pattern and inherits the rest of it, so a column's
pattern is its original neighbors below it plus its children's inherited rows
(Liu 1990): one set union per column, no fill edge inserted pair by pair.
:func:`fill_plan` walks it once for the plan and the natural-order guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import TYPE_CHECKING

import numpy as np

from .blockmat import check_adjacency, nonnegative_integers

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


def fill_plan(g: list[set[int]], order: Ordering, sizes: np.ndarray,
              limit: int | None = None) -> EliminationPlan | None:
    """Plan of eliminating ``g`` in ``order`` with int64 block ``sizes``,
    unchecked.  Column j's rows are its later neighbors and the rows its
    children pass up; all but the first, its parent, pass on to the parent.
    Given a ``limit``, None once the entries, counted by column, reach it."""
    position = order.inverse().tolist().__getitem__
    if limit is not None:
        w = sizes[order.perm].tolist()
        count = sum(x * (x + 1) // 2 for x in w)  # diagonal blocks
    cols = [set() for _ in g]
    for j, i in enumerate(order.perm.tolist()):
        rows = cols[j]
        rows.update([b for b in map(position, g[i]) if b > j])
        if limit is not None:
            count += w[j] * sum(map(w.__getitem__, rows))
            if count >= limit:
                return None
        if rows:
            p = min(rows)
            cols[p] |= rows
            cols[p].remove(p)
    pattern = [sorted(rows) for rows in cols]
    start = [0, *accumulate(map(len, pattern))]
    return plan_from_rows(order, np.fromiter(chain.from_iterable(pattern),
                                             np.int64, start[-1]), start, sizes)


def symbolic_factor(g: list[set[int]], order: Ordering, sizes) -> EliminationPlan:
    """Plan of eliminating ``g`` in ``order``.  ``g`` is checked by
    :func:`check_adjacency`, and block ``sizes`` must be non-negative
    integers (integer-valued floats included); either raises ValueError
    naming the first bad entry."""
    check_adjacency(g, ValueError)
    sizes = nonnegative_integers(sizes, "block size", ValueError)
    if order.n != len(g) or sizes.size != len(g):
        raise ValueError("graph, ordering and sizes disagree on block count")
    return fill_plan(g, order, sizes)


def plan_from_rows(order: Ordering, flat: np.ndarray, start: list[int],
                   sizes: np.ndarray) -> EliminationPlan:
    """The plan whose column ``j`` has the ascending rows
    ``flat[start[j]:start[j + 1]]`` (int64): ``flat`` is made read-only and
    ``pattern[j]`` is a view of it, each parent is its column's first row,
    and the factor entries come from one array pass over ``flat``, exact
    for any sizes: in int64 where its bound fits, else in Python ints."""
    flat.flags.writeable = False
    pattern = [flat[a:b] for a, b in zip(start, start[1:])]
    counts = np.diff(start)
    nonempty = counts > 0
    parent = np.full(counts.size, -1, dtype=np.int64)
    parent[nonempty] = flat[np.array(start[:-1], dtype=np.int64)[nonempty]]
    sizes_perm = sizes[order.perm]
    w = sizes_perm
    big = int(w.max(initial=0))
    if (w.size + flat.size) * big * (big + 1) >= 2 ** 63:
        w = w.astype(object)     # past int64: count in Python ints
    total = int((w * (w + 1) // 2).sum() + (np.repeat(w, counts) * w[flat]).sum())
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
