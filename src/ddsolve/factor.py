"""Numeric factorization: dense Bunch-Kaufman LDL^T and the right-looking
block LDL^T over an elimination plan, plus forward/backward substitution.

Pivoting is restricted: each diagonal block is factored with pivot searches
confined to itself, so no pivot is ever deferred into another supernode and
the numeric factor occupies exactly the entries predicted symbolically.  The
block factor holds each block column in one panel allocated from the plan
(supernodal column storage, Ng & Peyton 1993), all panels in one buffer.
K's entries and each column's update reach the panels by one indexed write
whose positions come from one sorted search over the rows of all panels, so
an entry outside the pattern finds no storage and raises instead.

The dense kernel factors the reduced system's diagonal blocks; subdomain
matrices are eliminated by LAPACK LU in :mod:`ddsolve.subdomain`.  It
follows Bunch & Kaufman (1977) with pivot tests on the true complex
modulus.  LAPACK ``?sytrf`` is not a drop-in replacement: it tests
``|Re| + |Im|``, for which the 2.57 per-step growth bound does not hold.
The trailing block is kept as one full square, symmetric to rounding, and
each pivot step is one rank-1 or rank-2 numpy update of the whole square.
The factor and solve loops call scipy's BLAS directly (``ztrsm``, ``zgemm``)
rather than mixing it with numpy's ``@``: the two packages may bundle
separate BLAS builds, each with its own thread pool, and alternating between
two pools in a loop makes their idle-spinning workers compete for the CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, wraps

import numpy as np
from scipy.linalg.blas import zgemm, ztrsm

from .blockmat import BlockSparseSym, _ragged_blocks, exclusive_cumsum, ragged_arange
from .symbolic import EliminationPlan

DEFAULT_PIVOT_TOL = 1e-12

# Pivot threshold constant from the 1977 Bunch-Kaufman analysis; bounds the
# per-step element growth by 1 + 1/alpha < 2.57.
BK_ALPHA = (1.0 + np.sqrt(17.0)) / 8.0


class SingularBlockError(Exception):
    """Both 1x1 and 2x2 pivot candidates fell below the pivot threshold."""


class FactorConsistencyError(Exception):
    """Numeric factorization touched a block outside the symbolic pattern."""


def _unit_lower_solve(L: np.ndarray, B: np.ndarray, trans: int = 0) -> np.ndarray:
    """``L^-1 B`` (``trans=0``) or ``L^-T B`` (``trans=1``) for unit lower L.

    Overwrites and returns ``B`` when it is a Fortran-ordered complex array;
    ``L`` is read in place when Fortran-ordered.
    """
    return ztrsm(1.0, L, B, lower=1, trans_a=trans, diag=1, overwrite_b=1)


def blas_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` as a complex matrix on scipy's BLAS; a 1-D ``B`` is one column.

    A C-ordered ``A`` is passed as its transpose, so neither layout of ``A``
    is copied.
    """
    if A.flags.c_contiguous:
        return zgemm(1.0, A.T, B, trans_a=1)
    return zgemm(1.0, A, B)


@dataclass
class DenseFactor:
    """P M P^T = L D L^T with unit lower L and 1x1/2x2 block diagonal D.

    ``d`` holds the diagonal of D, ``e[k]`` the subdiagonal of a 2x2 pivot
    starting at ``k``; ``tags`` is the pivot-structure list (1 = 1x1,
    2 = 2x2 start, 0 = 2x2 partner) and ``perm[i]`` is the original index at
    permuted position ``i``.  ``L`` is column-major so BLAS reads it without
    a copy.
    """

    L: np.ndarray
    d: np.ndarray
    e: np.ndarray
    tags: np.ndarray
    perm: np.ndarray
    growth: float
    n_2x2: int

    @property
    def n(self) -> int:
        return int(self.d.size)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve M X = B; accepts a vector or a multi-column RHS."""
        one_d = B.ndim == 1
        Z = np.array(B, dtype=np.complex128, ndmin=2)
        if one_d:
            Z = Z.T
        if Z.shape[0] != self.n:
            raise ValueError(f"rhs has {Z.shape[0]} rows, factor has {self.n}")
        Z = _unit_lower_solve(self.L, Z[self.perm, :])
        self.apply_dinv(Z)
        Z = _unit_lower_solve(self.L, Z, trans=1)
        X = np.empty_like(Z)
        X[self.perm, :] = Z
        return X[:, 0] if one_d else X

    def apply_dinv(self, Z: np.ndarray) -> None:
        """Overwrite the rows of ``Z`` (permuted positions) with D^-1 Z."""
        _apply_dinv(self.d, self.e, self.tags, Z)

    def dense_d(self) -> np.ndarray:
        D = np.diag(self.d)
        s = np.flatnonzero(self.tags == 2)
        D[s + 1, s] = D[s, s + 1] = self.e[s]
        return D


def _apply_dinv(d: np.ndarray, e: np.ndarray, tags: np.ndarray,
                Z: np.ndarray) -> None:
    """Overwrite the rows of ``Z`` with D^-1 Z for the block diagonal D
    given by ``d``, ``e`` and ``tags`` as in :class:`DenseFactor`; the
    arrays may concatenate the D of several factors."""
    s = np.flatnonzero(tags == 2)
    if not s.size:
        Z /= d[:, None]
        return
    one = np.flatnonzero(tags == 1)
    Z[one] /= d[one, None]
    # 2x2 pivots solved by elimination on the dominant off-diagonal entry
    # b (guaranteed largest in its column by the pivot tests).
    b = e[s, None]
    akm1 = d[s, None] / b
    ak = d[s + 1, None] / b
    denom = akm1 * ak - 1.0
    t1 = Z[s] / b
    t2 = Z[s + 1] / b
    Z[s] = (ak * t1 - t2) / denom
    Z[s + 1] = (akm1 * t2 - t1) / denom


def _bk_factor(W: np.ndarray, tol_abs: float, w_max: float):
    """Bunch-Kaufman elimination of the symmetric square ``W`` in place;
    ``w_max`` is ``max|W|``, the base of the growth factor.

    Returns ``(perm, tags, twos, growth, info)``, ``twos`` listing the steps
    that start a 2x2 pivot.  Each step updates the whole trailing square,
    which stays symmetric to rounding.  On return the strict
    lower triangle of ``W`` holds the unit-L columns, the diagonal the 1x1
    entries of D and ``W[k+1, k]`` the subdiagonal of a 2x2 pivot starting at
    ``k`` (the L entry there is zero).  ``perm[i]`` is the original index at
    position ``i``: interchanges swap whole rows, L rows included, so one
    permutation describes the whole factor.  ``info`` is the first step with
    no pivot above ``tol_abs``, or -1.
    """
    n = W.shape[0]
    perm = np.arange(n)
    tags = np.zeros(n, dtype=np.int8)
    twos: list[int] = []
    growth = 1.0
    trail_max = w_max
    k = 0
    while k < n:
        kstep = 1
        absakk = abs(W[k, k])
        colmax = 0.0
        imax = k
        if k + 1 < n:
            col = np.abs(W[k + 1:, k])
            t = int(col.argmax())
            imax = k + 1 + t
            colmax = col[t]
        if max(absakk, colmax) <= tol_abs:
            # Neither a 1x1 nor a 2x2 candidate clears the threshold: the
            # remaining column is numerically zero.
            return perm, tags, twos, growth, k
        if absakk >= BK_ALPHA * colmax:
            kp = k
        else:
            row = np.abs(W[k:, imax])
            row[imax - k] = 0.0
            rowmax = row.max()
            if absakk * rowmax >= BK_ALPHA * colmax * colmax:
                kp = k
            elif abs(W[imax, imax]) >= BK_ALPHA * rowmax:
                kp = imax
            else:
                kp = imax
                kstep = 2
        kk = k + kstep - 1
        if kp != kk:
            W[[kk, kp]] = W[[kp, kk]]
            W[:, [kk, kp]] = W[:, [kp, kk]]
            perm[[kk, kp]] = perm[[kp, kk]]
        kn = k + kstep
        tags[k] = kstep
        if kstep == 2:
            twos.append(k)
        if kn == n:
            break
        if kstep == 1:
            c = W[kn:, k]
            lk = c / W[k, k]
            # Outer products are formed transposed so that they share the
            # column-major layout of W.
            W[kn:, kn:] -= np.multiply.outer(lk, c).T
            W[kn:, k] = lk
        else:
            # |W[k+1, k]| equals the column maximum here, so the 2x2 pivot is
            # safely invertible: |det| >= (1 - alpha^2) colmax^2.
            d21 = W[k + 1, k]
            d11 = W[k + 1, k + 1] / d21
            d22 = W[k, k] / d21
            d21s = (1.0 / (d11 * d22 - 1.0)) / d21
            a = W[kn:, k]
            b = W[kn:, k + 1]
            wk = d21s * (d11 * a - b)
            wkp = d21s * (d22 * b - a)
            W[kn:, kn:] -= (np.multiply.outer(wk, a) + np.multiply.outer(wkp, b)).T
            W[kn:, k] = wk
            W[kn:, k + 1] = wkp
        step_max = np.abs(W[kn:, kn:]).max()
        if trail_max > 0.0:
            r = step_max / trail_max
            if kstep == 2:
                r = np.sqrt(r)
            growth = max(growth, r)
        trail_max = step_max
        k = kn
    return perm, tags, twos, growth, -1


def _cache_small(fn):
    """Cache the index arrays ``fn(n)`` for n <= 64 only: they cost
    memory for the life of the process, and for larger squares building
    them is cheap next to the arithmetic they index.  Cached arrays are
    read-only, as every caller shares them."""
    def frozen(n: int):
        out = fn(n)
        for a in out:
            a.flags.writeable = False
        return out
    cached = lru_cache(maxsize=None)(frozen)

    @wraps(fn)
    def get(n: int):
        return cached(n) if n <= 64 else fn(n)
    return get


@_cache_small
def _square_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of an n x n square.

    ``sym[q]`` is the row-major position of ``(max(a, b), min(a, b))`` for
    column-major position ``q`` of ``(a, b)``, so taking it from a block
    mirrors the block's lower triangle into a column-major symmetric square.
    ``strict_lower`` masks the strict lower triangle in column-major order,
    ``diag`` holds the diagonal's positions and ``eye`` is the flat identity.
    """
    b, a = np.divmod(np.arange(n * n), n)
    sym = np.maximum(a, b) * n + np.minimum(a, b)
    eye = (a == b).astype(np.complex128)
    return sym, a > b, np.flatnonzero(a == b), eye


def _factor_lower(B: np.ndarray, pivot_tol: float,
                  scale: float | None = None) -> DenseFactor:
    """Bunch-Kaufman factor of the symmetric matrix whose lower triangle is
    that of the square ``B``; the upper triangle of ``B`` is not read.

    The pivot threshold is ``pivot_tol * scale``, ``scale`` defaulting to
    ``max|B|`` over the lower triangle.  Raises :class:`SingularBlockError`
    like :func:`dense_ldlt_bk`, and ``ValueError`` on non-finite entries.
    """
    n = B.shape[0]
    sym, strict_lower, diag, eye = _square_index(n)
    W = B.take(sym)
    # +0.0 turns -0.0 into +0.0, as tril(B) + tril(B, -1).T would.
    W += 0.0
    W = W.reshape((n, n), order="F")
    w_max = np.abs(W).max() if n else 0.0
    if not math.isfinite(w_max):
        raise ValueError("matrix has non-finite entries")
    if scale is None:
        scale = w_max
    perm, tags, twos, growth, info = _bk_factor(W, pivot_tol * scale, w_max)
    if info >= 0:
        raise SingularBlockError(
            f"no acceptable pivot at elimination step {info} "
            f"(threshold {pivot_tol * scale:.3e})")
    Wf = W.reshape(-1, order="F")
    d = Wf[diag]
    L = np.where(strict_lower, Wf, eye).reshape((n, n), order="F")
    e = np.zeros(n, dtype=np.complex128)
    if twos:
        s = np.array(twos)
        e[s] = W[s + 1, s]
        L[s + 1, s] = 0.0
    return DenseFactor(L, d, e, tags, perm, float(growth), len(twos))


def dense_ldlt_bk(M: np.ndarray, pivot_tol: float = DEFAULT_PIVOT_TOL) -> DenseFactor:
    """Factor a complex symmetric matrix with Bunch-Kaufman partial pivoting.

    The factor depends on the lower triangle of ``M`` only; the upper one
    enters the symmetry check alone.  Raises :class:`SingularBlockError`
    when a column offers neither an acceptable 1x1 nor 2x2 pivot relative to
    ``pivot_tol * max|M|``.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    M = M.astype(np.complex128, copy=False)
    scale = np.abs(M).max() if M.size else 0.0
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if scale > 0.0:
        asym = np.abs(M - M.T).max()
        if asym > 1e-12 * scale:
            raise ValueError(f"matrix is not symmetric: max|M - M^T| = {asym:.3e}")
    return _factor_lower(M, pivot_tol, scale)


@dataclass
class FactorStats:
    """Counts of one block factorization, computed from the plan's layout.

    ``factor_entries`` counts the lower triangles of the diagonal blocks and
    the panels' entries.  ``flops`` counts per block column j, with n_j rows
    and m_j panel rows below them, the diagonal factor, X = L D and its
    scaling, and the update of every pattern pair.  ``peak_bytes`` is 16
    bytes per complex entry held at once: K's stored blocks, the buffer of
    all panels, the dense L of every diagonal factor (n_j^2 each), and X and
    U = X L^T of the column with the largest m_j n_j + m_j^2.  It counts
    complex entries only; the int64 index arrays that place K's entries and
    the updates in the panels are not in it.
    """

    factor_entries: int = 0
    flops: int = 0
    peak_bytes: int = 0
    growth_factor: float = 1.0
    n_2x2_pivots: int = 0


@dataclass
class BlockFactor:
    """Output of :func:`block_ldlt`: per-supernode dense factors in
    elimination order plus the off-diagonal factor of every block column.

    ``panels[j]`` stacks the blocks ``L_ij`` of column ``j``, ``i`` in
    ``plan.pattern[j]`` order; it is a view below the diagonal block of the
    column's working panel.  ``panel_rows[j]`` are the panel's scalar rows in
    the permuted, concatenated unknown vector.
    """

    plan: EliminationPlan
    diag: list[DenseFactor]
    panels: list[np.ndarray]
    panel_rows: list[np.ndarray]
    stats: FactorStats = field(default_factory=FactorStats)


@_cache_small
def _lower_triangle(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and column-major flat positions of the lower triangle
    (diagonal included) of an m x m square, column by column."""
    cols, rows = np.triu_indices(m)
    return rows, cols, rows + cols * m


def block_ldlt(K: BlockSparseSym, plan: EliminationPlan,
               pivot_tol: float = DEFAULT_PIVOT_TOL) -> BlockFactor:
    """Right-looking block LDL^T of ``K`` following ``plan``.

    Block column j lives in one zero-initialised, row-major panel allocated
    from the plan: block rows ``[j] + pattern[j]``, diagonal block on top.
    All panels share one buffer, and every entry written into it is found
    by one sorted search over the (panel, scalar row) keys of all panel
    rows.  K's entries are written first, with rows and columns swapped
    where the permutation of ``plan`` flips a block, and K's diagonal
    blocks are checked for symmetry there.  Per column: factor the lower
    triangle of the top block, form X = L D for the rows below it by one
    triangular solve, recover L = X D_jj^-1 in place, form the update
    U = X L^T by one product, and subtract the lower triangle of U from the
    later panels by one indexed subtraction; past the symmetry check, only
    the lower triangle of a diagonal block is read.  An entry of K or of an
    update that has no place in the plan raises
    :class:`FactorConsistencyError`.
    """
    nb = K.nblocks
    if plan.nblocks != nb:
        raise ValueError("plan and matrix disagree on block count")
    sizes = plan.sizes_perm
    if not np.array_equal(sizes, K.sizes[plan.order.perm]):
        raise ValueError("plan and matrix disagree on block sizes")
    if nb == 0:
        return BlockFactor(plan, [], [], [], FactorStats())
    n = sizes.tolist()
    offsets = exclusive_cumsum(sizes)
    n_scalar = int(offsets[-1])

    # Slots are the block rows [j] + pattern[j] of every panel j, panel by
    # panel; rows are the scalar rows of the slots, each as wide as its panel.
    slot_blk = np.concatenate([x for j, p in enumerate(plan.pattern)
                               for x in ((j,), p)])
    n_slots = np.array([p.size + 1 for p in plan.pattern], dtype=np.int64)
    slot_start = exclusive_cumsum(n_slots)
    slot_panel = np.repeat(np.arange(nb), n_slots)
    slot_rows = sizes[slot_blk]
    panel_row0 = exclusive_cumsum(slot_rows)[slot_start]
    row_blk = np.repeat(slot_blk, slot_rows)
    row_panel = np.repeat(slot_panel, slot_rows)
    row_in_blk = ragged_arange(slot_rows)
    row_scalar = offsets[row_blk] + row_in_blk
    # Buffer position of each row (and the end), and the sorted keys every
    # entry is looked up in; the sentinel matches no key.
    row_base = exclusive_cumsum(sizes[row_panel])
    base = row_base[panel_row0]
    buf = np.zeros(int(base[-1]), dtype=np.complex128)
    row_key = np.append(row_panel * n_scalar + row_scalar, nb * n_scalar)

    def find(key):
        at = row_key.searchsorted(key)
        return at, np.flatnonzero(row_key[at] != key)

    # Place K: entry (r, c) of a block goes to row r of its (hi, lo) block
    # in panel lo, at column c; a flipped block swaps r and c.
    keys = np.array(list(K.blocks), dtype=np.int64).reshape(-1, 2)
    ij = plan.order.inverse()[keys]
    hi, lo = ij.max(axis=1), ij.min(axis=1)
    flip = ij[:, 0] < ij[:, 1]
    k_vals = np.concatenate([np.zeros(0, dtype=np.complex128), *K.blocks.values()],
                            axis=None)
    blk, r, c = _ragged_blocks(K.sizes[keys[:, 0]], K.sizes[keys[:, 1]])
    r, c = np.where(flip[blk], c, r), np.where(flip[blk], r, c)
    at, miss = find(lo[blk] * n_scalar + offsets[hi[blk]] + r)
    if miss.size:
        t = blk[miss[0]]
        raise FactorConsistencyError(
            f"unconsumed blocks: block {(int(hi[t]), int(lo[t]))} "
            f"of K has no place in the plan")
    buf[row_base[at] + c] = k_vals
    k_entries = k_vals.size
    del k_vals, blk, r, c, at, miss     # K is placed: free its per-entry arrays
    # The symmetry check of dense_ldlt_bk, once per diagonal block of K,
    # batched over the diagonal blocks of each size.
    for size in set(n) - {0}:
        cols = np.flatnonzero(sizes == size)
        D = buf[base[cols, None] + np.arange(size * size)].reshape(-1, size, size)
        scale = np.abs(D).max(axis=(1, 2))
        asym = np.abs(D - D.transpose(0, 2, 1)).max(axis=(1, 2))
        bad = np.flatnonzero(~(asym <= 1e-12 * scale))
        if bad.size:
            t = bad[0]
            raise ValueError(f"block column {cols[t]}: " + (
                f"matrix is not symmetric: max|M - M^T| = {asym[t]:.3e}"
                if np.isfinite(scale[t]) else "matrix has non-finite entries"))

    diag: list[DenseFactor] = []
    panels: list[np.ndarray] = []
    panel_rows: list[np.ndarray] = []
    row0 = panel_row0.tolist()
    bases = base.tolist()
    for j in range(nb):
        nj = n[j]
        r0, r1 = row0[j], row0[j + 1]
        panel = buf[bases[j]:bases[j + 1]].reshape(r1 - r0, nj)
        try:
            fac = _factor_lower(panel[:nj], pivot_tol)
        except SingularBlockError as err:
            raise SingularBlockError(f"block column {j}: {err}") from err
        diag.append(fac)
        # X = L D is the transpose of L_jj^-1 (panel P^T)^T; L = X D^-1.
        Lp = panel[nj:]
        X = _unit_lower_solve(fac.L, Lp[:, fac.perm].T).T
        Lp[...] = X
        fac.apply_dinv(Lp.T)
        panels.append(Lp)
        below = slice(r0 + nj, r1)
        prow = row_scalar[below]
        panel_rows.append(prow)
        if not prow.size:
            continue
        U = blas_matmul(X, Lp.T)
        # Entry (a, b) of U's lower triangle goes to row prow[a] of the panel
        # of b's block, at b's column within that block.
        rows, cols, at_u = _lower_triangle(prow.size)
        pblk = row_blk[below]
        at, miss = find(pblk[cols] * n_scalar + prow[rows])
        if miss.size:
            # Column by column, the first miss is the first in (k, i) order.
            t = miss[0]
            raise FactorConsistencyError(
                f"update targets block {(int(pblk[rows[t]]), int(pblk[cols[t]]))} "
                f"outside pattern")
        buf[row_base[at] + row_in_blk[below][cols]] -= U.ravel("F").take(at_u)

    m = np.diff(panel_row0) - sizes
    sq = sizes * sizes
    pattern_sq = np.add.reduceat(sq[slot_blk], slot_start[:-1]) - sq
    flops = (sizes ** 3 // 3 + sq + m * sq + m * sizes
             + sizes * (m * m + pattern_sq) // 2)
    stats = FactorStats(
        factor_entries=int((sizes * (sizes + 1) // 2 + m * sizes).sum()),
        flops=int(flops.sum()),
        peak_bytes=16 * int(k_entries + buf.size + sq.sum()
                            + (m * sizes + m * m).max()),
        growth_factor=max(f.growth for f in diag),
        n_2x2_pivots=sum(f.n_2x2 for f in diag))
    return BlockFactor(plan, diag, panels, panel_rows, stats)


def _solve_one(F: BlockFactor, spans: list[slice], dinv, b: np.ndarray) -> None:
    """Block forward/backward substitution of one column, in place.

    ``b`` is one right-hand-side column in permuted, concatenated order, and
    ``spans[j]`` its rows of block column ``j``.  Each sweep makes one panel
    product per block column; D^-1 is applied to the whole column at once,
    ``dinv`` being the ``(d, e, tags)`` of all diagonal factors concatenated.
    """
    for fac, Lp, rows, sj in zip(F.diag, F.panels, F.panel_rows, spans):
        zj = _unit_lower_solve(fac.L, b[sj][fac.perm])
        b[sj] = zj
        if rows.size:
            b[rows] -= blas_matmul(Lp, zj)
    _apply_dinv(*dinv, b)
    for j in range(len(spans) - 1, -1, -1):
        fac, rows, sj = F.diag[j], F.panel_rows[j], spans[j]
        w = b[sj]
        if rows.size:
            w = w - blas_matmul(F.panels[j].T, b[rows])
        b[sj.start + fac.perm] = _unit_lower_solve(fac.L, w, trans=1)


def block_solve(F: BlockFactor, g: np.ndarray) -> np.ndarray:
    """Solve K x = g through the block factor.

    ``g`` is one right-hand side of shape ``(n,)``, or several as the
    columns of an ``(n, k)`` array, in K's block order; ``x`` has its shape.
    Columns are processed strictly one at a time through the same code
    path, so a multi-column solve reproduces column-by-column calls exactly.
    """
    sizes = F.plan.sizes_perm
    n = int(sizes.sum())
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim not in (1, 2) or g.shape[0] != n:
        raise ValueError(f"right-hand side has shape {g.shape}, "
                         f"expected ({n},) or ({n}, k)")
    if not F.diag:
        return g.copy()
    # row of g at each row of the permuted, concatenated unknown vector
    perm = F.plan.order.perm
    rows = (np.repeat(exclusive_cumsum(sizes[F.plan.order.inverse()])[perm], sizes)
            + ragged_arange(sizes))
    B = g[rows, None] if g.ndim == 1 else g[rows]
    off = exclusive_cumsum(sizes).tolist()
    spans = [slice(a, b) for a, b in zip(off[:-1], off[1:])]
    dinv = tuple(np.concatenate([getattr(f, name) for f in F.diag])
                 for name in ("d", "e", "tags"))
    for c in range(B.shape[1]):
        col = B[:, c:c + 1].copy()
        _solve_one(F, spans, dinv, col)
        B[:, c:c + 1] = col
    x = np.empty_like(B)
    x[rows] = B
    return x.reshape(g.shape)


def scatter_factor(F: BlockFactor) -> tuple[np.ndarray, np.ndarray]:
    """Dense (L, D) of the permuted matrix, for verification.

    Returns block-lower L with diagonal blocks P_jj^T L_jj and the block
    diagonal D, satisfying K_perm = L D L^T.
    """
    off = exclusive_cumsum(F.plan.sizes_perm)
    n = int(off[-1])
    L = np.zeros((n, n), dtype=np.complex128)
    D = np.zeros((n, n), dtype=np.complex128)
    for j, (fac, Lp, rows) in enumerate(zip(F.diag, F.panels, F.panel_rows)):
        sj = slice(off[j], off[j + 1])
        L[off[j] + fac.perm, sj] = fac.L
        L[rows, sj] = Lp
        D[sj, sj] = fac.dense_d()
    return L, D
