"""Numeric factorization: dense Bunch-Kaufman LDL^T and the right-looking
block LDL^T over an elimination plan, plus forward/backward substitution.

Pivoting is restricted: each diagonal block is factored with pivot searches
confined to itself, so no pivot is ever deferred into another supernode and
the numeric factor occupies exactly the entries predicted symbolically.  The
block factor holds each block column in one panel allocated from the plan
(supernodal column storage, Ng & Peyton 1993), all panels in one buffer.
Each stored block of K is copied whole into its slot, found by one sorted
search over the (panel, block row) keys of all slots, and one more search
over them checks that the plan is closed, so every update entry has a
place.  Each column's update reaches the later panels by one indexed write
whose positions come from one sorted search over the rows of all panels.
The solve folds the diagonal factors' row interchanges into its row maps
once per call, so each of its steps works on a contiguous slice.

The dense kernel factors the reduced system's diagonal blocks; subdomain
matrices are eliminated by LAPACK LU in :mod:`ddsolve.subdomain`.  It
follows Bunch & Kaufman (1977) with pivot tests on the true complex
modulus.  LAPACK ``?sytrf`` is not a drop-in replacement: it tests
``|Re| + |Im|``, for which the 2.57 per-step growth bound does not hold.
The trailing block is kept as one full square, symmetric to rounding, and
each pivot step is one rank-1 or rank-2 numpy update of the whole square
and one absolute value of it, which serves both the step's growth and the
next step's pivot search.
The factor and solve loops call scipy's BLAS directly (``ztrsm``, ``zgemm``)
rather than mixing it with numpy's ``@``: the two packages may bundle
separate BLAS builds, each with its own thread pool, and alternating between
two pools in a loop makes their idle-spinning workers compete for the CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import chain

import numpy as np
from scipy.linalg.blas import zgemm, ztrsm

from .blockmat import BlockSparseSym, exclusive_cumsum, ragged_arange
from .symbolic import EliminationPlan

DEFAULT_PIVOT_TOL = 1e-12

# Pivot threshold constant from the 1977 Bunch-Kaufman analysis; bounds the
# per-step element growth by 1 + 1/alpha < 2.57.
BK_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0


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


@dataclass(eq=False)
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


def _bk_factor(W: np.ndarray, tol_abs: float, A: np.ndarray, w_max: float):
    """Bunch-Kaufman elimination of the symmetric square ``W`` in place;
    ``A`` is ``|W|`` and ``w_max`` its maximum, the base of the growth
    factor.

    Returns ``(perm, tags, twos, growth, info)`` as lists and floats,
    ``twos`` listing the steps that start a 2x2 pivot.  Each step updates
    the whole trailing square, which stays symmetric to rounding, and takes
    one ``np.abs`` of the updated square: its maximum gives the step's
    growth, and its columns the next step's pivot searches, which compare
    Python floats and break ties toward the first row, as ``argmax`` does.
    On return the strict lower triangle of ``W`` holds the unit-L columns,
    the diagonal the 1x1 entries of D and ``W[k+1, k]`` the subdiagonal of a
    2x2 pivot starting at ``k`` (the L entry there is zero).  ``perm[i]`` is
    the original index at position ``i``: interchanges swap whole rows, L
    rows included, so one permutation describes the whole factor.  ``info``
    is the first step with no pivot above ``tol_abs``, or -1.
    """
    n = W.shape[0]
    perm = list(range(n))
    tags = [0] * n
    twos: list[int] = []
    growth = 1.0
    trail_max = float(w_max)
    k = 0
    while k < n:
        # A is |W[k:, k:]|; imax - k indexes it.
        kstep = 1
        col = A[:, 0].tolist()
        absakk = col[0]
        colmax = 0.0
        imax = k
        if k + 1 < n:
            colmax = max(col[1:])
            imax = k + col.index(colmax, 1)
        if max(absakk, colmax) <= tol_abs:
            # Neither a 1x1 nor a 2x2 candidate clears the threshold: the
            # remaining column is numerically zero.
            return perm, tags, twos, growth, k
        if absakk >= BK_ALPHA * colmax:
            kp = k
        else:
            row = A[:, imax - k].tolist()
            absaii = row[imax - k]
            row[imax - k] = 0.0
            rowmax = max(row)
            if absakk * rowmax >= BK_ALPHA * colmax * colmax:
                kp = k
            elif absaii >= BK_ALPHA * rowmax:
                kp = imax
            else:
                kp = imax
                kstep = 2
        kk = k + kstep - 1
        if kp != kk:
            W[[kk, kp]] = W[[kp, kk]]
            W[:, [kk, kp]] = W[:, [kp, kk]]
            perm[kk], perm[kp] = perm[kp], perm[kk]
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
            W[kn:, kn:] -= (lk[:, None] * c).T
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
            W[kn:, kn:] -= (wk[:, None] * a + wkp[:, None] * b).T
            W[kn:, k] = wk
            W[kn:, k + 1] = wkp
        A = np.abs(W[kn:, kn:])
        step_max = float(A.max())
        if trail_max > 0.0:
            r = step_max / trail_max
            if kstep == 2:
                r = math.sqrt(r)
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
    ``upper`` masks the upper triangle, diagonal included, in column-major
    order, ``diag`` holds the diagonal's positions and ``eye`` is the flat
    identity.
    """
    b, a = np.divmod(np.arange(n * n), n)
    sym = np.maximum(a, b) * n + np.minimum(a, b)
    eye = (a == b).astype(np.complex128)
    return sym, a <= b, np.flatnonzero(a == b), eye


def _factor_lower(B: np.ndarray, pivot_tol: float,
                  scale: float | None = None) -> tuple[DenseFactor, bool]:
    """Bunch-Kaufman factor of the symmetric matrix whose lower triangle is
    that of the square ``B``; the upper triangle of ``B`` is not read.

    Returns the factor and whether any rows were interchanged.  The pivot
    threshold is ``pivot_tol * scale``, ``scale`` defaulting to ``max|B|``
    over the lower triangle.  Raises :class:`SingularBlockError` like
    :func:`dense_ldlt_bk`, and ``ValueError`` on non-finite entries.
    """
    n = B.shape[0]
    sym, upper, diag, eye = _square_index(n)
    W = B.take(sym)
    # +0.0 turns -0.0 into +0.0, as tril(B) + tril(B, -1).T would.
    W += 0.0
    W = W.reshape((n, n), order="F")
    A = np.abs(W)
    w_max = A.max() if n else 0.0
    if not math.isfinite(w_max):
        raise ValueError("matrix has non-finite entries")
    if scale is None:
        scale = w_max
    perm, tags, twos, growth, info = _bk_factor(W, pivot_tol * scale, A, w_max)
    if info >= 0:
        raise SingularBlockError(
            f"no acceptable pivot at elimination step {info} "
            f"(threshold {pivot_tol * scale:.3e})")
    # W becomes L: its upper triangle and diagonal are overwritten by the
    # identity's, through a flat column-major view.
    Wf = W.reshape(-1, order="F")
    d = Wf[diag]
    np.copyto(Wf, eye, where=upper)
    L = W
    e = np.zeros(n, dtype=np.complex128)
    if twos:
        s = np.array(twos)
        e[s] = W[s + 1, s]
        L[s + 1, s] = 0.0
    fac = DenseFactor(L, d, e, np.array(tags, dtype=np.int8),
                      np.array(perm, dtype=np.int_), growth, len(twos))
    return fac, perm != list(range(n))


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
    return _factor_lower(M, pivot_tol, scale)[0]


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
    complex entries only; the int64 index arrays that place each column's
    update in the panels are not in it.
    """

    factor_entries: int = 0
    flops: int = 0
    peak_bytes: int = 0
    growth_factor: float = 1.0
    n_2x2_pivots: int = 0


@dataclass(eq=False)
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
    from the plan: block rows ``[j] + pattern[j]``, diagonal block on top;
    all panels share one buffer.  K's stored blocks are written first, each
    by one slice assignment into its slot, transposed where the permutation
    of ``plan`` flips it; one sorted search over the (panel, block row) keys
    of all slots finds every slot, and one more checks the plan's closure.
    K is then checked by :meth:`BlockSparseSym.validate` and for non-finite
    entries (``ValueError``).  Per column: factor the lower triangle of the
    top block; permute the panel's columns if that factor interchanged rows;
    form X = L D for the rows below it by one triangular solve in place on
    the panel and keep one copy of it; recover L = X D_jj^-1 in place (one
    division when D_jj has no 2x2 pivot); form the update U = X L^T by one
    product; and subtract the lower triangle of U from the later panels by
    one indexed subtraction.  Its positions come from one sorted search over
    the (panel, scalar row) keys of all panel rows, with the update's keys
    built from one per-row array, each row's block times the scalar order;
    past the checks, only the lower triangle of a diagonal block is read.  A
    block of K or a column's update with no place in the plan raises
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
    # panel: all patterns in one array, each column's own block inserted
    # before its pattern.  Rows are the scalar rows of the slots, each as
    # wide as its panel.
    n_slots = np.fromiter(map(len, plan.pattern), np.int64, nb) + 1
    slot_start = exclusive_cumsum(n_slots)
    blocks = np.arange(nb)
    slot_blk = np.insert(np.concatenate(plan.pattern), slot_start[:-1] - blocks,
                         blocks)
    slot_panel = np.repeat(blocks, n_slots)
    slot_rows = sizes[slot_blk]
    slot_row0 = exclusive_cumsum(slot_rows)
    panel_row0 = slot_row0[slot_start]
    row_panel = np.repeat(slot_panel, slot_rows)
    row_in_blk = ragged_arange(slot_rows)
    row_scalar = np.repeat(offsets[slot_blk], slot_rows) + row_in_blk
    # Each row's block times n_scalar: the key of an update entry is that of
    # the row whose block names the target panel plus the scalar row it
    # lands on.
    row_bkey = np.repeat(slot_blk * n_scalar, slot_rows)
    # Buffer position of each row (and the end), the panels as views of the
    # buffer, and the sorted keys every update entry is looked up in; the
    # sentinel matches no key.
    row_base = exclusive_cumsum(sizes[row_panel])
    bases = row_base[panel_row0].tolist()
    row0 = panel_row0.tolist()
    buf = np.zeros(bases[-1], dtype=np.complex128)
    work = [buf[bases[j]:bases[j + 1]].reshape(row0[j + 1] - row0[j], n[j])
            for j in range(nb)]
    row_key = np.append(row_panel * n_scalar + row_scalar, nb * n_scalar)
    del row_panel

    # Place K: block (i, j) goes whole to its (hi, lo) slot in panel lo,
    # transposed where the permutation flips it; the slots are found by one
    # sorted search over the (panel, block row) keys of all slots.
    keys = np.fromiter(chain.from_iterable(K.blocks), np.int64,
                       2 * len(K.blocks)).reshape(-1, 2)
    ij = plan.order.inverse()[keys]
    hi, lo = ij.max(axis=1), ij.min(axis=1)
    slot_key = np.append(slot_panel * nb + slot_blk, nb * nb)
    key = lo * nb + hi
    at = slot_key.searchsorted(key)
    miss = np.flatnonzero(slot_key[at] != key)
    if miss.size:
        t = miss[0]
        raise FactorConsistencyError(
            f"unconsumed blocks: block {(int(hi[t]), int(lo[t]))} "
            f"of K has no place in the plan")
    r_in_panel = (slot_row0[at] - panel_row0[lo]).tolist()
    flip = (ij[:, 0] < ij[:, 1]).tolist()
    for blk, p, r, f in zip(K.blocks.values(), lo.tolist(), r_in_panel, flip):
        blk = blk.T if f else blk
        work[p][r:r + blk.shape[0]] = blk
    # Closure: column j's rows past its parent p (its first row) are slots
    # of panel p; then every update has its slots (Liu 1990, fill paths).
    rest = np.flatnonzero(ragged_arange(n_slots) >= 2)
    parent = slot_blk[slot_start[slot_panel[rest]] + 1]
    key = parent * nb + slot_blk[rest]
    miss = np.flatnonzero(slot_key[slot_key.searchsorted(key)] != key)
    if miss.size:
        t = miss[0]
        raise FactorConsistencyError(
            f"update targets block {(int(slot_blk[rest[t]]), int(parent[t]))} "
            f"outside pattern")
    del keys, ij, hi, lo, slot_key, key, at, r_in_panel, flip, rest, parent
    K.validate()
    if not np.isfinite(buf).all():      # validate skips non-finite blocks
        raise ValueError("matrix has non-finite entries")

    diag: list[DenseFactor] = []
    panels: list[np.ndarray] = []
    panel_rows: list[np.ndarray] = []
    for j in range(nb):
        nj = n[j]
        try:
            fac, swapped = _factor_lower(work[j][:nj], pivot_tol)
        except SingularBlockError as err:
            raise SingularBlockError(f"block column {j}: {err}") from err
        diag.append(fac)
        Lp = work[j][nj:]
        panels.append(Lp)
        below = slice(row0[j] + nj, row0[j + 1])
        prow = row_scalar[below]
        panel_rows.append(prow)
        if not prow.size:
            continue
        # X = L D is the transpose of L_jj^-1 (panel P^T)^T, solved in place
        # on the panel, whose transpose is column-major; L = X D^-1.
        if swapped:
            Lp[...] = Lp[:, fac.perm]
        _unit_lower_solve(fac.L, Lp.T)
        X = Lp.copy()
        if fac.n_2x2:
            fac.apply_dinv(Lp.T)
        else:
            Lp /= fac.d
        U = blas_matmul(X, Lp.T)
        # Entry (a, b) of U's lower triangle goes to row prow[a] of the panel
        # of b's block, at b's column within that block.
        rows, cols, at_u = _lower_triangle(prow.size)
        key = row_bkey[below].take(cols) + prow.take(rows)
        at = row_key.searchsorted(key)
        pos = row_base.take(at) + row_in_blk[below].take(cols)
        buf[pos] -= U.ravel("F").take(at_u)

    m = np.diff(panel_row0) - sizes
    sq = sizes * sizes
    k_entries = sum(blk.size for blk in K.blocks.values())
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


def _solve_one(F: BlockFactor, spans: list[slice], prows: list[np.ndarray],
               dinv, b: np.ndarray) -> None:
    """Block forward/backward substitution of one column, in place.

    ``b`` is one right-hand-side column in permuted, concatenated order with
    each block's rows in its diagonal factor's pivot order, ``spans[j]`` its
    rows of block column ``j`` and ``prows[j]`` the rows of panel ``j`` in
    that order.  Each sweep step is one unit-triangular solve in place on
    ``b[spans[j]]``, one panel product and one indexed subtraction; D^-1 is
    applied to the whole column at once, ``dinv`` being the ``(d, e, tags)``
    of all diagonal factors concatenated.
    """
    for fac, Lp, rows, sj in zip(F.diag, F.panels, prows, spans):
        zj = _unit_lower_solve(fac.L, b[sj])
        if rows.size:
            b[rows] -= blas_matmul(Lp, zj)
    _apply_dinv(*dinv, b)
    for j in range(len(spans) - 1, -1, -1):
        zj, rows = b[spans[j]], prows[j]
        if rows.size:
            zj -= blas_matmul(F.panels[j].T, b[rows])
        _unit_lower_solve(F.diag[j].L, zj, trans=1)


def block_solve(F: BlockFactor, g: np.ndarray) -> np.ndarray:
    """Solve K x = g through the block factor.

    ``g`` is one right-hand side of shape ``(n,)``, or several as the
    columns of an ``(n, k)`` array, in K's block order; ``x`` has its shape.
    Every diagonal factor's row permutation is folded once per call into the
    map from g's rows to the solve's rows and into the panels' rows, so the
    sweeps never permute.  Columns are processed strictly one at a time
    through the same code path, so a multi-column solve reproduces
    column-by-column calls exactly.
    """
    sizes = F.plan.sizes_perm
    n = int(sizes.sum())
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim not in (1, 2) or g.shape[0] != n:
        raise ValueError(f"right-hand side has shape {g.shape}, "
                         f"expected ({n},) or ({n}, k)")
    if not F.diag:
        return g.copy()
    off = exclusive_cumsum(sizes)
    # Position in the permuted, concatenated unknown vector of each row of
    # the solve, block by block in pivot order; where[r] is the solve row of
    # position r.
    piv = np.concatenate([f.perm for f in F.diag]) + np.repeat(off[:-1], sizes)
    where = np.empty_like(piv)
    where[piv] = np.arange(n)
    # row of g at each row of the solve
    perm = F.plan.order.perm
    rows = (np.repeat(exclusive_cumsum(sizes[F.plan.order.inverse()])[perm], sizes)
            + ragged_arange(sizes))[piv]
    prows = [where[r] for r in F.panel_rows]
    # g's rows in solve order, as one Fortran-ordered copy: the transpose
    # of a C-ordered take.  Each column B[:, c:c + 1] is then contiguous and
    # solved in place.
    B = np.take((g[:, None] if g.ndim == 1 else g).T, rows, axis=1).T
    off = off.tolist()
    spans = [slice(a, b) for a, b in zip(off[:-1], off[1:])]
    dinv = tuple(np.concatenate([getattr(f, name) for f in F.diag])
                 for name in ("d", "e", "tags"))
    for c in range(B.shape[1]):
        _solve_one(F, spans, prows, dinv, B[:, c:c + 1])
    x = np.empty(B.shape, dtype=np.complex128)
    x[rows] = B
    return x.reshape(g.shape)

