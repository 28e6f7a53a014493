"""Numeric factorization: dense Bunch-Kaufman LDL^T and the right-looking
block LDL^T over an elimination plan, plus forward/backward substitution.

Pivoting is restricted: each diagonal block is factored with pivot searches
confined to itself, so no pivot is ever deferred into another supernode and
the numeric factor occupies exactly the entries predicted symbolically.  The
block factor holds each block column in one panel allocated from the plan
(supernodal column storage, Ng & Peyton 1993), and updates reach a later
panel by relative row indices, so a block outside the pattern has no storage
and raises instead.

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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemm, ztrsm

from .blockmat import BlockSparseSym
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
        if self.n_2x2 == 0:
            Z /= self.d[:, None]
            return
        one = np.flatnonzero(self.tags == 1)
        Z[one] /= self.d[one, None]
        # 2x2 pivots solved by elimination on the dominant off-diagonal entry
        # b (guaranteed largest in its column by the pivot tests).
        s = np.flatnonzero(self.tags == 2)
        b = self.e[s, None]
        akm1 = self.d[s, None] / b
        ak = self.d[s + 1, None] / b
        denom = akm1 * ak - 1.0
        t1 = Z[s] / b
        t2 = Z[s + 1] / b
        Z[s] = (ak * t1 - t2) / denom
        Z[s + 1] = (akm1 * t2 - t1) / denom

    def dense_d(self) -> np.ndarray:
        D = np.diag(self.d)
        s = np.flatnonzero(self.tags == 2)
        D[s + 1, s] = D[s, s + 1] = self.e[s]
        return D


def _bk_factor(W: np.ndarray, tol_abs: float):
    """Bunch-Kaufman elimination of the symmetric square ``W`` in place.

    Returns ``(perm, tags, growth, info)``.  Each step updates the whole
    trailing square, which stays symmetric to rounding.  On return the strict
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
    growth = 1.0
    trail_max = np.abs(W).max() if n else 0.0
    k = 0
    while k < n:
        kstep = 1
        absakk = abs(W[k, k])
        colmax = 0.0
        imax = k
        if k + 1 < n:
            col = np.abs(W[k + 1:, k])
            t = int(np.argmax(col))
            imax = k + 1 + t
            colmax = col[t]
        if max(absakk, colmax) <= tol_abs:
            # Neither a 1x1 nor a 2x2 candidate clears the threshold: the
            # remaining column is numerically zero.
            return perm, tags, growth, k
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
        if kstep == 1:
            tags[k] = 1
            c = W[kn:, k]
            lk = c / W[k, k]
            # Outer products are formed transposed so that they share the
            # column-major layout of W.
            W[kn:, kn:] -= np.multiply.outer(lk, c).T
            W[kn:, k] = lk
        else:
            tags[k] = 2
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
        if kn < n:
            step_max = np.abs(W[kn:, kn:]).max()
            if trail_max > 0.0:
                r = step_max / trail_max
                if kstep == 2:
                    r = np.sqrt(r)
                growth = max(growth, r)
            trail_max = step_max
        k = kn
    return perm, tags, growth, -1


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
    n = M.shape[0]
    W = np.array(M, dtype=np.complex128, order="F")
    scale = np.abs(W).max() if n else 0.0
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if n and scale > 0.0:
        asym = np.abs(W - W.T).max()
        if asym > 1e-12 * scale:
            raise ValueError(f"matrix is not symmetric: max|M - M^T| = {asym:.3e}")
    # block_ldlt's two-tril rule: an exactly symmetric M is unchanged.
    np.add(np.tril(W), np.tril(W, -1).T, out=W)
    perm, tags, growth, info = _bk_factor(W, pivot_tol * scale)
    if info >= 0:
        raise SingularBlockError(
            f"no acceptable pivot at elimination step {info} "
            f"(threshold {pivot_tol * scale:.3e})")
    d = np.diagonal(W).copy()
    s = np.flatnonzero(tags == 2)
    e = np.zeros(n, dtype=np.complex128)
    e[s] = W[s + 1, s]
    # W.T is row-major, so the transpose of its strict upper triangle is a
    # column-major strict lower triangle of W.
    L = np.triu(W.T, 1).T
    L[s + 1, s] = 0.0
    np.fill_diagonal(L, 1.0)
    return DenseFactor(L, d, e, tags, perm, float(growth), int(s.size))


@dataclass
class FactorStats:
    factor_entries: int = 0
    flops: int = 0
    peak_bytes: int = 0
    growth_factor: float = 1.0
    n_2x2_pivots: int = 0


@dataclass
class BlockFactor:
    """Output of :func:`block_ldlt`: per-supernode dense factors in
    elimination order plus the off-diagonal factor blocks of the pattern.

    ``panels[j]`` stacks the blocks ``L_ij`` of column ``j`` in pattern
    order (a view below the diagonal block of the column's working panel),
    and ``offdiag[(i, j)]`` are views into it.  ``panel_rows[j]`` are
    the panel's scalar rows in the permuted, concatenated unknown vector.
    """

    plan: EliminationPlan
    diag: list[DenseFactor]
    offdiag: dict[tuple[int, int], np.ndarray]
    panels: list[np.ndarray]
    panel_rows: list[np.ndarray]
    stats: FactorStats = field(default_factory=FactorStats)


def block_ldlt(K: BlockSparseSym, plan: EliminationPlan,
               pivot_tol: float = DEFAULT_PIVOT_TOL) -> BlockFactor:
    """Right-looking block LDL^T of ``K`` following ``plan``.

    Block column j lives in one zero-initialised panel allocated from the
    plan: block rows ``[j] + pattern[j]``, diagonal block on top.  K's blocks
    are written once into their column's panel, transposed where the
    permutation of ``plan`` flips them.  Per column: factor the top block,
    form X = L D for the rows below it by one triangular solve, recover
    L = X D_jj^-1 in place, form the update U = X L^T by one product, and
    subtract U's rows at and below each pattern row k from panel k by one
    indexed subtraction.  A block of K or of an update that has no place in
    the plan raises :class:`FactorConsistencyError`.
    """
    nb = K.nblocks
    if plan.nblocks != nb:
        raise ValueError("plan and matrix disagree on block count")
    sizes = plan.sizes_perm
    if not np.array_equal(sizes, K.sizes[plan.order.perm]):
        raise ValueError("plan and matrix disagree on block sizes")
    inv = plan.order.inverse().tolist()
    n = sizes.tolist()
    offsets = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    # start[j][i]: first row of block i in panel j; rows[j]: the panel's
    # ascending scalar rows in the permuted, concatenated unknown vector.
    work: list[np.ndarray] = []
    start: list[dict[int, int]] = []
    rows: list[np.ndarray] = []
    for j in range(nb):
        blocks = np.concatenate(([j], plan.pattern[j]))
        bs = sizes[blocks]
        local = np.zeros(blocks.size + 1, dtype=np.int64)
        np.cumsum(bs, out=local[1:])
        start.append(dict(zip(blocks.tolist(), local[:-1].tolist())))
        rows.append(np.arange(local[-1]) + np.repeat(offsets[blocks] - local[:-1], bs))
        work.append(np.zeros((int(local[-1]), n[j]), dtype=np.complex128))
    # Block rows written into each column's panel so far: the peak model
    # counts a trailing block as live from its first write.
    written: list[set[int]] = [set() for _ in range(nb)]
    for (i, j), blk in K.blocks.items():
        a, b = inv[i], inv[j]
        if a < b:
            a, b, blk = b, a, blk.T
        r = start[b].get(a)
        if r is None:
            raise FactorConsistencyError(
                f"unconsumed blocks: block {(a, b)} of K has no place in the plan")
        work[b][r:r + n[a]] = blk
        written[b].add(a)

    diag: list[DenseFactor] = []
    offdiag: dict[tuple[int, int], np.ndarray] = {}
    panels: list[np.ndarray] = []
    panel_rows: list[np.ndarray] = []
    stats = FactorStats()
    live_entries = sum(b.size for b in K.blocks.values())
    stored_entries = 0
    flops = 0
    peak = live_entries

    for j in range(nb):
        nj = n[j]
        live_entries -= nj * sum(n[i] for i in written[j])
        try:
            fac = dense_ldlt_bk(work[j][:nj], pivot_tol)
        except SingularBlockError as err:
            raise SingularBlockError(f"block column {j}: {err}") from err
        diag.append(fac)
        stored_entries += nj * (nj + 1) // 2
        flops += nj ** 3 // 3 + nj ** 2
        pat = plan.pattern[j].tolist()
        # X = L D is the transpose of L_jj^-1 (panel P^T)^T; L = X D^-1.
        Lp = work[j][nj:]
        m = Lp.shape[0]
        X = _unit_lower_solve(fac.L, Lp[:, fac.perm].T).T
        Lp[...] = X
        fac.apply_dinv(Lp.T)
        panels.append(Lp)
        prow = rows[j][nj:]
        panel_rows.append(prow)
        lo = [start[j][i] - nj for i in pat]
        for i, s in zip(pat, lo):
            offdiag[(i, j)] = Lp[s:s + n[i]]
        stored_entries += m * nj
        flops += m * nj * nj + m * nj
        # The update covers every pattern pair i >= k, n_i * nj * n_k each.
        flops += nj * (m * m + sum(n[i] * n[i] for i in pat)) // 2
        transient = X.size
        peak = max(peak, live_entries + stored_entries + transient)
        if not pat:
            continue
        U = blas_matmul(X, Lp.T)
        # SYRK-style symmetrization keeps diagonal blocks exactly symmetric
        # for the next diagonal factorization; blocks below it are unchanged.
        U = np.tril(U) + np.tril(U, -1).T
        for a, (k, s) in enumerate(zip(pat, lo)):
            into, seen = start[k], written[k]
            for i in pat[a:]:
                if i not in into:
                    raise FactorConsistencyError(
                        f"update targets block {(i, k)} outside pattern")
                if i not in seen:
                    seen.add(i)
                    live_entries += n[i] * n[k]
            pos = rows[k].searchsorted(prow[s:])
            work[k][pos] -= U[s:, s:s + n[k]]
        peak = max(peak, live_entries + stored_entries + transient)

    stats.factor_entries = stored_entries
    stats.flops = flops
    stats.peak_bytes = 16 * peak
    stats.growth_factor = max((f.growth for f in diag), default=1.0)
    stats.n_2x2_pivots = sum(f.n_2x2 for f in diag)
    return BlockFactor(plan, diag, offdiag, panels, panel_rows, stats)


def _solve_one(F: BlockFactor, spans: list[slice], b: np.ndarray) -> None:
    """Block forward/backward substitution of one column, in place.

    ``b`` is one right-hand-side column in permuted, concatenated order, and
    ``spans[j]`` its rows of block column ``j``.  Each sweep makes one panel
    product per block column.
    """
    for fac, Lp, rows, sj in zip(F.diag, F.panels, F.panel_rows, spans):
        zj = _unit_lower_solve(fac.L, b[sj][fac.perm])
        b[sj] = zj
        if rows.size:
            b[rows] -= blas_matmul(Lp, zj)
    for fac, sj in zip(F.diag, spans):
        fac.apply_dinv(b[sj])
    for j in range(len(spans) - 1, -1, -1):
        fac, rows, sj = F.diag[j], F.panel_rows[j], spans[j]
        w = b[sj]
        if rows.size:
            w = w - blas_matmul(F.panels[j].T, b[rows])
        b[sj.start + fac.perm] = _unit_lower_solve(fac.L, w, trans=1)


def block_solve(F: BlockFactor, g: list[np.ndarray]) -> list[np.ndarray]:
    """Solve K x = g through the block factor.

    ``g`` is a block vector: one array per supernode in the original block
    numbering, each either 1-D or a matrix of right-hand-side columns.
    Multiple columns are processed strictly one at a time through the same
    code path, so a multi-RHS solve reproduces column-by-column calls
    exactly.
    """
    nb = F.plan.nblocks
    if len(g) != nb:
        raise ValueError(f"block vector has {len(g)} blocks, expected {nb}")
    if nb == 0:
        return []
    perm = F.plan.order.perm
    sizes = F.plan.sizes_perm
    one_d = all(b.ndim == 1 for b in g)
    cols = None
    blocks = []
    for b in g:
        arr = np.array(b, dtype=np.complex128, ndmin=2)
        if b.ndim == 1:
            arr = arr.T
        if cols is None:
            cols = arr.shape[1]
        elif arr.shape[1] != cols:
            raise ValueError("inconsistent RHS column counts across blocks")
        blocks.append(arr)
    for j in range(nb):
        if blocks[int(perm[j])].shape[0] != int(sizes[j]):
            raise ValueError(f"block {int(perm[j])} has wrong length")
    ends = np.cumsum(sizes).tolist()
    spans = [slice(e - int(nj), e) for e, nj in zip(ends, sizes)]
    B = np.concatenate([blocks[int(p)] for p in perm])
    for c in range(cols):
        col = B[:, c:c + 1].copy()
        _solve_one(F, spans, col)
        B[:, c:c + 1] = col
    out: list[np.ndarray] = [None] * nb  # type: ignore[list-item]
    for p, sj in zip(perm, spans):
        out[int(p)] = B[sj, 0] if one_d else B[sj]
    return out


def scatter_factor(F: BlockFactor) -> tuple[np.ndarray, np.ndarray]:
    """Dense (L, D) of the permuted matrix, for verification.

    Returns block-lower L with diagonal blocks P_jj^T L_jj and the block
    diagonal D, satisfying K_perm = L D L^T.
    """
    sizes = F.plan.sizes_perm
    off = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=off[1:])
    n = int(off[-1])
    L = np.zeros((n, n), dtype=np.complex128)
    D = np.zeros((n, n), dtype=np.complex128)
    for j in range(F.plan.nblocks):
        fac = F.diag[j]
        lb = np.zeros_like(fac.L)
        lb[fac.perm, :] = fac.L
        L[off[j]:off[j + 1], off[j]:off[j + 1]] = lb
        D[off[j]:off[j + 1], off[j]:off[j + 1]] = fac.dense_d()
        for i in F.plan.pattern[j]:
            i = int(i)
            L[off[i]:off[i + 1], off[j]:off[j + 1]] = F.offdiag[(i, j)]
    return L, D
