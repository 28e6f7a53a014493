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
The diagonal factors are written straight into flat arrays: one buffer of
every column-major L_jj, and ``d``, ``e``, ``tags`` and ``perm`` in
elimination order, which the solve reads as they are.  It folds their row
interchanges into its row maps once per call, so each of its steps works on
a contiguous slice.

The dense Bunch-Kaufman rule factors the reduced system's diagonal blocks;
subdomain matrices are eliminated by LAPACK LU in :mod:`ddsolve.subdomain`.
It follows Bunch & Kaufman (1977) with pivot tests on the true complex
modulus.  LAPACK ``?sytrf`` is not a drop-in replacement: it tests
``|Re| + |Im|``, for which the 2.57 per-step growth bound does not hold.
One pivot rule runs in two kernels, chosen by the block's order n alone.
Up to ``SCALAR_MAX`` the scalar kernel works on Python complex numbers over
the columns of the lower triangle, one entry at a time: a numpy call costs
more than such a block's whole arithmetic.  Above it the numpy kernel keeps
the trailing block as one full square, symmetric to rounding, and each
pivot step is one rank-1 or rank-2 numpy update of the whole square and one
absolute value of it, which serves both the step's growth and the next
step's pivot search.  Both swap whole rows and columns on an interchange,
take ``pivot_tol * max|lower triangle|`` as the threshold and raise
``ValueError`` on a non-finite entry or update; they agree to rounding, not
bit for bit.
The factor and solve loops call scipy's BLAS directly (``ztrsm``, ``zgemm``)
rather than mixing it with numpy's ``@``: the two packages may bundle
separate BLAS builds, each with its own thread pool, and alternating between
two pools in a loop makes their idle-spinning workers compete for the CPUs.
These two routines, and the ``zgbsv`` and ``zgbtrs`` of
:mod:`ddsolve.subdomain`, are taken from SciPy's compiled f2py wrappers
``scipy.linalg._fblas`` and ``scipy.linalg._flapack`` by
:func:`scipy_linalg_routines`, which loads the extension file alone.
Importing ``scipy.linalg`` would run its package ``__init__``, which on
recent SciPy clones numpy's namespace and so imports ``numpy.f2py``,
``numpy.random``, ``numpy.testing`` and more: most of a fresh process's
start-up, none of it used by a solve.  The routines are the same machine
code on the same BLAS either way.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from itertools import chain

import numpy as np

from .blockmat import BlockSparseSym, exclusive_cumsum, ragged_arange
from .symbolic import EliminationPlan

DEFAULT_PIVOT_TOL = 1e-12


def check_pivot_tol(tol: float) -> float:
    """``tol`` if it is a usable relative pivot threshold, finite and not
    negative; otherwise raises ValueError."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"pivot_tol must be finite and non-negative, got {tol!r}")
    return tol

# Pivot threshold constant from the 1977 Bunch-Kaufman analysis; bounds the
# per-step element growth by 1 + 1/alpha < 2.57.
BK_ALPHA = (1.0 + math.sqrt(17.0)) / 8.0

# Largest diagonal block factored by the scalar kernel; larger ones run the
# numpy kernel.  The scalar kernel is faster up to order 11 (README,
# "Backends"); 10 keeps the 11- and 12-row blocks of the subdomain-bound
# benchmark on the numpy kernel.
SCALAR_MAX = 10


class SingularBlockError(Exception):
    """Both 1x1 and 2x2 pivot candidates fell below the pivot threshold."""


class FactorConsistencyError(Exception):
    """Numeric factorization touched a block outside the symbolic pattern."""


def scipy_linalg_routines(module: str, *names: str) -> tuple:
    """The routines ``names`` of SciPy's compiled module
    ``scipy.linalg.<module>``, loaded from its file without running
    ``scipy/__init__.py`` or ``scipy/linalg/__init__.py``.

    CPython files a single-phase extension module in ``sys.modules`` as it
    creates it; the entry that was there before, if any, is put back, so an
    ``import scipy.linalg`` before or after loads its package as usual.
    CPython keeps such a module per file, so that import hands out the very
    same routines.
    """
    linalg = os.path.join(*find_spec("scipy").submodule_search_locations, "linalg")
    spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        f"scipy.linalg.{module}")
    if spec is None:
        raise ImportError(f"no compiled module {module} in {linalg}")
    held = sys.modules.get(spec.name)
    loaded = module_from_spec(spec)
    spec.loader.exec_module(loaded)
    sys.modules.pop(spec.name, None)
    if held is not None:
        sys.modules[spec.name] = held
    return tuple(getattr(loaded, name) for name in names)


zgemm, ztrsm = scipy_linalg_routines("_fblas", "zgemm", "ztrsm")


def _unit_lower_solve(L: np.ndarray, B: np.ndarray, trans: int = 0) -> np.ndarray:
    """``L^-1 B`` (``trans=0``) or ``L^-T B`` (``trans=1``) for unit lower L.

    Overwrites and returns ``B`` when it is a Fortran-ordered complex array;
    ``L`` is read in place when Fortran-ordered.
    """
    # by position: side 0 (left), lower 1, trans_a, diag 1 (unit), overwrite_b 1
    return ztrsm(1.0, L, B, 0, 1, trans, 1, 1)


def blas_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` as a complex matrix on scipy's BLAS; a 1-D ``B`` is one column.

    A C-ordered ``A`` is passed as its transpose, so neither layout of ``A``
    is copied.
    """
    if A.flags.c_contiguous:
        # by position: beta 0, c None (a new output), trans_a 1
        return zgemm(1.0, A.T, B, 0.0, None, 1)
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


def _bk_pivot(col: list[float], row, k: int, tol_abs: float) -> tuple[int, int]:
    """The Bunch-Kaufman pivot ``(kp, kstep)`` of elimination step ``k``.

    ``col`` is |column k| of the trailing block from row k, as Python
    floats, and ``row(i)`` returns |row i| of it from column k as a new
    list.  Ties go to the first row, as ``argmax`` does.  Raises
    :class:`SingularBlockError` when neither a 1x1 nor a 2x2 candidate
    exceeds ``tol_abs``: the remaining column is numerically zero.
    """
    absakk = col[0]
    colmax = 0.0
    imax = k
    if len(col) > 1:
        colmax = max(col[1:])
        imax = k + col.index(colmax, 1)
    if max(absakk, colmax) <= tol_abs:
        raise SingularBlockError(
            f"no acceptable pivot at elimination step {k} "
            f"(threshold {tol_abs:.3e})")
    if absakk >= BK_ALPHA * colmax:
        return k, 1
    r = row(imax)
    absaii = r[imax - k]
    r[imax - k] = 0.0
    rowmax = max(r)
    if absakk * rowmax >= BK_ALPHA * colmax * colmax:
        return k, 1
    if absaii >= BK_ALPHA * rowmax:
        return imax, 1
    return imax, 2


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


def _numpy_kernel(B: np.ndarray, pivot_tol: float, L: np.ndarray,
                  d: np.ndarray, e: np.ndarray, at: int):
    """Bunch-Kaufman factor of the lower triangle of ``B``, mirrored into
    ``L`` as one full square ``W`` and eliminated in place there; ``d`` and
    ``e`` are written from position ``at`` and ``(perm, tags, twos,
    growth)`` returned, as :func:`_factor_lower` describes.

    Each step updates the whole trailing square, which stays symmetric to
    rounding, and takes one ``np.abs`` of the updated square: its maximum
    gives the step's growth, and its columns the next step's pivot search.
    The strict lower triangle of ``W`` collects the unit-L columns, the
    diagonal the 1x1 entries of D and ``W[k+1, k]`` the subdiagonal of a
    2x2 pivot starting at ``k`` (the L entry there is zero).  ``perm[i]`` is
    the original index at position ``i``: interchanges swap whole rows, L
    rows included, so one permutation describes the whole factor.
    """
    n = B.shape[0]
    sym, upper, diag, eye = _square_index(n)
    B.take(sym, out=L)
    # +0.0 turns -0.0 into +0.0, as tril(B) + tril(B, -1).T would.
    L += 0.0
    W = L.reshape((n, n), order="F")
    A = np.abs(W)
    w_max = A.max() if n else 0.0
    if not math.isfinite(w_max):
        raise ValueError("matrix has non-finite entries")
    tol_abs = pivot_tol * w_max
    perm = list(range(n))
    tags = [0] * n
    twos: list[int] = []
    growth = 1.0
    trail_max = float(w_max)
    k = 0
    # One errstate for the whole elimination: a step whose update leaves the
    # float range fails by the finiteness test of its maximum, not by numpy's
    # warning on the way there.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n:
            # A is |W[k:, k:]|; i - k indexes it.
            kp, kstep = _bk_pivot(A[:, 0].tolist(), lambda i: A[:, i - k].tolist(),
                                  k, tol_abs)
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
            if not math.isfinite(step_max):
                raise ValueError(f"non-finite entries after elimination step {k}")
            if trail_max > 0.0:
                r = step_max / trail_max
                if kstep == 2:
                    r = math.sqrt(r)
                growth = max(growth, r)
            trail_max = step_max
            k = kn
    # W becomes L: its upper triangle and diagonal are overwritten by the
    # identity's.
    d[at:at + n] = L[diag]
    np.copyto(L, eye, where=upper)
    if twos:
        s = np.array(twos)
        e[at + s] = W[s + 1, s]
        W[s + 1, s] = 0.0
    return perm, tags, twos, growth


@lru_cache(maxsize=None)
def _trailing(n: int, kn: int):
    """``(q, r, s)`` of every lower-triangle entry (kn + r, kn + s) of an
    n x n column-major square from row and column ``kn``, ``q`` its flat
    position, column by column; and the positions alone."""
    trail = tuple(((kn + s) * (n + 1) + r - s, r, s)
                  for s in range(n - kn) for r in range(s, n - kn))
    return trail, tuple(t[0] for t in trail)


def _scalar_kernel(B: np.ndarray, pivot_tol: float, L: np.ndarray,
                   d: np.ndarray, e: np.ndarray, at: int):
    """:func:`_numpy_kernel` on Python complex numbers, for small squares.

    ``W[r + c * n]`` is entry (r, c) of the square, column-major like L.
    Each step updates the trailing lower triangle entry by entry, with the
    numpy kernel's formulas and operand order, and takes its largest
    modulus for the growth; the first column of those moduli is the next
    step's pivot column.  Only an interchange reads the upper triangle:
    it mirrors the trailing lower triangle into it, then swaps whole rows
    and whole columns, the numpy kernel's rule.  CPython's complex
    multiply, divide and ``abs`` round differently from numpy's, so the
    factor agrees with the numpy kernel's to rounding, not bit for bit.
    ``abs`` raises ``OverflowError`` past the float range, where numpy's
    returns inf: on an entry of ``B`` it propagates, and on a step's update
    it fails the step as a non-finite one, as in the numpy kernel.
    """
    n = B.shape[0]
    # The lower triangle mirrored, as in the numpy kernel; +0j turns -0.0
    # into +0.0.
    W = [x + 0j for x in B.take(_square_index(n)[0]).tolist()]
    A = list(map(abs, W))
    if not all(map(math.isfinite, A)):
        raise ValueError("matrix has non-finite entries")
    w_max = max(A, default=0.0)
    tol_abs = pivot_tol * w_max
    perm = list(range(n))
    tags = [0] * n
    twos: list[int] = []
    growth = 1.0
    trail_max = w_max
    k = 0

    def row(i: int) -> list[float]:
        # |row i| from column k: (i, c) is W[c * n + i] left of the diagonal
        # and W[i * n + c] from it
        return (list(map(abs, W[k * n + i:i * (n + 1):n]))
                + list(map(abs, W[i * (n + 1):(i + 1) * n])))

    while k < n:
        c0 = k * n
        # A begins with |column k| from the diagonal: the moduli of the whole
        # square at step 0, of the trailing triangle column by column after
        # each update
        kp, kstep = _bk_pivot(A[:n - k], row, k, tol_abs)
        kk = k + kstep - 1
        if kp != kk:
            for c in range(k, n - 1):
                W[c * (n + 1) + n::n] = W[c * (n + 1) + 1:(c + 1) * n]
            W[kk::n], W[kp::n] = W[kp::n], W[kk::n]
            W[kk * n:(kk + 1) * n], W[kp * n:(kp + 1) * n] = \
                W[kp * n:(kp + 1) * n], W[kk * n:(kk + 1) * n]
            perm[kk], perm[kp] = perm[kp], perm[kk]
        kn = k + kstep
        tags[k] = kstep
        if kstep == 2:
            twos.append(k)
        if kn == n:
            break
        trail, trail_q = _trailing(n, kn)
        a = W[c0 + kn:c0 + n]
        if kstep == 1:
            lk = [c / W[c0 + k] for c in a]
            for q, r, s in trail:
                W[q] -= a[r] * lk[s]
            W[c0 + kn:c0 + n] = lk
        else:
            c1 = c0 + n
            b = W[c1 + kn:c1 + n]
            d21 = W[c0 + k + 1]
            d11 = W[c1 + k + 1] / d21
            d22 = W[c0 + k] / d21
            d21s = (1.0 / (d11 * d22 - 1.0)) / d21
            wk = [d21s * (d11 * x - y) for x, y in zip(a, b)]
            wkp = [d21s * (d22 * y - x) for x, y in zip(a, b)]
            for q, r, s in trail:
                W[q] -= a[r] * wk[s] + b[r] * wkp[s]
            W[c0 + kn:c0 + n] = wk
            W[c1 + kn:c1 + n] = wkp
        try:
            A = [abs(W[q]) for q in trail_q]
        except OverflowError:   # a modulus past the float range
            A = [math.inf]
        # the moduli are not negative: a finite sum makes every one finite
        if not math.isfinite(sum(A)) and not all(map(math.isfinite, A)):
            raise ValueError(f"non-finite entries after elimination step {k}")
        step_max = max(A)
        if trail_max > 0.0:
            r = step_max / trail_max
            if kstep == 2:
                r = math.sqrt(r)
            growth = max(growth, r)
        trail_max = step_max
        k = kn
    for s in twos:
        e[at + s] = W[s * (n + 1) + 1]
        W[s * (n + 1) + 1] = 0j
    d[at:at + n] = W[::n + 1]
    for c in range(n):
        W[c * n:c * (n + 1) + 1] = [0j] * c + [1 + 0j]
    L[:] = W
    return perm, tags, twos, growth


def _factor_lower(B: np.ndarray, pivot_tol: float, L: np.ndarray,
                  d: np.ndarray, e: np.ndarray, tags: np.ndarray,
                  perm: np.ndarray, at: int = 0) -> tuple[float, int, bool]:
    """Bunch-Kaufman factor of the symmetric matrix whose lower triangle is
    that of the square ``B``; the upper triangle of ``B`` is not read.

    The factor is written into ``L`` (the n*n entries of unit-lower L,
    column-major) and from position ``at`` into ``d``, ``e`` (zero on
    entry), ``tags`` and ``perm``, as in :class:`DenseFactor`.  Orders up to
    ``SCALAR_MAX`` run the scalar kernel, larger ones the numpy kernel; both
    apply one pivot rule, :func:`_bk_pivot`, with the threshold
    ``pivot_tol * max|B|`` over the lower triangle.  Returns the growth, the
    number of 2x2 pivots and whether any rows were interchanged.  Raises
    :class:`SingularBlockError` like :func:`dense_ldlt_bk`, and
    ``ValueError`` on a non-finite entry of ``B`` or of a step's update,
    a modulus past the float range included, whichever kernel ran.
    """
    n = B.shape[0]
    kernel = _scalar_kernel if n <= SCALAR_MAX else _numpy_kernel
    try:
        p, t, twos, growth = kernel(B, pivot_tol, L, d, e, at)
    except OverflowError as err:
        # CPython's abs past the float range on an entry of B, where numpy's
        # returns inf
        raise ValueError("matrix has non-finite entries") from err
    tags[at:at + n] = t
    perm[at:at + n] = p
    return growth, len(twos), p != list(range(n))


def _flat_diag(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``d``, ``e`` (zeros), ``tags`` and ``perm`` of n scalar rows, to be
    written by the diagonal factors."""
    return (np.empty(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128),
            np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int_))


def dense_ldlt_bk(M: np.ndarray, pivot_tol: float = DEFAULT_PIVOT_TOL) -> DenseFactor:
    """Factor a complex symmetric matrix with Bunch-Kaufman partial pivoting.

    The factor depends on the lower triangle of ``M`` only; the upper one
    enters the finiteness and symmetry checks alone.  Raises
    :class:`SingularBlockError` and ``ValueError`` as :func:`_factor_lower`
    does, and ``ValueError`` when ``M`` is not symmetric or ``pivot_tol``
    fails :func:`check_pivot_tol`.
    """
    check_pivot_tol(pivot_tol)
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
    n = M.shape[0]
    L = np.empty((n, n), dtype=np.complex128, order="F")
    d, e, tags, perm = _flat_diag(n)
    growth, n_2x2, _ = _factor_lower(M, pivot_tol, L.reshape(-1, order="F"),
                                     d, e, tags, perm)
    return DenseFactor(L, d, e, tags, perm, growth, n_2x2)


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
    """Output of :func:`block_ldlt`: the diagonal factors in elimination
    order, held in flat arrays, plus the off-diagonal factor of every block
    column.

    ``L[j]`` is the column-major unit-lower L of diagonal block ``j``, a view
    of one buffer of all of them; ``d``, ``e``, ``tags`` and ``perm``
    concatenate those of every diagonal factor as in :class:`DenseFactor`,
    ``perm`` holding each block's own pivot order, and ``growth[j]`` is
    block ``j``'s growth.  ``panels[j]`` stacks the blocks ``L_ij`` of
    column ``j``, ``i`` in ``plan.pattern[j]`` order; it is a view below the
    diagonal block of the column's working panel.  ``panel_rows[j]`` are the
    panel's scalar rows in the permuted, concatenated unknown vector.
    """

    plan: EliminationPlan
    L: list[np.ndarray]
    d: np.ndarray
    e: np.ndarray
    tags: np.ndarray
    perm: np.ndarray
    growth: np.ndarray
    panels: list[np.ndarray]
    panel_rows: list[np.ndarray]
    stats: FactorStats = field(default_factory=FactorStats)

    def diag_factor(self, j: int) -> DenseFactor:
        """Diagonal block ``j``'s factor, as views of the flat arrays."""
        a, b = (int(x) for x in exclusive_cumsum(self.plan.sizes_perm)[j:j + 2])
        tags = self.tags[a:b]
        return DenseFactor(self.L[j], self.d[a:b], self.e[a:b], tags,
                           self.perm[a:b], float(self.growth[j]),
                           int(np.count_nonzero(tags == 2)))


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
    top block, straight into the flat arrays of all diagonal factors (the
    scalar kernel up to ``SCALAR_MAX`` rows, the numpy kernel above); permute
    the panel's columns if that factor interchanged rows;
    form X = L D for the rows below it by one triangular solve in place on
    the panel and keep one copy of it; recover L = X D_jj^-1 in place (one
    division when D_jj has no 2x2 pivot); form the update U = X L^T by one
    product; and subtract the lower triangle of U from the later panels by
    one indexed subtraction.  Its positions come from one sorted search over
    the (panel, scalar row) keys of all panel rows, with the update's keys
    built from one per-row array, each row's block times the scalar order;
    past the checks, only the lower triangle of a diagonal block is read.  A
    block of K or a column's update with no place in the plan raises
    :class:`FactorConsistencyError`, and a ``pivot_tol`` that fails
    :func:`check_pivot_tol` raises ``ValueError``.
    """
    check_pivot_tol(pivot_tol)
    nb = K.nblocks
    if plan.nblocks != nb:
        raise ValueError("plan and matrix disagree on block count")
    sizes = plan.sizes_perm
    if not np.array_equal(sizes, K.sizes[plan.order.perm]):
        raise ValueError("plan and matrix disagree on block sizes")
    if nb == 0:
        return BlockFactor(plan, [], *_flat_diag(0), np.ones(0), [], [])
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
    bi, bj = plan.order.inverse()[keys].T
    hi, lo = np.maximum(bi, bj), np.minimum(bi, bj)
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
    flip = (bi < bj).tolist()
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
    del keys, bi, bj, hi, lo, slot_key, key, at, r_in_panel, flip, rest, parent
    K.validate()
    if not np.isfinite(buf).all():      # validate skips non-finite blocks
        raise ValueError("matrix has non-finite entries")

    # The diagonal factors: every L_jj in one buffer, the rest flat.
    sq = sizes * sizes
    l_base = exclusive_cumsum(sq).tolist()
    l_buf = np.empty(l_base[-1], dtype=np.complex128)
    d, e, tags, perm = _flat_diag(n_scalar)
    growth = np.empty(nb)
    diag_l: list[np.ndarray] = []
    panels: list[np.ndarray] = []
    panel_rows: list[np.ndarray] = []
    off = offsets.tolist()
    for j in range(nb):
        nj = n[j]
        Lf = l_buf[l_base[j]:l_base[j + 1]]
        try:
            growth[j], n_2x2, swapped = _factor_lower(
                work[j][:nj], pivot_tol, Lf, d, e, tags, perm, off[j])
        except SingularBlockError as err:
            raise SingularBlockError(f"block column {j}: {err}") from err
        Ljj = Lf.reshape((nj, nj), order="F")
        diag_l.append(Ljj)
        Lp = work[j][nj:]
        panels.append(Lp)
        below = slice(row0[j] + nj, row0[j + 1])
        prow = row_scalar[below]
        panel_rows.append(prow)
        if not prow.size:
            continue
        # X = L D is the transpose of L_jj^-1 (panel P^T)^T, solved in place
        # on the panel, whose transpose is column-major; L = X D^-1.
        sj = slice(off[j], off[j + 1])
        if swapped:
            Lp[...] = Lp[:, perm[sj]]
        _unit_lower_solve(Ljj, Lp.T)
        X = Lp.copy()
        if n_2x2:
            _apply_dinv(d[sj], e[sj], tags[sj], Lp.T)
        else:
            Lp /= d[sj]
        U = blas_matmul(X, Lp.T)
        # Entry (a, b) of U's lower triangle goes to row prow[a] of the panel
        # of b's block, at b's column within that block.
        rows, cols, at_u = _lower_triangle(prow.size)
        key = row_bkey[below].take(cols) + prow.take(rows)
        at = row_key.searchsorted(key)
        pos = row_base.take(at) + row_in_blk[below].take(cols)
        buf[pos] -= U.ravel("F").take(at_u)

    m = np.diff(panel_row0) - sizes
    k_entries = sum(blk.size for blk in K.blocks.values())
    pattern_sq = np.add.reduceat(sq[slot_blk], slot_start[:-1]) - sq
    flops = (sizes ** 3 // 3 + sq + m * sq + m * sizes
             + sizes * (m * m + pattern_sq) // 2)
    stats = FactorStats(
        factor_entries=int((sizes * (sizes + 1) // 2 + m * sizes).sum()),
        flops=int(flops.sum()),
        peak_bytes=16 * int(k_entries + buf.size + sq.sum()
                            + (m * sizes + m * m).max()),
        growth_factor=float(growth.max()),
        n_2x2_pivots=int(np.count_nonzero(tags == 2)))
    return BlockFactor(plan, diag_l, d, e, tags, perm, growth, panels,
                       panel_rows, stats)


def _solve_one(F: BlockFactor, spans: list[slice], prows: list[np.ndarray],
               b: np.ndarray) -> None:
    """Block forward/backward substitution of one column, in place.

    ``b`` is one right-hand-side column in permuted, concatenated order with
    each block's rows in its diagonal factor's pivot order, ``spans[j]`` its
    rows of block column ``j`` and ``prows[j]`` the rows of panel ``j`` in
    that order.  Each sweep step is one unit-triangular solve in place on
    ``b[spans[j]]``, one panel product and one indexed subtraction; D^-1 is
    applied to the whole column at once from the factor's flat ``d``, ``e``
    and ``tags``.
    """
    for Ljj, Lp, rows, sj in zip(F.L, F.panels, prows, spans):
        zj = _unit_lower_solve(Ljj, b[sj])
        if rows.size:
            b[rows] -= blas_matmul(Lp, zj)
    _apply_dinv(F.d, F.e, F.tags, b)
    for j in range(len(spans) - 1, -1, -1):
        zj, rows = b[spans[j]], prows[j]
        if rows.size:
            zj -= blas_matmul(F.panels[j].T, b[rows])
        _unit_lower_solve(F.L[j], zj, trans=1)


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
    if not F.L:
        return g.copy()
    off = exclusive_cumsum(sizes)
    # Position in the permuted, concatenated unknown vector of each row of
    # the solve, block by block in pivot order; where[r] is the solve row of
    # position r.
    piv = F.perm + np.repeat(off[:-1], sizes)
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
    for c in range(B.shape[1]):
        _solve_one(F, spans, prows, B[:, c:c + 1])
    x = np.empty(B.shape, dtype=np.complex128)
    x[rows] = B
    return x.reshape(g.shape)
