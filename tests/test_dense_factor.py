import numpy as np
import pytest
import scipy.linalg

from conftest import permuted, rand_complex_symmetric, reconstruct_dense
from ddsolve import factor
from ddsolve.factor import BK_ALPHA, SingularBlockError, dense_ldlt_bk

GROWTH_BOUND = 2.57


def test_bk_alpha_constant():
    assert BK_ALPHA == pytest.approx((1.0 + np.sqrt(17.0)) / 8.0, rel=0, abs=0)


def test_identity():
    fac = dense_ldlt_bk(np.eye(4, dtype=complex))
    assert np.array_equal(fac.L, np.eye(4))
    assert np.array_equal(fac.d, np.ones(4))
    assert np.array_equal(fac.perm, np.arange(4))
    assert fac.n_2x2 == 0


def test_zero_diagonal_forces_2x2():
    M = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    fac = dense_ldlt_bk(M)
    assert fac.n_2x2 == 1
    assert list(fac.tags) == [2, 0]
    assert np.array_equal(fac.L, np.eye(2))
    D = fac.dense_d()
    assert np.array_equal(D, M)


@pytest.mark.parametrize("seed", range(10))
def test_random_reconstruction(seed):
    M = rand_complex_symmetric(12, seed)
    fac = dense_ldlt_bk(M)
    err = np.linalg.norm(permuted(M, fac.perm) - reconstruct_dense(fac), "fro")
    assert err <= 1e-13 * np.linalg.norm(M, "fro")


@pytest.mark.parametrize("seed", range(6))
def test_singular_leading_minors_force_2x2(seed):
    M = rand_complex_symmetric(10, seed)
    M[0, 0] = 0.0
    M[3, 3] = 0.0
    fac = dense_ldlt_bk(M)
    err = np.linalg.norm(permuted(M, fac.perm) - reconstruct_dense(fac), "fro")
    assert err <= 1e-13 * np.linalg.norm(M, "fro")
    assert fac.growth <= GROWTH_BOUND


def test_indefinite_real_spectrum():
    # mixed-sign eigenvalues, the regime the reduced interface matrix lives in
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    vals = np.concatenate([np.linspace(1, 8, 8), -np.linspace(1, 8, 8)])
    M = (Q * vals) @ Q.T
    M = (M + M.T) / 2
    fac = dense_ldlt_bk(M.astype(complex))
    err = np.linalg.norm(permuted(M, fac.perm) - reconstruct_dense(fac), "fro")
    assert err <= 1e-13 * np.linalg.norm(M, "fro")


def test_pivot_test_uses_modulus_not_cabs1():
    # |a21| = 0.9 sqrt(2) passes the 1x1 test |a11| >= alpha |a21|, while
    # |Re a21| + |Im a21| = 1.8 fails it.  LAPACK ?sytrf tests the latter
    # and takes a 2x2 pivot; the 2.57 growth bound holds only for the
    # modulus rule, which keeps the 1x1 pivot in place.
    a21 = 0.9 * (1.0 + 1.0j)
    M = np.array([[1.0, a21], [a21, 0.0]])
    assert 1.0 >= BK_ALPHA * abs(a21)
    assert 1.0 < BK_ALPHA * (abs(a21.real) + abs(a21.imag))
    fac = dense_ldlt_bk(M)
    assert list(fac.tags) == [1, 1]
    assert list(fac.perm) == [0, 1]
    assert fac.growth == pytest.approx(abs(a21 * a21) / abs(a21), rel=1e-15)
    assert fac.growth <= GROWTH_BOUND
    _, d_lapack, _ = scipy.linalg.ldl(M, lower=True, hermitian=False)
    assert d_lapack[1, 0] != 0.0    # LAPACK: one 2x2 pivot


def _loop_bk(M):
    """Column-by-column Bunch-Kaufman reference: same pivot rule, one
    trailing column updated per statement.  Returns (L, d, e, perm, tags,
    growth) in the packing of :class:`DenseFactor`."""
    W = np.array(M, dtype=complex)
    n = W.shape[0]
    perm = np.arange(n)
    tags = np.zeros(n, dtype=np.int8)
    growth = 1.0
    trail_max = np.abs(np.tril(W)).max()
    k = 0
    while k < n:
        kstep, kp = 1, k
        absakk = abs(W[k, k])
        imax = k + 1 + int(np.argmax(np.abs(W[k + 1:, k]))) if k + 1 < n else k
        colmax = abs(W[imax, k]) if imax > k else 0.0
        if absakk < BK_ALPHA * colmax:
            rowmax = max(np.abs(W[imax, k:imax]).max(),
                         np.abs(W[imax + 1:, imax]).max(initial=0.0))
            if absakk * rowmax >= BK_ALPHA * colmax * colmax:
                kp = k
            elif abs(W[imax, imax]) >= BK_ALPHA * rowmax:
                kp = imax
            else:
                kp, kstep = imax, 2
        kk = k + kstep - 1
        if kp != kk:
            # symmetric interchange on the full matrix, L rows included
            W[[kk, kp], :] = W[[kp, kk], :]
            W[:, [kk, kp]] = W[:, [kp, kk]]
            perm[[kk, kp]] = perm[[kp, kk]]
        kn = k + kstep
        D = W[k:kn, k:kn].copy()
        C = W[kn:, k:kn].copy()
        Lk = np.linalg.solve(D, C.T).T
        for j in range(kn, n):
            W[j:, j] -= C[j - kn:] @ Lk[j - kn]
            W[j, j + 1:] = W[j + 1:, j]
        W[kn:, k:kn] = Lk
        W[k:kn, kn:] = Lk.T
        tags[k] = kstep
        if kn < n:
            step_max = np.abs(np.tril(W[kn:, kn:])).max()
            if trail_max > 0.0:
                growth = max(growth, (step_max / trail_max) ** (1.0 / kstep))
            trail_max = step_max
        k = kn
    e = np.zeros(n, dtype=complex)
    s = np.flatnonzero(tags == 2)
    e[s] = W[s + 1, s]
    L = np.tril(W, -1)
    L[s + 1, s] = 0.0
    np.fill_diagonal(L, 1.0)
    return L, np.diagonal(W).copy(), e, perm, tags, growth


@pytest.mark.parametrize("seed", range(12))
def test_kernel_matches_column_loop_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    M = rand_complex_symmetric(n, 700 + seed)
    if seed % 2 == 0:
        # zero diagonal entries force 2x2 pivots
        idx = rng.integers(0, n, size=3)
        M[idx, idx] = 0.0
    fac = dense_ldlt_bk(M)
    L, d, e, perm, tags, growth = _loop_bk(M)
    assert np.array_equal(fac.perm, perm)
    assert np.array_equal(fac.tags, tags)
    assert fac.growth == pytest.approx(growth, rel=1e-12)
    tol = 1e-12 * np.abs(M).max()
    for got, ref in ((fac.L, L), (fac.d, d), (fac.e, e)):
        assert np.abs(got - ref).max() <= tol


@pytest.mark.parametrize("force_2x2", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_factor_reads_lower_triangle_only(seed, force_2x2):
    # Noise in the upper triangle that passes the 1e-12 symmetry gate must
    # not change a bit of the factor: the lower triangle is mirrored at entry.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    M = rand_complex_symmetric(n, 800 + seed)
    if force_2x2:
        M[np.diag_indices(n)] = 0.0
    P = M.copy()
    iu = np.triu_indices(n, 1)
    noise = rng.standard_normal(iu[0].size) + 1j * rng.standard_normal(iu[0].size)
    P[iu] *= 1.0 + 1e-14 * noise
    assert not np.array_equal(P, M)
    assert np.abs(P - P.T).max() <= 1e-12 * np.abs(P).max()
    ref, got = dense_ldlt_bk(M), dense_ldlt_bk(P)
    assert ref.n_2x2 > 0 or not force_2x2
    for name in ("perm", "tags", "L", "d", "e"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    assert got.growth == ref.growth


def test_solve_mixed_pivots_multi_rhs_matches_dense():
    rng = np.random.default_rng(13)
    n = 12
    M = rand_complex_symmetric(n, 13) + n * np.eye(n)
    for i, j in ((0, 5), (3, 8)):
        # a strongly coupled pair with zero diagonal forces a 2x2 pivot
        M[i, i] = M[j, j] = 0.0
        M[i, j] = M[j, i] = 3.0 * n
    fac = dense_ldlt_bk(M)
    assert fac.n_2x2 == 2 and 1 in fac.tags
    B = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
    B0 = B.copy()
    X = fac.solve(B)
    assert np.array_equal(B, B0)      # the BLAS solves work on a copy
    X_ref = np.linalg.solve(M, B)
    assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)


def test_growth_tracked_on_random_suite():
    for seed in range(30):
        M = rand_complex_symmetric(16, 100 + seed)
        fac = dense_ldlt_bk(M)
        assert 1.0 <= fac.growth <= GROWTH_BOUND


def test_zero_matrix_is_singular():
    with pytest.raises(SingularBlockError):
        dense_ldlt_bk(np.zeros((3, 3), dtype=complex))


def test_zero_column_is_singular():
    M = rand_complex_symmetric(6, 5)
    M[:, 2] = 0.0
    M[2, :] = 0.0
    with pytest.raises(SingularBlockError):
        dense_ldlt_bk(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (3, 1)])
def test_non_finite_entries_rejected(bad, where):
    M = rand_complex_symmetric(5, 11)
    M[where] = M[where[::-1]] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dense_ldlt_bk(M)


def test_pivot_tol_scales_with_matrix():
    M = np.diag([1.0, 1e-20]).astype(complex)
    with pytest.raises(SingularBlockError):
        dense_ldlt_bk(M, pivot_tol=1e-12)
    fac = dense_ldlt_bk(M, pivot_tol=1e-30)
    assert fac.d[1] == 1e-20


def test_empty_matrix():
    fac = dense_ldlt_bk(np.zeros((0, 0), dtype=complex))
    assert fac.n == 0
    assert fac.growth == 1.0 and fac.n_2x2 == 0 and fac.tags.size == 0
    out = fac.solve(np.zeros((0, 2), dtype=complex))
    assert out.shape == (0, 2)
    assert fac.solve(np.zeros(0, dtype=complex)).shape == (0,)


def test_one_by_one_matrix():
    fac = dense_ldlt_bk(np.array([[2.0 + 1.0j]]))
    assert np.array_equal(fac.L, np.ones((1, 1)))
    assert np.array_equal(fac.d, [2.0 + 1.0j])
    assert list(fac.tags) == [1] and list(fac.perm) == [0]
    assert fac.growth == 1.0 and fac.n_2x2 == 0
    assert fac.solve(np.array([4.0 + 2.0j])) == pytest.approx([2.0])
    with pytest.raises(SingularBlockError):
        dense_ldlt_bk(np.zeros((1, 1), dtype=complex))



@pytest.mark.parametrize("order", ["C", "F"])
def test_blas_matmul_matches_matmul(order):
    rng = np.random.default_rng(3)
    A = np.array(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)),
                 order=order)
    B = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.allclose(factor.blas_matmul(A, B), A @ B, rtol=1e-14, atol=0)
    assert np.allclose(factor.blas_matmul(A, B[:, 0])[:, 0], A @ B[:, 0],
                       rtol=1e-14, atol=0)
    assert np.array_equal(factor.blas_matmul(A[:, :0], B[:0]), np.zeros((5, 4)))


def test_rejects_unsymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not symmetric"):
        dense_ldlt_bk(M)


def test_negative_zeros_read_as_positive():
    # -0.0 entries factor like +0.0 ones, as in tril(M) + tril(M, -1).T;
    # the zero diagonal forces 2x2 pivots, which keep theirs in d
    M = rand_complex_symmetric(5, 13)
    M[np.diag_indices(5)] = complex(-0.0, -0.0)
    M[4, 1] = M[1, 4] = complex(-0.0, 0.0)
    S = np.tril(M) + np.tril(M, -1).T
    a, b = dense_ldlt_bk(M), dense_ldlt_bk(S)
    assert a.n_2x2 > 0
    for name in ("perm", "tags", "L", "d", "e"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.growth == b.growth


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        dense_ldlt_bk(np.ones((2, 3), dtype=complex))


def test_deterministic_bit_identical():
    M = rand_complex_symmetric(20, 9)
    a = dense_ldlt_bk(M)
    b = dense_ldlt_bk(M)
    assert np.array_equal(a.L, b.L)
    assert np.array_equal(a.d, b.d)
    assert np.array_equal(a.e, b.e)
    assert np.array_equal(a.perm, b.perm)


def test_solve_residual():
    rng = np.random.default_rng(11)
    M = rand_complex_symmetric(24, 11) + 24 * np.eye(24)
    fac = dense_ldlt_bk(M)
    b = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    x = fac.solve(b)
    assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_solve_multi_rhs_matches_dense():
    rng = np.random.default_rng(12)
    M = rand_complex_symmetric(18, 12) + 18 * np.eye(18)
    fac = dense_ldlt_bk(M)
    B = rng.standard_normal((18, 4)) + 1j * rng.standard_normal((18, 4))
    X = fac.solve(B)
    assert np.linalg.norm(M @ X - B) <= 1e-12 * np.linalg.norm(B)


def test_solve_shape_check():
    fac = dense_ldlt_bk(np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        fac.solve(np.ones(4, dtype=complex))


def test_2x2_pivots_never_cross_supernode_internally():
    # every 2x2 pivot occupies adjacent permuted positions
    for seed in range(8):
        M = rand_complex_symmetric(14, 40 + seed)
        M[0, 0] = M[5, 5] = 0.0
        fac = dense_ldlt_bk(M)
        k = 0
        while k < fac.n:
            if fac.tags[k] == 2:
                assert fac.tags[k + 1] == 0
                k += 2
            else:
                assert fac.tags[k] == 1
                k += 1
