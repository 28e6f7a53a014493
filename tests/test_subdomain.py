import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import zgbtrf, zgbtrs

from conftest import GEOMETRIES, dense_coupling, dense_matrix, graph_edges, \
    interfaces, subdomain_system
from ddsolve import blockmat, factor, mesh as mm, ordering, subdomain as sd, symbolic
from ddsolve.config import RunConfig
from ddsolve.driver import run_pipeline
from test_geometry_reference import tilings


def chain_mass(mesh, nodes):
    """Tridiagonal 1-D P1 mass matrix along an ordered node chain."""
    n = nodes.size
    M = np.zeros((n, n))
    for t in range(n - 1):
        h = mm.edge_lengths(mesh.nodes, nodes[None, t:t + 2])[0]
        M[t:t + 2, t:t + 2] += mm.edge_mass(h)
    return M


def pipeline(side, ppw, px, py, theta=0.3, alpha=None, dense=None):
    """The solver's stages on one geometry.  When ``dense`` is a list, each
    domain's A_d is densified into it before the reduce factors the band in
    place."""
    cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py,
                           theta_inc=theta, alpha=alpha)
    m = mm.build_rect_mesh(side, ppw)
    part = mm.partition_mesh(m, px, py)
    systems = sd.build_subdomain_systems(m, part, cfg)
    if dense is not None:
        dense.extend(dense_matrix(s) for s in systems)
    reduced = [sd.reduce_domain(s) for s in systems]
    rsys = sd.assemble_reduced(reduced, part)
    g = blockmat.clique_graph(rsys.K)
    order = ordering.reorder(g, rsys.K.sizes)
    plan = symbolic.symbolic_factor(g, order, rsys.K.sizes)
    F = factor.block_ldlt(rsys.K, plan)
    lam = factor.block_solve(F, rsys.g)
    sol = sd.recover_primal(systems, lam)
    return cfg, m, part, systems, rsys, lam, sol


class TestBuildSystems:
    def test_single_domain_matches_monolithic(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 1, 1)
        (sys,) = sd.build_subdomain_systems(m, part, cfg)
        A, f = mm.assemble_helmholtz(m, cfg)
        assert sys.couplings == []
        assert np.abs(dense_matrix(sys) - A.toarray()).max() < 1e-14
        assert np.array_equal(sys.f, f)

    def test_two_domain_interface_terms_cancel_to_monolithic(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 1)
        systems = sd.build_subdomain_systems(m, part, cfg)
        A = mm.assemble_helmholtz(m, cfg)[0].toarray()
        acc = np.zeros_like(A)
        for s in systems:
            As = dense_matrix(s)
            for c in s.couplings:
                itf = interfaces(part)[c.interface]
                Mg = chain_mass(m, itf.nodes)
                rows = np.searchsorted(s.dof_map, itf.nodes)
                As[np.ix_(rows, rows)] -= (c.sign * cfg.alpha) * Mg
            acc[np.ix_(s.dof_map, s.dof_map)] += As
        # on shared nodes both domains contribute, interior rows once
        assert np.abs(acc - A).max() < 1e-13 * np.abs(A).max()

    def test_coupling_block_is_signed_chain_mass(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 1)
        systems = sd.build_subdomain_systems(m, part, cfg)
        (itf,) = interfaces(part)
        h = 1.0 / mm.grid_intervals(1.0, 10)
        n = itf.nodes.size
        Mg = np.zeros((n, n))
        for t in range(n - 1):
            Mg[t:t + 2, t:t + 2] += mm.edge_mass(h)
        for s in systems:
            c = s.couplings[0]
            rows = np.searchsorted(s.dof_map, itf.nodes)
            assert np.array_equal(s.interface_rows, np.sort(rows))
            D = dense_coupling(s, c)
            assert np.abs(D[rows, :] - c.sign * Mg).max() < 1e-14
            # rows away from the interface are zero
            other = np.setdiff1d(np.arange(s.n_dofs), rows)
            assert np.abs(D[other, :]).max() == 0.0

    def test_signs_follow_domain_order(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2, py=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 2)
        systems = sd.build_subdomain_systems(m, part, cfg)
        for s in systems:
            for c in s.couplings:
                dom_lo = part.ends[c.interface, 0]
                assert c.sign == (1 if dom_lo == s.domain else -1)

    def test_subdomain_matrices_symmetric(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2, py=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 2)
        for s in sd.build_subdomain_systems(m, part, cfg):
            A = dense_matrix(s)
            assert np.abs(A - A.T).max() == 0.0


class TestLambdaSpace:
    def test_interior_cross_point_drops_one_dof(self):
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 2)
        assert part.chain_nodes.size - part.n_kept.sum() == 1
        # the dropped dof sits at the shared center node of the last interface
        itfs = interfaces(part)
        center = set(itfs[0].nodes.tolist())
        for itf in itfs[1:]:
            center &= set(itf.nodes.tolist())
        (c,) = center
        assert c in itfs[3].nodes
        chain = slice(part.chain_start[3], part.chain_start[4])
        assert c not in part.chain_nodes[chain][part.kept[chain]]

    def test_drop_count_matches_cross_points(self):
        m = mm.build_rect_mesh(2.0, 16)
        part = mm.partition_mesh(m, 4, 4)
        dropped = part.chain_nodes.size - part.n_kept.sum()
        assert dropped == 9  # (4-1) x (4-1) interior cross points

    def test_duplicated_space_would_be_singular(self):
        # keeping every duplicated cross-point dof leaves an exact null
        # vector in K; the drop rule removes it
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2, py=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 2)
        systems = sd.build_subdomain_systems(m, part, cfg)
        reduced = [sd.reduce_domain(s) for s in systems]
        rsys = sd.assemble_reduced(reduced, part)
        S = rsys.K.scatter()
        sv = np.linalg.svd(S, compute_uv=False)
        assert sv[-1] / sv[0] > 1e-8  # far from singular with the drop rule


class TestReduceDomain:
    def test_diagonal_example(self):
        sys = subdomain_system(0, np.diag([2.0, 2.0]), np.zeros(2),
                               [(0, np.array([[1.0], [1.0]]), 1)])
        K_D, g_d = sd.reduce_domain(sys)
        assert K_D.shape == (1, 1)
        assert K_D[0, 0] == pytest.approx(1.0)
        assert g_d[0] == 0.0

    def test_zero_load_gives_zero_g(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 1)
        systems = sd.build_subdomain_systems(m, part, cfg)
        systems[0].f = np.zeros_like(systems[0].f)
        _, g_d = sd.reduce_domain(systems[0])
        assert np.abs(g_d).max() == 0.0

    def test_random_domain_against_explicit_inverse(self):
        rng = np.random.default_rng(8)
        n, nl = 20, 5
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (G + G.T) / 2 + (2 * n) * np.eye(n)
        D = rng.standard_normal((n, nl)) + 1j * rng.standard_normal((n, nl))
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sys = subdomain_system(0, A, f, [(0, D, 1)])
        K_D, g_d = sd.reduce_domain(sys)
        Ainv = np.linalg.inv(A)
        K_ref = D.T @ Ainv @ D
        assert np.abs(K_D - K_D.T).max() <= 1e-14 * np.abs(K_D).max()
        assert np.abs(K_D - K_ref).max() <= 1e-12 * np.abs(K_ref).max()
        assert np.abs(g_d - D.T @ (Ainv @ f)).max() <= \
            1e-12 * np.abs(g_d).max()

    def test_singular_domain_error_names_domain(self):
        sys = subdomain_system(3, np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(sd.SingularDomainError, match="domain 3"):
            sd.reduce_domain(sys)

    def test_factor_cached_for_recovery(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 1)
        systems = sd.build_subdomain_systems(m, part, cfg)
        assert systems[0].piv is None
        sd.reduce_domain(systems[0])
        assert systems[0].piv.shape == (systems[0].n_dofs,)

    def test_second_reduce_rejected(self):
        # A holds the LU after the first reduce; eliminating it again would
        # treat the factors as A_d
        s = subdomain_system(4, 4.0 * np.eye(3) + 1.0, np.ones(3),
                             [(0, np.array([[1.0], [0.0], [0.0]]), 1)])
        sd.reduce_domain(s)
        lu = s.A.copy()
        with pytest.raises(sd.SolverStateError, match="domain 4 is already reduced"):
            sd.reduce_domain(s)
        assert s.A.tobytes() == lu.tobytes()

    def test_reduce_after_a_singular_domain_rejected(self):
        # zgbtrf overwrote A_d before the pivot test failed, so a retry
        # would eliminate the failed LU as if it were A_d.  U's last pivot
        # is 1e-13 of max|A_d|, and K_D = 1 / 1e-13.
        def nearly_singular():
            A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
            return subdomain_system(6, A, np.ones(2), [(0, np.array([[0.0], [1.0]]), 1)])

        s = nearly_singular()
        with pytest.raises(sd.SingularDomainError, match="domain 6"):
            sd.reduce_domain(s, pivot_tol=1e-12)
        assert s.A is None and s.piv is None
        with pytest.raises(sd.SolverStateError, match="domain 6 has no A_d"):
            sd.reduce_domain(s, pivot_tol=0.0)
        assert s.A is None and s.piv is None
        with pytest.raises(sd.SolverStateError, match="domain 6 has no cached"):
            sd.recover_primal([s], np.zeros(1))
        K_D, _ = sd.reduce_domain(nearly_singular(), pivot_tol=0.0)
        assert abs(K_D[0, 0] - 1e13) <= 1e-3 * 1e13

    @staticmethod
    def _bare(A):
        A = np.asarray(A, dtype=complex)
        return subdomain_system(5, A, np.ones(A.shape[0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_matrix_rejected(self, bad):
        A = 4.0 * np.eye(3, dtype=complex)
        A[1, 2] = A[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sd.reduce_domain(self._bare(A))

    def test_rank_deficient_matrix_is_singular(self):
        # rank 3 of 6, and no entry of A is zero: only rounding is left in
        # the trailing block after three elimination steps
        rng = np.random.default_rng(3)
        V = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        A = V @ V.T
        assert np.abs(A).min() > 0.0
        with pytest.raises(sd.SingularDomainError, match="domain 5"):
            sd.reduce_domain(self._bare(A))

    def test_pivot_tol_honoured(self):
        A = np.diag([1.0, 1e-14])
        with pytest.raises(sd.SingularDomainError):
            sd.reduce_domain(self._bare(A), pivot_tol=1e-12)
        s = self._bare(A)
        sd.reduce_domain(s, pivot_tol=1e-16)
        assert np.allclose(s.solve(s.f), [1.0, 1e14], rtol=1e-15)

    def test_exactly_singular_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", LinAlgWarning)
            with pytest.raises(sd.SingularDomainError, match="domain 5"):
                sd.reduce_domain(self._bare(np.zeros((2, 2))))
            with pytest.raises(sd.SingularDomainError):
                sd.reduce_domain(self._bare([[1.0, 2.0], [2.0, 4.0]]), pivot_tol=0.0)

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_matches_dense_solve_on_benchmark_geometries(self, name):
        side, ppw, tiles = GEOMETRIES[name]
        cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=tiles, py=tiles,
                               theta_inc=0.3)
        m = mm.build_rect_mesh(side, ppw)
        part = mm.partition_mesh(m, tiles, tiles)
        for s in sd.build_subdomain_systems(m, part, cfg):
            A = dense_matrix(s)
            K_D, g_d = sd.reduce_domain(s)
            D = np.concatenate([dense_coupling(s, c) for c in s.couplings], axis=1)
            X = np.linalg.solve(A, np.concatenate([D, s.f[:, None]], axis=1))
            K_ref, g_ref = D.T @ X[:, :-1], D.T @ X[:, -1]
            assert np.abs(K_D - K_ref).max() <= 1e-12 * np.abs(K_ref).max()
            assert np.abs(g_d - g_ref).max() <= 1e-12 * np.abs(g_ref).max()


class TestBandStorage:
    def test_build_and_reduce_hold_less_than_dense_matrices(self):
        # 256-dof domains: build plus reduce must stay below the bytes of
        # the dense A_d alone, so a dense n_d x n_d array cannot come back
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=30, px=2, py=2, theta_inc=0.3)
        m = mm.build_rect_mesh(1.0, 30)
        part = mm.partition_mesh(m, 2, 2)
        tracemalloc.start()
        try:
            systems = sd.build_subdomain_systems(m, part, cfg)
            for s in systems:
                sd.reduce_domain(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert min(s.n_dofs for s in systems) >= 256
        assert peak < 16 * sum(s.n_dofs ** 2 for s in systems)

    def test_assemble_reduced_holds_little_beyond_k_and_g(self):
        # Schur blocks move whole, so the stage's traced peak stays within a
        # small multiple of what it returns: about 1.7x here, where an index
        # array per entry of every K_D takes about 11x
        cfg = mm.ProblemConfig(side_lambda=2.0, ppw=20, px=4, py=4, theta_inc=0.3)
        m = mm.build_rect_mesh(2.0, 20)
        part = mm.partition_mesh(m, 4, 4)
        systems = sd.build_subdomain_systems(m, part, cfg)
        reduced = [sd.reduce_domain(s) for s in systems]
        tracemalloc.start()
        try:
            rsys = sd.assemble_reduced(reduced, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(b.nbytes for b in rsys.K.blocks.values()) + rsys.g.nbytes
        assert peak < 3 * held

    def test_reduce_factors_the_band_in_place(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2, py=2, theta_inc=0.3)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 2)
        for s in sd.build_subdomain_systems(m, part, cfg):
            band = s.A
            sd.reduce_domain(s)
            assert np.shares_memory(s.A, band)
        # a C-ordered band is copied by f2py, and A is then that copy
        s = subdomain_system(0, 4.0 * np.eye(3) + 1.0, np.ones(3))
        band = s.A = np.ascontiguousarray(s.A)
        sd.reduce_domain(s)
        assert s.A.flags.f_contiguous and not np.shares_memory(s.A, band)

    @pytest.mark.parametrize("side,ppw,tiles,copied", [(2.0, 10, 4, True),
                                                       (1.0, 22, 2, False)])
    def test_class_lus_free_the_build_buffer(self, side, ppw, tiles, copied):
        # the build allocates every band in one buffer; with fewer tile
        # classes than domains (9 of 16) each class's LU is copied out of it,
        # so the buffer is freed, and with one class per domain (4 of 4) the
        # LUs would fill it, so each stays where it was factored
        cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=tiles, py=tiles,
                               theta_inc=0.3)
        m = mm.build_rect_mesh(side, ppw)
        part = mm.partition_mesh(m, tiles, tiles)
        systems = sd.build_subdomain_systems(m, part, cfg)
        root = systems[0].A
        while root.base is not None:
            root = root.base
        assert all(np.shares_memory(s.A, root) for s in systems)
        buffer = weakref.ref(root)
        del root
        n_classes = sd.reduce_domains(systems)[1]
        assert (n_classes < len(systems)) is copied
        if copied:
            assert all(s.A.flags.f_contiguous and s.A.base is None for s in systems)
            assert buffer() is None
        else:
            assert all(np.shares_memory(s.A, buffer()) for s in systems)

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_reduce_is_zgbtrf_on_a_copy_byte_for_byte(self, name):
        side, ppw, tiles = GEOMETRIES[name]
        cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=tiles, py=tiles,
                               theta_inc=0.3)
        m = mm.build_rect_mesh(side, ppw)
        part = mm.partition_mesh(m, tiles, tiles)
        for s in sd.build_subdomain_systems(m, part, cfg):
            kl, rows, m_lam = s.kl, s.interface_rows, s.D.shape[1]
            lu, piv, info = zgbtrf(s.A.copy(order="F"), kl, kl)
            rhs = np.zeros((s.n_dofs, m_lam + 1), dtype=np.complex128, order="F")
            rhs[rows, :m_lam] = s.D
            rhs[:, m_lam] = s.f
            X, _ = zgbtrs(lu, kl, kl, rhs, piv)
            KG = factor.blas_matmul(s.D.T, X[rows])
            K_D, g_d = sd.reduce_domain(s)
            assert info == 0
            assert s.A.tobytes() == lu.tobytes()
            assert s.piv.tobytes() == piv.tobytes()
            assert K_D.tobytes() == (0.5 * (KG[:, :-1] + KG[:, :-1].T)).tobytes()
            # a zero load takes its solve column too, whose -0.0 adds into
            # g as +0.0 does
            assert g_d.tobytes() == KG[:, -1].tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_reduce_is_keyword_zgbsv(self, seed):
        # reduce_domain passes zgbsv's flags by position; on a random band
        # system it gives the keyword call's LU, pivots and solution bit for
        # bit
        rng = np.random.default_rng(seed)
        n, kl = 9, 2
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = np.triu(np.tril(G + G.T, kl), -kl)
        D = np.zeros((n, 3), dtype=np.complex128)
        D[[1, 4, 7]] = rng.standard_normal((3, 3))
        s = subdomain_system(0, A, rng.standard_normal(n) + 0j, [(0, D, 1)])
        rows = s.interface_rows
        rhs = np.zeros((n, 4), dtype=np.complex128, order="F")
        rhs[rows, :3] = s.D
        rhs[:, 3] = s.f
        lu, piv, X, info = sd.zgbsv(kl, kl, s.A.copy(order="F"), rhs,
                                    overwrite_ab=1, overwrite_b=1)
        KG = factor.blas_matmul(s.D.T, X[rows])
        K_D, g_d = sd.reduce_domain(s)
        assert info == 0 and s.kl == kl
        assert s.A.tobytes() == lu.tobytes()
        assert s.piv.tobytes() == piv.tobytes()
        assert K_D.tobytes() == (0.5 * (KG[:, :-1] + KG[:, :-1].T)).tobytes()
        assert g_d.tobytes() == KG[:, -1].tobytes()

    def test_reduce_keeps_no_second_band(self):
        # after the reduce a domain holds its band buffer, now the LU, and
        # its pivots: about 0.02 of the band bytes beyond K_D and g_d here,
        # where a second band per domain holds about 1.0
        cfg = mm.ProblemConfig(side_lambda=2.0, ppw=20, px=4, py=4, theta_inc=0.3)
        m = mm.build_rect_mesh(2.0, 20)
        part = mm.partition_mesh(m, 4, 4)
        systems = sd.build_subdomain_systems(m, part, cfg)
        band = sum(s.A.nbytes for s in systems)
        tracemalloc.start()
        try:
            reduced = [sd.reduce_domain(s) for s in systems]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        returned = sum(K_D.nbytes + g_d.nbytes for K_D, g_d in reduced)
        assert held - returned < 0.25 * band

    def test_bandwidth_reads_all_three_corners(self):
        # in the grid's own corner order an upper triangle's corners 0 and 1
        # already span its nodes; rolled one place (same triangle, same
        # orientation) its highest node is corner 2, as in every lower one
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 2)
        tris = m.tris.copy()
        tris[1::2] = np.roll(tris[1::2], 1, axis=1)
        assert (tris.argmax(axis=1) == 2).all()
        rolled = mm.Mesh(m.nodes, tris, m.boundary_edges, m.boundary_owner)
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2, py=2)
        for s in sd.build_subdomain_systems(rolled, part, cfg):
            loc = np.searchsorted(s.dof_map, tris[part.domain_of_elem == s.domain])
            assert s.kl == (loc.max(axis=1) - loc.min(axis=1)).max()

    def test_factor_is_band_lu(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=22, px=2, py=2, theta_inc=0.3)
        m = mm.build_rect_mesh(1.0, 22)
        part = mm.partition_mesh(m, 2, 2)
        for s in sd.build_subdomain_systems(m, part, cfg):
            A = dense_matrix(s)
            sd.reduce_domain(s)
            assert 3 * s.kl + 1 < s.n_dofs
            rhs = np.arange(s.n_dofs) + 1j
            x = s.solve(rhs)
            assert np.abs(A @ x - rhs).max() <= 1e-12 * np.abs(rhs).max()


def _tile(domain, f, band_delta=0.0, D=((1.0,), (0.0,), (0.5,))):
    """A 3-dof domain; ``band_delta`` is added to its A_d[1, 1] in the band
    buffer, after the build, so that only the band differs."""
    s = subdomain_system(domain, 4.0 * np.eye(3) + 1.0, f,
                         [(0, np.array(D, dtype=complex), 1)])
    s.A[2 * s.kl, 1] += band_delta
    return s


class TestTileClasses:
    def test_equal_keys_with_one_differing_band_entry_are_two_classes(self):
        systems = [_tile(0, np.ones(3)), _tile(1, np.ones(3), band_delta=1e-12),
                   _tile(2, np.zeros(3)), _tile(3, np.ones(3), D=((1.0,), (0.0,), (0.25,)))]
        # one key (shapes, interface rows); 1 differs in a band entry, 3 in D
        key = [(s.A.shape, s.D.shape, s.interface_rows.tobytes()) for s in systems]
        assert key[0] == key[1] == key[2] == key[3]
        assert systems[0].D.tobytes() == systems[1].D.tobytes() != systems[3].D.tobytes()
        assert sd.tile_classes(systems) == [[0, 2], [1], [3]]

    def test_classes_follow_the_tile_grid(self):
        # interior tiles of one kind share a class; a tiling whose tiles do
        # not divide the grid (91 intervals over 5 tiles) repeats none
        for (side, ppw, tiles), want in [((2.4, 10, 12), 9), ((2.0, 10, 4), 9),
                                         ((1.0, 22, 2), 4), ((7.0, 13, 5), 25)]:
            cfg = mm.ProblemConfig(side, ppw, tiles, tiles)
            m = mm.build_rect_mesh(side, ppw)
            systems = sd.build_subdomain_systems(m, mm.partition_mesh(m, tiles, tiles), cfg)
            classes = sd.tile_classes(systems)
            assert len(classes) == want, (side, ppw, tiles)
            assert sorted(i for c in classes for i in c) == list(range(len(systems)))
            assert [c[0] for c in classes] == sorted(c[0] for c in classes)

    def test_a_class_shares_one_lu_and_takes_one_load_column_per_member(self, monkeypatch):
        systems = [_tile(0, np.ones(3)), _tile(1, np.zeros(3)), _tile(2, [1.0, 2.0, 0.5j])]
        alone = [sd.reduce_domain(_tile(s.domain, s.f)) for s in systems]
        widths, zgbsv = [], sd.zgbsv

        def counted_zgbsv(kl, ku, ab, b, *flags):
            widths.append(b.shape[1])
            return zgbsv(kl, ku, ab, b, *flags)

        monkeypatch.setattr(sd, "zgbsv", counted_zgbsv)
        reduced, n_classes = sd.reduce_domains(systems)
        assert n_classes == 1
        assert widths == [1 + 3]        # D's column and every member's load
        assert all(s.A is systems[0].A and s.piv is systems[0].piv for s in systems)
        for (K_D, g_d), (K_ref, g_ref) in zip(reduced, alone):
            assert K_D.tobytes() == K_ref.tobytes()
            assert g_d.tobytes() == g_ref.tobytes()
        # the zero load's g_d may hold -0.0, which adds into g's +0.0 as +0.0
        zero = np.zeros(1, dtype=complex)
        assert (zero + reduced[1][1]).tobytes() == zero.tobytes()
        # recovery solves the class in one call, column by column bit for bit
        lam = np.array([0.3 - 0.7j])
        one = [_tile(s.domain, s.f) for s in systems]
        for s in one:
            sd.reduce_domain(s)
        for s, t in zip(systems, one):
            s.dof_map = t.dof_map = np.arange(3) + 3 * s.domain
        assert sd.recover_primal(systems, lam).tobytes() == \
            sd.recover_primal(one, lam).tobytes()

    def test_a_singular_class_raises_for_its_first_member(self):
        def singular(domain):
            return subdomain_system(domain, np.ones((2, 2)), np.ones(2))

        good = subdomain_system(0, 2.0 * np.eye(2), np.ones(2))
        systems = [good, singular(3), singular(5)]
        with pytest.raises(sd.SingularDomainError, match="domain 3"):
            sd.reduce_domains(systems)
        assert good.piv is not None
        assert systems[1].A is None
        # the other member still holds its A_d, unfactored
        assert systems[2].piv is None and systems[2].A is not None


class TestAssembleReduced:
    def test_single_interface_sums_two_domains(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 1)
        systems = sd.build_subdomain_systems(m, part, cfg)
        reduced = [sd.reduce_domain(s) for s in systems]
        rsys = sd.assemble_reduced(reduced, part)
        assert rsys.K.nblocks == 1
        expect = reduced[0][0] + reduced[1][0]
        assert np.abs(rsys.K.blocks[(0, 0)] - expect).max() == 0.0
        assert np.abs(rsys.g - (reduced[0][1] + reduced[1][1])).max() == 0.0

    def test_two_by_two_is_four_cycle(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2, py=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 2)
        systems = sd.build_subdomain_systems(m, part, cfg)
        reduced = [sd.reduce_domain(s) for s in systems]
        rsys = sd.assemble_reduced(reduced, part)
        g = blockmat.clique_graph(rsys.K)
        # oracle: interfaces adjacent iff they share a domain
        expect = set()
        ends = part.ends.tolist()
        for i, a in enumerate(ends):
            for j, b in enumerate(ends):
                if j < i and set(a) & set(b):
                    expect.add((j, i))
        assert set(graph_edges(g)) == expect
        assert all(len(g[v]) == 2 for v in range(4))

    def test_block_symmetry_of_reduced_matrix(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=12, px=2, py=2)
        m = mm.build_rect_mesh(1.0, 12)
        part = mm.partition_mesh(m, 2, 2)
        systems = sd.build_subdomain_systems(m, part, cfg)
        rsys = sd.assemble_reduced([sd.reduce_domain(s) for s in systems], part)
        scale = max(np.abs(b).max() for b in rsys.K.blocks.values())
        for (i, j), blk in rsys.K.blocks.items():
            if i == j:
                assert np.abs(blk - blk.T).max() <= 1e-14 * scale

    def test_matches_dense_saddle_elimination_oracle(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2, py=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 2)
        systems = sd.build_subdomain_systems(m, part, cfg)
        dense = [dense_matrix(s) for s in systems]
        reduced = [sd.reduce_domain(s) for s in systems]
        rsys = sd.assemble_reduced(reduced, part)
        off = rsys.K.offsets()
        nlam = int(off[-1])
        K_oracle = np.zeros((nlam, nlam), dtype=complex)
        g_oracle = np.zeros(nlam, dtype=complex)
        for s, A in zip(systems, dense):
            D = np.zeros((s.n_dofs, nlam), dtype=complex)
            for c in s.couplings:
                D[:, off[c.interface]:off[c.interface + 1]] = dense_coupling(s, c)
            X = np.linalg.solve(A,
                                np.concatenate([D, s.f[:, None]], axis=1))
            K_oracle += D.T @ X[:, :-1]
            g_oracle += D.T @ X[:, -1]
        S = rsys.K.scatter()
        assert np.abs(S - K_oracle).max() <= 1e-11 * np.abs(K_oracle).max()
        assert np.abs(rsys.g - g_oracle).max() <= 1e-11 * np.abs(g_oracle).max()

    def test_size_mismatch_detected(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 1)
        systems = sd.build_subdomain_systems(m, part, cfg)
        reduced = [sd.reduce_domain(s) for s in systems]
        bad = (reduced[0][0][:-1, :-1], reduced[0][1][:-1])
        with pytest.raises(ValueError, match="domain 0"):
            sd.assemble_reduced([bad, reduced[1]], part)


    def test_wrong_domain_count_rejected(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2, py=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 2)
        reduced = [sd.reduce_domain(s)
                   for s in sd.build_subdomain_systems(m, part, cfg)]
        for wrong in (reduced[:3], reduced + reduced[:1]):
            with pytest.raises(ValueError, match="partition has 4"):
                sd.assemble_reduced(wrong, part)


class TestEndToEnd:
    def test_lambda_zero_is_uncoupled_solve(self):
        cfg, m, part, systems, rsys, lam, sol = pipeline(1.0, 10, 2, 2)
        u0 = sd.recover_primal(systems, np.zeros_like(lam))
        for s in systems:
            ref = s.solve(s.f)
            itf_nodes = np.unique(part.chain_nodes)
            interior = np.setdiff1d(s.dof_map, itf_nodes)
            sel = np.searchsorted(s.dof_map, interior)
            assert np.abs(u0[interior] - ref[sel]).max() < 1e-12

    @pytest.mark.parametrize("side,ppw,px,py", [
        (1.0, 10, 2, 2),
        (2.0, 15, 2, 2),
        (2.0, 15, 4, 4),   # staircase tiling
        (1.0, 12, 3, 2),
    ])
    def test_full_pipeline_matches_monolithic(self, side, ppw, px, py):
        cfg, m, part, systems, rsys, lam, sol = pipeline(side, ppw, px, py)
        A, f = mm.assemble_helmholtz(m, cfg)
        u_ref = spla.spsolve(A.tocsc(), f)
        rel = np.linalg.norm(sol - u_ref) / np.linalg.norm(u_ref)
        assert rel <= 1e-8
        assert sd.global_residual(m, cfg, sol) <= 1e-10

    def test_interface_values_agree_before_averaging(self):
        cfg, m, part, systems, rsys, lam, sol = pipeline(2.0, 15, 2, 2)
        lam = np.split(lam, rsys.K.offsets()[1:-1])
        seen = {}
        maxdiff = 0.0
        scale = 0.0
        for s in systems:
            rhs = s.f.copy()
            for c in s.couplings:
                if c.D.shape[1]:
                    rhs -= dense_coupling(s, c) @ lam[c.interface]
            E = s.solve(rhs)
            scale = max(scale, np.abs(E).max())
            for ln, gn in enumerate(s.dof_map):
                if gn in seen:
                    maxdiff = max(maxdiff, abs(seen[gn] - E[ln]))
                else:
                    seen[gn] = E[ln]
        assert maxdiff <= 1e-8 * scale

    def test_saddle_consistency_for_arbitrary_lambda(self):
        dense = []
        cfg, m, part, systems, rsys, lam, sol = pipeline(1.0, 10, 2, 2, dense=dense)
        rng = np.random.default_rng(0)
        lam_r = np.split(rng.standard_normal(lam.size) + 1j * rng.standard_normal(lam.size),
                         rsys.K.offsets()[1:-1])
        for s, A in zip(systems, dense):
            rhs = s.f.copy()
            for c in s.couplings:
                rhs -= dense_coupling(s, c) @ lam_r[c.interface]
            E = s.solve(rhs)
            lhs = A @ E + sum(dense_coupling(s, c) @ lam_r[c.interface]
                                            for c in s.couplings)
            assert np.linalg.norm(lhs - s.f) <= 1e-12 * np.linalg.norm(s.f)

    def test_constraint_row_at_solution(self):
        cfg, m, part, systems, rsys, lam, sol = pipeline(1.0, 12, 2, 2)
        off = rsys.K.offsets()
        total = np.zeros(lam.size, dtype=complex)
        e_norm = 0.0
        for s in systems:
            rhs = s.f.copy()
            for c in s.couplings:
                rhs -= dense_coupling(s, c) @ lam[off[c.interface]:off[c.interface + 1]]
            E = s.solve(rhs)
            e_norm = max(e_norm, np.linalg.norm(E))
            for c in s.couplings:
                total[off[c.interface]:off[c.interface + 1]] += dense_coupling(s, c).T @ E
        assert np.linalg.norm(total) <= 1e-10 * e_norm

    def test_solution_also_lives_on_lambda(self):
        cfg, m, part, systems, rsys, lam, sol = pipeline(1.0, 10, 2, 2)
        assert rsys.n_lambda == lam.shape[0] == rsys.K.order

    def test_lambda_matches_dense_saddle_solve(self):
        # oracle: eliminate nothing, solve the full [[A, D], [D^T, 0]]
        # saddle system densely and compare the multiplier part
        dense = []
        cfg, m, part, systems, rsys, lam, sol = pipeline(2.0, 15, 2, 2, dense=dense)
        off = rsys.K.offsets()
        nlam = int(off[-1])
        doms_off = np.zeros(len(systems) + 1, dtype=int)
        np.cumsum([s.n_dofs for s in systems], out=doms_off[1:])
        n_primal = int(doms_off[-1])
        n = n_primal + nlam
        S = np.zeros((n, n), dtype=complex)
        rhs = np.zeros(n, dtype=complex)
        for d, s in enumerate(systems):
            sl = slice(doms_off[d], doms_off[d + 1])
            S[sl, sl] = dense[d]
            rhs[sl] = s.f
            for c in s.couplings:
                cl = slice(n_primal + off[c.interface],
                           n_primal + off[c.interface + 1])
                S[sl, cl] = dense_coupling(s, c)
                S[cl, sl] = dense_coupling(s, c).T
        x = np.linalg.solve(S, rhs)
        lam_ref = x[n_primal:]
        rel = np.linalg.norm(lam - lam_ref) / np.linalg.norm(lam_ref)
        assert rel <= 1e-9

    def test_recover_requires_factorization(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2)
        m = mm.build_rect_mesh(1.0, 10)
        part = mm.partition_mesh(m, 2, 1)
        systems = sd.build_subdomain_systems(m, part, cfg)
        lam = np.zeros(part.n_kept.sum(), dtype=complex)
        with pytest.raises(sd.SolverStateError):
            sd.recover_primal(systems, lam)


class TestInteriorResonance:
    @pytest.mark.parametrize("px,py", [(2, 1), (2, 2)])
    def test_factorization_survives_subdomain_resonance(self, px, py):
        # square subdomain side chosen so k hits its first interior
        # Dirichlet eigenvalue exactly; the complex interface and absorbing
        # terms keep every A_d invertible
        side = float(np.sqrt(px ** 2 + py ** 2) / 2.0)
        cfg, m, part, systems, rsys, lam, sol = pipeline(side, 14, px, py)
        A, f = mm.assemble_helmholtz(m, cfg)
        u_ref = spla.spsolve(A.tocsc(), f)
        rel = np.linalg.norm(sol - u_ref) / np.linalg.norm(u_ref)
        assert rel <= 1e-8


class TestGlobalResidual:
    def setup_method(self):
        self.cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10)
        self.mesh = mm.build_rect_mesh(1.0, 10)

    def test_exact_solution_residual(self):
        A, f = mm.assemble_helmholtz(self.mesh, self.cfg)
        u = spla.spsolve(A.tocsc(), f)
        assert sd.global_residual(self.mesh, self.cfg, u) <= 1e-13

    def test_zero_solution_residual_is_one(self):
        u = np.zeros(self.mesh.n_nodes, dtype=complex)
        assert sd.global_residual(self.mesh, self.cfg, u) == pytest.approx(1.0)

    def test_size_mismatch(self):
        assert self.mesh.n_nodes == 121
        for shape in [(3,), (0,), (122,), (121, 1), (1, 121)]:
            with pytest.raises(ValueError, match="shape"):
                sd.global_residual(self.mesh, self.cfg, np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_matches_csr_product(self, name):
        side, ppw, _ = GEOMETRIES[name]
        assert_residual_matches_csr(side, ppw, theta=0.3)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(tilings())
    def test_matches_csr_product_on_tilings(self, tiling):
        side, ppw, _, _ = tiling
        assert_residual_matches_csr(side, ppw, theta=1.1)

    def test_holds_no_monolithic_matrix(self):
        # the element-by-element product must peak well below the CSR
        # assembly it replaced (a 2,025-node mesh)
        cfg = mm.ProblemConfig(side_lambda=2.2, ppw=20)
        m = mm.build_rect_mesh(2.2, 20)
        u = np.random.default_rng(3).standard_normal(m.n_nodes) + 0j
        assert m.n_nodes == 2025
        peaks = []
        for call in (lambda: mm.assemble_helmholtz(m, cfg),
                     lambda: sd.global_residual(m, cfg, u)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 0.5 * peaks[0]

    def test_pipeline_assembles_no_monolithic_matrix(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("monolithic CSR assembly")

        monkeypatch.setattr(mm, "_dedup_sum", forbidden)
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=10, px=2, py=2)
        assert run_pipeline(RunConfig(cfg)).report.residual_inf <= 1e-10


def assert_residual_matches_csr(side, ppw, theta):
    """The element-by-element residual of a random non-solution equals
    ``|A u - f|_inf / |f|_inf`` with A from the CSR assembly, to rounding."""
    cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, theta_inc=theta)
    m = mm.build_rect_mesh(side, ppw)
    A, f = mm.assemble_helmholtz(m, cfg)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(m.n_nodes) + 1j * rng.standard_normal(m.n_nodes)
    ref = np.abs(A @ u - f).max() / np.abs(f).max()
    assert ref > 0.1
    assert abs(sd.global_residual(m, cfg, u) - ref) <= 1e-12 * ref


def test_partition_graph_links_interfaces_without_multipliers():
    # interface 1 keeps no multiplier, yet the Schur blocks of both its
    # domains couple it to the other interfaces there, as K's empty blocks do
    part = SimpleNamespace(n_domains=2, incident=np.array([0, 1, 1, 2]),
                           incident_start=np.array([0, 2, 4]),
                           slot_domain=np.array([0, 0, 1, 1]),
                           n_kept=np.array([3, 0, 2]),
                           lam_start=np.array([0, 3, 5]),
                           lam_index=np.arange(5))
    reduced = [(np.eye(n, dtype=complex), np.zeros(n, dtype=complex)) for n in (3, 2)]
    K = sd.assemble_reduced(reduced, part).K
    assert mm.partition_graph(part) == blockmat.clique_graph(K) == [{1}, {0, 2}, {1}]
