import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgWarning

from conftest import GEOMETRIES, dense_coupling, dense_matrix, interfaces, \
    subdomain_system
from ddsolve import blockmat, factor, mesh as mm, ordering, subdomain as sd, symbolic


def chain_mass(mesh, nodes):
    """Tridiagonal 1-D P1 mass matrix along an ordered node chain."""
    n = nodes.size
    M = np.zeros((n, n))
    for t in range(n - 1):
        h = mm.edge_lengths(mesh.nodes, nodes[None, t:t + 2])[0]
        M[t:t + 2, t:t + 2] += mm.edge_mass(h)
    return M


def pipeline(side, ppw, px, py, theta=0.3, alpha=None):
    cfg = mm.ProblemConfig(side_lambda=side, ppw=ppw, px=px, py=py,
                           theta_inc=theta, alpha=alpha)
    m = mm.build_rect_mesh(side, ppw)
    part = mm.partition_mesh(m, px, py)
    systems = sd.build_subdomain_systems(m, part, cfg)
    reduced = [sd.reduce_domain(s) for s in systems]
    rsys = sd.assemble_reduced(reduced, part)
    g = blockmat.clique_graph(rsys.K)
    order = ordering.reorder(g, rsys.K.sizes)
    plan = symbolic.symbolic_factor(g, order, rsys.K.sizes)
    F = factor.block_ldlt(rsys.K, plan)
    lam = factor.block_solve(F, rsys.g)
    rsys.lam = lam
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
        assert systems[0].factor is None
        sd.reduce_domain(systems[0])
        assert isinstance(systems[0].factor, sd.LUFactor)

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
        assert np.allclose(s.factor.solve(s.f), [1.0, 1e14], rtol=1e-15)

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
            K_D, g_d = sd.reduce_domain(s)
            D = np.concatenate([dense_coupling(s, c) for c in s.couplings], axis=1)
            X = np.linalg.solve(dense_matrix(s), np.concatenate([D, s.f[:, None]], axis=1))
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

    def test_factor_is_band_lu(self):
        cfg = mm.ProblemConfig(side_lambda=1.0, ppw=22, px=2, py=2, theta_inc=0.3)
        m = mm.build_rect_mesh(1.0, 22)
        part = mm.partition_mesh(m, 2, 2)
        for s in sd.build_subdomain_systems(m, part, cfg):
            sd.reduce_domain(s)
            assert s.factor.lu.shape == s.A.shape and s.factor.kl == s.kl
            assert 3 * s.kl + 1 < s.n_dofs
            rhs = np.arange(s.n_dofs) + 1j
            x = s.factor.solve(rhs)
            assert np.abs(dense_matrix(s) @ x - rhs).max() <= 1e-12 * np.abs(rhs).max()


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
        assert set(g.edges()) == expect
        assert all(g.degree(v) == 2 for v in range(4))

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
        reduced = [sd.reduce_domain(s) for s in systems]
        rsys = sd.assemble_reduced(reduced, part)
        off = rsys.K.offsets()
        nlam = int(off[-1])
        K_oracle = np.zeros((nlam, nlam), dtype=complex)
        g_oracle = np.zeros(nlam, dtype=complex)
        for s in systems:
            D = np.zeros((s.n_dofs, nlam), dtype=complex)
            for c in s.couplings:
                D[:, off[c.interface]:off[c.interface + 1]] = dense_coupling(s, c)
            X = np.linalg.solve(dense_matrix(s),
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
            ref = s.factor.solve(s.f)
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
            E = s.factor.solve(rhs)
            scale = max(scale, np.abs(E).max())
            for ln, gn in enumerate(s.dof_map):
                if gn in seen:
                    maxdiff = max(maxdiff, abs(seen[gn] - E[ln]))
                else:
                    seen[gn] = E[ln]
        assert maxdiff <= 1e-8 * scale

    def test_saddle_consistency_for_arbitrary_lambda(self):
        cfg, m, part, systems, rsys, lam, sol = pipeline(1.0, 10, 2, 2)
        rng = np.random.default_rng(0)
        lam_r = np.split(rng.standard_normal(lam.size) + 1j * rng.standard_normal(lam.size),
                         rsys.K.offsets()[1:-1])
        for s in systems:
            rhs = s.f.copy()
            for c in s.couplings:
                rhs -= dense_coupling(s, c) @ lam_r[c.interface]
            E = s.factor.solve(rhs)
            lhs = dense_matrix(s) @ E + sum(dense_coupling(s, c) @ lam_r[c.interface]
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
            E = s.factor.solve(rhs)
            e_norm = max(e_norm, np.linalg.norm(E))
            for c in s.couplings:
                total[off[c.interface]:off[c.interface + 1]] += dense_coupling(s, c).T @ E
        assert np.linalg.norm(total) <= 1e-10 * e_norm

    def test_solution_also_lives_on_lambda(self):
        cfg, m, part, systems, rsys, lam, sol = pipeline(1.0, 10, 2, 2)
        assert rsys.lam is lam
        assert rsys.n_lambda == lam.shape[0] == rsys.K.order

    def test_lambda_matches_dense_saddle_solve(self):
        # oracle: eliminate nothing, solve the full [[A, D], [D^T, 0]]
        # saddle system densely and compare the multiplier part
        cfg, m, part, systems, rsys, lam, sol = pipeline(2.0, 15, 2, 2)
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
            S[sl, sl] = dense_matrix(s)
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
        with pytest.raises(ValueError):
            sd.global_residual(self.mesh, self.cfg, np.zeros(3, dtype=complex))
