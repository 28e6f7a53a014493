import numpy as np
import pytest

from conftest import interfaces
from ddsolve import mesh as mm


def shoelace(p):
    return 0.5 * abs((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                     - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))


class TestBuildRectMesh:
    def test_minimal_grid(self):
        m = mm.build_rect_mesh(0.5, 2)
        assert m.n_nodes == 4
        assert m.n_tris == 2

    def test_counts_n2(self):
        m = mm.build_rect_mesh(1.0, 2)
        assert m.n_nodes == 9
        assert m.n_tris == 8

    @pytest.mark.parametrize("side,ppw", [(1.0, 10), (1.3, 11), (2.0, 15), (0.7, 23)])
    def test_areas_sum_to_square(self, side, ppw):
        m = mm.build_rect_mesh(side, ppw)
        per_elem = np.array([shoelace(m.nodes[t]) for t in m.tris])
        assert np.allclose(per_elem, m.tri_areas())
        assert abs(m.tri_areas().sum() - side * side) <= 1e-12 * side * side

    def test_all_areas_positive_and_ccw(self):
        m = mm.build_rect_mesh(1.0, 12)
        assert (m.tri_areas() > 0).all()

    def test_boundary_edges_single_owner(self):
        m = mm.build_rect_mesh(1.0, 10)
        m.validate()
        use = m.edge_use_counts()
        for a, b in m.boundary_edges:
            assert len(use[(min(a, b), max(a, b))]) == 1

    def test_validate_rejects_degenerate_triangle(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        bad = mm.Mesh(nodes, np.array([[0, 1, 2]]),
                      np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int))
        with pytest.raises(mm.AssemblyError, match="element 0"):
            bad.validate()
        with pytest.raises(mm.AssemblyError, match="element 0"):
            mm.element_matrices(bad)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mm.build_rect_mesh(-1.0, 10)
        with pytest.raises(ValueError):
            mm.build_rect_mesh(1.0, 1)


class TestElementMatrices:
    def test_unit_right_triangle_stiffness(self):
        tri = mm.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      np.array([[0, 1, 2]]),
                      np.array([[0, 1], [1, 2], [2, 0]]), np.array([0, 0, 0]))
        Ke, Me = mm.element_matrices(tri)
        ref = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.abs(Ke[0] - ref).max() < 1e-14
        assert np.abs(Me[0] - (np.ones((3, 3)) + np.eye(3)) / 24.0).max() < 1e-14

    def test_constants_in_stiffness_nullspace(self):
        # k -> 0 with no absorbing term leaves only the stiffness part, which
        # must annihilate the all-ones vector.
        m = mm.build_rect_mesh(1.0, 11)
        Ke, _ = mm.element_matrices(m)
        assert np.abs(Ke.sum(axis=2)).max() < 1e-12


class TestAssembleHelmholtz:
    def setup_method(self):
        self.cfg = mm.ProblemConfig(side_lambda=1.0, ppw=12, theta_inc=0.4)
        self.mesh = mm.build_rect_mesh(self.cfg.side_lambda, self.cfg.ppw)

    def test_exact_transpose_symmetry(self):
        A, _ = mm.assemble_helmholtz(self.mesh, self.cfg)
        assert (A - A.T).nnz == 0

    def test_boundary_diagonal_has_imaginary_part(self):
        A, _ = mm.assemble_helmholtz(self.mesh, self.cfg)
        bn = np.unique(self.mesh.boundary_edges)
        diag = A.diagonal()
        assert (diag[bn].imag != 0).all()
        interior = np.setdiff1d(np.arange(self.mesh.n_nodes), bn)
        assert (diag[interior].imag == 0).all()

    def test_robin_edge_mass_oracle(self):
        # The absorbing contribution on one boundary edge is -jk * h/6 *
        # [[2, 1], [1, 2]]; isolate it by differencing assemblies with and
        # without the volume part on a one-cell mesh.
        m = mm.build_rect_mesh(0.5, 2)
        cfg = mm.ProblemConfig(side_lambda=0.5, ppw=10)
        A, _ = mm.assemble_helmholtz(m, cfg)
        k = cfg.k
        Ke, Me = mm.element_matrices(m)
        vol = np.zeros((4, 4), dtype=complex)
        for e, t in enumerate(m.tris):
            vol[np.ix_(t, t)] += Ke[e] - k * k * Me[e]
        robin = A.toarray() - vol
        expect = np.zeros((4, 4), dtype=complex)
        for a, b in m.boundary_edges:
            h = np.linalg.norm(m.nodes[b] - m.nodes[a])
            blk = (-1j * k) * mm.edge_mass(h)
            expect[np.ix_([a, b], [a, b])] += blk
        assert np.abs(robin - expect).max() < 1e-13

    def test_deterministic_bit_identical(self):
        A1, f1 = mm.assemble_helmholtz(self.mesh, self.cfg)
        A2, f2 = mm.assemble_helmholtz(self.mesh, self.cfg)
        assert (A1 != A2).nnz == 0
        assert np.array_equal(A1.data, A2.data)
        assert np.array_equal(f1, f2)

    def test_load_supported_on_boundary_only(self):
        _, f = mm.assemble_helmholtz(self.mesh, self.cfg)
        bn = np.unique(self.mesh.boundary_edges)
        interior = np.setdiff1d(np.arange(self.mesh.n_nodes), bn)
        assert np.abs(f[interior]).max() == 0.0
        assert np.abs(f[bn]).max() > 0.0


class TestProblemConfig:
    def test_defaults(self):
        cfg = mm.ProblemConfig(side_lambda=2.0)
        assert cfg.k == pytest.approx(2.0 * np.pi)
        assert cfg.alpha == pytest.approx(1j * cfg.k)

    @pytest.mark.parametrize("kwargs", [
        dict(side_lambda=0.0),
        dict(side_lambda=1.0, ppw=5),
        dict(side_lambda=1.0, px=0),
        dict(side_lambda=1.0, wavelength=-1.0),
        dict(side_lambda=1.0, alpha=2.0),   # real alpha not allowed
        dict(side_lambda=1.0, wavelength=0.1),   # would mesh at 1 ppw
        dict(side_lambda=1.0, wavelength=2.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            mm.ProblemConfig(**kwargs)

    @pytest.mark.parametrize("name", ["side_lambda", "ppw", "wavelength",
                                      "theta_inc", "alpha", "mu_r", "eps_r"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, bad):
        kwargs = dict(side_lambda=1.0, px=2, py=2)
        kwargs[name] = complex(0.0, bad) if name == "alpha" else bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            mm.ProblemConfig(**kwargs)


class TestPartition:
    def test_single_domain(self):
        m = mm.build_rect_mesh(1.0, 10)
        p = mm.partition_mesh(m, 1, 1)
        assert p.n_domains == 1
        assert p.ends.shape == (0, 2) and p.chain_nodes.size == 0
        assert p.lam_start.tolist() == [0, 0]
        assert p.domain_of_elem.tolist() == [0] * m.n_tris

    def test_two_by_two_has_four_interfaces(self):
        m = mm.build_rect_mesh(1.0, 10)
        p = mm.partition_mesh(m, 2, 2)
        assert p.n_domains == 4
        assert p.ends.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]

    def test_partition_covers_all_elements_once(self):
        m = mm.build_rect_mesh(2.0, 11)
        p = mm.partition_mesh(m, 3, 2)
        counts = np.bincount(p.domain_of_elem, minlength=p.n_domains)
        assert counts.sum() == m.n_tris
        assert (counts > 0).all()

    @pytest.mark.parametrize("side,ppw,px,py", [
        (1.0, 10, 2, 2),      # divisible grid
        (2.0, 15, 4, 4),      # 30 intervals, staircase tiling
        (1.0, 13, 3, 2),
    ])
    def test_interface_edges_adjoin_exactly_two_domains(self, side, ppw, px, py):
        # brute-force element-adjacency oracle
        m = mm.build_rect_mesh(side, ppw)
        p = mm.partition_mesh(m, px, py)
        use = m.edge_use_counts()
        shared = {}
        for (a, b), tris in use.items():
            if len(tris) == 2:
                d = {int(p.domain_of_elem[t]) for t in tris}
                if len(d) == 2:
                    shared[(a, b)] = tuple(sorted(d))
        listed = {}
        for itf in interfaces(p):
            for a, b in zip(itf.nodes[:-1], itf.nodes[1:]):
                key = (int(min(a, b)), int(max(a, b)))
                assert key not in listed, "edge in two interfaces"
                listed[key] = (itf.dom_lo, itf.dom_hi)
        assert listed == shared

    def test_chains_are_connected_paths(self):
        m = mm.build_rect_mesh(2.0, 15)
        p = mm.partition_mesh(m, 4, 4)
        for itf in interfaces(p):
            assert itf.nodes.size >= 2
            assert len(set(itf.nodes.tolist())) == itf.nodes.size
            assert itf.nodes[0] < itf.nodes[-1]     # from its smaller endpoint

    def test_incidence_arrays(self):
        m = mm.build_rect_mesh(1.3, 11)
        p = mm.partition_mesh(m, 3, 2)
        ends = p.ends.tolist()
        flat = [i for d in range(p.n_domains) for i, e in enumerate(ends) if d in e]
        assert p.incident.tolist() == flat
        assert np.diff(p.incident_start).tolist() == [
            sum(d in e for e in ends) for d in range(p.n_domains)]

    def test_arrays_are_read_only(self):
        p = mm.partition_mesh(mm.build_rect_mesh(1.3, 11), 3, 2)
        arrays = {k: a for k, a in vars(p).items() if isinstance(a, np.ndarray)}
        assert len(arrays) == 13
        for name, a in arrays.items():
            assert not a.flags.writeable, name

    def test_domain_boundary_edges(self):
        m = mm.build_rect_mesh(1.0, 10)
        p = mm.partition_mesh(m, 2, 2)
        assert p.boundary_start[-1] == len(m.boundary_edges)
        for d in range(p.n_domains):
            # domain d's edges, in the mesh's boundary-edge order
            s, e = p.boundary_start[d:d + 2]
            sel = p.domain_of_elem[m.boundary_owner] == d
            assert np.array_equal(p.boundary_edges[s:e], m.boundary_edges[sel])
            assert np.array_equal(p.boundary_owner[s:e], m.boundary_owner[sel])

    def test_empty_domain_raises(self):
        m = mm.build_rect_mesh(0.5, 2)   # single cell
        with pytest.raises(mm.PartitionError):
            mm.partition_mesh(m, 5, 5)

    # partition_mesh reads only the element centroids and the edge table, so
    # these hand-built meshes need not be planar: their triangles overlap.
    def test_interface_branching_at_a_node_raises(self):
        # four triangles around node 0 whose centroids alternate across the
        # midline x = 0: the (0, 1) interface has edges 0-2, 0-3 and 0-4
        nodes = np.array([[0.0, 0.0], [3.0, 1.0], [-1.0, 2.0], [0.0, 3.0],
                          [1.0, 4.0], [-3.0, 5.0]])
        tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]])
        m = mm.Mesh(nodes, tris, np.zeros((0, 2), dtype=np.int64),
                    np.zeros(0, dtype=np.int64))
        with pytest.raises(mm.PartitionError,
                           match=r"interface \(0, 1\) branches at node 0"):
            mm.partition_mesh(m, 2, 1)

    def test_interface_closed_loop_raises(self):
        # a domain-1 fan around node 0 (x = 3) whose ring 1-2-3 is shared
        # with three triangles reaching to x = -3, all left of the midline
        nodes = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 2.0],
                          [-3.0, 3.0], [-3.0, -2.0], [-3.0, 0.5]])
        tris = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1],
                         [1, 2, 4], [2, 3, 5], [3, 1, 6]])
        m = mm.Mesh(nodes, tris, np.zeros((0, 2), dtype=np.int64),
                    np.zeros(0, dtype=np.int64))
        with pytest.raises(mm.PartitionError,
                           match=r"interface \(0, 1\) contains a closed loop"):
            mm.partition_mesh(m, 2, 1)

    def test_deterministic(self):
        m = mm.build_rect_mesh(2.0, 15)
        p1 = mm.partition_mesh(m, 4, 4)
        p2 = mm.partition_mesh(m, 4, 4)
        for name, a in vars(p1).items():
            assert np.array_equal(a, getattr(p2, name)), name
