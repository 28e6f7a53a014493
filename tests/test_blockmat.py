import numpy as np
import pytest

from conftest import add_block, graph_edges, rand_block_system
from ddsolve import blockmat
from ddsolve.blockmat import BlockMatrixError, clique_graph, from_blocks, \
    load_blk, save_blk


def sym(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G + G.T) / 2


class TestFromBlocks:
    def test_empty_block_list_is_zero_matrix(self):
        K = from_blocks([2, 3], [])
        assert K.nblocks == 2
        assert np.array_equal(K.scatter(), np.zeros((5, 5)))

    def test_duplicate_insertion_sums(self):
        b = np.ones((2, 2), dtype=complex)
        K = from_blocks([2], [(0, 0, b), (0, 0, b)])
        assert np.array_equal(K.blocks[(0, 0)], 2 * b)

    def test_scatter_matches_direct_dense_assembly(self):
        rng = np.random.default_rng(0)
        sizes = [2, 3, 1]
        d0, d1, d2 = sym(rng, 2), sym(rng, 3), sym(rng, 1)
        o10 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        o21 = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        K = from_blocks(sizes, [(0, 0, d0), (1, 1, d1), (2, 2, d2),
                                (1, 0, o10), (2, 1, o21)])
        S = np.zeros((6, 6), dtype=complex)
        S[0:2, 0:2] = d0
        S[2:5, 2:5] = d1
        S[5:6, 5:6] = d2
        S[2:5, 0:2] = o10
        S[0:2, 2:5] = o10.T
        S[5:6, 2:5] = o21
        S[2:5, 5:6] = o21.T
        assert np.array_equal(K.scatter(), S)

    def test_scatter_is_exactly_symmetric(self):
        for seed in range(5):
            K, _ = rand_block_system(seed)
            S = K.scatter()
            assert np.abs(S - S.T).max() == 0.0

    def test_upper_triangle_index_rejected(self):
        with pytest.raises(BlockMatrixError):
            from_blocks([1, 1], [(0, 1, np.ones((1, 1)))])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(BlockMatrixError):
            from_blocks([2, 2], [(1, 0, np.ones((3, 2)))])

    def test_asymmetric_diagonal_rejected(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(BlockMatrixError):
            from_blocks([2], [(0, 0, bad)])

    def test_keys_in_order_of_first_appearance(self):
        one = np.ones((1, 1))
        K = from_blocks([1, 1, 1], [(2, 2, one), (1, 0, one), (2, 2, one),
                                    (0, 0, one), (1, 0, one)])
        assert list(K.blocks) == [(2, 2), (1, 0), (0, 0)]

    def test_matches_add_block_bit_for_bit(self):
        """Signed zeros survive a single term, and duplicates sum in list
        order, as a copy of the first block plus the later ones would."""
        rng = np.random.default_rng(3)
        sizes = [2, 0, 3]
        zeros = np.array([[-0.0, 0.0], [0.0, -0.0]]) + np.array(
            [[-0.0, 0.0], [-0.0, 0.0]]) * 1j
        triples = [(0, 0, zeros), (2, 0, 1e16 * rng.standard_normal((3, 2))),
                   (1, 0, np.zeros((0, 2))), (2, 2, sym(rng, 3)),
                   (2, 0, rng.standard_normal((3, 2)) + 0j),
                   (2, 0, -1e16 * rng.standard_normal((3, 2)) - 0j),
                   (0, 0, np.conj(zeros)), (2, 2, -sym(rng, 3))]
        ref = blockmat.BlockSparseSym(sizes)
        for i, j, blk in triples:
            add_block(ref, i, j, blk)
        K = from_blocks(sizes, triples)
        assert list(K.blocks) == list(ref.blocks)
        for key, blk in ref.blocks.items():
            assert K.blocks[key].shape == blk.shape
            assert K.blocks[key].tobytes() == blk.tobytes(), key
        # a single -0.0 term keeps its sign
        K = from_blocks([2], [(0, 0, zeros)])
        assert K.blocks[(0, 0)].tobytes() == zeros.tobytes()

    @pytest.mark.parametrize("sizes, match", [
        ([2.5, 1.9], "block size 0 is 2.5"),
        ([2.7], "block size 0 is 2.7"),
        ([1, -1], "block size 1 is -1"),
        ([1.0, np.nan], "block size 1 is nan"),
        ([np.inf], "block size 0 is inf"),
        (["2"], "block sizes of dtype <U1 are not numbers"),
        ([[1, 2]], "1-D"),
    ])
    def test_sizes_must_be_nonnegative_integers(self, sizes, match):
        with pytest.raises(BlockMatrixError, match=match):
            from_blocks(sizes, [])
        # integer-valued floats stay accepted
        assert from_blocks([2.0, 0.0], []).sizes.tolist() == [2, 0]

    def test_iteration_order_deterministic(self):
        rng = np.random.default_rng(1)
        K = from_blocks([1, 1, 1], [(2, 2, sym(rng, 1)), (0, 0, sym(rng, 1)),
                                    (2, 0, np.ones((1, 1))), (1, 0, np.ones((1, 1))),
                                    (1, 1, sym(rng, 1))])
        keys = [ij for ij, _ in K.items()]
        assert keys == [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2)]


class TestValidate:
    def test_names_lowest_numbered_bad_block(self):
        """Blocks of different sizes are checked in separate batches; the
        lowest-numbered asymmetric one is named, whatever the insertion
        order."""
        rng = np.random.default_rng(5)
        sizes = [2, 3, 2, 3]
        K = blockmat.BlockSparseSym(sizes)
        for i in (3, 2, 0, 1):
            blk = sym(rng, sizes[i])
            if i in (1, 2, 3):
                blk[0, -1] += 1e-6
            add_block(K, i, i, blk)
        with pytest.raises(BlockMatrixError, match="diagonal block 1 asymmetric"):
            K.validate()
        K.blocks[(1, 1)] = (K.blocks[(1, 1)] + K.blocks[(1, 1)].T) / 2
        with pytest.raises(BlockMatrixError, match="diagonal block 2 asymmetric"):
            K.validate()

    def test_reports_the_asymmetry(self):
        blk = np.array([[1.0, 2.0], [2.5, 1.0]], dtype=complex)
        K = blockmat.BlockSparseSym([2])
        add_block(K, 0, 0, blk)
        with pytest.raises(BlockMatrixError, match="asymmetric: 5.000e-01"):
            K.validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_not_checked(self, bad):
        blk = np.array([[1.0, 2.0], [0.0, bad]], dtype=complex)
        K = blockmat.BlockSparseSym([2, 1, 2])
        add_block(K, 0, 0, blk)
        add_block(K, 1, 1, np.ones((1, 1)))
        add_block(K, 2, 2, np.zeros((2, 2)))
        K.validate()

    def test_zero_size_and_missing_blocks_pass(self):
        K = blockmat.BlockSparseSym([0, 2, 3])
        add_block(K, 0, 0, np.zeros((0, 0)))
        add_block(K, 2, 2, np.eye(3))
        K.validate()


class TestCliqueGraph:
    def test_block_diagonal_has_no_edges(self):
        rng = np.random.default_rng(2)
        K = from_blocks([2, 2], [(0, 0, sym(rng, 2)), (1, 1, sym(rng, 2))])
        assert clique_graph(K) == [set(), set()]

    def test_four_cycle_structure(self):
        rng = np.random.default_rng(3)
        tri = [(i, i, sym(rng, 2)) for i in range(4)]
        tri += [(1, 0, np.ones((2, 2))), (2, 1, np.ones((2, 2))),
                (3, 2, np.ones((2, 2))), (3, 0, np.ones((2, 2)))]
        g = clique_graph(from_blocks([2, 2, 2, 2], tri))
        assert graph_edges(g) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert all(len(g[v]) == 2 for v in range(4))

    def test_adjacency_symmetric_random(self):
        for seed in range(10):
            K, _ = rand_block_system(seed + 50)
            g = clique_graph(K)
            assert len(g) == K.nblocks
            for i in range(len(g)):
                for j in g[i]:
                    assert i in g[j]
                    assert i != j

    def test_degree_counts_offdiagonal_blocks(self):
        for seed in range(5):
            K, _ = rand_block_system(seed + 70)
            g = clique_graph(K)
            for v in range(len(g)):
                stored = sum(1 for (i, j) in K.blocks
                             if i != j and (i == v or j == v))
                assert len(g[v]) == stored


class TestBlkFormat:
    def test_round_trip_exact(self, tmp_path):
        K, _ = rand_block_system(123, max_blocks=5, max_size=6)
        path = tmp_path / "k.blk"
        save_blk(path, K)
        K2 = load_blk(path)
        assert np.array_equal(K2.sizes, K.sizes)
        assert set(K2.blocks) == set(K.blocks)
        for key, blk in K.blocks.items():
            assert np.array_equal(K2.blocks[key], blk)

    def test_round_trip_keeps_signed_zeros(self, tmp_path):
        zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        K = from_blocks([1] * 4, [(i, i, np.array([[z]])) for i, z in enumerate(zeros)])
        path = tmp_path / "k.blk"
        save_blk(path, K)
        K2 = load_blk(path)
        assert [K2.blocks[(i, i)].tobytes() for i in range(4)] == \
            [np.array([[z]]).tobytes() for z in zeros]

    def test_header_contents(self, tmp_path):
        K = from_blocks([2, 1], [(0, 0, np.eye(2, dtype=complex))])
        path = tmp_path / "k.blk"
        save_blk(path, K)
        first, second = path.read_text().splitlines()[:2]
        assert first == "D3M-BLK v1"
        assert second.split() == ["2", "2", "1"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.blk"
        path.write_text("NOT-A-DUMP\n1 1\n")
        with pytest.raises(BlockMatrixError, match="magic"):
            load_blk(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.blk"
        path.write_text("D3M-BLK v1\n1 2\n0 0\n1.0 0.0\n")
        with pytest.raises(BlockMatrixError):
            load_blk(path)

    @pytest.mark.parametrize("body,named", [
        ("1 0\n1.0 0.0\n", r"\(1, 0\)"),     # block index = block count
        ("0 x\n1.0 0.0\n", "'0 x'"),          # non-numeric index
        ("0 0\n1.0 abc\n", "'abc'"),          # non-numeric value
    ])
    def test_bad_entries_rejected(self, tmp_path, body, named):
        path = tmp_path / "bad.blk"
        path.write_text("D3M-BLK v1\n1 1\n" + body)
        with pytest.raises(BlockMatrixError, match=named):
            load_blk(path)
