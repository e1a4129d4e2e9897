import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpsample.lincomb import CombinationSampler
from lpsample.ptree import (
    EmptyDistributionError,
    TreeAuditError,
    WeightedMatrixTree,
    WeightedVectorTree,
    build_matrix_tree,
    build_vector_tree,
)
from lpsample.randkit import stream

from oracles import tv_distance


class TestBuild:
    def test_p1_magnitudes_and_root(self):
        tree = build_vector_tree([1, -2, 3, 0], 1)
        assert tree.leaf_magnitudes.tolist() == [1, 2, 3, 0]
        assert tree.leaf_signs.tolist() == [1, -1, 1, 0]
        assert tree.query_pnorm_power() == 6

    def test_p2_magnitudes_and_root(self):
        tree = build_vector_tree([1, -2, 3, 0], 2)
        assert tree.leaf_magnitudes.tolist() == [1, 4, 9, 0]
        assert tree.query_pnorm_power() == 14

    def test_fractional_p_scalar(self):
        import mpmath

        tree = build_vector_tree([5], 1.5)
        expected = float(mpmath.power(5, mpmath.mpf(3) / 2))
        assert tree.query_pnorm_power() == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_vector_tree([], 1)
        with pytest.raises(ValueError):
            build_vector_tree([1.0, math.nan], 2)
        with pytest.raises(ValueError):
            build_vector_tree([1.0, math.inf], 2)
        with pytest.raises(ValueError):
            build_vector_tree([1.0], 0.5)
        with pytest.raises(ValueError):
            build_vector_tree([1.0], math.inf)

    def test_negative_zero_canonicalized(self):
        tree = build_vector_tree([-0.0, 1.0], 1)
        assert tree.leaf_signs.tolist() == [0, 1]
        assert tree.query_entry(0) == 0.0


class TestSampling:
    def test_point_mass(self):
        tree = build_vector_tree([0, 7, 0], 1.7)
        rng = stream(0, 0)
        assert all(tree.sample_index(rng) == 1 for _ in range(50))

    @pytest.mark.parametrize("p,expected", [(1, [1 / 6, 2 / 6, 3 / 6]), (2, [1 / 14, 4 / 14, 9 / 14])])
    def test_empirical_frequencies(self, p, expected):
        tree = build_vector_tree([1, -2, 3], p)
        idx = tree.sample_indices(stream(7, p), 200_000)
        freq = np.bincount(idx, minlength=3) / idx.size
        assert tv_distance(freq, expected) < 0.01

    def test_scalar_and_batch_agree_in_distribution(self):
        tree = build_vector_tree([0.3, 0, 1.5, 2, 0.01], 1.3)
        singles = np.array([tree.sample_index(stream(3, i)) for i in range(4000)])
        batch = tree.sample_indices(stream(9, 0), 4000)
        f1 = np.bincount(singles, minlength=5) / 4000
        f2 = np.bincount(batch, minlength=5) / 4000
        assert tv_distance(f1, tree.probabilities()) < 0.03
        assert tv_distance(f2, tree.probabilities()) < 0.03

    def test_deterministic_given_stream(self):
        tree = build_vector_tree(np.arange(1, 20.0), 2)
        a = [tree.sample_index(stream(5, 1)) for _ in range(10)]
        b = [tree.sample_index(stream(5, 1)) for _ in range(10)]
        assert a == b

    def test_all_zero_rejected(self):
        tree = build_vector_tree([0.0, 0.0], 2)
        assert tree.query_pnorm_power() == 0.0
        with pytest.raises(EmptyDistributionError):
            tree.sample_index(stream(0, 0))
        with pytest.raises(EmptyDistributionError):
            tree.sample_indices(stream(0, 0), 3)

    def test_zero_leaves_never_sampled(self):
        tree = build_vector_tree([1.0, 0.0, 0.0, 2.0, 0.0], 1)
        idx = tree.sample_indices(stream(11, 0), 20_000)
        assert set(np.unique(idx)) == {0, 3}


class TestUpdate:
    def test_zeroing_entry(self):
        tree = build_vector_tree([1, 2], 2)
        tree.update_entry(0, 0)
        assert tree.query_pnorm_power() == 4
        assert tree.leaf_signs[0] == 0

    def test_sign_flip(self):
        tree = build_vector_tree([1, 2], 1)
        tree.update_entry(1, -5)
        assert tree.query_pnorm_power() == 6
        assert tree.query_entry(1) == -5

    def test_idempotent_update_leaves_tree_unchanged(self):
        tree = build_vector_tree([1, 2, 3, 4], 2)
        before = tree._nodes.copy()
        tree.update_entry(2, 3)
        assert np.array_equal(before, tree._nodes)

    def test_only_ancestors_change(self):
        tree = build_vector_tree(np.arange(1, 9.0), 2)
        before = tree._nodes.copy()
        tree.update_entry(5, 9.0)
        changed = set(np.flatnonzero(before != tree._nodes))
        leaf = tree._capacity - 1 + 5
        path = {leaf}
        while leaf > 0:
            leaf = (leaf - 1) // 2
            path.add(leaf)
        assert changed <= path

    def test_update_errors(self):
        tree = build_vector_tree([1, 2], 2)
        with pytest.raises(IndexError):
            tree.update_entry(2, 1.0)
        with pytest.raises(ValueError):
            tree.update_entry(0, math.nan)


class TestQuery:
    def test_examples(self):
        tree = build_vector_tree([1, -2, 3], 2)
        assert tree.query_pnorm_power() == 14
        assert tree.query_entry(1) == -2
        with pytest.raises(IndexError):
            tree.query_entry(3)

    @pytest.mark.parametrize("p,tol", [(1, 1e-12), (2, 1e-12), (1.5, 1e-9), (2.7, 1e-9)])
    def test_round_trip_precision(self, p, tol):
        rng = stream(13, int(p * 10))
        values = rng.normal(0, 3, 40)
        tree = build_vector_tree(values, p)
        got = tree.entries()
        assert np.max(np.abs(got - values) / np.abs(values)) <= tol


class TestCostAccounting:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 100])
    def test_node_visits_bounded(self, n):
        bound = math.ceil(math.log2(n)) + 1 if n > 1 else 1
        tree = build_vector_tree(np.arange(1, n + 1.0), 2)
        rng = stream(1, n)
        tree.sample_index(rng)
        assert tree.last_op_visits <= bound
        tree.update_entry(n - 1, 7.0)
        assert tree.last_op_visits <= bound


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=33),
        st.lists(
            st.tuples(st.integers(0, 32), st.floats(-50, 50, allow_nan=False)),
            max_size=30,
        ),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_random_update_sequences_keep_sums_exact(self, values, updates, p):
        tree = build_vector_tree(values, p)
        reference = np.asarray(values, dtype=float)
        for i, v in updates:
            i = i % len(values)
            tree.update_entry(i, v)
            reference[i] = v
        tree.audit(rel_tol=1e-9)
        expected_root = float(np.sum(np.abs(reference) ** p))
        assert tree.query_pnorm_power() == pytest.approx(expected_root, rel=1e-9, abs=1e-12)

    def test_audit_detects_corruption(self):
        tree = build_vector_tree([1, 2, 3, 4], 1)
        tree._nodes[0] *= 1.5
        with pytest.raises(TreeAuditError):
            tree.audit()


class TestSerialization:
    def test_layout_golden_bytes(self):
        tree = build_vector_tree([1, -2, 0], 2)
        expected = (
            struct.pack("<d", 2.0)
            + struct.pack("<Q", 3)
            + np.array([1, -1, 0], dtype=np.int8).tobytes()
            + struct.pack("<3d", 1.0, 4.0, 0.0)
        )
        assert tree.to_bytes() == expected

    def test_round_trip(self):
        rng = stream(21, 0)
        values = rng.normal(0, 2, 11)
        tree = build_vector_tree(values, 1.5)
        clone = WeightedVectorTree.from_bytes(tree.to_bytes())
        assert clone.p == tree.p
        assert len(clone) == len(tree)
        assert np.array_equal(clone.leaf_magnitudes, tree.leaf_magnitudes)
        assert np.array_equal(clone.leaf_signs, tree.leaf_signs)
        assert clone.query_pnorm_power() == pytest.approx(tree.query_pnorm_power(), rel=1e-15)

    def test_truncated_buffer_rejected(self):
        tree = build_vector_tree([1, 2], 1)
        with pytest.raises(ValueError):
            WeightedVectorTree.from_bytes(tree.to_bytes()[:-1])


def column_probabilities(mt):
    return [mt.column_pnorm_power(j) / mt.total_pnorm_power() for j in range(mt.shape[1])]


class TestMatrixTree:
    def test_column_probabilities_p1(self):
        mt = build_matrix_tree([[1, 0], [0, 2]], 1)
        assert column_probabilities(mt) == [1 / 3, 2 / 3]

    def test_column_probabilities_p2(self):
        mt = build_matrix_tree([[1, 0], [0, 2]], 2)
        assert column_probabilities(mt) == [1 / 5, 4 / 5]

    def test_update_zeroes_column(self):
        mt = build_matrix_tree([[1, 0], [0, 2]], 1)
        mt.update_entry(0, 0, 0)
        assert column_probabilities(mt) == [0.0, 1.0]
        mt.audit()

    def test_update_keeps_norm_tree_exact(self):
        rng = stream(4, 0)
        mt = build_matrix_tree(rng.normal(size=(5, 6)), 1.5)
        for k in range(60):
            i = int(rng.integers(5))
            j = int(rng.integers(6))
            mt.update_entry(i, j, float(rng.normal()))
        mt.audit()

    def test_two_level_matches_flat_distribution(self):
        rng = stream(17, 0)
        for p in (1.0, 2.0, 1.5):
            A = rng.normal(size=(7, 8))
            A[rng.random(size=A.shape) < 0.3] = 0.0
            mt = build_matrix_tree(A, p)
            flat = build_vector_tree(A.reshape(-1), p)
            two_level = mt.entry_probabilities().reshape(-1)
            np.testing.assert_allclose(two_level, flat.probabilities(), rtol=1e-12, atol=1e-15)

    def test_two_level_sampling_frequencies(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0]])
        mt = build_matrix_tree(A, 2)
        rows, cols = mt.sample_entries(stream(23, 0), 100_000)
        freq = np.zeros((2, 2))
        np.add.at(freq, (rows, cols), 1.0 / rows.size)
        assert tv_distance(freq.reshape(-1), [1 / 5, 0, 0, 4 / 5]) < 0.01

    def test_zero_column_row_sampling_error(self):
        mt = build_matrix_tree([[1, 0], [2, 0]], 2)
        with pytest.raises(EmptyDistributionError):
            mt.sample_row(1, stream(0, 0))

    def test_query_entry(self):
        mt = build_matrix_tree([[1, -3], [0, 2]], 2)
        assert mt.query_entry(0, 1) == pytest.approx(-3.0)
        assert mt.column_pnorm_power(1) == pytest.approx(13.0)
        assert mt.total_pnorm_power() == pytest.approx(14.0)

    @pytest.mark.parametrize("i,j", [(0, -1), (-1, 0), (-1, -1), (3, 0), (0, 3), (0, 4)])
    def test_out_of_range_indices_rejected(self, i, j):
        # shape (3, 3): row 3 is a padding row and column 3 a padding column
        mt = build_matrix_tree([[1, 5, 0], [2, 7, 1], [3, 0, 2]], 1)
        with pytest.raises(IndexError):
            mt.query_entry(i, j)
        with pytest.raises(IndexError):
            mt.update_entry(i, j, 1.0)
        if not 0 <= j < 3:
            with pytest.raises(IndexError):
                mt.column_pnorm_power(j)
            with pytest.raises(IndexError):
                mt.sample_row(j, stream(0, 0))
            with pytest.raises(IndexError):
                mt.sample_rows([0, j], stream(0, 0))
        mt.audit()
        assert mt.dense().tolist() == [[1, 5, 0], [2, 7, 1], [3, 0, 2]]

    def test_sample_rows_follow_each_column(self):
        A = np.array([[1.0, 0.0, 3.0], [2.0, 0.0, -1.0], [0.0, 0.0, 4.0]])
        mt = build_matrix_tree(A, 1)
        cols = np.repeat([0, 2], 50_000)
        rows = mt.sample_rows(cols, stream(29, 0))
        for j in (0, 2):
            freq = np.bincount(rows[cols == j], minlength=3) / 50_000
            assert tv_distance(freq, np.abs(A[:, j]) / np.abs(A[:, j]).sum()) < 0.01
        with pytest.raises(EmptyDistributionError):
            mt.sample_rows([0, 1], stream(0, 0))

    def test_audit_detects_nonzero_padding_row(self):
        mt = build_matrix_tree([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], 1)
        mt.audit()
        # leaf 3 is the padding row below column 0; the sums stay consistent
        mt._tree.update_entry(3, 1.0)
        with pytest.raises(TreeAuditError):
            mt.audit()

    @settings(max_examples=60, deadline=None)
    @given(
        st.data(),
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_flat_layout_tracks_reference_under_updates(self, data, m, n, p):
        value = st.integers(-400, 400).map(lambda k: k / 8)
        A = np.array(data.draw(st.lists(value, min_size=m * n, max_size=m * n))).reshape(m, n)
        steps = data.draw(
            st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), value), max_size=25)
        )
        mt = build_matrix_tree(A, p)
        rng = stream(31, 10 * m + n)
        for i, j, v in steps:
            mt.update_entry(i, j, v)
            A[i, j] = v
            if mt.total_pnorm_power() > 0.0:
                rows, cols = mt.sample_entries(rng, 8)
                assert np.all(A[rows, cols] != 0.0)
        weights = np.abs(A) ** p
        np.testing.assert_allclose(mt.dense(), A, rtol=1e-12)
        for j in range(n):
            assert mt.column_pnorm_power(j) == pytest.approx(weights[:, j].sum(), rel=1e-12)
        if weights.sum() > 0.0:
            np.testing.assert_allclose(mt.entry_probabilities(), weights / weights.sum(), rtol=1e-12)
        else:
            with pytest.raises(EmptyDistributionError):
                mt.entry_probabilities()
        mt.audit()

    # first draws for stream (2024, 0) and (2024, 1), recorded with the
    # per-column implementation; the scalar paths must keep reproducing them
    GOLDEN = {
        1.0: (
            [(3, 2), (2, 1), (4, 2), (2, 1), (2, 2), (2, 1), (2, 1), (0, 0)],
            [3, 2, 3, 0, 1, 3],
            [(1, 1, 9), (1, 1, 9), (3, 1, 9), (4, 1, 9), (4, 2, 12), (3, 1, 9)],
        ),
        1.5: (
            [(3, 2), (2, 1), (4, 2), (2, 1), (2, 2), (2, 1), (2, 1), (0, 0)],
            [3, 2, 3, 0, 0, 3],
            [(1, 1, 9), (4, 3, 15), (3, 3, 15), (1, 2, 12), (2, 1, 9), (2, 3, 15)],
        ),
        2.0: (
            [(3, 2), (2, 1), (4, 2), (2, 1), (3, 2), (2, 1), (2, 1), (0, 0)],
            [3, 2, 3, 2, 3, 3],
            [(1, 1, 9), (4, 3, 15), (3, 3, 15), (1, 2, 12), (2, 1, 9), (4, 5, 21)],
        ),
    }

    @pytest.mark.parametrize("p", sorted(GOLDEN))
    def test_scalar_streams_golden(self, p):
        A = np.array([[1.0, -2.0, 0.0], [0.5, 0.0, 3.0], [0.0, 4.0, -1.0],
                      [2.5, -0.25, 0.0], [0.0, 1.0, 2.0]])
        mt = build_matrix_tree(A, p)
        mt.update_entry(3, 2, -1.75)
        rng = stream(2024, 0)
        entries = [mt.sample_entry(rng) for _ in range(8)]
        rows = [mt.sample_row(j, rng) for j in (0, 1, 2, 1, 0, 2)]
        sampler = CombinationSampler(mt, [0.5, -1.0, 2.0])
        rng = stream(2024, 1)
        results = [sampler.sample(rng) for _ in range(6)]
        assert (entries, rows, [(r.index, r.iterations, r.queries) for r in results]) == self.GOLDEN[p]

    def test_node_values_golden(self):
        A = np.array([[1.0, -2.0, 0.0], [0.5, 0.0, 3.0], [0.0, 4.0, -1.0],
                      [2.5, -0.25, 0.0], [0.0, 1.0, 2.0]])
        mt = build_matrix_tree(A, 1.5)
        mt.update_entry(3, 2, -1.75)
        got = [mt.column_pnorm_power(j).hex() for j in range(3)] + [mt.total_pnorm_power().hex()]
        assert got == ["0x1.539c10b306cd0p+2", "0x1.7e827999fcef3p+3", "0x1.6ade19de71226p+3",
                       "0x1.c9974de8f8bc1p+4"]
