import copy
import hashlib
import math
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lpsample.lincomb import CombinationSampler
from lpsample.ptree import (
    EmptyDistributionError,
    TreeAuditError,
    WeightedMatrixTree,
    WeightedVectorTree,
    _BLOCK,
    _apart,
    build_matrix_tree,
    build_vector_tree,
)
from lpsample.randkit import stream

from oracles import full_heap, heap_descent, heap_from_leaves, inverse_cdf_indices, tv_distance


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


class TestBuildBitsGolden:
    """sha256 of ``to_bytes()`` and of the whole heap for vector trees
    (with -0.0, zeros and entries whose ``|x|**p`` underflows), matrix trees
    and a ``from_bytes`` round trip: a build may change how it fills the
    heap, never the bits it leaves there.  The heap is read through
    :func:`full_heap`, so the digests recorded on the full 2 * capacity heap
    also pin the nodes the tree stores."""

    GOLDEN = {
        1.0: "878a06f1f3325a8ea9f222a0243967eafe7fba3b71f6cce2eae23e400696bc87",
        1.5: "51c0ef842a0861e4507751a3b176d54b342b84e7e05dcbea3e25905adf8e13fd",
        2.0: "f287dd9d1822f9c2603755f45a26fd155e479bf2c4ce025d3a1b2ee0a2767801",
        3.0: "106e1a37eb09b99fcdeb574290848cb85b44af40a01dccae63c337f48d8ce9b1",
    }

    @staticmethod
    def vector(n, k):
        x = stream(91, k).normal(size=n)
        tiny = [-0.0, 0.0, 1e-110, -1e-200, 5e-324, -3e-160, 2.5]
        x[: min(n, len(tiny))] = tiny[: min(n, len(tiny))]
        x[7::5] = -0.0
        x[9::11] = 0.0
        x[17::13] = 1e-120
        return x

    @classmethod
    def build_digest(cls, p):
        digest = hashlib.sha256()
        for k, n in enumerate((1, 7, 8, 9, 4097, 65539)):
            tree = build_vector_tree(cls.vector(n, k), p)
            digest.update(tree.to_bytes())
            digest.update(full_heap(tree).tobytes())
            clone = WeightedVectorTree.from_bytes(tree.to_bytes())
            digest.update(full_heap(clone).tobytes() + clone._signs.tobytes())
        if p in (1.5, 3.0):
            for k, (m, n) in enumerate(((7, 3), (300, 5))):
                A = stream(92, k).normal(size=(m, n))
                A[::4] = 0.0
                A[1::5, 0] = -0.0
                A[2::7] = 1e-110
                mt = build_matrix_tree(A, p)
                digest.update(mt._tree.to_bytes())
                digest.update(full_heap(mt._tree).tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("p", sorted(GOLDEN))
    def test_build_bits_golden(self, p):
        assert self.build_digest(p) == self.GOLDEN[p]

    @pytest.mark.parametrize("p", sorted(GOLDEN))
    def test_zero_weight_entries_have_zero_sign(self, p):
        x = self.vector(65539, 5)
        tree = build_vector_tree(x, p)
        zero = tree.leaf_magnitudes == 0.0
        assert np.array_equal(tree.leaf_signs == 0, zero)
        assert zero[:4].tolist() == [True, True, p == 3.0, p >= 2.0]
        assert zero[4] == (p >= 1.5)


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


class _EdgeFirst:
    """Generator stand-in whose first ``random()`` is 1.0 (or, with a size,
    all 1.0), the upper edge that rounding can carry a scaled uniform to;
    later calls go to a real stream."""

    def __init__(self, rng):
        self._rng = rng
        self._first = True

    def random(self, size=None):
        if self._first:
            self._first = False
            return 1.0 if size is None else np.ones(size)
        return self._rng.random(size)


class TestInverseCdfDescent:
    """The vectorised descent is an inverse-CDF draw: with integer weights every
    partial sum is exact, so it must agree with the oracle draw for draw."""

    values = st.lists(st.integers(-9, 9), min_size=1, max_size=40)

    @settings(max_examples=60, deadline=None)
    @given(values, st.sampled_from([1.0, 2.0, 3.0]), st.integers(0, 1 << 16), st.integers(1, 300))
    def test_sample_indices_match_oracle(self, values, p, key, size):
        weights = np.abs(np.array(values, dtype=float)) ** p
        assume(weights.sum() > 0.0)
        tree = build_vector_tree(values, p)
        got = tree.sample_indices(stream(41, key), size)
        np.testing.assert_array_equal(got, inverse_cdf_indices(weights, stream(41, key).random(size)))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 9), st.integers(1, 7), st.sampled_from([1.0, 2.0, 3.0]),
           st.integers(0, 1 << 16), st.integers(1, 200))
    def test_matrix_draws_match_oracle(self, data, m, n, p, key, size):
        A = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=m * n, max_size=m * n)), dtype=float)
        A = A.reshape(m, n)
        weights = np.abs(A) ** p
        nonzero = np.flatnonzero(weights.sum(axis=0) > 0.0)
        assume(nonzero.size > 0)
        mt = build_matrix_tree(A, p)

        rows, cols = mt.sample_entries(stream(43, key), size)
        flat = inverse_cdf_indices(weights.T.reshape(-1), stream(43, key).random(size))
        np.testing.assert_array_equal(cols * m + rows, flat)

        cols = nonzero[stream(44, key).integers(nonzero.size, size=size)]
        rows = mt.sample_rows(cols, stream(45, key))
        u = stream(45, key).random(size)
        expected = np.empty(size, dtype=np.int64)
        for j in nonzero:
            expected[cols == j] = inverse_cdf_indices(weights[:, j], u[cols == j])
        np.testing.assert_array_equal(rows, expected)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 9), st.integers(1, 7), st.sampled_from([1.0, 2.0, 3.0]),
           st.integers(0, 1 << 16), st.integers(1, 80))
    def test_scalar_draws_match_vector_draws(self, data, m, n, p, key, size):
        # the scalar and the vectorised descent share one rule, so with exact
        # partial sums one stream gives the same draws one at a time as in a batch
        A = np.array(data.draw(st.lists(st.integers(-9, 9), min_size=m * n, max_size=m * n)), dtype=float)
        A = A.reshape(m, n)
        nonzero = np.flatnonzero(np.abs(A).sum(axis=0) > 0.0)
        assume(nonzero.size > 0)

        tree = build_vector_tree(A.reshape(-1), p)
        rng = stream(49, key)
        got = [tree.sample_index(rng) for _ in range(size)]
        assert got == tree.sample_indices(stream(49, key), size).tolist()

        mt = build_matrix_tree(A, p)
        rng = stream(50, key)
        got = [mt.sample_entry(rng) for _ in range(size)]
        rows, cols = mt.sample_entries(stream(50, key), size)
        assert got == list(zip(rows.tolist(), cols.tolist()))

        cols = nonzero[stream(51, key).integers(nonzero.size, size=size)]
        rng = stream(52, key)
        got = [mt.sample_row(j, rng) for j in cols.tolist()]
        assert got == mt.sample_rows(cols, stream(52, key)).tolist()

    def test_edge_uniforms_are_redrawn_off_zero_leaves(self):
        # entries 1, 3, 4 are zero and leaves 5..7 are padding; a uniform of
        # 1.0 walks right past the last positive leaf
        tree = build_vector_tree([1.0, 0.0, 2.0, 0.0, 0.0], 1)
        idx = tree.sample_indices(_EdgeFirst(stream(47, 0)), 500)
        assert np.all((idx >= 0) & (idx < len(tree)))
        assert np.all(tree.leaf_magnitudes[idx] > 0.0)

        # m = 3: row 3 of every column is a padding leaf
        A = np.array([[1.0, 0.0], [2.0, 3.0], [0.0, 0.0]])
        mt = build_matrix_tree(A, 1.5)
        rows, cols = mt.sample_entries(_EdgeFirst(stream(47, 1)), 500)
        assert np.all(rows < 3) and np.all(A[rows, cols] != 0.0)
        cols = np.tile([0, 1], 250)
        rows = mt.sample_rows(cols, _EdgeFirst(stream(47, 2)))
        assert np.all(rows < 3) and np.all(A[rows, cols] != 0.0)

    def test_scalar_edge_uniform_is_redrawn_off_zero_leaves(self):
        # the same trees as above, one draw at a time: the first uniform is 1.0
        tree = build_vector_tree([1.0, 0.0, 2.0, 0.0, 0.0], 1)
        rng = _EdgeFirst(stream(48, 0))
        idx = [tree.sample_index(rng) for _ in range(100)]
        assert all(0 <= i < len(tree) and tree.leaf_magnitudes[i] > 0.0 for i in idx)

        A = np.array([[1.0, 0.0], [2.0, 3.0], [0.0, 0.0]])
        mt = build_matrix_tree(A, 1.5)
        rng = _EdgeFirst(stream(48, 1))
        entries = [mt.sample_entry(rng) for _ in range(100)]
        assert all(i < 3 and A[i, j] != 0.0 for i, j in entries)
        for j in (0, 1):
            rng = _EdgeFirst(stream(48, 2 + j))
            rows = [mt.sample_row(j, rng) for _ in range(50)]
            assert all(i < 3 and A[i, j] != 0.0 for i in rows)


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
        before = full_heap(tree)
        tree.update_entry(5, 9.0)
        changed = set(np.flatnonzero(before != full_heap(tree)))
        v = tree._capacity + 5
        path = {v}
        while v > 1:
            v >>= 1
            path.add(v)
        assert changed <= path

    def test_update_errors(self):
        tree = build_vector_tree([1, 2], 2)
        with pytest.raises(IndexError):
            tree.update_entry(2, 1.0)
        with pytest.raises(ValueError):
            tree.update_entry(0, math.nan)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_bool_indices_rejected(self, flag):
        # a bool is an int to Python and a mask to NumPy, never an entry index;
        # nor is a float a column index to sample_rows
        tree = build_vector_tree([-1, 2, -3, 4], 1)
        mt = build_matrix_tree([[1, 5, 0], [2, 7, 1], [3, 0, 2]], 1)
        vector_bytes, matrix_bytes = tree._nodes.tobytes(), mt._tree._nodes.tobytes()
        with pytest.raises(IndexError):
            tree.update_entry(flag, 5.0)
        with pytest.raises(IndexError):
            tree.query_entry(flag)
        for call in (lambda: mt.update_entry(flag, 0, 5.0), lambda: mt.update_entry(0, flag, 5.0),
                     lambda: mt.query_entry(flag, 0), lambda: mt.query_entry(0, flag),
                     lambda: mt.sample_row(flag, stream(0, 0)),
                     lambda: mt.sample_rows([flag, not flag], stream(0, 0)),
                     lambda: mt.sample_rows(np.array([1.7]), stream(0, 0))):
            with pytest.raises(IndexError):
                call()
        assert tree.entries().tolist() == [-1, 2, -3, 4]
        assert tree._nodes.tobytes() == vector_bytes and tree.leaf_signs.tolist() == [-1, 1, -1, 1]
        assert mt._tree._nodes.tobytes() == matrix_bytes
        assert mt.dense().tolist() == [[1, 5, 0], [2, 7, 1], [3, 0, 2]]
        assert mt.sample_rows([], stream(0, 0)).tolist() == []

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_updated_tree_is_bytewise_the_built_tree(self, p):
        # at fractional p Python's ** and NumPy's power round about 5% of
        # entries one ulp apart, so a scalar twin of the constructor shows here
        x = stream(61, 0).normal(size=4096)
        built = build_vector_tree(x, p)
        updated = build_vector_tree(np.zeros_like(x), p)
        for i, value in enumerate(x.tolist()):
            updated.update_entry(i, value)
        assert updated.to_bytes() == built.to_bytes()
        assert updated._nodes.tobytes() == built._nodes.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 7), st.integers(1, 7), st.booleans(),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_updated_sums_are_bytewise_a_fresh_build(self, data, m, n, matrix, p):
        # every internal sum, not only the leaves, must equal a rebuild's; an
        # incremental-delta update drifts here.  Sizes are rarely powers of two.
        shape = (m, n) if matrix else (m * n,)
        value = st.floats(-50, 50, allow_nan=False)
        values = np.array(data.draw(st.lists(value, min_size=m * n, max_size=m * n))).reshape(shape)
        build = build_matrix_tree if matrix else build_vector_tree
        tree = build(values, p)
        steps = data.draw(st.lists(st.tuples(
            st.integers(0, m * n - 1), st.sampled_from(["set", "zero", "flip"]), value), max_size=40))
        for k, kind, v in steps:
            at = np.unravel_index(k, shape)
            values[at] = {"set": v, "zero": 0.0, "flip": -values[at]}[kind]
            tree.update_entry(*(int(c) for c in at), float(values[at]))
        fresh = build(values, p)
        if matrix:
            tree, fresh = tree._tree, fresh._tree
        assert tree._nodes.tobytes() == fresh._nodes.tobytes()
        assert tree._signs.tobytes() == fresh._signs.tobytes()


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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_query_entry_is_exactly_entries(self, p):
        x = stream(62, 0).normal(size=4096)
        x[::7] = 0.0
        tree = build_vector_tree(x, p)
        assert [tree.query_entry(i) for i in range(x.size)] == tree.entries().tolist()


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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 100])
    def test_node_visits_equal_depth_plus_one(self, n):
        visits = math.ceil(math.log2(n)) + 1
        tree = build_vector_tree(np.arange(1, n + 1.0), 2)
        rng = stream(2, n)
        for i in range(n):
            tree.update_entry(i, -0.5 - i)
            assert tree.last_op_visits == visits
            tree.sample_index(rng)
            assert tree.last_op_visits == visits

    @pytest.mark.parametrize("m,n", [(1, 1), (5, 3), (4, 4), (3, 7), (17, 2), (1, 4), (2, 1), (2, 3)])
    def test_matrix_update_visits_equal_depth_plus_one(self, m, n):
        # the vector tree holds n columns of stride 2^ceil(log2 m); strides 1 and 2
        # put the column roots on the leaves and on the level that is not stored
        visits = math.ceil(math.log2(m)) + math.ceil(math.log2(n)) + 1
        mt = build_matrix_tree(np.ones((m, n)), 1.5)
        rng = stream(3, 10 * m + n)
        for i in range(m):
            for j in range(n):
                mt.update_entry(i, j, 2.0 - i)
                assert mt._tree.last_op_visits == visits
                mt.sample_entry(rng)
                assert mt._tree.last_op_visits == visits


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
        tree._nodes[1] *= 1.5  # the root
        with pytest.raises(TreeAuditError):
            tree.audit()

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_audit_detects_nonzero_slot_zero(self, n):
        tree = build_vector_tree(np.arange(1, n + 1.0), 1)
        tree.audit()
        tree._nodes[0] = 1.0
        with pytest.raises(TreeAuditError):
            tree.audit()

    @pytest.mark.parametrize("leaf,value,message", [
        (None, math.nan, "finite and nonnegative"),  # an internal node
        (100, -math.inf, "finite and nonnegative"),
        (2100, -1.0, "finite and nonnegative"),  # a leaf in the second block
        (5007, 1.0, "padding leaves"),
        (4500, 0.0, "zero pattern"),  # a leaf in the third block
    ])
    def test_audit_messages_across_leaf_blocks(self, leaf, value, message):
        tree = build_vector_tree(stream(93, 5).normal(size=5000), 1.5)  # 3 leaf blocks, then padding
        tree.audit()
        tree._nodes[2 if leaf is None else tree._leaf0 + leaf] = value
        with pytest.raises(TreeAuditError, match=message):
            tree.audit()

    @pytest.mark.parametrize("size", [1, 7, 65536])
    def test_gather_output_sits_half_a_page_from_its_indices(self, size):
        idx = np.ones(size, dtype=np.int64)
        left = _apart(idx)
        assert left.size == size and left.dtype == np.float64
        assert (left.ctypes.data - idx.ctypes.data) % 4096 == 2048

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 9), st.integers(1, 7), st.booleans(),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_heap_sums_and_descent_stay_in_subtree(self, data, m, n, matrix, p):
        # the 1-based heap: node v holds _nodes[2v] + _nodes[2v+1] exactly, and
        # _descend_many's unchecked gathers only ever land on weighted leaves of
        # the start node's subtree, from the root and from every column root
        shape = (m, n) if matrix else (m * n,)
        value = st.integers(-400, 400).map(lambda k: k / 8)
        values = np.array(data.draw(st.lists(value, min_size=m * n, max_size=m * n))).reshape(shape)
        tree = (build_matrix_tree if matrix else build_vector_tree)(values, p)
        vt = tree._tree if matrix else tree
        steps = data.draw(st.lists(st.tuples(st.integers(0, m * n - 1), value), max_size=20))
        for stage in range(2):
            if stage:
                for k, x in steps:
                    tree.update_entry(*(int(c) for c in np.unravel_index(k, shape)), x)
            nodes, cap = full_heap(vt), vt._capacity
            assert nodes[0] == 0.0 and nodes.size == 2 * cap
            v = np.arange(1, cap)
            assert np.array_equal(nodes[v], nodes[2 * v] + nodes[2 * v + 1])
            starts = [(1, vt._depth)]
            if matrix:
                starts += [(tree._column_root + j, tree._row_levels) for j in range(n)]
            for start, levels in starts:
                if nodes[start] > 0.0:
                    rng = stream(53, 100 * stage + start)
                    idx = vt._descend_many(rng, np.full(64, start, dtype=np.int64), levels, nodes[start])
                    first = (start << levels) - cap
                    assert np.all((idx >= first) & (idx < first + (1 << levels)))
                    assert np.all(vt.leaf_magnitudes[idx] > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 9), st.integers(1, 7), st.booleans(),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_stored_nodes_and_descents_match_the_heap_oracle(self, data, m, n, matrix, p):
        # after updates, the stored nodes are those of a heap summed from the
        # leaves, every node read through the tree (on the level not stored too)
        # is the heap's, and a descent from any node, on the leaves and on the level
        # not stored too (where stride-1 and stride-2 column roots sit), walks the
        # heap step for step
        shape = (m, n) if matrix else (m * n,)
        value = st.floats(-50, 50, allow_nan=False)
        values = np.array(data.draw(st.lists(value, min_size=m * n, max_size=m * n))).reshape(shape)
        tree = (build_matrix_tree if matrix else build_vector_tree)(values, p)
        vt = tree._tree if matrix else tree
        for k, x in data.draw(st.lists(st.tuples(st.integers(0, m * n - 1), value), max_size=30)):
            tree.update_entry(*(int(c) for c in np.unravel_index(k, shape)), x)
        cap, leaf0 = vt._capacity, vt._leaf0
        heap = heap_from_leaves(vt.leaf_magnitudes, cap)
        assert vt._nodes.tobytes() == heap[:leaf0].tobytes() + heap[cap:].tobytes()
        assert full_heap(vt).tobytes() == heap.tobytes()
        assert [vt._node(v) for v in range(1, 2 * cap)] == heap[1:].tolist()
        for level in range(vt._depth + 1):
            nodes, levels = np.arange(1 << level, 2 << level), vt._depth - level
            assert vt._node_values(nodes).tolist() == heap[nodes].tolist()
            for v in nodes[heap[nodes] > 0.0].tolist():
                u = stream(54, v).random(16).tolist()
                expected = np.array([heap_descent(heap, v, levels, x) for x in u]) - cap
                hit = heap[expected + cap] > 0.0  # a draw on a zero leaf is made again
                got = vt._descend_many(stream(54, v), np.full(16, v), levels, vt._node(v))
                np.testing.assert_array_equal(got[hit], expected[hit])
                assert np.all(heap[got + cap] > 0.0) and np.all(got >> levels == v - (cap >> levels))
                if hit[0]:
                    assert vt._descend(stream(54, v), v, levels, vt._node(v)) == expected[0]
        if matrix:
            roots = np.arange(tree._column_root, tree._column_root + n)
            assert tree.column_pnorm_powers().tolist() == heap[roots].tolist()


def traced_peak(build):
    """Run ``build()``; return its result and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestBuildMemory:
    """A build holds the caller's input, the node array and the int8 signs;
    no n-sized float64 copy of the input sits beside the heap."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_vector_build_peaks_at_what_it_keeps(self, p):
        n = 1 << 20
        x = stream(93, 0).normal(size=n)
        tree, peak = traced_peak(lambda: build_vector_tree(x, p))
        kept = tree._nodes.nbytes + tree._signs.nbytes
        assert peak <= kept + n + 256 * 1024

    def test_p1_build_makes_no_zero_mask(self):
        # 12 bytes of nodes and one sign byte a leaf, and at p = 1 no n-byte mask
        # of underflowed magnitudes: a magnitude is zero only where its sign is
        x = stream(93, 3).normal(size=1 << 20)
        x[::7] = 0.0
        tree, peak = traced_peak(lambda: build_vector_tree(x, 1.0))
        assert (tree._nodes.nbytes, tree._signs.nbytes) == (12 * 2**20, 2**20)
        assert peak <= tree._nodes.nbytes + tree._signs.nbytes + 64 * 1024
        assert np.array_equal(tree.leaf_signs, np.sign(x))

    def test_rebuild_allocates_one_block(self):
        tree = build_vector_tree(stream(93, 4).normal(size=1 << 20), 1.5)
        nodes = tree._nodes.tobytes()
        _, peak = traced_peak(tree.rebuild)
        assert peak <= 8 * 2 * _BLOCK + 4096  # one block of leaf-pair sums
        assert tree._nodes.tobytes() == nodes

    def test_matrix_build_peak(self):
        A = stream(93, 1).normal(size=(1000, 64))
        _, peak = traced_peak(lambda: build_matrix_tree(A, 1.5))
        assert peak < 1.5 * 2**20

    def test_audit_peak(self):
        tree = build_vector_tree(stream(93, 2).normal(size=1 << 20), 1.5)
        _, peak = traced_peak(tree.audit)
        assert peak <= 512 * 1024  # every n-sized check runs a block at a time


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

    def test_to_bytes_peaks_at_its_output(self):
        tree = build_vector_tree(stream(21, 1).normal(size=1 << 20), 1.5)
        out, peak = traced_peak(tree.to_bytes)
        assert len(out) == 16 + 9 * (1 << 20)
        assert peak <= 1.2 * len(out)  # concatenating the parts held 2x

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

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_copies_are_independent_and_bytewise(self, clone):
        mt = build_matrix_tree(stream(22, 0).normal(size=(5, 3)), 1.5)
        mt.update_entry(4, 2, -3.0)
        twin = clone(mt)
        assert twin._tree._nodes.tobytes() == mt._tree._nodes.tobytes()
        twin.update_entry(0, 0, 9.0)
        assert mt.query_entry(0, 0) != 9.0 and twin.query_entry(0, 0) == pytest.approx(9.0)
        assert twin.column_pnorm_powers()[0] > mt.column_pnorm_powers()[0]

    def test_truncated_buffer_rejected(self):
        tree = build_vector_tree([1, 2], 1)
        with pytest.raises(ValueError):
            WeightedVectorTree.from_bytes(tree.to_bytes()[:-1])


def column_probabilities(mt):
    return (mt.column_pnorm_powers() / mt._tree.query_pnorm_power()).tolist()


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
            two_level = (mt._columns()[0].T / mt._tree.query_pnorm_power()).reshape(-1)
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
        assert mt.column_pnorm_powers().tolist() == pytest.approx([1.0, 13.0])
        assert mt._tree.query_pnorm_power() == pytest.approx(14.0)

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
            if mt._tree.query_pnorm_power() > 0.0:
                rows, cols = mt.sample_entries(rng, 8)
                assert np.all(A[rows, cols] != 0.0)
        weights = np.abs(A) ** p
        np.testing.assert_allclose(mt.dense(), A, rtol=1e-12)
        np.testing.assert_allclose(mt.column_pnorm_powers(), weights.sum(axis=0), rtol=1e-12)
        if weights.sum() > 0.0:
            probabilities = mt._columns()[0].T / mt._tree.query_pnorm_power()
            np.testing.assert_allclose(probabilities, weights / weights.sum(), rtol=1e-12)
        else:
            with pytest.raises(EmptyDistributionError):
                mt.sample_entries(rng, 1)
        mt.audit()

    # first draws for stream (2024, 0) and (2024, 1), recorded when the scalar
    # descent took one uniform per draw, as the vectorised one does; the scalar
    # paths must keep reproducing them
    GOLDEN = {
        1.0: (
            [(4, 2), (3, 2), (3, 1), (3, 2), (4, 1), (3, 0), (2, 1), (1, 2)],
            [3, 2, 3, 0, 3, 1],
            [(0, 2, 12), (0, 3, 15), (3, 1, 9), (1, 1, 9), (4, 1, 9), (1, 1, 9)],
        ),
        1.5: (
            [(4, 2), (3, 2), (2, 1), (3, 2), (3, 1), (0, 1), (2, 1), (1, 2)],
            [3, 2, 3, 0, 3, 1],
            [(0, 2, 12), (0, 3, 15), (4, 3, 15), (1, 1, 9), (1, 4, 18), (4, 1, 9)],
        ),
        2.0: (
            [(4, 2), (2, 2), (2, 1), (3, 2), (2, 1), (0, 1), (2, 1), (1, 2)],
            [3, 2, 3, 0, 3, 1],
            [(2, 2, 12), (0, 3, 15), (4, 3, 15), (1, 1, 9), (1, 4, 18), (4, 1, 9)],
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
        got = [v.hex() for v in mt.column_pnorm_powers().tolist()] + [mt._tree.query_pnorm_power().hex()]
        assert got == ["0x1.539c10b306cd0p+2", "0x1.7e827999fcef3p+3", "0x1.6ade19de71226p+3",
                       "0x1.c9974de8f8bc1p+4"]


class TestBatchedStreamsGolden:
    """sha256 of the batched draws (``sample_indices``, ``sample_entries``,
    ``sample_rows``) and of ``to_bytes`` on sizes that exercise padding.  The
    node layout may move; the streams and the byte format may not."""

    GOLDEN = {
        1.0: "6e10d08a2ccdd10b0f82fa0b7ebe429b577ec914d9c9c5f023eeac35563d9739",
        1.5: "d5785cb27c4918bca638692711938cbb1d117757f08a3dce81b3e98e1308befe",
        2.0: "317cd82f6bee00e2d119d352ff570b192681acf4d42ebb507d91050280736ac3",
    }

    @staticmethod
    def streams_digest(p):
        digest = hashlib.sha256()
        for k, n in enumerate((1, 5, 1000, 4097)):
            x = stream(81, k).normal(size=n)
            x[1::3] = 0.0
            tree = build_vector_tree(x, p)
            digest.update(tree.to_bytes())
            digest.update(tree.sample_indices(stream(82, k), 3000).astype("<i8").tobytes())
        for k, (m, n) in enumerate(((7, 3), (300, 5))):
            A = stream(83, k).normal(size=(m, n))
            A[::4] = 0.0
            mt = build_matrix_tree(A, p)
            digest.update(mt._tree.to_bytes())
            rows, cols = mt.sample_entries(stream(84, k), 3000)
            digest.update(rows.astype("<i8").tobytes() + cols.astype("<i8").tobytes())
            cols = stream(85, k).integers(n, size=3000)
            digest.update(mt.sample_rows(cols, stream(86, k)).astype("<i8").tobytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("p", sorted(GOLDEN))
    def test_batched_streams_golden(self, p):
        assert self.streams_digest(p) == self.GOLDEN[p]
