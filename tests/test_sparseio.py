import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpsample.randkit import stream, uniform
from lpsample.sparseio import SparseFormatError, SparseMatrix, load_matrix, synthetic_sparse
from oracles import dense_from_triplets, parse_entry_lines, to_dense


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCsvCoo:
    def test_three_entries(self, tmp_path):
        path = write(tmp_path, "a.csv", "3,4\n1,1,2.5\n2,3,-1\n3,4,0.5\n")
        matrix = load_matrix(path)
        assert (matrix.m, matrix.n, matrix.nnz) == (3, 4, 3)
        dense = to_dense(matrix)
        assert dense[0, 0] == 2.5
        assert dense[1, 2] == -1
        assert dense[2, 3] == 0.5

    def test_duplicates_summed(self, tmp_path):
        path = write(tmp_path, "a.csv", "2,2\n1,1,2\n1,1,3\n")
        matrix = load_matrix(path)
        assert matrix.nnz == 1
        assert to_dense(matrix)[0, 0] == 5

    def test_out_of_range_row_names_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "2,2\n1,1,1\n5,1,1\n")
        with pytest.raises(SparseFormatError, match="line 3"):
            load_matrix(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = write(tmp_path, "a.csv", "2,2\n1,x,1\n")
        with pytest.raises(SparseFormatError, match="line 2"):
            load_matrix(path)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "a.csv", "")
        with pytest.raises(SparseFormatError, match="no dimension header"):
            load_matrix(path)

    def test_comments_and_blanks(self, tmp_path):
        path = write(tmp_path, "a.csv", "# comment\n\n2,2\n# more\n1,2,7\n")
        matrix = load_matrix(path)
        assert to_dense(matrix)[0, 1] == 7

    def test_header_only_is_empty(self, tmp_path):
        matrix = load_matrix(write(tmp_path, "a.csv", "3,2\n  \n# none\n"))
        assert (matrix.m, matrix.n, matrix.nnz) == (3, 2, 0)
        assert list(matrix.indptr) == [0, 0, 0, 0]

    def test_spaces_around_fields_and_trailing_comment(self, tmp_path):
        path = write(tmp_path, "a.csv", "2,2\n  1 , 2 ,\t7  \n\t# indented comment\n2,1,3 # trailing\n")
        assert to_dense(load_matrix(path)).tolist() == [[0.0, 7.0], [3.0, 0.0]]


class TestMatrixMarket:
    HEADER = "%%MatrixMarket matrix coordinate real general\n"

    def test_basic(self, tmp_path):
        path = write(tmp_path, "a.mtx", self.HEADER + "% comment\n2 3 2\n1 1 4.0\n2 3 -2.0\n")
        matrix = load_matrix(path)
        assert (matrix.m, matrix.n, matrix.nnz) == (2, 3, 2)
        assert to_dense(matrix)[1, 2] == -2.0

    def test_auto_detection(self, tmp_path):
        path = write(tmp_path, "a.anything", self.HEADER + "1 1 1\n1 1 9\n")
        assert to_dense(load_matrix(path, "auto"))[0, 0] == 9

    def test_auto_detection_of_an_indented_header(self, tmp_path):
        path = write(tmp_path, "a.mtx", "\n   " + self.HEADER + "2 3 2\n1 1 4.0\n2 3 -2.0\n")
        auto, explicit = load_matrix(path, "auto"), load_matrix(path, "matrix-market")
        assert (auto.m, auto.n) == (explicit.m, explicit.n) == (2, 3)
        for field in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(auto, field), getattr(explicit, field))

    def test_wrong_header(self, tmp_path):
        path = write(tmp_path, "a.mtx", "%%MatrixMarket matrix array real general\n1 1 1\n")
        with pytest.raises(SparseFormatError, match="coordinate"):
            load_matrix(path)

    def test_truncated_entries(self, tmp_path):
        path = write(tmp_path, "a.mtx", self.HEADER + "2 2 3\n1 1 1\n")
        with pytest.raises(SparseFormatError, match="truncated"):
            load_matrix(path)

    def test_column_out_of_range(self, tmp_path):
        path = write(tmp_path, "a.mtx", self.HEADER + "2 2 1\n1 7 1\n")
        with pytest.raises(SparseFormatError, match="line 3"):
            load_matrix(path)

    def test_duplicates_summed(self, tmp_path):
        path = write(tmp_path, "a.mtx", self.HEADER + "2 2 2\n1 1 2\n1 1 3\n")
        assert to_dense(load_matrix(path))[0, 0] == 5

    def test_tabs_and_trailing_comment(self, tmp_path):
        path = write(tmp_path, "a.mtx", self.HEADER + "2 2 2\n1\t2\t7\n  2   1 3 % trailing\n")
        assert to_dense(load_matrix(path)).tolist() == [[0.0, 7.0], [3.0, 0.0]]


# -- error location --------------------------------------------------------------

# (bad entry line with fields separated by {s}, expected message after "line N: ")
BAD_ENTRIES = {
    "non-numeric": ("1{s}x{s}1", "non-numeric field"),
    "non-numeric-value": ("1{s}2{s}abc", "non-numeric field"),
    "two-fields": ("1{s}1", "expected 'row{s}col{s}value'"),
    "four-fields": ("1{s}1{s}1{s}1", "expected 'row{s}col{s}value'"),
    "fractional-row": ("1.5{s}1{s}1", "non-numeric field"),
    "underscore-row": ("1_0{s}1{s}1", "non-numeric field"),
    "row-out-of-range": ("9{s}1{s}1", "row index 9 outside 1..3"),
    "row-zero": ("0{s}1{s}1", "row index 0 outside 1..3"),
    "column-out-of-range": ("1{s}9{s}1", "column index 9 outside 1..4"),
    "column-negative": ("1{s}-2{s}1", "column index -2 outside 1..4"),
    "infinite": ("1{s}1{s}inf", "non-finite value"),
    "nan": ("1{s}1{s}nan", "non-finite value"),
    "overflowing": ("1{s}1{s}1e400", "non-finite value"),
}


def file_with_entry_lines(fmt, entries):
    """A 3x4 file whose entry lines are interleaved with blanks and comments; returns
    (text, 1-based line number of each entry)."""
    if fmt == "matrix-market":
        lines = ["%%MatrixMarket matrix coordinate real general", "% ratings", f"3 4 {len(entries)}"]
        comment = "% between entries"
    else:
        lines = ["# ratings", "3,4"]
        comment = "  # between entries"
    numbers = []
    for k, entry in enumerate(entries):
        lines += ["", comment] if k % 2 else ["   "]
        lines.append(entry)
        numbers.append(len(lines))
    return "\n".join(lines) + "\n", numbers


@pytest.mark.parametrize("fmt,sep", [("matrix-market", " "), ("csv-coo", ",")])
@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("kind", sorted(BAD_ENTRIES))
def test_error_names_the_bad_line(kind, position, fmt, sep, tmp_path):
    template, message = BAD_ENTRIES[kind]
    entries = [f"{k % 3 + 1}{sep}{k % 4 + 1}{sep}{k}.5" for k in range(5)]
    entries[position] = template.format(s=sep)
    text, numbers = file_with_entry_lines(fmt, entries)
    expected = f"line {numbers[position]}: {message.format(s=sep)}"
    with pytest.raises(SparseFormatError, match=f"^{re.escape(expected)}$"):
        load_matrix(write(tmp_path, "m.txt", text), fmt)


@pytest.mark.parametrize("fmt,sep", [("matrix-market", " "), ("csv-coo", ",")])
def test_first_bad_line_wins_whatever_its_kind(fmt, sep, tmp_path):
    good = f"1{sep}1{sep}1"
    out_of_range = f"9{sep}1{sep}1"
    unparsable = f"1{sep}x{sep}1"
    for bad_first, bad_second, message in (
        (out_of_range, unparsable, "row index 9 outside 1..3"),
        (unparsable, out_of_range, "non-numeric field"),
    ):
        text, numbers = file_with_entry_lines(fmt, [good, bad_first, good, bad_second, good])
        with pytest.raises(SparseFormatError, match=f"^line {numbers[1]}: {message}$"):
            load_matrix(write(tmp_path, "m.txt", text), fmt)


# -- agreement with the per-line reference parser ------------------------------------

value_text = st.one_of(
    st.floats(-1e12, 1e12, width=64).map(repr),
    st.integers(-9, 9).map(str),
    st.sampled_from(["-0.0", "0", "+2", ".5", "5.", "1e-3", "-2.5E+2"]),
)


@st.composite
def valid_files(draw):
    fmt = draw(st.sampled_from(["matrix-market", "csv-coo"]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = draw(st.lists(st.tuples(st.integers(1, m), st.integers(1, n), value_text), max_size=25))
    comment = "%" if fmt == "matrix-market" else "#"
    sep = draw(st.sampled_from([" ", "\t", "  "])) if fmt == "matrix-market" else draw(
        st.sampled_from([",", ", ", " , "]))
    fillers = st.sampled_from(["", "   ", "\t", f"{comment} note", f"  {comment} indented"])
    lines = (["%%MatrixMarket matrix coordinate real general", f"{m} {n} {len(entries)}"]
             if fmt == "matrix-market" else [f"{m},{n}"])
    first = len(lines)
    for i, j, v in entries:
        lines += draw(st.lists(fillers, max_size=2))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join([str(i), str(j), v]))
    lines += draw(st.lists(fillers, max_size=2))
    return fmt, m, n, lines, first, comment, sep.strip() or None


@settings(max_examples=150, deadline=None)
@given(valid_files())
def test_parser_agrees_with_per_line_oracle(tmp_path_factory, case):
    fmt, m, n, lines, first, comment, sep = case
    path = tmp_path_factory.mktemp("agree") / "m.txt"
    path.write_text("\n".join(lines) + "\n")
    matrix = load_matrix(path, fmt)
    triplets = parse_entry_lines(lines, first, comment, sep, m, n)
    assert (matrix.m, matrix.n) == (m, n)
    assert matrix.nnz == len({(i, j) for i, j, _ in triplets})
    # duplicates may be summed in another order: allow a few ulps of the summed magnitudes
    scale = dense_from_triplets(m, n, [(i, j, abs(v)) for i, j, v in triplets])
    error = np.abs(to_dense(matrix) - dense_from_triplets(m, n, triplets))
    assert np.all(error <= 32 * np.finfo(np.float64).eps * scale)


BAD_LINES = ["1{s}x{s}1", "1{s}1", "1{s}1{s}1{s}1", "1.5{s}1{s}1", "9{s}1{s}1", "1{s}9{s}1", "1{s}1{s}inf"]


@settings(max_examples=100, deadline=None)
@given(valid_files(), st.data())
def test_error_line_agrees_with_per_line_oracle(tmp_path_factory, case, data):
    fmt, m, n, lines, first, comment, sep = case
    at = data.draw(st.integers(first, len(lines)))
    bad = data.draw(st.sampled_from(BAD_LINES)).format(s=sep or " ")
    lines = lines[:at] + [bad.replace("9", str(max(m, n) + 1))] + lines[at:]
    if fmt == "matrix-market":  # one more entry line than the size line promised
        lines[1] = f"{m} {n} {int(lines[1].split()[2]) + 1}"
    path = tmp_path_factory.mktemp("bad") / "m.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as expected:
        parse_entry_lines(lines, first, comment, sep, m, n)
    with pytest.raises(SparseFormatError) as got:
        load_matrix(path, fmt)
    assert str(got.value).split(":")[0] == str(expected.value).split(":")[0] == f"line {at + 1}"


# -- CSR rows -----------------------------------------------------------------------

def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCsrRows:
    # row 1: an explicit zero and a -0.0; row 2: empty; row 3: duplicates that cancel;
    # row 4: a cancelling pair beside a kept value; rows 5 and 6: ordinary
    TEXT = "6,4\n1,2,0\n1,4,-0.0\n3,1,2.5\n3,1,-2.5\n4,3,1\n4,3,-1\n4,2,-3\n5,4,2\n5,1,-1\n6,3,7\n"

    def matrix(self, tmp_path):
        return load_matrix(write(tmp_path, "z.csv", self.TEXT))

    def test_rows_equal_oracle_dense_rows_bit_for_bit(self, tmp_path):
        matrix = self.matrix(tmp_path)
        dense = to_dense(matrix)
        for i in range(matrix.m):
            assert_bitwise_equal(matrix.dense_rows([i])[0], dense[i])
        for idx in ([0, 1, 2, 3, 4, 5], [5, 0, 3], [2], []):
            assert_bitwise_equal(matrix.dense_rows(np.array(idx, dtype=np.int64)), dense[idx])
        assert not np.signbit(matrix.dense_rows([0])).any()

    def test_support_and_nonzero_rows_skip_stored_zeros(self, tmp_path):
        matrix = self.matrix(tmp_path)
        dense = to_dense(matrix)
        assert matrix.nnz == 8  # stored zeros still count as stored entries
        for i in range(matrix.m):
            assert matrix.support(i).tolist() == np.flatnonzero(dense[i] != 0.0).tolist()
        assert matrix.nonzero_rows().tolist() == np.flatnonzero((dense != 0.0).any(axis=1)).tolist() == [3, 4, 5]

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 6))
    def test_random_rows_equal_oracle(self, data, m, n):
        flat = data.draw(st.lists(st.integers(0, m * n - 1), unique=True, max_size=m * n).map(sorted))
        vals = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0]), min_size=len(flat),
                                  max_size=len(flat)))
        flat = np.array(flat, dtype=np.int64)
        matrix = SparseMatrix(m, n, flat // n, flat % n, np.array(vals))
        dense = to_dense(matrix)
        assert_bitwise_equal(matrix.dense_rows(np.arange(m)), dense)
        for i in range(m):
            assert matrix.support(i).tolist() == np.flatnonzero(dense[i]).tolist()
        assert matrix.nonzero_rows().tolist() == np.flatnonzero(dense.any(axis=1)).tolist()

    @pytest.mark.parametrize("rows,cols", [([1, 0], [0, 0]), ([0, 0], [1, 1]), ([0, 2], [0, 0]), ([0], [-1])])
    def test_unsorted_duplicate_or_out_of_range_entries_are_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="sorted row-major"):
            SparseMatrix(2, 2, np.array(rows), np.array(cols), np.ones(len(rows)))


class TestSynthetic:
    def test_density_and_values(self):
        matrix = synthetic_sparse(100, 80, 0.1, uniform(1, 5), stream(1, 0))
        assert (matrix.m, matrix.n) == (100, 80)
        assert 0.07 < matrix.density < 0.13
        assert np.all(matrix.vals >= 1.0)
        assert np.all(matrix.vals <= 5.0)

    def test_bad_density(self):
        with pytest.raises(ValueError):
            synthetic_sparse(4, 4, 0.0, uniform(0, 1), stream(0, 0))

    def test_full_density_fills_every_entry_in_row_major_order(self):
        matrix = synthetic_sparse(3, 5, 1.0, uniform(1, 2), stream(0, 0))
        assert matrix.rows.tolist() == np.repeat(np.arange(3), 5).tolist()
        assert matrix.cols.tolist() == np.tile(np.arange(5), 3).tolist()

    def test_every_entry_equally_likely(self):
        # over many draws each of the 4 x 5 positions is filled with probability density
        counts = np.zeros((4, 5))
        for seed in range(400):
            matrix = synthetic_sparse(4, 5, 0.3, uniform(1, 2), stream(seed, 0))
            counts[matrix.rows, matrix.cols] += 1
        freq = counts / 400
        assert np.all(np.abs(freq - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 400))

    def test_memory_is_order_nnz(self):
        tracemalloc.start()
        try:
            matrix = synthetic_sparse(20_000, 5_000, 0.001, uniform(1, 5), stream(0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 90_000 < matrix.nnz < 110_000
        assert peak < 20 * 2**20  # the dense 10^8-entry mask alone was 800 MB
