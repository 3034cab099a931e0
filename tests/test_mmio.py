import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from altiter.errors import MatrixMarketError
from altiter.mmio import load_matrix, save_matrix


class TestArrayLayout:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "eye.mtx"
        save_matrix(path, np.eye(2))
        np.testing.assert_array_equal(load_matrix(path), np.eye(2))

    def test_round_trip_is_bit_identical(self, tmp_path, rng):
        a = rng.standard_normal((4, 3)) * np.pi
        path = tmp_path / "a.mtx"
        save_matrix(path, a)
        b = load_matrix(path)
        assert np.array_equal(a, b)  # exact, not approximate
        path2 = tmp_path / "b.mtx"
        save_matrix(path2, b)
        assert path.read_text() == path2.read_text()

    def test_vector_is_written_as_a_column(self, tmp_path):
        path = tmp_path / "v.mtx"
        save_matrix(path, np.array([1.0, 1.0, 0.0]))
        b = load_matrix(path)
        assert b.shape == (3, 1)
        np.testing.assert_array_equal(b[:, 0], [1.0, 1.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(arrays(
        np.float64,
        st.one_of(st.tuples(st.integers(1, 6), st.integers(1, 6)), st.tuples(st.integers(1, 6))),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ))
    @example(np.array([[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308]]))
    @example(np.array([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]))
    def test_round_trip_property(self, tmp_path_factory, a):
        path = tmp_path_factory.mktemp("prop") / "a.mtx"
        save_matrix(path, a)
        b = load_matrix(path)
        assert b.shape == (a.shape if a.ndim == 2 else (a.shape[0], 1))
        assert b.tobytes() == a.tobytes()

    def test_column_major_storage(self, tmp_path):
        path = tmp_path / "cm.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n"
        )
        np.testing.assert_array_equal(
            load_matrix(path), np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        )

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n% comment\n\n1 1\n% more\n7.5\n"
        )
        np.testing.assert_array_equal(load_matrix(path), [[7.5]])

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")
        with pytest.raises(MatrixMarketError):
            load_matrix(path)

    def test_bad_entry_after_comments_and_blanks_reports_its_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n% c\n2 2\n1.0\n\n% note\n"
            "2.0\n   \n  %x\n3.0\nbad\n4.0\n"
        )
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == 11
        assert "bad entry 'bad'" in str(excinfo.value)

    def test_count_mismatch_reports_last_data_line(self, tmp_path):
        # trailing comment and blank lines do not move the reported line
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n% end\n\n")
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == 5
        assert "expected 4 entries, found 3" in str(excinfo.value)
        path.write_text("%%MatrixMarket matrix array real general\n% c\n2 2\n% none\n")
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == 3

    def test_line_numbers_across_a_long_body(self, tmp_path):
        # a body of about 90 KB, with comment and blank lines interleaved
        rows = cols = 100
        lines = ["%%MatrixMarket matrix array real general", "% c", f"{rows} {cols}"]
        data_lines = []
        for k in range(rows * cols):
            if k % 7 == 3:
                lines.append("% note")
            if k % 11 == 5:
                lines.append("   ")
            lines.append(repr(k + 0.25))
            data_lines.append(len(lines))
        path = tmp_path / "long.mtx"
        path.write_text("\n".join(lines) + "\n% trailing\n\n")
        expected = (np.arange(rows * cols) + 0.25).reshape(cols, rows).T
        np.testing.assert_array_equal(load_matrix(path), expected)
        bad = 9001
        path.write_text("\n".join(lines[:data_lines[bad] - 1] + ["oops"] + lines[data_lines[bad]:]))
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == data_lines[bad]
        path.write_text("\n".join(lines[:data_lines[-2]]) + "\n% trailing\n\n")
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == data_lines[-2]
        assert f"expected {rows * cols} entries, found {rows * cols - 1}" in str(excinfo.value)

    def test_float_spellings_accepted(self, tmp_path):
        path = tmp_path / "f.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 3\n1000.\n-2E-3\n+.5\n")
        np.testing.assert_array_equal(load_matrix(path), [[1000.0, -0.002, 0.5]])

    def test_bad_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 2\n1.0\noops\n")
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == 4


class TestCoordinateLayout:
    def test_diagonal(self, tmp_path):
        path = tmp_path / "coo.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3\n2 2 5\n"
        )
        np.testing.assert_array_equal(load_matrix(path), np.diag([3.0, 5.0]))

    def test_round_trip(self, tmp_path):
        # a hand-written 3x4 file whose middle row has no entries
        path = tmp_path / "coo.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 4 5\n"
            "1 1 0.5\n3 2 -1.25\n1 4 2.0\n3 4 7.0\n1 3 -0.125\n"
        )
        np.testing.assert_array_equal(
            load_matrix(path),
            [[0.5, 0.0, -0.125, 2.0], [0.0, 0.0, 0.0, 0.0], [0.0, -1.25, 0.0, 7.0]],
        )

    @pytest.mark.parametrize("rows, cols", ((2, 2), (0, 0), (0, 3), (3, 0)))
    def test_no_entries_loads_zeros(self, rows, cols, tmp_path):
        path = tmp_path / "coo.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n{rows} {cols} 0\n")
        np.testing.assert_array_equal(load_matrix(path), np.zeros((rows, cols)))

    def test_integer_field_accepted(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n2 2 1\n2 1 -4\n"
        )
        np.testing.assert_array_equal(load_matrix(path), [[0.0, 0.0], [-4.0, 0.0]])

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == 3

    def test_nnz_mismatch(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError):
            load_matrix(path)


class TestHeaders:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("2 2\n1\n2\n3\n4\n")
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == 1

    def test_unsupported_symmetry(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n1 1\n1.0\n")
        with pytest.raises(MatrixMarketError):
            load_matrix(path)

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0 0.0\n")
        with pytest.raises(MatrixMarketError):
            load_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("")
        with pytest.raises(MatrixMarketError):
            load_matrix(path)

    def test_bad_dimensions_report_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\ntwo 2\n")
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == 2


ARRAY = "%%MatrixMarket matrix array real general\n"
COORDINATE = "%%MatrixMarket matrix coordinate real general\n"


class TestErrorPaths:
    """Each parse failure names its line and its cause."""

    @pytest.mark.parametrize(
        "text, line, message",
        (
            pytest.param("%%MatrixMarket vector array real general\n1 1\n1\n", 1,
                         "unsupported object 'vector' (only 'matrix')", id="object"),
            pytest.param("%%MatrixMarket matrix dense real general\n1 1\n1\n", 1,
                         "unsupported format 'dense'", id="format"),
            pytest.param(ARRAY, 2, "missing size line", id="header-only"),
            pytest.param(ARRAY + "% a\n% b\n\n", 5, "missing size line", id="no-size-line"),
            pytest.param(COORDINATE + "% a\n", 3, "missing size line", id="coordinate-no-size"),
            pytest.param(ARRAY + "% c\n1 2 3\n1\n2\n", 3,
                         "array size line must be 'rows cols'", id="array-size-arity"),
            pytest.param(ARRAY + "2 -1\n", 2, "dimensions must be nonnegative",
                         id="array-negative"),
            pytest.param(COORDINATE + "2 2\n1 1 1.0\n", 2,
                         "coordinate size line must be 'rows cols nnz'", id="coordinate-size-arity"),
            pytest.param(COORDINATE + "2 x 1\n1 1 1.0\n", 2, "bad size line '2 x 1'",
                         id="coordinate-size-token"),
            pytest.param(COORDINATE + "2 2 -1\n", 2, "sizes must be nonnegative",
                         id="coordinate-negative"),
            pytest.param(COORDINATE + "2 2 2\n1 1 1.0\n\n2 2\n", 5,
                         "coordinate entries need 'row col value'", id="entry-arity"),
            pytest.param(COORDINATE + "2 2 1\n% c\n1 a 1.0\n", 4, "bad entry '1 a 1.0'",
                         id="entry-token"),
            # int and float take PEP 515 digit grouping; MatrixMarket numbers have none
            pytest.param(ARRAY + "1 2\n% c\n1.0\n1_0\n", 5, "bad entry '1_0'",
                         id="array-entry-underscore"),
            pytest.param(ARRAY + "0_1 1\n5\n", 2, "bad dimensions '0_1 1'",
                         id="array-size-underscore"),
            pytest.param(COORDINATE + "2 2 1\n1 1 1_0\n", 3, "bad entry '1 1 1_0'",
                         id="coordinate-value-underscore"),
            pytest.param(COORDINATE + "2 2 1\n0_1 1 1.0\n", 3, "bad entry '0_1 1 1.0'",
                         id="coordinate-index-underscore"),
            pytest.param(COORDINATE + "2 2 0_1\n1 1 1.0\n", 2, "bad size line '2 2 0_1'",
                         id="coordinate-size-underscore"),
        ),
    )
    def test_reports_line_and_message(self, text, line, message, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert excinfo.value.line == line
        assert str(excinfo.value) == f"line {line}: {message}"


_FORMATS = (repr, "%.17g".__mod__, "%.6e".__mod__)
# values that overflow, underflow or round to an extreme, and unusual valid spellings
_EDGE_SPELLINGS = ("1e400", "-1e400", "1e-400", "2.4703282292062328e-324", "-0", "+.5",
                   "1000.", "4.9406564584124654e-324", "1.7976931348623158e308", "NaN", "-Inf")


@pytest.mark.filterwarnings("error")
class TestArrayBody:
    """Bodies that numpy's reader rejects, or might read otherwise than Python's float."""

    def test_value_followed_by_comment_is_a_bad_entry(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(ARRAY + "1 2\n1.0 % text\n2.0\n")
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert str(excinfo.value) == "line 3: bad entry '%'"

    def test_lines_of_differing_lengths_are_read_in_file_order(self, tmp_path):
        path = tmp_path / "ragged.mtx"
        path.write_text(ARRAY + "2 2\n1 2\n3\n4\n")
        np.testing.assert_array_equal(load_matrix(path), [[1.0, 3.0], [2.0, 4.0]])

    def test_whitespace_only_lines_and_crlf_endings(self, tmp_path):
        path = tmp_path / "crlf.mtx"
        path.write_bytes(
            ARRAY.replace("\n", "\r\n").encode() + b"1 2\r\n \t \r\n1.5\r\n\r\n  -2\t\r\n"
        )
        np.testing.assert_array_equal(load_matrix(path), [[1.5, -2.0]])

    @pytest.mark.parametrize("cols", (0, 3))
    def test_empty_matrix_without_body(self, cols, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text(ARRAY + f"0 {cols}\n")
        assert load_matrix(path).shape == (0, cols)

    def test_missing_body_is_a_count_error_at_the_size_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(ARRAY + "2 2\n")
        with pytest.raises(MatrixMarketError) as excinfo:
            load_matrix(path)
        assert str(excinfo.value) == "line 2: expected 4 entries, found 0"

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.sampled_from(_FORMATS), st.floats()).map(lambda fv: fv[0](fv[1])),
            st.sampled_from(_EDGE_SPELLINGS),
        ),
        min_size=1, max_size=12,
    ), st.integers(1, 3))
    @example(list(_EDGE_SPELLINGS), 1)
    def test_tokens_read_as_python_float(self, tmp_path_factory, tokens, per_line):
        path = tmp_path_factory.mktemp("tokens") / "t.mtx"
        lines = [" ".join(tokens[i:i + per_line]) for i in range(0, len(tokens), per_line)]
        path.write_text(ARRAY + f"{len(tokens)} 1\n" + "\n".join(lines) + "\n")
        expected = np.array([float(tok) for tok in tokens]).reshape(-1, 1)
        assert load_matrix(path).tobytes() == expected.tobytes()

