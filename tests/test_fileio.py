import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfields import fileio
from genfields.archgraph import ArchParseError, load_arch
from genfields.fileio import (
    load_landmarks_csv,
    load_vectors_csv,
    parse_vectors_csv,
    read_pgm,
    read_ppm,
    save_vectors_csv,
    vectors_csv,
    write_pgm,
    write_ppm,
)
from genfields.regularizer import (
    _stats_header,
    estimate_stats,
    load_stats_csv,
    parse_stats_csv,
    stats_csv,
)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(7, 5, 3)).astype(float) / 255.0
    path = tmp_path / "img.ppm"
    write_ppm(str(path), img)
    back = read_ppm(str(path))
    np.testing.assert_allclose(back, img, atol=1e-12)
    assert back.min() >= 0.0 and back.max() <= 1.0


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(4, 9)).astype(float) / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(str(path), img)
    np.testing.assert_allclose(read_pgm(str(path)), img, atol=1e-12)


def test_pgm_header_comments_and_maxval(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n# another\n100\n" + bytes([0, 50, 100, 25]))
    img = read_pgm(str(path))
    np.testing.assert_allclose(img, [[0.0, 0.5], [1.0, 0.25]])


def test_netpbm_errors(tmp_path):
    bad_magic = tmp_path / "a.ppm"
    bad_magic.write_bytes(b"P3\n1 1\n255\n0 0 0")
    with pytest.raises(ValueError, match="P6"):
        read_ppm(str(bad_magic))

    truncated = tmp_path / "b.ppm"
    truncated.write_bytes(b"P6\n2 2\n255\n\x00\x00")
    with pytest.raises(ValueError, match="raster"):
        read_ppm(str(truncated))

    wide = tmp_path / "c.pgm"
    wide.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValueError, match="8-bit"):
        read_pgm(str(wide))


@pytest.mark.parametrize("data", [
    b"P61 1 255\n\x01\x02\x03",  # no whitespace after the magic number
    b"P6 1 1 255#c\n\x01\x02\x03",  # a comment, not one whitespace byte, after maxval
    b"P6 1 1 255",  # nothing after maxval
    b"P6 1 1",
])
def test_netpbm_malformed_header(tmp_path, data):
    path = tmp_path / "h.ppm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="truncated or malformed header"):
        read_ppm(str(path))


def test_write_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        write_pgm(str(tmp_path / "x.pgm"), np.full((2, 2), 1.5))


@pytest.mark.parametrize("write, shape", [(write_pgm, (2, 2)), (write_ppm, (2, 2, 3))])
def test_write_rejects_nan_without_warning(tmp_path, write, shape):
    img = np.full(shape, 0.5)
    img[1, 0] = np.nan
    path = tmp_path / "x.img"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN must not reach the uint8 cast
        with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
            write(str(path), img)
    assert not path.exists()


def test_vectors_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(4, 6))
    path = tmp_path / "v.csv"
    save_vectors_csv(str(path), data)
    np.testing.assert_array_equal(load_vectors_csv(str(path)), data)


def test_vectors_csv_header_recognized():
    data = parse_vectors_csv("d0,d1,d2\n1,2,3\n4,5,6\n")
    np.testing.assert_array_equal(data, [[1, 2, 3], [4, 5, 6]])
    text = vectors_csv(np.array([[1.5, 2.5]]), header=True)
    assert text.splitlines()[0] == "d0,d1"


def test_vectors_csv_comments_skipped():
    data = parse_vectors_csv("# header block\n# more\n1,2\n")
    np.testing.assert_array_equal(data, [[1.0, 2.0]])


def test_vectors_csv_ragged_rejected():
    with pytest.raises(ValueError, match="columns"):
        parse_vectors_csv("1,2,3\n4,5\n")


def test_vectors_csv_non_numeric_rejected():
    with pytest.raises(ValueError, match="row 1"):
        parse_vectors_csv("1,apple\n")


def test_vectors_csv_empty_rejected():
    with pytest.raises(ValueError, match="no data"):
        parse_vectors_csv("\n\n")
    with pytest.raises(ValueError, match="header"):
        parse_vectors_csv("d0,d1\n")


def test_bare_carriage_returns_end_lines():
    # as in a file opened in text mode, not csv's "new-line character seen in unquoted field"
    np.testing.assert_array_equal(parse_vectors_csv("1,2\r3,4\n"), [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(parse_vectors_csv("1,2\r\n3,4\r"), [[1.0, 2.0], [3.0, 4.0]])
    assert parse_stats_csv("dim,mu,sigma\r0,0.0,1.0\r").mu.tolist() == [0.0]


@pytest.mark.parametrize("cells, vector_message, stats_message", [
    ("1,nan", "row 2, column 2: non-finite value nan", "row 2, column 3: non-finite value nan"),
    ("-inf,1", "row 2, column 1: non-finite value -inf", "row 2, column 2: non-finite value -inf"),
    ("1,x", "row 2, column 2: could not convert string to float: 'x'",
     "row 2, column 3: could not convert string to float: 'x'"),
    ("1", "row 2: expected 2 columns, got 1", "row 2: expected 3 columns, got 2"),
])
def test_vector_and_stats_readers_share_row_errors(cells, vector_message, stats_message):
    # the same cells, after a dim column in the statistics CSV
    with pytest.raises(ValueError) as vector_error:
        parse_vectors_csv(f"0,1\n{cells}\n")
    assert str(vector_error.value) == f"vector CSV {vector_message}"
    with pytest.raises(ValueError) as stats_error:
        parse_stats_csv(f"dim,mu,sigma\n0,0,1\n1,{cells}\n")
    assert str(stats_error.value) == f"statistics CSV {stats_message}"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dims: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dims, max_size=dims),
    min_size=1, max_size=6)), st.booleans())
def test_vectors_csv_round_trip_bitwise_property(rows, header):
    matrix = np.array(rows)
    assert parse_vectors_csv(vectors_csv(matrix, header)).tobytes() == matrix.tobytes()


def test_vectors_csv_single_vector_shape():
    text = vectors_csv(np.array([1.0, 2.0, 3.0]))
    assert text == "1.0,2.0,3.0\n"


def test_landmarks_three_column_form(tmp_path):
    rng = np.random.default_rng(4)
    face = rng.uniform(0, 255, size=(68, 3))
    path = tmp_path / "lm.csv"
    save_vectors_csv(str(path), face)
    faces = load_landmarks_csv(str(path))
    assert len(faces) == 1
    np.testing.assert_array_equal(faces[0], face)


def test_landmarks_stacked_faces(tmp_path):
    rng = np.random.default_rng(5)
    stack = rng.uniform(size=(136, 3))
    path = tmp_path / "lm2.csv"
    save_vectors_csv(str(path), stack)
    faces = load_landmarks_csv(str(path))
    assert len(faces) == 2
    np.testing.assert_array_equal(faces[1], stack[68:])


def test_landmarks_wide_form(tmp_path):
    rng = np.random.default_rng(6)
    face = rng.uniform(size=(68, 3))
    path = tmp_path / "lm3.csv"
    save_vectors_csv(str(path), face.reshape(1, 204))
    faces = load_landmarks_csv(str(path))
    assert len(faces) == 1
    np.testing.assert_array_equal(faces[0], face)


def test_landmarks_bad_shapes(tmp_path):
    path = tmp_path / "bad.csv"
    save_vectors_csv(str(path), np.zeros((67, 3)))
    with pytest.raises(ValueError, match="multiple"):
        load_landmarks_csv(str(path))
    save_vectors_csv(str(path), np.zeros((2, 5)))
    with pytest.raises(ValueError, match="columns"):
        load_landmarks_csv(str(path))


def test_undecodable_files_name_the_path(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\xff1,2\n")
    for load, what in [(load_vectors_csv, "vector CSV"), (load_stats_csv, "statistics CSV")]:
        with pytest.raises(ValueError, match=f"^cannot read {what} .*latin1.csv: 'utf-8' codec"):
            load(str(path))
    with pytest.raises(ArchParseError, match="^cannot read architecture file .*latin1.csv: "):
        load_arch(str(path))


def test_missing_file_mentions_path():
    with pytest.raises(ValueError, match="nowhere.csv"):
        load_vectors_csv("/nowhere.csv")


# ------------------------------------------- numpy's reader against the exact one ---

def read_both(parse, text):
    """The outcome of ``parse(text)``, then the same with numpy's reader switched off.

    An outcome is the error message, or the dtype, shape and bytes of each array.
    """
    def outcome():
        try:
            result = parse(text)
        except ValueError as exc:
            return "error", str(exc)
        arrays = (result,) if isinstance(result, np.ndarray) else (result.mu, result.sigma)
        return "ok", [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    fast = outcome()
    with mock.patch.object(fileio, "_loadtxt", lambda *args: None):
        return fast, outcome()


def served_by_loadtxt(text):
    return fileio._loadtxt(text, fileio._vector_header, None) is not None


TOKENS = [*"0123456789.eE+-,\n\r \t#\"_d\x0c", "nan", "inf", "-inf", "1.5", "-2e-3",
          "d0,d1\n", "d0,d1,d2\n", "dim,mu,sigma\n"]
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-9, 9).map(str), st.sampled_from([" 1 ", "-0.0", "1e-320"]))
CELLS = st.one_of(NUMBERS, st.sampled_from(["nan", "-inf", "1e400", "1_0", ""]))


@st.composite
def numeric_csv_texts(draw):
    """Mostly readable vector or statistics CSVs, a few characters changed or inserted."""
    cells = draw(st.sampled_from([NUMBERS, CELLS]))
    lines = draw(st.lists(st.sampled_from(["# note", "  # x", "", " ", "\x0c"]), max_size=2))
    if draw(st.booleans()):
        lines.append("dim,mu,sigma")
        lines += [f"{i},{draw(cells)},{draw(cells)}" for i in range(draw(st.integers(0, 4)))]
    else:
        width = draw(st.integers(1, 4))
        if draw(st.booleans()):
            lines.append(",".join(f"d{j}" for j in range(width)))
        lines += [",".join(draw(st.lists(cells, min_size=width, max_size=width)))
                  for _ in range(draw(st.integers(0, 4)))]
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    for token in draw(st.just([]) | st.lists(st.sampled_from(TOKENS), max_size=2)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + token + text[at + draw(st.integers(0, 1)):]
    return text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(TOKENS), max_size=30).map("".join),
                 numeric_csv_texts()))
def test_numpy_reader_agrees_with_exact_reader_property(text):
    for parse in (parse_vectors_csv, parse_stats_csv):
        fast, exact = read_both(parse, text)
        assert fast == exact


@pytest.mark.parametrize("text, served", [
    ("1_0,2\n", False),  # float() reads underscores, loadtxt does not
    ("\u0661,\u0662\n", False),  # Unicode digits, likewise
    ('"1.0",2\n', False),  # a quoted cell
    ("1,2\n# later comment\n3,4\n", False),
    ("1,2\n \n3,4\n", False),  # blank to csv, a cell to loadtxt
    ("1,2\n\x0c\n3,4\n", False),
    (" , \n1,2\n", False),
    ('#a,"b\n1,2\n3,4\n', False),  # the comment's quoted cell runs to the end: no data rows
    ("# a\x00b\n1,2\n", False),  # csv refuses a NUL on Python 3.10
    ("1,0.5" + " " * 140_000 + "\n", False),  # a cell over csv's field limit is an error
    ("1,0.5" + " " * 131_069 + "\n", True),  # and one at the limit is not
    ("1,2\r3,4\r\n5,6", True),
    ("# c\n\n d0 , d1 \n1,2\n\n3,4", True),
    ("1\u00a0, 2\u3000\n", True),  # Unicode spaces around a number, stripped by both
    ("1e-320,-0.0,+.5,1E+2\n", True),
])
def test_numpy_reader_divergences(text, served):
    fast, exact = read_both(parse_vectors_csv, text)
    assert fast == exact
    assert served_by_loadtxt(text) == served


def test_numpy_reader_serves_the_tools_own_files():
    matrix = np.random.default_rng(5).normal(size=(4, 6))
    for text in (vectors_csv(matrix), vectors_csv(matrix, header=True), vectors_csv(matrix[0])):
        assert served_by_loadtxt(text)
    report = "# genfields 0.1.0\n# subcommand: stats\n# parameters: styles=s.csv\n"
    text = report + stats_csv(estimate_stats(matrix))
    assert fileio._loadtxt(text, _stats_header, 3) is not None
    assert read_both(parse_stats_csv, text)[0] == read_both(parse_stats_csv, text)[1]


@pytest.mark.parametrize("cell", ["1" * 140_001, "0.5" + " " * 140_000])
def test_over_limit_cell_names_the_line(cell):
    message = "line 2: field larger than field limit (131072)"
    with pytest.raises(ValueError) as vector_error:
        parse_vectors_csv(f"1,2\n3,{cell}\n")
    assert str(vector_error.value) == f"vector CSV {message}"
    with pytest.raises(ValueError) as stats_error:
        parse_stats_csv(f"dim,mu,sigma\n0,{cell},1\n")
    assert str(stats_error.value) == f"statistics CSV {message}"
