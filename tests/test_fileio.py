import errno
import os
import re
import sys
import tracemalloc
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
    _STATS_COLUMNS,
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

    for read, data, size in ((read_ppm, b"P6\n0 2\n255\n", "0x2"), (read_pgm, b"P5\n2 0\n255\n", "2x0")):
        empty = tmp_path / "d.img"
        empty.write_bytes(data)
        with pytest.raises(ValueError, match=f"image dimensions must be positive, got {size}$"):
            read(str(empty))


@pytest.mark.parametrize("data", [
    b"P61 1 255\n\x01\x02\x03",  # no whitespace after the magic number
    b"P6 1 1 255#c\n\x01\x02\x03",  # a comment, not one whitespace byte, after maxval
    b"P6 1 1 255",  # nothing after maxval
    b"P6 1 1",
    # A width int() refuses to convert.
    pytest.param(b"P6\n" + b"1" * 5000 + b" 1\n255\n\x01\x02\x03", id="5000-digit-width"),
])
def test_netpbm_malformed_header(tmp_path, data):
    path = tmp_path / "h.ppm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="truncated or malformed header"):
        read_ppm(str(path))


def test_write_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        write_pgm(str(tmp_path / "x.pgm"), np.full((2, 2), 1.5))


@pytest.mark.parametrize("write, shape, message", [
    (write_ppm, (2, 2), r"PPM output requires an \(h, w, 3\) image, got shape \(2, 2\)$"),
    (write_ppm, (2, 2, 1), r"PPM output requires an \(h, w, 3\) image, got shape \(2, 2, 1\)$"),
    (write_pgm, (2, 2, 3), r"PGM output requires an \(h, w\) image, got shape \(2, 2, 3\)$"),
])
def test_write_rejects_the_wrong_shape(tmp_path, write, shape, message):
    path = tmp_path / "x.img"
    with pytest.raises(ValueError, match=message):
        write(str(path), np.full(shape, 0.5))
    assert not path.exists()


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


@pytest.mark.parametrize("text, message", [
    ("d0,d1\n1,2,3\n4,5,6\n", "vector CSV row 1: expected 2 columns, got 3"),
    ("d0,d1,d2\n1,2\n", "vector CSV row 1: expected 3 columns, got 2"),
    ("d7,d3\n1,2\n", "vector CSV header, column 1: expected d0, got d7"),
    ("d0,d2,d1\n1,2,3\n", "vector CSV header, column 2: expected d1, got d2"),
    ("d0,d01\n1,2\n", "vector CSV header, column 2: expected d1, got d01"),
])
def test_a_d_header_sets_the_width_of_its_rows(text, message):
    fast, exact = read_both(parse_vectors_csv, text)
    assert fast == exact == ("error", message)


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
    path.write_text("1,2,3\n4,x,6\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: landmark CSV row 2, column 2: "):
        load_landmarks_csv(str(path))


# Each reader, the error type it raises, the name its read failures give the
# file, and a file it reads but cannot parse, with the start of that message.
READERS = [
    (load_arch, ArchParseError, "architecture file", b"{", "malformed architecture file"),
    (load_vectors_csv, ValueError, "vector CSV", b"1,x\n", "vector CSV row 1, column 2"),
    (load_stats_csv, ValueError, "statistics CSV", b"1,2\n", "statistics CSV must start with header"),
    (load_landmarks_csv, ValueError, "landmark CSV", b"1,2\n", "landmark CSV must have 3 or 204"),
    (read_ppm, ValueError, "image", b"P5\n1 1\n255\n\0", "expected P6 image data"),
    (read_pgm, ValueError, "image", b"P5\n2 2\n255\n\0\0\0", "expected 4 raster bytes, got 3"),
]


def test_undecodable_files_name_the_path(tmp_path):
    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes(b"\xff1,2\n")
    for load, error, what, _, _ in READERS:
        cases = [(tmp_path / "gone", "No such file"), (tmp_path, "Is a directory")]
        if what != "image":  # images are read as bytes: there, such a file is a bad header
            cases.append((undecodable, "'utf-8' codec"))
        for path, reason in cases:
            message = f"^cannot read {what} {re.escape(str(path))}: .*{reason}"
            with pytest.raises(error, match=message) as info:
                load(str(path))
            assert info.type is error


@pytest.mark.parametrize("load, error, data, message", [r[:2] + r[3:] for r in READERS])
def test_malformed_files_name_the_path(tmp_path, load, error, data, message):
    path = tmp_path / "bad"
    path.write_bytes(data)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: {re.escape(message)}") as info:
        load(str(path))
    assert info.type is error


def _raise(exc):
    def fake(*args):
        raise exc
    return fake


@pytest.mark.parametrize("name, fake, error", [
    ("replace", _raise(OSError(errno.ENOSPC, "No space left on device")), OSError),
    ("replace", _raise(KeyboardInterrupt()), KeyboardInterrupt),
    ("access", lambda *args: False, PermissionError),  # a read-only file, to a user other than root
])
def test_failed_write_keeps_the_target(tmp_path, monkeypatch, name, fake, error):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old bytes\n")
    monkeypatch.setattr(fileio.os, name, fake)
    with pytest.raises(error) as info:
        save_vectors_csv(str(path), np.ones((3, 4)))
    if error is not KeyboardInterrupt:
        assert str(info.value).endswith(f": {str(path)!r}")
    assert path.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_writes_keep_symlinks_and_modes(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    link.symlink_to(target.name)  # dangling until the first write
    save_vectors_csv(str(link), [[1.0]])
    target.chmod(0o640)
    save_vectors_csv(str(link), [[1.5, 2.0]])
    assert link.is_symlink() and target.read_text() == "1.5,2.0\n"
    assert target.stat().st_mode & 0o777 == 0o640
    with pytest.raises(OSError, match=re.escape(repr(str(tmp_path / "new") + os.sep))):
        save_vectors_csv(str(tmp_path / "new") + os.sep, [[1.0]])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]
    save_vectors_csv(os.devnull, [[1.0]])  # not a regular file: written in place


def test_two_outputs_onto_one_file_are_refused(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old bytes\n")
    name = str(path)  # one string object for both: refused by value, not identity
    with pytest.raises(ValueError, match=re.escape(f"{name}: two outputs would be written to one file")):
        fileio._save((os.devnull, "x\n"), (name, "a\n"), (name, "b\n"))
    assert path.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_missing_file_mentions_path():
    with pytest.raises(ValueError, match="nowhere.csv"):
        load_vectors_csv("/nowhere.csv")


# ------------------------------------------- numpy's reader against the exact one ---

def read_both(parse, text):
    """The outcome of ``parse(text)`` with numpy's reader tried at every size, then at none.

    An outcome is the error message, or the dtype, shape and bytes of each array.
    """
    def outcome(min_chars):
        with mock.patch.object(fileio, "C_READER_MIN_CHARS", min_chars):
            try:
                result = parse(text)
            except ValueError as exc:
                return "error", str(exc)
        arrays = (result,) if isinstance(result, np.ndarray) else (result.mu, result.sigma)
        return "ok", [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    return outcome(0), outcome(sys.maxsize)


def served_by_loadtxt(text, columns=None):
    """Whether numpy's C reader reads ``text``, its line ends made ``\\n`` as ``_numeric_csv`` does."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return fileio._loadtxt(text, "CSV", columns) is not None


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


EDGE_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-0.0, 5e-324, 1e308])).map(repr)


@st.composite
def matrix_csv_texts(draw):
    """A vector or statistics CSV of ``repr``-rendered numbers, at most one cell gone wrong."""
    lines = draw(st.lists(st.sampled_from(["# note", "", " "]), max_size=2))
    if draw(st.booleans()):
        width, head = 3, ["dim,mu,sigma"]
        rows = [[str(i), draw(EDGE_NUMBERS), draw(EDGE_NUMBERS)]
                for i in range(draw(st.integers(1, 4)))]
    else:
        width = draw(st.integers(1, 4))
        head = draw(st.sampled_from([[], [",".join(f"d{j}" for j in range(width))]]))
        rows = draw(st.lists(st.lists(EDGE_NUMBERS, min_size=width, max_size=width),
                             min_size=1, max_size=4))
    fault = draw(st.sampled_from([None, "short", "x", "nan", "inf"]))
    if fault:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "short":
            row.pop()
        else:
            row[draw(st.integers(0, width - 1))] = fault
    return "".join(line + "\n" for line in lines + head + [",".join(row) for row in rows])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(matrix_csv_texts())
def test_readers_agree_on_either_side_of_the_size_constant_property(text):
    for parse in (parse_vectors_csv, parse_stats_csv):
        fast, exact = read_both(parse, text)
        assert fast == exact


def test_error_precedence_on_either_side():
    # csv, header, width and parse errors first, in file order; then the first
    # non-finite cell, row-major.
    for parse, text, message in [
        (parse_vectors_csv, f"1,2\n3\n4,{'1' * 140_001}\n", "vector CSV row 2: expected 2 columns, got 1"),
        (parse_vectors_csv, "# a\nd0,d1\n\n", "vector CSV contains only a header row"),
        (parse_stats_csv, "dim,mu,sigma\n", "statistics CSV contains only a header row"),
        (parse_vectors_csv, "1,2\n3,nan\n5,6\n7,8\n9\n", "vector CSV row 5: expected 2 columns"),
        (parse_stats_csv, "dim,mu,sigma\n0,1,1\n1,nan,1\n2,1,1\n3,1,1\n4,x,1\n",
         "statistics CSV row 5, column 2: could not convert string to float: 'x'"),
        (parse_vectors_csv, "1,2\n3,-inf\nnan,6\n", "vector CSV row 2, column 2: non-finite value -inf"),
    ]:
        fast, exact = read_both(parse, text)
        assert fast == exact
        assert fast[0] == "error" and fast[1].startswith(message)


def test_small_malformed_texts_never_reach_numpy(monkeypatch):
    # Every error below the size constant is the exact reader's, raised before numpy is touched.
    monkeypatch.setattr(fileio, "_loadtxt", None)
    monkeypatch.setattr(fileio, "np", None)
    for text in ("1,2\n3\n", "1,2\n3,x\n", "1,2\n3,inf\n", "d0,d1\n", "# only\n"):
        with pytest.raises(ValueError):
            parse_vectors_csv(text)


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
    assert served_by_loadtxt(text, _STATS_COLUMNS)
    assert read_both(parse_stats_csv, text)[0] == read_both(parse_stats_csv, text)[1]


def test_numpy_reader_holds_no_copy_of_the_text():
    # Either reader gets the text a line at a time: the peak stays below the
    # text's own size (about 0.6x; a StringIO of it alone takes 4 bytes a character).
    # One quoted cell makes the C reader decline, so the exact reader reads it all.
    text = vectors_csv(np.random.default_rng(0).normal(size=(40, 4928)), header=True)
    for text in (text, re.sub(r"\n([^,]*),", r'\n"\1",', text, count=1)):
        tracemalloc.start()
        try:
            data = parse_vectors_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.shape == (40, 4928)
        assert peak < len(text)


@pytest.mark.parametrize("cell", ["1" * 140_001, "0.5" + " " * 140_000])
def test_over_limit_cell_names_the_line(cell):
    message = "line 2: field larger than field limit (131072)"
    with pytest.raises(ValueError) as vector_error:
        parse_vectors_csv(f"1,2\n3,{cell}\n")
    assert str(vector_error.value) == f"vector CSV {message}"
    with pytest.raises(ValueError) as stats_error:
        parse_stats_csv(f"dim,mu,sigma\n0,{cell},1\n")
    assert str(stats_error.value) == f"statistics CSV {message}"
