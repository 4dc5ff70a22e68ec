import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from genfields.regularizer import load_stats_csv, parse_stats_csv


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
