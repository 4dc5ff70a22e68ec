"""Binary image readers/writers and CSV loaders for vectors and landmarks.

Images use the binary netpbm formats: P6 (PPM, RGB) and P5 (PGM, grayscale),
8-bit only, mapped to floats in [0, 1] on load.  Vectors (style vectors,
control signals, embeddings) are CSV with one vector per row and an optional
``d0,d1,...`` header.  Landmark files hold one 68-point face per 68 rows of
x,y,z -- or, equivalently, one face per 204-column row.

Every numeric CSV is read by :func:`_numeric_csv`: numpy's C reader for a
plain file, the exact reader (csv rows, then ``float()`` per cell) for
anything else and for every error, with the same values either way.
"""

from __future__ import annotations

import csv
import io
import re
import warnings

from ._np import np
from .losses import LANDMARK_COUNT, as_image

__all__ = [
    "read_ppm",
    "read_pgm",
    "write_ppm",
    "write_pgm",
    "parse_vectors_csv",
    "load_vectors_csv",
    "csv_text",
    "vectors_csv",
    "save_vectors_csv",
    "load_landmarks_csv",
]

_MAXVAL_LIMIT = 255
# After the magic number: width, height and maxval, each after whitespace or
# '#' comments, then exactly one whitespace byte before the raster.
_NETPBM_HEADER = re.compile(rb"(?:(?:\s|#[^\n]*\n)+(\d+))" * 3 + rb"\s")


def _read_netpbm(path: str, magic: bytes, samples_per_pixel: int) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} image data")
    match = _NETPBM_HEADER.match(data, len(magic))
    if match is None:
        raise ValueError(f"{path}: truncated or malformed header")
    width, height, maxval = map(int, match.groups())
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image dimensions must be positive, got {width}x{height}")
    if not 0 < maxval <= _MAXVAL_LIMIT:
        raise ValueError(f"{path}: only 8-bit images supported, got maxval {maxval}")
    expected = width * height * samples_per_pixel
    raster = data[match.end() : match.end() + expected]
    if len(raster) != expected:
        raise ValueError(f"{path}: expected {expected} raster bytes, got {len(raster)}")
    arr = np.frombuffer(raster, dtype=np.uint8).astype(float) / maxval
    if samples_per_pixel == 1:
        return arr.reshape(height, width)
    return arr.reshape(height, width, samples_per_pixel)


def read_ppm(path: str) -> np.ndarray:
    """Read a binary P6 PPM file into an (h, w, 3) array in [0, 1]."""
    return _read_netpbm(path, b"P6", 3)


def read_pgm(path: str) -> np.ndarray:
    """Read a binary P5 PGM file into an (h, w) array in [0, 1]."""
    return _read_netpbm(path, b"P5", 1)


def _write_netpbm(path: str, magic: str, arr: np.ndarray) -> None:
    arr = as_image(arr)
    raster = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(raster.tobytes())


def write_ppm(path: str, img) -> None:
    arr = np.asarray(img, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"PPM output requires an (h, w, 3) image, got shape {arr.shape}")
    _write_netpbm(path, "P6", arr)


def write_pgm(path: str, img) -> None:
    arr = np.asarray(img, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"PGM output requires an (h, w) image, got shape {arr.shape}")
    _write_netpbm(path, "P5", arr)


_HEADER_CELL = re.compile(r"d\d+$")


def _csv_rows(text: str, what: str) -> list[list[str]]:
    """The CSV rows of ``text``, without blank rows and ``#`` comment lines; a CR ends a line.

    A line csv cannot read (a cell over ``csv.field_size_limit()`` characters; on
    Python 3.10, a NUL) raises ValueError naming it, counting lines from 1.
    """
    reader = csv.reader(io.StringIO(text, newline=None))
    try:
        return [row for row in reader
                if any(cell.strip() for cell in row) and not row[0].lstrip().startswith("#")]
    except csv.Error as exc:
        raise ValueError(f"{what} line {reader.line_num}: {exc}") from None


def _numeric_rows(rows: list[list[str]], what: str, width: int | None = None) -> np.ndarray:
    """``rows`` as a float matrix, ``width`` (default: the first row's) finite numbers each.

    Errors begin with ``what`` and name the row, counting from 1, and a bad cell's column.
    """
    if not rows:
        raise ValueError(f"{what} contains no data rows")
    width = len(rows[0]) if width is None else width
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{what} row {i + 1}: expected {width} columns, got {len(row)}")
        try:
            data[i] = [float(cell) for cell in row]
        except ValueError:
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError as exc:
                    raise ValueError(f"{what} row {i + 1}, column {j + 1}: {exc}") from None
    finite = np.isfinite(data)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{what} row {i + 1}, column {j + 1}: non-finite value {data[i, j]}")
    return data


def _long_cell(text: str, limit: int) -> bool:
    """Whether ``text``, cut at every comma and line break, has a piece over ``limit`` characters.

    Jumps to the last cut within ``limit + 1`` characters, so it costs one pass, not one step a cell.
    """
    start = 0
    while len(text) - start > limit:
        last = max(text.rfind(cut, start, start + limit + 1) for cut in ",\n\r")
        if last < 0:
            return True
        start = last + 1
    return False


def _loadtxt(text: str, header, width: int | None) -> np.ndarray | None:
    """What :func:`_numeric_csv` returns for ``text``, read by numpy's C reader; None if it may differ.

    Only the leading comment and blank lines and the header row are read here;
    loadtxt rejects any later comment, blank-looking or quoted line.  It
    converts a cell with ``PyOS_string_to_double``, as ``float()`` does, so the
    values agree bitwise, and rejects the cells only ``float()`` reads
    (``1_0``, Unicode digits).  This also declines on a quote or a NUL (which
    csv refuses on Python 3.10) before the data, a ragged, empty or non-finite
    matrix, and a cell longer than csv reads.
    """
    buf = io.StringIO(text, newline=None)
    start = 0
    for line in iter(buf.readline, ""):
        if '"' in line or "\0" in line:
            return None
        if line.strip() and not line.lstrip().startswith("#"):
            break
        start = buf.tell()
    else:
        return None
    try:
        if header([cell.strip() for cell in line.split(",")]):
            start = buf.tell()
    except ValueError:
        return None
    buf.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data" is a UserWarning
            data = np.loadtxt(buf, delimiter=",", comments=None, ndmin=2, dtype=float)
    except (ValueError, Warning):
        return None
    if ((width is not None and data.shape[1] != width) or not np.isfinite(data).all()
            or _long_cell(text, csv.field_size_limit())):
        return None
    return data


def _numeric_csv(text: str, what: str, header, width: int | None = None,
                 header_only: str | None = None) -> np.ndarray:
    """The rows of ``text`` after any header row as a float matrix: see :func:`_numeric_rows`.

    ``header(cells)`` gets the first row's stripped cells, or None if there is
    no row, and says whether that row is a header; it raises ValueError for a
    text that has the wrong one.  A header with no row after it raises
    ``header_only``, if given, or else the error for no rows.  numpy's C reader
    reads a plain text (:func:`_loadtxt`); anything else, and every error, is
    the exact reader's: csv rows, then ``float()`` per cell.
    """
    data = _loadtxt(text, header, width)
    if data is not None:
        return data
    rows = _csv_rows(text, what)
    if header([cell.strip() for cell in rows[0]] if rows else None):
        rows = rows[1:]
        if not rows and header_only:
            raise ValueError(f"{what} {header_only}")
    return _numeric_rows(rows, what, width)


def _load_csv(path: str, what: str, parse, *args):
    """``parse(text, *args)`` on the text of the file at ``path``; errors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return parse(text, *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _vector_header(cells: list[str] | None) -> bool:
    return bool(cells) and all(_HEADER_CELL.match(cell) for cell in cells)


def parse_vectors_csv(text: str) -> np.ndarray:
    """Parse CSV rows of equal width into a (rows, dims) float matrix.

    A leading ``d0,d1,...`` header row, blank rows and ``#`` comment lines are
    skipped.  Every cell must be a finite number.
    """
    return _numeric_csv(text, "vector CSV", _vector_header, header_only="contains only a header row")


def load_vectors_csv(path: str) -> np.ndarray:
    return _load_csv(path, "vector CSV", parse_vectors_csv)


def csv_text(rows) -> str:
    """Render rows, header first, as unquoted CSV: each cell's ``str``, comma-joined.

    No cell may hold a comma or a line break.  Python floats print in full.
    """
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def vectors_csv(matrix, header: bool = False) -> str:
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    head = [[f"d{j}" for j in range(arr.shape[1])]] if header else []
    return csv_text(head + arr.tolist())


def save_vectors_csv(path: str, matrix, header: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(vectors_csv(matrix, header))


def load_landmarks_csv(path: str) -> list[np.ndarray]:
    """Load one or more 68-point faces from a landmark CSV.

    Accepts rows of 3 columns (x, y, z; 68 rows per face, stacked) or rows of
    204 columns (one face per row, x1,y1,z1,x2,...).
    """
    data = load_vectors_csv(path)
    if data.shape[1] == 3:
        if data.shape[0] % LANDMARK_COUNT != 0:
            raise ValueError(
                f"{path}: 3-column landmark CSV must hold a multiple of "
                f"{LANDMARK_COUNT} rows, got {data.shape[0]}"
            )
        return [
            data[i : i + LANDMARK_COUNT]
            for i in range(0, data.shape[0], LANDMARK_COUNT)
        ]
    if data.shape[1] == 3 * LANDMARK_COUNT:
        return [row.reshape(LANDMARK_COUNT, 3) for row in data]
    raise ValueError(
        f"{path}: landmark CSV must have 3 or {3 * LANDMARK_COUNT} columns, got {data.shape[1]}"
    )
