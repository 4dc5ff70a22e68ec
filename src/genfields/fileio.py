"""Every file read and write: binary images, and CSV vectors and landmarks.

Images are only read, never written: the binary netpbm formats P6 (PPM, RGB)
and P5 (PGM, grayscale), 8-bit only, mapped to floats in [0, 1].  Vectors
(style vectors, control signals, embeddings) are CSV with one vector per row
and an optional ``d0,d1,...`` header, which sets the row width.  Landmark files
hold one 68-point face per 68 rows of x,y,z -- or, equivalently, one face per
204-column row.

Every numeric CSV is read by :func:`_numeric_csv`, which makes CR and CRLF
``\\n`` once for its two readers, and they decide the header by one rule:
numpy's C reader for a plain text of at least :data:`C_READER_MIN_CHARS`
characters, the exact reader (one pass: csv rows, then ``float()`` per cell)
for anything else and for every error, with the same values either way.  The
exact reader holds the values in an ``array('d')`` and first touches numpy to
return the matrix, so a malformed small CSV fails without importing numpy.
Every path is opened by :func:`_load` or :func:`_save`, which name it in
every error; other modules read and write their files through them.
:func:`_naming` puts the source of every input error before it: the file,
pair, sample or option.
"""

from __future__ import annotations

import csv
import errno
import itertools
import math
import os
import re
import stat
import warnings
from array import array

from ._np import np
from .losses import LANDMARK_COUNT, _finite_array, _float_array

__all__ = [
    "read_ppm",
    "read_pgm",
    "parse_vectors_csv",
    "load_vectors_csv",
    "csv_text",
    "vectors_csv",
    "save_vectors_csv",
    "load_landmarks_csv",
]

_MAXVAL_LIMIT = 255
# After the magic number: width, height and maxval, each after whitespace or
# '#' comments, then exactly one whitespace byte before the raster.  A number
# has at most 19 digits, as a numpy shape does; int() refuses one of over 4300.
_NETPBM_HEADER = re.compile(rb"(?:(?:\s|#[^\n]*\n)+(\d{1,19}))" * 3 + rb"\s")


def _naming(source: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; its ValueError is raised again, of the same type, after ``source: ``."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise type(exc)(f"{source}: {exc}") from exc


def _load(path: str, what: str, parse, *args, binary: bool = False, error=ValueError):
    """``parse(data, *args)`` on the file at ``path``, read as UTF-8 text unless ``binary``.

    A read failure raises ``error`` naming ``what`` and the file; ``parse`` runs
    through :func:`_naming`, so its errors name the file too.
    """
    try:
        with open(path, "rb") if binary else open(path, encoding="utf-8") as fh:
            data = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    return _naming(path, parse, data, *args)


def _save(*files: tuple[str, str | bytes]) -> None:
    """Write each ``(path, data)``, text as UTF-8 (file names' undecodable bytes as they were).

    Regular files, and new ones, are written whole or not at all: each to a
    temporary file beside it (beside a symlink's target, so the link stays),
    with its mode or, if new, 0o666 less the umask, and only once every one
    is written are they renamed over their targets.  A file the caller may
    not write is refused, as opening it would be.  Anything else, such as a
    pipe, a terminal or ``/dev/null``, is written in place.  Two files renamed
    onto one are refused before any is renamed.  Errors name the path at
    fault; a failure leaves no temporary file.
    """
    staged = []  # (path, temporary file, target) not yet renamed
    renamed = {}  # real path of each staged target: its path
    try:
        for path, data in files:
            if isinstance(data, str):
                data = data.encode("utf-8", "surrogateescape")
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not os.access(path, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            if mode is not None and not stat.S_ISREG(mode):
                with open(path, "wb") as fh:
                    fh.write(data)
                continue
            target = os.path.realpath(path) if os.path.islink(path) else path
            real = os.path.realpath(target)
            if real in renamed:
                names = ", ".join(dict.fromkeys([renamed[real], path]))
                raise ValueError(f"{names}: two outputs would be written to one file")
            renamed[real] = path
            head, tail = os.path.split(target)
            tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((path, tmp, target))
            with open(fd, "wb") as fh:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                fh.write(data)
        while staged:
            path, tmp, target = staged[0]
            os.replace(tmp, target)
            del staged[0]
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        for _, tmp, _ in staged:
            os.unlink(tmp)


def _parse_netpbm(data: bytes, magic: bytes, samples_per_pixel: int) -> np.ndarray:
    if not data.startswith(magic):
        raise ValueError(f"expected {magic.decode()} image data")
    match = _NETPBM_HEADER.match(data, len(magic))
    if match is None:
        raise ValueError("truncated or malformed header")
    width, height, maxval = map(int, match.groups())
    if width < 1 or height < 1:
        raise ValueError(f"image dimensions must be positive, got {width}x{height}")
    if not 0 < maxval <= _MAXVAL_LIMIT:
        raise ValueError(f"only 8-bit images supported, got maxval {maxval}")
    expected = width * height * samples_per_pixel
    raster = data[match.end() : match.end() + expected]
    if len(raster) != expected:
        raise ValueError(f"expected {expected} raster bytes, got {len(raster)}")
    samples = np.frombuffer(raster, dtype=np.uint8)
    if maxval < _MAXVAL_LIMIT and samples.max() > maxval:
        raise ValueError(f"sample {samples.max()} above maxval {maxval}")
    shape = (height, width) if samples_per_pixel == 1 else (height, width, samples_per_pixel)
    return (samples / maxval).reshape(shape)


def read_ppm(path: str) -> np.ndarray:
    """Read a binary P6 PPM file into an (h, w, 3) array in [0, 1]."""
    return _load(path, "image", _parse_netpbm, b"P6", 3, binary=True)


def read_pgm(path: str) -> np.ndarray:
    """Read a binary P5 PGM file into an (h, w) array in [0, 1]."""
    return _load(path, "image", _parse_netpbm, b"P5", 1, binary=True)


_HEADER_CELL = re.compile(r"d\d+$")


def _header(cells: list[str], what: str, columns: tuple[str, ...] | None) -> int | None:
    """The width a first row's stripped ``cells`` set as a header; None if they are data.

    They must be ``columns`` if given.  Else a row of ``d<int>`` cells is a
    header, and must be ``d0,d1,...,d{n-1}``.  A header that breaks its rule
    raises ValueError naming the first cell out of place.
    """
    if columns is not None:
        if cells != list(columns):
            raise ValueError(f"{what} must start with header {','.join(columns)}")
        return len(columns)
    if not all(map(_HEADER_CELL.match, cells)):
        return None
    for j, cell in enumerate(cells):
        if cell != f"d{j}":
            raise ValueError(f"{what} header, column {j + 1}: expected d{j}, got {cell}")
    return len(cells)


def _exact_csv(text: str, what: str, columns: tuple[str, ...] | None) -> np.ndarray:
    """What :func:`_numeric_csv` returns for ``text``, in one pass: csv rows, ``float()`` per cell.

    Blank rows and ``#`` comment lines are skipped.  Errors begin with ``what``, in file
    order: a line csv cannot read (a cell over its field limit; on Python 3.10, a NUL),
    a wrong header, a short or long row or an unreadable cell; then the first non-finite
    cell.  Lines and rows count from 1, rows after any header.  The values go into an
    ``array('d')``, and numpy is first touched to return the matrix.
    """
    reader = csv.reader(_lines(text))
    values, rows = array("d"), 0
    width = None  # the header's width, or the first row's, once the first row is read
    try:
        for row in reader:
            if not any(cell.strip() for cell in row) or row[0].lstrip().startswith("#"):
                continue
            if width is None:
                width = _header([cell.strip() for cell in row], what, columns)
                if width is not None:
                    continue
                width = len(row)
            rows += 1
            if len(row) != width:
                raise ValueError(f"{what} row {rows}: expected {width} columns, got {len(row)}")
            try:
                values.fromlist(list(map(float, row)))
            except ValueError:
                for j, cell in enumerate(row):
                    _naming(f"{what} row {rows}, column {j + 1}", float, cell)
    except csv.Error as exc:
        raise ValueError(f"{what} line {reader.line_num}: {exc}") from None
    if not rows:
        if width is None:
            _header([], what, columns)  # a required header is missing
        raise ValueError(f"{what} contains {'no data rows' if width is None else 'only a header row'}")
    if not all(map(math.isfinite, values)):
        k = next(k for k, value in enumerate(values) if not math.isfinite(value))
        raise ValueError(f"{what} row {k // width + 1}, column {k % width + 1}: "
                         f"non-finite value {values[k]}")
    return np.frombuffer(values).reshape(rows, width)


def _long_cell(text: str, limit: int) -> bool:
    """Whether ``text``, cut at every comma and line break, has a piece over ``limit`` characters.

    Jumps to the last cut within ``limit + 1`` characters, so it costs one pass, not one step a cell.
    """
    start = 0
    while len(text) - start > limit:
        last = max(text.rfind(cut, start, start + limit + 1) for cut in ",\n")
        if last < 0:
            return True
        start = last + 1
    return False


def _lines(text: str):
    """The lines of ``text``, each with its ``\\n`` (the last one may have none)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _loadtxt(text: str, what: str, columns: tuple[str, ...] | None) -> np.ndarray | None:
    """What :func:`_numeric_csv` returns for ``text``, read by numpy's C reader; None if it may differ.

    Only the leading comment and blank lines and the header row are read here;
    loadtxt rejects any later comment, blank-looking or quoted line.  It
    converts a cell with ``PyOS_string_to_double``, as ``float()`` does, so the
    values agree bitwise, and rejects the cells only ``float()`` reads
    (``1_0``, Unicode digits).  This also declines on a quote or a NUL (which
    csv refuses on Python 3.10) before the data, a ragged, empty or non-finite
    matrix, one whose width is not its header's, and a cell longer than csv reads.

    numpy gets the :func:`_lines` of ``text``, which :func:`_numeric_csv` gave
    ``\\n`` line ends, one at a time, so the text is held once and never as a
    4-byte-per-character buffer.
    """
    rest = _lines(text)
    for line in rest:
        if '"' in line or "\0" in line:
            return None
        if line.strip() and not line.lstrip().startswith("#"):
            break
    else:
        return None
    try:
        width = _header([cell.strip() for cell in line.split(",")], what, columns)
    except ValueError:
        return None
    if width is None:
        rest = itertools.chain([line], rest)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data" is a UserWarning
            data = np.loadtxt(rest, delimiter=",", comments=None, ndmin=2, dtype=float)
    except (ValueError, Warning):
        return None
    if ((width is not None and data.shape[1] != width) or not np.isfinite(data).all()
            or _long_cell(text, csv.field_size_limit())):
        return None
    return data


# Texts shorter than this go straight to the exact reader.  A malformed one, whose
# error is always the exact reader's, then fails without numpy's import: `stats`
# on a ragged CSV 0.070 s against 0.142 s.  A valid one costs the exact reader
# little more than the C reader up to here: 0.029 vs 0.024 ms at 1.2 KB, 0.42 vs
# 0.24 ms at 20 KB, 1.32 vs 0.74 ms at 63 KB; and the gap grows with the text
# (2-vCPU Xeon, Python 3.11, numpy 2.4).
C_READER_MIN_CHARS = 2**16


def _numeric_csv(text: str, what: str, columns: tuple[str, ...] | None = None) -> np.ndarray:
    """The rows of ``text`` after any header row as a float matrix of finite numbers.

    ``columns`` is the header ``text`` must start with, and its width; None allows
    a ``d0,d1,...`` header.  CR and CRLF become ``\\n`` here, for both readers.
    numpy's C reader reads a plain text of at least :data:`C_READER_MIN_CHARS`
    characters (:func:`_loadtxt`); anything else, and every error, is
    :func:`_exact_csv`'s.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if len(text) >= C_READER_MIN_CHARS:
        data = _loadtxt(text, what, columns)
        if data is not None:
            return data
    return _exact_csv(text, what, columns)


def parse_vectors_csv(text: str) -> np.ndarray:
    """Parse CSV rows of equal width into a (rows, dims) float matrix.

    A leading ``d0,d1,...`` header row, blank rows and ``#`` comment lines are
    skipped.  Every cell must be a finite number.
    """
    return _numeric_csv(text, "vector CSV")


def load_vectors_csv(path: str) -> np.ndarray:
    return _load(path, "vector CSV", parse_vectors_csv)


def csv_text(rows) -> str:
    """Render rows, header first, as unquoted CSV: each cell's ``str``, comma-joined.

    No cell may hold a comma or a line break.  Python floats print in full.
    """
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def vectors_csv(matrix, header: bool = False) -> str:
    """``matrix`` as vector CSV, one row per vector; a 1-D vector is one row.

    Only what :func:`parse_vectors_csv` reads back is written: anything but a
    non-empty matrix of finite numbers raises ValueError.
    """
    arr = _float_array(matrix, "vector CSV output", "a non-empty 2-D matrix")
    arr = _finite_array(arr[np.newaxis] if arr.ndim == 1 else arr, "vector CSV output", ndim=2)
    head = [[f"d{j}" for j in range(arr.shape[1])]] if header else []
    return csv_text(head + arr.tolist())


def save_vectors_csv(path: str, matrix, header: bool = False) -> None:
    _save((path, vectors_csv(matrix, header)))


def _landmark_faces(text: str) -> list[np.ndarray]:
    data = _numeric_csv(text, "landmark CSV")
    if data.shape[1] == 3:
        if data.shape[0] % LANDMARK_COUNT != 0:
            raise ValueError(f"3-column landmark CSV must hold a multiple of {LANDMARK_COUNT} rows, "
                             f"got {data.shape[0]}")
        return [data[i : i + LANDMARK_COUNT] for i in range(0, data.shape[0], LANDMARK_COUNT)]
    if data.shape[1] == 3 * LANDMARK_COUNT:
        return [row.reshape(LANDMARK_COUNT, 3) for row in data]
    raise ValueError(f"landmark CSV must have 3 or {3 * LANDMARK_COUNT} columns, got {data.shape[1]}")


def load_landmarks_csv(path: str) -> list[np.ndarray]:
    """Load one or more 68-point faces from a landmark CSV.

    Accepts rows of 3 columns (x, y, z; 68 rows per face, stacked) or rows of
    204 columns (one face per row, x1,y1,z1,x2,...).
    """
    return _load(path, "landmark CSV", _landmark_faces)
