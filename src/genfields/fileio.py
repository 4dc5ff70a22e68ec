"""Binary image readers/writers and CSV loaders for vectors and landmarks.

Images use the binary netpbm formats: P6 (PPM, RGB) and P5 (PGM, grayscale),
8-bit only, mapped to floats in [0, 1] on load.  Vectors (style vectors,
control signals, embeddings) are CSV with one vector per row and an optional
``d0,d1,...`` header.  Landmark files hold one 68-point face per 68 rows of
x,y,z -- or, equivalently, one face per 204-column row.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np

from .losses import LANDMARK_COUNT

__all__ = [
    "read_ppm",
    "read_pgm",
    "write_ppm",
    "write_pgm",
    "parse_vectors_csv",
    "load_vectors_csv",
    "vectors_csv",
    "save_vectors_csv",
    "load_landmarks_csv",
]

_MAXVAL_LIMIT = 255


def _read_netpbm(path: str, magic: bytes, samples_per_pixel: int) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} image data")
    # Header is ASCII tokens (width, height, maxval) with '#' comments,
    # terminated by a single whitespace byte before the raster.
    pos = len(magic)
    tokens: list[int] = []
    while len(tokens) < 3:
        match = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", data[pos:])
        if match is None:
            raise ValueError(f"{path}: truncated or malformed header")
        tokens.append(int(match.group(1)))
        pos += match.end()
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image dimensions must be positive, got {width}x{height}")
    if not 0 < maxval <= _MAXVAL_LIMIT:
        raise ValueError(f"{path}: only 8-bit images supported, got maxval {maxval}")
    pos += 1  # single whitespace separating header from raster
    expected = width * height * samples_per_pixel
    raster = data[pos : pos + expected]
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


def _quantize(img: np.ndarray) -> np.ndarray:
    if img.min() < 0.0 or img.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def write_ppm(path: str, img) -> None:
    arr = np.asarray(img, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"PPM output requires an (h, w, 3) image, got shape {arr.shape}")
    raster = _quantize(arr)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(raster.tobytes())


def write_pgm(path: str, img) -> None:
    arr = np.asarray(img, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"PGM output requires an (h, w) image, got shape {arr.shape}")
    raster = _quantize(arr)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode())
        fh.write(raster.tobytes())


_HEADER_CELL = re.compile(r"d\d+$")


def parse_vectors_csv(text: str) -> np.ndarray:
    """Parse CSV rows of equal width into a (rows, dims) float matrix.

    A leading ``d0,d1,...`` header row and ``#`` comment lines are skipped.
    Every cell must be a finite number.
    """
    reader = csv.reader(io.StringIO(text))
    rows = [
        row
        for row in reader
        if row and any(cell.strip() for cell in row) and not row[0].lstrip().startswith("#")
    ]
    if not rows:
        raise ValueError("vector CSV contains no data rows")
    if all(_HEADER_CELL.match(cell.strip()) for cell in rows[0]):
        rows = rows[1:]
        if not rows:
            raise ValueError("vector CSV contains only a header row")
    width = len(rows[0])
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"vector CSV row {i + 1} has {len(row)} columns, expected {width}")
        try:
            data[i] = [float(cell) for cell in row]
        except ValueError as exc:
            raise ValueError(f"vector CSV row {i + 1}: {exc}") from exc
    finite = np.isfinite(data)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"vector CSV row {i + 1}, column {j + 1}: non-finite value {data[i, j]}")
    return data


def load_vectors_csv(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read vector CSV {path}: {exc}") from exc
    try:
        return parse_vectors_csv(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def vectors_csv(matrix, header: bool = False) -> str:
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    buf = io.StringIO()
    if header:
        buf.write(",".join(f"d{j}" for j in range(arr.shape[1])) + "\n")
    for row in arr:
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


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
