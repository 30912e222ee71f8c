"""File formats for the command-line tools.

Complex CSV layout: an m-by-r complex matrix serializes as m rows of 2r
columns, column pairs ordered (Re, Im) per matrix column.  Stacked draws
prepend a ``draw_index`` column repeated on each of the draw's m rows.
Floats are written with 17 significant digits, exactly as "%.17g" writes
them (``_dtoa`` computes them a block at a time), which round-trips IEEE
doubles exactly.  Reading uses numpy's C reader (``np.loadtxt``); the
block parser decides any text that reader rejects, so the accepted grammar
and the error messages are the block parser's.

JSON layout: a draw is an m-by-r nesting of two-element [re, im] lists,
row-major; files hold {"draws": [...]} or {"log_densities": [...]} or
{"matrix": [...]}.

Every metadata sidecar carries at least the effective seed, dimensions,
draw count, a checksum of the canonical serialization of the parameter
matrix, and the tool version, so a published result is reproducible from
the sidecar alone.  Output files are written atomically and follow the umask.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import warnings

import numpy as np

from .errors import ValidationError


_CSV_BLOCK_CELLS = 1 << 12  # cells per step of the CSV codec: bounds its temporaries, not n
# Characters per write: the encoded copy of a text is one slice of it, so
# writing a large file needs no second buffer the size of the whole text.
_WRITE_CHARS = 1 << 20


@functools.cache
def _encoder():
    """The exact "%.17g" block encoder, imported and built on first use, not at import."""
    from ._dtoa import BlockEncoder

    return BlockEncoder()


def _format_rows(cells: np.ndarray, index: np.ndarray | None = None) -> str:
    """Float table as CSV rows, optionally led by an integer index, 17 digits per float."""
    step = max(1, _CSV_BLOCK_CELLS // (cells.shape[1] + (index is not None)))
    encode, blocks = _encoder(), []
    for start in range(0, len(cells), step):
        block = cells[start:start + step]
        if index is not None:
            block = np.column_stack([index[start:start + step], block])
        blocks.append(encode(block))
    if blocks:  # the text starts with the first cell, not with a separator, and ends a row
        blocks[0] = blocks[0][1:]
        blocks.append("\n")
    return "".join(blocks)


def matrix_to_csv(mat: np.ndarray) -> str:
    """Single complex matrix as headerless CSV, one text row per matrix row."""
    return _format_rows(np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64))


def _parse_csv_rows(text: str, path_hint: str) -> np.ndarray:
    """Numeric CSV, blank lines skipped, as a (rows, width) array; cells parse as float().

    numpy's C reader decodes the text: it converts each cell with
    PyOS_string_to_double, as float() does.  Text it rejects, or finds
    empty, goes to the block parser, which decides it: float()'s values, or
    the error naming the line.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning escapes: "no data", say, is a rejection
        try:
            return np.loadtxt(text.splitlines(), delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            pass
    return _parse_csv_blocks(text, path_hint)


def _parse_csv_blocks(text: str, path_hint: str) -> np.ndarray:
    """The block parser: cells converted by float() a block of rows at a time, errors by line."""
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValidationError(f"{path_hint}: no data rows")
    widths = np.array([row.count(",") for row in rows]) + 1
    ends = np.concatenate([[0], np.cumsum(widths)])
    values = np.empty(ends[-1])
    start, step = 0, max(1, _CSV_BLOCK_CELLS // int(widths.max()))
    while start < len(rows):
        stop = min(start + step, len(rows))
        try:
            values[ends[start]:ends[stop]] = np.array(",".join(rows[start:stop]).split(","), float)
        except ValueError as exc:
            if step > 1:  # go row by row from this block to name the first bad line
                step = 1
                continue
            line_no = [no for no, line in enumerate(text.splitlines(), 1) if line.strip()][start]
            raise ValidationError(f"{path_hint}: line {line_no} is not numeric: {exc}") from exc
        start = stop
    if np.any(widths != widths[0]):  # only once all parse: a bad cell is named first
        raise ValidationError(f"{path_hint}: ragged rows with widths {np.unique(widths).tolist()}")
    return values.reshape(len(rows), widths[0])


def matrix_from_csv(text: str, path_hint: str = "matrix file") -> np.ndarray:
    """Parse a single complex matrix from headerless (Re, Im)-pair CSV."""
    data = _parse_csv_rows(text, path_hint)
    if data.shape[1] % 2 != 0:
        raise ValidationError(
            f"{path_hint}: expected an even column count of (Re, Im) pairs, got {data.shape[1]}"
        )
    return data.view(np.complex128)


def draws_to_csv(draws: np.ndarray) -> str:
    """Stacked draws (n, m, r) as CSV with a leading draw_index column."""
    draws = np.ascontiguousarray(draws, dtype=np.complex128)
    n, m, r = draws.shape
    return _format_rows(draws.reshape(n * m, r).view(np.float64), np.repeat(np.arange(n), m))


def draws_from_csv(text: str, path_hint: str = "draws file") -> np.ndarray:
    """Parse stacked draws back into an (n, m, r) complex array."""
    data = _parse_csv_rows(text, path_hint)
    width = data.shape[1]
    if width < 3 or (width - 1) % 2 != 0:
        raise ValidationError(
            f"{path_hint}: expected draw_index plus (Re, Im) pairs, got {width} columns"
        )
    indices = data[:, 0]
    if not np.all(indices == np.round(indices)):
        raise ValidationError(f"{path_hint}: draw_index column is not integral")
    starts = np.concatenate([[0], np.flatnonzero(np.diff(indices)) + 1])
    if not np.array_equal(indices[starts], np.arange(len(starts))):
        raise ValidationError(f"{path_hint}: draw_index must run 0..n-1 in contiguous blocks")
    heights = np.diff(np.append(starts, len(indices)))
    if np.any(heights != heights[0]):
        raise ValidationError(f"{path_hint}: draws have inconsistent row counts")
    return data[:, 1:].copy().view(np.complex128).reshape(len(starts), heights[0], -1)


def _complex_to_pairs(a: np.ndarray) -> list:
    """Complex array as nested lists with each entry an [re, im] pair of Python floats."""
    a = np.ascontiguousarray(a, np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def draws_to_json(draws: np.ndarray) -> str:
    return dump_json({"draws": _complex_to_pairs(draws)})


def draws_from_json(text: str, path_hint: str = "draws file") -> np.ndarray:
    try:
        payload = json.loads(text)
        nested = payload["draws"]
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise ValidationError(f"{path_hint}: not a draws JSON document: {exc}") from exc
    if not nested:
        raise ValidationError(f"{path_hint}: empty draws list")
    try:
        arr = np.asarray(nested, dtype=float)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{path_hint}: draws are not equally shaped numbers: {exc}") from exc
    if arr.ndim != 4 or arr.shape[-1] != 2:
        raise ValidationError(
            f"{path_hint}: expected draws of rows of [re, im] pairs, got shape {arr.shape}"
        )
    return arr.view(np.complex128)[..., 0]


def matrix_to_json(mat: np.ndarray) -> str:
    return dump_json({"matrix": _complex_to_pairs(mat)})


def values_to_csv(values) -> str:
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return _format_rows(values, np.arange(len(values)))


def values_to_json(values) -> str:
    return dump_json({"log_densities": np.asarray(values, dtype=np.float64).tolist()})


def param_checksum(mat: np.ndarray) -> str:
    """SHA-256 of the canonical CSV serialization of a parameter matrix: the text of
    ``matrix_to_csv``, printed here cell by cell with "%.17g", which an m x m matrix
    affords, so that a command that writes no CSV never builds the block encoder."""
    rows = np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64).tolist()
    text = "".join(",".join("%.17g" % cell for cell in row) + "\n" for row in rows)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename; the mode follows the umask.
    An OSError names ``path``, not the temp file, which is removed."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(16).hex()}.part")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="ascii", newline="\n") as handle:
                for start in range(0, len(text), _WRITE_CHARS):
                    handle.write(text[start:start + _WRITE_CHARS])
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def sidecar_path(output_path: str) -> str:
    return output_path + ".meta.json"


def write_sidecar(output_path: str, metadata: dict) -> str:
    path = sidecar_path(output_path)
    write_atomic(path, dump_json(metadata))
    return path
