"""File formats for the command-line tools.

Complex CSV layout: an m-by-r complex matrix serializes as m rows of 2r
columns, column pairs ordered (Re, Im) per matrix column.  Stacked draws
prepend a ``draw_index`` column repeated on each of the draw's m rows.
Floats are written with 17 significant digits, exactly as "%.17g" writes
them (``_dtoa`` computes them a block at a time), which round-trips IEEE
doubles exactly.  Reading uses numpy's C reader (``np.loadtxt``); the
block parser decides any text that reader rejects, so the accepted grammar
and the error messages are the block parser's.  A draws file may be decoded
in pieces through a ``CsvCursor``, with the grammar and messages of a whole
read.

Every input file is read here, by one reader: ``READ_BYTES`` and the rest of
the line at a time, decoded as UTF-8.  ``read_draws`` decodes a draws file
piece by piece; ``read_text`` joins the pieces of a parameter, ``sqrt`` or
JSON input.  A piece of a draws CSV is decoded on its own (``_decode_piece``),
then passed through the cursor in file order (``draws_from_csv``), so a
forked helper (``_workers.helper``) can decode the odd pieces of a file of
several pieces while this process decodes the rest, and any the helper does
not deliver.

JSON layout: a draw is an m-by-r nesting of two-element [re, im] lists,
row-major; files hold {"draws": [...]} or {"log_densities": [...]} or
{"matrix": [...]}.

Every metadata sidecar carries at least the effective seed, dimensions,
draw count, a checksum of the canonical serialization of the parameter
matrix, and the tool version, so a published result is reproducible from
the sidecar alone.  Output files are written atomically and follow the umask.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import warnings

import numpy as np

from .errors import ValidationError


_CSV_BLOCK_CELLS = 1 << 12  # cells per step of the CSV codec: bounds its temporaries, not n
READ_BYTES = 1 << 20  # bytes per piece of an input file, before the rest of the piece's line


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


class _BadLine(ValidationError):
    """A CSV line that is not numeric, numbered from 1 within the text that held it."""

    def __init__(self, path_hint: str, line: int, reason):
        super().__init__(f"{path_hint}: line {line} is not numeric: {reason}")
        self.line, self.reason = line, reason


class _RaggedRows(ValidationError):
    """CSV rows of more than one width; ``widths`` lists each width once, in order."""

    def __init__(self, path_hint: str, widths):
        self.widths = sorted(int(width) for width in widths)
        super().__init__(f"{path_hint}: ragged rows with widths {self.widths}")


def _parse_csv_rows(text: str, path_hint: str, lines: list | None = None) -> np.ndarray:
    """Numeric CSV, blank lines skipped, as a (rows, width) array; cells parse as float().

    numpy's C reader decodes the text (``lines`` is ``text.splitlines()``, if
    the caller has it): it converts each cell with PyOS_string_to_double, as
    float() does.  Text it rejects, or finds empty, goes to the block parser,
    which decides it: float()'s values, or the error naming the line.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning escapes: "no data", say, is a rejection
        try:
            return np.loadtxt(text.splitlines() if lines is None else lines,
                              delimiter=",", comments=None, ndmin=2)
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
            raise _BadLine(path_hint, line_no, exc) from exc
        start = stop
    if np.any(widths != widths[0]):  # only once all parse: a bad cell is named first
        raise _RaggedRows(path_hint, np.unique(widths))
    return values.reshape(len(rows), widths[0])


def matrix_from_csv(text: str, path_hint: str = "matrix file") -> np.ndarray:
    """Parse a single complex matrix from headerless (Re, Im)-pair CSV."""
    data = _parse_csv_rows(text, path_hint)
    if data.shape[1] % 2 != 0:
        raise ValidationError(
            f"{path_hint}: expected an even column count of (Re, Im) pairs, got {data.shape[1]}"
        )
    return data.view(np.complex128)


def draws_to_csv(draws: np.ndarray, start: int = 0) -> str:
    """Stacked draws (n, m, r) as CSV with a leading draw_index column, counted from ``start``."""
    draws = np.ascontiguousarray(draws, dtype=np.complex128)
    n, m, r = draws.shape
    return _format_rows(draws.reshape(n * m, r).view(np.float64),
                        np.repeat(np.arange(start, start + n), m))


class CsvCursor:
    """Where a draws CSV read piece by piece stands, for ``draws_from_csv``.

    Each piece must end a line, and an empty piece ends the file.  The cursor
    counts the lines and draws before the next piece and keeps the row width
    and draw height the file has shown, and the rows of its last draw, which
    the next piece may continue.  Once rows of a second width appear, the rest
    of the file is only parsed, so that a non-numeric line anywhere is named
    first, and ``widths`` gathers every width for the error the end raises.
    """

    __slots__ = ("lines", "draws", "height", "rows", "widths")

    def __init__(self):
        self.lines = self.draws = self.height = 0
        self.rows = self.widths = None  # rows: the held draw's rows, (k, width)


def _decode_piece(text: str, path_hint: str):
    """A piece of a draws CSV decoded on its own: its rows as ``_parse_csv_rows`` gives
    them (None if it holds only blank lines) and its line count.  It needs nothing from
    the pieces before it, so any process may decode any piece."""
    lines = text.splitlines()
    rows = None if not text or text.isspace() else _parse_csv_rows(text, path_hint, lines)
    return rows, len(lines)


def draws_from_csv(text: str, path_hint: str = "draws file",
                   cursor: CsvCursor | None = None, decoded=None) -> np.ndarray:
    """Parse stacked draws back into an (n, m, r) complex array.

    Without ``cursor`` the text is the whole file.  With one it is the next
    piece of a file, and an empty piece is its end: line numbers,
    ``draw_index`` and the width and height checks count from the pieces
    before it, so any one fault reads as it does in a whole read.  A draw
    that may go on into the next piece is held back, and returned with that
    piece or the end.  The piece is decoded by ``_decode_piece``, unless
    ``decoded`` holds its decode already; the rest is the cursor's sequential step.
    """
    last = cursor is None or not text
    cursor = CsvCursor() if cursor is None else cursor
    first_line = cursor.lines
    width = None if cursor.rows is None else cursor.rows.shape[1]
    try:
        data, count = decoded or _decode_piece(text, path_hint)
    except _BadLine as exc:
        raise _BadLine(path_hint, first_line + exc.line, exc.reason) from exc.__cause__
    except _RaggedRows as exc:
        data, count, seen = None, len(text.splitlines()), set(exc.widths)
    else:
        seen = set() if data is None else {data.shape[1]}
    cursor.lines += count
    if width:
        seen.add(width)
    if cursor.widths is not None or len(seen) > 1:
        cursor.widths = seen | (cursor.widths or set())
        if last:
            raise _RaggedRows(path_hint, cursor.widths)
        return np.empty((0, 0, 0), np.complex128)
    if width is None:
        if data is None:  # only blank lines so far
            if last:
                raise ValidationError(f"{path_hint}: no data rows")
            return np.empty((0, 0, 0), np.complex128)
        width = data.shape[1]
        if width < 3 or (width - 1) % 2 != 0:
            raise ValidationError(
                f"{path_hint}: expected draw_index plus (Re, Im) pairs, got {width} columns"
            )
    if data is None:
        data = np.empty((0, width))
    if not np.all(data[:, 0] == np.round(data[:, 0])):
        raise ValidationError(f"{path_hint}: draw_index column is not integral")
    if cursor.rows is not None:
        data = np.concatenate([cursor.rows, data])
    indices = data[:, 0]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(indices)) + 1])
    if not np.array_equal(indices[starts], cursor.draws + np.arange(len(starts))):
        raise ValidationError(f"{path_hint}: draw_index must run 0..n-1 in contiguous blocks")
    done = len(starts) if last else len(starts) - 1  # the last draw may go on
    heights = np.diff(np.append(starts, len(indices)))[:done]
    height = cursor.height or (int(heights[0]) if done else 0)
    if np.any(heights != height):
        raise ValidationError(f"{path_hint}: draws have inconsistent row counts")
    cut = len(data) if last else starts[-1]
    cursor.rows, cursor.draws, cursor.height = data[cut:].copy(), cursor.draws + done, height
    return data[:cut, 1:].copy().view(np.complex128).reshape(done, height, (width - 1) // 2)


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


def _rest_of_line(handle) -> bytes:
    """The bytes up to the next CR or LF, that one included, and the LF of a CRLF pair."""
    rest = bytearray()
    while buffered := handle.peek():
        ends = [end for end in (buffered.find(b"\r"), buffered.find(b"\n")) if end >= 0]
        if not ends:
            rest += handle.read(len(buffered))
            continue
        rest += handle.read(min(ends) + 1)
        if rest.endswith(b"\r") and handle.peek()[:1] == b"\n":
            rest += handle.read(1)
        break
    return bytes(rest)


def _read_pieces(path: str):
    """The text of a file in pieces, each ``READ_BYTES`` and the rest of the line they end
    in, so that each but the last ends a line, at a line feed, a CRLF pair or a lone CR.
    An undecodable byte is named by its position in the file, as a whole read names it."""
    try:
        with open(path, "rb") as handle:
            done = 0
            while data := handle.read(READ_BYTES) + _rest_of_line(handle):
                try:
                    text = data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    first, last = done + exc.start, done + exc.end - 1
                    where = (f"byte 0x{data[exc.start]:02x} in position {first}"
                             if first == last else f"bytes in position {first}-{last}")
                    raise ValidationError(f"cannot read {path}: '{exc.encoding}' codec "
                                          f"can't decode {where}: {exc.reason}") from exc
                yield text
                done += len(data)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def read_text(path: str) -> str:
    """The whole text of a file: a parameter, ``sqrt`` or JSON input."""
    return "".join(_read_pieces(path))


def read_draws(path: str, fmt: str, sidecar: dict | None = None):
    """The draws of a ``density`` input, as arrays: a CSV file decoded a piece at a time,
    each piece's draws as one array, then its end; a JSON document read and decoded whole.
    A CSV file of more than one ``READ_BYTES`` piece, where this process can fork and has
    two usable CPUs, is decoded on two: a ``_workers.helper`` decodes the odd pieces, and
    this process the rest, and runs the cursor over every piece in file order.  A piece
    the helper does not deliver is decoded here, so the draws and every error are those of
    a serial read.  ``sidecar``, if given, receives ``workers``, the number of processes
    that decode."""
    if fmt == "json":
        if sidecar is not None:
            sidecar["workers"] = 1
        yield draws_from_json(read_text(path), path_hint=path)
        return
    from . import _workers

    try:
        several = os.path.getsize(path) > READ_BYTES
    except OSError:  # _read_pieces names it
        several = False
    with _workers.helper(lambda text: _decode_piece(text, path), _read_pieces(path), 1,
                         several and _workers.two_cpus()) as (forked, pieces):
        if sidecar is not None:
            sidecar["workers"] = 2 if forked else 1
        cursor = CsvCursor()
        for text, decoded in pieces:
            yield draws_from_csv(text, path, cursor, decoded)
        yield draws_from_csv("", path, cursor)


def matrix_to_json(mat: np.ndarray) -> str:
    return dump_json({"matrix": _complex_to_pairs(mat)})


def values_to_csv(values, start: int = 0) -> str:
    """``index,value`` rows, the index counted from ``start``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return _format_rows(values, np.arange(start, start + len(values)))


def values_to_json(values) -> str:
    return dump_json({"log_densities": np.asarray(values, dtype=np.float64).tolist()})


def param_checksum(mat: np.ndarray) -> str:
    """SHA-256 of the canonical CSV serialization of a parameter matrix: the text of
    ``matrix_to_csv``, printed here cell by cell with "%.17g", which an m x m matrix
    affords, so that a command that writes no CSV never builds the block encoder."""
    rows = np.ascontiguousarray(mat, dtype=np.complex128).view(np.float64).tolist()
    text = "".join(",".join("%.17g" % cell for cell in row) + "\n" for row in rows)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@contextlib.contextmanager
def atomic_writer(path: str):
    """Yield ``write(text)``, which appends to a temp file in the target directory; the
    file is renamed to ``path`` when the block ends, and removed if it raises.  The mode
    follows the umask.  An OSError in the block or the file names ``path``, not the temp
    file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(16).hex()}.part")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="ascii", newline="\n") as handle:
                yield handle.write
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through ``atomic_writer``."""
    with atomic_writer(path) as write:
        write(text)


@contextlib.contextmanager
def chunk_writer(path: str, fmt: str, key: str):
    """Yield ``write(chunk, start)``, which appends the stacked draws (``key`` "draws") or
    values ("log_densities") of one chunk, its first counted ``start``, to ``path`` as
    ``fmt``, "csv" or "json", through ``atomic_writer``.  Chunks written in order make the
    bytes that ``draws_to_csv``, ``values_to_csv``, ``draws_to_json`` or ``values_to_json``
    gives for the whole stack."""
    with atomic_writer(path) as write:
        if fmt == "json":
            write(f'{{"{key}":[')

        def write_chunk(chunk, start: int) -> None:
            if fmt == "csv":
                write((draws_to_csv if key == "draws" else values_to_csv)(chunk, start))
                return
            items = (_complex_to_pairs(chunk) if key == "draws"
                     else np.asarray(chunk, dtype=np.float64).tolist())
            write(("," if start else "") + json.dumps(items, separators=(",", ":"))[1:-1])

        yield write_chunk
        if fmt == "json":
            write("]}\n")


def sidecar_path(output_path: str) -> str:
    return output_path + ".meta.json"


def write_sidecar(output_path: str, metadata: dict) -> str:
    path = sidecar_path(output_path)
    write_atomic(path, dump_json(metadata))
    return path
