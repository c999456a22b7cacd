"""Durable file formats: embeddings, label tables, transforms, reports.

Embeddings travel as 32-bit little-endian floats behind a fixed header.
They are read, checked and written in small pieces of PIECE_ROWS rows; the
rows a command keeps are widened to float64 in memory, and statistics
never run on float32. Commands compute on blocks of BLOCK_ROWS rows, not
on pieces, because a GEMM's shape fixes its bits: open_kept_rows regroups
the pieces into those blocks. Label tables are CSV; each column comes out
as its distinct cells and one integer code per row, split from the file's
bytes in one numpy pass when the file has no quotes, and by csv otherwise.
Transforms live in a versioned, checksummed binary container. Reports are
canonical JSON.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

import numpy as np

from .core import BLOCK_ROWS, EmbeddingMatrix, GroupLabels
from .errors import DataError
from .mitigation import TRANSFORMS, Transform

EMBEDDING_MAGIC = b"FLENSEMB"
EMBEDDING_VERSION = 1
_EMBEDDING_HEADER = struct.Struct("<8sHQIB")
_DTYPE_F32_LE = 1

TRANSFORM_MAGIC = b"FLENSTFM"
TRANSFORM_VERSION = 1

# Rows per piece of a payload read or written: 512 KiB at d = 256. A divisor of
# BLOCK_ROWS, so every file block is a whole number of pieces.
PIECE_ROWS = BLOCK_ROWS // 8


def write_embeddings(
    matrix: EmbeddingMatrix | Iterable[np.ndarray], path: str | Path
) -> tuple[int, int]:
    """Write the canonical binary layout; identical values give identical bytes.

    ``matrix`` is a whole matrix, written a piece at a time, or an iterable
    of 2-d row blocks of one width, such as ``apply`` streams. Each block is
    rounded to float32, checked and written, and both it and its float32
    copy are let go before the next block is taken. The writer so holds one
    block and its float32 copy, never the previous block while the next is
    made, nor a copy of the whole payload. The bytes go to
    ``<path>.partial`` and are renamed over ``path`` only once complete:
    on any error that file is removed and ``path`` is left as it was.
    Returns the (rows, dims) written.
    """
    blocks = _pieces(matrix.values) if isinstance(matrix, EmbeddingMatrix) else matrix
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    rows = dims = 0
    try:
        with open(partial, "wb") as fh:
            fh.seek(_EMBEDDING_HEADER.size)  # the header follows once the rows are counted
            for block in blocks:
                with np.errstate(over="ignore"):  # an overflow is the error raised below
                    payload = np.ascontiguousarray(block, dtype="<f4")
                if not _finite(payload):
                    raise DataError("values overflow 32-bit floats")
                fh.write(payload.data)  # the block's own buffer, not a bytes copy of it
                rows, dims = rows + payload.shape[0], payload.shape[1]
                del block, payload  # not held while the next block is made
            fh.seek(0)
            header = (EMBEDDING_MAGIC, EMBEDDING_VERSION, rows, dims, _DTYPE_F32_LE)
            fh.write(_EMBEDDING_HEADER.pack(*header))
        os.replace(partial, path)
    finally:  # after the rename there is nothing left to remove
        partial.unlink(missing_ok=True)
    return rows, dims


def read_embeddings(
    path: str | Path, keep: np.ndarray | tuple[np.ndarray, ...] | None = None
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Read a .femb embeddings file.

    One float64 array is allocated for the rows where the boolean mask
    ``keep`` is true (every row when it is None), after open_embeddings has
    sized the payload against the file and the mask's length is checked
    against its rows. Each float32 piece of PIECE_ROWS rows is checked for
    NaN/Inf, dropped rows included, and its kept rows are gathered and
    widened into that array. The command holds the kept rows plus one piece
    and its gathered rows; open_kept_rows reads the same rows without
    holding them all. ``keep`` may also be a tuple of masks: the payload is
    then read and checked once, each piece filling every mask's array, and
    the arrays come back in a tuple in the masks' order.
    """
    masks = keep if isinstance(keep, tuple) else (keep,)
    with open_embeddings(path) as (n, d, pieces):
        arrays = tuple(np.empty((int(_kept_per_block(path, n, mask).sum()), d)) for mask in masks)
        filled = [0] * len(masks)
        start = 0
        for piece in pieces:
            for i, (mask, values) in enumerate(zip(masks, arrays)):
                rows = piece if mask is None else piece[mask[start : start + len(piece)]]
                values[filled[i] : filled[i] + len(rows)] = rows
                filled[i] += len(rows)
            start += len(piece)
    return arrays if isinstance(keep, tuple) else arrays[0]


@contextmanager
def open_kept_rows(
    path: str | Path, keep: np.ndarray | None = None
) -> Iterator[Iterator[tuple[np.ndarray, np.ndarray]]]:
    """An embeddings file's kept rows, one file block of BLOCK_ROWS rows at a time.

    The rows kept are those where the boolean mask ``keep`` is true (every
    row when it is None); its length is checked against the header's n on
    opening. Every piece of open_embeddings is checked for NaN/Inf, dropped
    rows included, and its kept rows are gathered and widened to float64
    as it is read, into one reused buffer sized for the block that keeps
    the most rows. For each block with a kept row come the kept rows'
    numbers in the file and their values, valid until the next block is
    taken. The command so holds one float32 piece and one float64 block,
    never all the kept rows. Blocks, not pieces, are handed out because
    the commands compute on them, and a GEMM's shape fixes its bits.
    """
    with open_embeddings(path) as (n, d, pieces):
        buffer = np.empty((int(_kept_per_block(path, n, keep).max()), d))
        yield _widened_blocks(pieces, np.full(n, True) if keep is None else keep, buffer)


def _kept_per_block(path: str | Path, n: int, keep: np.ndarray | None) -> np.ndarray:
    """How many rows the mask ``keep`` keeps in each block of a file's n rows.

    The mask has one entry per row of the label table; its length is
    checked against n first.
    """
    starts = np.arange(0, n, BLOCK_ROWS)
    if keep is None:
        return np.diff(starts, append=n)
    if np.shape(keep) != (n,):
        raise DataError(f"{path} has {n} rows, but the label table has {np.size(keep)}")
    return np.add.reduceat(keep, starts, dtype=np.intp)


def _widened_blocks(
    pieces: Iterable[np.ndarray], keep: np.ndarray, buffer: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per file block with a kept row: those rows' numbers in the file, and the rows widened into ``buffer``.

    A piece kept whole is widened as read, with no float32 copy; of other
    pieces the kept rows are gathered first. A block is handed out once its
    last piece is in.
    """
    start = block_start = filled = 0
    for piece in pieces:
        stop = start + len(piece)
        kept = np.flatnonzero(keep[start:stop])
        buffer[filled : filled + kept.size] = piece if kept.size == len(piece) else piece[kept]
        start, filled = stop, filled + kept.size
        if stop % BLOCK_ROWS == 0 or stop == len(keep):  # the block's last piece
            if filled:
                yield block_start + np.flatnonzero(keep[block_start:stop]), buffer[:filled]
            block_start, filled = stop, 0


@contextmanager
def open_embeddings(path: str | Path) -> Iterator[tuple[int, int, Iterator[np.ndarray]]]:
    """An embeddings file's row count, column count and float32 row pieces.

    The header is checked first (magic, version, dtype, and the payload size
    against the file's, before anything is allocated). The pieces, of
    PIECE_ROWS rows, are read in turn into one reused buffer, so each is
    valid until the next is taken; each is checked for NaN/Inf before it is
    handed out.
    """
    with open(path, "rb") as fh:
        header = fh.read(_EMBEDDING_HEADER.size)
        if not header.startswith(EMBEDDING_MAGIC):
            raise DataError(f"{path}: not a .femb embeddings file")
        if len(header) < _EMBEDDING_HEADER.size:
            raise DataError(f"{path}: header truncated")
        _, version, n, d, dtype = _EMBEDDING_HEADER.unpack(header)
        if version != EMBEDDING_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        if dtype != _DTYPE_F32_LE:
            raise DataError(f"{path}: unknown dtype code {dtype}")
        expected = n * d * 4
        size = os.fstat(fh.fileno()).st_size - _EMBEDDING_HEADER.size
        if size < expected:
            raise DataError(f"{path}: payload has {size} of {expected} bytes")
        if size > expected:
            raise DataError(f"{path}: {size - expected} bytes of trailing data")
        if not (n and d):
            raise DataError(f"{path}: header gives {n} rows of {d} values")
        yield n, d, _file_pieces(fh, path, n, d)


def _file_pieces(fh: BinaryIO, path: str | Path, n: int, d: int) -> Iterator[np.ndarray]:
    buffer = np.empty((min(n, PIECE_ROWS), d), dtype="<f4")
    for start in range(0, n, PIECE_ROWS):
        piece = buffer[: min(PIECE_ROWS, n - start)]
        got = fh.readinto(piece)
        if got < piece.nbytes:  # the file shrank after it was sized
            raise DataError(f"{path}: payload has {start * d * 4 + got} of {n * d * 4} bytes")
        if not _finite(piece):
            raise DataError(f"{path}: payload contains NaN or Inf")
        yield piece


def _pieces(values: np.ndarray) -> Iterator[np.ndarray]:
    return (values[start : start + PIECE_ROWS] for start in range(0, len(values), PIECE_ROWS))


def _finite(values: np.ndarray) -> bool:
    """Whether every value is finite; min and max carry any NaN or Inf, with no mask."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


# Column of a label table: its distinct cells in first-appearance order, and
# one int64 code per row indexing them.
Column = tuple[tuple[str, ...], np.ndarray]


def read_label_table(path: str | Path) -> dict[str, Column]:
    """Parse a label file into coded columns, enforcing the item_id schema.

    item_id must be the first column and run densely 0..n-1 in order;
    every cell must be non-empty. Each other column comes back as its
    distinct cells in first-appearance order and one int64 code per row
    indexing them; item_id itself is not returned. A file with no quote,
    no NUL and no bare CR that decodes as UTF-8 is read once and split in
    one numpy pass (_parse_plain); any file that pass does not accept,
    every quoted file and every faulty one included, is read again by csv
    (_parse_csv), which alone words the errors.
    """
    columns = _parse_plain(Path(path).read_bytes())
    return _parse_csv(path) if columns is None else columns


def _parse_plain(data: bytes) -> dict[str, Column] | None:
    """The coded columns of a quote-free label file, or None to leave the file to csv.

    Without quotes csv splits a line at every comma, so the cells are the
    byte runs between commas and line ends. None comes back on anything
    csv would read otherwise or reject: a quote, a NUL, a bare CR, text
    that is not UTF-8, a bad header, a row of the wrong width, an empty
    cell, a cell longer in bytes than csv.field_size_limit(), or an
    item_id whose text is not its row number.
    """
    if b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    if not data.endswith(b"\n"):
        data += b"\n"
    head = data[: data.index(b"\n")]
    if b"\r" in head[:-1]:
        return None
    header = head.removesuffix(b"\r").decode("utf-8").split(",")
    width, limit = len(header), csv.field_size_limit()
    if header[0] != "item_id" or len(set(header)) != width or max(map(len, header)) > limit:
        return None
    body = np.frombuffer(data, np.uint8)[len(head) + 1 :]
    ends = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
    ends = ends.astype(np.int32 if len(data) < 2**31 else np.int64)
    line_ends = body[ends] == ord("\n")
    n = int(np.count_nonzero(line_ends))
    if n == 0 or len(ends) != n * width or not line_ends[width - 1 :: width].all():
        return None
    ends = ends.reshape(n, width)
    crlf = body[ends[:, -1] - 1] == ord("\r")
    if np.count_nonzero(body == ord("\r")) != np.count_nonzero(crlf):
        return None  # a bare CR, which csv also takes for a line end
    columns = {}
    for j, name in enumerate(header):
        if j:
            starts = ends[:, j - 1] + 1
        else:  # a row starts after the previous row's line end
            starts = np.zeros(n, ends.dtype)
            starts[1:] = ends[:-1, -1] + 1
        lengths = ends[:, j] - starts
        if j == width - 1:  # a CRLF line's last cell stops before the CR
            lengths -= crlf
        if lengths.min() < 1 or lengths.max() > limit:
            return None
        if j == 0:
            if not _row_numbers(body, starts, lengths):
                return None
        else:
            columns[name] = _coded_bytes(body, starts, lengths)
    return columns


def _row_numbers(body: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> bool:
    """Whether each cell's bytes spell its row number, checked over the rows of each digit count."""
    n = len(starts)
    for digits in range(1, len(str(n - 1)) + 1):
        lo, hi = (10 ** (digits - 1) if digits > 1 else 0), min(n, 10**digits)
        if (lengths[lo:hi] != digits).any():
            return False
        value = np.zeros(hi - lo, np.int64)
        for k in range(digits):
            digit = body[starts[lo:hi] + k] - ord("0")  # a byte below "0" wraps past 9
            if digit.max() > 9:
                return False
            value = value * 10 + digit
        if not np.array_equal(value, np.arange(lo, hi)):
            return False
    return True


def _coded_bytes(body: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> Column:
    """Distinct cells in first-appearance order and each row's code, from n-length gathers.

    Each cell's bytes, zero-padded, form one sort key: an unsigned integer
    of 1, 2, 4 or 8 bytes for cells of up to 8 bytes (numpy radix-sorts the
    1- and 2-byte ones), an S<size> string above. No cell holds a NUL, so
    the padding tells no two cells apart. A stable argsort groups equal keys
    with their first row in front; np.unique is not used, since its first
    call imports numpy.ma.
    """
    n, size = len(starts), int(lengths.max())
    width = 1 << (size - 1).bit_length() if size <= 8 else size
    padded = np.zeros((n, width), np.uint8)
    for k in range(size):
        padded[:, k] = body.take(starts + k, mode="clip") * (lengths > k)
    cells = padded.view(f"S{width}")[:, 0]
    keys = padded.view(f"<u{width}")[:, 0] if size <= 8 else cells
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.empty(n, bool)
    new[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    firsts = order[new]  # each distinct cell's first row, in key order
    appearance = np.argsort(firsts)
    names = tuple(cell.decode("utf-8") for cell in cells[firsts[appearance]].tolist())
    del padded, cells, keys, ranked  # not held while the codes are made
    code_of = np.empty(len(firsts), np.int64)
    code_of[appearance] = np.arange(len(firsts))
    codes = np.empty(n, np.int64)
    codes[order] = np.repeat(code_of, np.diff(np.flatnonzero(new), append=n))
    return names, codes


def _parse_csv(path: str | Path) -> dict[str, Column]:
    """Parse a label file with csv, or raise the error that names its first fault.

    One csv pass gathers the cells row-major into a flat list and checks
    only each row's width; the other checks run over whole columns. An
    error names the first bad row, and within it the first check it fails:
    width, missing value, integer item_id, dense order.
    """
    cells: list[str] = []
    stop = None  # the error that ended the pass early; an earlier bad row goes first
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty label file") from None
            if not header or header[0] != "item_id":
                raise DataError(f"{path}: first column must be item_id")
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names")
            width = len(header)
            for row in reader:
                if len(row) != width:
                    stop = f"{path}:{len(cells) // width + 2}: expected {width} cells"
                    break
                cells.extend(row)
        except UnicodeDecodeError:
            stop = f"{path}: label file is not UTF-8 text"
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            stop = f"{path}:{reader.line_num}: {exc}"
    if cells:
        bad = _first_bad_row(cells, width)
        if bad is not None:
            raise DataError(f"{path}:{bad[0] + 2}: {bad[1]}")
    if stop is not None:
        raise DataError(stop)
    if not cells:
        raise DataError(f"{path}: no data rows")
    return {name: _coded(cells[j::width]) for j, name in enumerate(header) if j}


def _coded(cells: list[str]) -> Column:
    """A column's distinct cells in first-appearance order, and each row's code."""
    order = {cell: code for code, cell in enumerate(dict.fromkeys(cells))}
    return tuple(order), np.fromiter(map(order.__getitem__, cells), np.int64, len(cells))


def _first_bad_row(cells: list[str], width: int) -> tuple[int, str] | None:
    """Index and fault of the first full-width row that breaks the schema.

    Only an item_id whose text differs from its row index, such as "007",
    goes through int(); the scans for empty cells and for those ids run in C.
    """
    ids = cells[::width]
    rows = cells.index("") // width if "" in cells else len(ids)
    matches = list(map(operator.eq, ids[:rows], map(str, range(rows))))
    row = -1
    while True:
        try:
            row = matches.index(False, row + 1)
        except ValueError:
            break
        try:
            item_id = int(ids[row])
        except ValueError:
            return row, "item_id must be an integer"
        if item_id != row:
            return row, f"item_id {item_id} breaks the dense 0..n-1 order"
    return (rows, "missing value") if rows < len(ids) else None


def decode_labels(
    columns: dict[str, Column], attribute: str, kind: str, path: str | Path
) -> GroupLabels | np.ndarray:
    """Decode one "group" or "binary" column of a label table; path only names it in errors.

    Group categories are the column's codes, dense in first-appearance
    order, and the category names ride along on the result. Binary columns
    accept 0/1 or -1/+1 and decode to a read-only boolean array, true at 1
    and +1. The names are checked in first-appearance order, so a bad name
    reported is the first bad cell in row order.
    """
    if attribute not in columns:
        raise DataError(f"{path}: no column named {attribute!r}")
    names, codes = columns[attribute]
    if kind == "group":
        if len(names) < 2:
            raise DataError(f"{path}: column {attribute!r} has fewer than 2 categories")
        return GroupLabels(codes, group_count=len(names), group_names=names)
    mapping = {"0": False, "1": True, "-1": False, "+1": True}
    try:
        values = np.array([mapping[name] for name in names], bool)
    except KeyError as exc:
        raise DataError(
            f"{path}: column {attribute!r} has non-binary value {exc.args[0]!r}"
        ) from None
    labels = values[codes]
    labels.setflags(write=False)
    return labels


def write_label_table(path: str | Path, columns: dict[str, list]) -> None:
    """Write a label table: item_id 0..n-1, then the given equal-length columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", *columns])
        writer.writerows([i, *row] for i, row in enumerate(zip(*columns.values())))


def serialize_transform(transform: Transform, metadata: dict[str, Any] | None = None) -> bytes:
    """Versioned binary container with a trailing CRC32 over header and payload.

    The header names the transform's kind code; the transform writes the body.
    """
    meta = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    header = struct.pack("<HBI", TRANSFORM_VERSION, transform.KIND, len(meta))
    blob = TRANSFORM_MAGIC + header + meta + transform.to_bytes()
    return blob + struct.pack("<I", zlib.crc32(blob[len(TRANSFORM_MAGIC) :]))


def deserialize_transform(data: bytes) -> tuple[Transform, dict[str, Any]]:
    """Inverse of serialize_transform; returns the transform and its metadata."""
    if len(data) < len(TRANSFORM_MAGIC) + 11:
        raise DataError("transform container truncated")
    if not data.startswith(TRANSFORM_MAGIC):
        raise DataError(f"bad transform magic {data[:8]!r}")
    stored_crc = struct.unpack_from("<I", data, len(data) - 4)[0]
    if zlib.crc32(data[len(TRANSFORM_MAGIC) : -4]) != stored_crc:
        raise DataError("transform container failed its checksum")
    version, kind, meta_len = struct.unpack_from("<HBI", data, len(TRANSFORM_MAGIC))
    if version != TRANSFORM_VERSION:
        raise DataError(f"unsupported transform version {version}")
    offset = len(TRANSFORM_MAGIC) + 7
    try:
        meta = json.loads(data[offset : offset + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError("transform metadata is not valid JSON") from exc
    if not isinstance(meta, dict):
        raise DataError("transform metadata must be a JSON object")
    body = data[offset + meta_len : -4]
    if len(body) < 8:
        raise DataError(f"transform payload has {len(body)} bytes, short of its header")
    if kind not in TRANSFORMS:
        raise DataError(f"unknown transform kind {kind}")
    return TRANSFORMS[kind].from_bytes(body), meta


def write_transform(transform: Transform, path: str | Path, metadata: dict | None = None) -> None:
    Path(path).write_bytes(serialize_transform(transform, metadata))


def read_transform(path: str | Path) -> tuple[Transform, dict[str, Any]]:
    return deserialize_transform(Path(path).read_bytes())


def render_json(payload: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, two-space indent, trailing newline."""
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode(
        "utf-8"
    )


def write_report(payload: dict, path: str | Path) -> None:
    Path(path).write_bytes(render_json(payload))
