"""Durable file formats: embeddings, label tables, transforms, reports.

Embeddings travel as 32-bit little-endian floats behind a fixed header.
They are read, checked and written in blocks of BLOCK_ROWS rows; the rows
a command keeps are widened to float64 in memory, and statistics never run
on float32. A comma-separated text twin is read too. Transforms live in a
versioned, checksummed binary container. Reports are canonical JSON.
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


def write_embeddings(
    matrix: EmbeddingMatrix | Iterable[np.ndarray], path: str | Path
) -> tuple[int, int]:
    """Write the canonical binary layout; identical values give identical bytes.

    ``matrix`` is a whole matrix or an iterable of 2-d row blocks of one
    width, such as ``apply`` streams. Each block is rounded to float32,
    checked and written before the next is taken, so the writer holds one
    float32 block, never a copy of the whole payload. The bytes go to
    ``<path>.partial`` and are renamed over ``path`` only once complete:
    on any error that file is removed and ``path`` is left as it was.
    Returns the (rows, dims) written.
    """
    blocks = _row_blocks(matrix.values) if isinstance(matrix, EmbeddingMatrix) else matrix
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
            fh.seek(0)
            header = (EMBEDDING_MAGIC, EMBEDDING_VERSION, rows, dims, _DTYPE_F32_LE)
            fh.write(_EMBEDDING_HEADER.pack(*header))
        os.replace(partial, path)
    finally:  # after the rename there is nothing left to remove
        partial.unlink(missing_ok=True)
    return rows, dims


def read_embeddings(path: str | Path, keep: np.ndarray | None = None) -> np.ndarray:
    """Read an embeddings file, binary or its comma-separated text twin.

    One float64 array is allocated for the rows where the boolean mask
    ``keep`` is true (every row when it is None), after open_embeddings has
    sized the payload against the file and the mask's length is checked
    against its rows. Each float32 block is checked for NaN/Inf, dropped
    rows included, and its kept rows are widened into that array. The
    command holds the kept rows plus one block; open_kept_rows reads the
    same rows without holding them all.
    """
    with open_embeddings(path) as (n, d, blocks):
        values = np.empty((int(_kept_per_block(path, n, keep).sum()), d))
        start = filled = 0
        for block in blocks:
            rows = block if keep is None else block[keep[start : start + len(block)]]
            values[filled : filled + len(rows)] = rows
            start, filled = start + len(block), filled + len(rows)
    return values


@contextmanager
def open_kept_rows(
    path: str | Path, keep: np.ndarray
) -> Iterator[Iterator[tuple[np.ndarray, np.ndarray]]]:
    """An embeddings file's kept rows, block by block.

    The rows kept are those where the boolean mask ``keep`` is true; its
    length is checked against the header's n on opening. Every block of
    open_embeddings is checked for NaN/Inf, dropped rows included. For each
    block with a kept row come the kept rows' numbers in the file and their
    values widened to float64, in one reused buffer sized for the block that
    keeps the most rows, valid until the next block is taken. The command
    so holds one float32 block and at most one float64 block, never all the
    kept rows.
    """
    with open_embeddings(path) as (n, d, blocks):
        buffer = np.empty((int(_kept_per_block(path, n, keep).max()), d))
        yield _widened_blocks(blocks, keep, buffer)


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
    blocks: Iterable[np.ndarray], keep: np.ndarray, buffer: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per block with a kept row: those rows' numbers in the file, and the rows widened into ``buffer``.

    A block kept whole is widened as read, with no float32 copy; of other
    blocks the kept rows are gathered first.
    """
    start = 0
    for block in blocks:
        stop = start + len(block)
        rows = start + np.flatnonzero(keep[start:stop])
        if rows.size:
            buffer[: rows.size] = block if rows.size == len(block) else block[rows - start]
            yield rows, buffer[: rows.size]
        start = stop


@contextmanager
def open_embeddings(path: str | Path) -> Iterator[tuple[int, int, Iterator[np.ndarray]]]:
    """An embeddings file's row count, column count and float32 row blocks.

    The binary header is checked first (version, dtype, and the payload size
    against the file's, before anything is allocated). The blocks, of
    BLOCK_ROWS rows, are read in turn into one reused buffer, so each is
    valid until the next is taken; each is checked for NaN/Inf before it is
    handed out. A file that does not start with the binary magic is parsed
    as the text twin, through float32, so it decodes to exactly the matrix
    of its binary twin; its blocks are slices of the parsed rows, checked
    the same way.
    """
    with open(path, "rb") as fh:
        header = fh.read(_EMBEDDING_HEADER.size)
        if not header.startswith(EMBEDDING_MAGIC):
            values = _parse_embeddings_text(header + fh.read(), path)
            yield *values.shape, _checked(_row_blocks(values), f"{path}: text payload")
            return
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
        yield n, d, _checked(_file_blocks(fh, path, n, d), f"{path}: payload")


def _file_blocks(fh: BinaryIO, path: str | Path, n: int, d: int) -> Iterator[np.ndarray]:
    buffer = np.empty((min(n, BLOCK_ROWS), d), dtype="<f4")
    for start in range(0, n, BLOCK_ROWS):
        block = buffer[: min(BLOCK_ROWS, n - start)]
        got = fh.readinto(block)
        if got < block.nbytes:  # the file shrank after it was sized
            raise DataError(f"{path}: payload has {start * d * 4 + got} of {n * d * 4} bytes")
        yield block


def _row_blocks(values: np.ndarray) -> Iterator[np.ndarray]:
    return (values[start : start + BLOCK_ROWS] for start in range(0, len(values), BLOCK_ROWS))


def _checked(blocks: Iterable[np.ndarray], what: str) -> Iterator[np.ndarray]:
    for block in blocks:
        if not _finite(block):
            raise DataError(f"{what} contains NaN or Inf")
        yield block


def _finite(values: np.ndarray) -> bool:
    """Whether every value is finite; min and max carry any NaN or Inf, with no mask."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def _parse_embeddings_text(data: bytes, path: str | Path) -> np.ndarray:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: neither binary embeddings nor text") from exc
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [np.float32(cell) for cell in line.split(",")]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: unparsable value") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no rows")
    return np.asarray(rows, dtype=np.float32)


def read_label_table(path: str | Path) -> dict[str, list[str]]:
    """Parse a label file into columns, enforcing the item_id schema.

    item_id must be the first column and run densely 0..n-1 in order;
    every cell must be non-empty. One csv pass gathers the cells row-major
    into a flat list and checks only each row's width; the other checks run
    over whole columns. An error names the first bad row, and within it the
    first check it fails: width, missing value, integer item_id, dense order.
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
    return {name: cells[j::width] for j, name in enumerate(header)}


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
    columns: dict[str, list[str]], attribute: str, kind: str, path: str | Path
) -> GroupLabels | np.ndarray:
    """Decode one "group" or "binary" column of a label table; path only names it in errors.

    Group categories map to dense indices in first-appearance order and the
    category names ride along on the result. Binary columns accept 0/1 or
    -1/+1 and decode to a read-only boolean array, true at 1 and +1.
    """
    if attribute not in columns:
        raise DataError(f"{path}: no column named {attribute!r}")
    raw = columns[attribute]
    if kind == "group":
        order = {cell: code for code, cell in enumerate(dict.fromkeys(raw))}
        if len(order) < 2:
            raise DataError(f"{path}: column {attribute!r} has fewer than 2 categories")
        labels = np.fromiter(map(order.__getitem__, raw), np.int64, len(raw))
        return GroupLabels(labels, group_count=len(order), group_names=tuple(order))
    mapping = {"0": False, "1": True, "-1": False, "+1": True}
    try:
        labels = np.fromiter(map(mapping.__getitem__, raw), bool, len(raw))
    except KeyError as exc:
        raise DataError(
            f"{path}: column {attribute!r} has non-binary value {exc.args[0]!r}"
        ) from None
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
