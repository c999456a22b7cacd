"""Durable file formats: embeddings, label tables, transforms, reports.

Embeddings travel as 32-bit little-endian floats behind a fixed header;
the rows a command keeps are widened to float64 in memory, and statistics
never run on float32. A comma-separated text twin exists for
interoperability. Transforms live in a versioned, checksummed binary
container. Reports are canonical JSON.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import struct
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from .core import BinaryLabels, EmbeddingMatrix, GroupLabels
from .errors import DataError
from .mitigation import TRANSFORMS, Transform

EMBEDDING_MAGIC = b"FLENSEMB"
EMBEDDING_VERSION = 1
_EMBEDDING_HEADER = struct.Struct("<8sHQIB")
_DTYPE_F32_LE = 1

TRANSFORM_MAGIC = b"FLENSTFM"
TRANSFORM_VERSION = 1


def write_embeddings(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Write the canonical binary layout; identical matrices give identical bytes."""
    payload = np.ascontiguousarray(matrix.values, dtype="<f4")
    # min and max carry any NaN or Inf, with no mask the size of the payload
    if not (np.isfinite(payload.min()) and np.isfinite(payload.max())):
        raise DataError("values overflow 32-bit floats")
    header = _EMBEDDING_HEADER.pack(
        EMBEDDING_MAGIC, EMBEDDING_VERSION, matrix.rows, matrix.dims, _DTYPE_F32_LE
    )
    with open(path, "wb") as fh:  # the payload's own buffer, not a bytes copy of it
        fh.write(header)
        fh.write(payload.data)


def read_embeddings(path: str | Path, keep: np.ndarray | None = None) -> EmbeddingMatrix:
    """Read a binary embeddings file, falling back to comma-separated text.

    The payload is read once into one float32 buffer, sized from the header
    and checked against the file size before anything is allocated. The whole
    buffer is checked for NaN/Inf, but only the rows where the boolean mask
    ``keep`` is true (every row when it is None) are widened to float64.

    The text fallback parses through float32 so a text file written by
    write_embeddings_text decodes to exactly the same matrix as its
    binary twin.
    """
    with open(path, "rb") as fh:
        header = fh.read(_EMBEDDING_HEADER.size)
        if not header.startswith(EMBEDDING_MAGIC):
            return _read_embeddings_text(header + fh.read(), path, keep)
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
        values = np.empty((n, d), dtype="<f4")
        got = fh.readinto(values)
        if got < expected:  # the file shrank after it was sized
            raise DataError(f"{path}: payload has {got} of {expected} bytes")
    return _kept_rows(values, keep, f"{path}: payload")


def _kept_rows(values: np.ndarray, keep: np.ndarray | None, what: str) -> EmbeddingMatrix:
    """Check a whole float32 payload for NaN/Inf, then widen the rows ``keep`` marks."""
    if not np.isfinite(values).all():
        raise DataError(f"{what} contains NaN or Inf")
    if keep is None:
        return EmbeddingMatrix(values, finite=True)
    if np.shape(keep) != values.shape[:1]:
        raise DataError("protected labels length differs from embedding rows")
    return EmbeddingMatrix(values[keep], finite=True)


def write_embeddings_text(matrix: EmbeddingMatrix, path: str | Path) -> None:
    """Comma-separated twin of the binary format, one row per item.

    Values are rendered with enough digits to round-trip float32 exactly.
    """
    as_f32 = matrix.values.astype(np.float32)
    lines = [",".join(format(float(v), ".9g") for v in row) for row in as_f32]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _read_embeddings_text(
    data: bytes, path: str | Path, keep: np.ndarray | None
) -> EmbeddingMatrix:
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
    return _kept_rows(np.asarray(rows, dtype=np.float32), keep, f"{path}: text payload")


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
) -> GroupLabels | BinaryLabels:
    """Decode one column of a parsed label table; path only names it in errors.

    Group categories map to dense indices in first-appearance order and the
    category names ride along on the result. Binary columns accept 0/1 or
    -1/+1 and normalize to -1/+1.
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
    if kind == "binary":
        mapping = {"0": -1, "1": 1, "-1": -1, "+1": 1}
        try:
            labels = np.fromiter(map(mapping.__getitem__, raw), np.int64, len(raw))
        except KeyError as exc:
            raise DataError(
                f"{path}: column {attribute!r} has non-binary value {exc.args[0]!r}"
            ) from None
        return BinaryLabels(labels)
    raise DataError(f"unknown label kind {kind!r}")


def write_label_table(path: str | Path, columns: dict[str, list]) -> None:
    """Write a label table; item_id is generated unless supplied (dense 0..n-1)."""
    columns = dict(columns)
    provided_ids = columns.pop("item_id", None)
    names = list(columns)
    lengths = {len(v) for v in columns.values()}
    if len(lengths) != 1:
        raise DataError("all label columns must have the same length")
    n = lengths.pop()
    if provided_ids is not None and [int(v) for v in provided_ids] != list(range(n)):
        raise DataError("item_id must run densely 0..n-1")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id"] + names)
        for i in range(n):
            writer.writerow([i] + [columns[name][i] for name in names])


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
