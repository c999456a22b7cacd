"""File format tests: round trips, corruption handling, schema validation."""

import csv
import hashlib
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flens.core import BLOCK_ROWS, EmbeddingMatrix
from flens.errors import DataError
from flens.io import (
    decode_labels,
    deserialize_transform,
    open_embeddings,
    read_embeddings,
    read_label_table,
    read_transform,
    render_json,
    serialize_transform,
    write_embeddings,
    write_label_table,
    write_report,
    write_transform,
)
from flens.mitigation import FairPcaTransform, MiClipTransform, apply_fair_pca, apply_mi_clip
from flens.report import _quartiles, sanitize

from .helpers import read_report, write_embeddings_text
from .oracles import OracleSchemaError, oracle_read_label_table


@pytest.fixture
def matrix():
    rng = np.random.default_rng(0)
    return EmbeddingMatrix(rng.normal(size=(3, 2)).astype(np.float32))


class TestEmbeddingFormat:
    def test_round_trip(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        back = read_embeddings(path)
        assert np.array_equal(back, matrix.values)

    def test_rewrite_is_bit_identical(self, tmp_path, matrix):
        first = tmp_path / "a.femb"
        second = tmp_path / "b.femb"
        write_embeddings(matrix, first)
        write_embeddings(EmbeddingMatrix(read_embeddings(first)), second)
        assert first.read_bytes() == second.read_bytes()

    def test_identical_matrices_same_hash(self, tmp_path, matrix):
        paths = [tmp_path / name for name in ("x.femb", "y.femb")]
        for path in paths:
            write_embeddings(matrix, path)
        digests = {hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        assert len(digests) == 1

    def test_truncated_payload(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(DataError, match=r"payload has \d+ of \d+ bytes"):
            read_embeddings(path)

    def test_trailing_garbage(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(DataError, match="1 bytes of trailing data"):
            read_embeddings(path)

    def test_bad_version(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="unsupported version 99"):
            read_embeddings(path)

    def test_nan_payload_rejected(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        data = bytearray(path.read_bytes())
        data[23:27] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(DataError):
            read_embeddings(path)

    def test_layout_is_header_then_float32_rows(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        header = struct.pack("<8sHQIB", b"FLENSEMB", 1, 3, 2, 1)
        assert path.read_bytes() == header + matrix.values.astype("<f4").tobytes()

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_value_beyond_float32_rejected(self, tmp_path, value):
        path = tmp_path / "m.femb"
        values = np.zeros((4, 3))
        values[2, 1] = value
        with np.errstate(over="ignore"), pytest.raises(DataError, match="overflow 32-bit"):
            write_embeddings(EmbeddingMatrix(values), path)
        assert not path.exists()

    def test_blocks_write_the_bytes_of_the_whole_matrix(self, tmp_path):
        values = np.random.default_rng(2).normal(size=(BLOCK_ROWS + 7, 5))
        whole, blocked = tmp_path / "whole.femb", tmp_path / "blocked.femb"
        assert write_embeddings(EmbeddingMatrix(values), whole) == values.shape
        blocks = (values[start : start + 1000] for start in range(0, len(values), 1000))
        assert write_embeddings(blocks, blocked) == values.shape
        assert blocked.read_bytes() == whole.read_bytes()

    def test_failed_write_leaves_the_old_file(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        before = path.read_bytes()
        blocks = [np.zeros((2, 2)), np.array([[1e39, 0.0]])]
        with np.errstate(over="ignore"), pytest.raises(DataError, match="overflow 32-bit"):
            write_embeddings(iter(blocks), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.femb"]

    def test_write_holds_one_payload_copy(self, tmp_path):
        matrix = EmbeddingMatrix(np.random.default_rng(1).normal(size=(4000, 64)))
        payload_bytes = 4 * 4000 * 64
        tracemalloc.start()
        try:
            write_embeddings(matrix, tmp_path / "m.femb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float32 payload itself; no bytes copy of it and no concatenation
        assert peak <= 1.25 * payload_bytes
        assert (tmp_path / "m.femb").stat().st_size == 23 + payload_bytes

    def test_text_twin_parses_identically(self, tmp_path, matrix):
        binary = tmp_path / "m.femb"
        text = tmp_path / "m.csv"
        write_embeddings(matrix, binary)
        write_embeddings_text(matrix, text)
        assert np.array_equal(read_embeddings(binary), read_embeddings(text))

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x00\x01\xff not embeddings")
        with pytest.raises(DataError, match="neither binary embeddings nor text"):
            read_embeddings(path)


def write_payload(path, payload):
    """An embeddings file holding a float32 payload as it is, NaN and Inf included."""
    header = struct.pack("<8sHQIB", b"FLENSEMB", 1, *payload.shape, 1)
    path.write_bytes(header + payload.astype("<f4").tobytes())
    return path


class TestEmbeddingRead:
    """Sized before any allocation, then read and checked block by block, rows kept by mask."""

    def test_header_claiming_huge_n_is_truncation(self, tmp_path):
        path = tmp_path / "huge.femb"
        header = struct.pack("<8sHQIB", b"FLENSEMB", 1, 2**40, 4, 1)
        path.write_bytes(header + np.zeros(8, dtype="<f4").tobytes())
        with pytest.raises(DataError, match=f"payload has 32 of {2**40 * 16} bytes"):
            read_embeddings(path)

    @pytest.mark.parametrize("n, d", [(0, 4), (2**60, 0)])
    def test_header_giving_no_values(self, tmp_path, n, d):
        """Zero rows, or zero columns under any row count, fail before a block is read."""
        path = tmp_path / "none.femb"
        path.write_bytes(struct.pack("<8sHQIB", b"FLENSEMB", 1, n, d, 1))
        with pytest.raises(DataError, match=f"header gives {n} rows of {d} values"):
            read_embeddings(path)

    def test_empty_file_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.femb"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="no rows"):
            read_embeddings(path)

    def test_file_shorter_than_header(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(DataError, match="header truncated"):
            read_embeddings(path)

    @pytest.mark.parametrize("writer", [write_embeddings, write_embeddings_text])
    def test_nan_in_a_dropped_row_still_rejected(self, tmp_path, matrix, writer):
        path = tmp_path / "m.femb"
        writer(matrix, path)
        if writer is write_embeddings:
            data = bytearray(path.read_bytes())
            data[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # last value of the last row
            path.write_bytes(bytes(data))
        else:
            lines = path.read_text().splitlines()
            lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="payload contains NaN or Inf"):
            read_embeddings(path, keep=np.array([True, False, False]))

    @pytest.mark.parametrize("writer", [write_embeddings, write_embeddings_text])
    @pytest.mark.parametrize("rows", [2, 4])
    def test_mask_of_wrong_length(self, tmp_path, matrix, writer, rows):
        path = tmp_path / "m.femb"
        writer(matrix, path)
        expected = f"{path} has 3 rows, but the label table has {rows}"
        with pytest.raises(DataError, match=f"^{re.escape(expected)}$"):
            read_embeddings(path, keep=np.ones(rows, dtype=bool))

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 5)),
        seed=st.integers(0, 2**32 - 1),
        fill=st.sampled_from([None, False, True]),
        text=st.booleans(),
    )
    def test_kept_rows_equal_rows_taken_after_a_full_read(self, tmp_path, shape, seed, fill, text):
        rng = np.random.default_rng(seed)
        matrix = EmbeddingMatrix(rng.normal(size=shape).astype(np.float32))
        path = tmp_path / ("m.csv" if text else "m.femb")
        (write_embeddings_text if text else write_embeddings)(matrix, path)
        keep = rng.random(shape[0]) < 0.5 if fill is None else np.full(shape[0], fill)
        if not keep.any():
            assert read_embeddings(path, keep).shape == (0, shape[1])
            return
        kept = read_embeddings(path, keep)
        taken = read_embeddings(path)[np.flatnonzero(keep)]
        assert kept.dtype == taken.dtype == np.float64
        assert kept.tobytes() == taken.tobytes()

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        extra=st.integers(1, BLOCK_ROWS),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        share=st.floats(0.0, 1.0),
    )
    def test_blocked_read_equals_widened_payload(self, tmp_path, extra, d, seed, share):
        """Three or more blocks, the last partial: kept rows match the payload bit for bit."""
        rng = np.random.default_rng(seed)
        payload = rng.normal(size=(2 * BLOCK_ROWS + extra, d)).astype("<f4")
        path = write_payload(tmp_path / "m.femb", payload)
        keep = rng.random(len(payload)) < share
        keep[rng.integers(len(payload))] = True
        kept = read_embeddings(path, keep)
        assert kept.tobytes() == payload.astype(np.float64)[keep].tobytes()
        assert read_embeddings(path).tobytes() == payload.astype(np.float64).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_bad_value_in_a_dropped_row_of_the_last_partial_block(self, tmp_path, value):
        payload = np.ones((2 * BLOCK_ROWS + 5, 3), dtype="<f4")
        payload[-2, 1] = value
        path = write_payload(tmp_path / "m.femb", payload)
        keep = np.ones(len(payload), dtype=bool)
        keep[-2] = False
        with pytest.raises(DataError, match="payload contains NaN or Inf"):
            read_embeddings(path, keep)

    def test_file_shrinking_mid_read(self, tmp_path):
        payload = np.ones((2 * BLOCK_ROWS, 4), dtype="<f4")
        path = write_payload(tmp_path / "m.femb", payload)
        expected = payload.nbytes
        with open_embeddings(path) as (rows, dims, blocks):
            assert (rows, dims) == payload.shape
            next(blocks)
            with open(path, "r+b") as fh:  # cut the second block short by 8 bytes
                fh.truncate(23 + expected - 8)
            with pytest.raises(DataError, match=f"payload has {expected - 8} of {expected} bytes"):
                next(blocks)


def read_labels(path, attribute, kind="group"):
    """One column of a label file, decoded as the commands decode it."""
    return decode_labels(read_label_table(path), attribute, kind, path)


class TestLabelFiles:
    def test_first_appearance_mapping(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,gender\n0,f\n1,m\n2,f\n")
        labels = read_labels(path, "gender")
        assert labels.labels.tolist() == [0, 1, 0]
        assert labels.group_names == ("f", "m")

    def test_seven_categories(self, tmp_path):
        path = tmp_path / "labels.csv"
        races = ["east_asian", "indian", "black", "white", "middle_eastern", "latino", "se_asian"]
        rows = "\n".join(f"{i},{races[i % 7]}" for i in range(14))
        path.write_text("item_id,race\n" + rows + "\n")
        labels = read_labels(path, "race")
        assert labels.group_count == 7

    def test_binary_convention_mapping(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,task\n0,0\n1,1\n2,-1\n3,+1\n4,1\n")
        labels = read_labels(path, "task", kind="binary")
        assert labels.dtype == bool
        assert labels.tolist() == [False, True, False, True, True]
        with pytest.raises(ValueError):
            labels[0] = True

    def test_missing_column(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,a\n0,x\n")
        with pytest.raises(DataError) as raised:
            read_labels(path, "b")
        assert str(raised.value) == f"{path}: no column named 'b'"

    def test_item_id_gap(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,a\n0,x\n2,y\n")
        with pytest.raises(DataError) as raised:
            read_label_table(path)
        assert str(raised.value) == f"{path}:3: item_id 2 breaks the dense 0..n-1 order"

    def test_missing_value(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,a\n0,x\n1,\n")
        with pytest.raises(DataError) as raised:
            read_label_table(path)
        assert str(raised.value) == f"{path}:3: missing value"

    def test_non_binary_value(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,task\n0,1\n1,yes\n")
        with pytest.raises(DataError) as raised:
            read_labels(path, "task", kind="binary")
        assert str(raised.value) == f"{path}: column 'task' has non-binary value 'yes'"

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_label_table(path, {"group": ["a", "b", "a"], "split": ["train", "test", "train"]})
        table = read_label_table(path)
        assert table["group"] == ["a", "b", "a"]
        assert table["split"] == ["train", "test", "train"]


_CELLS = st.sampled_from(["a", "b7", 'q"r', "x,y", "l1\nl2", "c\rd", "", "z" * 20])


@st.composite
def label_csv(draw) -> bytes:
    """Label CSV bytes mixing valid rows with every fault the parser reports."""
    width = draw(st.integers(1, 3))
    header = ["item_id", *(f"c{j}" for j in range(1, width))]
    fault = draw(st.sampled_from([None] * 8 + ["duplicate", "first", "blank", "absent"]))
    if fault == "duplicate":
        header.append(header[-1])
    elif fault == "first":
        header[0] = "id"
    elif fault == "blank":
        header = []
    rows = [] if fault == "absent" else [header]
    for i in range(draw(st.integers(0, 6))):
        faults = [f"00{i}", f"+{i}", f" {i}", str(i + 1), "x", ""]
        item_id = draw(st.sampled_from([str(i)] * 12 + faults))
        row = [item_id, *(draw(_CELLS) for _ in range(width - 1))]
        spread = draw(st.sampled_from([0] * 8 + [1, -1]))
        if spread > 0:
            row.append(draw(_CELLS))
        elif spread < 0:
            row.pop()
        rows.append(row)
    lines = []
    quote = st.sampled_from([True, True, True, False])
    for row in rows:
        # an unquoted cell may hold a comma, quote or line break: csv splits it its own way
        quoted = ('"' + cell.replace('"', '""') + '"' if draw(quote) else cell for cell in row)
        lines.append(",".join(quoted))
        if draw(st.sampled_from([False] * 9 + [True])):
            lines.append("")
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    if text and draw(st.booleans()):
        text = text[:-1]  # no line ending after the last line
    data = text.encode("utf-8")
    if data and draw(st.sampled_from([False] * 9 + [True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _assert_parses_like_oracle(path):
    """read_label_table returns the oracle's columns or raises its message."""
    try:
        expected = oracle_read_label_table(path)
    except OracleSchemaError as exc:
        with pytest.raises(DataError) as raised:
            read_label_table(path)
        assert type(raised.value) is DataError
        assert str(raised.value) == str(exc)
    else:
        assert read_label_table(path) == expected


@pytest.fixture
def small_field_limit():
    """Cells over 16 characters raise csv.Error, so the csv-error path is cheap to reach."""
    limit = csv.field_size_limit(16)
    yield
    csv.field_size_limit(limit)


class TestLabelParserOracle:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=label_csv())
    @example(data=b'item_id,a\r\n0,"x,\ny"\r\n1,"q""r"\r\n')  # quoting, CRLF
    @example(data=b"item_id,a\r0,x\r1,y")  # bare CR, no final line ending
    @example(data=b"item_id,a\n0,x\n\n1,y\n")  # a blank line is a row of 0 cells
    @example(data=b"item_id,a\n0,x\n1,x\n2,x\n+3,x\n4,x\n5,x\n6,x\n007,x\n")  # int() ids
    @example(data=b"item_id,a\n0,x\n2,y\n3,\n4\n")  # several bad rows: the first wins
    @example(data=b"item_id,a\n0,\n1,x,y\n")  # missing value before a width error
    @example(data=b"item_id,a\n0,x\n1,x\n3,x\n3," + b"z" * 20 + b"\n")  # bad row, then csv.Error
    @example(data=b"item_id,a\n0,x\n1," + b"z" * 20 + b"\n3,x\n")  # csv.Error before the bad row
    @example(data=b"item_id,a,b\n")  # header only
    @example(data=b"item_id,a,a\n0,x,y\n")  # duplicate column names
    @example(data=b"")
    def test_matches_row_by_row_oracle(self, tmp_path, small_field_limit, data):
        path = tmp_path / "labels.csv"
        path.write_bytes(data)
        _assert_parses_like_oracle(path)

    @pytest.mark.parametrize("bad_row", ["9,x\n", ""])
    def test_decode_error_after_a_bad_row(self, tmp_path, bad_row):
        """Undecodable bytes past the first text chunk: an earlier bad row is named first."""
        path = tmp_path / "labels.csv"
        rows = "".join(f"{i},x\n" for i in range(2, 4000))
        path.write_bytes(f"item_id,a\n0,x\n1,x\n{bad_row}{rows}".encode() + b"\xff\n")
        _assert_parses_like_oracle(path)
        with pytest.raises(DataError) as raised:
            read_label_table(path)
        expected = ":4: item_id 9 breaks the dense" if bad_row else ": label file is not UTF-8"
        assert expected in str(raised.value)


class TestTransformContainers:
    def _miclip(self):
        mask = np.array([True, False, True, True])
        scores = np.array([0.1, 0.9, 0.2, 0.05])
        return MiClipTransform(keep_mask=mask, mi_scores=scores)

    def _fairpca(self):
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        return FairPcaTransform(mean=rng.normal(size=5), projection=basis)

    def test_miclip_round_trip(self, tmp_path):
        transform = self._miclip()
        data = serialize_transform(transform, {"attribute_source": "groundTruth"})
        back, meta = deserialize_transform(data)
        assert np.array_equal(back.keep_mask, transform.keep_mask)
        assert np.array_equal(back.mi_scores, transform.mi_scores)
        assert meta == {"attribute_source": "groundTruth"}
        matrix = np.random.default_rng(2).normal(size=(6, 4))
        assert np.array_equal(apply_mi_clip(back, matrix), apply_mi_clip(transform, matrix))

    def test_fairpca_round_trip_preserves_apply_bits(self, tmp_path):
        transform = self._fairpca()
        path = tmp_path / "t.ftfm"
        write_transform(transform, path, {"method": "fairpca"})
        back, meta = read_transform(path)
        matrix = np.random.default_rng(3).normal(size=(7, 5))
        assert np.array_equal(apply_fair_pca(back, matrix), apply_fair_pca(transform, matrix))
        gram = back.projection.T @ back.projection
        assert np.max(np.abs(gram - np.eye(back.projection.shape[1]))) < 1e-10
        assert meta["method"] == "fairpca"

    def test_corrupted_byte_fails_checksum(self):
        data = bytearray(serialize_transform(self._miclip()))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(DataError, match="transform container failed its checksum"):
            deserialize_transform(bytes(data))

    def test_bad_magic(self):
        data = bytearray(serialize_transform(self._miclip()))
        data[0] = 0x58
        with pytest.raises(DataError, match="bad transform magic"):
            deserialize_transform(bytes(data))

    def test_version_mismatch(self):
        data = bytearray(serialize_transform(self._miclip()))
        data[8] = 77  # version field, then repair the checksum
        import struct
        import zlib

        crc = zlib.crc32(bytes(data[8:-4]))
        data[-4:] = struct.pack("<I", crc)
        with pytest.raises(DataError, match="unsupported transform version 77"):
            deserialize_transform(bytes(data))

    @staticmethod
    def _container(meta: bytes, body: bytes) -> bytes:
        """An mi-clip container with a valid checksum around the given metadata and body."""
        blob = b"FLENSTFM" + struct.pack("<HBI", 1, 1, len(meta)) + meta + body
        return blob + struct.pack("<I", zlib.crc32(blob[8:]))

    def test_body_shorter_than_dims_header(self):
        with pytest.raises(DataError, match="transform payload has 3 bytes, short of its header"):
            deserialize_transform(self._container(b"{}", b"\x04\x00\x00"))

    def test_metadata_must_be_object(self):
        body = serialize_transform(self._miclip())[len(b"FLENSTFM") + 7 + len(b"{}") : -4]
        assert deserialize_transform(self._container(b"{}", body))[1] == {}
        with pytest.raises(DataError, match="transform metadata must be a JSON object"):
            deserialize_transform(self._container(b"[1]", body))


class TestReports:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308, 5e-324]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=40,
    ))
    def test_quartiles_equal_np_quantile_bitwise(self, values):
        values = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):  # b - a can overflow, in both
            expected = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
            assert _quartiles(values).tobytes() == expected.tobytes()

    def test_round_trip(self, tmp_path):
        report = {"schema_version": 1, "value": 0.25, "skew": sanitize(float("inf"))}
        path = tmp_path / "report.json"
        write_report(report, path)
        assert read_report(path) == {"schema_version": 1, "value": 0.25, "skew": "inf"}

    def test_canonical_bytes_stable(self):
        a = render_json({"b": 1, "a": [1.5, 2.5]})
        b = render_json({"a": [1.5, 2.5], "b": 1})
        assert a == b

    def test_rewrite_is_bit_identical(self, tmp_path):
        report = {"x": [1, 2, 3], "y": {"nested": 0.125}}
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, first)
        write_report(read_report(first), second)
        assert first.read_bytes() == second.read_bytes()
