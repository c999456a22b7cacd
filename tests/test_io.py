"""File format tests: round trips, corruption handling, schema validation."""

import hashlib
import struct
import zlib

import numpy as np
import pytest

from flens.core import BinaryLabels, EmbeddingMatrix
from flens.errors import (
    ChecksumError,
    DataError,
    FormatError,
    SchemaError,
    TruncationError,
    VersionError,
)
from flens.io import (
    deserialize_transform,
    read_embeddings,
    read_label_table,
    read_labels,
    read_report,
    read_transform,
    render_json,
    serialize_transform,
    write_embeddings,
    write_embeddings_text,
    write_label_table,
    write_report,
    write_transform,
)
from flens.mitigation import FairPcaTransform, MiClipTransform, apply_fair_pca, apply_mi_clip
from flens.report import sanitize


@pytest.fixture
def matrix():
    rng = np.random.default_rng(0)
    return EmbeddingMatrix(rng.normal(size=(3, 2)).astype(np.float32))


class TestEmbeddingFormat:
    def test_round_trip(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        back = read_embeddings(path)
        assert np.array_equal(back.values, matrix.values)

    def test_rewrite_is_bit_identical(self, tmp_path, matrix):
        first = tmp_path / "a.femb"
        second = tmp_path / "b.femb"
        write_embeddings(matrix, first)
        write_embeddings(read_embeddings(first), second)
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
        with pytest.raises(TruncationError):
            read_embeddings(path)

    def test_trailing_garbage(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_bad_version(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            read_embeddings(path)

    def test_nan_payload_rejected(self, tmp_path, matrix):
        path = tmp_path / "m.femb"
        write_embeddings(matrix, path)
        data = bytearray(path.read_bytes())
        data[23:27] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(DataError):
            read_embeddings(path)

    def test_text_twin_parses_identically(self, tmp_path, matrix):
        binary = tmp_path / "m.femb"
        text = tmp_path / "m.csv"
        write_embeddings(matrix, binary)
        write_embeddings_text(matrix, text)
        assert np.array_equal(read_embeddings(binary).values, read_embeddings(text).values)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x00\x01\xff not embeddings")
        with pytest.raises(FormatError):
            read_embeddings(path)


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
        path.write_text("item_id,task\n0,0\n1,1\n2,1\n")
        labels = read_labels(path, "task", kind="binary")
        assert isinstance(labels, BinaryLabels)
        assert labels.labels.tolist() == [-1, 1, 1]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,a\n0,x\n")
        with pytest.raises(SchemaError):
            read_labels(path, "b")

    def test_item_id_gap(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,a\n0,x\n2,y\n")
        with pytest.raises(SchemaError):
            read_label_table(path)

    def test_missing_value(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,a\n0,x\n1,\n")
        with pytest.raises(SchemaError):
            read_label_table(path)

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_label_table(path, {"group": ["a", "b", "a"], "split": ["train", "test", "train"]})
        table = read_label_table(path)
        assert table["group"] == ["a", "b", "a"]
        assert table["split"] == ["train", "test", "train"]


class TestTransformContainers:
    def _miclip(self):
        mask = np.array([True, False, True, True])
        scores = np.array([0.1, 0.9, 0.2, 0.05])
        return MiClipTransform(keep_mask=mask, mi_scores=scores)

    def _fairpca(self):
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.normal(size=(5, 3)))
        return FairPcaTransform(mean=rng.normal(size=5), projection=basis, target_dim=3)

    def test_miclip_round_trip(self, tmp_path):
        transform = self._miclip()
        data = serialize_transform(transform, {"attribute_source": "groundTruth"})
        back, meta = deserialize_transform(data)
        assert np.array_equal(back.keep_mask, transform.keep_mask)
        assert np.array_equal(back.mi_scores, transform.mi_scores)
        assert meta == {"attribute_source": "groundTruth"}
        matrix = EmbeddingMatrix(np.random.default_rng(2).normal(size=(6, 4)))
        assert np.array_equal(
            apply_mi_clip(back, matrix).values, apply_mi_clip(transform, matrix).values
        )

    def test_fairpca_round_trip_preserves_apply_bits(self, tmp_path):
        transform = self._fairpca()
        path = tmp_path / "t.ftfm"
        write_transform(transform, path, {"method": "fairpca"})
        back, meta = read_transform(path)
        matrix = EmbeddingMatrix(np.random.default_rng(3).normal(size=(7, 5)))
        assert np.array_equal(
            apply_fair_pca(back, matrix).values, apply_fair_pca(transform, matrix).values
        )
        gram = back.projection.T @ back.projection
        assert np.max(np.abs(gram - np.eye(back.target_dim))) < 1e-10
        assert meta["method"] == "fairpca"

    def test_corrupted_byte_fails_checksum(self):
        data = bytearray(serialize_transform(self._miclip()))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(ChecksumError):
            deserialize_transform(bytes(data))

    def test_bad_magic(self):
        data = bytearray(serialize_transform(self._miclip()))
        data[0] = 0x58
        with pytest.raises(FormatError):
            deserialize_transform(bytes(data))

    def test_version_mismatch(self):
        data = bytearray(serialize_transform(self._miclip()))
        data[8] = 77  # version field, then repair the checksum
        import struct
        import zlib

        crc = zlib.crc32(bytes(data[8:-4]))
        data[-4:] = struct.pack("<I", crc)
        with pytest.raises(VersionError):
            deserialize_transform(bytes(data))

    @staticmethod
    def _container(meta: bytes, body: bytes) -> bytes:
        """An mi-clip container with a valid checksum around the given metadata and body."""
        blob = b"FLENSTFM" + struct.pack("<HBI", 1, 1, len(meta)) + meta + body
        return blob + struct.pack("<I", zlib.crc32(blob[8:]))

    def test_body_shorter_than_dims_header(self):
        with pytest.raises(TruncationError):
            deserialize_transform(self._container(b"{}", b"\x04\x00\x00"))

    def test_metadata_must_be_object(self):
        body = serialize_transform(self._miclip())[len(b"FLENSTFM") + 7 + len(b"{}") : -4]
        assert deserialize_transform(self._container(b"{}", body))[1] == {}
        with pytest.raises(FormatError):
            deserialize_transform(self._container(b"[1]", body))


class TestReports:
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
