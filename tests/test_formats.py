"""Binary feature/stats/checkpoint formats and CSV report/log round-trips."""

import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from fdopt.errors import (
    BadMagicError,
    DataError,
    NonFiniteDataError,
    NumericalError,
    TruncatedFileError,
)
from fdopt.formats import (
    CHECKPOINT_MAGIC,
    FEATURES_MAGIC,
    STATS_MAGIC,
    atomic_write_bytes,
    format_sig9,
    metrics_log_text,
    read_checkpoint,
    read_feature_blocks,
    read_features,
    read_metrics_log,
    read_stats,
    write_checkpoint,
    write_feature_blocks,
    write_features,
    write_metrics_log,
    write_report_csv,
    write_stats,
)
from fdopt.frechet import BLOCK_ROWS, GaussianStats
from fdopt.trainer import GeneratorModel
from oracles import parse_report_csv


def random_features(seed, n, d):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d))


def random_stats(seed, d):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, 2 * d))
    return GaussianStats(
        mu=rng.normal(size=d), sigma=(a @ a.T) / (2 * d), weight=float(3 * d)
    )


class TestFeatures:
    def test_byte_layout(self, tmp_path):
        """Written bytes match the documented little-endian layout exactly."""
        path = str(tmp_path / "f.bin")
        matrix = np.array([[1.5, -2.0, 0.25], [3.0, 4.0, 5.0]])
        write_features(path, matrix)
        expected = FEATURES_MAGIC + struct.pack("<II", 2, 3)
        expected += struct.pack("<6f", 1.5, -2.0, 0.25, 3.0, 4.0, 5.0)
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_round_trip_quantizes_to_f32(self, tmp_path):
        path = str(tmp_path / "f.bin")
        matrix = random_features(0, 17, 5)
        write_features(path, matrix)
        out = read_features(path)
        assert out.dtype == np.float64
        assert np.array_equal(out, matrix.astype(np.float32).astype(np.float64))

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = str(tmp_path / "a.bin")
        second = str(tmp_path / "b.bin")
        matrix = random_features(1, 64, 3)
        write_features(first, matrix)
        write_features(second, read_features(first))
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_rejects_bad_shapes(self, tmp_path):
        path = str(tmp_path / "f.bin")
        with pytest.raises(DataError):
            write_features(path, np.zeros(4))
        with pytest.raises(DataError):
            write_features(path, np.zeros((0, 3)))

    def test_rejects_non_finite_on_write(self, tmp_path):
        matrix = np.ones((2, 2))
        matrix[1, 0] = np.nan
        with pytest.raises(NonFiniteDataError):
            write_features(str(tmp_path / "f.bin"), matrix)

    def test_non_finite_read_names_row(self, tmp_path):
        path = str(tmp_path / "f.bin")
        payload = FEATURES_MAGIC + struct.pack("<II", 3, 2)
        payload += struct.pack("<6f", 0.0, 1.0, 2.0, np.inf, 4.0, 5.0)
        atomic_write_bytes(path, payload)
        with pytest.raises(NonFiniteDataError, match="row 1"):
            read_features(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "f.bin")
        atomic_write_bytes(path, b"XXXX" + struct.pack("<II", 1, 1) + b"\0" * 4)
        with pytest.raises(BadMagicError, match="FDF1"):
            read_features(path)

    def test_truncation_names_byte_counts(self, tmp_path):
        path = str(tmp_path / "f.bin")
        full = FEATURES_MAGIC + struct.pack("<II", 2, 2) + struct.pack("<4f", *range(4))
        atomic_write_bytes(path, full[:-6])
        with pytest.raises(TruncatedFileError, match=r"expected 28 bytes, file has 22"):
            read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "f.bin")
        full = FEATURES_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0)
        atomic_write_bytes(path, full + b"\0\0")
        with pytest.raises(DataError, match="2 unexpected trailing bytes"):
            read_features(path)

    def test_empty_header_rejected(self, tmp_path):
        path = str(tmp_path / "f.bin")
        atomic_write_bytes(path, FEATURES_MAGIC + struct.pack("<II", 0, 3))
        with pytest.raises(DataError, match="empty matrix"):
            read_features(path)


def raw_features(path, rows):
    """A features file written byte by byte, non-finite entries included."""
    rows = np.asarray(rows, dtype="<f4")
    atomic_write_bytes(path, FEATURES_MAGIC + struct.pack("<II", *rows.shape) + rows.tobytes())


class TestFeatureBlocks:
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 131_072])
    def test_bytes_equal_numpy_layout(self, tmp_path, n):
        path = str(tmp_path / "f.bin")
        matrix = random_features(n, n, 3)
        write_features(path, matrix)
        header = FEATURES_MAGIC + np.array([n, 3], dtype="<u4").tobytes()
        with open(path, "rb") as handle:
            assert handle.read() == header + matrix.astype("<f4").tobytes()

    def test_blocks_run_across_files(self, tmp_path):
        rows = random_features(2, 8000, 2).astype(np.float32).astype(np.float64)
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        write_features(a, rows[:5000])
        write_features(b, rows[5000:])
        blocks = list(read_feature_blocks([a, b]))
        assert [block.shape[0] for block in blocks] == [BLOCK_ROWS, 8000 - BLOCK_ROWS]
        assert all(block.dtype == np.float64 for block in blocks)
        assert np.array_equal(np.concatenate(blocks), rows)

    def test_non_finite_row_named_by_split_index(self, tmp_path):
        rows = np.ones((8000, 2))
        rows[4100, 1] = np.nan
        whole = str(tmp_path / "whole.bin")
        raw_features(whole, rows)
        with pytest.raises(NonFiniteDataError, match="row 4100 "):
            read_features(whole)
        # the bad row is row 100 of the second file, row 4100 of the split
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        raw_features(a, rows[:4000])
        raw_features(b, rows[4000:])
        with pytest.raises(NonFiniteDataError, match="row 4100 "):
            list(read_feature_blocks([a, b]))

    def test_headers_checked_before_any_payload(self, tmp_path):
        # a's payload is non-finite, so reading it first would raise that
        a, b, c = (str(tmp_path / name) for name in ("a.bin", "b.bin", "c.bin"))
        raw_features(a, np.full((5, 2), np.nan))
        write_features(b, np.ones((5, 3)))
        with pytest.raises(DataError, match=r"disagree on dimension: \[2, 3\]"):
            read_feature_blocks([a, b])
        full = FEATURES_MAGIC + struct.pack("<II", 2, 2) + struct.pack("<4f", *range(4))
        atomic_write_bytes(c, full[:-6])
        with pytest.raises(TruncatedFileError, match="expected 28 bytes, file has 22"):
            read_feature_blocks([a, c])

    @pytest.mark.parametrize("rows", [10, 3], ids=["same_size", "shorter"])
    def test_file_replaced_after_its_header_is_read_whole(self, tmp_path, rows):
        # every writer replaces a file atomically; the split keeps reading the
        # file whose header it checked
        path = str(tmp_path / "f.bin")
        original = np.arange(20.0).reshape(10, 2)
        write_features(path, original)
        blocks = read_feature_blocks([path])
        write_features(path, -original[:rows])
        assert np.array_equal(np.concatenate(list(blocks)), original)

    def test_file_truncated_in_place_after_its_header(self, tmp_path):
        path = str(tmp_path / "f.bin")
        write_features(path, random_features(3, 10_000, 2))
        blocks = read_feature_blocks([path])
        os.truncate(path, 40_000)
        # the first block is whole; the second read comes up short
        with pytest.raises(
            TruncatedFileError, match=r"f\.bin: .* expected 80012 bytes, file has 40000"
        ):
            list(blocks)

    def test_non_finite_block_mid_write_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "f.bin")
        bad = np.ones((BLOCK_ROWS, 2))
        bad[7, 0] = np.inf
        sent = []

        def blocks():
            for block in (np.ones((BLOCK_ROWS, 2)), bad, np.ones((BLOCK_ROWS, 2))):
                sent.append(block)
                yield block

        with pytest.raises(NonFiniteDataError):
            write_feature_blocks(path, (3 * BLOCK_ROWS, 2), blocks())
        # the first block went to the temp file before the second failed
        assert len(sent) == 2
        assert os.listdir(tmp_path) == []
        with pytest.raises(NonFiniteDataError):
            write_features(path, np.concatenate([np.ones((BLOCK_ROWS, 2)), bad]))
        assert os.listdir(tmp_path) == []


class TestStats:
    def test_byte_layout(self, tmp_path):
        path = str(tmp_path / "s.bin")
        stats = GaussianStats(
            mu=np.array([1.0, -2.0]),
            sigma=np.array([[2.0, 0.5], [0.5, 1.0]]),
            weight=7.0,
        )
        write_stats(path, stats)
        expected = STATS_MAGIC + struct.pack("<I", 2) + struct.pack("<d", 7.0)
        expected += struct.pack("<2d", 1.0, -2.0)
        expected += struct.pack("<4d", 2.0, 0.5, 0.5, 1.0)
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_round_trip_bit_exact(self, tmp_path):
        path = str(tmp_path / "s.bin")
        stats = random_stats(2, 6)
        write_stats(path, stats)
        out = read_stats(path)
        assert np.array_equal(out.mu, stats.mu)
        assert np.array_equal(out.sigma, stats.sigma)
        assert out.weight == stats.weight

    def test_invalid_payload_names_path(self, tmp_path):
        path = str(tmp_path / "s.bin")
        payload = STATS_MAGIC + struct.pack("<I", 2) + struct.pack("<d", 1.0)
        payload += struct.pack("<2d", 0.0, 0.0)
        payload += struct.pack("<4d", 1.0, 0.5, -0.5, 1.0)  # not symmetric
        atomic_write_bytes(path, payload)
        with pytest.raises(DataError, match="s.bin"):
            read_stats(path)

    def test_truncated(self, tmp_path):
        path = str(tmp_path / "s.bin")
        write_stats(path, random_stats(3, 4))
        with open(path, "rb") as handle:
            payload = handle.read()
        atomic_write_bytes(path, payload[:-1])
        with pytest.raises(TruncatedFileError, match="covariance"):
            read_stats(path)


class TestCheckpoint:
    def test_byte_layout(self, tmp_path):
        path = str(tmp_path / "c.bin")
        weights = [np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.eye(3)[:1]]
        biases = [np.array([0.1, 0.2, 0.3]), np.array([0.4])]
        write_checkpoint(path, weights, biases)
        expected = CHECKPOINT_MAGIC + struct.pack("<I", 2)
        expected += struct.pack("<II", 2, 3) + struct.pack("<II", 3, 1)
        expected += struct.pack("<6d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        expected += struct.pack("<3d", 0.1, 0.2, 0.3)
        expected += struct.pack("<3d", 1.0, 0.0, 0.0)
        expected += struct.pack("<d", 0.4)
        with open(path, "rb") as handle:
            assert handle.read() == expected

    def test_round_trip_bit_exact(self, tmp_path):
        path = str(tmp_path / "c.bin")
        rng = np.random.default_rng(4)
        dims = (5, 16, 16, 3)
        weights = [rng.normal(size=(o, i)) for i, o in zip(dims, dims[1:])]
        biases = [rng.normal(size=o) for o in dims[1:]]
        write_checkpoint(path, weights, biases)
        got_dims, theta = read_checkpoint(path)
        assert got_dims == dims
        want = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
        assert theta.dtype == np.float64
        assert theta.tobytes() == want.tobytes()

    def test_payload_is_theta(self, tmp_path):
        path = str(tmp_path / "c.bin")
        model = GeneratorModel.init((4, 8, 8, 2), seed=3)
        write_checkpoint(path, model.weights, model.biases)
        with open(path, "rb") as handle:
            payload = handle.read()[8 + 8 * 3 :]
        assert payload == model.theta.astype("<f8").tobytes()

    def test_model_round_trips_theta(self, tmp_path):
        path = str(tmp_path / "c.bin")
        model = GeneratorModel.init((3, 16, 2), seed=5)
        write_checkpoint(path, model.weights, model.biases)
        loaded = GeneratorModel(*read_checkpoint(path))
        assert loaded.layer_dims == model.layer_dims
        assert loaded.theta.tobytes() == model.theta.tobytes()

    @pytest.mark.parametrize(
        "index, layer",
        # layer 0 is W0 (3 x 2) then b0 (3): entries 0-8; layer 1 is W1, b1
        [(8, 0), (9, 1), (11, 1), (12, 1)],
        ids=["last_of_layer_0", "first_of_layer_1", "layer_1_weights", "layer_1_bias"],
    )
    def test_non_finite_named_by_layer(self, tmp_path, index, layer):
        path = str(tmp_path / "c.bin")
        theta = np.zeros(13)
        theta[index] = np.inf
        model = GeneratorModel((2, 3, 1), theta)
        write_checkpoint(path, model.weights, model.biases)
        with pytest.raises(NonFiniteDataError, match=f"layer {layer} has non-finite"):
            read_checkpoint(path)

    def test_read_rejects_bad_sizes(self, tmp_path):
        path = str(tmp_path / "c.bin")
        model = GeneratorModel.init((2, 3, 1), seed=0)
        write_checkpoint(path, model.weights, model.biases)
        with open(path, "rb") as handle:
            payload = handle.read()
        atomic_write_bytes(path, payload[:-1])
        with pytest.raises(TruncatedFileError, match="layer 1 biases: expected 128 bytes"):
            read_checkpoint(path)
        atomic_write_bytes(path, payload[:-9])
        with pytest.raises(TruncatedFileError, match="layer 1 weights: expected 120 bytes"):
            read_checkpoint(path)
        atomic_write_bytes(path, payload + b"\0")
        with pytest.raises(DataError, match="1 unexpected trailing bytes"):
            read_checkpoint(path)
        atomic_write_bytes(path, payload[:8] + struct.pack("<I", 0) + payload[12:])
        with pytest.raises(DataError, match="layer 0 has zero dimension"):
            read_checkpoint(path)

    def test_write_rejects_unchained_dims(self, tmp_path):
        weights = [np.ones((4, 2)), np.ones((3, 5))]
        biases = [np.zeros(4), np.zeros(3)]
        with pytest.raises(DataError, match="chain"):
            write_checkpoint(str(tmp_path / "c.bin"), weights, biases)

    def test_write_rejects_mismatched_bias(self, tmp_path):
        with pytest.raises(DataError, match="shapes"):
            write_checkpoint(str(tmp_path / "c.bin"), [np.ones((2, 2))], [np.zeros(3)])

    def test_read_rejects_unchained_dims(self, tmp_path):
        path = str(tmp_path / "c.bin")
        payload = CHECKPOINT_MAGIC + struct.pack("<I", 2)
        payload += struct.pack("<II", 2, 4) + struct.pack("<II", 5, 3)
        payload += b"\0" * 8 * (8 + 4 + 15 + 3)
        atomic_write_bytes(path, payload)
        with pytest.raises(DataError, match="do not chain"):
            read_checkpoint(path)

    def test_read_rejects_non_finite(self, tmp_path):
        path = str(tmp_path / "c.bin")
        payload = CHECKPOINT_MAGIC + struct.pack("<I", 1)
        payload += struct.pack("<II", 1, 1)
        payload += struct.pack("<d", np.nan) + struct.pack("<d", 0.0)
        atomic_write_bytes(path, payload)
        with pytest.raises(NonFiniteDataError, match="layer 0"):
            read_checkpoint(path)

    def test_zero_layers_rejected(self, tmp_path):
        path = str(tmp_path / "c.bin")
        atomic_write_bytes(path, CHECKPOINT_MAGIC + struct.pack("<I", 0))
        with pytest.raises(DataError, match="zero layers"):
            read_checkpoint(path)


class TestAtomicWrite:
    def test_replaces_existing_file(self, tmp_path):
        path = str(tmp_path / "f.bin")
        write_features(path, np.ones((2, 2)))
        write_features(path, np.zeros((3, 1)))
        assert np.array_equal(read_features(path), np.zeros((3, 1)))

    def test_failed_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        with pytest.raises(OSError):
            write_features(str(target), np.ones((2, 2)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["occupied"]
        assert list(target.iterdir()) == []


class TestReportCsv:
    @staticmethod
    def report():
        rows = [
            SimpleNamespace(name="rep0_identity", fd_gen=0.125, fd_val=0.1, ratio=1.25),
            SimpleNamespace(
                name="rep1_tanh_rf", fd_gen=0.0456789123, fd_val=0.05, ratio=0.913578246
            ),
        ]
        return SimpleNamespace(rows=rows, fdr_k=1.068634776)

    def test_exact_text(self, tmp_path):
        path = str(tmp_path / "r.csv")
        write_report_csv(self.report(), path)
        with open(path, "rb") as handle:
            text = handle.read().decode("ascii")
        assert text == (
            "rep,fd_gen,fd_val,fdr\n"
            "rep0_identity,0.125,0.1,1.25\n"
            "rep1_tanh_rf,0.0456789123,0.05,0.913578246\n"
            "FDRK,,,1.06863478\n"
        )

    def test_parse_round_trip(self, tmp_path):
        path = str(tmp_path / "r.csv")
        report = self.report()
        write_report_csv(report, path)
        with open(path, "r", encoding="ascii") as handle:
            rows, fdr_k = parse_report_csv(handle.read())
        assert fdr_k == float(format_sig9(report.fdr_k))
        assert [r[0] for r in rows] == ["rep0_identity", "rep1_tanh_rf"]
        for parsed, row in zip(rows, report.rows):
            assert parsed[1] == float(format_sig9(row.fd_gen))
            assert parsed[3] == float(format_sig9(row.ratio))

    def test_parse_rejects_missing_header(self):
        with pytest.raises(DataError, match="header"):
            parse_report_csv("a,b,c,d\nFDRK,,,1.0\n")

    def test_parse_rejects_missing_aggregate(self):
        with pytest.raises(DataError, match="FDRK"):
            parse_report_csv("rep,fd_gen,fd_val,fdr\nrep0_identity,1,1,1\n")

    def test_write_failure_is_numerical_exit_class(self, tmp_path):
        missing = str(tmp_path / "no" / "such" / "dir" / "r.csv")
        with pytest.raises(NumericalError):
            write_report_csv(self.report(), missing)

    def test_sig9_formatting(self):
        assert format_sig9(0.1) == "0.1"
        assert format_sig9(1.0 / 3.0) == "0.333333333"
        assert format_sig9(123456789.123) == "123456789"


class TestMetricsLog:
    @staticmethod
    def rows():
        return [
            ("warm_start", 0, 0.0, 1.5, 2.5, 3.5),
            ("train", 0, 1e-05, 0.75, 1.25, 2.0),
            ("final", 10, 0.0, 0.001234567890123, 0.5, 0.25),
        ]

    def test_text_layout(self):
        text = metrics_log_text(["rep0_identity", "rep1_affine"], self.rows())
        lines = text.split("\n")
        assert lines[0] == "phase,step,lr,loss,fd_rep0_identity,fd_rep1_affine"
        assert lines[1] == "warm_start,0,0,1.5,2.5,3.5"
        assert lines[2] == "train,0,1e-05,0.75,1.25,2"
        assert lines[3] == "final,10,0,0.00123456789012,0.5,0.25"
        assert text.endswith("\n")

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "log.csv")
        labels = ["rep0_identity", "rep1_affine"]
        write_metrics_log(path, labels, self.rows())
        got_labels, got_rows = read_metrics_log(path)
        assert got_labels == labels
        for got, want in zip(got_rows, self.rows()):
            assert got[0] == want[0]
            assert got[1] == want[1]
            assert got[2:] == pytest.approx(want[2:], rel=1e-11)

    def test_rejects_wrong_width(self):
        with pytest.raises(DataError, match="fields"):
            metrics_log_text(["a"], [("train", 1, 0.0, 0.0)])

    def test_write_of_a_wrong_width_row_keeps_the_old_file(self, tmp_path):
        # the log is written as its rows arrive, so the short row raises
        # after the good one is already in the temporary file
        path = tmp_path / "log.csv"
        path.write_bytes(b"old log\n")
        rows = [("train", 0, 0.0, 1.0, 2.0), ("train", 1, 0.0, 1.0)]
        with pytest.raises(DataError, match="fields"):
            write_metrics_log(str(path), ["a"], iter(rows))
        assert path.read_bytes() == b"old log\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    def test_read_rejects_malformed_row(self, tmp_path):
        path = str(tmp_path / "log.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("phase,step,lr,loss,fd_a\ntrain,1,0\n")
        with pytest.raises(DataError, match="malformed"):
            read_metrics_log(path)

    @pytest.mark.parametrize(
        "lead, cell, line",
        [
            ("", "abc", 3),
            ("", "", 3),
            ("", "1.5x", 3),
            ("\n\n", "abc", 5),
            # fdopt writes finite cells only
            ("", "nan", 3),
            ("", "inf", 3),
            ("", "-inf", 3),
        ],
    )
    def test_read_names_line_of_non_numeric_cell(self, tmp_path, lead, cell, line):
        path = str(tmp_path / "log.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{lead}phase,step,lr,loss,fd_a\ntrain,0,0.1,0.5,1.0\n")
            handle.write(f"train,1,0.1,{cell},1.0\n")
        with pytest.raises(DataError, match=f"{path}: line {line}: malformed"):
            read_metrics_log(path)
