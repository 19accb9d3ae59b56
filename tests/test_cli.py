"""CLI subcommands: exit codes, printed values, and byte determinism."""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fdopt import formats, frechet
from fdopt.cli import cli_dispatch
from fdopt.config import load_config
from fdopt.formats import (
    format_sig9,
    read_checkpoint,
    read_features,
    read_metrics_log,
    read_stats,
    write_checkpoint,
    write_features,
    write_metrics_log,
    write_report_csv,
    write_stats,
)
from fdopt.frechet import BLOCK_ROWS, fd, make_reference
from fdopt.metrics import build_report
from fdopt.representations import featurize
from fdopt.rng import SplitMix64, derive_seed
from fdopt.trainer import (
    FileTarget,
    GeneratorModel,
    generate,
    pretrain_regression,
    sample_target,
)
from oracles import load_script, parse_report_csv, stats_from_features

ROOT = Path(__file__).resolve().parents[1]
CONFIG_TEXT = textwrap.dedent(
    """\
    [trainer]
    seed = 0
    batch_size = 32
    total_steps = 25
    warmup_steps = 3
    peak_lr = 0.001
    z_dim = 4
    hidden = 16, 16
    out_dim = 2
    pretrain_steps = 20

    [estimator]
    kind = ema
    beta = 0.9

    [ensemble]
    rep.0.kind = identity
    rep.1.kind = tanh_rf
    rep.1.seed = 1
    rep.1.out_dim = 6

    [target]
    sample_seed = 5
    comp.0.weight = 0.4
    comp.0.mean = -2.0, 0.0
    comp.0.cov = 0.3, 0.0, 0.0, 0.2
    comp.1.weight = 0.6
    comp.1.mean = 2.5, 1.0
    comp.1.cov = 0.4, 0.1, 0.1, 0.3

    [source]
    sample_seed = 9
    comp.0.weight = 1.0
    comp.0.mean = 0.0, -1.0
    comp.0.cov = 0.5, 0.0, 0.0, 0.5
    """
)


@pytest.fixture()
def workspace(tmp_path):
    """Config plus target train/val sample files, all under one directory."""
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEXT, encoding="utf-8")
    target = load_config(str(config)).train.target
    write_features(str(tmp_path / "train.bin"), sample_target(target, 1024, "split-a"))
    write_features(str(tmp_path / "val.bin"), sample_target(target, 512, "split-b"))
    return tmp_path


def path(workspace, name):
    return str(workspace / name)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_arguments(self):
        assert cli_dispatch([]) == 1

    def test_missing_required_flag(self):
        assert cli_dispatch(["compute-stats", "--features", "x.bin"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        assert "subcommand" not in capsys.readouterr().err

    def test_sample_rejects_nonpositive_n(self, workspace):
        code = cli_dispatch(
            ["sample", "--ckpt", "x", "--n", "0", "--out", path(workspace, "g.bin")]
        )
        assert code == 1


class TestSample:
    @pytest.mark.parametrize(
        "n, z_dim", [(1, 3), (4097, 3), (131_072, 3), (1, 8), (4097, 8), (131_072, 8)]
    )
    def test_bytes_equal_one_noise_draw(self, tmp_path, n, z_dim):
        # noise is drawn one block at a time; the bytes must be those of one
        # n x z_dim draw, also when n * z_dim is odd and the last Box-Muller
        # pair is half used
        model = GeneratorModel.init([z_dim, 16, 2], seed=4)
        ckpt, out, want = (str(tmp_path / f) for f in ("g.ckpt", "g.bin", "want.bin"))
        write_checkpoint(ckpt, model.weights, model.biases)
        code = cli_dispatch(
            ["sample", "--ckpt", ckpt, "--n", str(n), "--seed", "7", "--out", out]
        )
        assert code == 0
        noise = SplitMix64(derive_seed("sample-noise", 7)).normal_matrix(n, z_dim)
        write_features(want, generate(model, noise))
        assert Path(out).read_bytes() == Path(want).read_bytes()

    def test_n_above_the_row_limit_is_exit_1(self, tmp_path, capsys):
        # a features header holds the row count as a u32
        model = GeneratorModel.init([3, 4, 2], seed=4)
        ckpt, out = str(tmp_path / "g.ckpt"), str(tmp_path / "g.bin")
        write_checkpoint(ckpt, model.weights, model.biases)
        code = cli_dispatch(["sample", "--ckpt", ckpt, "--n", str(2**32), "--out", out])
        assert code == 1
        assert "--n must lie in [1, 4294967295], got 4294967296" in capsys.readouterr().err
        assert not Path(out).exists()


class TestFeatureSplits:
    def fdr(self, workspace, out, val, gen):
        argv = ["fdr", "--train", path(workspace, "train.bin"), "--val", *val,
                "--gen", *gen, "--config", path(workspace, "run.cfg"), "--out", out]
        return cli_dispatch(argv)

    def test_two_files_score_as_their_concatenation(self, workspace):
        # 5000 + 3000 rows: the second block spans the file boundary
        target = load_config(path(workspace, "run.cfg")).train.target
        splits = {}
        for name in ("val", "gen"):
            rows = sample_target(target, 8000, f"concat-{name}")
            parts = [path(workspace, f"{name}{i}.bin") for i in range(3)]
            write_features(parts[0], rows)
            write_features(parts[1], rows[:5000])
            write_features(parts[2], rows[5000:])
            splits[name] = parts
        one, two = path(workspace, "one.csv"), path(workspace, "two.csv")
        assert self.fdr(workspace, one, splits["val"][:1], splits["gen"][:1]) == 0
        assert self.fdr(workspace, two, splits["val"][1:], splits["gen"][1:]) == 0
        assert Path(one).read_bytes() == Path(two).read_bytes()

    def test_files_of_one_split_must_agree_on_dimension(self, workspace, capsys):
        wide = path(workspace, "wide.bin")
        write_features(wide, np.ones((10, 3)))
        val = [path(workspace, "val.bin"), wide]
        code = self.fdr(workspace, path(workspace, "r.csv"), val, val[:1])
        assert code == 2
        assert "disagree on dimension" in capsys.readouterr().err


class TestRowChecks:
    """A features file's rows are checked once, by the reader, per block."""

    N_ROWS = 2 * BLOCK_ROWS + 1
    BLOCKS = [(BLOCK_ROWS, 2), (BLOCK_ROWS, 2), (1, 2)]  # shapes, each checked once

    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = []
        original = frechet.check_rows

        def counting(rows, *args, **kwargs):
            calls.append(rows.shape)
            return original(rows, *args, **kwargs)

        monkeypatch.setattr(formats, "check_rows", counting)
        monkeypatch.setattr(frechet, "check_rows", counting)
        return calls

    def split(self, workspace, name, cols=2):
        out = path(workspace, name)
        write_features(out, SplitMix64(derive_seed(name)).normal_matrix(self.N_ROWS, cols))
        return out

    def rep_config(self, workspace):
        single = workspace / "single.cfg"
        single.write_text(
            "[ensemble]\nrep.0.kind = tanh_rf\nrep.0.seed = 1\nrep.0.out_dim = 6\n",
            encoding="utf-8",
        )
        spec = load_config(str(single)).ensemble.specs[0]
        stats_path = path(workspace, "rep.stats")
        train = featurize(spec, read_features(path(workspace, "train.bin")))
        write_stats(stats_path, stats_from_features(train))
        return str(single), stats_path

    def test_fdr_checks_each_block_once(self, workspace, counted):
        train, val, gen = (self.split(workspace, f"{n}.big") for n in ("tr", "va", "gen"))
        argv = ["fdr", "--train", train, "--val", val, "--gen", gen,
                "--config", path(workspace, "run.cfg"), "--out", path(workspace, "r.csv")]
        assert cli_dispatch(argv) == 0
        assert counted == self.BLOCKS * 3

    def test_fd_rep_checks_each_block_once(self, workspace, counted):
        single, stats_path = self.rep_config(workspace)
        gen = self.split(workspace, "gen.big")
        counted.clear()  # the reference's own read
        assert cli_dispatch(["fd", "--ref", stats_path, "--gen", gen, "--rep", single]) == 0
        assert counted == self.BLOCKS

    def test_fd_rep_checks_block_width(self, workspace, capsys):
        single, stats_path = self.rep_config(workspace)
        wide = self.split(workspace, "wide.big", cols=3)
        code = cli_dispatch(["fd", "--ref", stats_path, "--gen", wide, "--rep", single])
        assert code == 2
        assert "gen features must be n x 2, got shape (4096, 3)" in capsys.readouterr().err


class TestDataErrors:
    def test_missing_file_is_exit_2(self, workspace):
        code = cli_dispatch(
            [
                "compute-stats",
                "--features",
                path(workspace, "absent.bin"),
                "--out",
                path(workspace, "s.bin"),
            ]
        )
        assert code == 2

    def test_bad_magic_is_exit_2(self, workspace, capsys):
        junk = workspace / "junk.bin"
        junk.write_bytes(b"JUNKJUNKJUNK")
        code = cli_dispatch(
            [
                "compute-stats",
                "--features",
                str(junk),
                "--out",
                path(workspace, "s.bin"),
            ]
        )
        assert code == 2
        assert "magic" in capsys.readouterr().err

    def test_config_typo_is_exit_2(self, workspace, capsys):
        bad = workspace / "bad.cfg"
        bad.write_text("[estimator]\nbta = 0.9\n", encoding="utf-8")
        code = cli_dispatch(
            [
                "train",
                "--config",
                str(bad),
                "--out",
                path(workspace, "m.ckpt"),
            ]
        )
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [
            (
                "comp.1.mean = 2.5, 1.0\ncomp.1.cov = 0.4, 0.1, 0.1, 0.3",
                "comp.1.mean = 2.5, 1.0, 0\ncomp.1.cov = 1, 0, 0, 0, 1, 0, 0, 0, 1",
                "target.comp.1.mean",
            ),
            # a key of the other population kind
            ("[target]\n", "[target]\npath = nowhere.bin\n", "target.path"),
            ("[source]\n", "[source]\nkind = file\npath = s.bin\n", "source.comp.0.weight"),
            ("hidden = 16, 16", "hidden = nan", "trainer.hidden"),
            ("hidden = 16, 16", "hidden = inf", "trainer.hidden"),
            ("hidden = 16, 16", "hidden = 1e400", "trainer.hidden"),
            # a float key is finite
            ("comp.0.mean = -2.0, 0.0", "comp.0.mean = nan, 0.0", "target.comp.0.mean"),
            ("comp.0.weight = 0.4", "comp.0.weight = inf", "target.comp.0.weight"),
            ("[ensemble]\n", "[ensemble]\nc = inf\n", "ensemble.c"),
            ("rep.1.out_dim = 6", "rep.1.out_dim = 6\nrep.1.scale = inf", "ensemble.rep.1.scale"),
            # a key of the other estimator kind
            ("kind = ema", "kind = queue", "estimator.beta"),
            ("beta = 0.9", "beta = 0.9\ncapacity = 3", "estimator.capacity"),
            # a queue longer than the population size, 4096 rows when unset
            ("kind = ema\nbeta = 0.9", "kind = queue\ncapacity = 4097", "estimator.capacity"),
        ],
        ids=[
            "mean_lengths", "mixture_path", "file_comp", "nan", "inf", "1e400",
            "nan_mean", "inf_weight", "inf_c", "inf_scale", "queue_beta",
            "ema_capacity", "long_queue",
        ],
    )
    def test_malformed_config_is_exit_2_naming_its_key(
        self, workspace, capsys, old, new, key
    ):
        bad = workspace / "bad.cfg"
        bad.write_text(CONFIG_TEXT.replace(old, new, 1), encoding="utf-8")
        argv = ["train", "--config", str(bad), "--out", path(workspace, "m.ckpt")]
        assert cli_dispatch(argv) == 2
        assert f"error: {key}" in capsys.readouterr().err

    def test_config_not_utf8_is_exit_2(self, workspace, capsys):
        bad = workspace / "bad.cfg"
        bad.write_bytes(b"\xff\xfe[trainer]\n")
        gen = path(workspace, "val.bin")
        argv = ["fdr", "--train", gen, "--val", gen, "--gen", gen,
                "--config", str(bad), "--out", path(workspace, "r.csv")]
        assert cli_dispatch(argv) == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_report_on_non_numeric_cell_is_exit_2(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("phase,step,lr,loss,fd_a\ntrain,0,0.1,abc,1.0\n", encoding="utf-8")
        assert cli_dispatch(["report", "--log", str(log)]) == 2
        assert f"{log}: line 2: malformed log row" in capsys.readouterr().err

    def test_pretrain_without_source_is_exit_2(self, workspace, capsys):
        text = CONFIG_TEXT.split("[source]")[0]
        cfg = workspace / "nosource.cfg"
        cfg.write_text(text, encoding="utf-8")
        code = cli_dispatch(
            ["pretrain", "--config", str(cfg), "--out", path(workspace, "m.ckpt")]
        )
        assert code == 2
        assert "[source]" in capsys.readouterr().err


class TestPretrain:
    def test_file_source_resamples_the_file(self, workspace):
        # the one command that draws from a features file: pretrain's pairs
        rows = path(workspace, "train.bin")
        text = CONFIG_TEXT.split("[source]")[0] + (
            f"[source]\nkind = file\npath = {rows}\nsample_seed = 9\n"
        )
        cfg = workspace / "file_source.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = path(workspace, "pre.ckpt")
        assert cli_dispatch(["pretrain", "--config", str(cfg), "--out", out]) == 0
        # CONFIG_TEXT's generator (4, 16, 16, 2), seed 0, 20 steps of batch 32
        model = pretrain_regression(
            GeneratorModel.init((4, 16, 16, 2), 0),
            FileTarget(rows, sample_seed=9),
            steps=20,
            batch_size=32,
            seed=0,
        )
        want = path(workspace, "want.ckpt")
        write_checkpoint(want, model.weights, model.biases)
        assert Path(out).read_bytes() == Path(want).read_bytes()


class TestComputeStatsAndFd:
    def test_compute_stats_matches_library(self, workspace):
        out = path(workspace, "train.stats")
        assert cli_dispatch(
            ["compute-stats", "--features", path(workspace, "train.bin"), "--out", out]
        ) == 0
        rows = read_features(path(workspace, "train.bin"))
        want = stats_from_features(rows)
        got = read_stats(out)
        assert np.array_equal(got.mu, want.mu)
        assert np.array_equal(got.sigma, want.sigma)

    def test_fd_self_prints_zero(self, workspace, capsys):
        out = path(workspace, "train.stats")
        cli_dispatch(
            ["compute-stats", "--features", path(workspace, "train.bin"), "--out", out]
        )
        assert cli_dispatch(["fd", "--ref", out, "--gen", out]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_eigensolver_failure_is_exit_3(self, workspace, monkeypatch, capsys):
        out = path(workspace, "train.stats")
        cli_dispatch(
            ["compute-stats", "--features", path(workspace, "train.bin"), "--out", out]
        )

        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        assert cli_dispatch(["fd", "--ref", out, "--gen", out]) == 3
        assert "reference sigma" in capsys.readouterr().err

    def test_fd_on_features_matches_library(self, workspace, capsys):
        stats_path = path(workspace, "train.stats")
        cli_dispatch(
            [
                "compute-stats",
                "--features",
                path(workspace, "train.bin"),
                "--out",
                stats_path,
            ]
        )
        assert (
            cli_dispatch(
                ["fd", "--ref", stats_path, "--gen", path(workspace, "val.bin")]
            )
            == 0
        )
        printed = capsys.readouterr().out.strip()
        ref = make_reference(read_stats(stats_path))
        want = fd(ref, stats_from_features(read_features(path(workspace, "val.bin"))))
        assert printed == f"{want:.6f}"

    def test_fd_rep_featurizes_raw_samples(self, workspace, capsys):
        single = workspace / "single.cfg"
        single.write_text(
            "[ensemble]\nrep.0.kind = tanh_rf\nrep.0.seed = 1\nrep.0.out_dim = 6\n",
            encoding="utf-8",
        )
        spec = load_config(str(single)).ensemble.specs[0]
        train_feat = featurize(spec, read_features(path(workspace, "train.bin")))
        stats_path = path(workspace, "rep.stats")
        write_stats(stats_path, stats_from_features(train_feat))
        assert (
            cli_dispatch(
                [
                    "fd",
                    "--ref",
                    stats_path,
                    "--gen",
                    path(workspace, "val.bin"),
                    "--rep",
                    str(single),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out.strip()
        val_feat = featurize(spec, read_features(path(workspace, "val.bin")))
        want = fd(make_reference(read_stats(stats_path)), stats_from_features(val_feat))
        assert printed == f"{want:.6f}"

    def test_fd_rep_with_stats_gen_is_exit_1(self, workspace, capsys):
        # a stats file is already in some space; --rep cannot map it
        single = workspace / "single.cfg"
        single.write_text(
            "[ensemble]\nrep.0.kind = tanh_rf\nrep.0.seed = 1\nrep.0.out_dim = 8\n",
            encoding="utf-8",
        )
        out = path(workspace, "train.stats")
        cli_dispatch(
            ["compute-stats", "--features", path(workspace, "train.bin"), "--out", out]
        )
        code = cli_dispatch(["fd", "--ref", out, "--gen", out, "--rep", str(single)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--rep" in captured.err

    def test_fd_rep_rejects_multi_rep_config(self, workspace, capsys):
        stats_path = path(workspace, "train.stats")
        cli_dispatch(
            [
                "compute-stats",
                "--features",
                path(workspace, "train.bin"),
                "--out",
                stats_path,
            ]
        )
        code = cli_dispatch(
            [
                "fd",
                "--ref",
                stats_path,
                "--gen",
                path(workspace, "val.bin"),
                "--rep",
                path(workspace, "run.cfg"),
            ]
        )
        assert code == 2
        assert "exactly one representation" in capsys.readouterr().err


class TestPipeline:
    """The read-only cases read scripts/output_digests.py's pipeline run."""

    def test_full_pipeline_deterministic_bytes(self, pipeline, pipeline_rerun):
        (_, first), (second, _) = pipeline, pipeline_rerun
        assert sorted(first) == sorted(second)
        for key in first:
            assert first[key] == second[key], f"{key} differs between runs"

    def test_report_csv_matches_library_recomputation(self, pipeline, tmp_path):
        work, outputs = pipeline
        ensemble = load_config(work / "mixture.cfg").ensemble
        train_rows = read_features(str(work / "target.bin"))
        stats = [
            stats_from_features(featurize(spec, train_rows))
            for spec in ensemble.specs
        ]
        want = build_report(
            ensemble,
            stats,
            read_features(str(work / "val.bin")),
            read_features(str(work / "gen_131072.bin")),
        )
        recomputed = tmp_path / "recomputed.csv"
        write_report_csv(want, str(recomputed))
        assert outputs["report.csv"] == recomputed.read_bytes()
        # the CSV holds 9 significant digits
        _, fdr_k = parse_report_csv(outputs["report.csv"].decode("ascii"))
        assert fdr_k == float(format_sig9(want.fdr_k))

    def test_fdr_accepts_per_rep_stats_files(self, pipeline, tmp_path):
        work, outputs = pipeline
        ensemble = load_config(work / "mixture.cfg").ensemble
        train_rows = read_features(str(work / "target.bin"))
        stats_paths = []
        for i, spec in enumerate(ensemble.specs):
            stats_path = path(tmp_path, f"rep{i}.stats")
            write_stats(stats_path, stats_from_features(featurize(spec, train_rows)))
            stats_paths.append(stats_path)
        report2 = tmp_path / "report2.csv"
        argv = ["fdr", "--train", *stats_paths, "--val", work / "val.bin",
                "--gen", work / "gen_131072.bin", "--config", work / "mixture.cfg",
                "--out", report2]
        assert cli_dispatch(map(str, argv)) == 0
        assert outputs["report.csv"] == report2.read_bytes()

    def test_train_init_dim_mismatch_is_exit_2(self, workspace, capsys):
        wrong = path(workspace, "wrong.ckpt")
        from fdopt.formats import write_checkpoint

        write_checkpoint(wrong, [np.ones((3, 5))], [np.zeros(3)])
        code = cli_dispatch(
            [
                "train",
                "--config",
                path(workspace, "run.cfg"),
                "--out",
                path(workspace, "m.ckpt"),
                "--init",
                wrong,
            ]
        )
        assert code == 2
        assert "do not match" in capsys.readouterr().err

    def test_train_log_has_expected_shape(self, pipeline):
        work, _ = pipeline
        labels, rows = read_metrics_log(work / "post.csv")
        assert labels == ["rep0_identity", "rep1_tanh_rf"]
        assert rows[0][0] == "warm_start" and rows[-1][0] == "final"
        assert sum(1 for r in rows if r[0] == "train") == 300

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "failure, message, step",
        [
            ("eigh", "step 96, rep1_tanh_rf: eigendecomposition of congruence", 96),
            ("peak_lr", "non-finite features at step 2 in rep0_identity", 2),
        ],
        ids=["lapack", "divergence"],
    )
    def test_failed_step_keeps_last_good_model_and_log(
        self, tmp_path, monkeypatch, capsys, failure, message, step
    ):
        shipped = ROOT / "configs" / "decoupling.cfg"
        text = load_script("output_digests").cut(shipped.read_text(encoding="utf-8"))
        if failure == "eigh":
            calls, eigh = [], np.linalg.eigh

            def failing_eigh(a):
                calls.append(a)
                if len(calls) == 200:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return eigh(a)

            monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        else:
            text = text.replace("peak_lr = 0.0003", "peak_lr = 1e307")
        config, out, log = (tmp_path / n for n in ("run.cfg", "m.ckpt", "log.csv"))
        config.write_text(text, encoding="utf-8")
        argv = ["train", "--config", config, "--out", out, "--log", log]
        assert cli_dispatch(map(str, argv)) == 3
        assert f"numerical failure: {message}" in capsys.readouterr().err
        assert not out.exists()
        _, theta = read_checkpoint(f"{out}.last_good")
        assert np.isfinite(theta).all()
        _, rows = read_metrics_log(str(log))
        assert [row[:2] for row in rows] == [("warm_start", 0)] + [
            ("train", i) for i in range(step)
        ]
        assert cli_dispatch(["report", "--log", str(log)]) == 0
        assert "has no final row" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, field",
        [
            # beta2 = 1 zeroes the bias correction, so training would divide by 0
            ("peak_lr = 0.001\nbeta2 = 1", "beta2"),
            # an infinite rate makes the first update non-finite
            ("peak_lr = inf", "peak_lr"),
        ],
        ids=["beta2", "peak_lr"],
    )
    def test_beta2_of_one_is_a_config_error(self, workspace, capsys, setting, field):
        bad = workspace / "bad.cfg"
        bad.write_text(
            CONFIG_TEXT.replace("peak_lr = 0.001", setting), encoding="utf-8"
        )
        code = cli_dispatch(
            ["train", "--config", str(bad), "--out", path(workspace, "m.ckpt")]
        )
        assert code == 2
        assert field in capsys.readouterr().err
        assert not (workspace / "m.ckpt").exists()
        assert not (workspace / "m.ckpt.last_good").exists()


class TestScripts:
    def test_output_digests_prints_one_sha256_per_artifact(
        self, pipeline, pipeline_rerun
    ):
        _, artifacts = pipeline
        _, printed = pipeline_rerun
        want = [f"{name} {hashlib.sha256(data).hexdigest()}"
                for name, data in sorted(artifacts.items())]
        assert printed.splitlines() == want

    def test_output_digests_exits_with_the_failing_command_code(
        self, monkeypatch, tmp_path, capsys
    ):
        digests = load_script("output_digests")
        monkeypatch.setattr(digests, "cli_dispatch", lambda argv: 3)
        assert digests.main(["--keep", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        command = f"fdopt train --config {tmp_path / 'dec_ema.cfg'}"
        assert captured.err.splitlines()[0].startswith(f"+ {command} ")
        last = captured.err.splitlines()[-1]
        assert last.startswith(command) and last.endswith(" exited 3")

    def test_population_ablation_prints_one_line_per_arm(
        self, monkeypatch, tmp_path, capsys
    ):
        ablation = load_script("population_ablation")
        shipped = ROOT / "configs" / "decoupling.cfg"
        config = tmp_path / "decoupling.cfg"
        config.write_text(
            load_script("output_digests").cut(shipped.read_text(encoding="utf-8"), 20),
            encoding="utf-8",
        )
        argv = ["population_ablation.py", "--config", str(config), "--seeds", "1"]
        monkeypatch.setattr(sys, "argv", argv)
        ablation.main()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("task: B=4, 20 steps")
        names = [name for name, _ in ablation.arms(4)]
        assert [line.split(" median ")[0].rstrip() for line in lines[1:]] == names


QUEUE_64D_CONFIG = (
    CONFIG_TEXT.replace("total_steps = 25", "total_steps = 6")
    .replace("kind = ema\nbeta = 0.9", "kind = queue\ncapacity = 128")
    .replace("rep.1.out_dim = 6", "rep.1.out_dim = 64")
)


def python_process(threads: str, *argv) -> bytes:
    """Stdout of python3 argv in a new process with threads OpenBLAS threads."""
    src = str(ROOT / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, argv)], env=env, check=True, capture_output=True
    ).stdout


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    """fdopt train writes the same checkpoint and log with 1 and 2 BLAS threads."""
    config = tmp_path / "queue64.cfg"
    config.write_text(QUEUE_64D_CONFIG, encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        ckpt, log = tmp_path / f"m{threads}.ckpt", tmp_path / f"log{threads}.csv"
        python_process(
            threads, "-m", "fdopt.cli", "train", "--config", config, "--out", ckpt,
            "--log", log,
        )
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


def test_scoring_bytes_do_not_depend_on_blas_threads():
    """scripts/output_digests.py prints the same digests with 1 and 2 BLAS
    threads: every artifact of pretrain, train, sample, compute-stats, fd,
    fdr and report, on splits of one to 32 blocks with and without a tail."""
    script = ROOT / "scripts" / "output_digests.py"
    assert python_process("1", script) == python_process("2", script)


class TestReport:
    def test_summary_lines(self, tmp_path, capsys):
        log = str(tmp_path / "log.csv")
        rows = [
            ("warm_start", 0, 0.0, 2.0, 4.0, 1.0),
            ("train", 0, 1e-3, 1.0, 2.5, 0.6),
            ("train", 1, 1e-3, 0.8, 3.0, 0.2),
            ("final", 2, 0.0, 0.5, 2.75, 0.3),
        ]
        write_metrics_log(log, ["rep0_identity", "rep1_affine"], rows)
        assert cli_dispatch(["report", "--log", log]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "rep0_identity first=4 last=2.75 best=2.5 step=0"
        assert lines[1] == "rep1_affine first=1 last=0.3 best=0.2 step=1"

    def test_log_without_final_row_takes_last_from_last_train_row(
        self, tmp_path, capsys
    ):
        # a failed run's log ends at its last completed step
        log = str(tmp_path / "log.csv")
        rows = [("warm_start", 0, 0.0, 2.0, 4.0), ("train", 0, 1e-3, 1.0, 2.5),
                ("train", 1, 1e-3, 0.8, 3.0)]
        write_metrics_log(log, ["rep0_identity"], rows)
        assert cli_dispatch(["report", "--log", log]) == 0
        captured = capsys.readouterr()
        assert captured.out == "rep0_identity first=4 last=3 best=2.5 step=0\n"
        note = f"{log} has no final row; last= is the train row at step 1"
        assert note in captured.err

    @pytest.mark.parametrize(
        "header, row, line",
        [
            ("phase,step,lr,loss,fd_a,grad_norm", "train,0,0.1,0.5,1.0,2.0", 1),
            ("phase,step,lr,loss", "train,0,0.1,0.5", 1),
            ("phase,step,lr,loss,fd_a", "bogus,0,0.1,0.5,1.0", 2),
            ("phase,step,lr,loss,fd_a", "train,-5,0.1,0.5,1.0", 2),
            # a label names one column; rows come in the order fdopt writes
            ("phase,step,lr,loss,fd_a,fd_a", "warm_start,0,0,1,1,1\nfinal,1,0,1,1,1\n"
             "train,0,0.1,0.5,0.5,0.5", 1),
            ("phase,step,lr,loss,fd_a", "warm_start,0,0,1,1\nfinal,1,0,1,1\n"
             "train,0,0.1,0.5,0.5", 4),
            ("phase,step,lr,loss,fd_a", "train,0,0.1,0.5,1.0", 2),
            ("phase,step,lr,loss,fd_a", "warm_start,0,0,1,1\ntrain,1,0.1,0.5,1.0", 3),
            ("phase,step,lr,loss,fd_a", "warm_start,0,0,1,1\nwarm_start,0,0,1,1", 3),
            ("phase,step,lr,loss,fd_a",
             "warm_start,0,0,1,1\nfinal,0,0,1,1\nfinal,0,0,1,1", 4),
        ],
        ids=["non_fd_column", "no_fd_column", "bogus_phase", "negative_step",
             "repeated_label", "train_after_final", "no_warm_start", "skipped_step",
             "two_warm_starts", "two_finals"],
    )
    def test_log_fdopt_never_writes_is_exit_2(self, tmp_path, capsys, header, row, line):
        log = tmp_path / "log.csv"
        log.write_text(f"{header}\n{row}\n", encoding="utf-8")
        assert cli_dispatch(["report", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{log}: line {line}: " in captured.err
