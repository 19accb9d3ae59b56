"""Tests of the benchmark itself.

Every workload runs its shortest run through the real entry point and passes its
checks; each check rejects a wrong answer; tracing leaves the outputs
byte-identical. Run from the repository root (about a minute and a half on
two cores, most of it decoupling_ema's 4000-step training job):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from fdopt import config, formats, trainer  # noqa: E402
from fdopt.frechet import GaussianStats  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CheckError  # noqa: E402


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *map(str, args)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", ["decoupling_ema", "wide_queue", "score_fdr"])
def test_shortest_run_passes_checks(workload):
    proc, lines = run_bench("--workload", workload, "--seed", 3, "--seconds", 0, "--trace", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score_fdr", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """One untraced score_fdr set-up and scoring pass, kept for the rejection tests."""
    bench = workloads.Bench("score_fdr", 2, tmp_path_factory.mktemp("score"))
    bench.setup()
    first = bench.score_pass()
    bench.check([], [first])
    return bench, first


def test_traced_pass_writes_identical_outputs(scored):
    bench, first = scored
    tracer = Tracer()
    tracer.install()
    try:
        bench.setup()
        traced = bench.score_pass()
    finally:
        tracer.uninstall()
    workloads.check_same_outputs(first, traced, "traced scoring pass")
    assert tracer.metric("cli.fdr.self_ms") > 0
    assert tracer.metric("frechet.fd.calls") == 2 * 4 + 1  # val, gen per rep; fd
    assert not hasattr(trainer.post_train, "__wrapped__")  # uninstalled


def _read_sources(bench):
    return [workloads.oracle.read_fdf1(bench.path(f"{n}.bin")) for n in ("train", "val", "gen")]


def test_perturbed_fd_is_rejected(scored):
    bench, first = scored
    train, _, gen = _read_sources(bench)
    printed = float(first.outputs["fd"])
    workloads.check_fd(f"{printed:.6f}", train, gen)
    with pytest.raises(CheckError):
        workloads.check_fd(f"{printed * 1.001:.6f}", train, gen)


def test_perturbed_report_row_is_rejected(scored, tmp_path):
    bench, first = scored
    sources = _read_sources(bench)
    ensemble = bench.loaded.ensemble
    workloads.check_report(bench.path("report.csv"), first.outputs["fdr"], ensemble, *sources)
    lines = Path(bench.path("report.csv")).read_text().splitlines()
    name, fd_gen, fd_val, ratio = lines[2].split(",")
    for row in (
        f"{name},{float(fd_gen) * 1.001:.9g},{fd_val},{ratio}",  # a wrong distance
        f"{name},{fd_gen},{fd_val},{float(ratio) * 1.001:.9g}",  # fdr != fd_gen / fd_val
    ):
        bad = tmp_path / "report.csv"
        bad.write_text("\n".join(lines[:2] + [row] + lines[3:]) + "\n")
        with pytest.raises(CheckError):
            workloads.check_report(str(bad), first.outputs["fdr"], ensemble, *sources)


def test_perturbed_stats_file_is_rejected(scored, tmp_path):
    bench, _ = scored
    weight, mu, sigma = workloads.oracle.read_fds1(bench.path("gen.stats"))
    bad = str(tmp_path / "gen.stats")
    formats.write_stats(bad, GaussianStats(mu + 1e-9, sigma, weight))
    with pytest.raises(CheckError):
        workloads.check_stats(bad, bench.path("gen.bin"))


@pytest.fixture(scope="module")
def short_training(tmp_path_factory):
    """decoupling_ema's config at a 20-step budget, trained twice."""
    bench = workloads.Bench("decoupling_ema", 0, tmp_path_factory.mktemp("train"))
    loaded = config.load_config(bench.config)
    cfg = replace(loaded.train, total_steps=20, warmup_steps=2)
    bench.loaded = replace(loaded, train=cfg)
    jobs = [bench.train_job(cfg, "gen"), bench.train_job(cfg, "gen")]
    return bench, cfg, jobs


def test_a_crash_counts_as_a_failed_operation(short_training):
    bench, _, _ = short_training
    attempted, failed = bench.attempted, bench.failed
    with pytest.raises(workloads.OperationFailed):
        bench._operation(np.linalg.cholesky, -np.eye(2))
    assert (bench.attempted, bench.failed) == (attempted + 1, failed + 1)


def test_training_that_did_not_drop_is_rejected(short_training):
    bench, cfg, _ = short_training
    start = trainer.GeneratorModel.init(cfg.layer_dims, cfg.seed)
    start_params = (start.weights, start.biases)
    start_fd, same_fd = workloads.training_fds(bench.loaded, start_params, start_params, 0)
    with pytest.raises(CheckError):
        workloads.check_training(start_fd, same_fd, identity_drop=False)
    halved = [0.5 * v for v in start_fd]
    workloads.check_training(start_fd, halved, identity_drop=False)
    with pytest.raises(CheckError):  # dropped, but not to 10% in identity space
        workloads.check_training(start_fd, halved, identity_drop=True)


def test_log_that_differs_between_reruns_is_rejected(short_training, tmp_path):
    bench, cfg, (first, second) = short_training
    workloads.check_same_outputs(first, second, "rerun")
    log = bench.path("gen.csv")
    workloads.check_log(log, cfg.total_steps, len(cfg.ensemble))
    text = Path(log).read_text()
    last_digit = text.rstrip("\n")[-1]
    Path(log).write_text(text.rstrip("\n")[:-1] + str((int(last_digit) + 1) % 10) + "\n")
    changed = workloads.Pass(second.seconds, second.work, bench.digests("gen.ckpt", "gen.csv"))
    Path(log).write_text(text)
    with pytest.raises(CheckError):
        workloads.check_same_outputs(first, changed, "rerun")
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[4] = "nan"
    for broken in (lines[:5] + lines[6:], lines[:5] + [",".join(cells)] + lines[6:]):
        bad = tmp_path / "broken.csv"
        bad.write_text("\n".join(broken) + "\n")
        with pytest.raises(CheckError):
            workloads.check_log(str(bad), cfg.total_steps, len(cfg.ensemble))
