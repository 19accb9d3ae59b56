"""Memory guards: target draws, sampling, feature files and scoring stream
fixed row blocks, and a training run's log grows by a few bytes a step.

tracemalloc sees NumPy's array buffers, so the traced peak of a call is
what it allocates beyond its inputs, which exist before tracing starts.
"""

import gc
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from fdopt.cli import cli_dispatch
from fdopt.config import load_config
from fdopt.formats import (
    metrics_log_text,
    write_checkpoint,
    write_features,
    write_metrics_log,
)
from fdopt.frechet import split_stats
from fdopt.metrics import build_report
from fdopt.representations import RepresentationEnsemble, RepresentationSpec
from fdopt.rng import SplitMix64
from fdopt.trainer import (
    GeneratorModel,
    MixtureTarget,
    generate,
    post_train,
    sample_target,
)

ROWS = 131_072
MB = 2**20
DECOUPLING = Path(__file__).resolve().parent.parent / "configs" / "decoupling.cfg"


def traced_peak(fn, *args):
    """(result, peak bytes traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_peak_is_output_plus_blocks():
    # a full forward would hold four 131072 x 64 float64 activations (256 MB)
    model = GeneratorModel.init([8, 64, 64, 2], seed=0)
    z = SplitMix64(1).normal_matrix(ROWS, 8)
    out, peak = traced_peak(generate, model, z)
    assert peak < out.nbytes + 8 * MB


def test_build_report_peak_is_independent_of_split_size():
    # a featurized split in the 64-d space alone is 64 MB
    specs = (
        RepresentationSpec("identity", 0, 2, 2),
        RepresentationSpec("quadratic", 0, 2, 5),
        RepresentationSpec("tanh_rf", 1, 2, 64),
    )
    ensemble = RepresentationEnsemble(specs=specs)
    stream = SplitMix64(2)
    train = stream.normal_matrix(4096, 2)
    val = stream.normal_matrix(ROWS, 2)
    gen = 0.1 + stream.normal_matrix(ROWS, 2)
    train_stats = [split_stats([spec], train, "train")[0] for spec in specs]
    report, peak = traced_peak(build_report, ensemble, train_stats, val, gen)
    assert np.isfinite(report.fdr_k)
    assert peak < 16 * MB


def test_sample_peak_holds_no_full_noise_matrix(tmp_path):
    # the whole 131072 x 8 noise matrix is 8 MB, and drawing it at once
    # takes several times that in Box-Muller temporaries
    model = GeneratorModel.init([8, 64, 64, 2], seed=0)
    ckpt = str(tmp_path / "g.ckpt")
    write_checkpoint(ckpt, model.weights, model.biases)
    argv = ["sample", "--ckpt", ckpt, "--n", str(ROWS), "--out", str(tmp_path / "g.bin")]
    code, peak = traced_peak(cli_dispatch, argv)
    assert code == 0
    # its two 1024 x 64 hidden tile buffers are 1 MB; 4096-row ones were 4 MB
    assert peak < 6 * MB


def mixture_target():
    return MixtureTarget(
        means=[[-2.0, 0.0], [2.5, 1.0]],
        covs=[np.diag([0.3, 0.2]), [[0.4, 0.1], [0.1, 0.3]]],
        weights=[0.4, 0.6],
        sample_seed=3,
    )


def test_sample_target_peak_is_output_plus_blocks():
    # a whole draw would hold the n uniforms, component indices and normals
    out, peak = traced_peak(sample_target, mixture_target(), ROWS, "memory")
    assert out.shape == (ROWS, 2)
    assert peak < out.nbytes + 1 * MB


def test_compute_stats_peak_is_one_block(tmp_path):
    features = str(tmp_path / "f.bin")
    write_features(features, SplitMix64(3).normal_matrix(ROWS, 2))
    argv = ["compute-stats", "--features", features, "--out", str(tmp_path / "f.stats")]
    code, peak = traced_peak(cli_dispatch, argv)
    assert code == 0
    assert peak < 1 * MB


def test_fdr_peak_is_flat_in_split_size(tmp_path):
    # one 4096-row block in the 64-d space is 2 MB; a whole 524288-row split
    # of raw samples is 8 MB, and featurized in that space 256 MB
    config = tmp_path / "run.cfg"
    config.write_text(
        "[ensemble]\nrep.0.kind = identity\nrep.1.kind = quadratic\n"
        "rep.2.kind = tanh_rf\nrep.2.seed = 1\nrep.2.out_dim = 64\n",
        encoding="utf-8",
    )
    target = mixture_target()
    train = str(tmp_path / "train.bin")
    write_features(train, sample_target(target, 4096, "train"))
    peaks = []
    for rows in (ROWS, 4 * ROWS):
        val, gen = str(tmp_path / f"val{rows}.bin"), str(tmp_path / f"gen{rows}.bin")
        write_features(val, sample_target(target, rows, "val"))
        write_features(gen, 0.1 + sample_target(target, rows, "gen"))
        argv = ["fdr", "--train", train, "--val", val, "--gen", gen,
                "--config", str(config), "--out", str(tmp_path / "report.csv")]
        code, peak = traced_peak(cli_dispatch, argv)
        assert code == 0
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < 1 * MB
    assert max(peaks) < 4 * MB


def decoupling(steps):
    config = load_config(str(DECOUPLING)).train
    return replace(config, total_steps=steps, warmup_steps=steps // 20)


def held_bytes(fn, *args):
    """(result, bytes traced while fn ran that its result still holds)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_training_log_grows_by_its_row_per_step():
    # a step's log row is lr, loss and two distances, 32 bytes of float64;
    # one Python record per step held about 286 bytes
    (_, short), short_bytes = held_bytes(post_train, decoupling(500))
    (_, long), long_bytes = held_bytes(post_train, decoupling(2000))
    assert len(list(long.rows())) - len(list(short.rows())) == 1500
    assert (long_bytes - short_bytes) / 1500 <= 64


def test_warm_start_peak_is_tiles_not_blocks():
    # the reference draw, the 4096-row warm evaluation and the warm states;
    # 4096-row hidden buffers alone were 4 MB of a 5 MB peak
    (_, log), peak = traced_peak(post_train, decoupling(0))
    assert [row[0] for row in log.rows()] == ["warm_start"]
    assert peak < 2.5 * MB


def test_metrics_log_is_written_as_its_text(tmp_path):
    # written line by line from a generator of rows, as a log's rows() is
    labels = ("rep0_identity", "rep1_tanh_rf")
    stream = SplitMix64(4)
    rows = [
        ("train", step, *stream.uniforms(4).tolist()) for step in range(2500)
    ]
    path = tmp_path / "log.csv"
    write_metrics_log(str(path), labels, iter(rows))
    assert path.read_bytes() == metrics_log_text(labels, rows).encode("utf-8")
