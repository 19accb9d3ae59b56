"""Memory guards: sampling and scoring stream fixed row blocks.

tracemalloc sees NumPy's array buffers, so the traced peak of a call is
what it allocates beyond its inputs, which exist before tracing starts.
"""

import tracemalloc

import numpy as np

from fdopt.cli import cli_dispatch
from fdopt.formats import write_checkpoint
from fdopt.frechet import feature_stats
from fdopt.metrics import build_report
from fdopt.representations import RepresentationEnsemble, RepresentationSpec
from fdopt.rng import SplitMix64
from fdopt.trainer import GeneratorModel, generate

ROWS = 131_072
MB = 2**20


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
    train_stats = [feature_stats(spec, train) for spec in specs]
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
    assert peak < 10 * MB
