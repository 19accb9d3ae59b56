"""The benchmark's calls into fdopt still work on this src: each workload's
set-up, and one timed unit of each training workload.

perfbench/ lies outside the test paths, so without this a change to src
that breaks a call the benchmark makes (replace on a TrainConfig,
write_checkpoint(path, model.weights, model.biases), log.rows(),
metrics.CALIBRATION_SIZES) would show only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["decoupling_ema", "wide_queue", "score_fdr"])
def test_workload_sets_up_and_runs_a_unit(workload, tmp_path):
    bench = workloads.Bench(workload, 0, tmp_path)
    bench.setup()
    if bench.training:
        unit = bench.unit_jobs()[0]()
        assert unit.work == workloads.UNIT_STEPS[workload]
        assert set(unit.outputs) == {"unit.ckpt", "unit.csv"}
