#!/usr/bin/env python3
"""Run one fdopt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository is the parent of this file's directory,
and fdopt is imported from its ``src``. BLAS runs on one thread. A run
sets the workload up SETUP_REPEATS times; a training workload then trains
once at its full budget, untimed, for the checks. The run then times
``--seconds`` of work in whole rounds: on the training workloads
TRAIN_SHARE of it goes to short training units (at least two rounds, so
that a rerun at the same seed can be compared) and the rest to scoring
passes (at least one); on ``score_fdr`` all of it goes to scoring passes.
Every output is then checked. With ``--trace 1`` the run then sets up,
trains one unit and scores once more with every fdopt layer wrapped, and
reports the per-layer metrics of that traced pass instead of the
end-to-end ones.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 0 when every operation and check
passed, 1 when one did not, 2 when the program is not there.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
TRAIN_SHARE = 2 / 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def repeat(fns, seconds: float, rounds: int) -> list:
    """Call fns in turn, in whole rounds, until their own time reaches seconds."""
    done = []
    for i in itertools.count():
        whole = i % len(fns) == 0 and i >= rounds * len(fns)
        if whole and sum(p.seconds for p in done) >= seconds:
            return done
        done.append(fns[i % len(fns)]())


def end_to_end(bench, units, passes, peak_rss_mb) -> dict:
    """Each rate is the median over its timed units, so one slow unit
    (a burst of load on the machine) does not move it."""
    setups = bench.setups
    if bench.training:
        # a unit repeats the set-up's 0-step post_train before its first step
        warm_start_s = statistics.median(s.warm_start_s for s in setups)
        steps_per_s = statistics.median(u.work / (u.seconds - warm_start_s) for u in units)
    else:
        steps = bench.loaded.pretrain_steps
        steps_per_s = statistics.median(steps / s.pretrain_s for s in setups)
    return {
        "setup_s": statistics.median(s.seconds for s in setups),
        "train_steps_per_s": steps_per_s,
        "score_rows_per_s": statistics.median(p.work / p.seconds for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def traced(bench, units, passes):
    """Set up, train one unit and score once with every layer wrapped.

    Returns the tracer and the tracing overhead in ms: the traced time
    minus the medians of the same steps untraced.
    """
    import workloads
    from tracer import Tracer

    untraced = statistics.median(s.seconds for s in bench.setups)
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        bench.setup()
        if bench.training:
            traced_unit = bench.unit_jobs()[0]()
            workloads.check_same_outputs(units[0], traced_unit, "traced training unit")
        workloads.check_same_outputs(passes[0], bench.score_pass(), "traced scoring pass")
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.save(RUNS / f"trace-{bench.workload}.npz")
    untraced += statistics.median(p.seconds for p in passes)
    if bench.training:  # the units at the traced unit's trainer seed
        untraced += statistics.median(u.seconds for u in units[::len(bench.units)])
    return tracer, (elapsed - untraced) * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "fdopt").is_dir():
        print(f"error: no fdopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    RUNS.mkdir(exist_ok=True)
    correct, metrics = True, {}
    with tempfile.TemporaryDirectory(dir=RUNS, prefix=f"{args.workload}-{args.seed}-") as work:
        bench = workloads.Bench(args.workload, args.seed, work)
        try:
            for _ in range(SETUP_REPEATS):
                bench.setup()
            units, scoring_s = [], args.seconds
            if bench.training:
                bench.full_job()
                units = repeat(bench.unit_jobs(), TRAIN_SHARE * args.seconds, 2)
                scoring_s -= TRAIN_SHARE * args.seconds
            passes = repeat([bench.score_pass], scoring_s, 1)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            bench.check(units, passes)
            if args.trace:
                tracer, overhead_ms = traced(bench, units, passes)
        except workloads.OperationFailed as exc:
            print(f"operation failed: {exc}", file=sys.stderr)
            correct = False
        except workloads.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        if correct and args.trace:
            for m in spec["per_layer"]:
                name = m["name"]
                value = overhead_ms if name == "trace.overhead_ms" else tracer.metric(name)
                metrics[name] = {"value": value, "unit": m["unit"]}
        elif correct:
            values = end_to_end(bench, units, passes, peak_rss_mb)
            for m in spec["end_to_end"]:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct and not bench.failed else 1


if __name__ == "__main__":
    sys.exit(main())
