#!/usr/bin/env python3
"""Estimator ablation: batch-only vs EMA vs queue statistics.

Trains the bundled task once per (estimator arm, seed) under an identical
budget and prints the final large-sample identity-space distance for each
run, plus per-arm medians. With the decoupling budget (tiny batch, long
cool schedule) the population-level arms end lower than batch-only.

Usage: python3 scripts/population_ablation.py [--config configs/decoupling.cfg]
                                              [--seeds 5]
"""

import argparse
import statistics
import time
from dataclasses import replace

from fdopt.config import load_config
from fdopt.estimators import Ema, Queue
from fdopt.trainer import post_train


def arms(batch_size):
    """(name, estimator) of each arm: batch-only, EMA, queue."""
    return (
        ("batch-only (beta 0)", Ema(0.0)),
        ("ema beta 0.999", Ema(0.999)),
        ("queue N = 8B", Queue(8 * batch_size)),
    )


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--config", default="configs/decoupling.cfg")
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    base = load_config(args.config).train
    if base is None:
        parser.error(f"{args.config} has no [target] section")
    print(
        f"task: B={base.batch_size}, {base.total_steps} steps, "
        f"peak lr {base.peak_lr:g}, seeds 0..{args.seeds - 1}"
    )
    for name, estimator in arms(base.batch_size):
        start = time.time()
        finals = []
        for seed in range(args.seeds):
            _, log = post_train(replace(base, seed=seed, estimator=estimator))
            # the last row stored is the final one: (lr, loss, identity FD, ...)
            finals.append(float(log.table[log.filled - 1, 2]))
        runs = " ".join(f"{v:.4f}" for v in finals)
        print(
            f"{name:20s} median {statistics.median(finals):.4f}   "
            f"runs [{runs}]   ({time.time() - start:.0f}s)"
        )


if __name__ == "__main__":
    main()
