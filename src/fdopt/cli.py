"""Command-line surface: seven subcommands over the binary/CSV formats.

Exit codes: 0 success; 1 usage error (bad flags, unknown subcommand);
2 data or format error (missing files, bad magic, truncation, config
typos, shape mismatches, non-finite inputs, and text inputs that do not
parse: a config or metrics log that is not UTF-8, a log cell that is not
a finite number, a log label that repeats or a row out of phase order);
3 numerical failure (non-finite loss, eigensolver non-convergence, report
write failure). Each input is checked once, by its reader; `sample` and
`train --init` run GeneratorModel(*read_checkpoint).
A `train` step that fails (non-finite values or an eigensolver failure)
is named by its step and representation; the run writes no checkpoint at
--out, writes the last model with all parameters finite to
<out>.last_good and, with --log, the log rows of the steps before it.

Every run is single-threaded and deterministic given identical inputs:
rerunning a command with the same seeds produces byte-identical outputs.
The optional FDOPT_LOG_LEVEL environment variable (DEBUG/INFO/...)
controls progress logging; output files never depend on it.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .config import load_config
from .errors import (
    DataError,
    FdoptError,
    NumericalError,
    StepError,
    UsageError,
)
from .formats import (
    FEATURES_MAGIC,
    FEATURES_MAX_ROWS,
    STATS_MAGIC,
    format_sig9,
    read_checkpoint,
    read_feature_blocks,
    read_metrics_log,
    read_stats,
    write_checkpoint,
    write_feature_blocks,
    write_metrics_log,
    write_report_csv,
    write_stats,
)
from .frechet import BLOCK_ROWS, Moments, fd, make_reference, split_stats
from .metrics import build_report
from .rng import SplitMix64, derive_seed
from .trainer import (
    GeneratorModel,
    generate_blocks,
    post_train,
    pretrain_regression,
)

_LOG = logging.getLogger("fdopt.cli")

__all__ = ["cli_dispatch", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit-code-1 errors."""

    def error(self, message):
        raise UsageError(message)


def _sniff_magic(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read(4)


def _cmd_compute_stats(args) -> int:
    stats = Moments(read_feature_blocks([args.features]), owned=True).stats()
    write_stats(args.out, stats)
    _LOG.info("wrote %s from %d rows", args.out, stats.weight)
    return 0


def _cmd_fd(args) -> int:
    ref = make_reference(read_stats(args.ref))
    magic = _sniff_magic(args.gen)
    if magic == STATS_MAGIC:
        if args.rep is not None:
            raise UsageError(f"--rep maps a features file, but {args.gen} holds stats")
        gen_stats = read_stats(args.gen)
    elif magic == FEATURES_MAGIC:
        blocks = read_feature_blocks([args.gen])
        if args.rep is None:
            gen_stats = Moments(blocks, owned=True).stats()
        else:
            ensemble = load_config(args.rep).ensemble
            if len(ensemble) != 1:
                raise DataError(
                    f"--rep config must define exactly one representation, "
                    f"found {len(ensemble)}"
                )
            gen_stats = split_stats(ensemble.specs, blocks, "gen features")[0]
    else:
        raise DataError(f"{args.gen}: neither a stats nor a features file")
    print(f"{fd(ref, gen_stats):.6f}")
    return 0


def _cmd_fdr(args) -> int:
    ensemble = load_config(args.config).ensemble
    if len(args.train) == 1 and _sniff_magic(args.train[0]) == FEATURES_MAGIC:
        blocks = read_feature_blocks(args.train)
        train_stats = split_stats(ensemble.specs, blocks, "train features")
    else:
        if len(args.train) != len(ensemble):
            raise DataError(
                f"need one stats file per representation ({len(ensemble)}), "
                f"got {len(args.train)}"
            )
        train_stats = [read_stats(path) for path in args.train]
    # both splits' headers are checked before either payload is read
    val, gen = read_feature_blocks(args.val), read_feature_blocks(args.gen)
    report = build_report(ensemble, train_stats, val, gen)
    write_report_csv(report, args.out)
    print(f"FDRK {format_sig9(report.fdr_k)}")
    return 0


def _cmd_train(args) -> int:
    loaded = load_config(args.config)
    if loaded.train is None:
        raise DataError(f"{args.config}: missing [target] section; nothing to train")
    initial = None if args.init is None else GeneratorModel(*read_checkpoint(args.init))
    try:
        model, log = post_train(loaded.train, initial_model=initial)
    except StepError as err:
        # keep the last model whose parameters were all finite, and the log
        # of the steps before the failed one, for recovery
        good = err.last_good_model
        write_checkpoint(f"{args.out}.last_good", good.weights, good.biases)
        if args.log is not None:
            write_metrics_log(args.log, err.log.labels, err.log.rows())
        raise
    write_checkpoint(args.out, model.weights, model.biases)
    if args.log is not None:
        write_metrics_log(args.log, log.labels, log.rows())
    _LOG.info("trained %d steps, wrote %s", loaded.train.total_steps, args.out)
    return 0


def _cmd_pretrain(args) -> int:
    loaded = load_config(args.config)
    if loaded.source is None:
        raise DataError(f"{args.config}: missing [source] section; nothing to fit")
    if loaded.train is None:
        raise DataError(
            f"{args.config}: missing [target] section; the trainer block "
            "defines the generator architecture"
        )
    cfg = loaded.train
    model = GeneratorModel.init(cfg.layer_dims, cfg.seed)
    model = pretrain_regression(
        model,
        loaded.source,
        steps=loaded.pretrain_steps,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )
    write_checkpoint(args.out, model.weights, model.biases)
    _LOG.info("pretrained %d steps, wrote %s", loaded.pretrain_steps, args.out)
    return 0


def _cmd_sample(args) -> int:
    if not 1 <= args.n <= FEATURES_MAX_ROWS:
        raise UsageError(f"--n must lie in [1, {FEATURES_MAX_ROWS}], got {args.n}")
    model = GeneratorModel(*read_checkpoint(args.ckpt))
    stream = SplitMix64(derive_seed("sample-noise", args.seed))
    # each block's noise is drawn just before its forward and written after it
    noise = stream.normal_blocks(args.n, model.z_dim, BLOCK_ROWS)
    blocks = generate_blocks(model, noise)
    write_feature_blocks(args.out, (args.n, model.out_dim), blocks)
    return 0


def _cmd_report(args) -> int:
    labels, rows = read_metrics_log(args.log)
    if not rows:
        raise DataError(f"{args.log}: metrics log has no rows")
    # rows are in phase order, so the last one is the final row if any
    phase, step = rows[-1][:2]
    if phase != "final":
        print(
            f"note: {args.log} has no final row; last= is the {phase} row "
            f"at step {step}",
            file=sys.stderr,
        )
    for i, label in enumerate(labels):
        values = [row[4 + i] for row in rows]
        best = min(range(len(values)), key=values.__getitem__)
        print(
            f"{label} first={format_sig9(values[0])} "
            f"last={format_sig9(values[-1])} "
            f"best={format_sig9(values[best])} step={rows[best][1]}"
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fdopt", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute-stats", help="fit mean/covariance to a feature file")
    p.add_argument("--features", required=True, help="input feature file")
    p.add_argument("--out", required=True, help="output stats file")
    p.set_defaults(func=_cmd_compute_stats)

    p = sub.add_parser("fd", help="distance between reference stats and a population")
    p.add_argument("--ref", required=True, help="reference stats file")
    p.add_argument("--gen", required=True, help="stats file or feature file")
    p.add_argument(
        "--rep",
        help="config whose single representation maps raw --gen features",
    )
    p.set_defaults(func=_cmd_fd)

    p = sub.add_parser("fdr", help="normalized-ratio report over representations")
    p.add_argument(
        "--train",
        required=True,
        nargs="+",
        help="per-representation stats files, or one raw feature file",
    )
    p.add_argument("--val", required=True, nargs="+", help="held-out sample files")
    p.add_argument("--gen", required=True, nargs="+", help="generated sample files")
    p.add_argument("--config", required=True, help="config defining the ensemble")
    p.add_argument("--out", required=True, help="output report CSV")
    p.set_defaults(func=_cmd_fdr)

    p = sub.add_parser("train", help="post-train a generator against the target")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output checkpoint")
    p.add_argument("--log", help="optional metrics log CSV")
    p.add_argument("--init", help="starting checkpoint (defaults to seeded init)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("pretrain", help="regression-fit a generator to the source")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output checkpoint")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("sample", help="draw generator samples into a feature file")
    p.add_argument("--ckpt", required=True, help="generator checkpoint")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="noise stream seed")
    p.add_argument("--out", required=True, help="output feature file")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("report", help="summarize a metrics log per representation")
    p.add_argument("--log", required=True, help="metrics log CSV")
    p.set_defaults(func=_cmd_report)

    return parser


def cli_dispatch(argv) -> int:
    """Run one command; returns the documented exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help path
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FdoptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    level = os.environ.get("FDOPT_LOG_LEVEL")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
