#!/usr/bin/env python3
"""Run fdopt's CLI pipeline end to end and print the sha256 of every artifact.

The pipeline, pretrain -> train -> sample -> compute-stats -> fd -> fdr ->
report, is written once, in build(); the tests call it too. A change meant
to keep behaviour byte for byte is checked by running this script on the
tree before the change and on the tree after it: the two outputs must be
identical. Each line is `name sha256`. The runs, built from the bundled
configs:

- decoupling.cfg cut to 300 steps (warm-up 30), trained once with its EMA
  and once with a 32-row queue;
- mixture.cfg cut to 300 steps (warm-up 30) and 300 pretrain steps:
  pretrain, then train --init from that checkpoint;
- the cut decoupling.cfg on a kind = file [target], and the cut
  mixture.cfg pretrain on a kind = file [source], both a 6000-row draw
  from the mixture target (two blocks);
- sample of the trained mixture.cfg model at n = 1, 4097 and 131072;
- compute-stats, fd (on stats and on features), fdr (the report and its
  stdout) and report (stdout).

Every command runs through fdopt.cli.cli_dispatch in this process and is
printed to stderr as it runs; a nonzero exit code stops the pipeline and
becomes the script's exit status. The artifacts are built in a temporary
directory, or kept in DIR with --keep DIR (the stdout of fd, fdr and
report as *.stdout files, next to the cut configs).

Usage: PYTHONPATH=src python3 scripts/output_digests.py [--keep DIR]
"""

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

from fdopt.cli import cli_dispatch
from fdopt.config import load_config
from fdopt.formats import write_features
from fdopt.trainer import sample_target

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class CommandError(Exception):
    """A pipeline command exited nonzero; code is its exit code."""

    def __init__(self, command: str, code: int):
        self.code = code
        super().__init__(f"{command} exited {code}")


def cut(text: str, steps: int = 300) -> str:
    """The config text with `steps` training steps, a tenth of them warm-up,
    and `steps` pretrain steps where it sets them."""
    cuts = {"total_steps": steps, "warmup_steps": steps // 10, "pretrain_steps": steps}
    for key, value in cuts.items():
        text = re.sub(rf"(?m)^{key} = \d+$", f"{key} = {value}", text)
    return text


def file_section(text: str, section: str, path: Path, seed: int) -> str:
    """text with its last section, [section], replaced by a kind = file one."""
    head = re.split(rf"(?m)^\[{section}\]$", text)[0]
    return head + f"[{section}]\nkind = file\npath = {path}\nsample_seed = {seed}\n"


def build(work: Path) -> dict[str, bytes]:
    """Build every artifact in the empty or new directory work; returns
    {name: bytes} of every file there but the configs, stdout captures
    included. Raises CommandError on the first command that fails."""
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        raise FileExistsError(f"{work} is not empty")

    def run(*argv, stdout: str | None = None) -> None:
        command = "fdopt " + " ".join(map(str, argv))
        print(f"+ {command}", file=sys.stderr, flush=True)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_dispatch([str(a) for a in argv])
        if code:
            raise CommandError(command, code)
        if stdout:
            (work / stdout).write_text(out.getvalue(), encoding="utf-8")

    def config(name: str, text: str) -> Path:
        path = work / name
        path.write_text(text, encoding="utf-8")
        return path

    decoupling = cut((CONFIGS / "decoupling.cfg").read_text(encoding="utf-8"))
    mixture = cut((CONFIGS / "mixture.cfg").read_text(encoding="utf-8"))
    ema, queue = "kind = ema\nbeta = 0.999", "kind = queue\ncapacity = 32"
    queue = decoupling.replace(ema, queue)
    assert queue != decoupling
    target, val = work / "target.bin", work / "val.bin"
    population = load_config(CONFIGS / "mixture.cfg").train.target
    write_features(target, sample_target(population, 6000, "digest-target"))
    write_features(val, sample_target(population, 4097, "digest-val"))

    trains = {
        "dec_ema": decoupling,
        "dec_queue": queue,
        "file_target": file_section(decoupling, "target", target, 5),
    }
    for name, text in trains.items():
        run("train", "--config", config(f"{name}.cfg", text),
            "--out", work / f"{name}.ckpt", "--log", work / f"{name}.csv")
    cfg = config("mixture.cfg", mixture)
    run("pretrain", "--config", cfg, "--out", work / "pre.ckpt")
    run("train", "--config", cfg, "--init", work / "pre.ckpt",
        "--out", work / "post.ckpt", "--log", work / "post.csv")
    file_source = file_section(mixture, "source", target, 9)
    file_source = config("file_source.cfg", file_source)
    run("pretrain", "--config", file_source, "--out", work / "file_source.ckpt")

    for n in (1, 4097, 131072):
        run("sample", "--ckpt", work / "post.ckpt", "--n", n, "--seed", 3,
            "--out", work / f"gen_{n}.bin")
    run("compute-stats", "--features", target, "--out", work / "target.stats")
    run("compute-stats", "--features", work / "gen_4097.bin",
        "--out", work / "gen.stats")
    run("fd", "--ref", work / "target.stats", "--gen", work / "gen.stats",
        stdout="fd_stats.stdout")
    run("fd", "--ref", work / "target.stats", "--gen", work / "gen_4097.bin",
        stdout="fd_features.stdout")
    run("fdr", "--train", target, "--val", val, "--gen", work / "gen_131072.bin",
        "--config", cfg, "--out", work / "report.csv", stdout="fdr.stdout")
    run("report", "--log", work / "post.csv", stdout="report.stdout")

    return {p.name: p.read_bytes() for p in work.iterdir() if p.suffix != ".cfg"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="build in DIR and keep the artifacts there")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            artifacts = build(args.keep or Path(tmp))
        except FileExistsError as err:
            parser.error(str(err))
        except CommandError as err:
            print(err, file=sys.stderr)
            return err.code
    for name in sorted(artifacts):
        print(name, hashlib.sha256(artifacts[name]).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
