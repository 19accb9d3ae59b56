#!/usr/bin/env python3
"""Print the sha256 of every artifact of a fixed set of fdopt runs.

A change meant to keep behaviour byte for byte is checked by running this
script on the tree before the change and on the tree after it: the two
outputs must be identical. Each line is `name sha256`. The runs, built in a
temporary directory from the bundled configs:

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

Every command runs through fdopt.cli.cli_dispatch in this process, and a
nonzero exit code stops the script.

Usage: PYTHONPATH=src python3 scripts/output_digests.py
"""

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


def cut(text: str) -> str:
    """The config text with 300 training steps, 30 of them warm-up, and 300
    pretrain steps where it sets them."""
    cuts = (("total_steps", 300), ("warmup_steps", 30), ("pretrain_steps", 300))
    for key, value in cuts:
        text = re.sub(rf"(?m)^{key} = \d+$", f"{key} = {value}", text)
    return text


def file_section(text: str, section: str, path: Path, seed: int) -> str:
    """text with its last section, [section], replaced by a kind = file one."""
    head = re.split(rf"(?m)^\[{section}\]$", text)[0]
    return head + f"[{section}]\nkind = file\npath = {path}\nsample_seed = {seed}\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        printed = {}

        def run(*argv, stdout: str | None = None) -> None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_dispatch([str(a) for a in argv])
            if code:
                sys.exit(f"fdopt {' '.join(map(str, argv))} exited {code}")
            if stdout:
                printed[stdout] = out.getvalue()

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

        artifacts = {p.name: p.read_bytes() for p in work.iterdir() if p.suffix != ".cfg"}
        artifacts |= {name: text.encode("utf-8") for name, text in printed.items()}
    for name in sorted(artifacts):
        print(name, hashlib.sha256(artifacts[name]).hexdigest())


if __name__ == "__main__":
    main()
