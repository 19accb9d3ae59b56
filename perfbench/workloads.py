"""The benchmark's workloads: inputs made from a seed, set-up, timed work, checks.

Every workload runs the same shape in one process:

* set-up: load the config, draw and write the target splits
  (``metrics.CALIBRATION_SIZES``), fit the train stats with
  ``compute-stats``, then either warm start the trainer (a 0-step
  ``post_train``: reference stats and estimator warm start) or, on
  ``score_fdr``, write the generator checkpoint with ``pretrain``;
* on the training workloads, one untimed job at the config's full budget,
  whose trained generator the checks judge, then timed training units:
  short ``post_train`` jobs that alternate between two trainer seeds, each
  followed by the checkpoint and metrics log written as ``fdopt train`` does;
* scoring passes on the generator (trained, or pretrained on ``score_fdr``):
  ``sample``, ``compute-stats``, ``fd`` and ``fdr``;
* checks against ``oracle``, made after the timed work.

A seed n fixes every input. On the training workloads the config's trainer
seed (generator init and noise streams) is 2n and the units alternate
between 2n and 2n + 1; on ``score_fdr`` n is the trainer seed, the
target's sample seed and the ``sample --seed``. Every unit at one trainer
seed and every pass repeats the same work, so each must write what the
first wrote, byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fdopt import cli, config, formats, metrics, representations, trainer

import oracle

ROOT = Path(__file__).resolve().parent.parent

DECOUPLING_STEPS = 4000
# Steps of one timed training unit; a unit keeps the config's share of
# warm-up steps. Units alternate between UNIT_SEEDS trainer seeds (2n and
# 2n + 1 for seed n), so that a run's rate does not rest on one generator
# init: Jacobi's sweep count, and so a step's time, depends on the matrices.
UNIT_STEPS = {"decoupling_ema": 200, "wide_queue": 4}
UNIT_SEEDS = 2
# FD of the trained generator relative to its start, identity space, on
# decoupling_ema; fdopt's convergence criterion uses the same 10%.
IDENTITY_DROP = 0.10
ORACLE_ROWS = 20_000
# FD tolerance, on top of the printed rounding, from two sources:
# * the acceptance suite's matrix-root oracle test allows 1e-6 * max(1, |cross|)
#   on the cross term Tr((R sigma_g R)^{1/2}), which an FD holds twice;
# * fdopt's Jacobi eigensolver stops at off-diagonal norm
#   EIG_TOL * max(1, |A|_F), which moves each eigenvalue of A by at most that
#   (Weyl). Its root R of sigma_r therefore squares to sigma_r within twice
#   that, negative eigenvalues clamped included. The eigenvalues of
#   C = R sigma_g R are those of sigma_g^1/2 R^2 sigma_g^1/2, so they move by
#   at most eps = EIG_TOL * (2 max(1, |sigma_r|_F) |sigma_g|_2 + max(1, |C|_F)),
#   the second term from C's own eigensolve, and the root of an eigenvalue
#   lambda by at most min(sqrt(eps), eps / sqrt(lambda)). The sqrt(eps) case
#   is what the nearly singular covariances here reach: a 16-d affine map of
#   2-d samples has rank 2, and a 64-d tanh map of them has a fast-decaying
#   spectrum.
CROSS_TOL = 1e-6
EIG_TOL = 1e-12
STATS_TOL = 1e-12

MIXTURE_TARGET = """\
[target]
sample_seed = {sample_seed}
comp.0.weight = 0.4
comp.0.mean = -2.0, 0.0
comp.0.cov = 0.3, 0.0, 0.0, 0.2
comp.1.weight = 0.6
comp.1.mean = 2.5, 1.0
comp.1.cov = 0.4, 0.1, 0.1, 0.3
"""

WIDE_QUEUE = """\
# mixture.cfg's task with a queue estimator at B = 32, capacity 1024, and a
# 64-d tanh random-feature space beside identity and quadratic
[trainer]
seed = {seed}
batch_size = 32
total_steps = 16
warmup_steps = 2
peak_lr = 0.001
z_dim = 8
hidden = 64, 64
out_dim = 2

[estimator]
kind = queue
capacity = 1024

[ensemble]
c = 0.01
rep.0.kind = identity
rep.1.kind = quadratic
rep.2.kind = tanh_rf
rep.2.seed = 1
rep.2.out_dim = 64

""" + MIXTURE_TARGET

SCORE_FDR = """\
# mixture.cfg's target and source, scored in all four feature families
[trainer]
seed = {seed}
batch_size = 128
total_steps = 5000
warmup_steps = 250
peak_lr = 0.001
z_dim = 8
hidden = 64, 64
out_dim = 2
pretrain_steps = 1500

[ensemble]
c = 0.01
rep.0.kind = identity
rep.1.kind = tanh_rf
rep.1.seed = 1
rep.1.out_dim = 8
rep.2.kind = quadratic
rep.3.kind = affine
rep.3.seed = 2
rep.3.out_dim = 16

""" + MIXTURE_TARGET + """
[source]
sample_seed = 9
comp.0.weight = 1.0
comp.0.mean = 0.0, -1.0
comp.0.cov = 0.5, 0.0, 0.0, 0.5
"""


def decoupling_text(seed: int) -> str:
    """configs/decoupling.cfg as shipped, with trainer seed 2n and a 4000-step budget."""
    text = (ROOT / "configs" / "decoupling.cfg").read_text(encoding="utf-8")
    for key, value in (("seed", 2 * seed), ("total_steps", DECOUPLING_STEPS)):
        text, count = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text, count=1)
        if count != 1:
            raise ValueError(f"configs/decoupling.cfg has no '{key} =' line")
    return text


CONFIGS = {
    "decoupling_ema": decoupling_text,
    "wide_queue": lambda seed: WIDE_QUEUE.format(seed=2 * seed, sample_seed=5),
    "score_fdr": lambda seed: SCORE_FDR.format(seed=seed, sample_seed=seed),
}
TRAINING = ("decoupling_ema", "wide_queue")


class CheckError(Exception):
    """An output disagrees with its oracle or with a property of the method."""


class OperationFailed(Exception):
    """A CLI command exited non-zero or a training job or command raised."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def require_fd(got: float, want: oracle.Fd, rounding: float, what: str) -> None:
    """got matches the oracle FD within the tolerance above."""
    eigs = np.clip(want.congruence_eigs, 0.0, None)
    eps = EIG_TOL * (2.0 * max(1.0, want.ref_norm) * want.gen_norm
                     + max(1.0, float(np.linalg.norm(want.congruence_eigs))))
    with np.errstate(divide="ignore"):
        root_error = float(np.minimum(math.sqrt(eps), eps / np.sqrt(eigs)).sum())
    tol = rounding + 2.0 * (CROSS_TOL * max(1.0, abs(want.cross)) + root_error)
    require(abs(got - want.value) <= tol,
            f"{what}: {got!r} vs oracle {want.value!r} (tol {tol:.1e})")


@dataclass
class Setup:
    seconds: float
    warm_start_s: float = 0.0  # the 0-step post_train (training workloads)
    pretrain_s: float = 0.0  # the pretrain command (score_fdr)


@dataclass
class Pass:
    """One training job (work = steps) or one scoring pass (rows)."""

    seconds: float
    work: int
    outputs: dict = field(default_factory=dict)  # file digests, printed text
    seed: int = 0  # trainer seed of a training job


class Bench:
    """One workload at one seed, working in ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir):
        if workload not in CONFIGS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(CONFIGS)}")
        self.workload = workload
        self.training = workload in TRAINING
        self.seed = seed
        self.dir = Path(workdir)
        self.config = self.path("run.cfg")
        Path(self.config).write_text(CONFIGS[workload](seed), encoding="utf-8")
        self.sizes = metrics.CALIBRATION_SIZES
        self.attempted = 0
        self.failed = 0
        self.setups: list[Setup] = []
        self.loaded = None
        self.units = []  # the timed training units' configs, one per trainer seed

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def _operation(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.failed += 1
            raise OperationFailed(f"{self.workload}: {exc!r}") from exc

    def cli(self, *argv) -> str:
        """One fdopt command through cli_dispatch; returns what it printed."""

        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.cli_dispatch([str(a) for a in argv])
            if code != 0:
                raise OperationFailed(f"fdopt {argv[0]} exited {code}")
            return buf.getvalue()

        return self._operation(run)

    def digests(self, *names) -> dict:
        return {n: hashlib.sha256(Path(self.path(n)).read_bytes()).hexdigest() for n in names}

    def setup(self) -> Setup:
        start = time.perf_counter()
        self.loaded = config.load_config(self.config)
        target = self.loaded.train.target
        for split in ("train", "val"):
            rows = trainer.sample_target(target, self.sizes[split], f"bench-{split}")
            formats.write_features(self.path(f"{split}.bin"), rows)
        self.cli("compute-stats", "--features", self.path("train.bin"),
                 "--out", self.path("train.stats"))
        result = Setup(seconds=0.0)
        mark = time.perf_counter()
        if self.training:
            cfg = self.loaded.train
            warm_only = replace(cfg, total_steps=0, warmup_steps=0)
            self._operation(trainer.post_train, warm_only)
            result.warm_start_s = time.perf_counter() - mark
            steps = UNIT_STEPS[self.workload]
            self.units = [
                replace(cfg, seed=cfg.seed + i, total_steps=steps,
                        warmup_steps=cfg.warmup_steps * steps // cfg.total_steps)
                for i in range(UNIT_SEEDS)
            ]
        else:
            self.cli("pretrain", "--config", self.config, "--out", self.path("gen.ckpt"))
            result.pretrain_s = time.perf_counter() - mark
        result.seconds = time.perf_counter() - start
        self.setups.append(result)
        return result

    def train_job(self, cfg, name: str) -> Pass:
        """post_train, then the checkpoint and log written as ``fdopt train`` does."""

        def job():
            model, log = trainer.post_train(cfg)
            formats.write_checkpoint(self.path(f"{name}.ckpt"), model.weights, model.biases)
            formats.write_metrics_log(self.path(f"{name}.csv"), log.labels, log.rows())

        start = time.perf_counter()
        self._operation(job)
        seconds = time.perf_counter() - start
        return Pass(seconds, cfg.total_steps, self.digests(f"{name}.ckpt", f"{name}.csv"),
                    cfg.seed)

    def full_job(self) -> Pass:
        """The config's full budget, untimed; the scoring passes sample its generator."""
        return self.train_job(self.loaded.train, "gen")

    def unit_jobs(self) -> list:
        """One timed unit per trainer seed, to be called in turn."""
        return [lambda cfg=cfg: self.train_job(cfg, "unit") for cfg in self.units]

    def score_pass(self) -> Pass:
        """sample the generator, then compute-stats, fd and fdr on the sample."""
        start = time.perf_counter()
        n_gen = self.sizes["gen"]
        self.cli("sample", "--ckpt", self.path("gen.ckpt"), "--n", n_gen, "--seed", self.seed,
                 "--out", self.path("gen.bin"))
        self.cli("compute-stats", "--features", self.path("gen.bin"),
                 "--out", self.path("gen.stats"))
        printed_fd = self.cli("fd", "--ref", self.path("train.stats"),
                              "--gen", self.path("gen.stats"))
        printed_fdr = self.cli("fdr", "--train", self.path("train.bin"),
                               "--val", self.path("val.bin"), "--gen", self.path("gen.bin"),
                               "--config", self.config, "--out", self.path("report.csv"))
        seconds = time.perf_counter() - start
        outputs = self.digests("gen.bin", "gen.stats", "report.csv")
        outputs.update(fd=printed_fd, fdr=printed_fdr)
        return Pass(seconds, n_gen, outputs)

    # -- checks -------------------------------------------------------------

    def check(self, units: list[Pass], passes: list[Pass]) -> None:
        """Raises CheckError on the first wrong output.

        Every unit at one trainer seed and every pass repeats the same work,
        so each must write what the first one wrote; the files on disk are
        the last.
        """
        for i, unit in enumerate(units):
            first = next(u for u in units if u.seed == unit.seed)
            check_same_outputs(first, unit, f"training unit {i}")
        for i, other in enumerate(passes[1:], start=1):
            check_same_outputs(passes[0], other, f"scoring pass {i}")
        if self.training:
            cfg = self.loaded.train
            require(len(units) > len(self.units),
                    "determinism needs two training units at one seed")
            check_log(self.path("unit.csv"), self.units[0].total_steps, len(cfg.ensemble))
            check_log(self.path("gen.csv"), cfg.total_steps, len(cfg.ensemble))
            start = trainer.GeneratorModel.init(cfg.layer_dims, cfg.seed)
            start_fd, trained_fd = training_fds(
                self.loaded, (start.weights, start.biases),
                oracle.read_fdc1(self.path("gen.ckpt")), cfg.seed)
            check_training(start_fd, trained_fd, self.workload == "decoupling_ema")
        check_stats(self.path("gen.stats"), self.path("gen.bin"))
        train, val, gen = (oracle.read_fdf1(self.path(f"{n}.bin")) for n in ("train", "val", "gen"))
        check_fd(passes[0].outputs["fd"], train, gen)
        check_report(self.path("report.csv"), passes[0].outputs["fdr"],
                     self.loaded.ensemble, train, val, gen)

# -- checks, each against an oracle or a property of the method ------------


def check_same_outputs(first: Pass, other: Pass, what: str) -> None:
    """A rerun at the same seed wrote byte-identical files and printed the same."""
    changed = sorted(k for k in first.outputs if other.outputs.get(k) != first.outputs[k])
    require(not changed, f"{what} differs from the first at the same seed: {changed}")


def check_log(path: str, steps: int, reps: int) -> None:
    """One warm_start row, one train row per step, one final row; all finite."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    require(header[:4] == ["phase", "step", "lr", "loss"] and len(header) == 4 + reps,
            f"log header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    phases = [row[0] for row in rows]
    require(phases == ["warm_start"] + ["train"] * steps + ["final"],
            f"log phases: {len(phases)} rows, expected {steps} train rows between "
            "warm_start and final")
    train_steps = [int(row[1]) for row in rows[1:-1]]
    require(train_steps == list(range(steps)), "train rows do not count steps 0..N-1")
    for row in rows:
        values = [float(v) for v in row[3:]]
        require(len(values) == 1 + reps and all(map(math.isfinite, values)),
                f"log row {row[:2]} has a non-finite or missing loss/FD")


def training_fds(loaded, start_params, trained_params, seed: int):
    """Oracle FD to the target of the start and the trained generator, per rep.

    Both generators see the same noise and the same target draw, both drawn
    here with NumPy, so their difference is not sampling noise.
    """
    target = loaded.train.target
    rng = np.random.default_rng([seed, 1])
    target_rows = oracle.mixture_rows(target.means, target.covs, target.weights,
                                      ORACLE_ROWS, rng)
    z = rng.standard_normal((ORACLE_ROWS, loaded.train.z_dim))
    start_rows = oracle.mlp(*start_params, z)
    trained_rows = oracle.mlp(*trained_params, z)
    start_fd, trained_fd = [], []
    for spec in loaded.ensemble.specs:
        params = _params(spec)
        ref = oracle.moments(oracle.features(spec, target_rows, params))
        for rows, out in ((start_rows, start_fd), (trained_rows, trained_fd)):
            gen = oracle.moments(oracle.features(spec, rows, params))
            out.append(oracle.frechet(ref, gen).value)
    return start_fd, trained_fd


def check_training(start_fd, trained_fd, identity_drop: bool) -> None:
    for k, (before, after) in enumerate(zip(start_fd, trained_fd)):
        require(after < before, f"rep {k}: trained FD {after:.6g} not below start {before:.6g}")
    if identity_drop:
        require(trained_fd[0] <= IDENTITY_DROP * start_fd[0],
                f"identity FD fell only to {trained_fd[0]:.6g} from {start_fd[0]:.6g}; "
                f"needs <= {IDENTITY_DROP:.0%}")


def check_stats(stats_path: str, features_path: str) -> None:
    """compute-stats wrote the mean and population covariance of the file."""
    weight, mu, sigma = oracle.read_fds1(stats_path)
    rows = oracle.read_fdf1(features_path)
    want_mu, want_sigma = oracle.moments(rows)
    require(weight == rows.shape[0], f"stats weight {weight} for {rows.shape[0]} rows")
    require(np.allclose(mu, want_mu, rtol=STATS_TOL, atol=STATS_TOL), "stats mean")
    require(np.allclose(sigma, want_sigma, rtol=STATS_TOL, atol=STATS_TOL), "stats covariance")


def check_fd(printed: str, train_rows, gen_rows) -> None:
    """`fd` printed, to 6 decimals, the oracle FD of the raw samples."""
    want = oracle.frechet(oracle.moments(train_rows), oracle.moments(gen_rows))
    require_fd(float(printed), want, 5e-7, "fd")


def check_report(path: str, printed: str, ensemble, train_rows, val_rows, gen_rows):
    """Report rows equal oracle FDs; FDr = fd_gen / fd_val; FDRK = their mean."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    require(lines[0] == "rep,fd_gen,fd_val,fdr", f"report header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:-1]]
    require(len(rows) == len(ensemble.specs), f"{len(rows)} report rows")
    ratios = []
    for k, (spec, row) in enumerate(zip(ensemble.specs, rows)):
        params = _params(spec)
        ref = oracle.moments(oracle.features(spec, train_rows, params))
        fd_gen, fd_val, ratio = (float(v) for v in row[1:])
        for got, rows_k, what in ((fd_gen, gen_rows, "fd_gen"), (fd_val, val_rows, "fd_val")):
            want = oracle.frechet(ref, oracle.moments(oracle.features(spec, rows_k, params)))
            require_fd(got, want, 5e-9 * abs(got), f"{row[0]} {what}")
        require(abs(ratio - fd_gen / fd_val) <= 2e-8 * abs(ratio), f"{row[0]} fdr {ratio}")
        ratios.append(ratio)
    last = lines[-1].split(",")
    fdr_k = float(last[3])
    require(last[0] == "FDRK" and abs(fdr_k - np.mean(ratios)) <= 2e-8 * abs(fdr_k),
            f"FDRK {fdr_k} vs mean {np.mean(ratios)}")
    require(printed.split() == ["FDRK", last[3]], f"fdr printed {printed!r}")


def _params(spec):
    if spec.kind in ("affine", "tanh_rf"):
        return representations.rep_params(spec)
    return None
