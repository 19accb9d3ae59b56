"""Config file parsing: sections, typed keys, indexed reps/components."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fdopt.config import (
    _EMA,
    _FILE,
    _MIXTURE,
    _QUEUE,
    _SECTION_KEYS,
    LoadedConfig,
    build_config,
    load_config,
    parse_config,
)
from fdopt.errors import ConfigError
from fdopt.estimators import Queue
from fdopt.representations import RepresentationEnsemble, RepresentationSpec
from fdopt.trainer import FileTarget, MixtureTarget, TrainConfig

ROOT = Path(__file__).resolve().parents[1]

FULL_TEXT = """\
# exercise every section
[trainer]
seed = 3
batch_size = 32          # inline comment
total_steps = 50
warmup_steps = 5
peak_lr = 0.002
beta1 = 0.9
beta2 = 0.99
weight_decay = 0.01
z_dim = 4
hidden = 16, 8
out_dim = 2
pretrain_steps = 7

[estimator]
kind = queue
capacity = 256

[ensemble]
c = 0.02
weights = 1.0, 0.5
rep.0.kind = identity
rep.1.kind = tanh_rf
rep.1.seed = 9
rep.1.out_dim = 6
rep.1.scale = 1.5

[target]
sample_seed = 11
comp.0.weight = 0.25
comp.0.mean = -1.0, 0.0
comp.0.cov = 1.0, 0.0, 0.0, 1.0
comp.1.weight = 0.75
comp.1.mean = 2.0, 1.0
comp.1.cov = 0.5, 0.1, 0.1, 0.4

[source]
sample_seed = 12
comp.0.weight = 1.0
comp.0.mean = 0.0, 0.0
comp.0.cov = 1.0, 0.0, 0.0, 1.0
"""


class TestParse:
    def test_sections_and_comments(self):
        sections = parse_config(FULL_TEXT)
        assert set(sections) == {"trainer", "estimator", "ensemble", "target", "source"}
        assert sections["trainer"]["batch_size"] == "32"
        assert sections["ensemble"]["rep.1.scale"] == "1.5"

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section"):
            parse_config("[optimizer]\nlr = 1\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'betaa'"):
            parse_config("[estimator]\nbetaa = 0.9\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key trainer.seed"):
            parse_config("[trainer]\nseed = 1\nseed = 2\n")

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match=r"duplicate section \[trainer\]"):
            parse_config("[trainer]\n[trainer]\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("seed = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[trainer]\nseed 1\n")

    def test_indexed_keys_validated(self):
        with pytest.raises(ConfigError, match="rep.0.kindd"):
            parse_config("[ensemble]\nrep.0.kindd = identity\n")
        with pytest.raises(ConfigError, match="comp.0.men"):
            parse_config("[target]\ncomp.0.men = 0\n")


class TestBuild:
    def test_full_round_trip(self):
        loaded = build_config(parse_config(FULL_TEXT))
        train = loaded.train
        assert train is not None
        assert (train.seed, train.batch_size, train.total_steps) == (3, 32, 50)
        assert (train.warmup_steps, train.peak_lr) == (5, 0.002)
        assert (train.beta1, train.beta2, train.weight_decay) == (0.9, 0.99, 0.01)
        assert (train.z_dim, train.hidden, train.out_dim) == (4, (16, 8), 2)
        assert train.estimator == Queue(256)
        assert train.warm_start_count == 4096
        assert loaded.pretrain_steps == 7

        ensemble = loaded.ensemble
        assert ensemble.c == 0.02
        assert ensemble.weights == (1.0, 0.5)
        first, second = ensemble.specs
        assert (first.kind, first.in_dim, first.out_dim, first.seed) == (
            "identity",
            2,
            2,
            0,
        )
        assert (second.kind, second.out_dim, second.seed, second.scale) == (
            "tanh_rf",
            6,
            9,
            1.5,
        )

        target = train.target
        assert target.sample_seed == 11
        assert np.array_equal(target.means, [[-1.0, 0.0], [2.0, 1.0]])
        assert np.array_equal(target.weights, [0.25, 0.75])
        assert target.covs[1][0, 1] == 0.1
        assert loaded.source is not None and loaded.source.sample_seed == 12

    def test_defaults_without_trainer_or_target(self):
        loaded = build_config(parse_config("[ensemble]\nrep.0.kind = identity\n"))
        assert loaded.train is None
        assert loaded.source is None
        assert loaded.pretrain_steps == 1000
        spec = loaded.ensemble.specs[0]
        assert (spec.in_dim, spec.out_dim) == (2, 2)  # trainer out_dim default

    def test_in_dim_follows_trainer_out_dim(self):
        text = (
            "[trainer]\nout_dim = 3\n"
            "[ensemble]\nrep.0.kind = identity\nrep.0.seed = 1\n"
        )
        spec = build_config(parse_config(text)).ensemble.specs[0]
        assert (spec.in_dim, spec.out_dim) == (3, 3)

    def test_quadratic_out_dim_defaulted(self):
        text = "[ensemble]\nrep.0.kind = quadratic\n"
        spec = build_config(parse_config(text)).ensemble.specs[0]
        assert spec.out_dim == 2 + 3  # linear part + upper triangle of 2x2

    def test_drawn_kind_requires_out_dim(self):
        text = "[ensemble]\nrep.0.kind = affine\n"
        with pytest.raises(ConfigError, match="ensemble.rep.0.out_dim"):
            build_config(parse_config(text))

    def test_missing_ensemble_section(self):
        with pytest.raises(ConfigError, match=r"\[ensemble\]"):
            build_config(parse_config("[trainer]\nseed = 1\n"))

    def test_rep_indices_must_be_contiguous(self):
        text = "[ensemble]\nrep.0.kind = identity\nrep.2.kind = identity\n"
        with pytest.raises(ConfigError, match="indices must be 0..1"):
            build_config(parse_config(text))

    def test_component_fields_required(self):
        text = (
            "[ensemble]\nrep.0.kind = identity\n"
            "[target]\ncomp.0.weight = 1.0\ncomp.0.mean = 0, 0\n"
        )
        with pytest.raises(ConfigError, match="target.comp.0.cov"):
            build_config(parse_config(text))

    def test_cov_length_checked(self):
        text = (
            "[ensemble]\nrep.0.kind = identity\n"
            "[target]\ncomp.0.weight = 1.0\ncomp.0.mean = 0, 0\n"
            "comp.0.cov = 1, 0, 0\n"
        )
        with pytest.raises(ConfigError, match="needs 4 row-major entries"):
            build_config(parse_config(text))

    def test_file_target(self):
        text = (
            "[ensemble]\nrep.0.kind = identity\n"
            "[target]\nkind = file\npath = /data/rows.bin\n"
        )
        train = build_config(parse_config(text)).train
        assert train.target.path == "/data/rows.bin"

    def test_each_kind_builds_its_own_type(self):
        text = (
            "[ensemble]\nrep.0.kind = identity\n"
            "[target]\nkind = mixture\ncomp.0.weight = 1\ncomp.0.mean = 0, 0\n"
            "comp.0.cov = 1, 0, 0, 1\n"
            "[source]\nkind = file\npath = rows.bin\nsample_seed = 4\n"
        )
        loaded = build_config(parse_config(text))
        assert type(loaded.train.target) is MixtureTarget
        assert loaded.train.target.dim == 2
        assert loaded.source == FileTarget("rows.bin", sample_seed=4)

    def test_component_means_must_share_their_length(self):
        text = FULL_TEXT.replace(
            "comp.1.mean = 2.0, 1.0\ncomp.1.cov = 0.5, 0.1, 0.1, 0.4",
            "comp.1.mean = 2.0, 1.0, 0.0\ncomp.1.cov = 1, 0, 0, 0, 1, 0, 0, 0, 1",
        )
        match = r"^target\.comp\.1\.mean has 3 entries, unlike comp\.0\.mean$"
        with pytest.raises(ConfigError, match=match):
            build_config(parse_config(text))

    def test_mixture_rejects_a_path(self):
        text = FULL_TEXT.replace("[target]\n", "[target]\npath = nowhere.bin\n")
        match = r"^target\.path is not a key of kind mixture$"
        with pytest.raises(ConfigError, match=match):
            build_config(parse_config(text))

    def test_file_rejects_a_component(self):
        text = (
            "[ensemble]\nrep.0.kind = identity\n"
            "[source]\nkind = file\npath = rows.bin\ncomp.0.weight = 1.0\n"
        )
        match = r"^source\.comp\.0\.weight is not a key of kind file$"
        with pytest.raises(ConfigError, match=match):
            build_config(parse_config(text))

    @pytest.mark.parametrize(
        "old, new, key, kind",
        [
            ("capacity = 256", "capacity = 256\nbeta = 0.5", "beta", "queue"),
            ("kind = queue", "kind = ema", "capacity", "ema"),
        ],
        ids=["queue_beta", "ema_capacity"],
    )
    def test_estimator_rejects_a_key_of_the_other_kind(self, old, new, key, kind):
        text = FULL_TEXT.replace(old, new, 1)
        match = rf"^estimator\.{key} is not a key of kind {kind}$"
        with pytest.raises(ConfigError, match=match):
            build_config(parse_config(text))

    def test_file_target_keeps_sample_seed(self):
        # the seed of the with-replacement resampling stream
        text = (
            "[ensemble]\nrep.0.kind = identity\n"
            "[target]\nkind = file\npath = rows.bin\nsample_seed = 7\n"
        )
        assert build_config(parse_config(text)).train.target.sample_seed == 7

    def test_file_target_requires_path(self):
        text = "[ensemble]\nrep.0.kind = identity\n[target]\nkind = file\n"
        with pytest.raises(ConfigError, match="target.path"):
            build_config(parse_config(text))

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="trainer.batch_size: not an integer"):
            build_config(
                parse_config(
                    "[trainer]\nbatch_size = many\n[ensemble]\nrep.0.kind = identity\n"
                    "[target]\ncomp.0.weight = 1\ncomp.0.mean = 0, 0\n"
                    "comp.0.cov = 1, 0, 0, 1\n"
                )
            )

    def test_bad_int_without_target(self):
        # every [trainer] value is parsed, even when no TrainConfig is built
        text = "[trainer]\nbatch_size = many\n[ensemble]\nrep.0.kind = identity\n"
        with pytest.raises(ConfigError, match="trainer.batch_size: not an integer"):
            build_config(parse_config(text))

    def test_bad_float_list(self):
        with pytest.raises(ConfigError, match="ensemble.weights"):
            build_config(
                parse_config(
                    "[ensemble]\nweights = 1, x\nrep.0.kind = identity\n"
                )
            )

    # each entry is read like a scalar integer key, so 64.0 is rejected as
    # z_dim = 8.0 is, and a non-finite value never reaches int()
    @pytest.mark.parametrize("hidden", ["16.5, 8", "64.0", "nan", "inf", "1e400"])
    def test_hidden_must_be_integers(self, hidden):
        with pytest.raises(ConfigError, match=r"^trainer\.hidden: not an integer: '"):
            build_config(
                parse_config(
                    f"[trainer]\nhidden = {hidden}\n[ensemble]\nrep.0.kind = identity\n"
                    "[target]\ncomp.0.weight = 1\ncomp.0.mean = 0, 0\n"
                    "comp.0.cov = 1, 0, 0, 1\n"
                )
            )

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "1e400"])
    def test_float_keys_must_be_finite(self, c):
        text = FULL_TEXT.replace("c = 0.02", f"c = {c}")
        with pytest.raises(ConfigError, match=rf"^ensemble\.c: not a finite number: '{c}'$"):
            build_config(parse_config(text))

    @pytest.mark.parametrize(
        "edits, field",
        [
            ({"beta1 = 0.9": "beta1 = 1.0"}, "beta1"),
            ({"beta1 = 0.9": "beta1 = 1.5"}, "beta1"),
            ({"beta1 = 0.9": "beta1 = -0.1"}, "beta1"),
            ({"beta2 = 0.99": "beta2 = 1"}, "beta2"),
            ({"beta2 = 0.99": "beta2 = nan"}, "beta2"),
            ({"weight_decay = 0.01": "weight_decay = -5"}, "weight_decay"),
            ({"weight_decay = 0.01": "weight_decay = inf"}, "weight_decay"),
            ({"weight_decay = 0.01": "weight_decay = nan"}, "weight_decay"),
            (
                {
                    "kind = queue\ncapacity = 256": "kind = ema",
                    "seed = 3": "seed = 3\nwarm_start_count = 0",
                },
                "warm_start_count",
            ),
            # a queue's N is checked before its capacity
            ({"seed = 3": "seed = 3\nwarm_start_count = 0"}, "warm_start_count"),
            ({"peak_lr = 0.002": "peak_lr = inf"}, "peak_lr"),
            ({"peak_lr = 0.002": "peak_lr = nan"}, "peak_lr"),
            ({"peak_lr = 0.002": "peak_lr = 0"}, "peak_lr"),
            ({"z_dim = 4": "z_dim = 0"}, "z_dim"),
            ({"hidden = 16, 8": "hidden = 16, 0"}, "hidden"),
            # the ensemble's in_dim is the generator's out_dim
            ({"out_dim = 2": "out_dim = 0"}, r"trainer\.out_dim must be >= 1"),
            ({"rep.1.seed = 9": "rep.1.seed = -1"}, r"ensemble\.rep\.1\.seed must"),
            ({"rep.1.out_dim = 6": "rep.1.out_dim = 0"}, r"ensemble\.rep\.1\.out_dim must"),
            ({"c = 0.02": "c = 0"}, r"ensemble\.c must be > 0"),
            # [estimator] keys set TrainConfig fields of other names
            (
                {"kind = queue": "kind = ema\nbeta = 1.5", "capacity = 256\n": ""},
                r"estimator\.beta must lie in \[0, 1\)",
            ),
            ({"kind = queue": "kind = fifo"}, r"estimator\.kind must be ema or queue, got 'fifo'$"),
            (
                {"capacity = 256": "capacity = 2"},
                r"estimator\.capacity must lie in \[batch_size, trainer\.warm_start_count\] = "
                r"\[32, 4096\], got 2$",
            ),
            ({"warmup_steps = 5": "warmup_steps = 51"}, r"trainer\.warmup_steps must lie"),
            # cross-field errors name the field the file sets
            (
                {"rep.0.kind = identity": "rep.0.kind = identity\nrep.0.out_dim = 3"},
                r"ensemble\.rep\.0\.out_dim must equal in_dim 2 for identity, got 3",
            ),
            (
                {
                    "rep.1.kind = tanh_rf": "rep.1.kind = quadratic",
                    "rep.1.out_dim = 6": "rep.1.out_dim = 4",
                },
                r"ensemble\.rep\.1\.out_dim must be 5 for quadratic",
            ),
            ({"weights = 1.0, 0.5": "weights = 1, 1, 1"}, r"ensemble\.weights must number 2"),
            (
                {"out_dim = 2": "out_dim = 3"},
                r"trainer\.out_dim must equal the target dim 2, got 3",
            ),
            # a mixture's errors name its section
            (
                {"comp.0.weight = 1.0": "comp.0.weight = 0.9"},
                r"\[source\] mixture weights must be >= 0 and sum to 1, got sum 0\.9",
            ),
            (
                {
                    "0.0, 0.0\ncomp.0.cov = 1.0, 0.0, 0.0, 1.0":
                    "0.0, 0.0\ncomp.0.cov = 1, 2, 2, 1",
                },
                r"\[source\] component 0 covariance is not PSD",
            ),
            # a queue warm start fills its whole ring from the warm
            # evaluation's warm_start_count rows, 4096 when unset
            (
                {"capacity = 256": "capacity = 4097"},
                r"^estimator\.capacity must lie in \[batch_size, trainer\.warm_start_count\] "
                r"= \[32, 4096\], got 4097$",
            ),
            (
                {"seed = 3": "seed = 3\nwarm_start_count = 255"},
                r"^estimator\.capacity must lie in \[batch_size, trainer\.warm_start_count\] "
                r"= \[32, 255\], got 256$",
            ),
        ],
    )
    def test_out_of_range_values_name_their_field(self, edits, field):
        text = FULL_TEXT
        for old, new in edits.items():
            text = text.replace(old, new, 1)
        with pytest.raises(ConfigError, match=field):
            build_config(parse_config(text))

    def test_range_edges_accepted(self):
        text = FULL_TEXT.replace("beta1 = 0.9", "beta1 = 0").replace(
            "weight_decay = 0.01", "weight_decay = 0"
        ).replace("seed = 3", "seed = 3\nwarm_start_count = 256", 1)
        train = build_config(parse_config(text)).train
        assert (train.beta1, train.weight_decay, train.warm_start_count) == (0.0, 0.0, 256)

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(FULL_TEXT, encoding="utf-8")
        loaded = load_config(str(path))
        assert loaded.train.batch_size == 32


def test_mixture_config_eigendecomposes_each_component_once(monkeypatch):
    # the PSD check and the sampling root share one eigendecomposition
    eigh = np.linalg.eigh
    shapes = []

    def counting_eigh(a):
        shapes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    path = ROOT / "configs" / "mixture.cfg"
    loaded = load_config(str(path))
    components = len(loaded.train.target.weights) + len(loaded.source.weights)
    assert components == 3
    assert shapes == [(2, 2)] * components


def _default(cls, name):
    return next(f.default for f in fields(cls) if f.name == name)


def test_each_default_has_one_owner():
    # a key the file leaves out takes the default of the field it sets
    text = (
        "[ensemble]\nrep.0.kind = tanh_rf\nrep.0.out_dim = 3\n"
        "[target]\ncomp.0.weight = 1\ncomp.0.mean = 0, 0\ncomp.0.cov = 1, 0, 0, 1\n"
    )
    loaded = build_config(parse_config(text))
    train = loaded.train
    want = TrainConfig(ensemble=train.ensemble, target=train.target)
    for field in fields(TrainConfig):
        assert getattr(train, field.name) == getattr(want, field.name), field.name
    assert loaded.ensemble.c == _default(RepresentationEnsemble, "c")
    assert loaded.ensemble.specs[0].scale == _default(RepresentationSpec, "scale")
    assert train.target.sample_seed == _default(MixtureTarget, "sample_seed")
    assert loaded.pretrain_steps == _default(LoadedConfig, "pretrain_steps")


def test_accepted_keys_per_section():
    assert _SECTION_KEYS == {
        "trainer": {
            "seed", "batch_size", "total_steps", "warmup_steps", "peak_lr",
            "beta1", "beta2", "weight_decay", "warm_start_count", "z_dim",
            "hidden", "out_dim", "pretrain_steps",
        },
        "estimator": {"kind", "beta", "capacity"},
        "ensemble": {"c", "weights"},
        "target": {"kind", "sample_seed", "path"},
        "source": {"kind", "sample_seed", "path"},
    }
    # each kind's own keys; a mixture also takes comp.N.weight/mean/cov
    assert (set(_EMA), set(_QUEUE)) == ({"beta"}, {"capacity"})
    assert set(_MIXTURE) == {"sample_seed"}
    assert set(_FILE) == {"path", "sample_seed"}
    for field in ("kind", "seed", "out_dim", "scale"):
        parse_config(f"[ensemble]\nrep.3.{field} = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'rep.0.in_dim'"):
        parse_config("[ensemble]\nrep.0.in_dim = 2\n")


def test_readme_config_example_builds():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    loaded = build_config(parse_config(example))
    assert loaded.train.total_steps == 5000
    assert loaded.pretrain_steps == 1500
