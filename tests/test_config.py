"""Config file parsing: sections, typed keys, indexed reps/components."""

from pathlib import Path

import numpy as np
import pytest

from fdopt.config import build_config, load_config, parse_config
from fdopt.errors import ConfigError

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
beta = 0.95
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
        assert (train.estimator, train.ema_beta, train.queue_capacity) == (
            "queue",
            0.95,
            256,
        )
        assert train.warm_start_count is None
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

    def test_bad_float_list(self):
        with pytest.raises(ConfigError, match="ensemble.weights"):
            build_config(
                parse_config(
                    "[ensemble]\nweights = 1, x\nrep.0.kind = identity\n"
                )
            )

    def test_hidden_must_be_integers(self):
        with pytest.raises(ConfigError, match="trainer.hidden"):
            build_config(
                parse_config(
                    "[trainer]\nhidden = 16.5, 8\n[ensemble]\nrep.0.kind = identity\n"
                    "[target]\ncomp.0.weight = 1\ncomp.0.mean = 0, 0\n"
                    "comp.0.cov = 1, 0, 0, 1\n"
                )
            )

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
    path = Path(__file__).resolve().parents[1] / "configs" / "mixture.cfg"
    loaded = load_config(str(path))
    components = len(loaded.train.target.weights) + len(loaded.source.weights)
    assert components == 3
    assert shapes == [(2, 2)] * components
