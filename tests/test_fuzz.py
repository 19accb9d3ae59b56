"""Malformed inputs end in a documented error: a config either builds or
raises a ConfigError, and each file reader either returns or raises a
DataError that names the file."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdopt import formats
from fdopt.config import build_config, parse_config
from fdopt.errors import ConfigError, DataError
from fdopt.estimators import Ema, Queue
from fdopt.frechet import GaussianStats
from fdopt.rng import SplitMix64
from fdopt.trainer import GeneratorModel

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = {
    name: (ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
    for name in ("decoupling", "mixture")
}
VALUES = ["nan", "inf", "1e400", ""]


def _key_lines(text: str) -> list[str]:
    """The config's lines without comments, blank lines dropped."""
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]


def _edit(lines: list[str], old: str, new: str) -> str:
    return "\n".join(new if line == old else line for line in lines) + "\n"


@st.composite
def mutated_configs(draw) -> str:
    """A bundled config after one to three token edits: a key line dropped,
    duplicated, or its key swapped with another line's, or a value replaced
    by a non-finite, huge or empty one, or by a list one entry longer or
    shorter."""
    lines = _key_lines(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    for _ in range(draw(st.integers(1, 3))):
        keyed = [i for i, line in enumerate(lines) if "=" in line]
        i = draw(st.sampled_from(keyed))
        key, value = (part.strip() for part in lines[i].split("=", 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "value", "length"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.sampled_from(keyed))
            other, other_value = (part.strip() for part in lines[j].split("=", 1))
            lines[i], lines[j] = f"{other} = {value}", f"{key} = {other_value}"
        elif op == "value":
            lines[i] = f"{key} = {draw(st.sampled_from(VALUES))}"
        else:
            entries = value.split(",")
            entries = entries[:-1] if draw(st.booleans()) else entries + entries[:1]
            lines[i] = f"{key} = {','.join(entries)}"
    return "\n".join(lines) + "\n"


MIXTURE = _key_lines(BUNDLED["mixture"])


def _check_populations(sections, loaded) -> None:
    """A [target]/[source], and the [estimator] of a run, that builds holds
    every key it sets."""
    train, estimator = loaded.train, sections.get("estimator", {})
    if train and "beta" in estimator:
        assert train.estimator == Ema(float(estimator["beta"]))
    if train and "capacity" in estimator:
        assert train.estimator == Queue(int(estimator["capacity"]))
    built = {"target": train and train.target, "source": loaded.source}
    for name, population in built.items():
        section = sections.get(name, {})
        if "path" in section:
            assert population.path == section["path"]
        comps = {key.split(".")[1] for key in section if key.startswith("comp.")}
        if comps:
            assert len(population.weights) == len(comps)


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
# component means of two lengths
@example(_edit(MIXTURE, "comp.1.mean = 2.5, 1.0", "comp.1.mean = 2.5, 1.0, 0.0"))
# a mixture [target] given a file's path
@example(_edit(MIXTURE, "[target]", "[target]\npath = nowhere.bin"))
@example(_edit(MIXTURE, "hidden = 64, 64", "hidden = nan"))
# a key of the other estimator kind, and a non-finite float
@example(_edit(MIXTURE, "beta = 0.999", "capacity = 3"))
@example(_edit(MIXTURE, "kind = ema", "kind = queue").replace("0.999", "0.5"))
@example(_edit(MIXTURE, "comp.0.mean = -2.0, 0.0", "comp.0.mean = nan, 0.0"))
def test_config_builds_or_raises_a_config_error(text):
    try:
        sections = parse_config(text)
        loaded = build_config(sections)
    except ConfigError:
        return
    _check_populations(sections, loaded)


def _small_files(directory: Path) -> dict:
    """One small valid file of each format, and its reader."""
    rows = SplitMix64(3).normal_matrix(6, 3)
    model = GeneratorModel.init((2, 3, 2), seed=1)
    stats = GaussianStats(mu=rows.mean(axis=0), sigma=np.cov(rows.T), weight=6.0)
    log_rows = [("warm_start", 0, 0.0, 1.5, 0.25), ("train", 0, 1e-3, 1.25, 0.5)]
    writers = {
        "features.bin": (lambda p: formats.write_features(p, rows), formats.read_features),
        "gen.stats": (lambda p: formats.write_stats(p, stats), formats.read_stats),
        "model.ckpt": (
            lambda p: formats.write_checkpoint(p, model.weights, model.biases),
            formats.read_checkpoint,
        ),
        "log.csv": (
            lambda p: formats.write_metrics_log(p, ("rep0_identity",), log_rows),
            formats.read_metrics_log,
        ),
    }
    files = {}
    for name, (write, read) in writers.items():
        path = directory / name
        write(str(path))
        files[name] = (path.read_bytes(), read)
    return files


@st.composite
def byte_edits(draw, size: int) -> list:
    """One to three edits (flip, delete, insert or truncate at a position)."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        at = draw(st.integers(0, size))
        extra = draw(st.binary(min_size=1, max_size=8))
        edits.append((op, at, extra))
    return edits


def _apply(payload: bytes, edits) -> bytes:
    data = bytearray(payload)
    for op, at, extra in edits:
        at = min(at, len(data))
        if op == "flip" and at < len(data):
            data[at] ^= extra[0] or 0xFF
        elif op == "delete":
            del data[at : at + len(extra)]
        elif op == "insert":
            data[at:at] = extra
        elif op == "truncate":
            del data[at:]
    return bytes(data)


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    return directory, _small_files(directory)


@pytest.mark.parametrize("name", ["features.bin", "gen.stats", "model.ckpt", "log.csv"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_returns_or_names_the_file(small_files, name, data):
    directory, files = small_files
    payload, read = files[name]
    path = directory / f"mutated-{name}"
    path.write_bytes(_apply(payload, data.draw(byte_edits(len(payload)))))
    try:
        read(str(path))
    except DataError as exc:
        assert str(path) in str(exc)
