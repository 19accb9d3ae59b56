"""Plain-text run configuration.

Syntax: `[section]` headers, `key = value` lines, `#` starts a comment
anywhere on a line. Sections: [trainer], [estimator], [ensemble],
[target], and optionally [source] (a second population for regression
pretraining). Representations are indexed entries (rep.0.kind, ...) inside
[ensemble]. [estimator], [target] and [source] take the keys of the kind
their `kind` names: an EMA (the default; beta) or a queue (capacity); a
mixture (the default) of indexed components (comp.0.weight, comp.0.mean,
comp.0.cov row-major, ...) or a features file (path).

Unknown sections or keys, a key of the other kind included, are rejected
rather than ignored, so a typo in beta/capacity/c cannot silently change a
run. Each section has one table mapping its keys to (dataclass field,
parser; a list's entries are each parsed like a scalar). Every key the file
sets is parsed and passed on, so an omitted key takes its field's default
and each range check lives on the dataclass. Every value is a pure function
of the file text; representation in_dim always equals the generator's
out_dim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .estimators import Ema, Queue
from .formats import read_text
from .representations import (
    RepresentationEnsemble,
    RepresentationSpec,
    quadratic_out_dim,
)
from .trainer import FileTarget, MixtureTarget, TrainConfig

__all__ = ["LoadedConfig", "parse_config", "load_config", "build_config"]


def _int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: not an integer: {raw!r}") from None


def _float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: not a number: {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{where}: not a finite number: {raw!r}")
    return value


def _str(raw: str, where: str) -> str:
    return raw


def _list(parse):
    """A parser of comma-separated entries, each read by parse."""
    def parse_list(raw: str, where: str) -> tuple:
        parts = raw.split(",") if raw.strip() else []
        return tuple(parse(part.strip(), where) for part in parts)
    return parse_list


# key -> (field of the dataclass the key sets, parser)
_TRAINER = {
    "seed": ("seed", _int),
    "batch_size": ("batch_size", _int),
    "total_steps": ("total_steps", _int),
    "warmup_steps": ("warmup_steps", _int),
    "peak_lr": ("peak_lr", _float),
    "beta1": ("beta1", _float),
    "beta2": ("beta2", _float),
    "weight_decay": ("weight_decay", _float),
    "warm_start_count": ("warm_start_count", _int),
    "z_dim": ("z_dim", _int),
    "hidden": ("hidden", _list(_int)),
    "out_dim": ("out_dim", _int),
}
_PRETRAIN = {"pretrain_steps": ("pretrain_steps", _int)}  # [trainer], LoadedConfig
# an [estimator] of each kind
_EMA = {"beta": ("beta", _float)}
_QUEUE = {"capacity": ("capacity", _int)}
_ENSEMBLE = {"c": ("c", _float), "weights": ("weights", _list(_float))}
_REP = {
    "kind": ("kind", _str),
    "seed": ("seed", _int),
    "out_dim": ("out_dim", _int),
    "scale": ("scale", _float),
}
# a [target] or [source] of each kind; a mixture also has comp.N.* keys
_MIXTURE = {"sample_seed": ("sample_seed", _int)}
_FILE = {"path": ("path", _str), "sample_seed": ("sample_seed", _int)}

_SECTION_KEYS = {
    "trainer": {*_TRAINER, *_PRETRAIN},
    "estimator": {"kind", *_EMA, *_QUEUE},
    "ensemble": set(_ENSEMBLE),
    "target": {"kind", *_MIXTURE, *_FILE},
    "source": {"kind", *_MIXTURE, *_FILE},
}
_REP_KEY = re.compile(rf"^rep\.(\d+)\.({'|'.join(_REP)})$")
_COMP_KEY = re.compile(r"^comp\.(\d+)\.(weight|mean|cov)$")


def _fields(section: dict, table: dict, where: str) -> dict:
    """{field: parsed value} for the keys of `table` that `section` sets."""
    return {
        field: parse(section[key], where + key)
        for key, (field, parse) in table.items()
        if key in section
    }


def _keys(table: dict, where: str) -> dict:
    """{field: the key that sets it, where + key} for one key table."""
    return {field: where + key for key, (field, _) in table.items()}


def _construct(cls, keys: dict, **fields):
    """cls(**fields); a range error, which begins with the field it rejects, is
    raised again naming that field's key in keys."""
    try:
        return cls(**fields)
    except DataError as exc:
        field, _, rest = str(exc).partition(" ")
        if field not in keys:
            raise
        raise ConfigError(f"{keys[field]} {rest}") from None


def parse_config(text: str) -> dict[str, dict[str, str]]:
    """Text -> {section: {key: raw value}}, validating shape only."""
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTION_KEYS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{current}]; expected one "
                    f"of {sorted(_SECTION_KEYS)}"
                )
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {current}.{key}")
        _check_key(current, key, lineno)
        sections[current][key] = value
    return sections


def _check_key(section: str, key: str, lineno: int) -> None:
    if key in _SECTION_KEYS[section]:
        return
    if section == "ensemble" and _REP_KEY.match(key):
        return
    if section in ("target", "source") and _COMP_KEY.match(key):
        return
    raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")


def _indexed(section: dict, pattern: re.Pattern, what: str):
    """Collect {index: {field: value}}, requiring indices 0..K-1."""
    groups: dict[int, dict[str, str]] = {}
    for key, value in section.items():
        match = pattern.match(key)
        if match:
            groups.setdefault(int(match.group(1)), {})[match.group(2)] = value
    if not groups:
        raise ConfigError(f"no {what} entries found")
    want = set(range(len(groups)))
    if set(groups) != want:
        raise ConfigError(
            f"{what} indices must be 0..{len(groups) - 1}, got {sorted(groups)}"
        )
    return [groups[i] for i in range(len(groups))]


def _build_ensemble(section: dict, in_dim: int) -> RepresentationEnsemble:
    out_dims = {"identity": in_dim, "quadratic": quadratic_out_dim(in_dim)}
    specs = []
    for i, raw in enumerate(_indexed(section, _REP_KEY, "rep.N.*")):
        where = f"ensemble.rep.{i}."
        rep = _fields(raw, _REP, where)
        if "kind" not in rep:
            raise ConfigError(f"missing required key {where}kind")
        if "out_dim" not in rep and rep["kind"] not in out_dims:
            raise ConfigError(f"missing required key {where}out_dim")
        rep = {"seed": 0, "out_dim": out_dims.get(rep["kind"]), **rep}
        # the ensemble's in_dim is the generator's out_dim
        keys = _keys(_REP, where) | {"in_dim": "trainer.out_dim"}
        specs.append(_construct(RepresentationSpec, keys, in_dim=in_dim, **rep))
    ensemble = _fields(section, _ENSEMBLE, "ensemble.")
    keys = _keys(_ENSEMBLE, "ensemble.")
    return _construct(RepresentationEnsemble, keys, specs=tuple(specs), **ensemble)


def _kind_table(section: dict, name: str, tables: dict) -> dict:
    """The key table in tables of the section's `kind` (the first when unset).
    A key of another kind is a ConfigError naming it; a mixture also has comp.N.*."""
    kind = section.get("kind", next(iter(tables)))
    if kind not in tables:
        raise ConfigError(f"{name}.kind must be {' or '.join(tables)}, got {kind!r}")
    for key in section:
        if key not in tables[kind] and key != "kind" and not (
            tables[kind] is _MIXTURE and _COMP_KEY.match(key)
        ):
            raise ConfigError(f"{name}.{key} is not a key of kind {kind}")
    return tables[kind]


def _build_target(section: dict, name: str) -> MixtureTarget | FileTarget:
    """The section's population, of its kind; a mixture's errors name the section."""
    table = _kind_table(section, name, {"mixture": _MIXTURE, "file": _FILE})
    fields = _fields(section, table, f"{name}.")
    if table is _FILE:
        if "path" not in fields:
            raise ConfigError(f"missing required key {name}.path")
        return FileTarget(**fields)
    means, covs, weights = [], [], []
    for i, comp in enumerate(_indexed(section, _COMP_KEY, f"{name} comp.N.*")):
        where = f"{name}.comp.{i}."
        for field in ("weight", "mean", "cov"):
            if field not in comp:
                raise ConfigError(f"missing required key {where}{field}")
        mean = _list(_float)(comp["mean"], where + "mean")
        cov = _list(_float)(comp["cov"], where + "cov")
        d = len(mean)
        if means and d != len(means[0]):
            raise ConfigError(f"{where}mean has {d} entries, unlike comp.0.mean")
        if len(cov) != d * d:
            raise ConfigError(
                f"{where}cov needs {d * d} row-major entries for a {d}-dim "
                f"mean, got {len(cov)}"
            )
        means.append(mean)
        covs.append(np.array(cov).reshape(d, d))
        weights.append(_float(comp["weight"], where + "weight"))
    try:
        return MixtureTarget(np.array(means), np.array(covs), np.array(weights), **fields)
    except DataError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


@dataclass(frozen=True)
class LoadedConfig:
    ensemble: RepresentationEnsemble
    train: TrainConfig | None
    source: MixtureTarget | FileTarget | None
    pretrain_steps: int = 1000


def build_config(sections: dict[str, dict[str, str]]) -> LoadedConfig:
    trainer = sections.get("trainer", {})
    estimator = sections.get("estimator", {})
    table = _kind_table(estimator, "estimator", {"ema": _EMA, "queue": _QUEUE})
    train_fields = _fields(trainer, _TRAINER, "trainer.")
    kind = Ema if table is _EMA else Queue
    kind_fields = _fields(estimator, table, "estimator.")
    if "ensemble" not in sections:
        raise ConfigError("missing required section [ensemble]")
    in_dim = train_fields.get("out_dim", TrainConfig.out_dim)
    ensemble = _build_ensemble(sections["ensemble"], in_dim)
    source = None
    if "source" in sections:
        source = _build_target(sections["source"], "source")
    train = None
    if "target" in sections:
        train = _construct(
            TrainConfig,
            _keys(_TRAINER, "trainer."),
            ensemble=ensemble,
            target=_build_target(sections["target"], "target"),
            estimator=_construct(kind, _keys(table, "estimator."), **kind_fields),
            **train_fields,
        )
    return LoadedConfig(
        ensemble=ensemble,
        train=train,
        source=source,
        **_fields(trainer, _PRETRAIN, "trainer."),
    )


def load_config(path: str) -> LoadedConfig:
    return build_config(parse_config(read_text(path, ConfigError)))
