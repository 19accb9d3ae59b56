"""Per-layer tracing of fdopt from outside the package.

Each traced function is replaced, in its defining module and in every
fdopt module that imported it, by a wrapper that records a span (name,
start, end, parent, extra). Originals are captured once, before any module
is patched, so a call is recorded once however many modules re-export the
function. Spans stay in memory as columns; ``save`` writes them out and
``metric`` derives from them the aggregates the benchmark reports:

    <span>.calls                 calls
    <span>.self_ms               duration minus the time child spans cover
    <span>.bytes                 bytes of the file read or written (formats)
    symlin.eig_sym.ms_per_call.d<k>   inclusive time per call at dimension k

``extra`` holds the file size of a formats span and the dimension of an
eig_sym span. A function the program no longer defines is skipped and reads
as 0.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "fdopt"
# (module, attribute) pairs; "Class.method" wraps a method on the class.
FUNCTIONS = (
    ("symlin", "eig_sym"),
    ("symlin", "check_symmetric"),
    ("symlin", "sqrt_psd"),
    ("symlin", "trace_sqrt_product"),
    ("frechet", "fd_with_grad"),
    ("frechet", "fd"),
    ("frechet", "stats_from_features"),
    ("frechet", "make_reference"),
    ("estimators", "ema_batch_moments"),
    ("estimators", "ema_blend"),
    ("estimators", "ema_commit"),
    ("estimators", "estimator_backprop"),
    ("estimators", "warm_start"),
    ("estimators", "queue_stats_with_batch"),
    ("estimators", "queue_commit"),
    ("representations", "featurize"),
    ("representations", "featurize_backprop"),
    ("representations", "ensemble_loss"),
    ("trainer", "generate"),
    ("trainer", "generator_backprop"),
    ("trainer", "optimizer_step"),
    ("trainer", "post_train"),
    ("trainer", "sample_target"),
    ("trainer", "pretrain_regression"),
    ("rng", "SplitMix64.normal_matrix"),
    ("formats", "read_features"),
    ("formats", "write_features"),
    ("formats", "read_stats"),
    ("formats", "write_stats"),
    ("formats", "read_checkpoint"),
    ("formats", "write_checkpoint"),
    ("formats", "write_metrics_log"),
    ("formats", "write_report_csv"),
    ("metrics", "build_report"),
    ("config", "load_config"),
)
# GaussianStats validates in __post_init__; its span counts constructions.
CONSTRUCTORS = (("frechet", "GaussianStats"),)
# cli_dispatch spans are named after the subcommand: cli.<argv[0]>.
DISPATCH = ("cli", "cli_dispatch")
SUBCOMMANDS = ("compute-stats", "fd", "fdr", "pretrain", "sample")  # those the workloads run

_PATH_ARG = {"write_report_csv": 1}


def span_names() -> set[str]:
    names = {f"{module}.{attr}" for module, attr in FUNCTIONS}
    names |= {f"{module}.{cls}" for module, cls in CONSTRUCTORS}
    names |= {f"{DISPATCH[0]}.{sub}" for sub in SUBCOMMANDS}
    return names


def _dimension(args) -> int:
    return int(np.shape(args[0])[0])


def _file_size(path_arg: int):
    def measure(args) -> int:
        path = args[path_arg]
        return os.path.getsize(path) if os.path.exists(path) else 0

    return measure


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.extra_col = array("q")
        self._stack: list[int] = []  # indices of the open spans
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.end_col.append(0)
        self.extra_col.append(0)
        self._stack.append(len(self.name_col) - 1)
        self.start_col.append(time.perf_counter_ns())

    def _close(self) -> int:
        self.end_col[self._stack[-1]] = time.perf_counter_ns()
        return self._stack.pop()

    def _wrap(self, fn, name: str, attr: str):
        """A wrapper recording one span per call; measure(args) fills extra."""
        if attr == "eig_sym":
            measure = _dimension
        elif name.startswith("formats."):
            measure = _file_size(_PATH_ARG.get(attr, 0))
        else:
            measure = None

        if attr == DISPATCH[1]:

            def wrapper(argv, *args, **kwargs):
                argv = list(argv)
                self._open(f"{DISPATCH[0]}.{argv[0] if argv else ''}")
                try:
                    return fn(argv, *args, **kwargs)
                finally:
                    self._close()

        else:

            def wrapper(*args, **kwargs):
                self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    index = self._close()
                    if measure is not None:
                        self.extra_col[index] = measure(args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function; undo with ``uninstall``."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        plan = []  # (original, wrapper) captured before anything is patched
        for module_name, attr in FUNCTIONS + (DISPATCH,):
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(original, f"{module_name}.{attr}", method)
            if owner_name:
                self._patch(owner, method, wrapper)
            else:
                plan.append((original, wrapper))
        for module_name, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), cls_name, None)
            post_init = getattr(cls, "__post_init__", None)
            if post_init is not None:
                name = f"{module_name}.{cls_name}"
                self._patch(cls, "__post_init__", self._wrap(post_init, name, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                for original, wrapper in plan:
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def _columns(self):
        """name id, duration ns, self ns and extra per span, as arrays."""
        name = np.frombuffer(self.name_col, dtype=np.int64)
        duration = (np.frombuffer(self.end_col, dtype=np.int64)
                    - np.frombuffer(self.start_col, dtype=np.int64))
        parent = np.frombuffer(self.parent_col, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        return name, duration, duration - child, np.frombuffer(self.extra_col, dtype=np.int64)

    def metric(self, name: str) -> float:
        span, sep, dim = name.partition(".ms_per_call.d")
        if not sep:
            span, _, quantity = name.rpartition(".")
        if span not in span_names():
            raise KeyError(f"{name}: {span} is not a traced span")
        ids, duration, self_ns, extra = self._columns()
        mine = ids == self._ids.get(span, -1)
        if sep:
            at_dim = mine & (extra == int(dim))
            return float(duration[at_dim].mean()) / 1e6 if at_dim.any() else 0.0
        if quantity == "calls":
            return int(mine.sum())
        if quantity == "self_ms":
            return float(self_ns[mine].sum()) / 1e6
        if quantity == "bytes":
            return int(extra[mine].sum())
        raise KeyError(f"{name}: unknown quantity {quantity!r}")

    def save(self, path) -> None:
        """Spans as columns: names[name], start/end ns, parent row (-1 = root),
        extra (file bytes or eig_sym dimension, else 0)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int64),
            start_ns=np.frombuffer(self.start_col, dtype=np.int64),
            end_ns=np.frombuffer(self.end_col, dtype=np.int64),
            parent=np.frombuffer(self.parent_col, dtype=np.int64),
            extra=np.frombuffer(self.extra_col, dtype=np.int64),
        )
