"""Binary file formats, CSV report/log schemas, and atomic writes.

Formats (all little-endian):

    features   "FDF1" | u32 n | u32 d | n*d f32, row-major
    stats      "FDS1" | u32 d | f64 weight | d f64 mean | d*d f64 cov, row-major
    checkpoint "FDC1" | u32 L | L x (u32 in, u32 out) | theta: f64 W0
               (out x in, row-major), b0 (out), W1, b1, ...

Feature payloads are 32-bit (bulk dumps), written and read one BLOCK_ROWS
block at a time and upcast to float64 on load; statistics and parameters
are 64-bit (numerically sensitive). A checkpoint's payload is the
generator's flat parameter vector theta, which read_checkpoint checks
and returns whole. Every writer goes through a temp file in the
destination directory, then os.replace: no reader sees a partial file.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile

import numpy as np

from .errors import (
    BadMagicError,
    DataError,
    NonFiniteDataError,
    NumericalError,
    TruncatedFileError,
)
from .frechet import BLOCK_ROWS, GaussianStats, check_rows, row_blocks

FEATURES_MAGIC = b"FDF1"
FEATURES_MAX_ROWS = 2**32 - 1  # the header's u32 row count
STATS_MAGIC = b"FDS1"
CHECKPOINT_MAGIC = b"FDC1"


def atomic_write_bytes(path: str, payload: bytes) -> None:
    atomic_write_chunks(path, (payload,))


def atomic_write_chunks(path: str, chunks) -> None:
    """atomic_write_bytes of the bytes-like chunks, written as they arrive."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


class _Reader:
    """Byte cursor with truncation errors that name expected vs actual."""

    def __init__(self, payload: bytes, path: str, size: int | None = None):
        self.payload = payload  # the file's first bytes, or all of them
        self.path = path
        self.size = len(payload) if size is None else size  # bytes in the file
        self.pos = 0

    def skip(self, count: int, what: str) -> int:
        """Moves past count bytes, checking only that the file holds them;
        returns where they start."""
        start, end = self.pos, self.pos + count
        if end > self.size:
            raise TruncatedFileError(
                f"{self.path}: truncated while reading {what}: expected "
                f"{end} bytes, file has {self.size}"
            )
        self.pos = end
        return start

    def take(self, count: int, what: str) -> bytes:
        return self.payload[self.skip(count, what) : self.pos]

    def expect_magic(self, magic: bytes) -> None:
        got = self.payload[:4]
        if got != magic:
            raise BadMagicError(
                f"{self.path}: expected magic {magic.decode('ascii')}, "
                f"got {got!r}"
            )
        self.pos = 4

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self.take(8, what))[0]

    def array(self, count: int, dtype: str, what: str) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(count * itemsize, what), dtype=dtype).copy()

    def expect_end(self) -> None:
        extra = self.size - self.pos
        if extra:
            raise DataError(f"{self.path}: {extra} unexpected trailing bytes")


def read_text(path: str, error=DataError) -> str:
    """A file's UTF-8 text; bytes that do not decode raise error naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def write_features(path: str, rows: np.ndarray) -> None:
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
        raise DataError(f"features must be n x d with n, d >= 1, got {rows.shape}")
    write_feature_blocks(path, rows.shape, row_blocks(rows))


def write_feature_blocks(path: str, shape: tuple[int, int], blocks) -> None:
    """Write the header, then each of the blocks that hold the n x d rows as
    float32, as it arrives; a non-finite block leaves no file."""

    def chunks():
        yield FEATURES_MAGIC + struct.pack("<II", *shape)
        for block in blocks:
            if not np.isfinite(block).all():
                raise NonFiniteDataError("refusing to write non-finite features")
            yield np.ascontiguousarray(block, dtype="<f4")

    atomic_write_chunks(path, chunks())


def read_features(path: str) -> np.ndarray:
    return np.concatenate(list(read_feature_blocks([path])))


def read_feature_blocks(paths):
    """The rows of one or more features files, read as one split: float64
    blocks of BLOCK_ROWS rows (the last may be shorter) that run across file
    boundaries. Every header and file size is checked here, before any
    payload is read; a non-finite row is named by its index in the split.
    Each file is opened once, so a file replaced after its header was
    checked is still read whole, and one truncated in place raises
    TruncatedFileError; the handles close with the split."""
    blocks = _split_blocks(paths)
    next(blocks)  # the headers are checked
    return blocks


def _split_blocks(paths):
    with contextlib.ExitStack() as stack:
        headers = []
        for path in paths:
            handle = stack.enter_context(open(path, "rb"))
            size = os.fstat(handle.fileno()).st_size
            reader = _Reader(handle.read(12), path, size)
            reader.expect_magic(FEATURES_MAGIC)
            n, d = reader.u32("row count"), reader.u32("column count")
            if n < 1 or d < 1:
                raise DataError(f"{path}: header declares empty matrix {n} x {d}")
            reader.skip(4 * n * d, f"{n}x{d} feature payload")
            reader.expect_end()
            headers.append((path, handle, n, d))
        dims = sorted({d for _, _, _, d in headers})
        if len(dims) > 1:
            raise DataError(f"feature files disagree on dimension: {dims}")
        yield

        name, total = ", ".join(paths), sum(n for _, _, n, _ in headers)
        pieces, count, first = [], 0, 0
        for path, handle, n, d in headers:
            expected = 12 + 4 * n * d
            while n:
                take = min(BLOCK_ROWS - count, n)
                chunk = handle.read(4 * take * d)
                if len(chunk) < 4 * take * d:
                    # the file shrank after its header and size were checked
                    raise TruncatedFileError(
                        f"{path}: truncated while reading its feature payload: "
                        f"expected {expected} bytes, file has {handle.tell()}"
                    )
                pieces.append(np.frombuffer(chunk, dtype="<f4").reshape(take, d))
                count, n = count + take, n - take
                if count == BLOCK_ROWS or first + count == total:
                    block = np.concatenate(pieces, dtype=np.float64)
                    yield check_rows(block, name, first=first)
                    pieces, count, first = [], 0, first + count


def write_stats(path: str, stats: GaussianStats) -> None:
    d = stats.dim
    payload = STATS_MAGIC + struct.pack("<I", d) + struct.pack("<d", stats.weight)
    payload += np.ascontiguousarray(stats.mu, dtype="<f8").tobytes()
    payload += np.ascontiguousarray(stats.sigma, dtype="<f8").tobytes()
    atomic_write_bytes(path, payload)


def read_stats(path: str) -> GaussianStats:
    with open(path, "rb") as handle:
        reader = _Reader(handle.read(), path)
    reader.expect_magic(STATS_MAGIC)
    d = reader.u32("dimension")
    if d < 1:
        raise DataError(f"{path}: header declares dimension 0")
    weight = reader.f64("weight")
    mu = reader.array(d, "<f8", f"{d}-entry mean")
    sigma = reader.array(d * d, "<f8", f"{d}x{d} covariance").reshape(d, d)
    reader.expect_end()
    try:
        return GaussianStats(mu=mu, sigma=sigma, weight=weight)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def write_checkpoint(path: str, weights, biases) -> None:
    if len(weights) != len(biases) or not weights:
        raise DataError("checkpoint needs matching, nonempty weight/bias lists")
    header = CHECKPOINT_MAGIC + struct.pack("<I", len(weights))
    params = []
    prev_out = None
    for w, b in zip(weights, biases):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise DataError(
                f"layer shapes inconsistent: W {w.shape} vs b {b.shape}"
            )
        out_dim, in_dim = w.shape
        if prev_out is not None and in_dim != prev_out:
            raise DataError(
                f"layer dims do not chain: previous out {prev_out}, next in {in_dim}"
            )
        prev_out = out_dim
        header += struct.pack("<II", in_dim, out_dim)
        params += [w.ravel(), b]
    atomic_write_chunks(path, (header, np.concatenate(params, dtype="<f8")))


def read_checkpoint(path: str):
    """Returns (layer_dims, theta): the generator's widths (z_dim, hidden...,
    out_dim) and its parameters, the payload read as one float64 vector
    laid out W0, b0, W1, b1, ... with each W out x in, row-major. This is
    the one check of a loaded model: its layers chain, and every parameter
    is finite."""
    with open(path, "rb") as handle:
        reader = _Reader(handle.read(), path)
    reader.expect_magic(CHECKPOINT_MAGIC)
    count = reader.u32("layer count")
    if count < 1:
        raise DataError(f"{path}: checkpoint declares zero layers")
    dims = [
        (reader.u32(f"layer {i} in dim"), reader.u32(f"layer {i} out dim"))
        for i in range(count)
    ]
    for i in range(1, count):
        if dims[i][0] != dims[i - 1][1]:
            raise DataError(
                f"{path}: layer dims do not chain: layer {i - 1} out "
                f"{dims[i - 1][1]} vs layer {i} in {dims[i][0]}"
            )
    start = reader.pos
    for i, (in_dim, out_dim) in enumerate(dims):
        if in_dim < 1 or out_dim < 1:
            raise DataError(f"{path}: layer {i} has zero dimension")
        reader.skip(8 * out_dim * in_dim, f"layer {i} weights")
        reader.skip(8 * out_dim, f"layer {i} biases")
    reader.expect_end()
    theta = np.frombuffer(reader.payload, "<f8", offset=start).astype(np.float64)
    finite = np.isfinite(theta)
    if not finite.all():
        ends = np.cumsum([(in_dim + 1) * out_dim for in_dim, out_dim in dims])
        layer = np.searchsorted(ends, np.argmin(finite), side="right")
        raise NonFiniteDataError(f"{path}: layer {layer} has non-finite parameters")
    return (dims[0][0],) + tuple(out_dim for _, out_dim in dims), theta


def format_sig9(value: float) -> str:
    return "%.9g" % value


def write_report_csv(report, path: str) -> None:
    """rep,fd_gen,fd_val,fdr rows plus a final FDRK aggregate row.

    Values use 9 significant digits and LF line endings. I/O failures are
    reported as numerical-failure-class errors per the CLI exit-code table.
    """
    lines = ["rep,fd_gen,fd_val,fdr"]
    for row in report.rows:
        lines.append(
            f"{row.name},{format_sig9(row.fd_gen)},{format_sig9(row.fd_val)},"
            f"{format_sig9(row.ratio)}"
        )
    lines.append(f"FDRK,,,{format_sig9(report.fdr_k)}")
    try:
        atomic_write_text(path, "\n".join(lines) + "\n")
    except OSError as exc:
        raise NumericalError(f"failed writing report to {path}: {exc}") from exc


def metrics_log_text(labels, rows) -> str:
    """CSV text for a training log.

    labels are the per-representation column suffixes; each row is
    (phase, step, lr, loss, fd_0, ..., fd_{K-1}).
    """
    header = "phase,step,lr,loss," + ",".join(f"fd_{label}" for label in labels)
    lines = [header]
    width = 4 + len(labels)
    for row in rows:
        if len(row) != width:
            raise DataError(f"log row has {len(row)} fields, expected {width}")
        phase, step, lr, loss = row[0], row[1], row[2], row[3]
        cells = [phase, str(int(step)), "%.12g" % lr, "%.12g" % loss]
        cells += ["%.12g" % v for v in row[4:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_metrics_log(path: str, labels, rows) -> None:
    atomic_write_text(path, metrics_log_text(labels, rows))


def read_metrics_log(path: str):
    """Returns (labels, rows) mirroring metrics_log_text input, which holds
    only fd_<label> columns with distinct labels, the phases warm_start,
    train and final, steps >= 0 and finite numbers, and rows in the order
    fdopt writes them: one warm_start row, train rows at steps 0, 1, 2 ...
    in turn, then at most one final row. Anything else is a DataError
    naming its line."""
    text = read_text(path)
    lines = text.strip().split("\n")
    header_line = text.count("\n", 0, len(text) - len(text.lstrip())) + 1
    headers = lines[0].split(",")
    labels = [h.removeprefix("fd_") for h in headers[4:]]
    if not all(labels) or metrics_log_text(labels, []) != lines[0] + "\n":
        want = "phase,step,lr,loss then fd_<label> columns"
        raise DataError(f"{path}: line {header_line}: {lines[0]!r} is not {want}")
    if len(set(labels)) != len(labels):
        raise DataError(f"{path}: line {header_line}: repeated label in {lines[0]!r}")
    parsed = []
    for lineno, line in enumerate(lines[1:], start=header_line + 1):
        cells = line.split(",")
        try:
            row = (cells[0], int(cells[1])) + tuple(map(float, cells[2:]))
        except (IndexError, ValueError):
            row = ()
        if len(row) != len(headers) or not np.isfinite(row[2:]).all():
            raise DataError(f"{path}: line {lineno}: malformed log row {line!r}")
        if row[0] not in ("warm_start", "train", "final") or row[1] < 0:
            raise DataError(f"{path}: line {lineno}: bad phase or step {line!r}")
        parsed.append((lineno, line, row))
    previous = None
    for i, (lineno, line, (phase, step, *_)) in enumerate(parsed):
        if phase == "warm_start":
            in_order = previous is None
        else:
            in_order = previous in ("warm_start", "train") and (
                phase == "final" or step == i - 1
            )
        if not in_order:
            raise DataError(f"{path}: line {lineno}: row out of phase order {line!r}")
        previous = phase
    return labels, [row for _, _, row in parsed]
