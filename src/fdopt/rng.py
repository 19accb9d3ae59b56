"""Deterministic random streams built on splitmix64.

All randomness in the package flows through :class:`SplitMix64` so that runs
are reproducible bit-for-bit across processes, and reproducible across
languages up to libm rounding. The scheme, fixed here and relied on by the
representation-parameter oracle tests:

* state update: ``state += 0x9E3779B97F4A7C15`` (mod 2^64), output is the
  splitmix64 finalizer of the new state;
* a uniform double in [0, 1) takes the top 53 bits: ``(x >> 11) * 2**-53``;
* standard normals come from Box-Muller pairs, two uniforms per pair, even
  consumption (``normals(n)`` always draws ``2 * ceil(n / 2)`` uniforms).
"""

from __future__ import annotations

import struct

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _token_bits(part) -> int:
    if isinstance(part, str):
        # FNV-1a over UTF-8 bytes
        h = 0xCBF29CE484222325
        for byte in part.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK64
        return h
    if isinstance(part, (bool, int, np.integer)):
        return int(part) & _MASK64
    if isinstance(part, float):
        return int.from_bytes(struct.pack("<d", part), "little")
    raise TypeError(f"cannot derive a seed from {type(part).__name__}")


def derive_seed(*parts) -> int:
    """Fold ints/floats/strings into a 64-bit stream seed, order-sensitive."""
    acc = _GOLDEN
    for part in parts:
        acc = mix64(acc ^ _token_bits(part))
        acc = (acc + _GOLDEN) & _MASK64
    return mix64(acc)


class SplitMix64:
    """Counter-style splitmix64 stream with vectorized draws."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def _skip(self, n: int) -> int:
        """Move the stream past n draws; return the state they start from."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        state = self._state
        self._state = (state + n * _GOLDEN) & _MASK64
        return state

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return _unit(_outputs(self._skip(n), 0, n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        pairs = (n + 1) // 2
        # one draw: the first half are the radius uniforms, the second the angles
        u = self.uniforms(2 * pairs)
        return _box_muller(u[:pairs], u[pairs:])[:n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def uniform_blocks(self, n: int, block_rows: int):
        """uniforms(n) in successive blocks of block_rows values, drawing only
        each block's counter window; the stream moves past all n at once."""
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        state = self._skip(n)
        return (
            _unit(_outputs(state, start, min(block_rows, n - start)))
            for start in range(0, n, block_rows)
        )

    def normal_blocks(self, rows: int, cols: int, block_rows: int):
        """normal_matrix(rows, cols) as successive blocks of block_rows rows
        (the last may be shorter), the same values, drawing only each block's
        uniforms. The stream moves past the whole matrix at once.

        Pair k of the matrix takes radius uniform k and angle uniform
        pairs + k of one normal_matrix draw; a block that starts on a pair
        boundary (block_rows * cols even) draws exactly those two counter
        windows."""
        if min(rows, cols) < 0:
            raise ValueError("n must be nonnegative")
        if block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {block_rows}")
        if (block_rows * cols) % 2:
            raise ValueError(
                f"block_rows * cols must be even, got {block_rows} x {cols}"
            )
        pairs = (rows * cols + 1) // 2
        state = self._skip(2 * pairs)

        def blocks():
            for start in range(0, rows, block_rows):
                count = min(block_rows, rows - start) * cols
                first, width = start * cols // 2, (count + 1) // 2
                radius = _unit(_outputs(state, first, width))
                angle = _unit(_outputs(state, pairs + first, width))
                yield _box_muller(radius, angle)[:count].reshape(-1, cols)

        return blocks()


def _outputs(state: int, start: int, n: int) -> np.ndarray:
    """Outputs start + 1 .. start + n of the stream whose state is state."""
    # states are seed + GOLDEN * k, so a block can be produced in one shot;
    # the finalizer then runs in place on that one array
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _unit(bits: np.ndarray) -> np.ndarray:
    """Doubles on [0, 1) from the top 53 bits; bits is overwritten."""
    bits >>= np.uint64(11)
    out = bits.astype(np.float64)
    out *= 2.0 ** -53
    return out


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Normals 2k, 2k + 1 from radius uniform u1[k] and angle uniform u2[k]."""
    # 1 - u1 lies in (0, 1], keeping the log finite
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = (2.0 * np.pi) * u2
    out = np.empty(2 * u1.size, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out
