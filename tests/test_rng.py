"""Counter-window draws: uniform_blocks and normal_blocks give the values of
one whole draw, a block at a time, and move the stream past all of them."""

import numpy as np
import pytest

from fdopt.rng import SplitMix64

SIZES = (1, 4095, 4096, 4097, 3 * 4096 + 5)
BLOCKS = (1, 8, 4096)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", SIZES)
def test_uniform_blocks_concatenate_to_one_draw(n, block):
    windows = list(SplitMix64(11).uniform_blocks(n, block))
    assert all(w.size == block for w in windows[:-1])
    assert np.concatenate(windows).tobytes() == SplitMix64(11).uniforms(n).tobytes()


@pytest.mark.parametrize("cols, block", [(2, 1), (2, 8), (2, 4096), (3, 8), (3, 4096)])
@pytest.mark.parametrize("rows", SIZES)
def test_normal_blocks_concatenate_to_one_draw(rows, cols, block):
    windows = list(SplitMix64(12).normal_blocks(rows, cols, block))
    assert all(w.shape == (block, cols) for w in windows[:-1])
    want = SplitMix64(12).normal_matrix(rows, cols)
    assert np.concatenate(windows).tobytes() == want.tobytes()


@pytest.mark.parametrize("consume", [False, True])
def test_stream_moves_past_the_whole_draw(consume):
    n, rows, cols = 4097, 4097, 3
    whole = SplitMix64(13)
    whole.uniforms(n)
    whole.normal_matrix(rows, cols)
    blocked = SplitMix64(13)
    windows = [blocked.uniform_blocks(n, 8), blocked.normal_blocks(rows, cols, 8)]
    if consume:
        for blocks in windows:
            list(blocks)
    assert blocked.uniforms(5).tobytes() == whole.uniforms(5).tobytes()


@pytest.mark.parametrize("rows, cols, block", [(10, 3, 1), (10, 1, 3), (4, 5, 7)])
def test_odd_block_values_rejected(rows, cols, block):
    with pytest.raises(ValueError, match="even"):
        SplitMix64(14).normal_blocks(rows, cols, block)


@pytest.mark.parametrize("block", [0, -1])
def test_nonpositive_uniform_block_rejected_before_the_stream_moves(block):
    stream = SplitMix64(15)
    with pytest.raises(ValueError, match="block_rows"):
        stream.uniform_blocks(10, block)
    assert stream.uniforms(5).tobytes() == SplitMix64(15).uniforms(5).tobytes()


@pytest.mark.parametrize(
    "draw, match",
    [
        (lambda s: s.uniform_blocks(-5, 4), "n must be nonnegative"),
        (lambda s: s.normal_blocks(-5, 2, 4), "n must be nonnegative"),
        (lambda s: s.normal_blocks(5, 2, 0), "block_rows must be >= 1, got 0"),
        (lambda s: s.normal_blocks(5, 2, -2), "block_rows must be >= 1, got -2"),
        # n = -1 would round to zero Box-Muller pairs
        (lambda s: s.normals(-1), "n must be nonnegative"),
        (lambda s: s.normal_matrix(-1, 1), "n must be nonnegative"),
    ],
)
def test_bad_block_draw_rejected_before_the_stream_moves(draw, match):
    stream = SplitMix64(16)
    with pytest.raises(ValueError, match=match):
        draw(stream)
    assert stream.uniforms(5).tobytes() == SplitMix64(16).uniforms(5).tobytes()
