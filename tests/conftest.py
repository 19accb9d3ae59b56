import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fdopt.rng import SplitMix64
from oracles import load_script


def random_symmetric(seed: int, d: int, scale: float = 1.0) -> np.ndarray:
    m = SplitMix64(seed).normal_matrix(d, d) * scale
    return 0.5 * (m + m.T)


def random_psd(seed: int, d: int, extra_rows: int = 2) -> np.ndarray:
    m = SplitMix64(seed).normal_matrix(d + extra_rows, d)
    return m.T @ m / (d + extra_rows)


@pytest.fixture
def criterion(capfd):
    """Context manager printing one pass/fail line per acceptance criterion."""
    from contextlib import contextmanager

    @contextmanager
    def _criterion(name):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"[acceptance] {name}: FAIL", flush=True)
            raise
        else:
            with capfd.disabled():
                print(f"[acceptance] {name}: PASS", flush=True)

    return _criterion


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """scripts/output_digests.py's pipeline, built once per session: its
    directory and {name: bytes}. Tests only read them."""
    work = tmp_path_factory.mktemp("pipeline")
    return work, load_script("output_digests").build(work)


@pytest.fixture(scope="session")
def pipeline_rerun(tmp_path_factory):
    """A second build, through the script's main with --keep: {name: bytes}
    read back from the kept directory, and the digest lines main printed."""
    work = tmp_path_factory.mktemp("pipeline")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert load_script("output_digests").main(["--keep", str(work)]) == 0
    artifacts = {p.name: p.read_bytes() for p in work.iterdir() if p.suffix != ".cfg"}
    return artifacts, printed.getvalue()
