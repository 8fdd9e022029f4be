"""``repro.rng.Stream`` draws exactly what ``numpy.random.default_rng`` draws.

Every recorded table and golden digest was made with numpy's generator,
so the pure-Python stream must match it bit for bit on the seeds and
calls the workloads make: an int seed (a kernel's hot region), a list
seed ``[seed, crc32(name), sm_slot, warp]`` (a warp), ``integers(n)``
across the 32-bit Lemire path's edges, and ``random()`` between them, so
the upper half-word ``integers`` buffers is carried across calls.
"""

import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.rng import Stream

BOUNDS = (1, 2, 7, 4096, 2**31 + 5, 2**32 - 1, 2**32)


def _seeds():
    picker = random.Random(24)
    ints = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3] + [picker.getrandbits(40) for _ in range(20)]
    lists = [
        [seed, zlib.crc32(name.encode()), slot, warp]
        for seed in (0, 1, 12345)
        for name in ("gaussian", "Stream Add", "llm-qkv")
        for slot, warp in ((0, 0), (3, 17), (79, 63))
    ]
    return ints + lists


@pytest.fixture(scope="module")
def np():
    """The reference; only these comparisons need it."""
    return pytest.importorskip("numpy")


@pytest.mark.parametrize("seed", _seeds(), ids=repr)
def test_stream_matches_numpy(np, seed):
    ours, theirs = Stream(seed), np.random.default_rng(seed)
    calls = random.Random(repr(seed))
    for _ in range(200):
        if calls.random() < 0.3:
            assert ours.random() == theirs.random()
        else:
            high = calls.choice(BOUNDS)
            assert ours.integers(high) == int(theirs.integers(high))


@pytest.mark.parametrize("high", BOUNDS)
def test_each_bound_alone_matches_numpy(np, high):
    ours, theirs = Stream([1, 2, 3, 4]), np.random.default_rng([1, 2, 3, 4])
    assert [ours.integers(high) for _ in range(101)] == theirs.integers(high, size=101).tolist()


@pytest.mark.parametrize("high", [0, -3, 2**32 + 1, 2.0, None])
def test_integers_outside_the_subset_refused(high):
    with pytest.raises(ValueError):
        Stream(1).integers(high)


@pytest.mark.parametrize("seed", [-1, None, 1.5, [1, [2]], [1, -2], "7"])
def test_seeds_outside_the_subset_refused(seed):
    with pytest.raises(ValueError):
        Stream(seed)


NUMPY_BLOCKED = """
import sys
sys.modules["numpy"] = None
from repro.core.policies import PolicySpec
from repro.experiments import ExperimentScale
from repro.experiments.runner import Runner

scale = ExperimentScale(workload_scale=0.05, starvation_factor=15)
outcome = Runner(scale).competitive("G17", "P2", PolicySpec("FR-FCFS"), 1)
print(outcome.cycles, outcome.mode_switches)
"""


def test_a_cell_runs_without_numpy():
    """numpy made these numbers; a process that cannot import it gets them too."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1539", "92"]
