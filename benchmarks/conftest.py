"""Shared fixtures for the figure-regeneration benchmarks.

Each ``test_figXX_*.py`` regenerates one table/figure of the paper on a
scaled system (see DESIGN.md section 5) and checks the qualitative shape
the paper reports.  Every figure runs its cells through a session-scoped
result store (``store_dir``), so figures sharing cells — the competitive
grid of 6, 8, 10 and 13, the standalone baselines — simulate them once.

Environment knobs:

* ``REPRO_BENCH_FULL=1`` — run the full 20x9 kernel grid instead of the
  default subsets (hours instead of minutes).
* ``REPRO_BENCH_SCALE``  — workload scale factor (default 0.12).

Result tables are written to ``benchmarks/results/`` for inclusion in
EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.figures import FIG13_GPU_SUBSET
from repro.experiments.sweep import DEFAULT_GPU_SUBSET, DEFAULT_PIM_SUBSET
from repro.workloads import pim_ids, rodinia_ids

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.12"))

#: Kernel subsets: the figures' defaults (see ``repro.experiments.sweep``
#: and ``repro.experiments.figures``) unless ``REPRO_BENCH_FULL`` is set.
GPU_SUBSET = rodinia_ids() if FULL else list(DEFAULT_GPU_SUBSET)
PIM_SUBSET = pim_ids() if FULL else list(DEFAULT_PIM_SUBSET)
#: Figure 13's GPU kernels (compute-intensive + memory-intensive picks).
FIG13_GPUS = ("G10", "G6", "G11", "G17", "G19") if FULL else FIG13_GPU_SUBSET

RESULTS_DIR = Path(__file__).parent / "results"


def experiment_scale(**overrides) -> ExperimentScale:
    defaults = dict(workload_scale=SCALE, starvation_factor=15, seed=1)
    defaults.update(overrides)
    return ExperimentScale(**defaults)


@pytest.fixture(scope="session")
def store_dir(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("store"))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n")
