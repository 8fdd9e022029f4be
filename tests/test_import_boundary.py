"""Which heavy modules a process loads, by what it does.

A process that only reads results — ``import repro``, a warm
``repro sweep --fail-on-miss``, a ``--merge-only`` merge, ``repro store
verify`` — must not load numpy or the stdlib HTTP/TLS stack: together
they were most of such a process's start-up.  numpy loads with the first
system a process builds (and in a pooled sweep's parent, before the
workers fork).  Each case runs in a fresh interpreter and checks
``sys.modules``, never timings.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules a process that does not simulate must leave unloaded.
HEAVY = ("numpy", "http.server", "ssl")

#: A one-cell grid.
GRID_ARGS = [
    "--gpus", "G17", "--pims", "P2", "--policies", "FR-FCFS", "--vcs", "1",
    "--scale", "0.001", "--channels", "4", "--seed", "1",
]

#: Runs ``body`` and prints, as its last line, which HEAVY modules are loaded.
CHILD = """
import json, sys
{body}
print(json.dumps(sorted(m for m in {heavy!r} if m in sys.modules)))
"""


def loaded(body: str) -> list:
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(body=body, heavy=HEAVY)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli(*argv: str) -> str:
    """A child body running the CLI in-process; a non-zero exit fails the child."""
    return f"from repro.cli import main\nif main({list(argv)!r}):\n    sys.exit('CLI failed')"


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store holding the one-cell grid, filled by a child process (so its
    code version is the children's, whatever this process has cached)."""
    store = str(tmp_path_factory.mktemp("warm-store"))
    loaded(cli("sweep", *GRID_ARGS, "--cache-dir", store))
    return store


@pytest.mark.parametrize("body", ["import repro", "import repro.cli"])
def test_import_loads_nothing_heavy(body):
    assert loaded(body) == []


def test_warm_sweep_loads_nothing_heavy(warm_store):
    body = cli("sweep", *GRID_ARGS, "--fail-on-miss", "--cache-dir", warm_store)
    assert loaded(body) == []


def test_merge_only_loads_nothing_heavy(warm_store):
    body = cli("sweep", *GRID_ARGS, "--merge-only", "--cache-dir", warm_store)
    assert loaded(body) == []


def test_store_verify_loads_nothing_heavy(warm_store):
    assert loaded(cli("store", "verify", "--cache-dir", warm_store)) == []


def test_building_a_system_loads_numpy():
    body = """
from repro.core.policies import PolicySpec
from repro.engine_soa import create_system
from repro.experiments import ExperimentScale

assert "numpy" not in sys.modules
scale = ExperimentScale(num_channels=4)
create_system(scale.config(1), PolicySpec("FR-FCFS"))
"""
    assert "numpy" in loaded(body)


def test_benchmark_warmup_builds_the_object_engine():
    """The figure-grid benchmark's set-up snippet (``WARMUP`` in
    ``benchmarks/suite/bench.py``) builds a system through
    ``repro.engine_soa.create_system`` with ``REPRO_ENGINE=soa`` set; it
    must get the one engine, a ``GPUSystem``, and be able to run it."""
    source = (Path(__file__).resolve().parents[1] / "benchmarks/suite/bench.py").read_text()
    warmup = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "WARMUP" for target in node.targets)
    )
    check = warmup + (
        "from repro.sim.system import GPUSystem\n"
        "assert type(system) is GPUSystem, type(system)\n"
        "system.run(max_cycles=500)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC, "REPRO_ENGINE": "soa"}
    proc = subprocess.run(
        [sys.executable, "-c", check, "0.01"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_pooled_sweep_loads_numpy_before_forking(warm_store):
    """Every cell is a warm hit, so only the parent's preload can load it."""
    body = cli("sweep", *GRID_ARGS, "--workers", "2", "--fail-on-miss", "--cache-dir", warm_store)
    assert "numpy" in loaded(body)
