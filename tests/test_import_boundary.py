"""Which heavy modules a process loads, by what it does.

A process that only reads results — ``import repro``, a warm
``repro sweep --fail-on-miss``, a ``--merge-only`` merge, ``repro store
verify``, a warm ``repro figure --fail-on-miss`` — must not load numpy,
the stdlib HTTP/TLS stack, the cycle engine or the process pool: together
they were most of such a process's start-up.  The package exports
resolve lazily (PEP 562), so importing a package loads none of its
submodules.  A process that simulates loads no numpy either: the warps
draw from ``repro.rng.Stream``, a pure Python copy of numpy's generator,
so building and running a system and a cold pooled sweep (parent and
workers) stay clear of it.  Each case runs in a fresh interpreter and
checks ``sys.modules``, never timings.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Modules a process that does not simulate must leave unloaded: numpy
#: and the HTTP/TLS stack, the cycle engine, and the process pool.
HEAVY = (
    "numpy",
    "http.server",
    "ssl",
    "repro.sim.system",
    "repro.core.controller",
    "repro.noc.islip",
    "repro.dram.channel",
    "repro.pim.executor",
    "concurrent.futures.process",
    "multiprocessing",
)

#: Every package whose exports resolve on first access.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.dram",
    "repro.experiments",
    "repro.gpu",
    "repro.obs",
    "repro.pim",
    "repro.resilience",
    "repro.sim",
)

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


#: Every figure at one GPU, one PIM kernel and one policy.
FIGURE_ARGS = [
    "all", "--gpus", "G17", "--pims", "P2", "--policies", "FR-FCFS",
    "--scale", "0.001", "--channels", "4",
]


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store holding the one-cell grid, filled by a child process (so its
    code version is the children's, whatever this process has cached)."""
    store = str(tmp_path_factory.mktemp("warm-store"))
    loaded(cli("sweep", *GRID_ARGS, "--cache-dir", store))
    return store


@pytest.fixture(scope="module")
def figure_store(tmp_path_factory):
    """A store holding every figure's cells at :data:`FIGURE_ARGS`."""
    store = str(tmp_path_factory.mktemp("figure-store"))
    loaded(cli("figure", *FIGURE_ARGS, "--cache-dir", store))
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


def test_warm_figure_loads_nothing_heavy(figure_store):
    body = cli("figure", *FIGURE_ARGS, "--fail-on-miss", "--cache-dir", figure_store)
    assert loaded(body) == []


def test_every_lazy_export_resolves():
    """Each name in a lazy package's ``__all__`` resolves, before and after
    every submodule is imported (a submodule named like an export would
    then shadow it), and ``from repro import *`` works."""
    body = f"""
import importlib, pkgutil, types
from repro import *

def check():
    for name in {LAZY_PACKAGES!r}:
        package = importlib.import_module(name)
        for export in package.__all__:
            value = getattr(package, export)
            assert not isinstance(value, types.ModuleType), (name, export)

check()
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
check()
"""
    loaded(body)


def test_building_and_running_a_system_loads_no_numpy():
    body = """
from repro.core.policies import PolicySpec
from repro.experiments import ExperimentScale
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel

scale = ExperimentScale(num_channels=4, workload_scale=0.01)
system = GPUSystem(scale.config(1), PolicySpec("FR-FCFS"), scale=0.01)
system.add_kernel(get_gpu_kernel("G17"), num_sms=4)
system.add_kernel(get_pim_kernel("P2"), num_sms=4)
assert system.run(max_cycles=2_000).cycles > 0
"""
    assert "numpy" not in loaded(body)


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


def test_cold_pooled_sweep_loads_no_numpy(tmp_path):
    """Two cells simulated by two forked workers.  numpy is blocked in the
    parent before the pool forks, so a worker that imported it would fail
    its cell, and ``--strict`` turns a failed cell into a failed sweep."""
    vcs = GRID_ARGS.index("--vcs")
    grid = [*GRID_ARGS[:vcs], "F3FS", *GRID_ARGS[vcs:]]
    body = "\n".join((
        'sys.modules["numpy"] = None',
        cli("sweep", *grid, "--workers", "2", "--strict", "--cache-dir", str(tmp_path)),
        'del sys.modules["numpy"]',
    ))
    assert "numpy" not in loaded(body)
