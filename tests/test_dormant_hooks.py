"""Exact guards on the cycle loop's hot path.

* Every hot-path record class is ``__slots__``-only.  An instance
  ``__dict__`` sneaking back in (an attribute added outside
  ``__slots__``, a refactor dropping the declaration) costs ~60 bytes
  and a dict allocation per object, on paths that create hundreds of
  thousands of them per run.
* Observability, the result store, the engine counters and the
  resilience layer stay dormant inside ``GPUSystem.run`` unless armed.
  The audit runs four grid cells, with a store attached, under a profile
  hook that is active only inside ``GPUSystem.run``, and names every
  function under ``repro/{obs,store,perf,resilience}/`` that runs there.
  The one allowed visitor is an armed watchdog's ``Watchdog.scan``, at
  most once per window.  A per-cycle call into one of those packages
  fails here by name, however little time it costs.
"""

import os
import sys
from collections import Counter

import pytest

import repro
from repro.cache.l2 import LookupResult
from repro.core.policies import PolicySpec
from repro.core.policies.base import Decision
from repro.experiments import ExperimentScale, Runner
from repro.gpu.sm import WarpState
from repro.noc.queues import BoundedQueue
from repro.noc.vc import VCBuffer
from repro.request import Request
from repro.resilience.watchdog import Watchdog
from repro.sim.system import GPUSystem
from repro.store import ResultStore

HOT_PATH_CLASSES = (Request, BoundedQueue, VCBuffer, WarpState, Decision, LookupResult)

#: Packages whose code must not run inside the cycle loop unless armed.
DORMANT_PACKAGES = ("obs", "store", "perf", "resilience")

SCALE = ExperimentScale(num_channels=4, workload_scale=0.05, starvation_factor=15)


@pytest.mark.parametrize("cls", HOT_PATH_CLASSES, ids=lambda cls: cls.__name__)
def test_hot_path_class_is_slots_only(cls):
    # A class (or any non-object base) without __slots__ carries a
    # '__dict__' descriptor in its class dict.
    with_dict = [
        base.__name__ for base in cls.__mro__ if base is not object and "__dict__" in vars(base)
    ]
    assert not with_dict, f"{cls.__module__}.{cls.__name__} has an instance __dict__"


class RunAudit:
    """Record dormant-package calls made inside ``GPUSystem.run``."""

    def __init__(self) -> None:
        root = os.path.dirname(repro.__file__)
        self.prefixes = tuple(os.path.join(root, name) + os.sep for name in DORMANT_PACKAGES)
        self.scan = Watchdog.scan.__code__
        self.calls = Counter()  # "package/module.py:function" -> calls
        self.runs = []  # (scan calls, cycles) per GPUSystem.run
        self._dormant = {}  # code object -> lies under a dormant package

    def _is_dormant(self, code) -> bool:
        verdict = self._dormant.get(code)
        if verdict is None:
            verdict = self._dormant[code] = code.co_filename.startswith(self.prefixes)
        return verdict

    def wrap(self, run):
        def audited_run(system, *args, **kwargs):
            scans = 0

            def profile(frame, event, arg):
                nonlocal scans
                if event != "call" or not self._is_dormant(frame.f_code):
                    return
                if frame.f_code is self.scan:
                    scans += 1
                    return
                caller = frame.f_back
                while caller is not None:  # what scan itself calls is scan's
                    if caller.f_code is self.scan:
                        return
                    caller = caller.f_back
                path = os.path.relpath(frame.f_code.co_filename, os.path.dirname(repro.__file__))
                self.calls[f"{path}:{frame.f_code.co_name}"] += 1

            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                result = run(system, *args, **kwargs)
            finally:
                sys.setprofile(previous)
            self.runs.append((scans, result.cycles))
            return result

        return audited_run


@pytest.mark.parametrize("watchdog_window", [None, 100], ids=["dormant", "watchdog100"])
def test_dormant_hooks_stay_out_of_the_cycle_loop(tmp_path, monkeypatch, watchdog_window):
    audit = RunAudit()
    monkeypatch.setattr(GPUSystem, "run", audit.wrap(GPUSystem.run))
    runner = Runner(
        SCALE, store=ResultStore(tmp_path / "store"), watchdog_window=watchdog_window
    )
    for policy in ("FR-FCFS", "F3FS"):
        for num_vcs in (1, 2):
            runner.competitive("G17", "P2", PolicySpec(policy), num_vcs=num_vcs)
    assert runner.store.stats.writes > 0  # the store was live around the runs

    assert not audit.calls, f"dormant packages ran inside GPUSystem.run: {dict(audit.calls)}"
    assert audit.runs
    for scans, cycles in audit.runs:
        if watchdog_window is None:
            assert scans == 0
        else:
            assert 0 < scans <= cycles // watchdog_window + 1
