"""The always-armed stall guard, end to end.

Every ``GPUSystem`` arms its watchdog with the window
:func:`~repro.resilience.watchdog.stall_window` derives from its
configuration, so a livelocked cell is refused the same way on every
path that runs one, with no option to set:

* a never-issuing policy (registered here) fills the queues and freezes
  the machine; the serial sweep, the supervised pool, a figure table
  and a fabric campaign each quarantine its cell as ``stall`` after one
  attempt, where an unguarded engine would score it as a plausible
  "starved" co-run once its cycle budget ran out;
* a single-cell command prints one ``stalled:`` line and exits 1;
* the window keeps its margin: in healthy co-runs under every policy
  and VC configuration, refresh off and on, the longest stretch without
  progress while work is outstanding is at most an eighth of it.
"""

import pytest

from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec, _REGISTRY
from repro.core.policies.base import IDLE, SchedulingPolicy
from repro.experiments import ExperimentScale, Runner, figure_table, make_tasks, run_sweep
from repro.resilience.watchdog import outstanding_work, progress_signature, stall_window
from tests.fabric_harness import CoordinatorThread, start_workers

#: Large enough that a co-run's cycle budget (16-19k cycles here) covers
#: the two windows (7,040 cycles) a frozen machine takes to be refused.
SCALE = ExperimentScale(num_channels=4, workload_scale=0.05, starvation_factor=15)

NEVER = "Never-Issue"
STALLED = f"G17|P2|{NEVER}|vc1"


class NeverIssue(SchedulingPolicy):
    """Never issues anything: the livelock the stall guard exists for."""

    name = NEVER

    def decide(self, ctl, cycle):
        return IDLE


@pytest.fixture
def never_issue(monkeypatch):
    monkeypatch.setitem(_REGISTRY, NEVER, NeverIssue)
    return PolicySpec(NEVER)


def _tasks(policy):
    """The livelocked cell first, then a healthy one."""
    return make_tasks(["G17"], ["P2"], [policy, PolicySpec("FR-FCFS")], (1,))


def _assert_one_stall(failures):
    assert [(f["label"], f["kind"], f["attempts"]) for f in failures] == [
        (STALLED, "stall", 1)
    ]
    assert "no forward progress" in failures[0]["message"]


@pytest.mark.parametrize("max_workers", [1, 2], ids=["serial", "pooled"])
def test_sweep_quarantines_a_livelocked_cell(tmp_path, never_issue, max_workers):
    report = run_sweep(
        SCALE, _tasks(never_issue), max_workers=max_workers, store_dir=str(tmp_path / "s")
    )
    _assert_one_stall([failure.to_dict() for failure in report.failed_outcomes])
    diagnostic = report.failed_outcomes[0].diagnostic
    assert diagnostic["window"] == stall_window(SCALE.config(1))
    assert diagnostic["backlog"] > 0
    assert report.completed == 1  # the healthy cell still completes


def test_figure_table_names_the_stalled_cell(never_issue):
    with pytest.raises(RuntimeError, match=rf"{STALLED} \(stall: no forward progress"):
        figure_table("fig8", SCALE, ["G17"], ["P2"], [NEVER])


def test_fabric_campaign_quarantines_a_livelocked_cell(tmp_path, never_issue):
    with CoordinatorThread(SCALE, _tasks(never_issue), tmp_path / "s", ttl=30.0) as coord:
        workers = start_workers(coord.address, tmp_path, [{"poll": 0.05}])
        coord.wait(timeout=60)
        for thread in workers:
            thread.join()
        summary = coord.coordinator.summary()
        failures = coord.coordinator.failures
    assert summary["completed"] == 1 and summary["failed"] == 1
    _assert_one_stall(failures)


@pytest.mark.parametrize("command", ["run", "trace", "collaborative"])
def test_single_cell_command_refuses_a_stall_in_one_line(
    tmp_path, capsys, never_issue, command
):
    from repro.cli import main

    argv = [command, "--policy", NEVER, "--vcs", "1", "--scale", "0.05", "--channels", "4"]
    if command != "collaborative":
        argv += ["--gpu", "G17", "--pim", "P2"]
    if command == "trace":
        argv += ["--out", str(tmp_path / "trace.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("stalled: no forward progress for ") and "\n" not in err


def longest_gap(system, budget, horizon):
    """Run ``system`` like a co-run cell, but on to ``horizon`` cycles at
    least, returning the most cycles its progress signature went
    unchanged while work was outstanding."""
    for run in system.runs:
        system._launch(run)
    signature, changed, gap = None, 0, 0
    while system.cycle < budget and (system._awaiting_first or system.cycle < horizon):
        system.step()
        now = progress_signature(system)
        if now != signature:
            signature, changed = now, system.cycle
        elif outstanding_work(system):
            gap = max(gap, system.cycle - changed)
    return gap


@pytest.mark.parametrize("refresh", [False, True], ids=["refresh-off", "refresh-on"])
def test_window_is_eight_longest_gaps(refresh):
    scale = ExperimentScale(
        num_channels=4, workload_scale=0.02, starvation_factor=15, refresh_enabled=refresh
    )
    config = scale.config(1)
    window = stall_window(config)
    horizon = config.timings.tREFI + 2 * config.timings.tRFC  # through the first refresh
    runner = Runner(scale)
    gaps = {}
    for num_vcs in (1, 2):
        for policy in PAPER_POLICY_ORDER:
            cell = runner.competitive_system("G17", "P2", PolicySpec(policy), num_vcs)
            assert cell.system.watchdog.window == window
            gaps[policy, num_vcs] = longest_gap(cell.system, cell.budget, horizon)
    assert 0 < max(gaps.values()) <= window // 8, gaps
