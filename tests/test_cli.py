"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import FIGURES
from repro.sim.system import GPUSystem

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"

#: The committed table each ``repro figure`` name prints.
COMMITTED_TABLES = {
    "fig4": "fig04_characterization",
    "fig5": "fig05_corun_slowdown",
    "fig6": "fig06_mem_arrival",
    "fig8": "fig08_fairness_throughput",
    "fig10": "fig10_switch_overheads",
    "fig11": "fig11_llm_speedup",
    "fig13": "fig13_intensity_extremes",
    "fig14a": "fig14a_ablation",
}

TINY_FIGURE_ARGS = [
    "--gpus", "G17", "--pims", "P2", "--policies", "FCFS", "F3FS",
    "--scale", "0.05", "--channels", "4",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--gpu", "G99"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    @pytest.mark.parametrize(
        "argv,field,expected",
        [
            (["run", "--policy", "f3fs"], "policy", "F3FS"),
            (["trace", "--policy", "fr-fcfs"], "policy", "FR-FCFS"),
            (["collaborative", "--policy", "f3fs"], "policy", "F3FS"),
            (["figure", "fig11", "--policies", "f3fs", "g&i"], "policies", ["F3FS", "G&I"]),
            (["report", "--policies", "fr-rr-fcfs"], "policies", ["FR-RR-FCFS"]),
            (["sweep", "--policies", "bliss", "FCFS"], "policies", ["BLISS", "FCFS"]),
            (
                ["fabric", "serve", "--cache-dir", "s", "--policies", "mem-first"],
                "policies",
                ["MEM-First"],
            ),
        ],
        ids=["run", "trace", "collaborative", "figure", "report", "sweep", "fabric-serve"],
    )
    def test_policy_names_are_case_insensitive(self, argv, field, expected):
        assert getattr(build_parser().parse_args(argv), field) == expected

    def test_unknown_policy_still_refused(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig11", "--policies", "f4fs"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gaussian" in out
        assert "Stream Add" in out
        assert "F3FS" in out

    def test_run(self, capsys):
        code = main(
            [
                "run",
                "--gpu", "G17",
                "--pim", "P2",
                "--policy", "F3FS",
                "--vcs", "2",
                "--scale", "0.05",
                "--channels", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fairness" in out
        assert "F3FS" in out

    def test_collaborative(self, capsys):
        code = main(
            ["collaborative", "--policy", "FR-FCFS", "--vcs", "2", "--scale", "0.05", "--channels", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "ideal" in out

    def test_figure_fig4(self, capsys):
        code = main(
            [
                "figure", "fig4",
                "--gpus", "G17",
                "--pims", "P2",
                "--scale", "0.05",
                "--channels", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mc_rate" in out
        assert "PIM" in out

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_figure_columns_match_committed_table(self, name, capsys):
        assert main(["figure", name, *TINY_FIGURE_ARGS]) == 0
        printed = capsys.readouterr().out.splitlines()[0].split()
        header = (RESULTS / f"{COMMITTED_TABLES[name]}.txt").read_text().splitlines()[0]
        committed = header.split()
        if name == "fig6":  # one column per GPU kernel: here only G17
            committed = [c for c in committed if not re.fullmatch(r"G\d+", c)]
            committed.insert(2, "G17")
        assert printed == committed

    @pytest.mark.parametrize("command", [["figure", "all"], ["report"]], ids=["figure", "report"])
    def test_warm_render_prints_the_same_bytes(self, command, capsys, tmp_path, monkeypatch):
        """A render through ``--cache-dir`` fills the store; the next one
        reads it back: the same bytes, 0 cells simulated."""
        argv = [
            *command, "--gpus", "G17", "--pims", "P2", "--policies", "FR-FCFS",
            "--scale", "0.001", "--channels", "4", "--cache-dir", str(tmp_path),
        ]
        assert main(argv + ["--fail-on-miss"]) == 1  # cold: simulates
        cold = capsys.readouterr()
        assert re.search(r"FAIL: expected a fully warm cache but \d+ cells simulated", cold.err)

        def no_simulation(*args, **kwargs):
            raise AssertionError("a warm render ran a simulation")

        monkeypatch.setattr(GPUSystem, "run", no_simulation)
        assert main(argv + ["--fail-on-miss"]) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "FAIL" not in warm.err

    def test_figure_all_prints_every_figure(self, capsys):
        argv = [
            "figure", "all", "--gpus", "G17", "--pims", "P2", "--policies", "FCFS",
            "--scale", "0.001", "--channels", "4",
        ]
        assert main(argv) == 0
        headings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("==")]
        assert headings == [f"== {name} ==" for name in FIGURES]

    def test_profile_flag(self, capsys):
        assert main(["--profile", "list"]) == 0
        out = capsys.readouterr().out
        assert "gaussian" in out
        assert "function calls" in out

    def test_sweep_resume_and_store_maintenance(self, capsys, tmp_path):
        """Cold sweep -> warm sweep (all hits) -> corrupt -> verify/gc."""
        cache_dir = str(tmp_path / "store")
        argv = [
            "sweep",
            "--gpus", "G17",
            "--pims", "P2",
            "--policies", "FR-FCFS",
            "--vcs", "1",
            "--scale", "0.05",
            "--channels", "4",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 cache hits, 1 simulated" in out

        # Warm re-run: every cell is a hit, so --fail-on-miss passes...
        assert main(argv + ["--fail-on-miss"]) == 0
        warm = capsys.readouterr().out
        assert "1 cache hits, 0 simulated" in warm
        # ...and the table is byte-identical to the cold run's.
        assert warm.split("cells:")[0] == out.split("cells:")[0]

        # --fresh recomputes, so --fail-on-miss now fails.
        assert main(argv + ["--fresh", "--fail-on-miss"]) == 1
        capsys.readouterr()

        assert main(["store", "ls", "--cache-dir", cache_dir]) == 0
        assert "competitive" in capsys.readouterr().out

        assert main(["store", "verify", "--cache-dir", cache_dir]) == 0
        assert "corrupt: 0" in capsys.readouterr().out

        # Truncate one object: verify exits 1, gc reaps it, verify passes.
        victim = next((tmp_path / "store" / "objects").glob("*/*.json"))
        victim.write_text(victim.read_text()[:20])
        assert main(["store", "verify", "--cache-dir", cache_dir]) == 1
        assert "corrupt: 1" in capsys.readouterr().out
        assert main(["store", "gc", "--cache-dir", cache_dir]) == 0
        assert "1 corrupt" in capsys.readouterr().out
        assert main(["store", "verify", "--cache-dir", cache_dir]) == 0

    def test_sweep_shard_and_merge(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "store")
        argv = [
            "sweep",
            "--gpus", "G17",
            "--pims", "P2",
            "--policies", "FR-FCFS", "F3FS",
            "--vcs", "1",
            "--scale", "0.05",
            "--channels", "4",
            "--cache-dir", cache_dir,
        ]
        for shard in ("0/2", "1/2"):
            assert main(argv + ["--shard", shard]) == 0
            assert f"shard {shard}" in capsys.readouterr().out
        assert main(argv + ["--merge-only"]) == 0
        out = capsys.readouterr().out
        assert "F3FS" in out and "FR-FCFS" in out
        assert "cells: 2" in out

    def test_sweep_shard_fail_on_miss_after_resume(self, capsys, tmp_path):
        """--fail-on-miss semantics hold per shard: warm passes, cold fails."""
        argv = [
            "sweep",
            "--gpus", "G17",
            "--pims", "P2",
            "--policies", "FR-FCFS", "F3FS",
            "--vcs", "1",
            "--scale", "0.05",
            "--channels", "4",
            "--cache-dir", str(tmp_path / "store"),
        ]
        assert main(argv + ["--shard", "0/2"]) == 0  # cold shard simulates
        assert main(argv + ["--shard", "0/2", "--fail-on-miss"]) == 0  # resumed: warm
        assert main(argv + ["--shard", "1/2", "--fail-on-miss"]) == 1  # cold: misses
        capsys.readouterr()

    @pytest.mark.parametrize("shard", ["3/3", "0/0", "-1/2", "x/2", "1"])
    def test_sweep_rejects_bad_shard(self, shard):
        with pytest.raises(SystemExit):
            main(["sweep", "--shard", shard, "--cache-dir", "/tmp/x"])

    def test_merge_only_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--merge-only"])

    def test_sweep_rejects_bad_retry_settings(self):
        with pytest.raises(SystemExit, match="retry"):
            main(["sweep", "--retries", "-1"])

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["sweep", "--workers", "0"], "--workers"),
            (["sweep", "--cell-timeout", "0"], "--cell-timeout"),
            (["sweep", "--cell-timeout", "-1"], "--cell-timeout"),
            (["sweep", "--watchdog", "0"], "--watchdog"),
            (["fabric", "serve", "--ttl", "0"], "--ttl"),
            (["fabric", "serve", "--resume-grace", "-1"], "--resume-grace"),
            (["fabric", "work", "--connect", "127.0.0.1:1", "--watchdog", "0"], "--watchdog"),
            (["run", "--scale", "-1"], "--scale"),
            (["sweep", "--scale", "0"], "--scale"),
            (["run", "--seed", "-1"], "--seed"),
            (["trace", "--scale", "0"], "--scale"),
            (["trace", "--seed", "-1"], "--seed"),
            (["trace", "--channels", "3"], "--channels"),
            (["run", "--channels", "6"], "--channels"),
            (["status", "--watch", "--interval", "-1"], "--interval"),
            (["trace", "--interval", "0"], "--interval"),
            (["trace", "--ring-capacity", "0"], "--ring-capacity"),
        ],
    )
    def test_bad_dispatch_setting_refused_in_one_line(self, tmp_path, argv, flag):
        if argv[:2] == ["fabric", "serve"] or argv[0] == "status":
            argv = argv + ["--cache-dir", str(tmp_path / "store")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"invalid {flag} ")
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("cycles", ["-5", "0"])
    def test_trace_refuses_a_non_positive_horizon(self, tmp_path, cycles):
        out = tmp_path / "trace.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--max-cycles", cycles, "--out", str(out)])
        assert excinfo.value.code == f"invalid --max-cycles {cycles}: must be positive"
        assert not out.exists()

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        import repro.experiments

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.experiments, "run_sweep", interrupted)
        code = main(["sweep", "--gpus", "G17", "--pims", "P2",
                     "--policies", "FR-FCFS", "--vcs", "1",
                     "--scale", "0.05", "--channels", "4"])
        assert code == 130
        assert "resume" in capsys.readouterr().err

    def test_sweep_strict_exit_codes_under_faults(self, capsys, tmp_path):
        """A quarantined cell exits 0 by default, 2 with --strict."""
        import json

        plan = {
            "state_dir": str(tmp_path / "fault-state"),
            "cells": {"G17|P2|FR-FCFS|vc1": {"kind": "error", "times": -1}},
        }
        plan_path = tmp_path / "faults.json"
        plan_path.write_text(json.dumps(plan))
        argv = [
            "sweep",
            "--gpus", "G17",
            "--pims", "P2",
            "--policies", "FR-FCFS", "F3FS",
            "--vcs", "1",
            "--scale", "0.05",
            "--channels", "4",
            "--cache-dir", str(tmp_path / "store"),
            "--retries", "0",
            "--backoff", "0",
            "--faults", str(plan_path),
        ]
        assert main(argv) == 0  # graceful degradation is the default
        captured = capsys.readouterr()
        assert "FAILED G17|P2|FR-FCFS|vc1: error" in captured.err
        assert "1 failed" in captured.out
        assert "F3FS" in captured.out  # healthy cell's row still printed

        assert main(argv + ["--strict"]) == 2
        captured = capsys.readouterr()
        assert "--strict" in captured.err

        # Fault-free strict rerun recovers the poisoned cell: exit 0.
        assert main(argv[:-2] + ["--strict"]) == 0
        assert "2 cache hits" not in capsys.readouterr().out  # one recomputed

    def test_figure_fig11_subset(self, capsys):
        code = main(
            [
                "figure", "fig11",
                "--policies", "FR-FCFS", "F3FS",
                "--scale", "0.05",
                "--channels", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Ideal" in out
