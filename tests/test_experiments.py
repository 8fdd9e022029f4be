"""Tests for the experiment runner, figure harnesses, and sweeps."""

from dataclasses import replace

import pytest

from repro.core.policies import PolicySpec, make_policy
from repro.request import Mode
from repro.experiments import (
    ABLATION_STAGES,
    ExperimentScale,
    Runner,
    collaborative_policy,
    figure_table,
    format_table,
)
from repro.experiments.runner import make_cell

TINY = ExperimentScale(
    num_channels=4,
    gpu_sms_full=4,
    gpu_sms_corun=3,
    pim_sms=1,
    noc_queue_size=32,
    workload_scale=0.05,
    starvation_factor=10,
    max_cycles=400_000,
)


@pytest.fixture(scope="module")
def runner():
    return Runner(TINY)


class TestExperimentScale:
    def test_config_roundtrip(self):
        config = TINY.config(num_vcs=2)
        assert config.num_channels == 4
        assert config.num_virtual_channels == 2
        assert config.num_sms == 4

    def test_queue_override(self):
        assert replace(TINY, noc_queue_size=16).config().noc_queue_size == 16


class TestPolicyHelpers:
    def test_paper_parameters_are_the_defaults(self):
        """Sections III-D and VII-B: the paper's parameter choices are what
        ``make_policy`` builds when none are given."""
        assert make_policy("FR-FCFS-Cap").cap == 32
        assert make_policy("BLISS").threshold == 4
        gi = make_policy("G&I")
        assert (gi.high_watermark, gi.low_watermark) == (56, 32)
        assert make_policy("F3FS").caps == {Mode.MEM: 256, Mode.PIM: 256}

    def test_collaborative_f3fs_caps_differ_by_vc(self):
        vc1 = collaborative_policy("F3FS", 1)
        vc2 = collaborative_policy("F3FS", 2)
        assert vc1.params != vc2.params
        assert vc1.params["mem_cap"] > vc1.params["pim_cap"]  # asymmetric
        assert vc2.params["mem_cap"] == vc2.params["pim_cap"]  # symmetric

    def test_ablation_ladder_is_incremental(self):
        assert len(ABLATION_STAGES) == 4
        assert ABLATION_STAGES[0]["policy"] == "FR-FCFS-Cap"
        assert ABLATION_STAGES[1]["params"]["current_mode_first"] is False
        assert ABLATION_STAGES[3]["params"]["mem_cap"] != ABLATION_STAGES[3]["params"]["pim_cap"]


class TestRunner:
    def test_standalone_cached(self, runner):
        first = runner.standalone("G17")
        second = runner.standalone("G17")
        assert first is second  # same object: served from cache

    def test_standalone_duration_positive(self, runner):
        assert runner.standalone_duration("G17", "gpu_sms_full", 1) > 0

    def test_competitive_outcome_fields(self, runner):
        outcome = runner.competitive("G17", "P2", PolicySpec("F3FS"), num_vcs=2)
        assert 0 <= outcome.fairness <= 1
        assert outcome.throughput >= 0
        assert outcome.gpu_speedup > 0
        assert outcome.pim_speedup > 0
        assert outcome.cycles > 0

    def test_competitive_cached(self, runner):
        spec = PolicySpec("F3FS")
        a = runner.competitive("G17", "P2", spec, num_vcs=2)
        b = runner.competitive("G17", "P2", spec, num_vcs=2)
        assert a is b

    def test_different_policies_not_conflated(self, runner):
        a = runner.competitive("G17", "P2", PolicySpec("F3FS"), num_vcs=2)
        b = runner.competitive("G17", "P2", PolicySpec("FCFS"), num_vcs=2)
        assert a is not b

    def test_collaborative_outcome(self, runner):
        outcome = runner.collaborative(collaborative_policy("FR-FCFS", 2), num_vcs=2)
        assert outcome.speedup > 0
        assert outcome.ideal_speedup >= 1.0
        assert outcome.speedup <= outcome.ideal_speedup + 1e-9
        assert outcome.gpu_standalone > outcome.pim_standalone  # QKV longer

    def test_gpu_pair(self, runner):
        assert 0 < runner.run(make_cell("gpu_pair", "G17", "G10"))[0].speedup <= 2.0


class TestSweeps:
    def test_policy_parameter_sweep(self):
        _, rows, _ = figure_table("sweep_frfcfs_cap", TINY, ["G17"], ["P2"])
        assert [row["value"] for row in rows] == [4, 32, 256]
        for row in rows:
            assert 0 <= row["fairness"] <= 1


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            [{"a": 1.23456, "b": "x"}, {"a": 10.0, "b": "longer"}], ["a", "b"]
        )
        lines = text.splitlines()
        assert len(lines) == 4  # header, divider, 2 rows
        assert "1.235" in text
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width

    def test_missing_keys_render_empty(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert "b" in text
