"""Tests for the markdown report generator."""

from repro.cli import main
from repro.experiments import ExperimentScale, generate_report

TINY = ExperimentScale(
    num_channels=4,
    gpu_sms_full=4,
    gpu_sms_corun=3,
    pim_sms=1,
    workload_scale=0.05,
    starvation_factor=10,
)


class TestGenerateReport:
    def test_report_structure(self):
        text = generate_report(
            TINY,
            gpu_subset=["G17"],
            pim_subset=["P2"],
            policies=["FR-FCFS", "F3FS"],
            title="Test report",
        )
        assert text.startswith("# Test report")
        for heading in (
            "## Characterization (Figure 4)",
            "## MEM arrival rate at the MC (Figure 6)",
            "## Fairness and throughput (Figure 8)",
            "## Mode switches and overheads (Figure 10)",
            "## Collaborative LLM speedup (Figure 11)",
        ):
            assert heading in text
        # Markdown tables are present and mention the policies.
        assert "| config | policy |" in text
        assert "F3FS" in text
        assert "Ideal" in text

    def test_cli_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--out", str(out),
                "--gpus", "G17",
                "--pims", "P2",
                "--policies", "FR-FCFS", "F3FS",
                "--scale", "0.05",
                "--channels", "4",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "# Reproduction report" in out.read_text()
