"""Every cell kind runs the same way through every dispatcher.

A cell list mixing the four kinds — standalone, competitive,
collaborative and gpu_pair — runs through the in-process sweep loop, a
two-worker supervised pool and a fabric campaign (one coordinator, one
worker).  All three must hand back equal outcomes and leave
byte-identical ``objects/`` trees: the executor (:meth:`Runner.run`) and
the cell key (:func:`cell_key`) are the same whichever way a cell is
dispatched.  A scale-variant cell (``GridTask.scale_params``) runs and
keys as its plain cell at the variant's scale, whichever way it goes.
"""

from dataclasses import replace

import pytest

from repro.core.policies import PolicySpec
from repro.experiments import collect_from_store, run_sweep
from repro.experiments.figures import FIGURES
from repro.experiments.runner import (
    CELL_KINDS,
    LLM_STAGES,
    GridTask,
    Runner,
    cell_key,
    make_cell,
)
from repro.fabric import FabricWorker, protocol
from tests.fabric_harness import CoordinatorThread, store_object_bytes
from tests.test_store_resume import TINY

CELLS = [
    make_cell("standalone", "G17", sms="gpu_sms_corun"),
    make_cell("competitive", "G17", "P2", PolicySpec("F3FS"), 2),
    make_cell("collaborative", *LLM_STAGES, PolicySpec("F3FS", mem_cap=32, pim_cap=16), 1),
    make_cell("gpu_pair", "G17", "G10"),
    # Already a baseline of the competitive cell when it is reached.
    make_cell("standalone", "P2", num_vcs=2, sms="pim_sms"),
]


def test_cells_cover_every_kind():
    assert {cell.kind for cell in CELLS} == set(CELL_KINDS)
    assert len({cell_key(TINY, cell) for cell in CELLS}) == len(CELLS)


def test_three_dispatchers_agree(tmp_path):
    serial = run_sweep(TINY, CELLS, store_dir=str(tmp_path / "serial"))
    pooled = run_sweep(TINY, CELLS, store_dir=str(tmp_path / "pooled"), max_workers=2)
    with CoordinatorThread(TINY, CELLS, tmp_path / "fabric", ttl=30.0) as coord:
        FabricWorker("w", coord.address, tmp_path / "scratch", poll=0.02).run()
        coord.wait(timeout=60)
        summary = coord.coordinator.summary()
    assert summary["completed"] == len(CELLS) and summary["failed"] == 0
    fabric = collect_from_store(TINY, CELLS, str(tmp_path / "fabric"))

    assert serial.failed == pooled.failed == 0
    assert serial.outcomes == pooled.outcomes == fabric
    reference = store_object_bytes(tmp_path / "serial")
    assert store_object_bytes(tmp_path / "pooled") == reference
    assert store_object_bytes(tmp_path / "fabric") == reference


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.kind)
def test_lease_fields_round_trip(cell):
    assert protocol.task_from_fields(protocol.lease_task_fields(cell)) == cell


def test_labels_name_the_kind():
    assert [cell.label for cell in CELLS] == [
        "standalone:G17|gpu_sms_corun|vc1",
        "G17|P2|F3FS|vc2",
        "collaborative:llm-qkv|llm-mha|F3FS(mem_cap=32,pim_cap=16)|vc1",
        "gpu_pair:G17|G10|FR-FCFS|vc1",
        "standalone:P2|pim_sms|vc2",
    ]


def test_labels_name_policy_parameters():
    # Fig 14a's F3FS ablation stages differ only in parameters; quarantine
    # messages, the status roster and fault plans tell cells apart by label.
    cells = FIGURES["fig14a"].cells(["G17"])
    labels = [cell.label for cell in cells]
    assert len(set(labels)) == len(cells)
    assert "G17|P2|F3FS(current_mode_first=False)|vc2" in labels
    assert "G17|P2|F3FS|vc2" in labels


def test_unknown_kind_refused():
    with pytest.raises(ValueError, match="unknown cell kind"):
        GridTask("G17", kind="characterization")
    with pytest.raises(ValueError, match="standalone cell needs sms"):
        make_cell("standalone", "G17")
    with pytest.raises(ValueError, match="standalone cell needs sms"):
        make_cell("standalone", "G17", sms="max_cycles")


# -- scale variants ----------------------------------------------------------

PLAIN = make_cell("competitive", "G17", "P2", PolicySpec("F3FS"), 2)
VARIANT = replace(PLAIN, scale_params=(("noc_queue_size", 16),))


def test_variant_key_is_the_plain_cell_at_its_scale():
    assert cell_key(TINY, VARIANT) == cell_key(replace(TINY, noc_queue_size=16), PLAIN)
    assert cell_key(TINY, VARIANT) != cell_key(TINY, PLAIN)


def test_variant_label_names_its_scale():
    assert VARIANT.label == "G17|P2|F3FS|vc2|noc_queue_size=16"


def test_unknown_scale_field_refused():
    with pytest.raises(ValueError, match="'queue_size'"):
        replace(PLAIN, scale_params=(("queue_size", 16),))


def test_variant_lease_fields_round_trip():
    assert protocol.task_from_fields(protocol.lease_task_fields(VARIANT)) == VARIANT


def test_variant_at_the_runner_scale_reuses_its_memo():
    runner = Runner(TINY)
    outcome, how = runner.run(PLAIN)
    assert how == "miss"
    same = replace(PLAIN, scale_params=(("noc_queue_size", TINY.noc_queue_size),))
    assert runner.run(same) == (outcome, "memo")
    assert runner.at_scale(TINY) is runner


def test_variant_runs_on_one_child_per_scale(tmp_path):
    from repro.store import ResultStore

    runner = Runner(TINY, store=ResultStore(tmp_path))
    outcome, how = runner.run(VARIANT)
    child = runner.at_scale(replace(TINY, noc_queue_size=16))
    assert child is not runner and runner.at_scale(child.scale) is child
    assert (child.store, child.traces, child.perf) == (runner.store, runner.traces, runner.perf)
    assert how == "miss" and runner.run(VARIANT) == (outcome, "memo")
    assert outcome == Runner(child.scale).run(PLAIN)[0]
    # The variant's baselines ran at its scale: a fresh runner there hits them.
    assert Runner(child.scale, store=ResultStore(tmp_path)).run(PLAIN)[1] == "hit"


def test_three_dispatchers_agree_on_variants(tmp_path):
    # A smaller workload changes the outcome, which TINY's queue sizes do not.
    cells = [PLAIN, VARIANT, replace(PLAIN, scale_params=(("workload_scale", 0.03),))]
    serial = run_sweep(TINY, cells, store_dir=str(tmp_path / "serial"))
    pooled = run_sweep(TINY, cells, store_dir=str(tmp_path / "pooled"), max_workers=2)
    with CoordinatorThread(TINY, cells, tmp_path / "fabric", ttl=30.0) as coord:
        FabricWorker("w", coord.address, tmp_path / "scratch", poll=0.02).run()
        coord.wait(timeout=60)
    fabric = collect_from_store(TINY, cells, str(tmp_path / "fabric"))
    assert serial.failed == pooled.failed == 0
    assert serial.outcomes == pooled.outcomes == fabric
    assert serial.outcomes[0] != serial.outcomes[2]
    reference = store_object_bytes(tmp_path / "serial")
    assert store_object_bytes(tmp_path / "pooled") == reference
    assert store_object_bytes(tmp_path / "fabric") == reference
