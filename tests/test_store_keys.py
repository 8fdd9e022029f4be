"""Memoized store keys equal the reference fingerprints.

Every store key comes from :func:`repro.store.store_key`, which
assembles the canonical JSON from per-part memos instead of
canonicalizing a whole payload per cell.  The reference definition stays
``fingerprint(competitive_payload(...))`` /
``fingerprint(standalone_payload(...))``; these tests pin the two
byte-for-byte, and pin that the memo is keyed by value: a changed spec
gets a new key, an equal copy the old one, and values that compare equal
in Python but canonicalize differently (``1`` and ``1.0``) never share
a memo entry.  The source digest behind ``code_version`` covers the C
kernel as well as the Python modules.
"""

import copy
from dataclasses import replace

import pytest

from repro.core.policies import PolicySpec
from repro.experiments import ExperimentScale, default_grid_tasks
from repro.experiments.runner import GridTask, cell_key, make_cell
from repro.store import (
    competitive_payload,
    fingerprint,
    source_digest,
    standalone_payload,
    store_key,
)
from repro.workloads import get_gpu_kernel, get_pim_kernel
from repro.workloads.synthetic import GPUKernelProfile

RECORD = ExperimentScale(workload_scale=0.12, seed=1, starvation_factor=15)


def reference_competitive(scale, gid, pid, policy, num_vcs, gpu_spec=None, pim_spec=None):
    return fingerprint(
        competitive_payload(
            scale,
            scale.config(num_vcs),
            gid,
            pid,
            policy.name,
            policy.params,
            num_vcs,
            gpu_spec=gpu_spec or get_gpu_kernel(gid),
            pim_spec=pim_spec or get_pim_kernel(pid),
        )
    )


def reference_standalone(scale, label, spec, sms, num_vcs):
    return fingerprint(
        standalone_payload(scale, scale.config(num_vcs), label, spec, sms, num_vcs)
    )


def test_setup_of_record_grid_keys_equal_reference():
    tasks = default_grid_tasks()
    assert len(tasks) == 162
    for task in tasks:
        expected = reference_competitive(
            RECORD, task.gpu_id, task.pim_id, task.policy, task.num_vcs
        )
        assert cell_key(RECORD, task) == expected, task.label


@pytest.mark.parametrize("num_vcs", [1, 2])
def test_setup_of_record_standalone_keys_equal_reference(num_vcs):
    baselines = [(gid, get_gpu_kernel(gid), "gpu_sms_full") for gid in ("G6", "G17", "G19")]
    baselines += [(pid, get_pim_kernel(pid), "pim_sms") for pid in ("P1", "P2", "P7")]
    for label, spec, sms in baselines:
        cell = make_cell("standalone", label, num_vcs=num_vcs, sms=sms)
        assert cell_key(RECORD, cell) == reference_standalone(
            RECORD, label, spec, getattr(RECORD, sms), num_vcs
        ), label


@pytest.mark.parametrize(
    "scale",
    [
        RECORD,
        replace(RECORD, refresh_enabled=True),
        replace(RECORD, noc_queue_size=16),
        # These two are equal in Python but not in canonical JSON.
        replace(RECORD, workload_scale=1),
        replace(RECORD, workload_scale=1.0),
    ],
    ids=["record", "refresh", "queue16", "scale-int", "scale-float"],
)
@pytest.mark.parametrize(
    "policy",
    [
        PolicySpec("F3FS", mem_cap=2),
        PolicySpec("F3FS", mem_cap=2.0),
        PolicySpec("BLISS", threshold=4),
        PolicySpec("no-such-policy", x=1),
    ],
    ids=["f3fs-cap2", "f3fs-cap2.0", "bliss-default", "unregistered"],
)
def test_variant_keys_equal_reference(scale, policy):
    for num_vcs in (1, 2):
        key = store_key(
            "competitive",
            scale,
            num_vcs,
            policy=policy,
            workloads={"gpu_workload": get_gpu_kernel("G17"), "pim_workload": get_pim_kernel("P2")},
            gpu="G17",
            pim="P2",
        )
        assert key == reference_competitive(scale, "G17", "P2", policy, num_vcs)


def test_custom_spec_keys_equal_reference():
    spec = GPUKernelProfile(name="custom", accesses_per_warp=96, row_locality=0.75)
    key = store_key(
        "standalone", RECORD, 2, label="custom", sms=3, workloads={"workload": spec}
    )
    assert key == reference_standalone(RECORD, "custom", spec, 3, 2)
    assert store_key(
        "competitive",
        RECORD,
        1,
        policy=PolicySpec("FR-FCFS"),
        workloads={"gpu_workload": spec, "pim_workload": get_pim_kernel("P7")},
        gpu="custom",
        pim="P7",
    ) == reference_competitive(RECORD, "custom", "P7", PolicySpec("FR-FCFS"), 1, gpu_spec=spec)


def standalone(spec) -> str:
    return store_key("standalone", RECORD, 1, label="G17", sms=10, workloads={"workload": spec})


def test_changed_spec_fields_change_the_key():
    spec = replace(get_gpu_kernel("G17"))
    before = standalone(spec)
    spec.row_locality = 0.01  # kernel specs are mutable dataclasses
    after = standalone(spec)
    assert after != before
    assert after == reference_standalone(RECORD, "G17", spec, 10, 1)


def test_equal_spec_copy_shares_the_key():
    spec = get_gpu_kernel("G17")
    twin = copy.deepcopy(spec)
    assert twin is not spec
    assert standalone(twin) == standalone(spec)


def test_signed_zero_keys_apart():
    policies = [PolicySpec("no-such-policy", x=0.0), PolicySpec("no-such-policy", x=-0.0)]
    keys = [
        cell_key(RECORD, GridTask("G17", "P2", p.name, tuple(p.params.items()), 1))
        for p in policies
    ]
    assert keys[0] != keys[1]
    for key, policy in zip(keys, policies):
        assert key == reference_competitive(RECORD, "G17", "P2", policy, 1)


class TestSourceDigest:
    @pytest.fixture
    def package(self, tmp_path):
        (tmp_path / "engine").mkdir()
        (tmp_path / "engine" / "model.py").write_text("STEP = 1\n")
        (tmp_path / "engine" / "helper.c").write_text("int step(void) { return 1; }\n")
        (tmp_path / "README.txt").write_text("notes\n")
        return tmp_path

    def test_python_source_edit_changes_the_version(self, package):
        before = source_digest(package)
        (package / "engine" / "model.py").write_text("STEP = 2\n")
        assert source_digest(package) != before

    def test_other_files_do_not(self, package):
        before = source_digest(package)
        (package / "README.txt").write_text("more notes\n")
        (package / "engine" / "helper.c").write_text("int step(void) { return 2; }\n")
        assert source_digest(package) == before
