"""Property-based tests for the result-store fingerprint.

The fingerprint is the cache's correctness boundary: two invocations
that would simulate the same thing must derive the same key (else the
cache never hits), and any input difference that could change a result
must change the key (else the cache returns wrong answers).  These tests
pin both directions plus the process-independence that resumable sweeps
rely on.
"""

import inspect
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec, make_policy
from repro.experiments import ExperimentScale
from repro.experiments.parallel import GridTask
from repro.experiments.runner import cell_key
from repro.store import (
    CODE_VERSION_ENV,
    canonical_json,
    canonical_policy,
    canonicalize,
    code_version,
    fingerprint,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

scales = st.builds(
    ExperimentScale,
    num_channels=st.sampled_from([2, 4, 8]),
    gpu_sms_full=st.integers(3, 10),
    gpu_sms_corun=st.integers(2, 8),
    pim_sms=st.integers(1, 2),
    noc_queue_size=st.sampled_from([16, 32, 64]),
    workload_scale=st.sampled_from([0.05, 0.1, 0.12, 0.25]),
    seed=st.integers(0, 7),
    max_cycles=st.sampled_from([100_000, 3_000_000]),
    starvation_factor=st.integers(5, 30),
    refresh_enabled=st.booleans(),
)

#: Per-field mutations guaranteed to stay inside ExperimentScale's and
#: SystemConfig's validation envelope.
SCALE_MUTATIONS = {
    "num_channels": lambda v: 4 if v != 4 else 8,
    "gpu_sms_full": lambda v: v + 1,
    "gpu_sms_corun": lambda v: v + 1,
    "pim_sms": lambda v: v + 1,
    "noc_queue_size": lambda v: v + 8,
    "workload_scale": lambda v: v + 0.01,
    "seed": lambda v: v + 1,
    "max_cycles": lambda v: v + 1,
    "starvation_factor": lambda v: v + 1,
    "refresh_enabled": lambda v: not v,
}


def grid_key(scale: ExperimentScale, policy: PolicySpec, num_vcs: int = 1) -> str:
    task = GridTask(
        gpu_id="G17",
        pim_id="P2",
        policy_name=policy.name,
        policy_params=tuple(sorted(policy.params.items())),
        num_vcs=num_vcs,
    )
    return cell_key(scale, task)


class TestCanonicalization:
    def test_dict_insertion_order_irrelevant(self):
        a = {"alpha": 1, "beta": [1, 2], "gamma": {"x": 1.5, "y": 2.5}}
        b = {"gamma": {"y": 2.5, "x": 1.5}, "beta": [1, 2], "alpha": 1}
        assert fingerprint(a) == fingerprint(b)

    def test_set_order_irrelevant(self):
        assert fingerprint({"s": {3, 1, 2}}) == fingerprint({"s": {2, 3, 1}})
        assert fingerprint({"s": frozenset("cab")}) == fingerprint({"s": set("abc")})

    def test_list_order_significant(self):
        assert fingerprint([1, 2]) != fingerprint([2, 1])

    def test_non_string_keys(self):
        assert fingerprint({1: "a", 2: "b"}) == fingerprint({2: "b", 1: "a"})

    def test_numpy_scalars_canonicalize_as_python(self):
        np = pytest.importorskip("numpy")
        assert fingerprint({"x": np.int64(7)}) == fingerprint({"x": 7})
        assert fingerprint({"x": np.float64(0.5)}) == fingerprint({"x": 0.5})

    def test_nonfinite_floats_do_not_crash(self):
        assert fingerprint(float("inf")) != fingerprint(float("-inf"))
        assert fingerprint(float("nan")) == fingerprint(float("nan"))

    def test_unknown_types_fail_loud(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            canonicalize(Opaque())

    def test_dataclass_includes_class_name(self):
        # Two dataclasses with identical fields must not collide.
        scale = ExperimentScale()
        payload = canonicalize(scale)
        assert payload["__dataclass__"] == "ExperimentScale"

    @given(scale=scales)
    @settings(max_examples=25, deadline=None)
    def test_equal_scales_hash_equal(self, scale):
        assert fingerprint(scale) == fingerprint(replace(scale))

    @given(scale=scales)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_canonical_json_is_parseable_and_sorted(self, scale):
        doc = json.loads(canonical_json(scale))
        assert list(doc) == sorted(doc)


class TestKeySensitivity:
    def test_every_scale_field_mutation_changes_key(self):
        scale = ExperimentScale(num_channels=4, workload_scale=0.05)
        base = grid_key(scale, PolicySpec("FR-FCFS"))
        assert set(SCALE_MUTATIONS) == {f.name for f in fields(ExperimentScale)}
        for name, mutate in SCALE_MUTATIONS.items():
            mutated = replace(scale, **{name: mutate(getattr(scale, name))})
            assert grid_key(mutated, PolicySpec("FR-FCFS")) != base, name

    def test_task_identity_fields_change_key(self):
        scale = ExperimentScale(num_channels=4, workload_scale=0.05)
        base = GridTask("G17", "P2", "FR-FCFS", (), 1)
        variants = [
            GridTask("G19", "P2", "FR-FCFS", (), 1),
            GridTask("G17", "P1", "FR-FCFS", (), 1),
            GridTask("G17", "P2", "F3FS", (), 1),
            GridTask("G17", "P2", "FR-FCFS", (), 2),
        ]
        keys = {cell_key(scale, v) for v in variants}
        assert cell_key(scale, base) not in keys
        assert len(keys) == len(variants)

    @given(
        name=st.sampled_from(["F3FS", "FR-FCFS-Cap", "BLISS"]),
        value=st.integers(1, 512),
    )
    @settings(max_examples=25, deadline=None)
    def test_param_value_feeds_key(self, name, value):
        scale = ExperimentScale(num_channels=4, workload_scale=0.05)
        param = {
            "F3FS": "mem_cap",
            "FR-FCFS-Cap": "cap",
            "BLISS": "threshold",
        }[name]
        with_value = grid_key(scale, PolicySpec(name, **{param: value}))
        with_other = grid_key(scale, PolicySpec(name, **{param: value + 1}))
        assert with_value != with_other

    def test_code_version_feeds_key(self, monkeypatch):
        scale = ExperimentScale(num_channels=4, workload_scale=0.05)
        monkeypatch.setenv(CODE_VERSION_ENV, "v1")
        first = grid_key(scale, PolicySpec("FR-FCFS"))
        monkeypatch.setenv(CODE_VERSION_ENV, "v2")
        second = grid_key(scale, PolicySpec("FR-FCFS"))
        assert first != second


class TestPolicyDefaults:
    def test_default_vs_explicit_hash_equal(self):
        """PolicySpec(name) == PolicySpec(name, **all constructor defaults)."""
        scale = ExperimentScale(num_channels=4, workload_scale=0.05)
        for name in PAPER_POLICY_ORDER:
            factory = type(make_policy(name))
            defaults = {
                pname: parameter.default
                for pname, parameter in inspect.signature(factory.__init__).parameters.items()
                if pname != "self" and parameter.default is not inspect.Parameter.empty
            }
            implicit = grid_key(scale, PolicySpec(name))
            explicit = grid_key(scale, PolicySpec(name, **defaults))
            assert implicit == explicit, name

    def test_param_dict_order_irrelevant(self):
        a = canonical_policy("F3FS", {"mem_cap": 8, "pim_cap": 16})
        b = canonical_policy("F3FS", {"pim_cap": 16, "mem_cap": 8})
        assert fingerprint(a) == fingerprint(b)

    def test_unknown_policy_params_pass_through(self):
        payload = canonical_policy("no-such-policy", {"x": 1})
        assert payload == {"name": "no-such-policy", "params": {"x": 1}}


CHILD_SCRIPT = """
import json, sys
from repro.experiments import ExperimentScale
from repro.experiments.parallel import GridTask
from repro.experiments.runner import cell_key
from repro.store import fingerprint

scale = ExperimentScale(num_channels=4, workload_scale=0.05, seed=3)
task = GridTask("G17", "P2", "F3FS", (("mem_cap", 8),), 2)
payload = {"nested": {"b": [1, 2.5], "a": {"deep": True}}, "s": {3, 1, 2}}
print(json.dumps({"task": cell_key(scale, task), "payload": fingerprint(payload)}))
"""


class TestCrossProcessStability:
    def test_keys_stable_across_processes_and_hash_seeds(self, monkeypatch):
        """No id()/set-iteration/hash-randomization leakage into keys."""
        monkeypatch.delenv(CODE_VERSION_ENV, raising=False)
        scale = ExperimentScale(num_channels=4, workload_scale=0.05, seed=3)
        task = GridTask("G17", "P2", "F3FS", (("mem_cap", 8),), 2)
        payload = {"nested": {"b": [1, 2.5], "a": {"deep": True}}, "s": {3, 1, 2}}
        expected = {
            "task": cell_key(scale, task),
            "payload": fingerprint(payload),
        }
        import os

        for hash_seed in ("0", "4242"):
            env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
            env.pop(CODE_VERSION_ENV, None)
            output = subprocess.run(
                [sys.executable, "-c", CHILD_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout
            assert json.loads(output) == expected, f"PYTHONHASHSEED={hash_seed}"

    def test_code_version_is_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) >= 8
