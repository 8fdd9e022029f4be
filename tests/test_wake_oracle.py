"""The engine's wake logic against an every-cycle oracle.

``GPUSystem`` ticks a memory controller only while it is dirty or its
wake cycle has come, steps an SM only while it is active, and visits a
channel's completions only when its earliest completion is due (see
docs/performance.md).  Each of those skips claims that the skipped call
would have changed nothing.  :class:`EveryCycleSystem` drops all three:
it forces every controller and SM dirty and ticks each of them every
cycle, and polls every channel for completions every cycle.  Both engines
must produce the same ``SimResult``, the same per-controller issue counts
and the same mode-switch records.

The cases cover every policy the figures sweep plus SMS under VC1 and
VC2, BLISS and Dyn-F3FS with a short interval (so their cycle-keyed
epochs turn many times while controllers sleep), refresh, the mesh, the
L1 under VC1 and VC2 (replies install lines that later loads read), and
8-entry MC queues (so requests arrive while a mode switch drains).
Without ``SchedulingPolicy.next_epoch_cycle`` bounding an idle
controller's sleep, the Dyn-F3FS cases diverge.
"""

import pytest

from repro.config import SystemConfig
from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec
from repro.request import reset_request_ids
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel

MAX_CYCLES = 6_000


class EveryCycleSystem(GPUSystem):
    """Ticks every controller and SM, and polls every channel, each cycle."""

    def _stage_completions(self) -> None:
        cycle = self.cycle
        for ch, controller in enumerate(self.controllers):
            done = controller.pop_completed(cycle)
            for request in done:
                self._handle_completion(ch, request, cycle)

    def _stage_controllers(self) -> None:
        cycle = self.cycle
        for controller in self.controllers:
            controller._dirty = True
            controller.tick(cycle)

    def _stage_sms(self) -> None:
        cycle = self.cycle
        for sm in self.sms:
            if sm.instance is None:
                continue
            sm._dirty = True
            before = sm.requests_injected
            issued = sm.step(cycle)
            if issued:
                sm.requests_injected = before + issued
                kernel_id = sm.instance.kernel_id
                self._injected[kernel_id] += issued
                self._kernel_inflight[kernel_id] += issued


def _case(policy, vcs, **config):
    spec = policy if isinstance(policy, PolicySpec) else PolicySpec(policy)
    params = ",".join(f"{k}={v}" for k, v in spec.params.items())
    extra = "".join(f"-{k}={v}" for k, v in config.items())
    label = f"{spec.name}{'(' + params + ')' if params else ''}-vc{vcs}{extra}"
    return pytest.param(spec, vcs, config, id=label)


CASES = (
    [_case(name, vcs) for name in [*PAPER_POLICY_ORDER, "SMS"] for vcs in (1, 2)]
    + [
        _case(PolicySpec(name, **params), vcs)
        for name, params in (
            ("Dyn-F3FS", {"epoch": 97}),
            ("Dyn-F3FS", {"epoch": 97, "initial_cap": 16}),
            ("BLISS", {"clear_interval": 97}),
        )
        for vcs in (1, 2)
    ]
    + [_case("F3FS", 2, refresh_enabled=True), _case("F3FS", 2, noc_topology="mesh")]
    # Replies install L1 lines that an issuable warp's next load reads.
    + [_case("FR-FCFS", vcs, l1_enabled=True) for vcs in (1, 2)]
    # Short MC queues keep the ingress backed up, so requests arrive while
    # switches drain.
    + [
        _case(name, vcs, mem_queue_size=8, pim_queue_size=8)
        for name in ("FCFS", "MEM-First", "G&I", "F3FS")
        for vcs in (1, 2)
    ]
)


def run(system_class, policy, vcs, config_fields):
    reset_request_ids()
    config = SystemConfig.scaled(num_channels=2, num_sms=4).replace(
        num_virtual_channels=vcs, **config_fields
    )
    system = system_class(config, policy, seed=3, scale=0.06)
    system.add_kernel(get_gpu_kernel("G17"), num_sms=3, loop=True)
    system.add_kernel(get_pim_kernel("P2"), num_sms=1, loop=True)
    result = system.run(max_cycles=MAX_CYCLES, until_all_complete_once=False)
    controllers = [
        (c.stats.mem_issued, c.stats.pim_issued, c.stats.switch_records)
        for c in system.controllers
    ]
    return result, controllers


@pytest.mark.parametrize("policy,vcs,config_fields", CASES)
def test_engine_matches_every_cycle_oracle(policy, vcs, config_fields):
    result, controllers = run(GPUSystem, policy, vcs, config_fields)
    expected, expected_controllers = run(EveryCycleSystem, policy, vcs, config_fields)
    assert sum(issued for c in controllers for issued in c[:2]) > 0
    assert controllers == expected_controllers
    assert result == expected
