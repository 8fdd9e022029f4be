"""2D-mesh interconnect (alternative to the baseline crossbar).

The paper evaluates a crossbar between SMs and memory partitions; larger
GPUs use multi-hop networks where the PIM-congestion problem is *worse*
(backpressure propagates hop by hop).  This module provides a
dimension-ordered (XY) wormhole mesh with per-link virtual-channel
buffers, so the VC1/VC2 comparison can be reproduced on a multi-hop
topology (``SystemConfig.noc_topology = "mesh"``).

Model summary:

* Nodes are laid out row-major on a ``width x height`` grid.  SMs occupy
  the first nodes, memory channels the last ones (so traffic crosses the
  mesh).
* Each router has five input ports (N/S/E/W/LOCAL), each a
  :class:`~repro.noc.vc.VCBuffer` of ``router_buffer`` entries (split in
  half per VC under VC2 — the same total-capacity rule as the paper's
  crossbar queues).
* One flit (request) per output link per cycle; per-output round-robin
  arbitration over input ports, with the same per-link VC alternation as
  the modified iSlip of Section V-A (the VCBuffer's rotation).
* Two-phase update: all moves are computed against cycle-start state and
  then applied, so a flit advances at most one hop per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.noc.vc import VCBuffer
from repro.request import Request

#: Port names; OPPOSITE[d] is the input port a flit arrives on after
#: leaving through output d.
NORTH, SOUTH, EAST, WEST, LOCAL = "N", "S", "E", "W", "L"
PORTS = (NORTH, SOUTH, EAST, WEST, LOCAL)
OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}


@dataclass(frozen=True)
class MeshShape:
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")

    @property
    def nodes(self) -> int:
        return self.width * self.height

    def coordinates(self, node: int) -> Tuple[int, int]:
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        return y * self.width + x

    @staticmethod
    def fit(min_nodes: int) -> "MeshShape":
        """Smallest near-square mesh with at least ``min_nodes`` nodes."""
        width = 1
        while width * width < min_nodes:
            width += 1
        height = width
        while width * (height - 1) >= min_nodes:
            height -= 1
        return MeshShape(width, height)


class MeshRouter:
    """One mesh router: five VC-buffered input ports."""

    def __init__(self, node: int, buffer_size: int, num_vcs: int) -> None:
        self.node = node
        self.ports: Dict[str, VCBuffer] = {
            port: VCBuffer(buffer_size, num_vcs, name=f"r{node}/{port}")
            for port in PORTS
        }

    def occupancy(self) -> int:
        return sum(len(buffer) for buffer in self.ports.values())


class MeshFabric:
    """Dimension-ordered mesh connecting SM buffers to channel buffers."""

    def __init__(
        self,
        num_sms: int,
        num_channels: int,
        num_vcs: int = 1,
        shape: Optional[MeshShape] = None,
        router_buffer: int = 8,
    ) -> None:
        self.shape = shape or MeshShape.fit(num_sms + num_channels)
        if self.shape.nodes < num_sms + num_channels:
            raise ValueError(
                f"mesh {self.shape.width}x{self.shape.height} too small for "
                f"{num_sms} SMs + {num_channels} channels"
            )
        self.num_sms = num_sms
        self.num_channels = num_channels
        self.routers = [
            MeshRouter(node, router_buffer, num_vcs) for node in range(self.shape.nodes)
        ]
        # Placement: SMs first, channels at the tail of the grid.
        self._sm_node = {i: i for i in range(num_sms)}
        self._channel_node = {
            c: self.shape.nodes - num_channels + c for c in range(num_channels)
        }
        self._node_channel = {node: c for c, node in self._channel_node.items()}
        self.transfers = 0  # ejections into channel buffers
        self.hops = 0
        #: Flits currently inside the mesh (router port occupancy), kept
        #: incrementally so the engine can skip the whole fabric stage when
        #: nothing is in flight and no SM has traffic to inject.
        self.occupancy = 0

    # -- routing -----------------------------------------------------------

    def _route(self, node: int, dest: int) -> str:
        """XY dimension-ordered routing: X first, then Y."""
        x, y = self.shape.coordinates(node)
        dx, dy = self.shape.coordinates(dest)
        if x < dx:
            return EAST
        if x > dx:
            return WEST
        if y < dy:
            return SOUTH
        if y > dy:
            return NORTH
        return LOCAL

    def _neighbor(self, node: int, direction: str) -> int:
        x, y = self.shape.coordinates(node)
        if direction == EAST:
            return self.shape.node_at(x + 1, y)
        if direction == WEST:
            return self.shape.node_at(x - 1, y)
        if direction == SOUTH:
            return self.shape.node_at(x, y + 1)
        if direction == NORTH:
            return self.shape.node_at(x, y - 1)
        raise ValueError(direction)

    # -- one cycle -----------------------------------------------------------

    def step(
        self,
        cycle: int,
        sm_buffers: Sequence[VCBuffer],
        channel_buffers: Sequence[VCBuffer],
    ) -> List[Tuple[int, Request]]:
        """Advance every flit by at most one hop; returns ejections.

        The input-port arbitration order depends only on ``cycle``, so
        skipping ``step`` on idle cycles cannot shift it.
        """
        moves = self._plan_moves(cycle, channel_buffers)
        ejected = self._apply_moves(moves, channel_buffers)
        self._inject(sm_buffers)
        return ejected

    def _plan_moves(
        self, cycle: int, channel_buffers
    ) -> List[Tuple[int, str, Request, str]]:
        """Pick at most one flit per (router, output port), by RR."""
        moves: List[Tuple[int, str, Request, str]] = []
        # Capacity claims this cycle, so two flits don't target one slot.
        claimed: Dict[Tuple[int, str, bool], int] = {}
        port_order = self._rr_ports(cycle)
        for router in self.routers:
            used_outputs = set()
            for in_port in port_order:
                buffer = router.ports[in_port]
                if not buffer:
                    continue
                for head in buffer.heads():
                    dest_node = self._channel_node[head.channel]
                    direction = self._route(router.node, dest_node)
                    if direction in used_outputs:
                        continue
                    if not self._target_can_accept(
                        router.node, direction, head, channel_buffers, claimed
                    ):
                        continue
                    moves.append((router.node, in_port, head, direction))
                    used_outputs.add(direction)
                    key = self._claim_key(router.node, direction, head)
                    claimed[key] = claimed.get(key, 0) + 1
                    break  # one flit per input port per cycle
        return moves

    @staticmethod
    def _rr_ports(cycle: int) -> List[str]:
        # Serve input ports starting from an offset that rotates with the
        # clock, so no direction is systematically favoured.
        start = cycle % len(PORTS)
        return [PORTS[(start + i) % len(PORTS)] for i in range(len(PORTS))]

    def _claim_key(self, node: int, direction: str, request: Request):
        if direction == LOCAL:
            return (node, LOCAL, request.is_pim)
        return (self._neighbor(node, direction), OPPOSITE[direction], request.is_pim)

    def _target_can_accept(
        self, node, direction, request, channel_buffers, claimed
    ) -> bool:
        key = self._claim_key(node, direction, request)
        pending = claimed.get(key, 0)
        if direction == LOCAL:
            target = channel_buffers[self._node_channel[node]]
        else:
            neighbor = self._neighbor(node, direction)
            target = self.routers[neighbor].ports[OPPOSITE[direction]]
        return target.queue_for(request).free_space > pending

    def _apply_moves(self, moves, channel_buffers) -> List[Tuple[int, Request]]:
        ejected: List[Tuple[int, Request]] = []
        # Pop all moving flits first (two-phase: decisions were made
        # against cycle-start state), then push.
        popped: List[Tuple[Request, int, str]] = []
        for node, in_port, head, direction in moves:
            request = self.routers[node].ports[in_port].pop_matching(head)
            popped.append((request, node, direction))
        for request, node, direction in popped:
            if direction == LOCAL:
                channel = self._node_channel[node]
                if not channel_buffers[channel].try_push(request):  # pragma: no cover
                    raise RuntimeError("mesh ejection flow control violated")
                ejected.append((channel, request))
                self.transfers += 1
                self.occupancy -= 1
            else:
                neighbor = self._neighbor(node, direction)
                target = self.routers[neighbor].ports[OPPOSITE[direction]]
                if not target.try_push(request):  # pragma: no cover
                    raise RuntimeError("mesh flow control violated")
                self.hops += 1
        return ejected

    def _inject(self, sm_buffers: Sequence[VCBuffer]) -> None:
        for sm_index, buffer in enumerate(sm_buffers):
            if not buffer:
                continue
            router = self.routers[self._sm_node[sm_index]]
            local = router.ports[LOCAL]
            for head in buffer.heads():
                if local.queue_for(head).full:
                    continue
                request = buffer.pop_matching(head)
                local.try_push(request)
                self.occupancy += 1
                break  # one injection per SM per cycle

    def in_flight(self) -> int:
        return sum(router.occupancy() for router in self.routers)

    def average_hops(self) -> float:
        return self.hops / self.transfers if self.transfers else 0.0
