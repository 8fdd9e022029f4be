"""System configuration (Table I of the paper).

Two presets are provided:

* :meth:`SystemConfig.paper` — the full configuration from Table I
  (80 SMs, 32 channels, 512-entry NoC queues).  Faithful but slow in a
  pure-Python cycle simulator.
* :meth:`SystemConfig.scaled` — the default for tests and benchmarks: a
  proportionally scaled system (fewer channels/SMs, shorter queues) that
  preserves the ratios driving the paper's phenomena (PIM:MEM injection
  rate, queue:burst size, CAP:block size).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dram.address import PAPER_ADDRESS_MAP, AddressMapper, scaled_address_map
from repro.dram.timings import DRAMTimings


@dataclass(frozen=True)
class SystemConfig:
    """Full-system configuration.

    Attributes mirror Table I; see :class:`repro.dram.timings.DRAMTimings`
    for the DRAM timing fields.
    """

    # --- GPU ---
    num_sms: int = 80
    warps_per_sm: int = 4
    max_outstanding_per_sm: int = 64

    # --- Memory organization ---
    num_channels: int = 32
    banks_per_channel: int = 16
    address_map: str = PAPER_ADDRESS_MAP
    timings: DRAMTimings = field(default_factory=DRAMTimings)

    # --- Memory controller ---
    mem_queue_size: int = 64
    pim_queue_size: int = 64
    #: Model all-bank refresh (tREFI/tRFC).  Off by default: refresh adds
    #: ~6% noise to every experiment without changing any qualitative
    #: result; the refresh study enables it explicitly.
    refresh_enabled: bool = False

    # --- PIM ---
    pim_fus_per_channel: int = 8  # one FU per bank pair
    pim_rf_size: int = 16  # entries per FU (8 per bank)

    # --- Interconnect ---
    noc_queue_size: int = 512  # total entries per channel input queue
    num_virtual_channels: int = 1  # 1 = VC1 baseline, 2 = VC2 proposal
    sm_output_queue_size: int = 8
    reply_latency: int = 20  # fixed DRAM->SM return-path latency
    #: "crossbar" (paper baseline, iSlip) or "mesh" (multi-hop XY study).
    noc_topology: str = "crossbar"
    mesh_router_buffer: int = 8  # per-port buffer entries (mesh only)

    # --- L2 cache ---
    l2_size_bytes: int = 6 * 1024 * 1024
    l2_assoc: int = 16
    l2_latency: int = 30
    l2_mshrs_per_slice: int = 32

    # --- L1 cache (per SM; Table I: 32 KB L1D) ---
    #: Off by default: workload profiles are calibrated against the L2
    #: alone (see repro.cache.l1).  Enable for the L1 filtering study.
    l1_enabled: bool = False
    l1_size_bytes: int = 32 * 1024
    l1_assoc: int = 4
    l1_latency: int = 28

    def __post_init__(self) -> None:
        if self.num_sms < 1:
            raise ValueError("need at least one SM")
        if self.num_virtual_channels not in (1, 2):
            raise ValueError("num_virtual_channels must be 1 (VC1) or 2 (VC2)")
        if self.noc_topology not in ("crossbar", "mesh"):
            raise ValueError("noc_topology must be 'crossbar' or 'mesh'")
        if self.noc_queue_size < self.num_virtual_channels:
            raise ValueError("NoC queue too small for the VC split")
        mapper = self.mapper  # validates the address map spec
        if mapper.num_channels != self.num_channels:
            raise ValueError(
                f"address map encodes {mapper.num_channels} channels, "
                f"config says {self.num_channels}"
            )
        if mapper.num_banks != self.banks_per_channel:
            raise ValueError(
                f"address map encodes {mapper.num_banks} banks, "
                f"config says {self.banks_per_channel}"
            )
        if self.banks_per_channel % self.pim_fus_per_channel:
            raise ValueError("banks per channel must be a multiple of PIM FUs")
        if self.pim_rf_size % 2:
            raise ValueError("PIM RF is split between two banks; size must be even")

    def fingerprint_payload(self) -> dict:
        """Canonical identity of this configuration for the result store.

        Every field participates — the fields *are* the simulation input;
        derived properties (mapper, banks_per_fu) are functions of them.
        Spelled out rather than relying on generic dataclass traversal so
        that the cache-key contract is explicit and stays stable under
        refactors of :mod:`repro.store.fingerprint`.
        """
        from dataclasses import asdict

        payload = asdict(self)
        payload["__config__"] = type(self).__name__
        return payload

    @property
    def mapper(self) -> AddressMapper:
        return AddressMapper(self.address_map)

    @property
    def banks_per_fu(self) -> int:
        return self.banks_per_channel // self.pim_fus_per_channel

    @property
    def rf_entries_per_bank(self) -> int:
        """Register-file entries available to each bank (paper: 8)."""
        return self.pim_rf_size // self.banks_per_fu

    @property
    def with_vc2(self) -> "SystemConfig":
        """This configuration with the separate PIM virtual channel added."""
        return replace(self, num_virtual_channels=2)

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def paper(cls) -> "SystemConfig":
        """The configuration of Table I."""
        return cls()

    @classmethod
    def scaled(
        cls,
        num_channels: int = 8,
        num_sms: int = 10,
        noc_queue_size: int = 64,
        banks_per_channel: int = 16,
    ) -> "SystemConfig":
        """Laptop-scale configuration preserving the paper's ratios.

        Defaults: 8 channels x 16 banks, 10 SMs (8 "GPU" + 2 "PIM" in the
        standard competitive split), 64-entry NoC queues.  DRAM timings,
        queue sizes at the MC, and the PIM RF are kept at paper values.
        """
        channel_bits = (num_channels - 1).bit_length()
        if 1 << channel_bits != num_channels:
            raise ValueError("num_channels must be a power of two")
        bank_bits = (banks_per_channel - 1).bit_length()
        if 1 << bank_bits != banks_per_channel:
            raise ValueError("banks_per_channel must be a power of two")
        return cls(
            num_sms=num_sms,
            num_channels=num_channels,
            banks_per_channel=banks_per_channel,
            address_map=scaled_address_map(channel_bits, bank_bits=bank_bits),
            noc_queue_size=noc_queue_size,
            max_outstanding_per_sm=32,
        )
