"""HBM DRAM substrate: timings, address mapping, banks, channels."""

from repro._exports import lazy_exports

_EXPORTS = {
    "AccessKind": "bank",
    "Bank": "bank",
    "BankState": "bank",
    "AddressMapper": "address",
    "DecodedAddress": "address",
    "PAPER_ADDRESS_MAP": "address",
    "scaled_address_map": "address",
    "Channel": "channel",
    "ChannelStats": "channel",
    "merge_intervals": "channel",
    "EnergyAccountant": "power",
    "EnergyBreakdown": "power",
    "EnergyParams": "power",
    "RefreshTimer": "refresh",
    "DataStore": "storage",
    "DRAMTimings": "timings",
    "Command": "validate",
    "Violation": "validate",
    "validate_command_log": "validate",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
