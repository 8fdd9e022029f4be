"""Tests for system configuration presets and validation."""

import pytest

from repro.config import SystemConfig
from repro.dram.timings import DRAMTimings


class TestPaperPreset:
    def test_table1_values(self):
        config = SystemConfig.paper()
        assert config.num_sms == 80
        assert config.num_channels == 32
        assert config.banks_per_channel == 16
        assert config.mem_queue_size == 64
        assert config.pim_queue_size == 64
        assert config.noc_queue_size == 512
        assert config.pim_fus_per_channel == 8
        assert config.pim_rf_size == 16
        assert config.l2_size_bytes == 6 * 1024 * 1024

    def test_derived_values(self):
        config = SystemConfig.paper()
        assert config.banks_per_fu == 2
        assert config.rf_entries_per_bank == 8

    def test_address_map_consistent(self):
        config = SystemConfig.paper()
        assert config.mapper.num_channels == config.num_channels
        assert config.mapper.num_banks == config.banks_per_channel


class TestScaledPreset:
    def test_defaults(self):
        config = SystemConfig.scaled()
        assert config.num_channels == 8
        assert config.num_sms == 10
        assert config.noc_queue_size == 64
        # DRAM timings stay at paper values.
        assert config.timings == DRAMTimings()

    def test_custom_channels(self):
        config = SystemConfig.scaled(num_channels=4)
        assert config.mapper.num_channels == 4

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            SystemConfig.scaled(num_channels=6)
        with pytest.raises(ValueError):
            SystemConfig.scaled(banks_per_channel=12)


class TestVCHelpers:
    def test_with_vc2(self):
        config = SystemConfig.scaled()
        assert config.num_virtual_channels == 1
        assert config.with_vc2.num_virtual_channels == 2
        assert config.with_vc2.replace(num_virtual_channels=1) == config

    def test_replace_preserves_other_fields(self):
        config = SystemConfig.scaled().replace(mem_queue_size=32)
        assert config.mem_queue_size == 32
        assert config.num_channels == 8


class TestValidation:
    def test_rejects_mismatched_address_map(self):
        with pytest.raises(ValueError):
            SystemConfig(num_channels=16)  # paper map encodes 32

    def test_rejects_bad_vc_count(self):
        with pytest.raises(ValueError):
            SystemConfig(num_virtual_channels=0)

    def test_rejects_tiny_noc_queue(self):
        with pytest.raises(ValueError):
            SystemConfig(noc_queue_size=1, num_virtual_channels=2)

    def test_rejects_uneven_fu_split(self):
        with pytest.raises(ValueError):
            SystemConfig(pim_fus_per_channel=5)

    def test_rejects_odd_rf(self):
        with pytest.raises(ValueError):
            SystemConfig(pim_rf_size=15)

    def test_rejects_no_sms(self):
        with pytest.raises(ValueError):
            SystemConfig(num_sms=0)
