"""Tests for the fairness/throughput metrics and summary statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    arithmetic_mean,
    collaborative_speedup,
    fairness_index,
    geometric_mean,
    ideal_collaborative_speedup,
    speedup,
    system_throughput,
)


class TestSpeedup:
    def test_basic(self):
        assert speedup(100, 200) == 0.5
        assert speedup(100, 100) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup(0, 10)
        with pytest.raises(ValueError):
            speedup(10, 0)


class TestFairnessIndex:
    def test_equal_speedups_are_fair(self):
        assert fairness_index(0.5, 0.5) == 1.0

    def test_symmetry(self):
        assert fairness_index(0.2, 0.8) == fairness_index(0.8, 0.2)

    def test_starvation_is_zero(self):
        assert fairness_index(0.0, 0.9) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fairness_index(-0.1, 0.5)

    @settings(max_examples=100)
    @given(
        a=st.floats(min_value=0.001, max_value=10),
        b=st.floats(min_value=0.001, max_value=10),
    )
    def test_bounds(self, a, b):
        fi = fairness_index(a, b)
        assert 0.0 < fi <= 1.0


class TestThroughput:
    def test_sum(self):
        assert system_throughput([0.5, 0.7]) == pytest.approx(1.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            system_throughput([-1.0])


class TestCollaborative:
    def test_speedup_vs_sequential(self):
        assert collaborative_speedup(100, 100, 200) == 1.0
        assert collaborative_speedup(100, 100, 100) == 2.0

    def test_ideal(self):
        assert ideal_collaborative_speedup(100, 50) == 1.5
        assert ideal_collaborative_speedup(100, 100) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            collaborative_speedup(100, 100, 0)
        with pytest.raises(ValueError):
            ideal_collaborative_speedup(0, 0)


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([3]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([1, 0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1, 2, 3]) == 2.0
        with pytest.raises(ValueError):
            arithmetic_mean([])

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=30))
    def test_geomean_leq_mean(self, values):
        assert geometric_mean(values) <= arithmetic_mean(values) + 1e-9
