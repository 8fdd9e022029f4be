"""Tests for the fairness/throughput metrics and summary statistics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    BoxSummary,
    arithmetic_mean,
    box_summary,
    collaborative_speedup,
    fairness_index,
    geometric_mean,
    harmonic_mean_speedup,
    ideal_collaborative_speedup,
    normalize,
    speedup,
    system_throughput,
    weighted_speedup,
)
from repro.metrics.fairness import CoexecutionMetrics


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
        assert weighted_speedup([0.5, 0.7]) == pytest.approx(1.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            system_throughput([-1.0])

    def test_harmonic_mean(self):
        assert harmonic_mean_speedup([1.0, 1.0]) == 1.0
        assert harmonic_mean_speedup([0.5, 0.0]) == 0.0
        with pytest.raises(ValueError):
            harmonic_mean_speedup([])


class TestCoexecutionMetrics:
    def test_derived_values(self):
        metrics = CoexecutionMetrics(gpu_speedup=0.4, pim_speedup=0.8)
        assert metrics.fairness == 0.5
        assert metrics.throughput == pytest.approx(1.2)


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
    def test_box_summary(self):
        box = box_summary([1, 2, 3, 4, 5])
        assert box.minimum == 1
        assert box.median == 3
        assert box.maximum == 5
        assert box.q1 == 2 and box.q3 == 4

    def test_box_single_value(self):
        box = box_summary([7.0])
        assert box == BoxSummary(7.0, 7.0, 7.0, 7.0, 7.0)

    def test_box_empty_raises(self):
        with pytest.raises(ValueError):
            box_summary([])

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

    def test_normalize(self):
        assert normalize([2, 4], 2) == [1.0, 2.0]
        with pytest.raises(ValueError):
            normalize([1], 0)

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=30))
    def test_geomean_leq_mean(self, values):
        assert geometric_mean(values) <= arithmetic_mean(values) + 1e-9

    @settings(max_examples=100)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
    def test_box_ordering_invariant(self, values):
        box = box_summary(values)
        assert box.minimum <= box.q1 <= box.median <= box.q3 <= box.maximum
