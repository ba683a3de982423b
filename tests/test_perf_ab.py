"""The ratio and interval arithmetic of perf/ab.py, without running a workload."""

import importlib.util
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

AB = Path(__file__).resolve().parent.parent / "perf" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("perf_ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loading_the_tool_runs_nothing(ab):
    # no tree, workload or BLAS pin is touched until main() runs
    assert "ttdmrg_a" not in sys.modules and "ttdmrg_b" not in sys.modules


def test_pair_ratios_are_b_over_a(ab):
    assert ab.pair_ratios([2.0, 4.0, 1.0], [1.0, 4.0, 3.0]) == [0.5, 1.0, 3.0]
    for a, b in (([], []), ([1.0], [1.0, 2.0])):
        with pytest.raises(ValueError):
            ab.pair_ratios(a, b)


@pytest.mark.parametrize("q", [0.0, 0.025, 0.25, 0.5, 0.975, 1.0])
def test_quantile_interpolates_as_numpy_does(ab, q):
    values = list(np.random.default_rng(3).standard_normal(17))
    assert ab.quantile(values, q) == pytest.approx(float(np.quantile(values, q)), abs=1e-15)


def test_median_interval_brackets_the_median_and_repeats(ab):
    ratios = list(1.0 + 0.05 * np.random.default_rng(4).standard_normal(16))
    median, lo, hi = ab.median_interval(ratios)
    assert median == statistics.median(ratios)
    assert min(ratios) <= lo <= median <= hi <= max(ratios)
    assert ab.median_interval(ratios) == (median, lo, hi)
    # a wider level gives a wider interval
    _, lo99, hi99 = ab.median_interval(ratios, level=0.99)
    assert lo99 <= lo and hi <= hi99


def test_median_interval_of_equal_ratios_is_a_point(ab):
    assert ab.median_interval([1.0] * 8) == (1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ab.median_interval([])


def test_an_a_a_like_sample_contains_one_and_a_shift_does_not(ab):
    # timings of one tree against itself scatter around 1; a 10% faster
    # change moves the whole interval below 1
    rng = np.random.default_rng(5)
    times_a = list(1.0 + 0.02 * rng.standard_normal(16))
    same = list(1.0 + 0.02 * rng.standard_normal(16))
    faster = [0.9 * t for t in list(1.0 + 0.02 * rng.standard_normal(16))]
    _, lo, hi = ab.median_interval(ab.pair_ratios(times_a, same))
    assert lo <= 1.0 <= hi
    _, lo, hi = ab.median_interval(ab.pair_ratios(times_a, faster))
    assert hi < 1.0
