"""perf/coarse_memory.py's probe on a small case, in this process."""

import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from ttdmrg import twolevel

PROBE = Path(__file__).resolve().parent.parent / "perf" / "coarse_memory.py"


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("perf_coarse_memory", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_cases_are_the_large_bond_table(probe):
    assert probe.CASES == {
        "one-site-r32": ("one-site", 32),
        "one-site-r64": ("one-site", 64),
        "two-site-r64": ("two-site", 64),
    }


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_a_small_case_reports_both_phases_and_restores_the_names(probe, mode):
    reals = (twolevel.local_solves, twolevel.assemble_coarse)
    out = probe.measure(mode, 3, sites=6, op_rank=3, iters=2)
    assert (twolevel.local_solves, twolevel.assemble_coarse) == reals
    assert not tracemalloc.is_tracing()
    calls = out["calls"]
    assert calls["local_solves"] == calls["assemble_coarse"] >= 1
    for phase in ("local_solves_mib", "assemble_coarse_mib"):
        assert 0.0 < out[phase] <= out["traced_peak_mib"]
