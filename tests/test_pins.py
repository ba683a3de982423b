"""Bitwise pins of small end-to-end runs.

Each case runs one solver configuration from a seeded random start (rank 3,
seed 7 unless the case names its own) and records the ``repr`` of every
energy in its trace, the full ``ledger.report()``, a digest of the final
cores and a digest of the trace's CSV text.  Refactors that leave the
arithmetic alone must reproduce all four exactly.  Floating-point results depend on the numpy/BLAS build, so the pins
are only compared on the stack they were recorded with.

Regenerate (only when the arithmetic is meant to change, and say why):

    PYTHONPATH=src python tests/test_pins.py --write

which prints, per case, which of ``energies``, ``ledger``, ``state_sha256``
and ``csv_sha256`` differ from the file it replaces, the largest relative
move of a recorded energy, and which ledger report entries moved.
"""

import contextlib
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from ttdmrg.dmrg import SweepConfig, run_dmrg
from ttdmrg.ledger import CostLedger
from ttdmrg.models import heisenberg_chain, ising_chain
from ttdmrg.tt import random_tt
from ttdmrg.twolevel import TwoLevelConfig, run_two_level

PIN_FILE = Path(__file__).with_name("pins.json")

CASES = {
    # one-site sweeps keep the start's rank, so the cap is the start's
    "dmrg1-heis-d8": (heisenberg_chain(8), SweepConfig(mode="one-site", max_rank=3)),
    "dmrg2-ising-d10": (ising_chain(10), SweepConfig(mode="two-site", max_rank=8)),
    # the forcing rule's end-game clause solves half-sweep 5 tight and ends
    # the run there, a half-sweep earlier than without it
    "dmrg2-heis-d12": (
        heisenberg_chain(12), SweepConfig(mode="two-site", max_rank=16), (2, 0)
    ),
    "a2dmrg1-heis-d8": (
        heisenberg_chain(8), TwoLevelConfig(mode="one-site", max_rank=6, max_iters=4)
    ),
    "a2dmrg2-ising-d8": (
        ising_chain(8), TwoLevelConfig(mode="two-site", max_rank=6, max_iters=4)
    ),
    "a2dmrg1-structured-ising-d7": (
        ising_chain(7),
        TwoLevelConfig(mode="one-site", max_rank=4, max_iters=3, structured_coarse=True),
    ),
    "a2dmrg2-structured-heis-d7": (
        heisenberg_chain(7),
        TwoLevelConfig(mode="two-site", max_rank=4, max_iters=3, structured_coarse=True),
    ),
    "a2dmrg2-fallback-heis-d8": (
        heisenberg_chain(8),
        TwoLevelConfig(mode="two-site", max_rank=6, max_iters=3),
    ),
    "a2dmrg2-workers3-ising-d8": (
        ising_chain(8), TwoLevelConfig(mode="two-site", max_rank=6, max_iters=3, workers=3)
    ),
    # the cases above all stop at max_iters; these two end on the stop test,
    # after 9 iterations (7 solved loose) and 38 iterations
    "a2dmrg2-converged-ising-d8": (
        ising_chain(8), TwoLevelConfig(mode="two-site", max_rank=6)
    ),
    "a2dmrg1-converged-heis-d8": (
        heisenberg_chain(8), TwoLevelConfig(mode="one-site", max_rank=6)
    ),
}


def stack():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, {platform.machine()}"


def run_case(name):
    return run_config(*CASES[name])


def run_config(op, config, start=(3, 7)):
    rank, seed = start
    init = random_tt(op.dims, rank, seed=seed)
    ledger = CostLedger()
    if isinstance(config, SweepConfig):
        state, trace = run_dmrg(init, op, config, ledger)
        energies = [m.energy for m in trace.micro] + trace.half_sweep_energies
    else:
        state, trace = run_two_level(init, op, config, ledger)
        energies = [r.energy for r in trace.records]
        energies += [r.coarse_energy for r in trace.records]
    digest = hashlib.sha256()
    for core in state.cores:
        digest.update(np.ascontiguousarray(core).tobytes())
    return {
        "energies": [repr(float(e)) for e in energies],
        "ledger": ledger.report(),
        "state_sha256": digest.hexdigest(),
        "csv_sha256": hashlib.sha256(trace.to_csv().encode()).hexdigest(),
    }


def load_pins():
    return json.loads(PIN_FILE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_pin(name):
    pins = load_pins()
    if pins["stack"] != stack():
        pytest.skip(f"pins recorded on {pins['stack']}, running on {stack()}")
    # every two-level case but the two "converged" ones stops at max_iters
    config = CASES[name][1]
    stops = isinstance(config, TwoLevelConfig) and "converged" not in name
    with pytest.warns(RuntimeWarning, match=f"max_iters = {config.max_iters} without") if stops \
            else contextlib.nullcontext():
        got = json.loads(json.dumps(run_case(name)))
    want = pins["cases"][name]
    assert got["energies"] == want["energies"]
    assert got["ledger"] == want["ledger"]
    assert got["state_sha256"] == want["state_sha256"]
    assert got["csv_sha256"] == want["csv_sha256"]


def largest_energy_move(new, old):
    """Largest relative change over the energies both lists record."""
    moves = [abs(float(a) - float(b)) / max(abs(float(b)), 1e-300) for a, b in zip(new, old)]
    return max(moves, default=0.0)


def moved_ledger_entries(new, old):
    """Ledger report entries that differ, nested ones as ``key.subkey``."""
    moved = []
    for key in sorted(set(new) | set(old)):
        a, b = new.get(key), old.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            subs = sorted(set(a) | set(b))
            moved += [f"{key}.{sub}" for sub in subs if a.get(sub) != b.get(sub)]
        elif a != b:
            moved.append(key)
    return moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_pins.py --write")
    old = load_pins()["cases"] if PIN_FILE.exists() else {}
    out = {"stack": stack(), "cases": {name: run_case(name) for name in sorted(CASES)}}
    out = json.loads(json.dumps(out))
    for name, case in out["cases"].items():
        prev = old.get(name, {})
        moved = [key for key in sorted(case) if case[key] != prev.get(key)]
        line = f"{name}: {', '.join(moved) or 'unchanged'}"
        if "energies" in moved and prev:
            move = largest_energy_move(case["energies"], prev["energies"])
            line += f" (largest relative energy move {move:.3e}"
            if len(case["energies"]) != len(prev["energies"]):
                line += f"; {len(prev['energies'])} -> {len(case['energies'])} energies"
            line += ")"
        if "ledger" in moved and prev:
            entries = moved_ledger_entries(case["ledger"], prev["ledger"])
            line += f"\n  ledger moved: {', '.join(entries)}"
        print(line)
    PIN_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
