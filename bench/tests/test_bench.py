"""Checks on the benchmark itself: its references, its metric names and its
tracer.  Run with ``python3 -m pytest bench/tests``."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import references
import run
import tracer
from ttdmrg import (
    CostLedger,
    SweepConfig,
    TwoLevelConfig,
    dense_ground_state,
    heisenberg_chain,
    ising_chain,
    random_tt,
    run_dmrg,
    run_two_level,
    tt_scale,
)
from workloads import WORKLOADS, Solve, gate

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_free_fermion_matches_dense_oracle(d):
    e_dense, _ = dense_ground_state(ising_chain(d), cap=1 << 24)
    assert references.free_fermion_ising_energy(d) == pytest.approx(e_dense, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("d", [3, 6, 9])
def test_kronecker_heisenberg_matches_operator_train(d):
    dense = heisenberg_chain(d).to_dense()
    assert np.allclose(references.heisenberg_sparse(d).toarray(), dense, atol=1e-14)


def test_stored_heisenberg_d16_matches_eigsh():
    assert references.heisenberg_sparse_energy(16) == pytest.approx(
        references.HEISENBERG_D16, rel=1e-12
    )


def test_stored_heisenberg_d48_matches_rank_128_sweeps():
    op = heisenberg_chain(48)
    x = random_tt(op.dims, 2, seed=0)
    cfg = SweepConfig(mode="two-site", max_rank=128, svd_tol=0.0, eig_tol=1e-11,
                      energy_tol=1e-10)
    _, trace = run_dmrg(tt_scale(x, 1.0 / x.norm()), op, cfg)
    assert trace.half_sweep_energies[-1] == pytest.approx(references.HEISENBERG_D48, rel=1e-11)


def test_gate_rejects_each_failure_kind():
    ref = -10.0
    assert gate(Solve(-10.0 + 1e-6, (), 1, True), ref) == []
    assert gate(Solve(-10.0 + 1e-6, (), 1, False), ref) == ["converged=False"]
    assert len(gate(Solve(-9.0, (), 1, True), ref)) == 1
    assert len(gate(Solve(-10.0 - 1e-6, (), 1, True), ref)) == 1


def _benchmark_json():
    return json.loads(BENCHMARK_JSON.read_text())


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = _benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in list(end_to_end) + list(per_layer) + list(WORKLOADS):
        assert NAME.match(name), name


def _bound_names():
    names = []
    for module_name, path in [entry[:2] for entry in tracer.LAYER_NAMES] + [tracer.POOL_NAME]:
        owner, attr = tracer._resolve(module_name, path)
        names.append((owner, attr, vars(owner)[attr]))
    return names


def test_tracer_restores_every_wrapped_name():
    before = _bound_names()
    with tracer.Tracer():
        during = _bound_names()
    after = _bound_names()
    assert all(b[2] is not d[2] for b, d in zip(before, during))
    assert all(b[2] is a[2] for b, a in zip(before, after))


def test_tracer_restores_names_when_the_run_raises():
    before = _bound_names()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert all(b[2] is a[2] for b, a in zip(before, _bound_names()))


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_two_level_run_is_bitwise_equal_and_self_times_add_up(workers):
    op = heisenberg_chain(6)
    x = random_tt(op.dims, 2, seed=1)
    x = tt_scale(x, 1.0 / x.norm())
    cfg = TwoLevelConfig(mode="one-site", max_rank=4, energy_tol=1e-6, workers=workers)
    plain = CostLedger()
    _, trace = run_two_level(x, op, cfg, ledger=plain)
    traced = CostLedger()
    with tracer.Tracer() as t:
        _, traced_trace = t.call(tracer.ROOT, run_two_level, x, op, cfg, ledger=traced)
    assert traced_trace.energies() == trace.energies()
    assert traced.report() == plain.report()
    rows = tracer.summarize(t.spans)
    assert rows["twolevel.local_solves"]["calls"] == len(trace.records)
    assert t.counts["coarse_m"] == len(trace.records) * (op.d + 1)
    root = next(s for s in t.spans if s.name == tracer.ROOT)
    assert all(s.parent is not None for s in t.spans if s is not root)
    selfs = tracer.self_times(t.spans)
    assert all(v >= 0.0 for v in selfs.values())
    if workers == 1:
        assert sum(selfs.values()) == pytest.approx(root.end - root.start, rel=1e-9)
