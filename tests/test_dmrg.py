"""Sweep engine checked against dense projections and exact ground states."""

import csv
import io

import numpy as np
import pytest

import oracles
from ttdmrg.dmrg import (
    SweepConfig,
    micro_step,
    run_dmrg,
    split_and_shift,
)
from ttdmrg.ledger import CostLedger
from ttdmrg.models import dense_ground_state, heisenberg_chain, ising_chain, random_symmetric_mpo
from ttdmrg.mpo import MatrixProductOperator, mpo_to_dense, rayleigh_quotient
from ttdmrg.tt import TensorTrain, orthogonalize, random_tt


def test_split_reassembles_exactly():
    rng = np.random.default_rng(0)
    block = rng.standard_normal((3, 2, 2, 3))
    for direction in ("LR", "RL"):
        left, right, discarded = split_and_shift(block, direction)
        assert discarded == 0.0
        back = np.tensordot(left, right, axes=([2], [0]))
        np.testing.assert_allclose(back, block, atol=1e-12)
    left, right, _ = split_and_shift(block, "LR")
    lm = left.reshape(-1, left.shape[2])
    np.testing.assert_allclose(lm.T @ lm, np.eye(lm.shape[1]), atol=1e-12)
    left, right, _ = split_and_shift(block, "RL")
    rm = right.reshape(right.shape[0], -1)
    np.testing.assert_allclose(rm @ rm.T, np.eye(rm.shape[0]), atol=1e-12)


def test_split_truncation_reports_discarded_weight():
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    s = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 0.125])
    block = (u @ np.diag(s) @ v.T).reshape(3, 2, 2, 3)
    left, right, discarded = split_and_shift(block, "LR", max_rank=3)
    assert left.shape[2] == 3
    assert np.isclose(discarded, np.sqrt(np.sum(s[3:] ** 2)))
    # relative cutoff keeps sigma > tol * sigma_max
    left, right, discarded = split_and_shift(block, "LR", svd_tol=0.3)
    assert left.shape[2] == 2
    assert np.isclose(discarded, np.sqrt(np.sum(s[2:] ** 2)))
    with pytest.raises(ValueError, match="direction"):
        split_and_shift(block, "UP")


@pytest.mark.parametrize("site", [0, 1, 3])
def test_micro_step_1site_matches_dense(site):
    dims = (2, 2, 2, 2)
    op = random_symmetric_mpo(4, rank=2, seed=3)
    state = orthogonalize(random_tt(dims, (2, 3, 2), seed=4), center=site)

    core, res = micro_step(state, op, 1, tol=1e-12)
    p = oracles.site_projector(state.cores, site)
    a = p.T @ mpo_to_dense(op) @ p
    w, v = np.linalg.eigh(a)
    assert res.converged
    assert np.isclose(res.eigenvalue, w[0], atol=1e-9)
    overlap = abs(np.dot(core.ravel(), v[:, 0]))
    assert np.isclose(overlap, 1.0, atol=1e-7)


@pytest.mark.parametrize("site", [0, 2])
def test_micro_step_2site_matches_dense(site):
    dims = (2, 2, 2, 2)
    op = random_symmetric_mpo(4, rank=2, seed=5)
    state = orthogonalize(random_tt(dims, (2, 2, 2), seed=6), center=site)

    block, res = micro_step(state, op, 2, tol=1e-12)
    p = oracles.block_projector(state.cores, site)
    a = p.T @ mpo_to_dense(op) @ p
    w, v = np.linalg.eigh(a)
    assert np.isclose(res.eigenvalue, w[0], atol=1e-9)
    assert block.shape == (
        state.ranks[site],
        dims[site],
        dims[site + 1],
        state.ranks[site + 2],
    )


def test_micro_step_needs_gauge():
    op = ising_chain(3)
    state = random_tt((2, 2, 2), (2, 2), seed=0)
    with pytest.raises(ValueError, match="site-orthogonal"):
        micro_step(state, op, 1)
    state = orthogonalize(state, 2)
    with pytest.raises(ValueError, match="neighbor"):
        micro_step(state, op, 2)


def test_two_site_ising_reaches_exact_ground_state():
    d = 4
    op = ising_chain(d)
    energy_ref, _ = dense_ground_state(op)
    init = random_tt((2,) * d, (2,) * (d - 1), seed=7)
    config = SweepConfig(mode="two-site", max_rank=8, eig_tol=1e-10, energy_tol=1e-10)
    ledger = CostLedger()
    state, trace = run_dmrg(init, op, config, ledger)

    assert trace.converged
    energy = trace.half_sweep_energies[-1]
    assert abs(energy - energy_ref) <= 1e-8 * abs(energy_ref)
    # the returned train is consistent with the reported energy
    assert np.isclose(rayleigh_quotient(state, op), energy, atol=1e-8)
    assert state.center in (0, d - 1)
    assert ledger.total_flops() > 0


def test_two_site_heisenberg_reaches_exact_ground_state():
    d = 4
    op = heisenberg_chain(d)
    energy_ref, _ = dense_ground_state(op)
    init = random_tt((2,) * d, (2,) * (d - 1), seed=8)
    config = SweepConfig(mode="two-site", max_rank=8, eig_tol=1e-10, energy_tol=1e-10)
    state, trace = run_dmrg(init, op, config)
    assert trace.converged
    assert abs(trace.half_sweep_energies[-1] - energy_ref) <= 1e-8 * abs(energy_ref)


def test_one_site_at_full_rank_is_exact_after_one_half_sweep():
    # with full separation ranks the interior solve is unconstrained, so
    # the first pass already lands on the exact ground state
    d = 4
    op = ising_chain(d)
    energy_ref, _ = dense_ground_state(op)
    init = random_tt((2,) * d, (2, 4, 2), seed=9)
    config = SweepConfig(mode="one-site", eig_tol=1e-12, energy_tol=1e-12, max_half_sweeps=6)
    state, trace = run_dmrg(init, op, config)
    assert abs(trace.half_sweep_energies[0] - energy_ref) <= 1e-9 * abs(energy_ref)
    assert trace.converged


def test_one_site_preserves_ranks():
    d = 5
    op = ising_chain(d)
    init = random_tt((2,) * d, (2, 3, 3, 2), seed=10)
    config = SweepConfig(mode="one-site", max_half_sweeps=4, energy_tol=0.0)
    state, _ = run_dmrg(init, op, config)
    assert state.ranks == orthogonalize(init, 0).ranks


def test_micro_energies_never_increase_without_truncation():
    d = 4
    op = heisenberg_chain(d)
    init = random_tt((2,) * d, (2, 2, 2), seed=11)
    config = SweepConfig(mode="two-site", max_rank=16, svd_tol=0.0, eig_tol=1e-11)
    _, trace = run_dmrg(init, op, config)
    energies = [m.energy for m in trace.micro]
    for prev, cur in zip(energies, energies[1:]):
        assert cur <= prev + 1e-9


def test_trace_csv_round_trip_and_determinism():
    d = 4
    op = ising_chain(d)
    init = random_tt((2,) * d, (2,) * (d - 1), seed=12)
    config = SweepConfig(max_rank=4, max_half_sweeps=4, energy_tol=0.0)
    ledger = CostLedger()
    _, trace = run_dmrg(init, op, config, ledger)

    # warm starts can reproduce energies bitwise, so the run may stop
    # before the sweep budget even at energy_tol = 0
    done = len(trace.half_sweep_energies)
    assert 2 <= done <= 4
    assert len(trace.micro) == done * (d - 1)
    assert trace.for_half_sweep(2) == trace.micro[d - 1 : 2 * (d - 1)]
    flops = [m.flops_cumulative for m in trace.micro]
    assert all(b > a for a, b in zip(flops, flops[1:]))

    rows = list(csv.DictReader(io.StringIO(trace.to_csv())))
    assert list(rows[0]) == [
        "half_sweep", "site", "energy", "lanczos_iterations", "discarded_weight",
        "flops_cumulative", "lanczos_converged", "lanczos_residual",
    ]
    assert len(rows) == len(trace.micro)
    assert float(rows[0]["energy"]) == trace.micro[0].energy
    assert [int(r["lanczos_converged"]) for r in rows] == [m.lanczos_converged for m in trace.micro]
    assert [float(r["lanczos_residual"]) for r in rows] == [m.lanczos_residual for m in trace.micro]
    assert int(rows[-1]["half_sweep"]) == done

    _, again = run_dmrg(init, op, config, CostLedger())
    assert [m.energy for m in again.micro] == [m.energy for m in trace.micro]
    assert again.to_csv() == trace.to_csv()


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_unconverged_micro_steps_warn_once_per_half_sweep(mode):
    d = 6
    op = ising_chain(d)
    config = SweepConfig(mode=mode, max_rank=8, eig_max_iter=2, max_half_sweeps=4)
    with pytest.warns(RuntimeWarning) as caught:
        _, trace = run_dmrg(random_tt(op.dims, 2, seed=11), op, config)
    expected = []
    for hs in range(1, len(trace.half_sweep_energies) + 1):
        steps = trace.for_half_sweep(hs)
        bad = sum(not m.lanczos_converged for m in steps)
        if bad:
            expected.append(
                f"half-sweep {hs}: {bad} of {len(steps)} local Lanczos solves did not converge"
            )
    assert expected
    assert [str(w.message) for w in caught] == expected
    assert all(m.lanczos_residual > 0.0 for m in trace.micro if not m.lanczos_converged)


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_converged_micro_steps_do_not_warn(mode):
    import warnings

    d = 6
    op = ising_chain(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = run_dmrg(random_tt(op.dims, 2, seed=11), op, SweepConfig(mode=mode, max_rank=8))
    assert trace.converged
    assert all(m.lanczos_converged for m in trace.micro)
    assert all(m.lanczos_residual <= 1e-8 * max(1.0, abs(m.energy)) for m in trace.micro)


def test_run_dmrg_rejects_bad_inputs():
    op = ising_chain(3)
    good = random_tt((2, 2, 2), (2, 2), seed=0)
    with pytest.raises(ValueError, match="dims"):
        run_dmrg(random_tt((2, 2), (2,), seed=0), op)
    zero = TensorTrain([np.zeros((1, 2, 1)) for _ in range(3)])
    with pytest.raises(ValueError, match="zero norm"):
        run_dmrg(zero, op)
    with pytest.raises(ValueError, match="mode"):
        SweepConfig(mode="three-site")
    with pytest.raises(ValueError, match="max_rank"):
        SweepConfig(max_rank=0)
    single = MatrixProductOperator([np.eye(2).reshape(1, 2, 2, 1)])
    with pytest.raises(ValueError, match="two sites"):
        run_dmrg(TensorTrain([np.ones((1, 2, 1))]), single)


def test_final_gauge_matches_sweep_parity():
    d = 4
    op = ising_chain(d)
    init = random_tt((2,) * d, (2,) * (d - 1), seed=13)
    for sweeps in (1, 2, 3):
        config = SweepConfig(max_rank=4, max_half_sweeps=sweeps, energy_tol=0.0)
        state, trace = run_dmrg(init, op, config)
        done = len(trace.half_sweep_energies)
        assert 1 <= done <= sweeps
        center = d - 1 if done % 2 == 1 else 0
        assert state.center == center
        assert state.is_left_orthogonal if center == d - 1 else state.is_right_orthogonal
