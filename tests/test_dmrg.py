"""Sweep engine checked against dense projections and exact ground states."""

import csv
import io
import weakref

import numpy as np
import pytest

import oracles
from ttdmrg import dmrg, twolevel
from ttdmrg.dmrg import (
    SweepConfig,
    micro_step,
    run_dmrg,
    split_and_shift,
)
from ttdmrg.ledger import CostLedger
from ttdmrg.models import dense_ground_state, heisenberg_chain, ising_chain, random_symmetric_mpo
from ttdmrg.mpo import MatrixProductOperator, rayleigh_quotient
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
    # the direction is checked before any work is charged
    led = CostLedger()
    with pytest.raises(ValueError, match="direction"):
        split_and_shift(block, "UP", ledger=led)
    assert led.report() == CostLedger().report()


def test_split_rejects_bad_caps_and_tolerances():
    block = np.random.default_rng(2).standard_normal((3, 2, 2, 3))
    bad = [(dict(max_rank=cap), "max_rank") for cap in (0, -1, 2.5, True)]
    bad += [(dict(svd_tol=tol), "svd_tol") for tol in (float("nan"), -1.0)]
    for kwargs, name in bad:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            split_and_shift(block, "LR", **kwargs)
    left, _, _ = split_and_shift(block, "LR", max_rank=np.int64(2), svd_tol=0.0)
    assert left.shape == (3, 2, 2)


def test_split_keeps_owning_copies_of_the_kept_factor():
    # a view of the SVD factor would pin all of it, not only the kept part
    block = np.random.default_rng(3).standard_normal((3, 2, 2, 3))
    left, _, _ = split_and_shift(block, "LR", max_rank=2)
    _, right, _ = split_and_shift(block, "RL", max_rank=2)
    assert left.shape == (3, 2, 2) and right.shape == (2, 2, 3)
    assert left.base is None and right.base is None


def track_environments(monkeypatch):
    """Track every environment the sweep builds by a weak reference; returns
    the count of those alive and a one-entry list holding its peak as a
    build returns.  Boundary environments the sweep makes itself are not
    tracked."""
    refs, peak = [], [0]

    def alive():
        return sum(ref() is not None for ref in refs)

    def tracked(build):
        def wrapped(*args):
            out = build(*args)
            refs.extend(weakref.ref(env) for env in (out if isinstance(out, list) else [out]))
            peak[0] = max(peak[0], alive())
            return out
        return wrapped

    for name in ("update_left_env", "update_right_env", "all_right_envs"):
        monkeypatch.setattr(dmrg, name, tracked(getattr(dmrg, name)))
    return alive, peak


def sweep_four_times(mode, d):
    cap = 4 if mode == "two-site" else 2  # one-site sweeps keep the start's rank
    config = SweepConfig(mode=mode, max_rank=cap, max_half_sweeps=4, energy_tol=0.0)
    run_dmrg(random_tt((2,) * d, 2, seed=d), heisenberg_chain(d), config)


@pytest.mark.filterwarnings("ignore:run stopped at max_half_sweeps = 4 without:RuntimeWarning")
@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_sweeps_hold_one_environment_per_cut(mode, monkeypatch):
    # a sweep is one list of d + 1 cut environments: all_right_envs returns
    # d + 1, and each later build replaces a slot, so at most the one it
    # replaces and the d others of the list, less the untracked left
    # boundary, are alive as it returns
    for d in (2, 3, 8):
        _, peak = track_environments(monkeypatch)
        sweep_four_times(mode, d)
        monkeypatch.undo()
        assert peak[0] <= d + 1, (d, peak[0])


@pytest.mark.filterwarnings("ignore:run stopped at max_half_sweeps = 4 without:RuntimeWarning")
@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_local_solves_run_with_d_plus_2_minus_k_environments(mode, monkeypatch):
    # a k-site solve reads the cuts on both sides of its window; the
    # window's inner cut (two-site) is dropped while it solves, so d + 2 - k
    # slots are alive, the untracked left boundary among them
    k = 1 if mode == "one-site" else 2
    for d in (2, 3, 8):
        alive, _ = track_environments(monkeypatch)
        counts = []
        solve = dmrg.lanczos_lowest

        def counted(*args, **kwargs):
            counts.append(alive())
            return solve(*args, **kwargs)

        monkeypatch.setattr(dmrg, "lanczos_lowest", counted)
        sweep_four_times(mode, d)
        monkeypatch.undo()
        assert counts and max(counts) <= d + 1 - k, (d, max(counts))


@pytest.mark.parametrize("site", [0, 1, 3])
def test_micro_step_1site_matches_dense(site):
    dims = (2, 2, 2, 2)
    op = random_symmetric_mpo(4, rank=2, seed=3)
    state = orthogonalize(random_tt(dims, (2, 3, 2), seed=4), center=site)

    core, res = micro_step(state, op, 1, tol=1e-12)
    p = oracles.site_projector(state.cores, site)
    a = p.T @ op.to_dense() @ p
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
    a = p.T @ op.to_dense() @ p
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
    config = SweepConfig(mode="one-site", max_rank=3, max_half_sweeps=4, energy_tol=0.0)
    with pytest.warns(RuntimeWarning, match="max_half_sweeps = 4 without"):
        state, _ = run_dmrg(init, op, config)
    assert state.ranks == orthogonalize(init, 0).ranks


def test_one_site_sweeps_refuse_a_start_below_the_cap():
    # a one-site sweep keeps its start's bonds, so from below the cap it
    # would converge inside the start's ranks and report converged=True
    op = heisenberg_chain(6)
    init = random_tt(op.dims, (2, 4, 3, 4, 2), seed=0)  # cap 4 clips to 2, 4, 4, 4, 2
    message = r"bond 3 at cut 3 is below max_rank = 4 clipped to the cut \(4\)"
    with pytest.raises(ValueError, match=message):
        run_dmrg(init, op, SweepConfig(mode="one-site", max_rank=4))
    with pytest.raises(ValueError, match=message):
        dmrg.check_start(init, op, SweepConfig(mode="one-site", max_rank=4))
    # at or above the clipped cap, in two-site sweeps and in two-level runs it passes
    dmrg.check_start(init, op, SweepConfig(mode="one-site", max_rank=3))
    dmrg.check_start(init, op, SweepConfig(mode="two-site", max_rank=4))
    dmrg.check_start(init, op, twolevel.TwoLevelConfig(mode="one-site", max_rank=4))
    dmrg.check_start(init, op)


def test_one_site_matmul_charges_are_the_gauge_shift_products():
    # one-site sweeps keep the start's ranks, so every triangular-factor
    # product has a known shape: (r, r) into the next core going right,
    # the previous core into (r, r) going left
    op = heisenberg_chain(7)
    init = random_tt(op.dims, 3, seed=5)
    ledger = CostLedger()
    config = SweepConfig(mode="one-site", max_rank=3, max_half_sweeps=3, energy_tol=0.0)
    with pytest.warns(RuntimeWarning, match="max_half_sweeps = 3 without"):
        state, trace = run_dmrg(init, op, config, ledger)
    r, n, d = state.ranks, state.dims, state.d
    assert r == orthogonalize(init, 0).ranks

    def right(i):
        return 2.0 * r[i + 1] * r[i + 1] * n[i + 1] * r[i + 2]

    def left(i):
        return 2.0 * r[i - 1] * n[i - 1] * r[i] * r[i]

    want = sum(left(j) for j in range(d - 1, 0, -1))  # the start's gauge to site 0
    for m in trace.micro:
        want += right(m.site) if m.half_sweep % 2 else left(m.site)
    assert len(trace.half_sweep_energies) == 3
    assert ledger.per_class_flops["matmul"] == want


def test_micro_energies_never_increase_without_truncation():
    d = 4
    op = heisenberg_chain(d)
    init = random_tt((2,) * d, (2, 2, 2), seed=11)
    config = SweepConfig(mode="two-site", max_rank=16, svd_tol=0.0, eig_tol=1e-11)
    _, trace = run_dmrg(init, op, config)
    energies = [m.energy for m in trace.micro]
    for prev, cur in zip(energies, energies[1:]):
        assert cur <= prev + 1e-9


# the run may stop on the stop test or at the sweep budget (see below)
@pytest.mark.filterwarnings("ignore:run stopped at max_half_sweeps = 4 without:RuntimeWarning")
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
        "flops_cumulative", "lanczos_converged", "lanczos_residual", "local_eig_tol",
    ]
    assert len(rows) == len(trace.micro)
    assert float(rows[0]["energy"]) == trace.micro[0].energy
    assert [int(r["lanczos_converged"]) for r in rows] == [m.lanczos_converged for m in trace.micro]
    assert [float(r["lanczos_residual"]) for r in rows] == [m.lanczos_residual for m in trace.micro]
    assert [float(r["local_eig_tol"]) for r in rows] == [m.local_eig_tol for m in trace.micro]
    assert int(rows[-1]["half_sweep"]) == done

    _, again = run_dmrg(init, op, config, CostLedger())
    assert [m.energy for m in again.micro] == [m.energy for m in trace.micro]
    assert again.to_csv() == trace.to_csv()


def test_empty_traces_still_write_their_header():
    assert dmrg.SweepTrace().to_csv() == (
        "half_sweep,site,energy,lanczos_iterations,discarded_weight,"
        "flops_cumulative,lanczos_converged,lanczos_residual,local_eig_tol\n"
    )
    header = twolevel.TwoLevelTrace().to_csv()
    assert header.startswith("global_iter,energy,energy_error_vs_reference,coarse_p,")
    assert header.count("\n") == 1


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_unconverged_micro_steps_warn_once_per_half_sweep(mode):
    d = 6
    op = ising_chain(d)
    cap = 8 if mode == "two-site" else 2  # one-site sweeps keep the start's rank
    config = SweepConfig(mode=mode, max_rank=cap, eig_max_iter=2, max_half_sweeps=4)
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
    assert expected and not trace.converged
    assert [str(w.message) for w in caught] == expected + [
        "run stopped at max_half_sweeps = 4 without converging"
    ]
    assert all(m.lanczos_residual > 0.0 for m in trace.micro if not m.lanczos_converged)


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_exhausted_half_sweep_budget_warns_once(mode):
    op = heisenberg_chain(8)
    cap = 6 if mode == "two-site" else 3  # one-site sweeps keep the start's rank
    config = SweepConfig(mode=mode, max_rank=cap, max_half_sweeps=2)
    with pytest.warns(RuntimeWarning) as caught:
        _, trace = run_dmrg(random_tt(op.dims, 3, seed=7), op, config)
    assert len(trace.half_sweep_energies) == 2 and not trace.converged
    assert [str(w.message) for w in caught] == [
        "run stopped at max_half_sweeps = 2 without converging"
    ]


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_converged_micro_steps_do_not_warn(mode):
    import warnings

    d = 6
    op = ising_chain(d)
    config = SweepConfig(mode=mode, max_rank=8 if mode == "two-site" else 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = run_dmrg(random_tt(op.dims, 2, seed=11), op, config)
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
    for bad in (dict(eig_tol=-1e-8), dict(energy_tol=-1.0), dict(svd_tol=-0.1),
                dict(eig_max_iter=0)):
        with pytest.raises(ValueError, match="eig_tol|energy_tol|svd_tol|eig_max_iter"):
            SweepConfig(**bad)
    SweepConfig(eig_tol=0.0, energy_tol=0.0, svd_tol=0.0, eig_max_iter=1)
    single = MatrixProductOperator([np.eye(2).reshape(1, 2, 2, 1)])
    with pytest.raises(ValueError, match="two sites"):
        run_dmrg(TensorTrain([np.ones((1, 2, 1))]), single)


@pytest.mark.parametrize("where", ["start", "operator"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("solver", ["dmrg", "two-level"])
def test_non_finite_inputs_are_rejected_up_front(solver, value, where):
    # max(nan, 0.0) is nan, so the zero-norm check let a NaN start through
    # to a failed tridiagonal eigensolve
    op = ising_chain(6)
    init = random_tt(op.dims, 2, seed=0)
    if where == "start":
        init = TensorTrain([init.cores[0], init.cores[1] * value] + list(init.cores[2:]))
        message = "initial state has non-finite entries"
    else:
        core = op.cores[2].copy()
        core[0, 0, 0, 0] = value
        op = MatrixProductOperator(op.cores[:2] + (core,) + op.cores[3:])
        message = "operator has non-finite entries"
    run = run_dmrg if solver == "dmrg" else twolevel.run_two_level
    with pytest.raises(ValueError, match=message):
        run(init, op)


# each run may stop on the stop test or at its sweep budget
@pytest.mark.filterwarnings("ignore:run stopped at max_half_sweeps = [123] without:RuntimeWarning")
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


def half_sweep_tols(trace):
    return [trace.for_half_sweep(hs)[0].local_eig_tol
            for hs in range(1, len(trace.half_sweep_energies) + 1)]


def test_local_tolerance_stays_eig_tol_where_forcing_is_off():
    # On 6 sites the full separation ranks are 2, 4, 8, 4, 2: at max_rank 8
    # truncation loses nothing and every half-sweep solves to eig_tol.
    op = heisenberg_chain(6)
    init = random_tt(op.dims, 2, seed=11)
    cfg = SweepConfig(max_rank=8, eig_tol=1e-10, energy_tol=1e-13)
    _, trace = run_dmrg(init, op, cfg)
    assert len(trace.half_sweep_energies) > 2
    assert all(m.local_eig_tol == 1e-10 for m in trace.micro)
    # one below full rank the forcing term applies, and energy_tol = 1e-13
    # is out of reach
    with pytest.warns(RuntimeWarning, match="max_half_sweeps = 40 without"):
        _, trace = run_dmrg(init, op, SweepConfig(max_rank=7, eig_tol=1e-10, energy_tol=1e-13))
    assert max(half_sweep_tols(trace)) > 1e-10
    # eig_tol = 0 pins every solve to the iteration budget
    op = ising_chain(10)
    cfg = SweepConfig(max_rank=8, eig_tol=0.0, eig_max_iter=6, energy_tol=0.0, max_half_sweeps=3)
    with pytest.warns(RuntimeWarning, match="did not converge"), \
            pytest.warns(RuntimeWarning, match="max_half_sweeps = 3 without"):
        _, trace = run_dmrg(random_tt(op.dims, 8, seed=1), op, cfg)
    assert len(trace.half_sweep_energies) == 3
    assert all(m.local_eig_tol == 0.0 and m.lanczos_iterations == 6 for m in trace.micro)
    # one-site sweeps keep their ranks and solve every half-sweep to eig_tol
    op = heisenberg_chain(8)
    cfg = SweepConfig(mode="one-site", max_rank=4, eig_tol=1e-9, energy_tol=1e-10)
    _, trace = run_dmrg(random_tt(op.dims, 4, seed=3), op, cfg)
    assert len(trace.half_sweep_energies) > 2
    assert all(m.local_eig_tol == 1e-9 for m in trace.micro)


def test_loose_half_sweeps_never_count_as_convergence(monkeypatch):
    # At a forcing term of 0.9 a loose half-sweep can move the energy by
    # less than energy_tol; the guard must not take that for convergence.
    monkeypatch.setattr(dmrg, "EIG_FORCING", 0.9)
    fired = 0
    for op in (ising_chain(10), heisenberg_chain(10)):
        e_ref, _ = dense_ground_state(op)
        for energy_tol in (1e-8, 1e-6):
            cfg = SweepConfig(max_rank=12, energy_tol=energy_tol)
            _, trace = run_dmrg(random_tt(op.dims, 2, seed=0), op, cfg)
            tight = max(cfg.eig_tol, cfg.energy_tol)
            tols = half_sweep_tols(trace)
            energies = trace.half_sweep_energies
            assert trace.converged
            assert tols[-1] <= tight < max(tols)
            stalled = [
                hs for hs in range(1, len(energies))
                if abs(energies[hs] - energies[hs - 1]) <= energy_tol * abs(energies[hs])
            ]
            assert all(tols[hs] > tight for hs in stalled[:-1])
            fired += len(stalled) - 1
            assert abs(energies[-1] - e_ref) <= 1e-5 * abs(e_ref)
    assert fired > 0  # without the guard some run would have stopped early


@pytest.mark.parametrize(
    "model, d", [(ising_chain, 12), (heisenberg_chain, 10)], ids=["ising-d12", "heisenberg-d10"]
)
def test_inexact_sweeps_keep_the_energy_for_fewer_flops(model, d, monkeypatch):
    op = model(d)
    e_ref = (
        oracles.ising_free_fermion_energy(d, 1.0, 1.0) if model is ising_chain
        else dense_ground_state(op)[0]
    )
    init = random_tt(op.dims, 2, seed=0)

    def run():
        led = CostLedger()
        _, trace = run_dmrg(init, op, SweepConfig(max_rank=16), led)
        assert trace.converged
        return trace, led.per_class_flops["matvec"]

    inexact, inexact_flops = run()
    monkeypatch.setattr(dmrg, "EIG_FORCING", 0.0)
    exact, exact_flops = run()
    assert all(m.local_eig_tol == 1e-8 for m in exact.micro)
    assert max(m.local_eig_tol for m in inexact.micro) > 1e-8
    energy = inexact.half_sweep_energies[-1]
    assert abs(energy - e_ref) <= 1e-6 * abs(e_ref)
    assert abs(energy - exact.half_sweep_energies[-1]) <= 1e-6 * abs(e_ref)
    assert inexact_flops < exact_flops


def test_end_game_clause_only_ever_lowers_the_forced_tolerance():
    forced = dmrg.forced_eig_tol
    rng = np.random.default_rng(5)
    for _ in range(500):
        eig_tol, energy_tol = 10.0 ** rng.uniform(-12, -4, size=2)
        change, prev_change = 10.0 ** rng.uniform(-14, 0, size=2)
        energy = -rng.uniform(0.1, 50.0)
        old = forced(eig_tol, change, energy, None, energy_tol)
        new = forced(eig_tol, change, energy, prev_change, energy_tol)
        fires = change < prev_change and change**2 / prev_change <= energy_tol * abs(energy)
        assert eig_tol <= new <= old
        assert new == (min(old, max(eig_tol, energy_tol)) if fires else old)


def test_end_game_clause_fires_only_on_a_contracting_predicted_convergence():
    energy = -5.0
    forced = dmrg.forced_eig_tol
    # forcing term 0.1 * 1e-4 / 5 = 2e-6 rel; predicted next change 1e-8 / 5 = 2e-9 rel
    assert forced(1e-8, 1e-4, energy, None, 1e-8) == pytest.approx(2e-6)
    assert forced(1e-8, 1e-4, energy, 1.0, 1e-8) == 1e-8
    assert forced(1e-10, 1e-4, energy, 1.0, 1e-8) == 1e-8  # max(eig_tol, energy_tol)
    # predicted change 2e-9 rel just misses energy_tol = 1e-9
    assert forced(1e-8, 1e-4, energy, 1.0, 1e-9) == pytest.approx(2e-6)
    # growing or equal changes predict nothing
    assert forced(1e-8, 1e-4, energy, 1e-4, 1e-3) == pytest.approx(2e-6)
    assert forced(1e-8, 1e-4, energy, 1e-5, 1e-3) == pytest.approx(2e-6)
    # inert without a previous change
    assert forced(1e-8, 1e-4, energy, None, 1e-3) == pytest.approx(2e-6)
    # a forcing term already tighter than the guard's tolerance stays
    assert forced(1e-10, 1e-8, energy, 1.0, 1e-6) == pytest.approx(2e-10)
    # the schedule applies it below full separation rank (64 at cut 6 of
    # twelve sites), and never at full rank or at eig_tol = 0
    dims = (2,) * 12
    for max_rank, eig_tol, forcing in ((16, 1e-8, True), (64, 1e-8, False), (16, 0.0, False)):
        cfg = SweepConfig(max_rank=max_rank, eig_tol=eig_tol, energy_tol=1e-3)
        schedule = dmrg.Schedule(cfg, dims)
        assert schedule.forcing == forcing
        schedule.converged(energy - 1.0, energy - 1e-4, may_stop=False)
        assert not schedule.converged(energy - 1e-4, energy, may_stop=False)
        assert schedule.eig_tol == (pytest.approx(2e-6) if forcing else eig_tol)


def test_end_game_clause_saves_the_confirming_half_sweep(monkeypatch):
    # Without the clause half-sweep 5 runs at 2.4e-7 and moves the energy by
    # 3e-9 relative, which the guard refuses for the loose tolerance, and a
    # sixth, tight half-sweep only confirms it.
    op = heisenberg_chain(12)
    init = random_tt(op.dims, 2, seed=0)
    cfg = SweepConfig(max_rank=16)
    _, trace = run_dmrg(init, op, cfg)
    tols = half_sweep_tols(trace)
    assert trace.converged
    assert len(trace.half_sweep_energies) == 5
    assert tols[-1] == max(cfg.eig_tol, cfg.energy_tol) < tols[-2]
    without = dmrg.forced_eig_tol
    monkeypatch.setattr(dmrg, "forced_eig_tol", lambda *args: without(*args[:3], None, 0.0))
    _, plain = run_dmrg(init, op, cfg)
    assert len(plain.half_sweep_energies) == 6
    assert half_sweep_tols(plain)[4] > 1e-7
    monkeypatch.setattr(dmrg, "forced_eig_tol", without)
    monkeypatch.setattr(dmrg, "EIG_FORCING", 0.0)
    _, exact = run_dmrg(init, op, cfg)
    energy, exact_energy = trace.half_sweep_energies[-1], exact.half_sweep_energies[-1]
    assert abs(energy - exact_energy) <= 1e-10 * abs(exact_energy)


@pytest.mark.parametrize(
    "config_type, budget",
    [(SweepConfig, "max_half_sweeps"), (twolevel.TwoLevelConfig, "max_iters")],
    ids=["sweep", "two-level"],
)
def test_configs_reject_each_bad_shared_knob(config_type, budget):
    nan = float("nan")
    bad = [("mode", "three-site", "unknown mode"), ("max_rank", 0, "max_rank"),
           (budget, 0, budget), ("eig_max_iter", 0, "eig_max_iter")]
    bad += [(tol, value, tol) for tol in ("eig_tol", "energy_tol", "svd_tol")
            for value in (-1e-8, nan)]
    # counts are integers: 2.5 would reach range() or cut a rank to 2
    bad += [(count, value, f"{count} must be an integer")
            for count in ("max_rank", budget, "eig_max_iter", "seed")
            for value in (2.5, 3.0, True, "4")]
    # a bad seed would fail only when a Lanczos restart draws from it
    bad += [("seed", -1, "seed must be nonnegative")]
    for name, value, message in bad:
        with pytest.raises(ValueError, match=message):
            config_type(**{name: value})
    config_type(eig_tol=0.0, energy_tol=0.0, svd_tol=0.0, eig_max_iter=1, **{budget: 1})
    config_type(max_rank=np.int64(4), eig_max_iter=np.int32(5), seed=np.int64(0),
                **{budget: np.int64(3)})
    with pytest.raises(TypeError):
        config_type("one-site")  # keyword-only


# eight sites of local dimension 2 at max_rank 2: below full separation rank
SCHEDULE_DIMS = (2,) * 8


def test_schedule_step_that_may_not_stop_still_advances_the_tolerance():
    cfg = SweepConfig(max_rank=2, eig_tol=1e-8, energy_tol=1e-6)
    assert dmrg.Schedule(cfg, SCHEDULE_DIMS).converged(-1.0, -1.0)
    schedule = dmrg.Schedule(cfg, SCHEDULE_DIMS)
    assert not schedule.converged(-1.0, -1.0, may_stop=False)
    assert not schedule.converged(-1.0, -1.5, may_stop=False)
    want = dmrg.forced_eig_tol(1e-8, 0.5, -1.5, 0.0, 1e-6)
    assert schedule.eig_tol == want == pytest.approx(0.1 * 0.5 / 1.5)


def test_schedule_without_forcing_keeps_eig_tol():
    cfg = SweepConfig(max_rank=2, eig_tol=1e-8, energy_tol=1e-6)
    schedule = dmrg.Schedule(cfg, SCHEDULE_DIMS, forcing=False)
    for before, after in ((-1.0, -1.5), (-1.5, -1.6), (-1.6, -1.61)):
        assert not schedule.converged(before, after)
        assert schedule.eig_tol == 1e-8
    assert schedule.converged(-1.61, -1.61)


def test_schedule_refuses_a_step_solved_looser_than_the_guard():
    cfg = SweepConfig(max_rank=2, eig_tol=1e-8, energy_tol=1e-6)
    schedule = dmrg.Schedule(cfg, SCHEDULE_DIMS)
    assert not schedule.converged(-1.0, -1.5)
    assert schedule.eig_tol > max(cfg.eig_tol, cfg.energy_tol)
    # the energy stalls under the loose step: not convergence, and the
    # stall tightens the next step, which may stop the run
    assert not schedule.converged(-1.5, -1.5)
    assert schedule.eig_tol <= max(cfg.eig_tol, cfg.energy_tol)
    assert schedule.converged(-1.5, -1.5)


@pytest.mark.parametrize("solver", ["sweep", "two-level"])
def test_trace_steps_pair_each_energy_with_its_cumulative_cost(solver):
    op = ising_chain(6)
    init = random_tt(op.dims, 2, seed=0)
    ledger = CostLedger()
    if solver == "sweep":
        _, trace = run_dmrg(init, op, SweepConfig(max_rank=4), ledger)
        energies, cost = trace.half_sweep_energies, ledger.total_flops()
    else:
        config = twolevel.TwoLevelConfig(max_rank=4)
        _, trace = twolevel.run_two_level(init, op, config, ledger)
        energies, cost = trace.energies(), ledger.cost_per_processor()
    steps = trace.steps()
    assert [energy for energy, _ in steps] == energies
    costs = [c for _, c in steps]
    assert costs == sorted(costs) and costs[-1] == cost
