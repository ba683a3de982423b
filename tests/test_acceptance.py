"""Desk-scale acceptance checks.

Each test asserts one numbered claim from the package's acceptance
checklist (see README) and appends a PASS/FAIL line that conftest
echoes after the run:

 1. classical two-site sweeps hit dense ground-state energies,
 2. the two-level solver hits the same targets,
 3. exact-rank instances converge in one half-sweep / one iteration,
 4. every coarse step descends below the previous iterate and all
    local updates,
 5. one-site family sums materialize within the doubled rank bound,
 6. effective local operators equal dense projected operators,
 7. the flop ledger shows a parallel advantage at matched error and
    linear half-sweep cost in the number of sites,
 8. results do not depend on the worker count,
 9. the structured coarse matvec path agrees with direct assembly,
10. late classical micro-steps converge in at most two Lanczos steps.

Dense references come from exact diagonalization, so everything stays
at d <= 12 with local dimension 2 (larger operators exceed the cap).
"""

import time
import warnings
from collections import namedtuple
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
import oracles
from ttdmrg.dmrg import SweepConfig, run_dmrg
from ttdmrg.ledger import CostLedger
from ttdmrg.models import dense_ground_state, heisenberg_chain, ising_chain, random_symmetric_mpo
from ttdmrg.mpo import (
    MatrixProductOperator,
    left_env,
    local_matvec_1site,
    local_matvec_2site,
    mpo_add,
    mpo_scale,
    mpo_transpose,
    rayleigh_quotient,
    right_env,
)
from ttdmrg.sums import OneSiteSumFamily
from ttdmrg.tt import orthogonal_family, orthogonalize, random_tt, separation_ranks
from ttdmrg.twolevel import TwoLevelConfig, run_two_level

DENSE_CAP = 2**26  # d=12 operators need 2^24 dense entries


@contextmanager
def criterion(num, label):
    """Collect a PASS/FAIL line for one checklist item, then assert it."""
    info = {}
    try:
        yield info
    except Exception as exc:
        _emit(num, False, f"{label}: errored: {exc!r}")
        raise
    ok = bool(info.get("ok", False))
    line = _emit(num, ok, f"{label}: {info.get('detail', 'no detail recorded')}")
    assert ok, line


def _emit(num, ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return line


Case = namedtuple("Case", "name op e_ref")
ClassicalRun = namedtuple("ClassicalRun", "case err elapsed trace")
TwoLevelRun = namedtuple("TwoLevelRun", "case err trace")
ExactRank = namedtuple("ExactRank", "seed sep classical_err reached errs traces")
SpeedupRun = namedtuple("SpeedupRun", "cap err_classical err_two_level cpp_classical cpp_two_level trace")


@pytest.fixture(scope="module")
def spin_cases():
    cases = []
    for d in (4, 8, 10, 12):
        op = ising_chain(d)
        e_ref, _ = dense_ground_state(op, cap=DENSE_CAP)
        cases.append(Case(f"tfim d={d}", op, e_ref))
    for d in (4, 8):
        op = heisenberg_chain(d)
        e_ref, _ = dense_ground_state(op, cap=DENSE_CAP)
        cases.append(Case(f"heis d={d}", op, e_ref))
    return cases


@pytest.fixture(scope="module")
def classical_runs(spin_cases):
    runs = []
    for case in spin_cases:
        cfg = SweepConfig(mode="two-site", max_rank=16, svd_tol=1e-6, eig_tol=1e-6, energy_tol=1e-6)
        t0 = time.perf_counter()
        state, trace = run_dmrg(random_tt(case.op.dims, 2, seed=0), case.op, cfg)
        elapsed = time.perf_counter() - t0
        err = abs(rayleigh_quotient(state, case.op) - case.e_ref) / abs(case.e_ref)
        runs.append(ClassicalRun(case, err, elapsed, trace))
    return runs


@pytest.fixture(scope="module")
def twolevel_runs(spin_cases):
    runs = []
    for case in spin_cases:
        cfg = TwoLevelConfig(mode="two-site", max_rank=16, eig_tol=1e-6, energy_tol=1e-8, max_iters=200, workers=4)
        state, trace = run_two_level(random_tt(case.op.dims, 2, seed=0), case.op, cfg, reference_energy=case.e_ref)
        err = abs(trace.records[-1].energy - case.e_ref) / abs(case.e_ref)
        runs.append(TwoLevelRun(case, err, trace))
    return runs


@contextmanager
def may_stop_at(budget):
    """Runs that stop at their iteration budget on purpose: the warning
    ``run stopped at <budget> without converging``, and no other, is
    ignored."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", f"run stopped at {budget} without", RuntimeWarning)
        yield


@pytest.fixture(scope="module")
def exact_rank_runs():
    out = []
    for seed in (0, 1, 2):
        op = random_symmetric_mpo(6, n=2, rank=2, seed=seed)
        e_ref, psi = dense_ground_state(op)
        sep = separation_ranks(psi)

        init = random_tt(op.dims, max(sep), seed=seed + 10)
        assert tuple(init.ranks[1:-1]) == sep, "instance is not full separation rank"
        cfg = SweepConfig(mode="one-site", max_rank=max(sep), eig_tol=1e-12, energy_tol=1e-15, max_half_sweeps=1)
        with may_stop_at("max_half_sweeps = 1"):
            state, _ = run_dmrg(init, op, cfg)
        classical_err = abs(rayleigh_quotient(state, op) - e_ref) / abs(e_ref)

        # Grow from rank 1 one global iteration at a time; once the iterate
        # hits the separation ranks, one more iteration decides the claim.
        cfg2 = TwoLevelConfig(mode="one-site", max_rank=max(sep), eig_tol=1e-12, energy_tol=1e-15, max_iters=1, seed=seed)
        state = random_tt(op.dims, 1, seed=seed + 20)
        reached = None
        errs = []
        traces = []
        for it in range(1, 9):
            with may_stop_at("max_iters = 1"):
                state, trace = run_two_level(state, op, cfg2, reference_energy=e_ref)
            traces.append(trace)
            errs.append(abs(trace.records[-1].energy - e_ref) / abs(e_ref))
            if reached is None and tuple(state.ranks[1:-1]) == sep:
                reached = it
            if reached is not None and it > reached:
                break
        out.append(ExactRank(seed, sep, classical_err, reached, errs, traces))
    return out


@pytest.fixture(scope="module")
def speedup_runs():
    # Random cores at d=12 give O(1e5) energies; rescale to O(1) so the
    # absolute descent tolerance in criterion 4 stays meaningful.
    op = mpo_scale(random_symmetric_mpo(12, n=2, rank=4, seed=0), 1e-5)
    e_ref, _ = dense_ground_state(op, cap=DENSE_CAP)
    runs = []
    for cap in (16, 32):
        led_c = CostLedger()
        cfg_c = SweepConfig(mode="two-site", max_rank=cap, svd_tol=0.0, eig_tol=1e-8, energy_tol=1e-8, max_half_sweeps=40)
        with may_stop_at("max_half_sweeps = 40"):
            state_c, _ = run_dmrg(random_tt(op.dims, 2, seed=0), op, cfg_c, ledger=led_c)
        err_c = abs(rayleigh_quotient(state_c, op) - e_ref) / abs(e_ref)

        led_a = CostLedger()
        cfg_a = TwoLevelConfig(mode="two-site", max_rank=cap, eig_tol=1e-8, energy_tol=1e-8, max_iters=200, workers=4)
        state_a, trace = run_two_level(random_tt(op.dims, 2, seed=0), op, cfg_a, ledger=led_a, reference_energy=e_ref)
        err_a = abs(rayleigh_quotient(state_a, op) - e_ref) / abs(e_ref)

        runs.append(SpeedupRun(cap, err_c, err_a, led_c.cost_per_processor(), led_a.cost_per_processor(), trace))
    return runs


@pytest.fixture(scope="module")
def worker_sweep(spin_cases):
    case = next(c for c in spin_cases if c.name == "tfim d=8")
    out = []
    for workers in (1, 4, 8):
        led = CostLedger()
        cfg = TwoLevelConfig(mode="two-site", max_rank=16, eig_tol=1e-6, energy_tol=1e-8, max_iters=200, workers=workers)
        _, trace = run_two_level(random_tt(case.op.dims, 2, seed=0), case.op, cfg, ledger=led, reference_energy=case.e_ref)
        out.append((workers, trace, led))
    return out


@pytest.fixture(scope="module")
def structured_pair_runs():
    pairs = []
    for k in range(20):
        op = random_symmetric_mpo(4, n=2, rank=1 + k % 2, seed=k)
        mode = "one-site" if k % 2 == 0 else "two-site"
        init = random_tt(op.dims, 2, seed=k + 100)
        traces = []
        for structured in (False, True):
            cfg = TwoLevelConfig(mode=mode, max_rank=4, eig_tol=1e-10, energy_tol=1e-15, max_iters=2, structured_coarse=structured, seed=k)
            with may_stop_at("max_iters = 2"):
                _, trace = run_two_level(init, op, cfg)
            traces.append(trace)
        pairs.append(tuple(traces))
    return pairs


def test_criterion_01_classical_accuracy(classical_runs):
    with criterion(1, "classical two-site accuracy") as info:
        worst = max(r.err for r in classical_runs)
        slowest = max(r.elapsed for r in classical_runs)
        info["ok"] = worst < 1e-6 and slowest < 60.0
        info["detail"] = f"{len(classical_runs)} cases, max rel err {worst:.1e}, slowest {slowest:.2f} s"


def test_criterion_02_two_level_accuracy(twolevel_runs):
    with criterion(2, "two-level solver accuracy") as info:
        worst = max(r.err for r in twolevel_runs)
        iters = max(len(r.trace.records) for r in twolevel_runs)
        converged = all(r.trace.converged for r in twolevel_runs)
        info["ok"] = worst < 1e-6 and iters <= 200 and converged
        info["detail"] = f"max rel err {worst:.1e}, max iterations {iters}, all converged {converged}"


def test_criterion_03_exact_rank_single_pass(exact_rank_runs):
    with criterion(3, "exact-rank instances") as info:
        sep_ok = all(max(r.sep) <= 8 for r in exact_rank_runs)
        classical = max(r.classical_err for r in exact_rank_runs)
        reached = all(r.reached is not None for r in exact_rank_runs)
        final = max(r.errs[-1] for r in exact_rank_runs)
        info["ok"] = sep_ok and reached and classical < 1e-10 and final < 1e-10
        info["detail"] = (
            f"3 seeds, one-site half-sweep err {classical:.1e}, "
            f"two-level err {final:.1e} one iteration after rank arrival"
        )


def test_criterion_04_coarse_descent(twolevel_runs, exact_rank_runs, speedup_runs, worker_sweep, structured_pair_runs):
    traces = [r.trace for r in twolevel_runs] + [r.trace for r in speedup_runs]
    traces += [t for r in exact_rank_runs for t in r.traces]
    traces += [t for _, t, _ in worker_sweep]
    traces += [t for pair in structured_pair_runs for t in pair]
    with criterion(4, "coarse step descends below prev iterate and local updates") as info:
        margins = [
            rec.coarse_energy - min(rec.prev_energy, rec.min_update_energy)
            for trace in traces
            for rec in trace.records
        ]
        worst = max(margins)
        info["ok"] = worst <= 1e-10
        info["detail"] = f"{len(margins)} iterations over {len(traces)} runs, max excess {worst:.1e}"


def test_criterion_05_family_sum_rank_bound():
    rng = np.random.default_rng(5)
    worst = 0.0
    ranks_ok = True
    for _ in range(100):
        d = int(rng.integers(2, 7))
        dims = tuple(int(rng.integers(2, 4)) for _ in range(d))
        base = random_tt(dims, int(rng.integers(1, 5)), seed=int(rng.integers(1 << 31)))
        base = orthogonalize(base, d - 1)
        fam = orthogonal_family(base)
        reps = [rng.standard_normal(c.shape) for c in fam.centers]
        coeffs = rng.standard_normal(d)
        prev = float(rng.standard_normal())

        total = OneSiteSumFamily(fam, reps, coeffs, prev_coeff=prev).materialize()
        ranks_ok &= all(rs <= 2 * rb for rs, rb in zip(total.ranks, base.ranks))

        ref = prev * oracles.tt_dense(base.cores)
        for i in range(d):
            member = fam.config(i).replace_core(i, reps[i])
            ref = ref + coeffs[i] * oracles.tt_dense(member.cores)
        err = np.linalg.norm(oracles.tt_dense(total.cores) - ref) / np.linalg.norm(ref)
        worst = max(worst, err)
    with criterion(5, "one-site family sums") as info:
        info["ok"] = ranks_ok and worst < 1e-12
        info["detail"] = f"100 families, ranks within 2r {ranks_ok}, max dense mismatch {worst:.1e}"


def _random_symmetric_operator(dims, rank, rng):
    d = len(dims)
    cores = []
    for j, n in enumerate(dims):
        rl = 1 if j == 0 else rank
        rr = 1 if j == d - 1 else rank
        cores.append(rng.standard_normal((rl, n, n, rr)))
    b = MatrixProductOperator(cores)
    return mpo_scale(mpo_add(b, mpo_transpose(b)), 0.5)


def test_criterion_06_effective_operator_equivalence():
    rng = np.random.default_rng(6)
    worst_err = 0.0
    worst_sym = 0.0
    checked = 0
    while checked < 50:
        d = int(rng.integers(3, 6))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(d))
        if int(np.prod(dims)) > 256:
            continue
        op = _random_symmetric_operator(dims, int(rng.integers(1, 3)), rng)
        dense_op = oracles.mpo_dense(op.cores)
        state = random_tt(dims, int(rng.integers(1, 4)), seed=int(rng.integers(1 << 31)))

        if checked % 2 == 0:
            i = int(rng.integers(0, d))
            state = orthogonalize(state, i)
            env_l = left_env(state, op, state, i)
            env_r = right_env(state, op, state, i + 1)
            matvec, n_loc, _ = local_matvec_1site(env_l, op.cores[i], env_r)
            proj = oracles.site_projector(state.cores, i)
        else:
            i = int(rng.integers(0, d - 1))
            state = orthogonalize(state, i)
            env_l = left_env(state, op, state, i)
            env_r = right_env(state, op, state, i + 2)
            matvec, n_loc, _ = local_matvec_2site(env_l, op.cores[i], op.cores[i + 1], env_r)
            proj = oracles.block_projector(state.cores, i)
        mat = np.column_stack([matvec(e) for e in np.eye(n_loc)])
        ref = proj.T @ dense_op @ proj
        worst_err = max(worst_err, np.linalg.norm(mat - ref) / np.linalg.norm(ref))
        worst_sym = max(worst_sym, np.linalg.norm(mat - mat.T) / np.linalg.norm(mat))
        checked += 1
    with criterion(6, "effective local operators") as info:
        info["ok"] = worst_err < 1e-10 and worst_sym < 1e-10
        info["detail"] = f"50 instances, max projection mismatch {worst_err:.1e}, max asymmetry {worst_sym:.1e}"


# the half-sweep cost runs below pin every local solve to six Lanczos
# steps (eig_tol = 0) and the run to two half-sweeps
# (a ":" would end the message field of the mark, so "." stands for it)
@pytest.mark.filterwarnings(
    "ignore:half-sweep [12]. [0-9]+ of [0-9]+ local Lanczos solves did not converge:RuntimeWarning"
)
@pytest.mark.filterwarnings("ignore:run stopped at max_half_sweeps = 2 without:RuntimeWarning")
def test_criterion_07_cost_model(speedup_runs):
    with criterion(7, "flop ledger cost model") as info:
        speedups = []
        matched = True
        for run in speedup_runs:
            speedups.append(run.cpp_classical / run.cpp_two_level)
            ratio = run.err_classical / run.err_two_level
            matched &= 0.5 <= ratio <= 2.0

        # Half-sweep cost at a pinned rank and iteration budget should grow
        # by the same amount per added pair of sites.
        per_d = {}
        for d in (6, 8, 10, 12):
            op = ising_chain(d)
            led = CostLedger()
            cfg = SweepConfig(mode="two-site", max_rank=8, svd_tol=0.0, eig_tol=0.0, eig_max_iter=6, energy_tol=0.0, max_half_sweeps=2)
            _, trace = run_dmrg(random_tt(op.dims, 8, seed=1), op, cfg, ledger=led)
            per_d[d] = trace.for_half_sweep(2)[-1].flops_cumulative - trace.for_half_sweep(1)[-1].flops_cumulative
        slopes = [(per_d[b] - per_d[a]) / (b - a) for a, b in ((6, 8), (8, 10), (10, 12))]
        mean_slope = sum(slopes) / len(slopes)
        slope_dev = max(abs(s - mean_slope) / mean_slope for s in slopes)

        info["ok"] = matched and all(s > 1.0 for s in speedups) and slope_dev <= 0.25
        info["detail"] = (
            f"speedups {speedups[0]:.2f}x (r16) / {speedups[1]:.2f}x (r32) at matched error "
            f"(2-6x typical, informational); half-sweep flop slope deviation {slope_dev:.0%}"
        )


def test_criterion_08_worker_invariance(worker_sweep):
    with criterion(8, "worker-count invariance") as info:
        energies = [np.array(trace.energies()) for _, trace, _ in worker_sweep]
        same_len = len({e.shape for e in energies}) == 1
        diff = max(np.max(np.abs(e - energies[0])) for e in energies) if same_len else np.inf
        reports = [led.report() for _, _, led in worker_sweep]
        ledgers_equal = all(r == reports[0] for r in reports)
        info["ok"] = same_len and diff <= 1e-12 and ledgers_equal
        info["detail"] = f"workers 1/4/8, max energy diff {diff:.1e}, ledger reports identical {ledgers_equal}"


def test_criterion_09_structured_coarse_equivalence(structured_pair_runs):
    with criterion(9, "structured coarse matvec path") as info:
        worst = 0.0
        lengths_ok = True
        for direct, structured in structured_pair_runs:
            lengths_ok &= len(direct.records) == len(structured.records)
            for a, b in zip(direct.records, structured.records):
                scale = max(1.0, abs(a.coarse_energy))
                worst = max(worst, abs(a.coarse_energy - b.coarse_energy) / scale)
        info["ok"] = lengths_ok and worst < 1e-9
        info["detail"] = f"20 instances, max coarse energy gap {worst:.1e}"


def test_criterion_10_late_lanczos_counts(classical_runs):
    with criterion(10, "late micro-steps need few Lanczos iterations") as info:
        fractions = []
        for run in classical_runs:
            final = run.trace.for_half_sweep(len(run.trace.half_sweep_energies))
            fractions.append(np.mean([m.lanczos_iterations <= 2 for m in final]))
        info["ok"] = min(fractions) >= 0.5
        info["detail"] = f"min fraction of final half-sweep micro-steps with <= 2 iterations: {min(fractions):.2f}"
