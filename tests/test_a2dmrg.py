"""Two-level iteration: local solves, coarse problem, compression, driver.

Coarse-space quantities are checked against explicit dense vectors and a
dense span-restricted eigenproblem built independently from the oracles.
"""

import contextlib
import dataclasses
import inspect
import warnings

import numpy as np
import pytest

import oracles
from ttdmrg import coarse, dmrg, twolevel
from ttdmrg import mpo as mpo_module
from ttdmrg.dmrg import SweepConfig, micro_step, run_dmrg
from ttdmrg.ledger import CostLedger
from ttdmrg.models import dense_ground_state, heisenberg_chain, ising_chain, random_symmetric_mpo
from ttdmrg.mpo import (
    MatrixProductOperator,
    all_right_envs,
    close_left_env,
    close_right_env,
    env_step_flops,
    left_env,
    local_matvec,
    open_left_env,
    open_right_env,
    rayleigh_quotient,
)
from ttdmrg.tt import (
    OrthogonalFamily,
    TensorTrain,
    orthogonal_family,
    orthogonalize,
    qr_fixed,
    random_tt,
    tt_add,
    tt_scale,
    update_left_overlap,
    update_right_overlap,
)
from ttdmrg.twolevel import (
    TwoLevelConfig,
    assemble_coarse,
    compress_one_site,
    compress_two_site,
    local_solves,
    run_two_level,
    solve_coarse,
    solve_coarse_structured,
    span_members,
    structured_apply,
)


def make_state(dims, rank, seed=0):
    return orthogonalize(random_tt(dims, rank, seed=seed), center=len(dims) - 1)


def solve_all(family, op, mode, ledger=None, **kwargs):
    # step 2 over freshly built shared environments: (updates, results, envs)
    envs = twolevel.shared_envs(family, op, ledger)
    return (*local_solves(family, op, envs, mode, ledger=ledger, **kwargs), envs)


def assemble(family, updates, op, ledger=None, solves=None):
    # step 3 over freshly built shared environments, both charged to
    # `ledger`; arbitrary updates enter with the oracle's solve stand-ins
    envs = twolevel.shared_envs(family, op, ledger)
    if solves is None:
        solves = oracles.solve_stand_ins(family, updates, op, envs)
    return assemble_coarse(family, updates, solves, op, envs, ledger)


def merged(pair):
    left, right = pair
    return np.tensordot(left, right, axes=(2, 0))


def dense_span_minimum(members, op, eps=1e-10):
    # Independent route: explicit vectors, Gram whitening, dense eigh.
    vecs = np.column_stack([oracles.tt_dense(m.cores).ravel() for m in members])
    h = oracles.mpo_dense(op.cores)
    g = vecs.T @ vecs
    a = vecs.T @ h @ vecs
    w, v = np.linalg.eigh(0.5 * (g + g.T))
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    p = int(np.sum(w > eps * w[0]))
    white = v[:, :p] / np.sqrt(w[:p])
    hw = white.T @ a @ white
    vals = np.linalg.eigvalsh(0.5 * (hw + hw.T))
    return float(vals[0]), p


def test_one_site_local_solves_match_isolated_micro_steps():
    d = 4
    op = random_symmetric_mpo(d, seed=1)
    family = orthogonal_family(make_state((2,) * d, 2, seed=2))
    updates, results, _ = solve_all(family, op, "one-site", eig_tol=1e-12, seed=0)
    assert len(updates) == d
    for i in range(d):
        core, res = micro_step(family.config(i), op, 1, tol=1e-12, seed=0)
        assert len(updates[i]) == 1
        assert np.array_equal(updates[i][0], core)
        assert results[i].eigenvalue == res.eigenvalue


def test_two_site_local_solves_match_micro_steps_at_full_rank():
    d = 4
    op = random_symmetric_mpo(d, seed=3)
    family = orthogonal_family(make_state((2,) * d, 2, seed=4))
    updates, results, _ = solve_all(family, op, "two-site", eig_tol=1e-12, max_rank=16, seed=0)
    assert len(updates) == d - 1
    for i in range(d - 1):
        block, res = micro_step(family.config(i), op, 2, tol=1e-12, seed=0)
        left = updates[i][0]
        k = left.shape[2]
        gram = np.tensordot(left, left, axes=([0, 1], [0, 1]))
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12
        assert np.max(np.abs(merged(updates[i]) - block)) <= 1e-12
        assert abs(results[i].eigenvalue - res.eigenvalue) <= 1e-12


def test_two_site_local_solves_truncate_each_pair():
    d = 4
    op = random_symmetric_mpo(d, seed=5)
    family = orthogonal_family(make_state((2,) * d, 2, seed=6))
    updates = solve_all(family, op, "two-site", eig_tol=1e-12, max_rank=1, seed=0)[0]
    for i, pair in enumerate(updates):
        assert pair[0].shape[2] == pair[1].shape[0] == 1
        block = merged(pair)
        r0, n1, n2, r3 = block.shape
        s = np.linalg.svd(block.reshape(r0 * n1, n2 * r3), compute_uv=False)
        assert s[1:].max(initial=0.0) <= 1e-12 * s[0]


def test_local_solves_ledger_has_one_tag_per_task():
    d = 5
    op = random_symmetric_mpo(d, seed=7)
    family = orthogonal_family(make_state((2,) * d, 2, seed=8))
    led = CostLedger()
    solve_all(family, op, "one-site", eig_tol=1e-10, seed=0, ledger=led)
    assert sorted(led.per_worker_flops) == sorted(
        [f"solve:{i}" for i in range(d)] + ["env:left", "env:right"]
    )
    assert all(v > 0 for v in led.per_worker_flops.values())
    assert led.max_worker_flops() < led.total_flops()


def test_gram_and_reduced_operator_match_dense():
    d = 4
    op = random_symmetric_mpo(d, seed=9)
    family = orthogonal_family(make_state((2,) * d, 2, seed=10))
    updates, results, _ = solve_all(family, op, "one-site", eig_tol=1e-12, seed=0)
    members = span_members(family, updates)
    led = CostLedger()
    cp = assemble(family, updates, op, ledger=led, solves=results)
    vecs = [oracles.tt_dense(m.cores).ravel() for m in members]
    h = oracles.mpo_dense(op.cores)
    m = len(members)
    assert m == d + 1
    for i in range(m):
        for j in range(m):
            s_ref = vecs[i] @ vecs[j]
            a_ref = vecs[i] @ h @ vecs[j]
            assert abs(cp.s_hat[i, j] - s_ref) <= 1e-10 * max(1.0, abs(s_ref))
            assert abs(cp.a_hat[i, j] - a_ref) <= 1e-10 * max(1.0, abs(a_ref))
    assert set(led.per_worker_flops) == {f"gram{k}" for k in range(m)} | {"env:left", "env:right"}


def random_updates(family, mode, seed):
    # Random replacement cores, or random pair blocks QR-split into a
    # left-orthonormal and a right factor: generic entries in the shapes
    # of the solver's updates.
    rng = np.random.default_rng(seed)
    if mode == "one-site":
        return [(rng.standard_normal(c.shape),) for c in family.centers]
    updates = []
    for i in range(family.d - 1):
        r0, n1, _ = family.centers[i].shape
        _, n2, r3 = family.right[i + 1].shape
        q, r = qr_fixed(rng.standard_normal((r0, n1, n2, r3)).reshape(r0 * n1, n2 * r3))
        updates.append((q.reshape(r0, n1, -1), r.reshape(-1, n2, r3)))
    return updates


def scaled_updates(updates, scales):
    # each update's last core scaled: its member, rescaled inside its window
    return [tuple(u[:-1]) + (a * u[-1],) for u, a in zip(updates, scales)]


def assert_matches_pairwise(family, updates, op):
    cp = assemble(family, updates, op)
    s_ref, a_ref = oracles.pairwise_coarse(span_members(family, updates), op)
    assert np.max(np.abs(cp.s_hat - s_ref)) <= 1e-12 * np.max(np.abs(s_ref))
    assert np.max(np.abs(cp.a_hat - a_ref)) <= 1e-12 * np.max(np.abs(a_ref))


@pytest.mark.parametrize("d", [2, 3, 6, 9])
@pytest.mark.parametrize("mode", ["one-site", "two-site"])
@pytest.mark.parametrize("model", ["random", "heisenberg"])
def test_row_sweep_assembly_matches_pairwise_oracle(d, mode, model):
    op = random_symmetric_mpo(d, seed=d) if model == "random" else heisenberg_chain(d)
    family = orthogonal_family(make_state(op.dims, 3, seed=d + 1))
    updates = random_updates(family, mode, seed=d + 2)
    assert_matches_pairwise(family, updates, op)
    scales = np.linspace(0.3, 7.0, len(updates))
    assert_matches_pairwise(family, scaled_updates(updates, scales), op)


def test_row_sweep_assembly_is_repeatable():
    d = 7
    op = heisenberg_chain(d)
    family = orthogonal_family(make_state(op.dims, 3, seed=30))
    for mode in ("one-site", "two-site"):
        updates = random_updates(family, mode, seed=31)
        runs = []
        for _ in range(2):
            led = CostLedger()
            cp = assemble(family, updates, op, ledger=led)
            runs.append((cp, led.report()))
        (cp1, r1), (cp2, r2) = runs
        assert np.array_equal(cp1.s_hat, cp2.s_hat)
        assert np.array_equal(cp1.a_hat, cp2.a_hat)
        assert r1 == r2
        assert set(r1["per_worker_flops"]) == (
            {f"gram{k}" for k in range(len(updates) + 1)} | {"env:left", "env:right"}
        )


class MergeLog(CostLedger):
    """A ledger that records the worker tag of every merge, in order."""

    def __init__(self):
        super().__init__()
        self.tags = []

    def merge(self, other, worker):
        self.tags.append(worker)
        super().merge(other, worker)


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_assembly_merges_one_ledger_per_member(mode):
    # a closed column's work and its row's are one task: gram{k} is merged once
    d = 9
    op = heisenberg_chain(d)
    family = orthogonal_family(make_state(op.dims, 3, seed=36))
    updates = random_updates(family, mode, seed=37)
    envs = twolevel.shared_envs(family, op)
    led = MergeLog()
    assemble_coarse(family, updates, oracles.solve_stand_ins(family, updates, op, envs), op, envs,
                    led)
    assert led.tags == [f"gram{k}" for k in range(len(updates) + 1)]


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_coarse_assembly_flops_grow_quadratically(mode):
    def coarse_flops(d):
        op = ising_chain(d)
        family = orthogonal_family(make_state(op.dims, 4, seed=32))
        updates = random_updates(family, mode, seed=33)
        led = CostLedger()
        assemble(family, updates, op, ledger=led)
        return led.per_class_flops["coarse"]

    # Pairwise assembly is cubic in d (a ratio near 8 here); row sweeps
    # are quadratic (near 4).
    assert coarse_flops(16) / coarse_flops(8) < 6


def assert_matches_row_sweeps(family, updates, op):
    # Entries to summation order, ledger byte for byte (tags and values).
    envs = twolevel.shared_envs(family, op)
    solves = oracles.solve_stand_ins(family, updates, op, envs)
    got_led, want_led = CostLedger(), CostLedger()
    got = assemble_coarse(family, updates, solves, op, envs, got_led)
    want = oracles.row_sweep_coarse(family, updates, op, envs, ledger=want_led)
    assert np.max(np.abs(got.s_hat - want.s_hat)) <= 1e-13 * np.max(np.abs(want.s_hat))
    assert np.max(np.abs(got.a_hat - want.a_hat)) <= 1e-13 * np.max(np.abs(want.a_hat))
    assert got_led.report_json() == want_led.report_json()
    assert set(got_led.per_worker_flops) == {f"gram{k}" for k in range(len(updates) + 1)}
    # the iterate is neither a row nor a column
    assert got_led.per_worker_flops["gram0"] == 0.0


@pytest.mark.parametrize("d", [2, 3, 6, 9, 20])
@pytest.mark.parametrize("mode", ["one-site", "two-site"])
@pytest.mark.parametrize("model", ["random", "heisenberg", "ising"])
def test_stacked_assembly_matches_row_sweep_oracle(d, mode, model):
    models = {"random": random_symmetric_mpo(d, seed=d), "heisenberg": heisenberg_chain(d),
              "ising": ising_chain(d)}
    op = models[model]
    family = orthogonal_family(make_state(op.dims, 3, seed=d + 1))
    updates = random_updates(family, mode, seed=d + 2)
    win = oracles.span_windows(updates)
    # the last row has no column starting past its window
    assert win[-1][1] >= max(a for a, _ in win)
    assert_matches_row_sweeps(family, updates, op)

    scales = np.linspace(0.3, 7.0, len(updates))
    assert_matches_row_sweeps(family, scaled_updates(updates, scales), op)


def test_stacked_assembly_matches_oracle_when_split_ranks_differ():
    d = 7
    op = heisenberg_chain(d)
    family = orthogonal_family(make_state(op.dims, 2, seed=35))
    pairs = solve_all(family, op, "two-site", eig_tol=1e-10, max_rank=4, seed=0)[0]
    assert any(left.shape[2] != family.left[i].shape[2] for i, (left, _) in enumerate(pairs))
    assert_matches_row_sweeps(family, pairs, op)


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
@pytest.mark.parametrize("solved", [False, True], ids=["random-updates", "solver-updates"])
def test_closing_stored_halves_is_bitwise_the_full_step(mode, solved, monkeypatch):
    # the assembly with each step off a shared environment taken in full
    # (and charged as a closing) gives bitwise the same S and A and ledger
    d = 20
    op = ising_chain(d)
    family = orthogonal_family(make_state(op.dims, 3, seed=51))
    envs = twolevel.shared_envs(family, op)
    if solved:
        updates, results = local_solves(family, op, envs, mode, eig_tol=1e-8, max_rank=4, seed=0)
    else:
        updates = random_updates(family, mode, seed=52)
        results = oracles.solve_stand_ins(family, updates, op, envs)
    got_led, want_led = CostLedger(), CostLedger()
    got = assemble_coarse(family, updates, results, op, envs, got_led)
    # the site of each stored half, to step from its environment in full
    left_site = {id(h): s for s, h in enumerate(envs.left_open)}
    right_site = {id(h): s for s, h in enumerate(envs.right_open)}

    def full_left(half, bra, ket, led):
        s = left_site[id(half)]
        return oracles.full_step("left", envs.left[s], bra, op.cores[s], ket, led)

    def full_right(half, bra, ket, led):
        s = right_site[id(half)]
        return oracles.full_step("right", envs.right[s + 1], bra, op.cores[s], ket, led)

    monkeypatch.setattr(coarse, "_close_left", full_left)
    monkeypatch.setattr(coarse, "_close_right", full_right)
    want = assemble_coarse(family, updates, results, op, envs, want_led)
    assert np.array_equal(got.s_hat, want.s_hat)
    assert np.array_equal(got.a_hat, want.a_hat)
    assert got_led.report_json() == want_led.report_json()


def excited_center_family(op, site, seed):
    """A family whose center at ``site`` is, to roundoff, the top
    eigenvector of its own projected operator: its local solve breaks down
    at the first step."""
    family = orthogonal_family(make_state(op.dims, 3, seed=seed))
    envs = twolevel.shared_envs(family, op)
    matvec, dim, shape = local_matvec(envs.left[site], op.cores[site : site + 1],
                                      envs.right[site + 1])
    h = np.column_stack([matvec(e) for e in np.eye(dim)])
    top = np.linalg.eigh(0.5 * (h + h.T))[1][:, -1]
    cores = list(family.left[:site]) + [top.reshape(shape)] + list(family.right[site + 1 :])
    return orthogonal_family(orthogonalize(TensorTrain(cores, center=site), op.d - 1))


@pytest.mark.parametrize("restart", [False, True], ids=["converged", "restarted"])
def test_one_site_entries_from_the_solves_match_the_transfers(restart, monkeypatch):
    # row 0 and the diagonal from each solve's Ritz pair and first
    # application agree with full inner products.  Restarted: at site 2 the
    # start is an excited eigenvector, so its solve breaks down, misses
    # eig_tol = 0 and restarts from a random vector whose Krylov space does
    # not hold the start; there A_0k = theta S_0k would be wrong
    op = heisenberg_chain(6)
    if restart:
        family = excited_center_family(op, 2, seed=53)
        tols = dict(eig_tol=0.0, eig_max_iter=6)
    else:
        family = orthogonal_family(make_state(op.dims, 3, seed=53))
        tols = dict(eig_tol=1e-10)
    draws = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        draws.append(args)
        return default_rng(*args, **kwargs)

    envs = twolevel.shared_envs(family, op)
    monkeypatch.setattr(np.random, "default_rng", counted)
    updates, results = local_solves(family, op, envs, "one-site", seed=0, **tols)
    assert bool(draws) == restart
    led = CostLedger()
    got = assemble_coarse(family, updates, results, op, envs, led)
    want = oracles.pairwise_coarse(span_members(family, updates), op)
    for g, w in zip((got.s_hat, got.a_hat), want):
        assert np.array_equal(g, g.T)
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
    shortcut = results[2].eigenvalue * want[0][0, 3]
    assert (abs(shortcut - want[1][0, 3]) > 1e-6) == restart
    # the entries charge their four dot products; the iterate charges nothing
    assert led.per_worker_flops["gram0"] == 0.0


def test_two_site_entries_from_the_solves_match_pairwise_through_a_truncating_split():
    # the split at max_rank = 2 truncates every block the solves return
    # away from the chain's ends, so those updates are no Ritz vectors: the
    # diagonal and row 0 come from one application of the local operator
    # to the split update, and theta S_kk would miss A_kk
    op = heisenberg_chain(8)
    state = make_state(op.dims, 3, seed=55)
    family = orthogonal_family(tt_scale(state, 1.0 / state.norm()))
    updates, results, envs = solve_all(family, op, "two-site", eig_tol=1e-10, max_rank=2,
                                       seed=0)
    truncated = []
    for k, ((left, right), res) in enumerate(zip(updates, results), 1):
        r0, n1, _ = left.shape
        _, n2, r3 = right.shape
        block = res.eigenvector.reshape(r0 * n1, n2 * r3)
        if np.sum(np.linalg.svd(block, compute_uv=False) > 1e-8) > left.shape[2]:
            truncated.append(k)
    assert truncated == list(range(2, op.d - 1))
    led = CostLedger()
    cp = assemble_coarse(family, updates, results, op, envs, led)
    s_ref, a_ref = oracles.pairwise_coarse(span_members(family, updates), op)
    assert np.max(np.abs(cp.s_hat - s_ref)) <= 1e-12 * np.max(np.abs(s_ref))
    assert np.max(np.abs(cp.a_hat - a_ref)) <= 1e-12 * np.max(np.abs(a_ref))
    for k in truncated:
        shortcut = results[k - 1].eigenvalue * s_ref[k, k]
        assert abs(shortcut - a_ref[k, k]) > 1e-6 * abs(a_ref[k, k])
    # each member is charged its application and the two merged blocks
    assert led.per_worker_flops["gram0"] == 0.0
    assert led.per_class_flops["matvec"] == sum(
        oracles.solve_entry_flops(family, i, u, op, envs)["matvec"] for i, u in enumerate(updates)
    )


def test_one_site_assembly_sweeps_no_window_and_reopens_no_shared_half(monkeypatch):
    # at both widths no transfer step belongs to row 0 or to a diagonal: no
    # step touches the iterate's center core, and none pairs an update core
    # with itself; no open half of a shared step is recomputed
    d = 9
    op = heisenberg_chain(d)
    family = orthogonal_family(make_state(op.dims, 3, seed=54))
    envs = twolevel.shared_envs(family, op)
    touched, window_steps, reopened = [], [], []

    def extend(fn):
        def wrapper(env, bra, op_core, ket, ledger):
            touched.append((bra, ket))
            if env[0].ndim == 2:  # a single member's window step, not a stack's
                window_steps.append(fn.__name__)
            return fn(env, bra, op_core, ket, ledger)
        return wrapper

    def close(fn):
        def wrapper(half, bra, ket, ledger):
            touched.append((bra, ket))
            return fn(half, bra, ket, ledger)
        return wrapper

    def shared(fn, side):
        # an open half of a step the shared sweeps already took
        def wrapper(env, core_a, core_b):
            for s in range(d):
                if side == "left" and s < d - 1 and env is envs.left[s] \
                        and core_b is family.left[s]:
                    reopened.append(("left", s))
                if side == "right" and env is envs.right[s + 1] and core_a is family.right[s]:
                    reopened.append(("right", s))
            return fn(env, core_a, core_b)
        return wrapper

    for name in ("_extend_left", "_extend_right"):
        monkeypatch.setattr(coarse, name, extend(getattr(coarse, name)))
    for name in ("_close_left", "_close_right"):
        monkeypatch.setattr(coarse, name, close(getattr(coarse, name)))
    monkeypatch.setattr(mpo_module, "open_left_env", shared(mpo_module.open_left_env, "left"))
    monkeypatch.setattr(mpo_module, "open_right_env", shared(mpo_module.open_right_env, "right"))
    for mode in ("one-site", "two-site"):
        updates, results = local_solves(family, op, envs, mode, eig_tol=1e-8, max_rank=4, seed=0)
        update_cores = {id(c) for u in updates for c in u}
        touched.clear(), window_steps.clear()
        assemble_coarse(family, updates, results, op, envs)
        assert touched and reopened == []
        assert not any(family.centers[0] is c for pair in touched for c in pair)
        assert not any(bra is ket and id(bra) in update_cores for bra, ket in touched)
        # one-site every window is one site, closed from the stored halves;
        # two-site a row still steps across its overlapping column's window
        assert bool(window_steps) == (mode == "two-site")


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_coarse_assembly_calls_grow_linearly(mode, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(env, *args):
            # a stack step's transfers carry a leading stack axis
            calls.append(("stacked " if env[0].ndim == 3 else "") + fn.__name__)
            return fn(env, *args)
        return wrapper

    def assembly_calls(d):
        op = ising_chain(d)
        family = orthogonal_family(make_state(op.dims, 4, seed=32))
        updates = random_updates(family, mode, seed=33)
        envs = twolevel.shared_envs(family, op)
        solves = oracles.solve_stand_ins(family, updates, op, envs)
        calls.clear()
        assemble_coarse(family, updates, solves, op, envs)
        return len(calls)

    for name in ("_extend_left", "_extend_right"):
        monkeypatch.setattr(coarse, name, counted(getattr(coarse, name)))
    # Row sweeps make O(d^2) transfer updates; the two stacks together
    # cross each shared site once, so equal steps in d add equal numbers of
    # calls.
    c8, c16, c24 = assembly_calls(8), assembly_calls(16), assembly_calls(24)
    assert c24 - c16 == c16 - c8 > 0
    assert calls.count("stacked _extend_right") > 0


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_row_and_column_stacks_stay_on_their_side_of_the_cut(mode, monkeypatch):
    d = 32
    op = heisenberg_chain(d)
    family = orthogonal_family(make_state(op.dims, 4, seed=38))
    updates = random_updates(family, mode, seed=39)
    # the iterate is neither a row nor a column
    win = oracles.span_windows(updates)[1:]
    rows = [k for k, (_, b) in enumerate(win, 1) if b < max(a for a, _ in win)]
    closed = [l for l, (a, _) in enumerate(win, 1) if a > min(b for _, b in win)]
    win = [(0, 0)] + win
    cut = oracles.meeting_cut(family, op, win, rows, closed)

    sites = {"_extend_left": [], "_extend_right": []}

    def recorded(name):
        step = getattr(coarse, name)

        def wrapper(env, bra, op_core, ket, *args):
            if env[0].ndim == 3:
                # the stacks cross only shared sites: the row's bra is
                # family.right there and the column's ket family.left
                (s,) = [s for s in range(d) if family.right[s] is bra]
                assert family.left[s] is ket and op.cores[s] is op_core
                sites[name].append(s)
            return step(env, bra, op_core, ket, *args)
        return wrapper

    for name in sites:
        monkeypatch.setattr(coarse, name, recorded(name))
    assemble(family, updates, op)
    left, right = sites["_extend_left"], sites["_extend_right"]
    # the cut lies well inside the gap, and each site is crossed by one stack
    assert d // 4 < cut < 3 * d // 4
    assert left and max(left) < cut
    assert right and min(right) >= cut
    assert sorted(left + right) == list(range(min(left), max(right) + 1))


def test_local_solve_environments_grow_linearly():
    def env_flops(d):
        op = ising_chain(d)
        family = orthogonal_family(make_state(op.dims, 4, seed=34))
        led = CostLedger()
        solve_all(family, op, "one-site", eig_max_iter=2, ledger=led)
        return led.per_class_flops["env_build"]

    # Bulk sites all have the same shapes, so equal steps in d add equal work.
    f8, f16, f24 = env_flops(8), env_flops(16), env_flops(24)
    assert f24 - f16 == f16 - f8 > 0


def shared_core_family(case):
    # a random start, rank-deficient bonds (a train added to itself), both
    # ends saturated, d = 2, and local dimension 3; each through both
    # gauges, so every bond is one the family can represent
    x = random_tt((2,) * 8, 3, seed=40)
    start = {
        "random": x,
        "rank-deficient": tt_add(x, x),
        "saturated": random_tt((2,) * 6, 8, seed=41),
        "d2": random_tt((2, 2), 2, seed=42),
        "qutrits": random_tt((3,) * 5, 4, seed=43),
    }[case]
    return orthogonal_family(orthogonalize(orthogonalize(start, 0), start.d - 1))


SHARED_CORE_CASES = ["random", "rank-deficient", "saturated", "d2", "qutrits"]


@pytest.mark.parametrize("case", SHARED_CORE_CASES)
def test_shared_overlap_transfers_are_identities(case):
    # the overlaps the assembly writes as np.eye: at every cut, so at the
    # window edges of both widths
    family = shared_core_family(case)
    d = family.d
    if case == "rank-deficient":
        assert max(family.config(0).ranks) == 6  # twice the start's rank 3
    left = [np.ones((1, 1))]
    for core in family.left[: d - 1]:
        left.append(update_left_overlap(left[-1], core, core))
    right = [np.ones((1, 1))]
    for core in family.right[:0:-1]:
        right.append(update_right_overlap(right[-1], core, core))
    for e in left + right:
        assert np.max(np.abs(e - np.eye(len(e)))) <= 1e-13


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
@pytest.mark.parametrize("case", SHARED_CORE_CASES)
def test_assembly_with_identity_overlaps_matches_pairwise_oracle(case, mode):
    family = shared_core_family(case)
    op = random_symmetric_mpo(family.d, n=family.dims[0], seed=45)
    assert_matches_pairwise(family, random_updates(family, mode, seed=46), op)


def test_shared_envs_are_the_package_sweeps_and_charge_no_overlap():
    op = heisenberg_chain(7)
    d = op.d
    family = orthogonal_family(make_state(op.dims, 4, seed=47))
    led = CostLedger()
    envs = twolevel.shared_envs(family, op, led)
    x_left, x_right = family.config(d - 1), family.config(0)
    # the left sweep stops at cut d - 1: no window reads cut d
    assert len(envs.left) == d and len(envs.right) == d + 1
    want_left = [left_env(x_left, op, x_left, j) for j in range(d)]
    for got, want in ((envs.left, want_left), (envs.right, all_right_envs(x_right, op, x_right))):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # one operator step per site and direction, and nothing else
    steps = {"env:left": sum(env_step_flops(c, w, c) for c, w in
                             zip(x_left.cores[: d - 1], op.cores)),
             "env:right": sum(env_step_flops(c, w, c) for c, w in zip(x_right.cores, op.cores))}
    assert led.per_worker_flops == steps
    assert led.per_class_flops == {"env_build": sum(steps.values())}
    assert led.sequential_flops == 0.0


def test_shared_envs_keep_each_steps_open_half():
    # closing a stored half with its own family core reproduces the shared
    # environment bitwise; the halves are the package's own
    op = random_symmetric_mpo(8, seed=48)
    family = orthogonal_family(make_state(op.dims, 4, seed=49))
    envs = twolevel.shared_envs(family, op)
    x_right = family.config(0)
    assert len(envs.left_open) == family.d - 1 and len(envs.right_open) == family.d
    for j, half in enumerate(envs.left_open):
        assert np.array_equal(half, open_left_env(envs.left[j], op.cores[j], family.left[j]))
        assert np.array_equal(close_left_env(half, family.left[j]), envs.left[j + 1])
    for j, half in enumerate(envs.right_open):
        core = x_right.cores[j]
        assert np.array_equal(half, open_right_env(envs.right[j + 1], core, op.cores[j]))
        assert np.array_equal(close_right_env(half, core), envs.right[j])


def test_overlap_matrix_symmetric_and_psd():
    d = 5
    op = random_symmetric_mpo(d, seed=11)
    family = orthogonal_family(make_state((2,) * d, 3, seed=12))
    updates, results, _ = solve_all(family, op, "two-site", eig_tol=1e-10, max_rank=3, seed=0)
    cp = assemble(family, updates, op, solves=results)
    assert np.array_equal(cp.s_hat, cp.s_hat.T)
    assert np.array_equal(cp.a_hat, cp.a_hat.T)
    assert cp.sigma.min() >= -1e-10 * cp.sigma[0]
    assert 1 <= cp.p <= len(updates) + 1


def test_solve_coarse_matches_dense_span_minimum():
    d = 4
    op = random_symmetric_mpo(d, seed=13)
    family = orthogonal_family(make_state((2,) * d, 2, seed=14))
    updates, results, _ = solve_all(family, op, "one-site", eig_tol=1e-12, seed=0)
    members = span_members(family, updates)
    cp = assemble(family, updates, op, solves=results)
    sol = solve_coarse(cp)
    e_ref, p_ref = dense_span_minimum(members, op)
    assert cp.p == p_ref
    assert abs(sol.energy - e_ref) <= 1e-9 * max(1.0, abs(e_ref))
    # The reported coefficients reproduce the reported energy.
    vec = sum(
        (c * oracles.tt_dense(m.cores).ravel() for c, m in zip(sol.coeffs, members)),
        start=np.zeros(2**d),
    )
    h = oracles.mpo_dense(op.cores)
    rq = float(vec @ h @ vec) / float(vec @ vec)
    assert abs(rq - sol.energy) <= 1e-9 * max(1.0, abs(sol.energy))


def test_coarse_minimum_descends_below_every_member():
    d = 5
    op = random_symmetric_mpo(d, seed=15)
    family = orthogonal_family(make_state((2,) * d, 2, seed=16))
    updates, results, _ = solve_all(family, op, "two-site", eig_tol=1e-12, max_rank=4, seed=0)
    members = span_members(family, updates)
    cp = assemble(family, updates, op, solves=results)
    sol = solve_coarse(cp)
    for member in members:
        assert sol.energy <= rayleigh_quotient(member, op) + 1e-10
    assert sol.energy <= min(r.eigenvalue for r in results) + 1e-10


def test_solve_coarse_invariant_under_member_rescaling():
    d = 4
    op = random_symmetric_mpo(d, seed=17)
    family = orthogonal_family(make_state((2,) * d, 2, seed=18))
    updates, results, _ = solve_all(family, op, "one-site", eig_tol=1e-12, seed=0)
    scaled = scaled_updates(updates, [0.25, 3.0, 40.0, 0.5])
    e0 = solve_coarse(assemble(family, updates, op, solves=results)).energy
    e1 = solve_coarse(assemble(family, scaled, op)).energy
    assert abs(e0 - e1) <= 1e-9 * max(1.0, abs(e0))


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_structured_coarse_matches_direct(mode):
    for d in (2, 3, 6, 9):
        op = random_symmetric_mpo(d, seed=19 + d)
        family = orthogonal_family(make_state((2,) * d, 2, seed=20 + d))
        updates, results, _ = solve_all(family, op, mode, eig_tol=1e-12, max_rank=4, seed=0)
        cp = assemble(family, updates, op, solves=results)
        led = CostLedger()
        apply_a = structured_apply(family, updates, op, led)
        bound = 1e-13 * np.max(np.abs(cp.a_hat))
        for c in np.random.default_rng(d).standard_normal((3, len(updates) + 1)):
            assert np.max(np.abs(apply_a(c) - cp.a_hat @ c)) <= bound
        # x(c) is built as step 4 builds it, its orthogonalization charged;
        # at d = 2 the one cut is saturated and completes no basis
        classes = {"coarse", "matmul"} | ({"qr"} if d > 2 else set())
        assert set(led.per_class_flops) == classes

        calls = []

        def counted(c):
            calls.append(c)
            return apply_a(c)

        direct = solve_coarse(cp)
        structured = solve_coarse_structured(cp, counted)
        assert abs(direct.energy - structured.energy) <= 1e-9 * max(1.0, abs(direct.energy))
        # one application per whitened direction
        assert len(calls) == cp.p
        assert all(np.array_equal(c, w) for c, w in zip(calls, cp.whitener().T))


def test_degenerate_span_raises():
    d = 3
    op = random_symmetric_mpo(d, seed=23)
    # a zero iterate and zero updates span nothing
    zeros = [np.zeros((1, 2, 1)) for _ in range(d)]
    family = OrthogonalFamily(zeros, zeros, zeros)
    cp = assemble(family, [(z,) for z in zeros], op)
    assert cp.p == 0
    with pytest.raises(ValueError, match="degenerate"):
        solve_coarse(cp)


def test_compress_one_site_exact_at_ample_rank():
    d = 4
    op = random_symmetric_mpo(d, seed=24)
    family = orthogonal_family(make_state((2,) * d, 2, seed=25))
    updates = solve_all(family, op, "one-site", eig_tol=1e-12, seed=0)[0]
    members = span_members(family, updates)
    coeffs = np.array([0.7, -0.3, 0.9, 0.2, -1.1])
    state = compress_one_site(family, updates, coeffs, max_rank=16)
    want = sum(
        (c * oracles.tt_dense(m.cores) for c, m in zip(coeffs, members)),
        start=np.zeros((2,) * d),
    )
    assert np.max(np.abs(oracles.tt_dense(state.cores) - want)) <= 1e-12 * np.max(np.abs(want))
    assert state.center == d - 1
    assert max(state.ranks) <= 4


def dense_sum(members, coeffs):
    return sum(
        (c * oracles.tt_dense(m.cores) for c, m in zip(coeffs, members)),
        start=np.zeros(members[0].dims),
    )


def test_compress_two_site_exact_at_ample_rank():
    d = 4
    op = random_symmetric_mpo(d, seed=26)
    family = orthogonal_family(make_state((2,) * d, 2, seed=27))
    updates = solve_all(family, op, "two-site", eig_tol=1e-12, max_rank=4, seed=0)[0]
    members = span_members(family, updates)
    coeffs = np.array([0.4, 1.2, -0.8, 0.5])
    state = compress_two_site(family, updates, coeffs, max_rank=8)
    want = dense_sum(members, coeffs)
    scale = np.linalg.norm(want.ravel())

    def residual(x):
        # rounding is an orthogonal projection of the exact sum
        return np.sqrt(max(scale**2 - x.norm() ** 2, 0.0))

    # Rank 8 clips to the full (2, 4, 2) profile, so the rounding is exact.
    assert np.linalg.norm((oracles.tt_dense(state.cores) - want).ravel()) <= 1e-12 * scale
    assert residual(state) <= 1e-7 * scale
    assert state.center == d - 1

    capped = compress_two_site(family, updates, coeffs, max_rank=2)
    err = np.linalg.norm((oracles.tt_dense(capped.cores) - want).ravel())
    assert max(capped.ranks) <= 2
    assert err > 1e-3 * scale  # the cap bites
    assert np.isclose(residual(capped), err, rtol=1e-6, atol=1e-9 * scale)


@pytest.mark.parametrize("d, cap", [(2, 1), (3, 1), (6, 3), (9, 4), (12, 5)])
@pytest.mark.parametrize("model", ["ising", "heisenberg"])
def test_compress_two_site_matches_fallback(d, cap, model):
    # In exact arithmetic TT rounding of any exact representation of the
    # same tensor gives the same truncation; the pairwise add-and-round
    # reference must agree with the three-rail train to roundoff.
    op = ising_chain(d) if model == "ising" else heisenberg_chain(d)
    family = orthogonal_family(make_state(op.dims, 4, seed=d))
    updates = solve_all(family, op, "two-site", eig_tol=1e-10, max_rank=cap + 1, seed=0)[0]
    members = span_members(family, updates)
    coeffs = np.random.default_rng(d).standard_normal(d)
    led = CostLedger()
    got = oracles.tt_dense(compress_two_site(family, updates, coeffs, cap, ledger=led).cores)
    want = oracles.tt_dense(oracles.add_and_round(members, coeffs, cap).cores)
    exact = dense_sum(members, coeffs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.linalg.norm((got - exact).ravel()) > 1e-6 * np.linalg.norm(exact.ravel())
    assert "inner" not in led.per_class_flops


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_run_two_level_reaches_dense_ground_state(mode):
    d = 6
    op = ising_chain(d)
    e_ref, _ = dense_ground_state(op)
    cfg = TwoLevelConfig(
        mode=mode, max_rank=8, eig_tol=1e-10, energy_tol=1e-13, max_iters=60, seed=5
    )
    led = CostLedger()
    state, trace = run_two_level(
        random_tt((2,) * d, 2, seed=11), op, cfg, ledger=led, reference_energy=e_ref
    )
    assert trace.converged
    energy = trace.records[-1].energy
    assert abs(energy - e_ref) <= 1e-9 * abs(e_ref)
    assert abs(rayleigh_quotient(state, op) - energy) <= 1e-12 * abs(e_ref)
    assert trace.records[-1].energy_error_vs_reference <= 1e-9 * abs(e_ref)
    assert led.total_flops() > 0
    assert led.cost_per_processor() < led.total_flops()


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_raw_random_start_converges_beyond_dense_sizes(mode):
    # random_tt norms grow geometrically with d; an iterate left at that
    # scale made the coarse cut keep only the previous iterate, so the
    # energy froze and the run reported convergence after one iteration.
    d = 24
    op = ising_chain(d)
    e_ref = oracles.ising_free_fermion_energy(d, 1.0, 1.0)
    cfg = TwoLevelConfig(mode=mode, max_rank=8, energy_tol=1e-6)
    state, trace = run_two_level(random_tt(op.dims, 2, 0), op, cfg)
    assert trace.converged
    assert abs(trace.records[-1].energy - e_ref) <= 1e-5 * abs(e_ref)
    assert abs(state.norm() - 1.0) <= 1e-12


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_d32_matches_classical_sweeps_and_free_fermions(mode):
    d, cap = 32, 12
    op = ising_chain(d)
    e_exact = oracles.ising_free_fermion_energy(d, 1.0, 1.0)
    init = random_tt(op.dims, 2, seed=0)
    sweep = SweepConfig(mode="two-site", max_rank=cap, eig_tol=1e-8, energy_tol=1e-8)
    _, sweeps = run_dmrg(init, op, sweep)
    e_dmrg = sweeps.half_sweep_energies[-1]
    cfg = TwoLevelConfig(mode=mode, max_rank=cap, energy_tol=1e-8)
    _, trace = run_two_level(init, op, cfg)
    energy = trace.records[-1].energy
    assert trace.converged
    assert abs(energy - e_dmrg) <= 1e-6 * abs(e_dmrg)
    assert abs(energy - e_exact) <= 1e-6 * abs(e_exact)


@pytest.fixture(scope="module")
def d24_references():
    # Ising: closed form.  Heisenberg: classical two-site sweeps at the same rank cap.
    d, cap = 24, 16
    heis = heisenberg_chain(d)
    sweep = SweepConfig(mode="two-site", max_rank=cap, eig_tol=1e-10, energy_tol=1e-10)
    _, sweeps = run_dmrg(random_tt(heis.dims, 2, seed=0), heis, sweep)
    return {
        "ising": (ising_chain(d), oracles.ising_free_fermion_energy(d, 1.0, 1.0)),
        "heisenberg": (heis, sweeps.half_sweep_energies[-1]),
    }


@pytest.mark.parametrize("model", ["ising", "heisenberg"])
@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_inexact_local_solves_keep_the_energy_for_fewer_flops(
    mode, model, d24_references, monkeypatch
):
    op, e_ref = d24_references[model]
    init = random_tt(op.dims, 2, seed=0)

    def run():
        led = CostLedger()
        _, trace = run_two_level(init, op, TwoLevelConfig(mode=mode, max_rank=16), ledger=led)
        assert trace.converged
        return trace, led.per_class_flops["matvec"]

    inexact, inexact_flops = run()
    monkeypatch.setattr(dmrg, "EIG_FORCING", 0.0)
    exact, exact_flops = run()
    assert all(r.local_eig_tol == 1e-8 for r in exact.records)
    assert max(r.local_eig_tol for r in inexact.records) > 1e-8
    energy = inexact.records[-1].energy
    assert abs(energy - exact.records[-1].energy) <= 1e-6 * abs(e_ref)
    assert abs(energy - e_ref) <= 1e-6 * abs(e_ref)
    assert inexact_flops < exact_flops


def test_loose_local_solves_never_count_as_convergence(monkeypatch):
    # At a forcing term of 0.9 a loose iteration's local solves may stop one
    # Krylov step past their starts, so the energy can move by less than
    # energy_tol; the guard must not take that for convergence.
    monkeypatch.setattr(dmrg, "EIG_FORCING", 0.9)
    fired = 0
    for op in (ising_chain(10), heisenberg_chain(10)):
        e_ref, _ = dense_ground_state(op)
        for mode in ("one-site", "two-site"):
            for energy_tol in (1e-8, 1e-6):
                cfg = TwoLevelConfig(mode=mode, max_rank=12, energy_tol=energy_tol)
                _, trace = run_two_level(random_tt(op.dims, 2, seed=0), op, cfg)
                tight = max(cfg.eig_tol, cfg.energy_tol)
                assert trace.converged
                assert trace.records[-1].local_eig_tol <= tight
                stalled = [
                    r for r in trace.records
                    if abs(r.energy - r.prev_energy) <= energy_tol * abs(r.energy)
                ]
                assert all(r.local_eig_tol > tight for r in stalled[:-1])
                fired += len(stalled) - 1
                assert abs(trace.records[-1].energy - e_ref) <= 1e-5 * abs(e_ref)
    assert fired > 0  # without the guard some run would have stopped early


@pytest.mark.parametrize("model", [ising_chain, heisenberg_chain])
@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_full_rank_runs_solve_every_iteration_exactly(mode, model):
    # On 6 sites the full separation ranks are 2, 4, 8, 4, 2.  At max_rank
    # 8 step 4 loses nothing and exact solves converge in 3-4 iterations;
    # the forcing term took 9-11 here.  One below, the forcing term applies.
    op = model(6)
    init = random_tt(op.dims, 2, seed=11)
    tols = {}
    for cap, iters in ((8, 60), (7, 3)):
        cfg = TwoLevelConfig(
            mode=mode, max_rank=cap, eig_tol=1e-10, energy_tol=1e-13, max_iters=iters, seed=5
        )
        # three iterations are too few to converge below the full ranks
        with pytest.warns(RuntimeWarning, match="max_iters = 3 without") if cap == 7 \
                else contextlib.nullcontext():
            _, trace = run_two_level(init, op, cfg)
        tols[cap] = {r.local_eig_tol for r in trace.records}
        if cap == 8:
            assert trace.converged and len(trace.records) <= 4
    assert tols[8] == {1e-10}
    assert max(tols[7]) > 1e-10


def test_run_two_level_heisenberg():
    d = 6
    op = heisenberg_chain(d)
    e_ref, _ = dense_ground_state(op)
    cfg = TwoLevelConfig(
        mode="two-site", max_rank=8, eig_tol=1e-10, energy_tol=1e-13, max_iters=80, seed=6
    )
    _, trace = run_two_level(random_tt((2,) * d, 2, seed=4), op, cfg)
    assert abs(trace.records[-1].energy - e_ref) <= 1e-9 * abs(e_ref)


# at energy_tol = 0 only an exact energy tie stops the run, which roundoff
# may never give within the budget
@pytest.mark.filterwarnings("ignore:run stopped at max_iters = 12 without:RuntimeWarning")
def test_energies_monotone_when_compression_is_loose():
    # With max_rank at the full profile the compression is exact, so each
    # iteration can only lower the Rayleigh quotient.
    d = 4
    op = ising_chain(d)
    cfg = TwoLevelConfig(
        mode="two-site", max_rank=4, eig_tol=1e-12, energy_tol=0.0, max_iters=12, seed=2
    )
    # converged to machine precision, the energies wobble by an ulp or two:
    # roundoff, not a collapsed coarse span
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "iteration .*coarse span collapsed", RuntimeWarning)
        _, trace = run_two_level(random_tt((2,) * d, 2, seed=3), op, cfg)
    es = trace.energies()
    assert all(b <= a + 1e-9 for a, b in zip(es, es[1:]))


def test_truncated_run_still_descends():
    d = 6
    op = ising_chain(d)
    cfg = TwoLevelConfig(
        mode="two-site", max_rank=2, eig_tol=1e-10, energy_tol=0.0, max_iters=20, seed=1
    )
    with pytest.warns(RuntimeWarning, match="max_iters = 20 without"):
        _, trace = run_two_level(random_tt((2,) * d, 2, seed=3), op, cfg)
    es = trace.energies()
    assert all(b <= a + 1e-9 for a, b in zip(es, es[1:]))
    assert max(r for r in trace.records[-1].lanczos_iterations) >= 1


def test_converged_start_is_a_fixed_point():
    d = 4
    op = ising_chain(d)
    e_ref, _ = dense_ground_state(op)
    base, _ = run_dmrg(
        random_tt((2,) * d, 2, seed=8),
        op,
        SweepConfig(mode="two-site", max_rank=4, eig_tol=1e-12, energy_tol=1e-13),
    )
    e0 = rayleigh_quotient(base, op)
    assert abs(e0 - e_ref) <= 1e-10 * abs(e_ref)
    cfg = TwoLevelConfig(
        mode="two-site", max_rank=4, eig_tol=1e-12, energy_tol=1e-15, max_iters=1, seed=0
    )
    _, trace = run_two_level(base, op, cfg)
    e1 = trace.records[-1].energy
    assert e1 <= e0 + 1e-10
    assert abs(e1 - e0) <= 1e-9 * abs(e0)


def test_worker_count_does_not_change_results():
    d = 5
    op = ising_chain(d)
    runs = []
    for workers in (1, 4, d):
        led = CostLedger()
        cfg = TwoLevelConfig(
            mode="two-site", max_rank=4, eig_tol=1e-10, energy_tol=1e-13,
            max_iters=30, workers=workers, seed=5,
        )
        _, trace = run_two_level(random_tt((2,) * d, 2, seed=11), op, cfg, ledger=led)
        runs.append((trace.energies(), led.report()))
    e1, r1 = runs[0]
    for e, r in runs[1:]:
        assert len(e) == len(e1)
        assert max(abs(a - b) for a, b in zip(e, e1)) <= 1e-12
        assert r == r1


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_workers_never_start_a_thread_pool(mode, monkeypatch):
    import ttdmrg.twolevel

    def no_pool(*args, **kwargs):
        raise AssertionError("the two-level solver started a thread pool")

    op = ising_chain(5)

    def run(workers):
        led = CostLedger()
        cfg = TwoLevelConfig(mode=mode, max_rank=4, max_iters=5, workers=workers, seed=5)
        _, trace = run_two_level(random_tt(op.dims, 2, seed=11), op, cfg, ledger=led)
        return trace.energies(), led.report()

    serial = run(1)
    monkeypatch.setattr(ttdmrg.twolevel, "ThreadPoolExecutor", no_pool)
    assert run(4) == serial


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_unconverged_local_solves_warn_once_per_iteration(mode):
    d = 6
    op = ising_chain(d)
    cfg = TwoLevelConfig(mode=mode, max_rank=8, eig_max_iter=2, max_iters=3)
    with pytest.warns(RuntimeWarning) as caught:
        _, trace = run_two_level(random_tt(op.dims, 2, seed=11), op, cfg)
    tasks = d if mode == "one-site" else d - 1
    assert not trace.converged
    assert [str(w.message) for w in caught] == [
        f"iteration {r.global_iter}: {r.lanczos_unconverged} of {tasks} local Lanczos "
        "solves did not converge"
        for r in trace.records
    ] + ["run stopped at max_iters = 3 without converging"]
    assert all(1 <= r.lanczos_unconverged <= tasks for r in trace.records)
    assert all(r.lanczos_max_residual > 0.0 for r in trace.records)


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_converged_local_solves_do_not_warn(mode):
    import warnings

    d = 6
    op = ising_chain(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, trace = run_two_level(
            random_tt(op.dims, 2, seed=11), op, TwoLevelConfig(mode=mode, max_rank=8)
        )
    assert trace.converged
    assert all(r.lanczos_unconverged == 0 for r in trace.records)
    assert all(
        r.lanczos_max_residual <= r.local_eig_tol * max(1.0, abs(r.energy)) for r in trace.records
    )


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_collapsed_coarse_span_warns_every_iteration(mode, monkeypatch):
    op = ising_chain(10)
    # exact local solves: the expected iteration lists below depend on them
    monkeypatch.setattr(dmrg, "EIG_FORCING", 0.0)
    # a cut that keeps only the span's leading direction
    monkeypatch.setattr(twolevel, "COARSE_EPS", 0.999)
    cfg = TwoLevelConfig(mode=mode, max_rank=6, max_iters=10)
    with pytest.warns(RuntimeWarning) as caught:
        _, trace = run_two_level(random_tt(op.dims, 3, 7), op, cfg)
    members = 11 if mode == "one-site" else 10
    assert not trace.converged
    assert [r.coarse_p for r in trace.records] == [1] * 10
    # the rule: a member lies below the coarse energy by more than energy_tol
    collapsed = [
        r.global_iter for r in trace.records
        if r.coarse_energy - r.min_update_energy > cfg.energy_tol * abs(r.coarse_energy)
    ]
    if mode == "one-site":
        assert collapsed == list(range(1, 11))
    else:
        # on iterations 8 and 9 the coarse energy lies below every member
        assert collapsed == [1, 2, 3, 4, 5, 6, 7, 10]
    assert [str(w.message) for w in caught] == [
        f"iteration {it}: coarse span collapsed to p = 1 of {members} members"
        for it in collapsed
    ] + ["run stopped at max_iters = 10 without converging"]


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_stalled_energy_on_collapsed_span_is_not_convergence(mode, monkeypatch):
    import ttdmrg.twolevel

    # keep only the previous iterate, so the energy cannot move although
    # the local updates lie lower
    real = ttdmrg.twolevel.assemble_coarse

    def iterate_only(*args, **kwargs):
        cp = real(*args, **kwargs)
        return dataclasses.replace(cp, sigma=np.diag(cp.s_hat), basis=np.eye(len(cp.s_hat)), p=1)

    monkeypatch.setattr(ttdmrg.twolevel, "assemble_coarse", iterate_only)
    op = ising_chain(6)
    cfg = TwoLevelConfig(mode=mode, max_rank=4, max_iters=3)
    with pytest.warns(RuntimeWarning) as caught:
        _, trace = run_two_level(random_tt(op.dims, 2, seed=11), op, cfg)
    energies = trace.energies()
    assert all(abs(e - energies[0]) <= 1e-10 for e in energies)
    assert len(trace.records) == 3 and not trace.converged
    members = 7 if mode == "one-site" else 6
    assert [str(w.message) for w in caught] == [
        f"iteration {it}: coarse span collapsed to p = 1 of {members} members"
        for it in (1, 2, 3)
    ] + ["run stopped at max_iters = 3 without converging"]


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_exhausted_iteration_budget_warns_once(mode):
    op = heisenberg_chain(8)
    cfg = TwoLevelConfig(mode=mode, max_rank=6, max_iters=2)
    with pytest.warns(RuntimeWarning) as caught:
        _, trace = run_two_level(random_tt(op.dims, 3, seed=7), op, cfg)
    assert len(trace.records) == 2 and not trace.converged
    assert [str(w.message) for w in caught] == ["run stopped at max_iters = 2 without converging"]


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_run_converging_on_its_last_allowed_step_stays_silent(mode):
    op = ising_chain(6)
    init = random_tt(op.dims, 2, seed=11)
    _, trace = run_two_level(init, op, TwoLevelConfig(mode=mode, max_rank=8))
    assert trace.converged
    # the budget is exactly the iterations the run needs: converged, not exhausted
    cfg = TwoLevelConfig(mode=mode, max_rank=8, max_iters=len(trace.records))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, again = run_two_level(init, op, cfg)
    assert again.converged and len(again.records) == len(trace.records)
    cap = 8 if mode == "two-site" else 2  # one-site sweeps keep the start's rank
    sweeps = SweepConfig(mode=mode, max_rank=cap)
    _, classical = run_dmrg(init, op, sweeps)
    assert classical.converged
    sweeps = SweepConfig(mode=mode, max_rank=cap,
                         max_half_sweeps=len(classical.half_sweep_energies))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, again = run_dmrg(init, op, sweeps)
    assert again.converged


def test_family_energy_is_the_rayleigh_quotient(charges):
    op = heisenberg_chain(9)
    state = make_state(op.dims, 4, seed=3)
    state = tt_scale(state, 3.0 / state.norm())  # any norm: the quotient divides by it
    family = orthogonal_family(state)
    envs = twolevel.shared_envs(family, op)
    charges.clear()
    energy = twolevel.family_energy(family, envs)
    # it reads the right sweep's site-0 entry <x|A|x> and charges nothing
    assert charges == []
    expected = rayleigh_quotient(state, op)
    assert abs(energy - expected) <= 1e-13 * abs(expected)


PREFIX_CASES = {
    "one-site": dict(mode="one-site"),
    "two-site": dict(mode="two-site"),
    "structured": dict(mode="two-site", structured_coarse=True),
}


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_each_record_energy_is_its_iterate_rayleigh_quotient(case):
    import csv
    import io

    op = heisenberg_chain(8)
    init = random_tt(op.dims, 3, seed=7)
    runs = {}
    for k in (1, 2, 3, 4):
        cfg = TwoLevelConfig(max_rank=6, max_iters=k, **PREFIX_CASES[case])
        with pytest.warns(RuntimeWarning, match=f"max_iters = {k} without"):
            state, trace = run_two_level(init, op, cfg, ledger=CostLedger())
        assert len(trace.records) == k and not trace.converged
        # run k returns x_k, whose energy its last record holds
        expected = rayleigh_quotient(state, op)
        assert abs(trace.records[-1].energy - expected) <= 1e-13 * abs(expected)
        runs[k] = list(csv.reader(io.StringIO(trace.to_csv())))
    # a shorter budget changes nothing before it ends, flops columns included:
    # record k's snapshot already holds the family and environments of x_k
    for k in (1, 2, 3):
        assert runs[k] == runs[4][: k + 1]


def test_no_full_train_rayleigh_quotient_per_iteration(monkeypatch):
    import ttdmrg.mpo

    def no_sweep(*args, **kwargs):
        raise AssertionError("a full-train <x|A|x> pass ran")

    op = heisenberg_chain(8)
    init = random_tt(op.dims, 3, seed=7)
    cfg = TwoLevelConfig(mode="two-site", max_rank=6)
    monkeypatch.setattr(ttdmrg.mpo, "mpo_inner", no_sweep)
    monkeypatch.setattr(twolevel, "mpo_inner", no_sweep)  # the structured path's name
    led = CostLedger()
    state, trace = run_two_level(init, op, cfg, ledger=led)
    monkeypatch.undo()
    assert trace.converged
    # every energy, the start's included, is read off the shared right sweep
    assert "inner" not in led.per_class_flops


@pytest.mark.parametrize("budget", [200, 3], ids=["converged", "exhausted"])
@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_last_record_snapshot_is_the_returned_ledger(mode, budget):
    op = heisenberg_chain(8)
    led = CostLedger()
    cfg = TwoLevelConfig(mode=mode, max_rank=6, max_iters=budget)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, trace = run_two_level(random_tt(op.dims, 3, seed=7), op, cfg, ledger=led)
    assert trace.converged == (budget == 200)
    assert [str(w.message) for w in caught] == (
        [] if trace.converged else ["run stopped at max_iters = 3 without converging"]
    )
    last = trace.records[-1]
    assert last.cost_per_processor == led.cost_per_processor()
    assert last.flops_seq == led.sequential_flops
    assert last.flops_max_worker == led.max_worker_flops()


@pytest.mark.parametrize("d", [5, 8])
@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_fit_residual_is_the_dense_compression_error(d, mode, monkeypatch):
    import ttdmrg.twolevel

    calls = []
    name = "compress_one_site" if mode == "one-site" else "compress_two_site"
    real = getattr(ttdmrg.twolevel, name)

    def recorded(family, updates, coeffs, *args):
        state = real(family, updates, coeffs, *args)
        calls.append((family, updates, coeffs, state))
        return state

    monkeypatch.setattr(ttdmrg.twolevel, name, recorded)
    op = ising_chain(d)
    cfg = TwoLevelConfig(mode=mode, max_rank=2, max_iters=4, energy_tol=0.0)
    with pytest.warns(RuntimeWarning, match="max_iters = 4 without"):
        _, trace = run_two_level(random_tt(op.dims, 3, seed=d), op, cfg)
    assert len(calls) == len(trace.records)
    errors = []
    for record, (family, updates, coeffs, state) in zip(trace.records, calls):
        exact = dense_sum(span_members(family, updates), coeffs)
        err = np.linalg.norm((exact - oracles.tt_dense(state.cores)).ravel())
        assert abs(record.fit_residual - err) <= 1e-6 * np.linalg.norm(exact.ravel())
        errors.append(err)
    assert max(errors) > 1e-3  # the rank cap bites


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_step4_runs_through_its_traced_names_once_per_iteration(mode, monkeypatch):
    # bench/tracer.py times step 4 by these names; a solver that went
    # around them would report zero compression time.
    counts = {}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(twolevel, "compress_one_site")
    count(twolevel, "compress_two_site")
    op = ising_chain(6)
    for structured in (False, True):
        counts.clear()
        cfg = TwoLevelConfig(mode=mode, max_rank=3, max_iters=3, energy_tol=0.0,
                             structured_coarse=structured)
        with pytest.warns(RuntimeWarning, match="max_iters = 3 without"):
            _, trace = run_two_level(random_tt(op.dims, 2, seed=1), op, cfg)
        n = len(trace.records)
        name = "compress_one_site" if mode == "one-site" else "compress_two_site"
        assert counts == {name: n}


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_step3_runs_through_its_traced_names_once_per_iteration(mode, monkeypatch):
    # bench/tracer.py times step 3 and its dense eigensolves and inner
    # products by these names in twolevel's namespace; a call made from
    # another module would report zero time
    counts = {}

    def count(name):
        real = getattr(twolevel, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(twolevel, name, counted)

    names = ("assemble_coarse", "dense_sym_svd", "dense_lowest_eig", "solve_coarse",
             "solve_coarse_structured", "mpo_inner")
    for name in names:
        count(name)
    op = ising_chain(6)
    members = op.d + 1 if mode == "one-site" else op.d
    for structured in (False, True):
        counts.clear()
        cfg = TwoLevelConfig(mode=mode, max_rank=3, max_iters=3, energy_tol=0.0,
                             structured_coarse=structured)
        with pytest.warns(RuntimeWarning, match="max_iters = 3 without"):
            _, trace = run_two_level(random_tt(op.dims, 2, seed=1), op, cfg)
        n = len(trace.records)
        solve = "solve_coarse_structured" if structured else "solve_coarse"
        want = {"assemble_coarse": n, "dense_sym_svd": n, "dense_lowest_eig": n, solve: n}
        if structured:
            # one <member, A x(c)> per member and whitened direction
            want["mpo_inner"] = members * sum(r.coarse_p for r in trace.records)
            assert want["mpo_inner"] == {"one-site": 147, "two-site": 108}[mode]
        assert counts == want


@pytest.mark.parametrize("mode, op, svd_tol", [
    ("one-site", heisenberg_chain(16), 0.0),
    # The oracle's round_tt at svd_tol = 0 keeps the roundoff-level
    # singular directions of a two-site sum that step 4's floor drops
    # (test_two_site_runs_ignore_a_one_ulp_change_of_the_start); a cut at
    # 1e-13 drops them on both paths.
    ("two-site", ising_chain(20), 1e-13),
])
def test_driver_matches_the_round_tt_compression(mode, op, svd_tol, monkeypatch):
    # Step 4 orthogonalizes the sum against its done rail instead of a full
    # LQ sweep; at working sizes the runs must follow the round_tt path.
    cfg = TwoLevelConfig(mode=mode, max_rank=16, eig_tol=1e-8, energy_tol=1e-6,
                         svd_tol=svd_tol)
    for seed in (0, 1):
        init = random_tt(op.dims, 2, seed=seed)
        _, got = run_two_level(init, op, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(twolevel, "compress_one_site", oracles.round_sum_oracle)
            patch.setattr(twolevel, "compress_two_site", oracles.round_sum_oracle)
            _, want = run_two_level(init, op, cfg)
        assert got.converged and want.converged
        assert len(got.records) == len(want.records)
        assert abs(got.energies()[-1] - want.energies()[-1]) <= 1e-10 * abs(want.energies()[-1])


@pytest.mark.parametrize("op, seed", [(ising_chain(12), 0), (heisenberg_chain(10), 1)])
def test_two_site_runs_ignore_a_one_ulp_change_of_the_start(op, seed):
    # A two-site sum has rank-deficient bonds.  Without step 4's roundoff
    # floor the truncation keeps directions at ~1e-16 of the largest
    # singular value, whose vectors are arbitrary, the next loose local
    # solves explore them, and these runs end 3e-9 to 2e-8 apart, one to
    # two iterations apart.
    cfg = TwoLevelConfig(mode="two-site", max_rank=8, energy_tol=1e-8)
    init = random_tt(op.dims, 2, seed=seed)
    nudged = TensorTrain([init.cores[0] * (1 + 2.0**-50)] + list(init.cores[1:]))
    _, a = run_two_level(init, op, cfg)
    _, b = run_two_level(nudged, op, cfg)
    assert a.converged and b.converged
    assert len(a.records) == len(b.records)
    assert abs(a.energies()[-1] - b.energies()[-1]) <= 1e-12 * abs(a.energies()[-1])


def test_structured_flag_matches_direct_through_the_driver():
    d = 4
    op = ising_chain(d)
    traces = []
    for structured in (False, True):
        cfg = TwoLevelConfig(
            mode="two-site", max_rank=4, eig_tol=1e-11, energy_tol=1e-13,
            max_iters=30, structured_coarse=structured, seed=3,
        )
        _, trace = run_two_level(random_tt((2,) * d, 2, seed=7), op, cfg)
        traces.append(trace)
    a, b = traces
    m = min(len(a.records), len(b.records))
    for ra, rb in zip(a.records[:m], b.records[:m]):
        assert abs(ra.coarse_energy - rb.coarse_energy) <= 1e-9 * max(1.0, abs(ra.coarse_energy))


def test_trace_csv_shape_and_determinism():
    import csv
    import io

    d = 4
    op = ising_chain(d)

    def go():
        cfg = TwoLevelConfig(
            mode="one-site", max_rank=4, eig_tol=1e-10, energy_tol=1e-12,
            max_iters=10, seed=4,
        )
        _, trace = run_two_level(random_tt((2,) * d, 2, seed=5), op, cfg,
                                 reference_energy=-4.0)
        return trace

    trace = go()
    text = trace.to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "global_iter", "energy", "energy_error_vs_reference", "coarse_p",
        "lanczos_iterations", "coarse_energy", "min_update_energy", "prev_energy",
        "fit_residual", "flops_seq", "flops_max_worker", "cost_per_processor",
        "lanczos_unconverged", "lanczos_max_residual", "local_eig_tol",
    ]
    assert len(rows) == len(trace.records) + 1
    first = rows[1]
    assert first[0] == "1"
    assert len(first[4].split(";")) == d
    assert float(first[1]) == trace.records[0].energy
    assert float(first[2]) == trace.records[0].energy_error_vs_reference
    assert float(first[14]) == 1e-10  # the first iteration solves at eig_tol
    # flops columns are cumulative snapshots
    seq = [float(r[9]) for r in rows[1:]]
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    assert all(r.fit_residual >= 0.0 for r in trace.records)  # finite in both modes
    assert go().to_csv() == text


def test_bad_inputs_rejected():
    op = ising_chain(4)
    with pytest.raises(ValueError, match="dims"):
        run_two_level(random_tt((2, 2, 2), 2, seed=0), op, TwoLevelConfig())
    with pytest.raises(ValueError, match="zero norm"):
        zero = TensorTrain([np.zeros((1, 2, 1)) for _ in range(4)])
        run_two_level(zero, op, TwoLevelConfig())
    one_site_op = MatrixProductOperator([np.eye(2).reshape(1, 2, 2, 1)])
    with pytest.raises(ValueError, match="two sites"):
        run_two_level(random_tt((2,), 1, seed=0), one_site_op, TwoLevelConfig())
    with pytest.raises(ValueError, match="mode"):
        TwoLevelConfig(mode="three-site")
    for bad in (
        dict(workers=0),
        dict(workers=1.5),
        dict(workers=True),
        dict(seed=1.5),
        dict(seed=-1),
        dict(max_iters=0),
        dict(max_rank=0),
        dict(eig_tol=-1e-8),
        dict(energy_tol=-1.0),
        dict(svd_tol=-0.1),
        dict(eig_max_iter=0),
        # the string "false" is truthy: it ran the structured path
        dict(structured_coarse="false"),
        dict(structured_coarse=1),
        dict(structured_coarse=None),
    ):
        with pytest.raises(ValueError):
            TwoLevelConfig(**bad)
    # zero tolerances stay legal: eig_tol = 0 pins every solve to its budget
    TwoLevelConfig(eig_tol=0.0, energy_tol=0.0, svd_tol=0.0, eig_max_iter=1)


def test_coarse_cut_is_a_module_constant():
    assert twolevel.COARSE_EPS == 1e-10
    assert "coarse_eps" not in {f.name for f in dataclasses.fields(TwoLevelConfig)}
    with pytest.raises(TypeError, match="coarse_eps"):
        TwoLevelConfig(coarse_eps=1e-8)
    assert "eps" not in inspect.signature(assemble_coarse).parameters


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_structured_coarse_step_runs_no_lanczos(mode, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("step 3 ran a Lanczos solve")

    # the local solves call dmrg's binding; twolevel's is the tracer's only
    monkeypatch.setattr(twolevel, "lanczos_lowest", refuse)
    op = ising_chain(5)
    cfg = TwoLevelConfig(mode=mode, max_rank=4, structured_coarse=True)
    _, trace = run_two_level(random_tt(op.dims, 2, seed=3), op, cfg)
    assert trace.converged


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_start_with_a_bond_its_right_side_cannot_carry(mode):
    # the direct sum has rank 4 at the last cut, where the right side holds 2;
    # classical sweeps solve this start, and so must the two-level run
    op = ising_chain(6)
    init = tt_add(random_tt(op.dims, 2, seed=0), random_tt(op.dims, 2, seed=1))
    assert init.ranks[-2] > op.dims[-1]
    _, trace = run_two_level(init, op, TwoLevelConfig(mode=mode, max_rank=8))
    e_ref, _ = dense_ground_state(op)
    assert trace.converged
    assert abs(trace.energies()[-1] - e_ref) <= 1e-10 * abs(e_ref)
