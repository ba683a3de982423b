import math
from collections import Counter

import numpy as np
import pytest

import oracles
from ttdmrg import dmrg, mpo, tt, twolevel
from ttdmrg import ledger as ledger_module
from ttdmrg.ledger import CostLedger
from ttdmrg.models import heisenberg_chain, ising_chain
from ttdmrg.mpo import MatrixProductOperator
from ttdmrg.tt import random_tt


def random_mpo(dims, rank, seed):
    rng = np.random.default_rng(seed)
    d = len(dims)
    ranks = [1] + [rank] * (d - 1) + [1]
    cores = [
        rng.standard_normal((ranks[j], dims[j], dims[j], ranks[j + 1])) for j in range(d)
    ]
    return MatrixProductOperator(cores)


def test_operators_reject_complex_cores():
    # a cast would make 1j * I the zero operator behind a ComplexWarning
    with pytest.raises(ValueError, match="core 0 is complex"):
        MatrixProductOperator([1j * np.eye(2)[None, :, :, None]])


def test_to_dense_matches_naive():
    op = random_mpo((2, 3, 2), 2, seed=0)
    assert np.allclose(op.to_dense(), oracles.mpo_dense(op.cores), atol=1e-12)


def test_constructor_validation():
    # the chain format is the train's (tests/test_tt.py); operators add
    # only that every local space is square
    for cores in ([np.zeros((1, 2, 3, 1))], [np.zeros((1, 2, 2, 2)), np.zeros((2, 3, 2, 1))]):
        with pytest.raises(ValueError, match="square local space"):
            MatrixProductOperator(cores)
    with pytest.raises(ValueError, match="boundary ranks"):
        MatrixProductOperator([np.zeros((2, 2, 2, 1))])
    with pytest.raises(ValueError, match="bond mismatch"):
        MatrixProductOperator([np.zeros((1, 2, 2, 2)), np.zeros((3, 2, 2, 1))])


def test_add_transpose_scale_identity():
    a = random_mpo((2, 2, 2), 2, seed=1)
    b = random_mpo((2, 2, 2), 3, seed=2)
    s = mpo.mpo_add(a, mpo.mpo_scale(b, -0.5))
    assert mpo.mpo_add is tt.tt_add and mpo.mpo_scale is tt.tt_scale
    assert type(s) is MatrixProductOperator
    assert np.allclose(s.to_dense(), a.to_dense() - 0.5 * b.to_dense(), atol=1e-12)
    assert s.ranks[1] == a.ranks[1] + b.ranks[1]
    assert np.allclose(mpo.mpo_transpose(a).to_dense(), a.to_dense().T, atol=1e-12)
    eye = mpo.identity_mpo((2, 3, 2))
    assert np.allclose(eye.to_dense(), np.eye(12), atol=1e-15)


def test_mpo_inner_matches_dense_quadratic_form():
    op = random_mpo((2, 2, 3, 2), 2, seed=3)
    x = random_tt((2, 2, 3, 2), 3, seed=4)
    y = random_tt((2, 2, 3, 2), 2, seed=5)
    want = x.to_dense().ravel() @ op.to_dense() @ y.to_dense().ravel()
    got = mpo.mpo_inner(x, op, y)
    assert abs(got - want) < 1e-10 * (1 + abs(want))


def test_env_updates_match_scratch_builds():
    op = random_mpo((2, 3, 2, 2), 3, seed=6)
    x = random_tt((2, 3, 2, 2), 3, seed=7)
    y = random_tt((2, 3, 2, 2), 2, seed=8)
    lefts = [mpo.boundary_env()]
    for s in range(x.d):
        lefts.append(mpo.update_left_env(lefts[-1], x.cores[s], op.cores[s], y.cores[s]))
    rights = mpo.all_right_envs(x, op, y)
    for j in range(x.d + 1):
        assert np.allclose(lefts[j], mpo.left_env(x, op, y, j), atol=1e-12)
        assert np.allclose(rights[j], mpo.right_env(x, op, y, j), atol=1e-12)
    # the two halves close to the same scalar at every cut
    full = mpo.mpo_inner(x, op, y)
    for j in range(x.d + 1):
        s = np.einsum("akb,akb->", lefts[j], rights[j])
        assert abs(s - full) < 1e-10 * (1 + abs(full))


@pytest.mark.parametrize("site,center", [(0, 0), (1, 1), (2, 2), (3, 3), (1, None)])
def test_local_1site_matches_dense_projection(site, center):
    dims = (2, 2, 3, 2)
    raw = random_mpo(dims, 2, seed=9)
    op = mpo.mpo_scale(mpo.mpo_add(raw, mpo.mpo_transpose(raw)), 0.5)
    x = random_tt(dims, 3, seed=10)
    if center is not None:
        x = tt.orthogonalize(x, center)
    p = oracles.site_projector(x.cores, site)
    a_eff = p.T @ op.to_dense() @ p
    env_l = mpo.left_env(x, op, x, site)
    env_r = mpo.right_env(x, op, x, site + 1)
    matvec, dim, shape = mpo.local_matvec_1site(env_l, op.cores[site], env_r)
    assert dim == a_eff.shape[0]
    got = np.column_stack([matvec(e) for e in np.eye(dim)])
    assert np.allclose(got, a_eff, atol=1e-10)
    if center == site:
        assert np.max(np.abs(got - got.T)) < 1e-10 * (1 + np.max(np.abs(got)))


@pytest.mark.parametrize("site", [0, 1, 2])
def test_local_2site_matches_dense_projection(site):
    dims = (2, 2, 2, 2)
    op = random_mpo(dims, 2, seed=11)
    x = tt.orthogonalize(random_tt(dims, 2, seed=12), site)
    p = oracles.block_projector(x.cores, site)
    a_eff = p.T @ op.to_dense() @ p
    env_l = mpo.left_env(x, op, x, site)
    env_r = mpo.right_env(x, op, x, site + 2)
    matvec, dim, shape = mpo.local_matvec_2site(
        env_l, op.cores[site], op.cores[site + 1], env_r
    )
    got = np.column_stack([matvec(e) for e in np.eye(dim)])
    assert np.allclose(got, a_eff, atol=1e-10)


def test_rayleigh_quotient_matches_dense():
    op = random_mpo((2, 2, 2), 2, seed=13)
    sym = mpo.mpo_scale(mpo.mpo_add(op, mpo.mpo_transpose(op)), 0.5)
    x = random_tt((2, 2, 2), 2, seed=14)
    v = x.to_dense().ravel()
    want = v @ sym.to_dense() @ v / (v @ v)
    assert abs(mpo.rayleigh_quotient(x, sym) - want) < 1e-10 * (1 + abs(want))


def test_inner_products_reject_chains_of_other_lengths():
    # a shorter operator or bra once gave a number: 1.4176 and -0.3445
    x3, y4 = random_tt((2,) * 3, 2, seed=1), random_tt((2,) * 4, 2, seed=2)
    for bra, op, ket in ((x3, ising_chain(3), y4), (x3, ising_chain(4), x3),
                         (y4, ising_chain(3), y4)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mpo.mpo_inner(bra, op, ket)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mpo.rayleigh_quotient(x3, ising_chain(4))


def test_rayleigh_quotient_rejects_zero():
    z = tt.TensorTrain([np.zeros((1, 2, 1))])
    op = mpo.identity_mpo((2,))
    with pytest.raises(ValueError):
        mpo.rayleigh_quotient(z, op)


def test_env_ledger_charges_positive():
    op = random_mpo((2, 2, 2), 2, seed=15)
    x = random_tt((2, 2, 2), 2, seed=16)
    led = CostLedger()
    mpo.all_right_envs(x, op, x, ledger=led)
    mpo.mpo_inner(x, op, x, ledger=led, op_class="inner")
    assert led.per_class_flops["env_build"] > 0
    assert led.per_class_flops["inner"] > 0
    assert led.sequential_flops == led.total_flops()


# -- in-place kernels against the tensordot kernels they replaced ------------


def operand(rng, shape, contiguous):
    """Random array of ``shape``; a transposed (Fortran-ordered) view when
    ``contiguous`` is False."""
    if contiguous:
        return rng.standard_normal(shape)
    return rng.standard_normal(shape[::-1]).T


# (left rank a, a'), operator bonds (w, w1, w2), local dimension, (right rank b, b')
KERNEL_CASES = {
    "bulk": ((6, 5), (3, 3, 3), 2, (4, 7)),
    "left-end": ((1, 1), (1, 4, 4), 2, (5, 6)),
    "right-end": ((5, 4), (4, 4, 1), 2, (1, 1)),
    "unequal-bonds": ((4, 3), (2, 5, 3), 2, (6, 5)),
    "dim3": ((3, 4), (3, 2, 4), 3, (5, 2)),
    "rank1": ((1, 1), (3, 3, 3), 2, (1, 1)),
}


def kernel_operands(case, contiguous, seed, sites):
    (a, a2), (w, w1, w2), n, (b, b2) = KERNEL_CASES[case]
    rng = np.random.default_rng(seed)
    env_l = operand(rng, (a, w, a2), contiguous)
    env_r = operand(rng, (b, w2, b2), contiguous)
    if sites == 1:
        cores = [operand(rng, (w, n, n, w2), True)]
    else:
        cores = [operand(rng, (w, n, n, w1), True), operand(rng, (w1, n, n, w2), True)]
    v = operand(rng, (a2,) + (n,) * sites + (b2,), contiguous)
    return env_l, cores, env_r, v


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
@pytest.mark.parametrize("k", [1, 2])
def test_local_kernels_match_tensordot_kernels_and_their_charges(k, case, contiguous):
    # the chain ends and unequal bonds are where charging a step at its
    # output shape instead of its input would show
    env_l, cores, env_r, v = kernel_operands(case, contiguous, seed=17, sites=k)
    old = {1: oracles.tensordot_apply_local_1site, 2: oracles.tensordot_apply_local_2site}[k]
    led_old = CostLedger()
    got = mpo.apply_local(env_l, cores, env_r, v)
    want = old(env_l, *cores, env_r, v, led_old)
    assert_close(got, want)
    adapter = {1: mpo.apply_local_1site, 2: mpo.apply_local_2site}[k]
    assert np.array_equal(adapter(env_l, *cores, env_r, v), got)
    # the matvec closure charges its precomputed steps, the same numbers
    led_closure = CostLedger()
    matvec, _, _ = mpo.local_matvec(env_l, cores, env_r, led_closure)
    assert_close(matvec(v.ravel()), want.ravel())
    assert led_closure.report() == led_old.report()
    assert led_closure.per_class_flops.keys() == {"matvec"}


@pytest.mark.parametrize("k", [1, 2])
def test_one_local_matvec_call_charges_its_step_sum_once(charges, k):
    env_l, cores, env_r, v = kernel_operands("unequal-bonds", True, seed=23, sites=k)
    led = CostLedger()
    matvec, _, shape = mpo.local_matvec(env_l, cores, env_r, led)
    want = ("matvec", mpo.local_matvec_flops(env_l, cores, env_r, shape))
    for _ in range(2):
        charges.clear()
        matvec(v.ravel())
        assert charges == [want]
    # the kernel itself is pure: the closure is the one charge path
    charges.clear()
    mpo.apply_local(env_l, cores, env_r, v)
    assert charges == []
    assert led.total_flops() == 2 * want[1]


def test_local_kernels_do_not_go_through_contract(monkeypatch):
    one = kernel_operands("bulk", True, seed=18, sites=1)
    two = kernel_operands("bulk", True, seed=19, sites=2)
    want_one = oracles.tensordot_apply_local_1site(one[0], *one[1], one[2], one[3]).ravel()
    want_two = oracles.tensordot_apply_local_2site(two[0], *two[1], two[2], two[3]).ravel()
    steps = {}
    for side in ("left", "right"):
        args = transfer_operands("unequal-ranks", side, (), seed=21)
        steps[side] = args, transfer_oracle(side, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("a local kernel went through ledger.contract")

    assert not hasattr(mpo, "contract")
    monkeypatch.setattr(ledger_module, "contract", refuse)
    monkeypatch.setattr(tt, "contract", refuse)
    env_l, (core,), env_r, v = one
    matvec, _, _ = mpo.local_matvec_1site(env_l, core, env_r, CostLedger())
    assert_close(matvec(v.ravel()), want_one)
    env_l, cores, env_r, v = two
    matvec, _, _ = mpo.local_matvec_2site(env_l, *cores, env_r, CostLedger())
    assert_close(matvec(v.ravel()), want_two)
    for side, (args, want) in steps.items():
        for got, y in zip(transfer_step(side, *args, CostLedger()), want):
            assert_close(got, y)


# -- transfer steps: one copy-free kernel per direction ----------------------

# (bra bonds a, b), (ket bonds a', b'), operator bonds (w, w'); local dimension 2
TRANSFER_CASES = {
    "equal": ((3, 4), (3, 4), (5, 5)),
    "unequal-ranks": ((3, 5), (4, 7), (5, 6)),
    "left-end": ((1, 3), (1, 2), (1, 5)),
    "right-end": ((3, 1), (2, 1), (5, 1)),
}


def transfer_operands(case, side, stack, seed):
    """An overlap transfer and an operator environment, each with the
    leading axes ``stack``, at the ``side`` cut of a bra, an operator and
    a ket core of the case's bonds."""
    (a, b), (a2, b2), (w, w2) = TRANSFER_CASES[case]
    rng = np.random.default_rng(seed)
    bra, ket = rng.standard_normal((a, 2, b)), rng.standard_normal((a2, 2, b2))
    op_core = rng.standard_normal((w, 2, 2, w2))
    x, z, y = (a, w, a2) if side == "left" else (b, w2, b2)
    overlap = rng.standard_normal(stack + (x, y))
    env = rng.standard_normal(stack + (x, z, y))
    return overlap, env, bra, op_core, ket


def transfer_step(side, overlap, env, bra, op_core, ket, ledger=None):
    """The library's overlap and environment step on ``side``."""
    step_overlap = {"left": tt.update_left_overlap, "right": tt.update_right_overlap}[side]
    step_env = {"left": mpo.update_left_env, "right": mpo.update_right_env}[side]
    return (step_overlap(overlap, bra, ket, ledger, "inner"),
            step_env(env, bra, op_core, ket, ledger, "env_update"))


def transfer_oracle(side, overlap, env, bra, op_core, ket, ledger=None):
    """The same step, bra first through ``contract``, on unstacked input."""
    step_overlap = getattr(oracles, f"tensordot_update_{side}_overlap")
    step_env = getattr(oracles, f"tensordot_update_{side}_env")
    return (step_overlap(overlap, bra, ket, ledger, "inner"),
            step_env(env, bra, op_core, ket, ledger, "env_update"))


@pytest.mark.parametrize("stack", [(), (1,), (4,)], ids=["unstacked", "K1", "K4"])
@pytest.mark.parametrize("case", sorted(TRANSFER_CASES))
@pytest.mark.parametrize("side", ["left", "right"])
def test_transfer_steps_match_tensordot_and_charge_one_count(side, case, stack):
    overlap, env, bra, op_core, ket = transfer_operands(case, side, stack, seed=22)
    led = CostLedger()
    got = transfer_step(side, overlap, env, bra, op_core, ket, led)
    k = math.prod(stack)
    assert led.per_class_flops == {
        "inner": k * tt.overlap_step_flops(bra, ket),
        "env_update": k * mpo.env_step_flops(bra, op_core, ket),
    }
    for i in np.ndindex(stack):
        # each transfer of the stack is what one unstacked call gives
        one = CostLedger()
        single = transfer_step(side, overlap[i], env[i], bra, op_core, ket, one)
        want = transfer_oracle(side, overlap[i], env[i], bra, op_core, ket)
        for g, s, w in zip(got, single, want):
            assert g[i].shape == s.shape == w.shape
            assert_close(g[i], w)
            assert_close(g[i], s)
        assert one.total_flops() * k == led.total_flops()


@pytest.mark.parametrize("stack", [(), (1,), (4,)], ids=["unstacked", "K1", "K4"])
@pytest.mark.parametrize("case", sorted(TRANSFER_CASES))
@pytest.mark.parametrize("side", ["left", "right"])
def test_an_environment_step_is_its_two_halves(side, case, stack, charges):
    # the open half (ket going left, bra going right) and the closing half
    # compose to the full step bitwise; the halves charge nothing
    _, env, bra, op_core, ket = transfer_operands(case, side, stack, seed=24)
    if side == "left":
        half = mpo.open_left_env(env, op_core, ket)
        got = mpo.close_left_env(half, bra)
        want = mpo.update_left_env(env, bra, op_core, ket)
        assert half.shape == stack + (bra.shape[0], 2, op_core.shape[3], ket.shape[2])
    else:
        half = mpo.open_right_env(env, bra, op_core)
        got = mpo.close_right_env(half, ket)
        want = mpo.update_right_env(env, bra, op_core, ket)
        assert half.shape == stack + (bra.shape[0], op_core.shape[0], 2, ket.shape[2])
    assert charges == []
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("k", [1, 2])
def test_local_matvec_lays_each_operator_core_out_once(k, monkeypatch):
    # the per-call permuted view of a laid-out core reshapes without a copy,
    # and the matvec is bitwise the kernel on the caller's cores
    env_l, cores, env_r, v = kernel_operands("unequal-bonds", True, seed=25, sites=k)
    seen = []
    adapter = {1: "apply_local_1site", 2: "apply_local_2site"}[k]
    kernel = getattr(mpo, adapter)

    def spy(*args):
        seen.append(args[1:1 + k])
        return kernel(*args)

    monkeypatch.setattr(mpo, adapter, spy)
    matvec, _, _ = mpo.local_matvec(env_l, cores, env_r)
    assert np.array_equal(matvec(v.ravel()), mpo.apply_local(env_l, cores, env_r, v).ravel())
    for laid, core in zip(seen[0], cores):
        assert np.array_equal(laid, core)
        assert laid.transpose(1, 3, 0, 2).flags.c_contiguous


@pytest.mark.parametrize("case", sorted(TRANSFER_CASES))
def test_one_count_serves_both_transfer_directions(case):
    # the same cores (one seed) charge the same going left and going
    # right; the bra-first oracle charged the same going right, and going
    # left only where bra and ket have equal shapes
    new, old = {}, {}
    for side in ("left", "right"):
        args = transfer_operands(case, side, (), seed=23)
        new[side], old[side] = CostLedger(), CostLedger()
        transfer_step(side, *args, new[side])
        transfer_oracle(side, *args, old[side])
    assert new["left"].report() == new["right"].report() == old["right"].report()
    if case == "equal":
        assert old["left"].report() == new["left"].report()
    if case == "unequal-ranks":
        # bra (3, 2, 5), operator (5, 2, 2, 6), ket (4, 2, 7)
        assert old["left"].per_class_flops == {"inner": 800.0, "env_update": 9360.0}
        assert new["left"].per_class_flops == {"inner": 756.0, "env_update": 9240.0}


@pytest.mark.parametrize("mode", ["one-site", "two-site"])
def test_solvers_call_the_kernel_by_its_width_name_once_per_matvec(monkeypatch, mode):
    # bench/tracer.py spans the projected matvec by rebinding these names
    calls = Counter()
    for name in ("apply_local_1site", "apply_local_2site"):
        kernel = getattr(mpo, name)

        def counted(*args, _name=name, _kernel=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(mpo, name, counted)
    lanczos = dmrg.lanczos_lowest

    def counted_lanczos(matvec, *args, **kwargs):
        def counted_matvec(x):
            calls["matvec"] += 1
            return matvec(x)

        return lanczos(counted_matvec, *args, **kwargs)

    monkeypatch.setattr(dmrg, "lanczos_lowest", counted_lanczos)
    want = "apply_local_1site" if mode == "one-site" else "apply_local_2site"
    op = heisenberg_chain(6)
    init = random_tt(op.dims, 2, seed=20)
    cap = 4 if mode == "two-site" else 2  # one-site sweeps keep the start's rank
    with pytest.warns(RuntimeWarning, match="max_half_sweeps = 2 without"):
        dmrg.run_dmrg(init, op, dmrg.SweepConfig(mode=mode, max_rank=cap, max_half_sweeps=2))
    assert calls["matvec"] > 0
    assert calls == {want: calls["matvec"], "matvec": calls["matvec"]}
    calls.clear()
    family = tt.orthogonal_family(tt.orthogonalize(init, op.d - 1))
    twolevel.local_solves(family, op, twolevel.shared_envs(family, op), mode, max_rank=4)
    assert calls["matvec"] > 0
    assert calls == {want: calls["matvec"], "matvec": calls["matvec"]}
