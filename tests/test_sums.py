"""Structured sums and pair members against brute-force oracles."""

import numpy as np
import pytest

import oracles
from ttdmrg.ledger import CostLedger
from ttdmrg.sums import OneSiteSumFamily, orthogonal_sum_train
from ttdmrg.models import heisenberg_chain, ising_chain, random_symmetric_mpo
from ttdmrg.tt import (
    TensorTrain,
    orthogonal_family,
    orthogonalize,
    random_tt,
    round_tt,
    separation_ranks,
    truncate,
    tt_add,
    tt_scale,
)
from ttdmrg.twolevel import local_solves, shared_envs


def make_family(dims, ranks, seed=0):
    train = orthogonalize(random_tt(dims, ranks, seed=seed), center=len(dims) - 1)
    return orthogonal_family(train)


def family_ranks(family):
    return tuple(c.shape[0] for c in family.centers) + (1,)


def random_replacements(family, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(c.shape) for c in family.centers]


def one_site_member_dense(family, core, i):
    cores = list(family.left[:i]) + [core] + list(family.right[i + 1 :])
    return oracles.tt_dense(cores)


@pytest.mark.parametrize("dims,ranks,seed", [
    ((2, 3, 2, 2), (2, 3, 2), 0),
    ((2, 2), (2,), 1),
    ((3, 2, 3), (2, 2), 2),
])
def test_one_site_sum_matches_naive(dims, ranks, seed):
    family = make_family(dims, ranks, seed)
    repl = random_replacements(family, seed + 10)
    rng = np.random.default_rng(seed + 20)
    coeffs = rng.standard_normal(family.d)
    prev = float(rng.standard_normal())

    total = OneSiteSumFamily(family, repl, coeffs, prev_coeff=prev).materialize()
    raw = oracles.materialize_one_site_sum(family, repl, coeffs, prev)

    want = prev * oracles.tt_dense(family.config(0).cores)
    for i in range(family.d):
        want = want + coeffs[i] * one_site_member_dense(family, repl[i], i)
    np.testing.assert_allclose(total.to_dense(), want, atol=1e-12)
    np.testing.assert_allclose(oracles.tt_dense(raw.cores), want, atol=1e-12)

    # the raw train has bonds 2r; the materialized one is right-orthogonal,
    # its bonds as orthogonalize gives them
    r = family_ranks(family)
    assert raw.ranks == (1,) + tuple(2 * r[j] for j in range(1, family.d)) + (1,)
    assert total.center == 0
    assert total.ranks == orthogonalize(raw, 0).ranks
    assert all(a <= b for a, b in zip(total.ranks, raw.ranks))


def test_one_site_sum_single_site():
    family = make_family((4,), (), 3)
    repl = random_replacements(family, 4)
    total = OneSiteSumFamily(family, repl, [2.0], prev_coeff=-1.0).materialize()
    want = 2.0 * repl[0][0, :, 0] - family.centers[0][0, :, 0]
    np.testing.assert_allclose(total.to_dense(), want, atol=1e-13)
    assert total.center == 0


def test_one_site_sum_validation():
    family = make_family((2, 2, 2), (2, 2), 0)
    repl = random_replacements(family, 1)
    with pytest.raises(ValueError, match="update per window of 1"):
        OneSiteSumFamily(family, repl[:-1], [1.0] * 3)
    with pytest.raises(ValueError, match="coefficient per update"):
        OneSiteSumFamily(family, repl, [1.0] * 2)
    bad = list(repl)
    bad[1] = np.zeros((1, 2, 1))
    with pytest.raises(ValueError, match="shape"):
        OneSiteSumFamily(family, bad, [1.0] * 3)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
@pytest.mark.parametrize("model", ["ising", "heisenberg"])
def test_two_site_sum_matches_pairwise_tt_add(d, model):
    op = ising_chain(d) if model == "ising" else heisenberg_chain(d)
    family = make_family(op.dims, 3, seed=d)
    envs = shared_envs(family, op)
    pairs, _ = local_solves(family, op, envs, "two-site", eig_tol=1e-10, max_rank=2, seed=0)
    rng = np.random.default_rng(d + 40)
    coeffs = rng.standard_normal(d - 1)
    prev = float(rng.standard_normal())

    raw = oracles.two_site_sum(family, pairs, coeffs, prev_coeff=prev)
    total = orthogonal_sum_train(family, pairs, coeffs, prev)

    acc = tt_scale(family.config(0), prev)
    for i, (left, right) in enumerate(pairs):
        cores = list(family.left[:i]) + [left, right] + list(family.right[i + 2 :])
        acc = tt_add(acc, tt_scale(TensorTrain(cores, center=i + 1), coeffs[i]))
    want = oracles.tt_dense(acc.cores)
    for train in (raw, total):
        got = oracles.tt_dense(train.cores)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    r = family_ranks(family)
    k = [left.shape[2] for left, _ in pairs]
    for j in range(1, d):
        assert total.ranks[j] <= raw.ranks[j] <= 2 * r[j] + k[j - 1]
    assert raw.ranks[d - 1] == r[d - 1] + k[d - 2]


def test_two_site_sum_validation():
    family = make_family((2, 2, 2), (2, 2), 0)
    rng = np.random.default_rng(1)
    pairs = [
        (rng.standard_normal((1, 2, 2)), rng.standard_normal((2, 2, 2))),
        (rng.standard_normal((2, 2, 3)), rng.standard_normal((3, 2, 1))),
    ]
    orthogonal_sum_train(family, pairs, [1.0, 1.0])
    with pytest.raises(ValueError, match="update per window of 2"):
        orthogonal_sum_train(family, pairs[:1], [1.0, 1.0])
    with pytest.raises(ValueError, match="coefficient per"):
        orthogonal_sum_train(family, pairs, [1.0])
    with pytest.raises(ValueError, match="update 1 has shapes"):
        orthogonal_sum_train(family, [pairs[0], (pairs[1][0], pairs[0][1])], [1.0, 1.0])
    with pytest.raises(ValueError, match="one or two cores"):
        orthogonal_sum_train(family, [pairs[0], pairs[1] + pairs[1][1:]], [1.0, 1.0])
    cores = [(c,) for c in family.centers]
    orthogonal_sum_train(family, cores, [1.0] * 3)
    with pytest.raises(ValueError, match="update per window of 1"):
        orthogonal_sum_train(family, cores[:2], [1.0] * 2)
    with pytest.raises(ValueError, match="update 2 has shapes"):
        orthogonal_sum_train(family, cores[:2] + [(np.zeros((2, 2, 2)),)], [1.0] * 3)


@pytest.mark.parametrize("axes", [2, 4])
@pytest.mark.parametrize("k", [1, 2])
def test_sum_builders_reject_an_update_core_without_three_axes(k, axes):
    # an IndexError (2 axes) or numpy's broadcast error (4 axes) before
    family = make_family((2, 2, 2), (2, 2), 0)
    rng = np.random.default_rng(2)
    if k == 1:
        updates = [(c,) for c in family.centers]
    else:
        updates = [(rng.standard_normal((1, 2, 2)), rng.standard_normal((2, 2, 2))),
                   (rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2, 1)))]
    core = updates[1][-1]
    bad = core.reshape(core.shape[0], -1) if axes == 2 else core[..., None]
    updates[1] = updates[1][:-1] + (bad,)
    coeffs = [1.0] * len(updates)
    with pytest.raises(ValueError, match=r"update 1 has shapes \["):
        orthogonal_sum_train(family, updates, coeffs)
    if k == 1:
        with pytest.raises(ValueError, match=r"update 1 has shapes \["):
            OneSiteSumFamily(family, [c for c, in updates], coeffs)


def sum_case(k, dims, rank, seed, kind="generic"):
    """A family with random k-site updates (split bonds up to 3) and
    coefficients; ``kind`` zeroes some of them."""
    family = make_family(dims, rank, seed)
    r, n, d = family_ranks(family), family.dims, family.d
    rng = np.random.default_rng(seed + 60)
    if k == 1:
        updates = [(rng.standard_normal(c.shape),) for c in family.centers]
    else:
        updates = []
        for i in range(d - 1):
            mid = min(r[i] * n[i], n[i + 1] * r[i + 2], 3)
            updates.append((rng.standard_normal((r[i], n[i], mid)),
                            rng.standard_normal((mid, n[i + 1], r[i + 2]))))
    coeffs = rng.standard_normal(len(updates))
    prev = float(rng.standard_normal())
    if kind in ("prev-only", "single-member"):
        keep = coeffs[len(coeffs) // 2]
        coeffs[:] = 0.0
        if kind == "single-member":
            coeffs[len(coeffs) // 2], prev = keep, 0.0
    elif kind == "prev-zero":
        prev = 0.0
    return family, updates, coeffs, prev


# d = 2 and chains whose last cuts saturate: at (2, 3, 2, 3) the last cut
# can carry 3 > r = 2 directions, so the done rail is completed there
SUM_CASES = [((2, 2), 2), ((2, 3, 2, 3), 2), ((2,) * 6, 4), ((3, 2, 3, 2), 3), ((2,) * 9, 3)]


def dense_rel_err(got, want):
    a, b = oracles.tt_dense(got.cores), oracles.tt_dense(want.cores)
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("dims,rank", SUM_CASES)
def test_orthogonal_sum_train_is_the_sum_right_orthogonal(k, dims, rank):
    family, updates, coeffs, prev = sum_case(k, dims, rank, seed=len(dims))
    want = oracles.rail_sum(family, updates, coeffs, prev)
    got = orthogonal_sum_train(family, updates, coeffs, prev)
    assert got.center == 0
    assert got.ranks == orthogonalize(want, 0).ranks
    if dims == (2, 3, 2, 3):
        assert got.ranks[-2] == 3 > family_ranks(family)[-2]
    assert dense_rel_err(got, want) <= 1e-13
    for core in got.cores[1:]:
        rows = core.reshape(core.shape[0], -1)
        assert np.max(np.abs(rows @ rows.T - np.eye(len(rows)))) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("dims,rank", SUM_CASES)
def test_truncating_the_orthogonal_sum_costs_less_than_round_tt(k, dims, rank):
    family, updates, coeffs, prev = sum_case(k, dims, rank, seed=len(dims) + 1)
    want_led, got_led = CostLedger(), CostLedger()
    want = round_tt(oracles.rail_sum(family, updates, coeffs, prev), 2, ledger=want_led)
    total = orthogonal_sum_train(family, updates, coeffs, prev, ledger=got_led)
    got = truncate(total, 2, ledger=got_led)
    assert got.ranks == want.ranks
    assert dense_rel_err(got, want) <= 1e-12
    w, g = want_led.per_class_flops, got_led.per_class_flops
    assert set(g) <= {"svd", "qr", "matmul"}
    assert g["svd"] == w["svd"]
    assert g.get("qr", 0.0) + g["matmul"] < w["qr"] + w["matmul"]


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", ["prev-only", "single-member", "prev-zero"])
@pytest.mark.parametrize("dims,rank", SUM_CASES[:3])
def test_orthogonal_sum_train_stays_exact_on_degenerate_coefficients(k, kind, dims, rank):
    # zero coefficients leave rank-deficient complements; their LQ rows
    # carry no weight, so the train is exact and truncates as round_tt does
    family, updates, coeffs, prev = sum_case(k, dims, rank, seed=len(dims) + 2, kind=kind)
    want = oracles.rail_sum(family, updates, coeffs, prev)
    got = orthogonal_sum_train(family, updates, coeffs, prev)
    assert dense_rel_err(got, want) <= 1e-13
    exact = max(separation_ranks(oracles.tt_dense(want.cores)))
    for cap in {exact, max(exact - 1, 1)}:
        assert dense_rel_err(truncate(got, cap), round_tt(want, cap)) <= 1e-12


def assert_is_the_rail_sum(family, updates, coeffs, prev, want):
    """``orthogonal_sum_train`` against the raw rail train ``want`` of a
    builder oracle: its rows on the done rail are the oracle's bitwise
    (``[family.right[j], 0]``), and the whole train is the oracle's,
    right-orthogonalized, to roundoff."""
    got = orthogonal_sum_train(family, updates, coeffs, prev)
    assert got.ranks == orthogonalize(want, 0).ranks
    assert dense_rel_err(got, want) <= 1e-13
    for j in range(1, family.d):
        done, bond = family.centers[j].shape[0], got.ranks[j + 1]
        assert np.array_equal(got.cores[j][:done], want.cores[j][:done, :, :bond])
        assert not np.any(want.cores[j][:done, :, bond:])
    return got


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
@pytest.mark.parametrize("model", ["ising", "heisenberg", "random"])
@pytest.mark.parametrize("prev_zero", [False, True])
def test_sum_train_matches_builder_oracles_bitwise(d, model, prev_zero):
    # the package's one sum train, on the updates local solves return
    ops = {"ising": ising_chain, "heisenberg": heisenberg_chain,
           "random": lambda d: random_symmetric_mpo(d, seed=d)}
    op = ops[model](d)
    family = make_family(op.dims, 3, seed=d)
    rng = np.random.default_rng(d + 50)
    prev = 0.0 if prev_zero else float(rng.standard_normal())

    envs = shared_envs(family, op)
    cores, _ = local_solves(family, op, envs, "one-site", eig_tol=1e-10, seed=0)
    coeffs = rng.standard_normal(d)
    want = oracles.materialize_one_site_sum(family, [c for c, in cores], coeffs, prev)
    got = assert_is_the_rail_sum(family, cores, coeffs, prev, want)
    total = OneSiteSumFamily(family, [c for c, in cores], coeffs, prev_coeff=prev)
    assert all(np.array_equal(g, w) for g, w in zip(total.materialize().cores, got.cores))

    cap = 3
    pairs, _ = local_solves(family, op, envs, "two-site", eig_tol=1e-10, max_rank=cap, seed=0)
    assert min(left.shape[2] for left, _ in pairs) < cap
    coeffs = rng.standard_normal(d - 1)
    want = oracles.two_site_sum(family, pairs, coeffs, prev_coeff=prev)
    assert_is_the_rail_sum(family, pairs, coeffs, prev, want)
