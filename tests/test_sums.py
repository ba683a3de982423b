"""Structured sums and chain contractions against brute-force oracles."""

import numpy as np
import pytest

import oracles
from ttdmrg import sums
from ttdmrg.ledger import CostLedger
from ttdmrg.sums import (
    OneSiteSumFamily,
    TwoSiteChain,
    chain_pair_inner,
    fit_chain,
    pad_ranks,
    sum_train,
)
from ttdmrg.models import heisenberg_chain, ising_chain, random_symmetric_mpo
from ttdmrg.tt import (
    TensorTrain,
    clip_ranks,
    orthogonal_family,
    orthogonalize,
    random_tt,
    round_tt,
    tt_add,
    tt_scale,
)
from ttdmrg.twolevel import local_solves


def make_family(dims, ranks, seed=0):
    train = orthogonalize(random_tt(dims, ranks, seed=seed), center=len(dims) - 1)
    return orthogonal_family(train)


def family_ranks(family):
    return tuple(c.shape[0] for c in family.centers) + (1,)


def random_replacements(family, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(c.shape) for c in family.centers]


def random_blocks(family, seed=0):
    rng = np.random.default_rng(seed)
    r = family_ranks(family)
    n = family.dims
    return [
        rng.standard_normal((r[i], n[i], n[i + 1], r[i + 2]))
        for i in range(family.d - 1)
    ]


def one_site_member_dense(family, core, i):
    cores = list(family.left[:i]) + [core] + list(family.right[i + 1 :])
    return oracles.tt_dense(cores)


def pair_member_dense(family, block, i):
    d = family.d
    dims = family.dims
    out = np.empty(dims)
    for idx in np.ndindex(*dims):
        m = np.ones((1, 1))
        for j in range(i):
            m = m @ family.left[j][:, idx[j], :]
        m = m @ block[:, idx[i], idx[i + 1], :]
        for j in range(i + 2, d):
            m = m @ family.right[j][:, idx[j], :]
        out[idx] = m[0, 0]
    return out


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

    want = prev * oracles.tt_dense(family.config(0).cores)
    for i in range(family.d):
        want = want + coeffs[i] * one_site_member_dense(family, repl[i], i)
    np.testing.assert_allclose(total.to_dense(), want, atol=1e-12)

    r = family_ranks(family)
    assert total.ranks == (1,) + tuple(2 * r[j] for j in range(1, family.d)) + (1,)


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
    with pytest.raises(ValueError, match="replacement core per site"):
        OneSiteSumFamily(family, repl[:-1], [1.0] * 3)
    with pytest.raises(ValueError, match="coefficient per site"):
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
    pairs, _ = local_solves(family, op, "two-site", eig_tol=1e-10, max_rank=2, seed=0)
    rng = np.random.default_rng(d + 40)
    coeffs = rng.standard_normal(d - 1)
    prev = float(rng.standard_normal())

    total = sum_train(family, pairs, coeffs, prev_coeff=prev)

    acc = tt_scale(family.config(0), prev)
    for i, (left, right) in enumerate(pairs):
        cores = list(family.left[:i]) + [left, right] + list(family.right[i + 2 :])
        acc = tt_add(acc, tt_scale(TensorTrain(cores, center=i + 1), coeffs[i]))
    want = oracles.tt_dense(acc.cores)
    got = oracles.tt_dense(total.cores)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    r = family_ranks(family)
    k = [left.shape[2] for left, _ in pairs]
    for j in range(1, d):
        assert total.ranks[j] <= 2 * r[j] + k[j - 1]
    assert total.ranks[d - 1] == r[d - 1] + k[d - 2]


def test_two_site_sum_validation():
    family = make_family((2, 2, 2), (2, 2), 0)
    rng = np.random.default_rng(1)
    pairs = [
        (rng.standard_normal((1, 2, 2)), rng.standard_normal((2, 2, 2))),
        (rng.standard_normal((2, 2, 3)), rng.standard_normal((3, 2, 1))),
    ]
    sum_train(family, pairs, [1.0, 1.0])
    with pytest.raises(ValueError, match="update per window of 2"):
        sum_train(family, pairs[:1], [1.0, 1.0])
    with pytest.raises(ValueError, match="coefficient per"):
        sum_train(family, pairs, [1.0])
    with pytest.raises(ValueError, match="update 1 has shapes"):
        sum_train(family, [pairs[0], (pairs[1][0], pairs[0][1])], [1.0, 1.0])
    with pytest.raises(ValueError, match="one or two cores"):
        sum_train(family, [pairs[0], pairs[1] + pairs[1][1:]], [1.0, 1.0])
    cores = [(c,) for c in family.centers]
    sum_train(family, cores, [1.0] * 3)
    with pytest.raises(ValueError, match="update per window of 1"):
        sum_train(family, cores[:2], [1.0] * 2)
    with pytest.raises(ValueError, match="update 2 has shapes"):
        sum_train(family, cores[:2] + [(np.zeros((2, 2, 2)),)], [1.0] * 3)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
@pytest.mark.parametrize("model", ["ising", "heisenberg", "random"])
@pytest.mark.parametrize("prev_zero", [False, True])
def test_sum_train_matches_builder_oracles_bitwise(d, model, prev_zero):
    ops = {"ising": ising_chain, "heisenberg": heisenberg_chain,
           "random": lambda d: random_symmetric_mpo(d, seed=d)}
    op = ops[model](d)
    family = make_family(op.dims, 3, seed=d)
    rng = np.random.default_rng(d + 50)
    prev = 0.0 if prev_zero else float(rng.standard_normal())

    cores, _ = local_solves(family, op, "one-site", eig_tol=1e-10, seed=0)
    coeffs = rng.standard_normal(d)
    got = sum_train(family, cores, coeffs, prev_coeff=prev)
    want = oracles.materialize_one_site_sum(family, [c for c, in cores], coeffs, prev)
    assert got.ranks == want.ranks
    assert all(np.array_equal(g, w) for g, w in zip(got.cores, want.cores))
    total = OneSiteSumFamily(family, [c for c, in cores], coeffs, prev_coeff=prev)
    assert all(np.array_equal(g, w) for g, w in zip(total.materialize().cores, want.cores))

    cap = 3
    pairs, _ = local_solves(family, op, "two-site", eig_tol=1e-10, max_rank=cap, seed=0)
    assert min(left.shape[2] for left, _ in pairs) < cap
    coeffs = rng.standard_normal(d - 1)
    got = sum_train(family, pairs, coeffs, prev_coeff=prev)
    want = oracles.two_site_sum(family, pairs, coeffs, prev_coeff=prev)
    assert got.ranks == want.ranks
    assert all(np.array_equal(g, w) for g, w in zip(got.cores, want.cores))


@pytest.mark.parametrize("dims,ranks,seed", [
    ((2, 3, 2, 2), (2, 3, 2), 0),
    ((2, 2), (2,), 1),
    ((2, 2, 2), (2, 2), 2),
    ((2, 2, 2, 2, 2), 2, 3),
])
def test_two_site_chain_matches_naive(dims, ranks, seed):
    family = make_family(dims, ranks, seed)
    blocks = random_blocks(family, seed + 10)
    rng = np.random.default_rng(seed + 20)
    coeffs = rng.standard_normal(family.d - 1)
    prev = float(rng.standard_normal())

    chain = TwoSiteChain(family, blocks, coeffs, prev_coeff=prev)

    want = prev * oracles.tt_dense(family.config(0).cores)
    for i in range(family.d - 1):
        want = want + coeffs[i] * pair_member_dense(family, blocks[i], i)
    np.testing.assert_allclose(oracles.chain_dense(chain.blocks, dims), want, atol=1e-12)

    r = family_ranks(family)
    bonds = tuple(k.shape[0] for k in chain.blocks) + (1,)
    assert bonds[0] == 1 and bonds[-1] == 1
    for l in range(1, family.d - 1):
        assert bonds[l] == r[l + 1] + r[l]


def test_two_site_chain_validation():
    family = make_family((2, 2, 2), (2, 2), 0)
    blocks = random_blocks(family, 1)
    with pytest.raises(ValueError, match="per neighboring pair"):
        TwoSiteChain(family, blocks[:1], [1.0, 1.0])
    with pytest.raises(ValueError, match="coefficient"):
        TwoSiteChain(family, blocks, [1.0])
    bad = list(blocks)
    bad[0] = np.zeros((1, 2, 2, 5))
    with pytest.raises(ValueError, match="shape"):
        TwoSiteChain(family, bad, [1.0, 1.0])


def test_member_train_matches_naive():
    family = make_family((2, 3, 2, 2), (2, 3, 2), 5)
    blocks = random_blocks(family, 6)
    chain = TwoSiteChain(family, blocks, [1.0] * 3)
    for i in range(family.d - 1):
        member = chain.member_train(i)
        np.testing.assert_allclose(
            member.to_dense(), pair_member_dense(family, blocks[i], i), atol=1e-12
        )
        assert member.center == i + 1
        lm = member.cores[i].reshape(-1, member.cores[i].shape[2])
        np.testing.assert_allclose(lm.T @ lm, np.eye(lm.shape[1]), atol=1e-12)


def test_chain_pair_inner_matches_dense():
    dims = (2, 3, 2, 2)
    fam_a = make_family(dims, (2, 3, 2), 7)
    fam_b = make_family(dims, (2, 2, 2), 8)
    a = TwoSiteChain(fam_a, random_blocks(fam_a, 9), [0.5, -1.0, 2.0], prev_coeff=0.3)
    b = TwoSiteChain(fam_b, random_blocks(fam_b, 10), [1.0, 0.0, -0.5], prev_coeff=-1.2)
    da = oracles.chain_dense(a.blocks, dims).ravel()
    db = oracles.chain_dense(b.blocks, dims).ravel()
    assert np.isclose(chain_pair_inner(a, b), da @ db, atol=1e-10)
    assert np.isclose(chain_pair_inner(a, a), da @ da, atol=1e-10)


def test_pad_ranks_keeps_tensor_and_grows_bonds():
    train = random_tt((2, 2, 2, 2), (2, 2, 2), seed=23)
    padded = pad_ranks(train, (4, 8, 4), seed=24, scale=1e-6)
    assert padded.ranks == clip_ranks(train.dims, (4, 8, 4))
    base = train.to_dense()
    diff = np.linalg.norm(padded.to_dense() - base) / np.linalg.norm(base)
    assert diff < 1e-9
    again = pad_ranks(train, (4, 8, 4), seed=24, scale=1e-6)
    np.testing.assert_array_equal(again.to_dense(), padded.to_dense())


def test_fit_chain_exact_at_full_ranks():
    dims = (2, 2, 2, 2)
    family = make_family(dims, (2, 2, 2), 25)
    chain = TwoSiteChain(family, random_blocks(family, 26), [1.0, -0.5, 0.7], prev_coeff=0.4)
    init = pad_ranks(chain.member_train(0), (2, 4, 2), seed=27)
    fit, residual = fit_chain(chain, init, fit_tol=1e-12)
    dc = oracles.chain_dense(chain.blocks, dims)
    assert residual <= 1e-8 * np.linalg.norm(dc)
    np.testing.assert_allclose(fit.to_dense(), dc, atol=1e-8 * np.linalg.norm(dc))
    assert fit.center == len(dims) - 1
    assert fit.is_left_orthogonal


def test_fit_chain_reports_true_residual_when_truncated():
    dims = (2, 2, 2, 2)
    family = make_family(dims, (2, 4, 2), 28)
    chain = TwoSiteChain(family, random_blocks(family, 29), [1.0, 0.9, -1.3], prev_coeff=-0.2)
    dc = oracles.chain_dense(chain.blocks, dims)
    # pad_ranks never shrinks a bond, so cap the member first
    capped = round_tt(chain.member_train(1), max_ranks=(2, 2, 2))
    init = pad_ranks(capped, (2, 2, 2), seed=30)
    assert init.ranks == (1, 2, 2, 2, 1)
    fit, residual = fit_chain(chain, init, fit_tol=1e-12)
    true_res = np.linalg.norm(fit.to_dense() - dc)
    assert np.isclose(residual, true_res, rtol=1e-6, atol=1e-10)
    assert residual > 1e-3  # rank cap actually bites here

    wide_init = pad_ranks(chain.member_train(1), (2, 4, 2), seed=30)
    _, wide_res = fit_chain(chain, wide_init, fit_tol=1e-12)
    assert wide_res <= residual + 1e-12


def test_fit_chain_two_sites():
    dims = (2, 2)
    family = make_family(dims, (2,), 31)
    chain = TwoSiteChain(family, random_blocks(family, 32), [1.5], prev_coeff=0.5)
    init = pad_ranks(chain.member_train(0), (2,), seed=33)
    fit, residual = fit_chain(chain, init, fit_tol=1e-13)
    dc = oracles.chain_dense(chain.blocks, dims)
    assert residual <= 1e-10 * np.linalg.norm(dc)
    np.testing.assert_allclose(fit.to_dense(), dc, atol=1e-10 * np.linalg.norm(dc))


def fit_case(d, truncated, seed):
    dims = (2,) * d
    family = make_family(dims, 3, seed)
    rng = np.random.default_rng(seed + 1)
    coeffs = rng.standard_normal(d - 1)
    chain = TwoSiteChain(family, random_blocks(family, seed + 1), coeffs, prev_coeff=0.3)
    member = chain.member_train(0)
    if truncated:
        return chain, pad_ranks(round_tt(member, max_ranks=2), 3, seed=seed + 2)
    return chain, pad_ranks(member, 2**d, seed=seed + 2)


def record_message_steps(monkeypatch, module):
    """Rebind ``module``'s message steps so each call appends its kind and
    its ``inner`` charge (measured on a probe ledger) to the returned list."""
    calls = []
    for name in ("_lstep", "_rstep"):
        step = getattr(module, name)

        def recorded(msg, block, core, ledger, op_class, step=step, name=name):
            probe = CostLedger()
            step(msg, block, core, probe, op_class)
            calls.append((name, probe.total_flops()))
            return step(msg, block, core, ledger, op_class)

        monkeypatch.setattr(module, name, recorded)
    return calls


# (d, truncated, seed, max_fit_iters, fit_tol, how the fit stops)
FIT_CASES = [
    (2, False, 0, 20, 1e-8, "backward"),
    (2, True, 0, 20, 1e-8, "forward"),
    (3, False, 1, 20, 1e-8, "forward"),
    (3, True, 3, 20, 1e-8, "backward"),
    (6, False, 2, 20, 1e-8, "backward"),
    (6, True, 1, 20, 1e-8, "forward"),
    (6, True, 0, 20, 1e-8, "backward"),
    (9, False, 3, 20, 1e-8, "forward"),
    (9, False, 0, 20, 1e-8, "backward"),
    (9, True, 1, 20, 1e-8, "forward"),
    (9, True, 0, 1, 1e-8, "exhausted"),
    (9, True, 0, 2, 1e-8, "exhausted"),
    (6, True, 1, 20, 0.0, "exhausted"),
    (9, True, 0, 20, 0.0, "exhausted"),
]


@pytest.mark.parametrize("d, truncated, seed, max_fit_iters, fit_tol, stop", FIT_CASES)
def test_fit_chain_matches_rebuild_oracle_bitwise(
    monkeypatch, d, truncated, seed, max_fit_iters, fit_tol, stop
):
    chain, init = fit_case(d, truncated, seed)
    want_calls = record_message_steps(monkeypatch, oracles)
    got_calls = record_message_steps(monkeypatch, sums)
    want_ledger, got_ledger = CostLedger(), CostLedger()
    want, want_res = oracles.rebuild_fit_chain(
        chain, init, max_fit_iters, fit_tol, ledger=want_ledger
    )
    got, got_res = fit_chain(chain, init, max_fit_iters, fit_tol, ledger=got_ledger)

    assert got_res == want_res
    assert got.center == want.center == d - 1
    assert len(got.cores) == len(want.cores)
    for a, b in zip(got.cores, want.cores):
        assert a.shape == b.shape
        assert np.array_equal(a, b)

    # the oracle starts every half-sweep with d-1 rebuilt messages and then
    # steps d-1 messages on the fly; the fit rebuilds only once, up front
    steps = d - 1
    halves = len(want_calls) // (2 * steps)
    assert len(want_calls) == 2 * steps * halves
    if stop == "exhausted":
        assert halves == 2 * max_fit_iters
    else:
        assert halves < 2 * max_fit_iters
        assert halves % 2 == (1 if stop == "forward" else 0)
    kept, skipped = list(want_calls[:steps]), []
    for h in range(halves):
        first = (2 * h + 1) * steps
        kept += want_calls[first : first + steps]
        if h + 1 < halves:
            skipped += want_calls[first + steps : first + 2 * steps]
    assert got_calls == kept
    assert len(skipped) == (halves - 1) * steps

    want_report, got_report = want_ledger.report(), got_ledger.report()
    saved = want_report["per_class_flops"].pop("inner") - got_report["per_class_flops"].pop("inner")
    assert saved == sum(flops for _, flops in skipped)
    assert got_report["per_class_flops"] == want_report["per_class_flops"]
