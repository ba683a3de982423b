import numpy as np
import pytest

import oracles
from ttdmrg import mpo, tt
from ttdmrg.dmrg import split_and_shift
from ttdmrg.ledger import CostLedger, qr_flops, svd_flops
from ttdmrg.mpo import MatrixProductOperator
from ttdmrg.tt import TensorTrain, random_tt

# the two kinds of core chain: one leg per core, or a row and a column leg
KINDS = (TensorTrain, MatrixProductOperator)


def random_chain(kind, dims, rank, seed):
    """Standard normal cores of ``kind`` at a uniform interior ``rank``."""
    rng = np.random.default_rng(seed)
    ranks = [1] + [rank] * (len(dims) - 1) + [1]
    shapes = [(ranks[j],) + (n,) * kind.legs + (ranks[j + 1],) for j, n in enumerate(dims)]
    return kind([rng.standard_normal(shape) for shape in shapes])


def left_defect(core):
    r, n, r2 = core.shape
    m = core.reshape(r * n, r2)
    return np.max(np.abs(m.T @ m - np.eye(r2)))


def right_defect(core):
    r, n, r2 = core.shape
    m = core.reshape(r, n * r2)
    return np.max(np.abs(m @ m.T - np.eye(r)))


def assert_site_orthogonal(x, center):
    for j in range(center):
        assert left_defect(x.cores[j]) < 1e-12
    for j in range(center + 1, x.d):
        assert right_defect(x.cores[j]) < 1e-12


@pytest.mark.parametrize("dims,ranks,seed", [
    ((2, 2, 2), 2, 0),
    ((2, 3, 4, 2), 3, 1),
    ((3, 2, 2, 3, 2), (2, 4, 3, 2), 2),
    ((5,), 1, 3),
])
def test_dense_contraction_matches_naive(dims, ranks, seed):
    x = random_tt(dims, ranks, seed=seed)
    assert np.allclose(x.to_dense(), oracles.tt_dense(x.cores), atol=1e-12)


def test_constructor_validates_shapes():
    # both kinds reject the same malformed chains, checked in one place
    for kind in KINDS:
        legs = (2,) * kind.legs
        bad = [
            ([], "at least one core"),
            ([np.zeros((1,) + legs + (3,)), np.zeros((2,) + legs + (1,))], "bond mismatch"),
            ([np.zeros((2,) + legs + (1,))], "boundary ranks"),
            ([np.zeros((1,) + legs + (2,))], "boundary ranks"),
            # the other kind's core: a train core has 3 axes, an operator core 4
            ([np.zeros((1,) + (2,) * (3 - kind.legs) + (1,))], f"must have {kind.legs + 2} axes"),
            ([np.zeros((1,) + legs + (1,)), np.zeros((1,) + legs + (2, 1))], "core 1 must have"),
        ]
        for cores, message in bad:
            with pytest.raises(ValueError, match=message):
                kind(cores)
    with pytest.raises(ValueError):
        TensorTrain([np.zeros((1, 2, 1))], center=1)


def test_centers_are_site_indices():
    cores = random_tt((2, 2, 2), 2, seed=3).cores
    for bad in (1.5, True, -1, 3, "1"):
        with pytest.raises(ValueError, match="center"):
            TensorTrain(cores, center=bad)
        with pytest.raises(ValueError, match="center"):
            tt.orthogonalize(TensorTrain(cores), bad)
    assert TensorTrain(cores, center=np.int64(2)).center == 2
    assert tt.orthogonalize(TensorTrain(cores), np.int64(0)).center == 0


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_chains_reject_an_empty_local_leg(kind):
    for legs in ((0,) * kind.legs, (2,) * (kind.legs - 1) + (0,)):
        cores = [np.ones((1,) + (2,) * kind.legs + (1,)), np.ones((1,) + legs + (1,))]
        with pytest.raises(ValueError, match="core 1 has an empty local leg"):
            kind(cores)
    with pytest.raises(ValueError, match="core 0 has an empty local leg"):
        kind([np.ones((1,) + (0,) * kind.legs + (1,))])


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
def test_chains_reject_a_zero_bond(kind):
    # a zero bond once made a train that round_tt could not reshape
    legs = (2,) * kind.legs
    with pytest.raises(ValueError, match="core 0 has a zero bond"):
        kind([np.zeros((1,) + legs + (0,)), np.zeros((0,) + legs + (1,))])
    # an empty local leg is reported first
    with pytest.raises(ValueError, match="core 0 has an empty local leg"):
        kind([np.zeros((1,) + (0,) * kind.legs + (0,)), np.zeros((0,) + legs + (1,))])


def test_trains_reject_complex_cores():
    # a cast would drop the imaginary parts behind a ComplexWarning
    cores = list(random_tt((2, 2, 2), 2, seed=3).cores)
    cores[1] = cores[1] + 1j * cores[1]
    with pytest.raises(ValueError, match="core 1 is complex"):
        TensorTrain(cores)


def test_chain_builders_reject_a_local_dimension_below_one():
    with pytest.raises(ValueError, match="core 1 has an empty local leg"):
        mpo.identity_mpo((2, 0))
    for dims in ((2, 0, 2), (2, -1)):
        with pytest.raises(ValueError, match="local dimensions must be positive"):
            tt.clip_ranks(dims, 2)
        with pytest.raises(ValueError, match="local dimensions must be positive"):
            random_tt(dims, 2, seed=0)


def test_inner_matches_dense_dot():
    x = random_tt((2, 3, 2, 2), 3, seed=4)
    y = random_tt((2, 3, 2, 2), 2, seed=5)
    want = float(np.vdot(x.to_dense(), y.to_dense()))
    assert abs(tt.inner(x, y) - want) < 1e-10 * (1 + abs(want))
    assert abs(x.norm() - np.linalg.norm(x.to_dense())) < 1e-10


def test_inner_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        tt.inner(random_tt((2, 2), 1), random_tt((2, 3), 1))


@pytest.mark.parametrize("center", [0, 2, 4])
def test_orthogonalize_gauges_and_preserves_tensor(center):
    x = random_tt((2, 3, 2, 2, 3), (2, 3, 3, 2), seed=6)
    dense = x.to_dense()
    y = tt.orthogonalize(x, center)
    assert y.center == center
    assert y.ranks == x.ranks
    assert_site_orthogonal(y, center)
    assert np.allclose(y.to_dense(), dense, atol=1e-12)


def test_orthogonalize_deterministic_and_idempotent():
    x = random_tt((2, 2, 3, 2), 3, seed=7)
    a = tt.orthogonalize(x, 1)
    b = tt.orthogonalize(x, 1)
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca, cb)
    c = tt.orthogonalize(a, 1)
    for ca, cc in zip(a.cores, c.cores):
        assert np.allclose(ca, cc, atol=1e-13)


def test_orthogonalize_zero_train():
    z = TensorTrain([np.zeros((1, 2, 2)), np.zeros((2, 2, 1))])
    y = tt.orthogonalize(z, 1)
    assert np.all(np.isfinite(y.cores[0]))
    assert y.norm() == 0.0


def test_scale_and_add_match_dense():
    # one direct sum and one scaling for both kinds, under both names
    pairs = ((tt.tt_add, tt.tt_scale), (mpo.mpo_add, mpo.mpo_scale))
    for kind in KINDS:
        for dims in ((3,), (2, 3), (2, 2, 3, 2, 2)):
            x, y = random_chain(kind, dims, 2, seed=8), random_chain(kind, dims, 3, seed=9)
            for add, scale in pairs:
                scaled = scale(y, -2.5)
                s = add(x, scaled)
                assert type(scaled) is kind and type(s) is kind
                assert np.allclose(scaled.to_dense(), -2.5 * y.to_dense(), atol=1e-12)
                assert np.allclose(s.to_dense(), x.to_dense() - 2.5 * y.to_dense(), atol=1e-12)
                assert s.ranks[1:-1] == tuple(a + b for a, b in zip(x.ranks[1:-1], y.ranks[1:-1]))
    train = random_chain(TensorTrain, (2, 2), 2, seed=8)
    op = random_chain(MatrixProductOperator, (2, 2), 2, seed=8)
    for add in (tt.tt_add, mpo.mpo_add):
        for a, b in ((train, op), (op, train)):
            with pytest.raises(ValueError, match="cannot add a"):
                add(a, b)
    with pytest.raises(ValueError, match=r"dimension mismatch: \(2, 2\) vs \(2, 3\)"):
        tt.tt_add(train, random_chain(TensorTrain, (2, 3), 2, seed=9))
    x = random_tt((2, 2, 3), 2, seed=8)
    xo = tt.orthogonalize(x, 1)
    xs = tt.tt_scale(xo, 3.0)
    assert xs.center == 1
    assert_site_orthogonal(xs, 1)


def test_round_exact_ranks_is_lossless():
    x = random_tt((2, 2, 2, 2), 2, seed=10)
    y = tt.round_tt(x, max_ranks=4, tol=0.0)
    assert y.center == x.d - 1
    assert np.allclose(y.to_dense(), x.to_dense(), atol=1e-11)
    assert all(r <= 4 for r in y.ranks)


def test_round_detects_padded_rank():
    x = random_tt((2, 2, 2), 2, seed=11)
    padded = tt.tt_add(x, tt.tt_scale(x, 1.0))  # rank doubles, tensor rank does not
    y = tt.round_tt(padded, tol=1e-12)
    assert y.ranks == tuple(min(a, b) for a, b in zip(x.ranks, (1, 2, 2, 1)))
    assert np.allclose(y.to_dense(), 2 * x.to_dense(), atol=1e-11)


def test_zero_trains_and_blocks_keep_one_bond():
    # a cut whose singular values are all zero keeps one bond, not none
    zero = tt.tt_scale(random_tt((2, 3, 2, 2), 3, seed=1), 0.0)
    rounded = tt.round_tt(zero)
    assert rounded.ranks == (1, 1, 1, 1, 1)
    assert not np.any(rounded.to_dense())
    left, right, discarded = split_and_shift(np.zeros((2, 2, 2, 2)), "LR")
    assert left.shape == (2, 2, 1) and right.shape == (1, 2, 2)
    assert discarded == 0.0
    assert not np.any(right)


def test_round_quasi_optimality_bound():
    rng = np.random.default_rng(12)
    for trial in range(5):
        x = random_tt((2, 3, 2, 3, 2), 6, seed=100 + trial)
        caps = [int(c) for c in rng.integers(1, 4, size=x.d - 1)]
        y = tt.round_tt(x, max_ranks=caps, tol=0.0)
        err = np.linalg.norm(y.to_dense() - x.to_dense())
        masses = oracles.unfolding_tail_masses(x.to_dense(), list(y.ranks)[1:-1])
        bound = np.sqrt(x.d - 1) * max(masses)
        assert err <= bound + 1e-12


def test_round_relative_tolerance_drops_noise():
    x = random_tt((2, 2, 2, 2), 2, seed=13)
    noise = tt.tt_scale(random_tt((2, 2, 2, 2), 2, seed=14), 1e-13)
    y = tt.round_tt(tt.tt_add(x, noise), tol=1e-8)
    assert y.ranks == x.ranks
    assert np.allclose(y.to_dense(), x.to_dense(), atol=1e-10)


def test_truncate_needs_a_right_orthogonal_train():
    x = random_tt((2, 3, 2, 2), 3, seed=15)
    for bad in (x, tt.orthogonalize(x, 2)):
        with pytest.raises(ValueError, match="site-orthogonal at 0"):
            tt.truncate(bad, max_ranks=2)
    y = tt.truncate(tt.orthogonalize(x, 0), max_ranks=2)
    assert y.center == x.d - 1 and max(y.ranks) <= 2
    with pytest.raises(ValueError, match="need 3 rank caps, got 2"):
        tt.truncate(tt.orthogonalize(x, 0), max_ranks=[2, 2])


def test_truncate_keeps_owning_copies_of_the_kept_factors():
    # a view of each cut's left factor would pin all of its columns
    y = tt.truncate(tt.orthogonalize(random_tt((2, 3, 2, 2), 3, seed=16), 0), max_ranks=2)
    assert y.ranks == (1, 2, 2, 2, 1)
    assert all(core.base is None for core in y.cores[:-1])


@pytest.mark.parametrize("round_first", [False, True])
def test_truncation_rejects_bad_caps_and_tolerances(round_first):
    x = tt.orthogonalize(random_tt((2, 3, 2, 2), 3, seed=15), 0)
    run = tt.round_tt if round_first else tt.truncate
    bad = [(dict(max_ranks=cap), "max_ranks") for cap in (0, -1, 2.5, True, "2", (2, 0, 2))]
    bad += [(dict(tol=tol), "tol") for tol in (float("nan"), -1.0)]
    for kwargs, name in bad:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run(x, **kwargs)
    y = run(x, max_ranks=(np.int64(2), None, 1), tol=0.0)
    assert y.ranks == (1, 2, 3, 1, 1)


def test_factorizations_charge_their_own_count(charges):
    a = np.random.default_rng(30).standard_normal((7, 3))
    cases = [(tt.qr_fixed, a, ("qr", qr_flops(7, 3))), (tt.lq_fixed, a.T, ("qr", qr_flops(7, 3))),
             (tt.svd_fixed, a, ("svd", svd_flops(7, 3))),
             (tt.svd_fixed, a.T, ("svd", svd_flops(3, 7)))]
    for factorize, m, charge in cases:
        free = factorize(m)
        assert charges == []
        led = CostLedger()
        charged = factorize(m, led)
        assert charges == [charge] and led.per_class_flops == dict([charge])
        assert all(np.array_equal(f, g) for f, g in zip(free, charged))
        charges.clear()


def test_separation_ranks():
    x = random_tt((2, 2, 2, 2, 2), (2, 4, 3, 2), seed=15)
    assert tt.separation_ranks(x.to_dense()) == (2, 4, 3, 2)
    assert tt.separation_ranks(np.zeros((2, 2, 2))) == (0, 0)
    rank1 = np.einsum("i,j,k->ijk", *[np.arange(1.0, 4.0)] * 3)
    assert tt.separation_ranks(rank1) == (1, 1)


def test_separation_ranks_refuse_a_complex_tensor():
    # [[1, i], [i, -1]] is the rank-one outer product of (1, i) with itself;
    # its real part diag(1, -1) has rank 2
    with pytest.raises(ValueError, match="tensor is complex"):
        tt.separation_ranks(np.array([[1.0, 1j], [1j, -1.0]]))


def test_random_tt_is_seeded_and_clipped():
    a = random_tt((2, 2, 2), 5, seed=16)
    b = random_tt((2, 2, 2), 5, seed=16)
    for ca, cb in zip(a.cores, b.cores):
        assert np.array_equal(ca, cb)
    assert a.ranks == (1, 2, 2, 1)
    # an interior bond cannot exceed what its neighbor bonds can carry
    c = random_tt((2, 2, 2, 2), (1, 8, 1), seed=17)
    assert c.ranks == (1, 1, 2, 1, 1)


@pytest.mark.parametrize("ranks", [0, -3, (2, 0, 2), (1, -1, 1)])
def test_random_tt_rejects_ranks_below_one(ranks):
    # a request below one is an error, not clipped up
    with pytest.raises(ValueError, match="ranks must be positive"):
        random_tt((2, 2, 2, 2), ranks, seed=0)


NOT_INTEGER_SIZES = {
    "rank-2.5": ((2, 2, 2, 2), 2.5, "ranks"),
    "ranks-2.7-3.9-2": ((2, 2, 2, 2), (2.7, 3.9, 2), "ranks"),
    "rank-true": ((2, 2, 2), True, "ranks"),
    "dim-2.5": ((2, 2.5, 2), 2, "local dimensions"),
    "dim-true": ((2, True, 2), 2, "local dimensions"),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGER_SIZES))
def test_random_tt_rejects_sizes_that_are_not_integers(case):
    # they were truncated silently: rank 2.5 gave bonds of 2, True bonds of 1
    dims, ranks, name = NOT_INTEGER_SIZES[case]
    for build in (tt.clip_ranks, random_tt):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            build(dims, ranks)
    # numpy integers are integers
    x = random_tt(tuple(np.int64(n) for n in (2, 3, 2)), np.int64(3), seed=0)
    assert x.ranks == random_tt((2, 3, 2), 3, seed=0).ranks == (1, 2, 2, 1)


def test_dense_cap_enforced(monkeypatch):
    x = random_tt((2,) * 21, 1, seed=18)
    with pytest.raises(ValueError):
        x.to_dense()
    assert x.to_dense(cap=2**21).shape == (2,) * 21
    monkeypatch.setenv(tt.DENSE_CAP_ENV, str(2**21))
    assert x.to_dense().shape == (2,) * 21
    monkeypatch.setenv(tt.DENSE_CAP_ENV, "2e21")
    with pytest.raises(ValueError, match=tt.DENSE_CAP_ENV):
        tt.dense_cap()
    # a cap is an integer of at least one, given or from the environment
    for bad in ("0", "-3"):
        monkeypatch.setenv(tt.DENSE_CAP_ENV, bad)
        with pytest.raises(ValueError, match=f"{tt.DENSE_CAP_ENV} must be positive"):
            tt.dense_cap()
    monkeypatch.delenv(tt.DENSE_CAP_ENV)
    for bad in (2.5, True, -3, 0, "7"):
        with pytest.raises(ValueError, match="dense cap must be"):
            tt.dense_cap(bad)
        with pytest.raises(ValueError, match="dense cap must be"):
            x.to_dense(cap=bad)
    assert tt.dense_cap(np.int64(7)) == 7
    assert tt.dense_cap() == tt.DEFAULT_DENSE_CAP


def test_orthogonal_family_members_share_tensor():
    x = tt.orthogonalize(random_tt((2, 3, 2, 2), (2, 3, 2), seed=19), 3)
    fam = tt.orthogonal_family(x)
    dense = x.to_dense()
    for i in range(x.d):
        cfg = fam.config(i)
        assert cfg.center == i
        assert_site_orthogonal(cfg, i)
        assert np.allclose(cfg.to_dense(), dense, atol=1e-12)


def test_orthogonal_family_requires_left_gauge():
    x = random_tt((2, 2, 2), 2, seed=20)
    with pytest.raises(ValueError):
        tt.orthogonal_family(x)
    with pytest.raises(ValueError):
        tt.orthogonal_family(tt.orthogonalize(x, 0))


def test_clip_ranks_needs_one_rank_per_bond():
    with pytest.raises(ValueError, match="need 3 interior ranks, got 2"):
        tt.clip_ranks((2, 2, 2, 2), [2, 2])


def test_clip_ranks_needs_a_site():
    for build in (tt.clip_ranks, tt.random_tt):
        for ranks in (2, []):
            with pytest.raises(ValueError, match="need at least one site"):
                build((), ranks)


def test_orthogonal_family_refuses_a_bond_the_right_side_cannot_carry():
    # bond 2 has rank 4, but the one site right of it holds only 2
    rng = np.random.default_rng(24)
    cores = [rng.standard_normal(shape) for shape in ((1, 2, 2), (2, 2, 4), (4, 2, 1))]
    x = TensorTrain(cores, center=2)
    with pytest.raises(ValueError, match="rank 4 at cut 2 is not representable from the right"):
        tt.orthogonal_family(x)
