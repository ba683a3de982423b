import math

import numpy as np
import pytest

import oracles
from ttdmrg import models, tt


@pytest.mark.parametrize("d,coupling,field", [(2, 1.0, 1.0), (3, 0.7, 1.3), (5, 1.0, 0.5)])
def test_ising_matches_kron_construction(d, coupling, field):
    op = models.ising_chain(d, coupling=coupling, field=field)
    assert op.ranks == (1,) + (3,) * (d - 1) + (1,)
    want = oracles.ising_dense(d, coupling, field)
    assert np.allclose(op.to_dense(), want, atol=1e-12)


def test_ising_two_site_ground_energy():
    # -J ZZ - h(X1 + X2) at J = h = 1 has ground energy -sqrt(5)
    energy, _ = models.dense_ground_state(models.ising_chain(2))
    assert abs(energy - (-math.sqrt(5.0))) < 1e-12


@pytest.mark.parametrize("d,coupling", [(2, 1.0), (3, 0.9), (4, 1.0)])
def test_heisenberg_matches_kron_construction(d, coupling):
    op = models.heisenberg_chain(d, coupling=coupling)
    assert op.ranks == (1,) + (5,) * (d - 1) + (1,)
    want = oracles.heisenberg_dense(d, coupling)
    assert np.allclose(op.to_dense(), want, atol=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build, name",
    [(models.ising_chain, "coupling"), (models.ising_chain, "field"),
     (models.heisenberg_chain, "coupling")],
)
def test_chains_reject_non_finite_parameters(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build(10, **{name: value})


@pytest.mark.parametrize("d", [2.5, 3.0, True, "4"])
@pytest.mark.parametrize(
    "build", [models.ising_chain, models.heisenberg_chain, models.random_symmetric_mpo]
)
def test_chains_reject_a_site_count_that_is_not_an_integer(build, d):
    with pytest.raises(ValueError, match="^d must be an integer"):
        build(d)
    assert build(np.int64(3)).d == 3


def test_heisenberg_two_site_singlet():
    energy, _ = models.dense_ground_state(models.heisenberg_chain(2))
    assert abs(energy - (-0.75)) < 1e-12


def test_random_symmetric_mpo():
    op = models.random_symmetric_mpo(4, n=2, rank=2, seed=3)
    dense = op.to_dense()
    assert np.max(np.abs(dense - dense.T)) < 1e-12
    assert op.ranks == (1, 4, 4, 4, 1)
    again = models.random_symmetric_mpo(4, n=2, rank=2, seed=3)
    for a, b in zip(op.cores, again.cores):
        assert np.array_equal(a, b)
    other = models.random_symmetric_mpo(4, n=2, rank=2, seed=4)
    assert not np.allclose(other.to_dense(), dense)


def test_dense_ground_state_matches_eigh():
    op = models.random_symmetric_mpo(3, n=2, rank=2, seed=5)
    energy, ground = models.dense_ground_state(op)
    w, v = np.linalg.eigh(op.to_dense())
    assert abs(energy - w[0]) < 1e-12
    assert abs(abs(ground.ravel() @ v[:, 0]) - 1) < 1e-10
    assert ground.shape == (2, 2, 2)


def test_ground_state_separation_ranks_capped_by_dims():
    op = models.random_symmetric_mpo(6, n=2, rank=2, seed=6)
    _, ground = models.dense_ground_state(op)
    ranks = tt.separation_ranks(ground)
    assert all(r <= c for r, c in zip(ranks, (2, 4, 8, 4, 2)))


def test_small_chain_rejected():
    with pytest.raises(ValueError):
        models.ising_chain(1)
    with pytest.raises(ValueError):
        models.heisenberg_chain(1)


@pytest.mark.parametrize(
    "kwargs, message",
    [(dict(d=1), "two sites"), (dict(d=0), "two sites"),
     (dict(n=0), "local dimension"), (dict(n=-1), "local dimension"),
     (dict(rank=0), "rank"), (dict(rank=-2), "rank")],
    ids=["d1", "d0", "n0", "n-1", "rank0", "rank-2"],
)
def test_random_symmetric_mpo_rejects_bad_sizes(kwargs, message):
    with pytest.raises(ValueError, match=message):
        models.random_symmetric_mpo(**{"d": 4, **kwargs})


@pytest.mark.parametrize(
    "kwargs, name",
    [(dict(n=2.5), "local dimension n"), (dict(n=True), "local dimension n"),
     (dict(rank=2.5), "rank"), (dict(rank=True), "rank"),
     (dict(n=np.float64(2.0)), "local dimension n")],
    ids=["n2.5", "n-true", "rank2.5", "rank-true", "n-float64"],
)
def test_random_symmetric_mpo_rejects_sizes_that_are_not_integers(kwargs, name):
    # numpy's TypeError, or for rank=True an operator of bond 2, before
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        models.random_symmetric_mpo(4, **kwargs)
    op = models.random_symmetric_mpo(4, n=np.int64(3), rank=np.int64(2), seed=0)
    assert op.dims == (3,) * 4 and op.ranks == (1, 4, 4, 4, 1)


def test_random_symmetric_mpo_smallest_sizes():
    op = models.random_symmetric_mpo(2, n=1, rank=1, seed=0)
    assert op.dims == (1, 1) and op.ranks == (1, 2, 1)
