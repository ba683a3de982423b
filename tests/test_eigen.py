import numpy as np
import pytest
import scipy.linalg

import oracles
from ttdmrg.eigen import _tridiag_lowest, dense_lowest_eig, dense_sym_svd, lanczos_lowest
from ttdmrg.ledger import CostLedger
from ttdmrg.models import heisenberg_chain
from ttdmrg.mpo import left_env, local_matvec_2site, right_env
from ttdmrg.tt import orthogonalize, random_tt


def random_sym(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return (a + a.T) / 2


def test_lanczos_matches_dense_eigh():
    a = random_sym(60, 0)
    w, v = np.linalg.eigh(a)
    res = lanczos_lowest(lambda x: a @ x, 60, tol=1e-10, seed=1)
    assert res.converged
    assert abs(res.eigenvalue - w[0]) < 1e-8 * max(1, abs(w[0]))
    overlap = abs(res.eigenvector @ v[:, 0])
    assert overlap > 1 - 1e-8
    assert res.iterations <= 60


def test_lanczos_residual_is_recomputed():
    a = random_sym(40, 2)
    res = lanczos_lowest(lambda x: a @ x, 40, tol=1e-8, seed=3)
    true_res = np.linalg.norm(a @ res.eigenvector - res.eigenvalue * res.eigenvector)
    assert abs(res.residual_norm - true_res) < 1e-10
    assert abs(np.linalg.norm(res.eigenvector) - 1) < 1e-12


def test_lanczos_warm_start_monotone():
    a = random_sym(30, 4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        v0 = rng.standard_normal(30)
        rq = v0 @ a @ v0 / (v0 @ v0)
        res = lanczos_lowest(lambda x: a @ x, 30, v0=v0, tol=1e-6, seed=6)
        assert res.eigenvalue <= rq + 1e-10


def test_lanczos_exact_start_converges_immediately():
    a = random_sym(25, 7)
    w, v = np.linalg.eigh(a)
    res = lanczos_lowest(lambda x: a @ x, 25, v0=v[:, 0], tol=1e-8, seed=8)
    assert res.converged
    assert res.iterations == 1
    assert abs(res.eigenvalue - w[0]) < 1e-10


def test_lanczos_exact_invariant_start_is_accepted():
    # an exact excited eigenvector spans an invariant subspace; its Ritz
    # pair has residual zero and is returned as converged
    a = np.diag([1.0, 3.0])
    res = lanczos_lowest(lambda x: a @ x, 2, v0=np.array([0.0, 1.0]), tol=1e-15, seed=9)
    assert res.converged and res.eigenvalue == 3.0


def test_lanczos_breakdown_restart_finds_lower_state():
    # a nearly invariant start makes the basis expansion collapse (beta in
    # the breakdown window) while the residual still misses the tolerance,
    # forcing a random restart that then finds the ground state
    a = np.diag([1.0, 3.0])
    v0 = np.array([3e-14, 1.0])
    res = lanczos_lowest(lambda x: a @ x, 2, v0=v0, tol=1e-14, max_iter=10, seed=9)
    assert abs(res.eigenvalue - 1.0) < 1e-12


def test_lanczos_max_iter_flag():
    a = random_sym(50, 10)
    res = lanczos_lowest(lambda x: a @ x, 50, tol=1e-14, max_iter=3, seed=11)
    assert not res.converged
    assert res.iterations == 3
    w = np.linalg.eigh(a)[0]
    assert res.eigenvalue >= w[0] - 1e-10


def test_lanczos_deterministic():
    a = random_sym(20, 12)
    r1 = lanczos_lowest(lambda x: a @ x, 20, tol=1e-9, seed=13)
    r2 = lanczos_lowest(lambda x: a @ x, 20, tol=1e-9, seed=13)
    assert r1.eigenvalue == r2.eigenvalue
    assert np.array_equal(r1.eigenvector, r2.eigenvector)


def test_lanczos_dim_one_and_validation():
    res = lanczos_lowest(lambda x: 4.5 * x, 1, tol=1e-10)
    assert res.converged and res.eigenvalue == 4.5
    with pytest.raises(ValueError):
        lanczos_lowest(lambda x: x, 0)
    with pytest.raises(ValueError):
        lanczos_lowest(lambda x: x, 3, v0=np.ones(4))


def test_lanczos_degenerate_lowest():
    a = np.diag([2.0, 2.0, 5.0, 7.0])
    res = lanczos_lowest(lambda x: a @ x, 4, tol=1e-10, seed=14)
    assert abs(res.eigenvalue - 2.0) < 1e-9


def test_dense_lowest_eig():
    a = random_sym(12, 15)
    w, v = np.linalg.eigh(a)
    lam, vec = dense_lowest_eig(a)
    assert abs(lam - w[0]) < 1e-12
    assert abs(abs(vec @ v[:, 0]) - 1) < 1e-10
    assert vec[np.argmax(np.abs(vec))] > 0
    with pytest.raises(ValueError):
        dense_lowest_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dense_sym_svd_orders_and_reconstructs():
    g = random_sym(8, 16)
    g = g @ g.T  # positive semidefinite
    sigma, v = dense_sym_svd(g)
    assert np.all(np.diff(sigma) <= 1e-12)
    assert np.allclose(v @ np.diag(sigma) @ v.T, g, atol=1e-10)
    assert np.allclose(v.T @ v, np.eye(8), atol=1e-12)
    with pytest.raises(ValueError):
        dense_sym_svd(np.array([[0.0, 1.0], [0.5, 0.0]]))


# -- bitwise agreement with the list-based oracle ----------------------------


def assert_same_result(got, want):
    assert got.eigenvalue == want.eigenvalue
    assert np.array_equal(got.eigenvector, want.eigenvector)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.residual_norm == want.residual_norm


def run_both(matvec, dim, **kwargs):
    led_new, led_old = CostLedger(), CostLedger()
    new = lanczos_lowest(matvec, dim, ledger=led_new, **kwargs)
    old = oracles.list_lanczos_lowest(matvec, dim, ledger=led_old, **kwargs)
    assert_same_result(new, old)
    assert led_new.report() == led_old.report()
    return new


def test_lanczos_matches_oracle_when_the_basis_grows():
    # well past the initial 32 rows, so the basis is doubled twice
    a = random_sym(300, 20)
    res = run_both(lambda x: a @ x, 300, tol=1e-13, seed=21)
    assert res.iterations > 64


@pytest.mark.parametrize("max_iter", [1, 3, 32, 33, 40])
def test_lanczos_matches_oracle_when_the_budget_runs_out(max_iter):
    a = random_sym(120, 22)
    v0 = np.random.default_rng(23).standard_normal(120)
    res = run_both(lambda x: a @ x, 120, v0=v0, tol=1e-15, max_iter=max_iter, seed=24)
    assert res.iterations == max_iter and not res.converged


@pytest.mark.parametrize("max_iter", [1, 2, 10])
def test_lanczos_matches_oracle_after_breakdown_and_restart(max_iter):
    # nearly invariant start: the first expansion collapses, then restarts
    a = np.diag([1.0, 3.0])
    v0 = np.array([3e-14, 1.0])
    run_both(lambda x: a @ x, 2, v0=v0, tol=1e-14, max_iter=max_iter, seed=9)


def test_lanczos_matches_oracle_when_every_restart_breaks_down():
    # with tol=0 each attempt ends in a breakdown of the full space; the
    # lowest candidate is returned
    a = np.diag([2.0, -1.0, 4.0, 0.5, 3.0])
    res = run_both(lambda x: a @ x, 5, tol=0.0, max_iter=100, seed=25)
    assert res.iterations > 5


@pytest.mark.parametrize("dim, tol", [(1, 1e-10), (7, 1e-10), (60, 1e-8), (200, 1e-10)])
def test_lanczos_matches_oracle_from_a_random_start(dim, tol):
    a = random_sym(dim, 26 + dim)
    run_both(lambda x: a @ x, dim, tol=tol, seed=27)


def test_lanczos_matches_oracle_on_a_projected_two_site_operator():
    op = heisenberg_chain(8)
    x = orthogonalize(random_tt(op.dims, 6, seed=28), 3)
    matvec, dim, _ = local_matvec_2site(
        left_env(x, op, x, 3), op.cores[3], op.cores[4], right_env(x, op, x, 5)
    )
    v0 = np.tensordot(x.cores[3], x.cores[4], axes=([2], [0])).ravel()
    run_both(matvec, dim, v0=v0, tol=1e-10, seed=29)


@pytest.mark.parametrize("n", range(1, 65))
def test_tridiag_lowest_matches_eigh_tridiagonal(n):
    rng = np.random.default_rng(100 + n)
    alphas = rng.standard_normal(n)
    betas = rng.uniform(0.1, 2.0, n - 1)
    theta, s = _tridiag_lowest(alphas, betas)
    if n == 1:
        w, v = np.array([alphas[0]]), np.ones((1, 1))
    else:
        w, v = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
    assert theta == w[0]
    assert np.array_equal(s, v[:, 0])
