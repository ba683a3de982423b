import numpy as np
import pytest
import scipy.linalg

import oracles
from ttdmrg import eigen
from ttdmrg.eigen import _LowestRitz, dense_lowest_eig, dense_sym_svd, lanczos_lowest
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


@pytest.mark.parametrize(
    "a, kwargs, converged, iterations",
    [
        # converged
        (random_sym(40, 2), dict(tol=1e-8, seed=3), True, None),
        # budget exhausted mid-expansion
        (random_sym(50, 10), dict(tol=1e-14, max_iter=3, seed=11), False, 3),
        # budget exhausted by a breakdown: the candidate is returned
        (np.diag([1.0, 3.0]), dict(v0=np.array([3e-14, 1.0]), tol=1e-14, max_iter=1, seed=9),
         False, 1),
        # every restart breaks down: the lowest candidate is returned
        (np.diag([2.0, -1.0, 4.0, 0.5, 3.0]), dict(tol=0.0, max_iter=100, seed=25), False, None),
    ],
    ids=["converged", "budget", "budget-after-breakdown", "all-restarts-break-down"],
)
def test_lanczos_residual_matches_the_true_residual(a, kwargs, converged, iterations):
    calls = []

    def matvec(x):
        calls.append(1)
        return a @ x

    res = lanczos_lowest(matvec, a.shape[0], **kwargs)
    assert res.converged == converged
    assert iterations is None or res.iterations == iterations
    # read off the recurrence: no application beyond the counted ones
    assert len(calls) == res.iterations
    theta, v = res.eigenvalue, res.eigenvector
    true_res = np.linalg.norm(a @ v - theta * v)
    assert abs(res.residual_norm - true_res) <= 1e-12 * max(1.0, abs(theta))
    assert abs(np.linalg.norm(v) - 1) < 1e-12


def test_lanczos_never_returns_a_random_start_unchanged():
    # a tolerance that every first residual estimate meets still buys one
    # Krylov step past the start, and that step descends
    a = random_sym(30, 40)
    rng = np.random.default_rng(41)
    for v0 in [None] + [rng.standard_normal(30) for _ in range(5)]:
        res = run_both(lambda x: a @ x, 30, v0=v0, tol=1e3, seed=42)
        assert res.converged and res.iterations == 2
        start = np.random.default_rng(42).standard_normal(30) if v0 is None else v0
        start = start / np.linalg.norm(start)
        assert res.eigenvalue < start @ a @ start
        assert abs(res.eigenvector @ start) < 1 - 1e-6


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


@pytest.mark.parametrize(
    "a, kwargs",
    [
        (random_sym(40, 2), dict(tol=1e-8, seed=3)),
        (random_sym(50, 10), dict(tol=1e-14, max_iter=3, seed=11)),
        (np.diag([1.0, 3.0]), dict(v0=np.array([3e-14, 1.0]), tol=1e-14, max_iter=10, seed=9)),
        (np.diag([2.0, -1.0, 4.0, 0.5, 3.0]), dict(tol=0.0, max_iter=100, seed=25)),
    ],
    ids=["converged", "budget", "restart-after-breakdown", "all-restarts-break-down"],
)
def test_lanczos_keeps_its_first_application_on_request(a, kwargs):
    # start_image is the first application A q0, whatever the exit; the
    # eigenvalue is the Rayleigh quotient of the returned vector
    inputs = []

    def matvec(x):
        inputs.append(x.copy())
        return a @ x

    res = lanczos_lowest(matvec, a.shape[0], keep_start=True, **kwargs)
    assert np.array_equal(res.start_image, a @ inputs[0])
    v = res.eigenvector
    assert abs(v @ a @ v - res.eigenvalue) <= 1e-12 * max(1.0, abs(res.eigenvalue))
    if "v0" in kwargs:
        v0 = kwargs["v0"]
        assert np.allclose(inputs[0], v0 / np.linalg.norm(v0), rtol=0, atol=1e-16)
    assert lanczos_lowest(lambda x: a @ x, a.shape[0], **kwargs).start_image is None


def test_lanczos_breakdown_restart_finds_lower_state():
    # a nearly invariant start makes the basis expansion collapse (beta in
    # the breakdown window) while the residual still misses the tolerance,
    # forcing a random restart that then finds the ground state
    a = np.diag([1.0, 3.0])
    v0 = np.array([3e-14, 1.0])
    res = lanczos_lowest(lambda x: a @ x, 2, v0=v0, tol=1e-14, max_iter=10, seed=9)
    assert abs(res.eigenvalue - 1.0) < 1e-12


def test_lanczos_builds_its_generator_only_to_draw(monkeypatch):
    a = random_sym(25, 7)
    v0 = np.random.default_rng(8).standard_normal(25)
    built = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    res = lanczos_lowest(lambda x: a @ x, 25, v0=v0, tol=1e-8, seed=8)
    assert res.converged and built == []
    # the breakdown of test_lanczos_breakdown_restart_finds_lower_state
    b = np.diag([1.0, 3.0])
    res = lanczos_lowest(lambda x: b @ x, 2, v0=np.array([3e-14, 1.0]), tol=1e-14, max_iter=10,
                         seed=9)
    assert abs(res.eigenvalue - 1.0) < 1e-12 and built == [(9,)]


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lanczos_rejects_a_non_finite_start(bad):
    # a NaN start used to become a random one, an infinite one NaNs
    a = np.diag([3.0, 1.0, 2.0, 5.0])
    with pytest.raises(ValueError, match="start vector has non-finite entries"):
        lanczos_lowest(lambda x: a @ x, 4, v0=np.array([bad, 1.0, 0.0, 0.0]), tol=1e-10)
    # a zero start still falls back to the seeded random one
    zero = lanczos_lowest(lambda x: a @ x, 4, v0=np.zeros(4), tol=1e-10, seed=5)
    drawn = lanczos_lowest(lambda x: a @ x, 4, tol=1e-10, seed=5)
    assert zero.eigenvalue == drawn.eigenvalue
    assert np.array_equal(zero.eigenvector, drawn.eigenvector)


@pytest.mark.parametrize(
    "kwargs, name",
    [(dict(max_iter=0), "max_iter"), (dict(max_iter=-3), "max_iter"),
     (dict(max_iter=2.7), "max_iter"), (dict(max_iter=True), "max_iter"),
     (dict(tol=float("nan")), "tol"), (dict(tol=-1.0), "tol")],
    ids=["iter0", "iter-3", "iter2.7", "iter-bool", "tol-nan", "tol-1"],
)
def test_lanczos_rejects_bad_knobs(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        lanczos_lowest(lambda x: x, 3, **kwargs)


def test_lanczos_accepts_a_zero_tolerance_and_numpy_budgets():
    a = np.diag([1.0, 2.0, 3.0])
    res = lanczos_lowest(lambda x: a @ x, 3, tol=0.0, max_iter=np.int64(2), seed=3)
    assert res.iterations == 2 and not res.converged


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


@pytest.mark.parametrize("solve", [dense_lowest_eig, dense_sym_svd])
def test_dense_eigensolvers_reject_malformed_matrices(solve):
    for bad in (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0, np.inf], [np.inf, 1.0]])):
        with pytest.raises(ValueError, match="non-finite"):
            solve(bad)
    for bad in (np.ones((1, 2)), np.ones((2, 2, 2)), np.ones(3)):
        with pytest.raises(ValueError, match="square"):
            solve(bad)


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
    # independently: the same loop with scipy's tridiagonal eigensolver
    ref = oracles.list_lanczos_lowest(
        matvec, dim, tridiag=oracles.scipy_tridiag_lowest, **kwargs
    )
    assert (new.iterations, new.converged) == (ref.iterations, ref.converged)
    assert abs(new.eigenvalue - ref.eigenvalue) <= 1e-13 * max(1.0, abs(ref.eigenvalue))
    gap = min(np.abs(new.eigenvector - sign * ref.eigenvector).max() for sign in (1, -1))
    assert gap <= 1e-10  # up to sign: a tie for the largest entry can flip it
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


@pytest.mark.parametrize("dim", [1, 7, 40])
def test_lanczos_matches_oracle_when_the_matvec_returns_its_input(dim):
    v0 = np.random.default_rng(30).standard_normal(dim)
    res = run_both(lambda x: x, dim, v0=v0, tol=1e-10, seed=31)
    assert res.converged and res.eigenvalue == pytest.approx(1.0)


def test_lanczos_matches_oracle_on_a_projected_two_site_operator():
    op = heisenberg_chain(8)
    x = orthogonalize(random_tt(op.dims, 6, seed=28), 3)
    matvec, dim, _ = local_matvec_2site(
        left_env(x, op, x, 3), op.cores[3], op.cores[4], right_env(x, op, x, 5)
    )
    v0 = np.tensordot(x.cores[3], x.cores[4], axes=([2], [0])).ravel()
    run_both(matvec, dim, v0=v0, tol=1e-10, seed=29)


# -- the incremental tridiagonal step -----------------------------------------

EPS = np.finfo(float).eps


def tridiag(alphas, betas):
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


def grow(alphas, betas):
    """``(theta, |s_k|, s)`` after adding every row of the tridiagonal."""
    return oracles._list_tridiag_lowest(np.asarray(alphas).tolist(), np.asarray(betas).tolist())


def assert_lowest_pair(alphas, betas, vector=True):
    """The step's pair against ``np.linalg.eigh`` of the dense matrix: the
    value within 8 eps ||T||, the vector within 1e-12 up to sign (when its
    gap determines it), |s_k| equal to the vector's last entry."""
    t = tridiag(alphas, betas)
    theta, sk, s = grow(alphas, betas)
    w, v = np.linalg.eigh(t)
    scale = np.linalg.norm(t, 2)
    assert abs(theta - w[0]) <= 8 * EPS * scale
    assert abs(np.linalg.norm(s) - 1) <= 1e-14
    assert s[np.argmax(np.abs(s))] > 0
    assert np.linalg.norm(t @ s - theta * s) <= 8 * EPS * scale * np.sqrt(len(alphas))
    assert sk == pytest.approx(abs(s[-1]), rel=1e-12, abs=0)
    if vector:
        assert min(np.abs(s - v[:, 0]).max(), np.abs(s + v[:, 0]).max()) <= 1e-12
    return theta, sk, s


@pytest.mark.parametrize("n", range(1, 65))
def test_tridiag_lowest_matches_eigh_tridiagonal(n):
    rng = np.random.default_rng(100 + n)
    alphas = rng.standard_normal(n)
    betas = rng.uniform(0.1, 2.0, n - 1)
    theta, sk, s = assert_lowest_pair(alphas, betas)
    if n > 1:
        w, v = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
        assert abs(theta - w[0]) <= 8 * EPS * np.abs(alphas).max() + 16 * EPS * betas.max()
        assert np.abs(s - v[:, 0]).max() <= 1e-12  # the same sign convention


def test_lowest_ritz_on_graded_diagonals():
    # diagonal magnitudes from 1e8 down to 1e-8, the lowest pair at the large end
    n = 24
    rng = np.random.default_rng(7)
    alphas = -np.logspace(8, -8, n)
    betas = np.sqrt(np.abs(alphas[:-1] * alphas[1:])) * rng.uniform(0.05, 0.3, n - 1)
    assert_lowest_pair(alphas, betas)
    # and the reverse grading, the lowest pair among the small entries
    assert_lowest_pair(alphas[::-1].copy(), betas[::-1].copy(), vector=False)


def lanczos_tridiagonal(a, steps, seed):
    """The tridiagonal of ``steps`` fully reorthogonalized Lanczos steps on ``a``."""
    v = np.random.default_rng(seed).standard_normal(a.shape[0])
    basis = [v / np.linalg.norm(v)]
    alphas, betas = [], []
    for _ in range(steps):
        w = a @ basis[-1]
        alphas.append(float(w @ basis[-1]))
        vm = np.array(basis)
        w = w - vm.T @ (vm @ w)
        w = w - vm.T @ (vm @ w)
        betas.append(float(np.linalg.norm(w)))
        basis.append(w / betas[-1])
    return np.array(alphas), np.array(betas[:-1])


def test_lowest_ritz_on_a_near_degenerate_lowest_pair():
    # two lowest eigenvalues 1e-9 apart: the value is still accurate, the
    # vector is a residual-small combination of the two
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    a = q @ np.diag([-1.0, -1.0 + 1e-9] + list(np.linspace(0.0, 3.0, 10))) @ q.T
    alphas, betas = lanczos_tridiagonal(a, 12, seed=9)
    theta, _, _ = assert_lowest_pair(alphas, betas, vector=False)
    assert theta == pytest.approx(-1.0, abs=1e-14)


@pytest.mark.parametrize("beta", [1e-4, 1e-8, 1e-12])
def test_lowest_ritz_with_small_off_diagonals(beta):
    rng = np.random.default_rng(9)
    alphas = rng.standard_normal(16)
    betas = beta * rng.uniform(0.5, 2.0, 15)
    assert_lowest_pair(alphas, betas)
    # one small beta in the middle of an otherwise coupled matrix
    betas = rng.uniform(0.5, 2.0, 15)
    betas[7] = beta
    assert_lowest_pair(alphas, betas)


def test_lowest_ritz_settled_step_after_a_tiny_last_entry():
    # T_{k-1}'s lowest eigenvector ends in about 1e-150, so the next row moves
    # theta by about 1e-300: a settled step
    alphas = np.array([0.0, 1.0, 2.0, 3.0, 1.5])
    betas = np.array([0.5, 0.5, 1e-150, 1.0])
    ritz = _LowestRitz()
    ritz.add(0.0, 0.0)
    for a, b in zip(alphas[1:-1], betas[:-1]):
        theta0, sk0 = ritz.add(float(a), float(b))
    assert 0 < sk0 < 1e-149
    theta, sk = ritz.add(float(alphas[-1]), float(betas[-1]))
    assert abs(theta - theta0) <= 2 * EPS * abs(theta0) and 0 < sk < 1e-149
    assert_lowest_pair(alphas, betas)


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_lowest_ritz_is_scale_invariant(scale):
    rng = np.random.default_rng(10)
    alphas = rng.standard_normal(20)
    betas = rng.uniform(0.1, 2.0, 19)
    theta, sk, s = grow(alphas, betas)
    theta_s, sk_s, s_s = assert_lowest_pair(scale * alphas, scale * betas)
    assert theta_s == pytest.approx(scale * theta, rel=1e-14)
    assert sk_s == pytest.approx(sk, rel=1e-12)
    assert np.abs(s_s - s).max() <= 1e-12


def test_lowest_ritz_falls_back_to_dense_eigh(monkeypatch):
    dense = []
    step = _LowestRitz._dense

    def counted(self):
        dense.append(len(self.alphas))
        return step(self)

    monkeypatch.setattr(_LowestRitz, "_dense", counted)
    rng = np.random.default_rng(11)
    alphas = rng.standard_normal(10)
    betas = rng.uniform(0.1, 2.0, 9)
    assert_lowest_pair(alphas, betas)
    assert dense == []
    # no secular pass allowed: every step after the first is dense
    monkeypatch.setattr(eigen, "_MAX_PASSES", 0)
    assert_lowest_pair(alphas, betas)
    assert dense == list(range(2, 11))
    monkeypatch.undo()
    # a pole above the lowest eigenvalue makes a pivot non-positive
    monkeypatch.setattr(_LowestRitz, "_dense", counted)
    dense.clear()
    ritz = _LowestRitz()
    ritz.add(float(alphas[0]), 0.0)
    ritz.add(float(alphas[1]), float(betas[0]))
    ritz.theta += 1.0
    theta, sk = ritz.add(float(alphas[2]), float(betas[1]))
    assert dense == [3]
    w, v = np.linalg.eigh(tridiag(alphas[:3], betas[:2]))
    assert theta == pytest.approx(w[0], abs=1e-14) and sk == pytest.approx(abs(v[-1, 0]))


@pytest.mark.parametrize(
    "a, kwargs",
    [(random_sym(60, 33), dict(tol=1e-10, seed=34)),
     (random_sym(50, 10), dict(tol=1e-14, max_iter=40, seed=11)),
     (np.diag([2.0, -1.0, 4.0, 0.5, 3.0]), dict(tol=0.0, max_iter=100, seed=25))],
    ids=["converged", "budget", "all-restarts-break-down"],
)
def test_lanczos_charges_its_vector_work_once_per_solve(charges, a, kwargs):
    want = CostLedger()
    oracles.list_lanczos_lowest(lambda x: a @ x, a.shape[0], ledger=want, **kwargs)
    charges.clear()
    led = CostLedger()
    res = lanczos_lowest(lambda x: a @ x, a.shape[0], ledger=led, **kwargs)
    assert res.iterations > 4
    # the oracle charges every step; the solver charges their sum once
    assert charges == [("matvec", want.total_flops())]
    assert led.report() == want.report()
