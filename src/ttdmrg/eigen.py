"""Lowest-eigenpair solvers: a Lanczos iteration for matrix-free operators
and dense helpers for small symmetric problems, which accept a matrix
symmetric to :data:`SYM_RTOL` relative to its largest entry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .ledger import charge, eigh_flops
from .tt import check_cap, check_tol, column_signs


@dataclass
class LanczosResult:
    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float


# How far from symmetric a dense eigensolver's input may be, relative to its
# largest entry.
SYM_RTOL = 1e-10

# The driver pair scipy.linalg.eigh_tridiagonal runs for select="i",
# resolved once: ?stebz (bisection) for the eigenvalue, ?stein (inverse
# iteration) for its vector.
_STEBZ, _STEIN = get_lapack_funcs(("stebz", "stein"), (np.zeros(1),))


def _tridiag_lowest(alphas, betas):
    """Lowest eigenpair of the symmetric tridiagonal matrix with diagonal
    ``alphas`` and off-diagonal ``betas`` (float arrays)."""
    if len(alphas) == 1:
        return float(alphas[0]), np.ones(1)
    m, w, iblock, isplit, info = _STEBZ(alphas, betas, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        v, info = _STEIN(alphas, betas, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolve failed (info={info})")
    return w[0], v[:, 0]


def lanczos_lowest(matvec, dim, v0=None, tol=1e-6, max_iter=None, seed=0, ledger=None):
    """Lowest eigenpair of a symmetric operator given by ``matvec``.

    Runs a Lanczos iteration with full reorthogonalization, starting from
    ``v0`` (or a seeded random vector).  Convergence is declared when the
    residual estimate drops below ``tol * max(1, |eigenvalue|)``.  An exact
    invariant subspace (Krylov breakdown) that does not already satisfy the
    tolerance triggers a restart from a fresh random vector, at most three
    times; every breakdown candidate is an exact eigenpair of the operator,
    so the lowest one is kept and returned (flagged ``converged=False``)
    should all restarts break down.

    A start that is not an eigenvector is never returned unchanged: the
    iteration takes at least one Krylov step past it, even when the first
    residual estimate already meets the tolerance, unless that first step
    breaks down (``beta <= 1e-13``, an exact eigenvector).  So a loose
    tolerance still buys some descent from a warm start.

    ``iterations`` counts every operator application; there is no extra one.
    The returned ``residual_norm`` is the Krylov recurrence's estimate
    ``beta * |s_k|`` of ``|A v - theta v|`` (``s`` the tridiagonal Ritz vector,
    ``beta`` the norm of the next basis direction before normalization),
    taken on every exit: converged, budget exhausted, and each breakdown
    candidate.  Since the first Ritz value equals the Rayleigh quotient of
    ``v0``, the returned eigenvalue never exceeds it.

    The Krylov basis lives in the rows of one array, allocated once per call
    with ``min(max_iter + 1, 32)`` rows and doubled when full, and is shared
    by the restarts; its vector work is charged once, as ``"matvec"``, on return.
    ``max_iter`` is None or an integer >= 1 and ``tol`` nonnegative, else
    ``ValueError``.  So is a ``v0`` of the wrong length or with a NaN or
    infinite entry; a zero ``v0`` falls back to the seeded random start.
    """
    if dim < 1:
        raise ValueError("operator dimension must be positive")
    check_cap("max_iter", max_iter)
    check_tol("tol", tol)
    if max_iter is None:
        max_iter = min(dim, 256)
    rng = None  # built at the first random draw: most solves start from v0

    def finish(theta, vec, res):
        charge(ledger, "matvec", work)
        conv = res <= tol * max(1.0, abs(theta))
        return LanczosResult(float(theta), vec / np.linalg.norm(vec), total, conv, float(res))

    start = None
    if v0 is not None:
        start = np.asarray(v0, dtype=float).ravel()
        if start.shape[0] != dim:
            raise ValueError(f"start vector has length {start.shape[0]}, expected {dim}")
        if not np.isfinite(start).all():
            raise ValueError("start vector has non-finite entries")
        n0 = np.linalg.norm(start)
        start = start / n0 if n0 > 0 else None

    total = 0
    work = 0.0  # the vector work of every step, charged by finish
    best = None  # lowest (theta, vector, residual) breakdown candidate across restarts

    def pick(theta, vec, res):
        if best is not None and best[0] < theta:
            return best
        return theta, vec, res

    rows = min(max_iter + 1, 32)
    basis = np.empty((rows, dim))
    alphas = np.empty(rows)
    betas = np.empty(rows)
    for attempt in range(4):
        if attempt == 0 and start is not None:
            v = start
        else:
            if rng is None:
                rng = np.random.default_rng(seed)
            v = rng.standard_normal(dim)
        basis[0] = v / np.linalg.norm(v)
        k = 1  # basis rows in use; alphas[:k - 1] and betas[:k - 1] are set
        broke = False
        while total < max_iter:
            q = basis[k - 1]
            w = matvec(q)
            total += 1
            a = float(w @ q)
            alphas[k - 1] = a
            # out of place: a matvec may return its input or shared state
            w = w - a * q
            if k > 1:
                w -= betas[k - 2] * basis[k - 2]
            vk = basis[:k]
            w -= vk.T @ (vk @ w)
            work += 4.0 * vk.size + 6.0 * dim
            b = float(np.linalg.norm(w))
            theta, s = _tridiag_lowest(alphas[:k], betas[: k - 1])
            res = b * abs(s[-1])
            # step past a start that is not an exact eigenvector
            if res <= tol * max(1.0, abs(theta)) and (k > 1 or b <= 1e-13):
                return finish(*pick(theta, vk.T @ s, res))
            if b <= 1e-13:
                # exact invariant subspace that misses the tolerance: keep
                # the candidate and restart from a random direction
                if best is None or theta < best[0]:
                    best = (theta, vk.T @ s, res)
                broke = True
                break
            betas[k - 1] = b
            if k == len(basis):
                rows = min(2 * k, max_iter + 1)
                basis = np.resize(basis, (rows, dim))  # keeps the k rows in front
                alphas, betas = np.resize(alphas, rows), np.resize(betas, rows)
            np.divide(w, b, out=basis[k])
            k += 1
        if not broke:
            # iteration budget exhausted; the last step's Ritz pair stands
            if k > 1:
                return finish(*pick(theta, basis[: k - 1].T @ s, res))
            return finish(*best)
    return finish(*best)


def _checked_eigh(a, ledger):
    """``np.linalg.eigh`` of a square, finite ``a``, symmetric to
    :data:`SYM_RTOL` relative to its largest entry; charged as ``"svd"``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if np.max(np.abs(a - a.T)) > SYM_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    charge(ledger, "svd", eigh_flops(a.shape[0]))
    return np.linalg.eigh(a)


def dense_lowest_eig(a, ledger=None):
    """Lowest eigenpair of a dense symmetric matrix; the eigenvector sign is
    fixed so its largest-magnitude entry is positive."""
    w, v = _checked_eigh(a, ledger)
    return float(w[0]), v[:, 0] * column_signs(v[:, :1])


def dense_sym_svd(a, ledger=None):
    """Eigendecomposition of a symmetric matrix ordered like an SVD.

    Returns ``(sigma, v)`` with eigenvalues sorted descending and
    ``a ~ v @ diag(sigma) @ v.T``.  Intended for overlap (Gram) matrices,
    whose eigenvalues are nonnegative up to roundoff.
    """
    w, v = _checked_eigh(a, ledger)
    order = np.argsort(w)[::-1]
    v = v[:, order]
    return w[order], v * column_signs(v)
