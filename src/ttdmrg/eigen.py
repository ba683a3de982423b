"""Lowest-eigenpair solvers: a Lanczos iteration for matrix-free operators
and dense helpers for small symmetric problems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .ledger import charge, eigh_flops


@dataclass
class LanczosResult:
    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float


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

    ``iterations`` counts operator applications inside the Krylov loop; the
    one extra application used to recompute the returned ``residual_norm``
    is not counted.  Since the first Ritz value equals the Rayleigh quotient
    of ``v0``, the returned eigenvalue never exceeds it.

    The Krylov basis lives in the rows of one array, allocated once per call
    with ``min(max_iter + 1, 32)`` rows and doubled when full, and is shared
    by the restarts.
    """
    if dim < 1:
        raise ValueError("operator dimension must be positive")
    if max_iter is None:
        max_iter = min(dim, 256)
    max_iter = max(int(max_iter), 1)
    rng = np.random.default_rng(seed)

    def finish(theta, vec, iters):
        nv = np.linalg.norm(vec)
        vec = vec / nv
        res = float(np.linalg.norm(matvec(vec) - theta * vec))
        conv = res <= tol * max(1.0, abs(theta))
        return LanczosResult(float(theta), vec, iters, conv, res)

    start = None
    if v0 is not None:
        start = np.asarray(v0, dtype=float).ravel()
        if start.shape[0] != dim:
            raise ValueError(f"start vector has length {start.shape[0]}, expected {dim}")
        n0 = np.linalg.norm(start)
        start = start / n0 if n0 > 0 else None

    total = 0
    best = None  # lowest invariant-subspace candidate seen across restarts

    def pick(theta, vec):
        if best is not None and best[0] < theta:
            return best
        return theta, vec

    rows = min(max_iter + 1, 32)
    basis = np.empty((rows, dim))
    alphas = np.empty(rows)
    betas = np.empty(rows)
    for attempt in range(4):
        v = start if (attempt == 0 and start is not None) else rng.standard_normal(dim)
        basis[0] = v / np.linalg.norm(v)
        k = 1  # basis rows in use; alphas[:k - 1] and betas[:k - 1] are set
        broke = False
        while total < max_iter:
            q = basis[k - 1]
            w = matvec(q)
            total += 1
            a = float(w @ q)
            alphas[k - 1] = a
            w = w - a * q
            if k > 1:
                w = w - betas[k - 2] * basis[k - 2]
            vk = basis[:k]
            w = w - vk.T @ (vk @ w)
            charge(ledger, "matvec", 4.0 * vk.size + 6.0 * dim)
            b = float(np.linalg.norm(w))
            theta, s = _tridiag_lowest(alphas[:k], betas[: k - 1])
            if b * abs(s[-1]) <= tol * max(1.0, abs(theta)):
                theta, vec = pick(theta, vk.T @ s)
                return finish(theta, vec, total)
            if b <= 1e-13:
                # exact invariant subspace that misses the tolerance: keep
                # the candidate and restart from a random direction
                if best is None or theta < best[0]:
                    best = (theta, vk.T @ s)
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
            # iteration budget exhausted
            n = k - 1
            if n:
                theta, s = _tridiag_lowest(alphas[:n], betas[: n - 1])
                theta, vec = pick(theta, basis[:n].T @ s)
            else:
                theta, vec = best
            return finish(theta, vec, total)
    theta, vec = best
    return finish(theta, vec, total)


def dense_lowest_eig(a, sym_rtol=1e-10, ledger=None):
    """Lowest eigenpair of a dense symmetric matrix.

    The input must be symmetric to ``sym_rtol`` relative to its largest
    entry; the eigenvector sign is fixed so its largest-magnitude entry is
    positive.
    """
    a = np.asarray(a, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if np.max(np.abs(a - a.T)) > sym_rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    charge(ledger, "svd", eigh_flops(a.shape[0]))
    w, v = np.linalg.eigh(a)
    vec = v[:, 0]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return float(w[0]), vec


def dense_sym_svd(a, sym_rtol=1e-10, ledger=None):
    """Eigendecomposition of a symmetric matrix ordered like an SVD.

    Returns ``(sigma, v)`` with eigenvalues sorted descending and
    ``a ~ v @ diag(sigma) @ v.T``.  Intended for overlap (Gram) matrices,
    whose eigenvalues are nonnegative up to roundoff.
    """
    a = np.asarray(a, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if np.max(np.abs(a - a.T)) > sym_rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    charge(ledger, "svd", eigh_flops(a.shape[0]))
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    for k in range(v.shape[1]):
        if v[np.argmax(np.abs(v[:, k])), k] < 0:
            v[:, k] = -v[:, k]
    return w, v
