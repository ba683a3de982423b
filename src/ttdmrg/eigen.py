"""Lowest-eigenpair solvers: a Lanczos iteration for matrix-free operators
and dense helpers for small symmetric problems, which accept a matrix
symmetric to :data:`SYM_RTOL` relative to its largest entry.

Every Lanczos step needs the lowest eigenpair of its k x k tridiagonal T_k.
:class:`_LowestRitz` updates it in plain Python floats, O(k) work a step:

- The Ritz value: T_k borders T_{k-1}, so its lowest eigenvalue theta is the
  root below theta_{k-1} of the secular function
  ``alpha_k - sigma - beta_{k-1}**2 * g(sigma)``, where g(sigma) is 1 over
  the last LDL^T pivot of ``T_{k-1} - sigma`` (Bunch, Nielsen & Sorensen,
  Numer. Math. 31, 1978).  The root is found with a one-pole rational model
  ``c / (theta_{k-1} - sigma) + e`` of g, warm-started from the pole's
  residue ``c = s_{k-1}[-1]**2`` and the previous step's ``e``, and refit at
  every pass from the values of g at the last two points (value-only passes
  cost about half of value-and-derivative ones and need few more).  All
  pivots positive certifies that sigma lies below the lowest eigenvalue of
  T_{k-1}.
- The Ritz vector: read off a twisted factorization of ``T_k - sigma`` at the
  last point, top-down pivots from the last pass and bottom-up pivots from
  one more, twisted where ``|gamma_r|`` is smallest (Dhillon & Parlett, LAA
  387, 2004).  Every step takes ``|s_k|`` from it, not from the secular
  derivative ``1 / (1 + beta**2 g'(theta))``: that formula loses
  ``eps |theta| / (theta_{k-1} - theta)`` relative accuracy, 1e-7 once theta
  moves by 1e-9 of itself, and Lanczos steps near convergence move less.
- The fallback: a non-positive pivot, a zero pivot, or no convergence within
  :data:`_MAX_PASSES` passes hands the step to ``np.linalg.eigh`` of the
  dense k x k matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .ledger import charge, eigh_flops
from .tt import check_cap, check_tol, column_signs, real_array


@dataclass
class LanczosResult:
    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    start_image: np.ndarray | None = None


# How far from symmetric a dense eigensolver's input may be, relative to its
# largest entry.
SYM_RTOL = 1e-10

# A Ritz value not settled to roundoff after this many secular passes goes
# to the dense fallback.
_MAX_PASSES = 16
_EPS = float(np.finfo(float).eps)
_TINY = 1e-280


class _LowestRitz:
    """Lowest eigenpair of a symmetric tridiagonal matrix grown one row at a
    time: :meth:`add` appends a diagonal entry and returns the new lowest
    eigenvalue and the magnitude of the last entry of its unit eigenvector,
    :meth:`vector` returns that eigenvector, its largest entry positive (the
    sign ``?stein`` gives).  ``twist`` is None after a dense fallback, whose
    eigenvector ``dense`` holds."""

    __slots__ = ("alphas", "betas", "b2", "rows", "theta", "w", "norm", "sigma", "top",
                 "twist", "zz", "dense", "e")

    def __init__(self):
        # rows[j - 1] = (alphas[j], b2[j - 1]); b2 holds the squared betas
        self.alphas, self.betas, self.b2, self.rows = [], [], [], []

    def add(self, alpha, beta):
        """Append diagonal entry ``alpha``, coupled to the previous one by
        ``beta > 0`` (ignored for the first entry); returns ``(theta, |s_k|)``.
        Both are Python floats: a zero pivot must raise ZeroDivisionError."""
        alphas = self.alphas
        if not alphas:
            alphas.append(alpha)
            self.theta = self.sigma = alpha
            self.w, self.norm, self.e = 1.0, abs(alpha), 0.0
            self.top, self.twist, self.zz = [], 0, 1.0
            return alpha, 1.0
        p, w, rows, b2s = self.theta, self.w, self.rows, self.b2
        bb = beta * beta
        norm = (alpha if alpha > 0.0 else -alpha) + 2.0 * beta
        if norm < self.norm:
            norm = self.norm
        self.norm = norm
        tol = _EPS * norm
        a = alpha - p
        a0 = alphas[0]
        alphas.append(alpha)
        self.betas.append(beta)
        b2s.append(bb)
        n = len(rows)  # T_{k-1} has n + 1 rows; the new one is row n + 1
        # the model's root: delta = p - theta solves
        # delta**2 + (a - bb * e) * delta - bb * c = 0; warm start c = w and
        # the e the previous step ended with
        cc = bb * w
        b = a - bb * self.e
        r = sqrt(b * b + 4.0 * cc)
        delta = 2.0 * cc / (b + r) if b > 0.0 else 0.5 * (r - b)
        dl0 = g0 = 0.0  # p - sigma and g(sigma) of the previous pass
        try:
            for _ in range(_MAX_PASSES):
                dl = delta if delta > tol else tol
                sigma = p - dl
                d = a0 - sigma
                top = [d]
                push = top.append
                for aj, b2 in rows:
                    d = aj - sigma - b2 / d
                    push(d)
                g = 1.0 / d
                c = w
                if dl0 and dl != dl0:
                    fit = (g - g0) * dl * dl0 / (dl0 - dl)
                    if fit > 0.0:
                        c = fit
                dl0, g0 = dl, g
                e = g - c / dl
                b = a - bb * e
                cc = bb * c
                r = sqrt(b * b + 4.0 * cc)
                new = 2.0 * cc / (b + r) if b > 0.0 else 0.5 * (r - b)
                step, delta = new - delta, new
                if -tol <= step <= tol:
                    break
            else:
                raise ZeroDivisionError
            # bottom-up pivots of T_k - sigma; gamma_j = top_j - b2_j / bot_{j+1};
            # below the twist, zz sums z_i**2 and z2 is z_k**2, scaled to z_j = 1
            r = alpha - sigma
            gam = r - bb / d
            best = abs(gam)
            twist, below, zk2 = n + 1, 1.0, 1.0
            zz = z2 = 1.0
            for j in range(n, -1, -1):
                dj = top[j]
                if dj <= 0.0:
                    raise ZeroDivisionError
                q = b2s[j] / r
                u = q / r
                zz = 1.0 + u * zz
                z2 *= u
                gam = dj - q
                r = alphas[j] - sigma - q
                if -best < gam < best:
                    best = gam if gam > 0.0 else -gam
                    twist, below, zk2 = j, zz, z2
        except ZeroDivisionError:
            rows.append((alpha, bb))
            return self._dense()
        rows.append((alpha, bb))
        # above the twist
        zz, x2 = below, 1.0
        for j in range(twist - 1, -1, -1):
            dj = top[j]
            x2 = b2s[j] * x2 / (dj * dj)
            zz += x2
        self.sigma, self.top, self.twist, self.zz = sigma, top, twist, zz
        # e as the next warm start, unless g's roundoff (tol * g**2) swamps it
        self.e = e if e > 1e3 * tol * g * g else 0.0
        self.w = w = zk2 / zz
        self.theta = theta = p - delta
        if zk2 < _TINY:
            # |s_k| below about 1e-140: its square has lost digits
            return theta, abs(float(self.vector()[-1]))
        return theta, sqrt(w)

    def _dense(self):
        b = self.betas
        t = np.diag(self.alphas) + np.diag(b, 1) + np.diag(b, -1)
        lam, v = np.linalg.eigh(t)
        self.theta, self.dense, self.twist = float(lam[0]), v[:, 0], None
        self.w = float(v[-1, 0]) ** 2
        return self.theta, sqrt(self.w)

    def vector(self):
        if self.twist is None:
            s = self.dense
        else:
            t, top, sigma = self.twist, self.top, self.sigma
            alphas, betas, b2s = self.alphas, self.betas, self.b2
            k = len(alphas)
            z = [0.0] * k
            z[t] = x = 1.0
            for j in range(t - 1, -1, -1):
                x = -betas[j] * x / top[j]
                z[j] = x
            if t < k - 1:
                bot = [0.0] * k
                r = bot[k - 1] = alphas[k - 1] - sigma
                for j in range(k - 2, t, -1):
                    r = bot[j] = alphas[j] - sigma - b2s[j] / r
                x = 1.0
                for j in range(t + 1, k):
                    x = -betas[j - 1] * x / bot[j]
                    z[j] = x
            s = np.array(z) / sqrt(self.zz)
        i = int(np.argmax(np.abs(s)))
        return -s if s[i] < 0 else s


def lanczos_lowest(matvec, dim, v0=None, tol=1e-6, max_iter=None, seed=0, ledger=None,
                   keep_start=False):
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
    ``v0``, the returned eigenvalue never exceeds it.  On every exit the
    returned eigenvalue is the Rayleigh quotient of the returned vector, to
    roundoff (the basis is fully reorthogonalized).

    With ``keep_start``, ``start_image`` is the first operator application,
    ``A q0`` for the normalized start ``q0`` (``v0 / |v0|``, or the seeded
    random start): exact on every exit, restarts included, so ``<v0, A u>``
    for any ``u`` is one dot product away.  Without it ``start_image`` is
    None and the first application is not kept.

    The Krylov basis lives in the rows of one array, allocated once per call
    with ``min(max_iter + 1, 32)`` rows and doubled when full, and is shared
    by the restarts; its vector work is charged once, as ``"matvec"``, on return.
    ``max_iter`` is None or an integer >= 1 and ``tol`` nonnegative, else
    ``ValueError``.  So is a complex ``v0``, or one of the wrong length or
    with a NaN or infinite entry; a zero ``v0`` falls back to the seeded
    random start.
    """
    if dim < 1:
        raise ValueError("operator dimension must be positive")
    check_cap("max_iter", max_iter)
    check_tol("tol", tol)
    if max_iter is None:
        max_iter = min(dim, 256)
    rng = None  # built at the first random draw: most solves start from v0

    start = None
    if v0 is not None:
        start = real_array("start vector", v0).ravel()
        if start.shape[0] != dim:
            raise ValueError(f"start vector has length {start.shape[0]}, expected {dim}")
        if not np.isfinite(start).all():
            raise ValueError("start vector has non-finite entries")
        n0 = sqrt(float(start @ start))
        start = start / n0 if n0 > 0 else None

    total = 0
    work = 0.0  # the vector work of every step, charged on return
    # the answer (theta, vector, residual): a breakdown candidate replaces it
    # only when strictly lower, the final one unless strictly higher
    answer = first = None
    rows = min(max_iter + 1, 32)
    basis = np.empty((rows, dim))
    for attempt in range(4):
        if attempt == 0 and start is not None:
            v = start
        else:
            if rng is None:
                rng = np.random.default_rng(seed)
            v = rng.standard_normal(dim)
        basis[0] = v / sqrt(float(v @ v))
        k = 0  # basis rows in use, and steps taken in this attempt
        b = 0.0  # the last step's beta, which joins basis rows k - 1 and k
        ritz = _LowestRitz()
        while total < max_iter:
            q = basis[k]
            w = matvec(q)
            if keep_start and first is None:
                first = w.copy()  # a matvec may return its input or shared state
            total += 1
            a = float(w @ q)
            # out of place: a matvec may return its input or shared state
            w = w - a * q
            if k:
                w -= b * basis[k - 1]
            k += 1
            vk = basis[:k]
            w -= vk.T @ (vk @ w)
            work += 4.0 * vk.size + 6.0 * dim
            theta, sk = ritz.add(a, b)
            b = sqrt(float(w @ w))
            res = b * sk
            # step past a start that is not an exact eigenvector; an exact
            # invariant subspace that misses the tolerance is a candidate,
            # and the iteration restarts from a random direction
            done = res <= tol * max(1.0, abs(theta)) and (k > 1 or b <= 1e-13)
            if done or b <= 1e-13:
                break
            if k == len(basis):
                rows = min(2 * k, max_iter + 1)
                basis = np.resize(basis, (rows, dim))  # keeps the k rows in front
            np.divide(w, b, out=basis[k])
        else:
            done = True  # the budget ran out; the last step's Ritz pair stands
        if k and (answer is None or (not answer[0] < theta if done else theta < answer[0])):
            answer = (theta, basis[:k].T @ ritz.vector(), res)
        if done:
            break
    theta, vec, res = answer
    charge(ledger, "matvec", work)
    conv = res <= tol * max(1.0, abs(theta))
    return LanczosResult(float(theta), vec / sqrt(float(vec @ vec)), total, conv, float(res),
                         first)


def _checked_eigh(a, ledger):
    """``np.linalg.eigh`` of a real, square, finite ``a``, symmetric to
    :data:`SYM_RTOL` relative to its largest entry; charged as ``"svd"``."""
    a = real_array("matrix", a)
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
