"""Brute-force reference implementations the tests check the library against.

Everything here is written with plain loops and Kronecker products, not with
the library's contraction routines, so agreement is meaningful.  The one
exception is :func:`pairwise_coarse`, which builds the coarse matrices from the
library's full inner products, one pair of members at a time, sharing no
transfers between entries as the row sweeps of
``ttdmrg.twolevel.assemble_coarse`` do; and :func:`list_lanczos_lowest`, the
Lanczos iteration as it was written before the basis moved into one
preallocated array, which the library's version must match bitwise.
"""

import numpy as np
import scipy.linalg

from ttdmrg.eigen import LanczosResult
from ttdmrg.ledger import charge
from ttdmrg.mpo import mpo_inner
from ttdmrg.tt import inner


def pairwise_coarse(members, op):
    """Overlap and reduced operator matrices from one full ``inner`` and one
    full ``mpo_inner`` per member pair; O(d) work per entry."""
    m = len(members)
    s_hat = np.zeros((m, m))
    a_hat = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            s_hat[i, j] = s_hat[j, i] = inner(members[i], members[j])
            a_hat[i, j] = a_hat[j, i] = mpo_inner(members[i], op, members[j])
    return s_hat, a_hat


def _list_tridiag_lowest(alphas, betas):
    if len(alphas) == 1:
        return alphas[0], np.ones(1)
    w, v = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
    return w[0], v[:, 0]


def list_lanczos_lowest(matvec, dim, v0=None, tol=1e-6, max_iter=None, seed=0, ledger=None):
    """Lanczos with the Krylov basis kept as a list of vectors, stacked anew
    every step, and the tridiagonal problem solved by
    ``scipy.linalg.eigh_tridiagonal``; same contract as
    ``ttdmrg.eigen.lanczos_lowest``."""
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
    best = None

    def pick(theta, vec):
        if best is not None and best[0] < theta:
            return best
        return theta, vec

    for attempt in range(4):
        v = start if (attempt == 0 and start is not None) else rng.standard_normal(dim)
        v = v / np.linalg.norm(v)
        basis = [v]
        alphas, betas = [], []
        broke = False
        while total < max_iter:
            w = matvec(basis[-1])
            total += 1
            a = float(w @ basis[-1])
            alphas.append(a)
            w = w - a * basis[-1]
            if betas:
                w = w - betas[-1] * basis[-2]
            vmat = np.asarray(basis).T
            w = w - vmat @ (vmat.T @ w)
            charge(ledger, "matvec", 4.0 * vmat.size + 6.0 * dim)
            b = float(np.linalg.norm(w))
            theta, s = _list_tridiag_lowest(alphas, betas)
            if b * abs(s[-1]) <= tol * max(1.0, abs(theta)):
                theta, vec = pick(theta, vmat @ s)
                return finish(theta, vec, total)
            if b <= 1e-13:
                if best is None or theta < best[0]:
                    best = (theta, vmat @ s)
                broke = True
                break
            betas.append(b)
            basis.append(w / b)
        if not broke:
            if alphas:
                theta, s = _list_tridiag_lowest(alphas, betas[: len(alphas) - 1])
                theta, vec = pick(theta, np.asarray(basis).T[:, : len(alphas)] @ s)
            else:
                theta, vec = best
            return finish(theta, vec, total)
    theta, vec = best
    return finish(theta, vec, total)


def tt_entry(cores, idx):
    m = cores[0][:, idx[0], :]
    for j in range(1, len(cores)):
        m = m @ cores[j][:, idx[j], :]
    return m[0, 0]


def tt_dense(cores):
    dims = tuple(c.shape[1] for c in cores)
    out = np.empty(dims)
    for idx in np.ndindex(*dims):
        out[idx] = tt_entry(cores, idx)
    return out


def mpo_entry(cores, row, col):
    m = cores[0][:, row[0], col[0], :]
    for j in range(1, len(cores)):
        m = m @ cores[j][:, row[j], col[j], :]
    return m[0, 0]


def mpo_dense(cores):
    dims = tuple(c.shape[1] for c in cores)
    size = int(np.prod(dims))
    out = np.empty((size, size))
    for i, row in enumerate(np.ndindex(*dims)):
        for j, col in enumerate(np.ndindex(*dims)):
            out[i, j] = mpo_entry(cores, row, col)
    return out


def chain_entry(blocks, idx):
    """Value of an overlapping two-site chain at one multi-index.

    Block ``l`` has shape (bond, n_l, n_{l+1}, bond); evaluated at the
    index pair ``(idx[l], idx[l+1])`` it is a matrix, and the chain value
    is the product of the d-1 block matrices.
    """
    m = blocks[0][:, idx[0], idx[1], :]
    for l in range(1, len(blocks)):
        m = m @ blocks[l][:, idx[l], idx[l + 1], :]
    return m[0, 0]


def chain_dense(blocks, dims):
    out = np.empty(dims)
    for idx in np.ndindex(*dims):
        out[idx] = chain_entry(blocks, idx)
    return out


def site_projector(cores, i):
    """Dense matrix of the one-site insertion map at site ``i``.

    Columns are indexed by the core slot ``(rank[i], dims[i], rank[i+1])``
    in row-major order; ``P @ vec(core)`` is the dense tensor of the train
    with that core dropped in.
    """
    n = cores[i].shape[1]
    left = np.ones((1, 1))
    for c in cores[:i]:
        left = np.einsum("xa,anb->xnb", left, c).reshape(-1, c.shape[2])
    right = np.ones((1, 1))
    for c in reversed(cores[i + 1 :]):
        right = np.einsum("anb,bx->anx", c, right).reshape(c.shape[0], -1)
    return np.kron(np.kron(left, np.eye(n)), right.T)


def block_projector(cores, i):
    """Dense matrix of the two-site insertion map at sites ``(i, i+1)``."""
    n1 = cores[i].shape[1]
    n2 = cores[i + 1].shape[1]
    left = np.ones((1, 1))
    for c in cores[:i]:
        left = np.einsum("xa,anb->xnb", left, c).reshape(-1, c.shape[2])
    right = np.ones((1, 1))
    for c in reversed(cores[i + 2 :]):
        right = np.einsum("anb,bx->anx", c, right).reshape(c.shape[0], -1)
    return np.kron(np.kron(left, np.eye(n1 * n2)), right.T)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
PAULI_Y_REAL = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i * sigma_y


def _embed(op, site, d):
    m = np.ones((1, 1))
    for j in range(d):
        m = np.kron(m, op if j == site else np.eye(2))
    return m


def ising_dense(d, coupling, field):
    """Transverse-field Ising chain, open boundary, built site by site."""
    h = np.zeros((2**d, 2**d))
    for j in range(d - 1):
        h -= coupling * _embed(PAULI_Z, j, d) @ _embed(PAULI_Z, j + 1, d)
    for j in range(d):
        h -= field * _embed(PAULI_X, j, d)
    return h


def ising_free_fermion_energy(d, coupling, field):
    """Ground energy of the open transverse-field Ising chain in closed form.

    The Jordan-Wigner map gives ``-sum_k sigma_k(M)`` for the d x d matrix
    ``M`` with ``field`` on the diagonal and ``coupling`` on the
    superdiagonal; no dense Hamiltonian is built, so any d works.
    """
    m = np.diag(np.full(d, float(field))) + np.diag(np.full(d - 1, float(coupling)), 1)
    return -float(np.linalg.svd(m, compute_uv=False).sum())


def heisenberg_dense(d, coupling):
    """Exchange chain J/4 * sum (XX + YY + ZZ), open boundary."""
    h = np.zeros((2**d, 2**d))
    for j in range(d - 1):
        h += coupling / 4.0 * _embed(PAULI_X, j, d) @ _embed(PAULI_X, j + 1, d)
        h -= coupling / 4.0 * _embed(PAULI_Y_REAL, j, d) @ _embed(PAULI_Y_REAL, j + 1, d)
        h += coupling / 4.0 * _embed(PAULI_Z, j, d) @ _embed(PAULI_Z, j + 1, d)
    return h


def unfolding_tail_masses(x, ranks):
    """Frobenius mass dropped when truncating each unfolding of ``x`` to the
    given interior ranks: returns sqrt(sum of discarded sigma^2) per cut."""
    x = np.asarray(x, dtype=float)
    out = []
    left = 1
    for j, n in enumerate(x.shape[:-1]):
        left *= n
        s = np.linalg.svd(x.reshape(left, -1), compute_uv=False)
        out.append(float(np.sqrt(np.sum(s[ranks[j] :] ** 2))))
    return out
