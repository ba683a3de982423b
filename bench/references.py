"""Ground-state references that do not come from the solvers under test.

Each reference is a ``(energy, provenance)`` pair.  The benchmark gates every
solve on them; ``bench/tests`` recompute the ones that are cheap to recompute.
"""

from __future__ import annotations

import numpy as np

# scipy.sparse.linalg.eigsh (which="SA", tol=0) on the Kronecker-built
# Hamiltonian of heisenberg_sparse(16); about 0.8 s on one core.
HEISENBERG_D16 = -6.91173714557511

# ttdmrg.run_dmrg two-site on heisenberg_chain(48), rank cap 128,
# eig_tol=1e-11, svd_tol=0, from the normalized rank-2 random start of seed 0.
# Rerunning with energy_tol=1e-10 reproduces it to 4e-13 relative in about
# 20 s on one core; rank cap 64 lands about 1e-9 (relative) above it.
HEISENBERG_D48 = -21.085956314379445


def free_fermion_ising_energy(d, coupling=1.0, field=1.0):
    """Ground energy of the open transverse-field Ising chain
    ``-coupling * sum Z Z - field * sum X`` in closed form.

    By the Jordan-Wigner map the energy is ``-sum_k sigma_k(M)`` where the
    d x d matrix ``M`` has ``field`` on the diagonal and ``coupling`` on the
    superdiagonal.
    """
    m = np.diag(np.full(d, float(field))) + np.diag(np.full(d - 1, float(coupling)), 1)
    return -float(np.linalg.svd(m, compute_uv=False).sum())


def heisenberg_sparse(d, coupling=1.0):
    """Sparse matrix of ``coupling/4 * sum (XX + YY + ZZ)`` on an open chain,
    built from Kronecker products of Pauli matrices (``XX + YY`` is written
    as ``2 (S+ S- + S- S+)`` to stay real)."""
    import scipy.sparse as sp

    up = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    down = up.T.tocsr()
    z = sp.csr_matrix(np.diag([1.0, -1.0]))
    bonds = [(2.0, up, down), (2.0, down, up), (1.0, z, z)]
    h = sp.csr_matrix((2**d, 2**d))
    for j in range(d - 1):
        left = sp.identity(2**j, format="csr")
        right = sp.identity(2 ** (d - j - 2), format="csr")
        for c, a, b in bonds:
            h = h + c * sp.kron(sp.kron(left, sp.kron(a, b)), right, format="csr")
    return (coupling / 4.0) * h


def heisenberg_sparse_energy(d, coupling=1.0):
    """Lowest eigenvalue of :func:`heisenberg_sparse` by ``eigsh``."""
    from scipy.sparse.linalg import eigsh

    vals = eigsh(heisenberg_sparse(d, coupling), k=1, which="SA", tol=0.0,
                 return_eigenvectors=False)
    return float(vals[0])


def ising_reference(d):
    return free_fermion_ising_energy(d), f"free-fermion closed form, d={d}, J=h=1"


def heisenberg_reference(d):
    if d == 16:
        return HEISENBERG_D16, "eigsh on the Kronecker-built Hamiltonian, d=16 (stored)"
    if d == 48:
        return HEISENBERG_D48, "run_dmrg at rank cap 128, eig_tol=1e-11, d=48 (stored)"
    raise ValueError(f"no stored Heisenberg reference for d={d}")
