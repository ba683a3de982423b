"""Benchmark operators in train form and the dense ground-state oracle."""

from __future__ import annotations

import math

import numpy as np

from .eigen import dense_lowest_eig
from .mpo import MatrixProductOperator, mpo_add, mpo_scale, mpo_transpose
from .tt import check_integer

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
# i * sigma_y; real, with sigma_y (x) sigma_y == -(_Y (x) _Y)
_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])
_I = np.eye(2)


def _check_chain(d, **params):
    check_integer("d", d, least=0)
    if d < 2:
        raise ValueError("need at least two sites")
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def ising_chain(d, coupling=1.0, field=1.0):
    """Transverse-field Ising chain with open boundaries,

        H = -coupling * sum Z_j Z_{j+1} - field * sum X_j,

    as an operator train of bond dimension 3.
    """
    _check_chain(d, coupling=coupling, field=field)
    bulk = np.zeros((3, 2, 2, 3))
    bulk[0, :, :, 0] = _I
    bulk[1, :, :, 0] = _Z
    bulk[2, :, :, 0] = -field * _X
    bulk[2, :, :, 1] = -coupling * _Z
    bulk[2, :, :, 2] = _I
    # the boundary cores are the bulk core's last row and first column
    first, last = bulk[-1:].copy(), bulk[..., :1].copy()
    return MatrixProductOperator([first] + [bulk] * (d - 2) + [last])


def heisenberg_chain(d, coupling=1.0):
    """Spin-1/2 exchange chain with open boundaries,

        H = coupling/4 * sum (X_j X_{j+1} + Y_j Y_{j+1} + Z_j Z_{j+1}),

    in an all-real representation of bond dimension 5 (the YY term uses
    i*sigma_y with a compensating sign).
    """
    _check_chain(d, coupling=coupling)
    c = coupling / 4.0
    bulk = np.zeros((5, 2, 2, 5))
    bulk[0, :, :, 0] = _I
    bulk[1, :, :, 0] = _X
    bulk[2, :, :, 0] = _Y
    bulk[3, :, :, 0] = _Z
    bulk[4, :, :, 1] = c * _X
    bulk[4, :, :, 2] = -c * _Y
    bulk[4, :, :, 3] = c * _Z
    bulk[4, :, :, 4] = _I
    first, last = bulk[-1:].copy(), bulk[..., :1].copy()
    return MatrixProductOperator([first] + [bulk] * (d - 2) + [last])


def random_symmetric_mpo(d, n=2, rank=2, seed=0):
    """Symmetric operator built as (B + B^T)/2 from a seeded random train B
    of bond dimension ``rank``; the result has bond dimension 2*rank."""
    _check_chain(d)
    if n < 1:
        raise ValueError("local dimension must be positive")
    if rank < 1:
        raise ValueError("rank must be positive")
    rng = np.random.default_rng(seed)
    ranks = [1] + [rank] * (d - 1) + [1]
    cores = [rng.standard_normal((ranks[j], n, n, ranks[j + 1])) for j in range(d)]
    b = MatrixProductOperator(cores)
    return mpo_scale(mpo_add(b, mpo_transpose(b)), 0.5)


def dense_ground_state(op, cap=None):
    """Exact lowest eigenpair by dense diagonalization.

    Returns ``(energy, tensor)`` with the ground state reshaped to the
    operator's local dimensions.  Only available while the dense matrix
    fits under the densification cap.
    """
    a = op.to_dense(cap=cap)
    energy, vec = dense_lowest_eig(a)
    return energy, vec.reshape(op.dims)
