"""Matrix product operators, environments, and projected local operators.

Operator cores have shape ``(orank[j], dims[j], dims[j], orank[j+1])`` with
axis 1 the output (row) index and axis 2 the input (column) index: the
two-leg kind of the core chain of :mod:`ttdmrg.tt`, whose base class checks
the format; this module adds only the square-local-space check.  An
environment at cut ``j`` is an order-3 array ``(row bond, operator bond,
column bond)``; the trivial boundary environment is ``ones((1, 1, 1))``.

Environments of ``<bra | A | ket>`` contractions are built site by site.
``update_left_env`` / ``update_right_env`` extend an environment by one
site; the ``all_*`` helpers sweep a whole train.  Projected operators on
k adjacent sites are applied matrix-free through one kernel,
``apply_local``, which reads every operand in place: the left environment
and the block meet in one GEMM, each operator core (permuted, a tiny copy)
is applied by one batched ``np.matmul`` over the leading bonds, and the
right environment enters as a transposed view in a last GEMM whose output
is already in block order.  Each step is charged as the pairwise
contraction of its input (:func:`local_step_flops`); ``local_matvec``
computes those charges once per local problem, since its shapes are fixed.
"""

from __future__ import annotations

import math

import numpy as np

from .ledger import contract, tensordot_flops
from .tt import _check_dense_size, _CoreChain, tt_add, tt_scale


class MatrixProductOperator(_CoreChain):
    """Linear operator on a product of local spaces, in train form: a chain
    of cores with a row and a column leg each, on square local spaces."""

    legs = 2

    def __init__(self, cores):
        super().__init__(cores)
        for j, c in enumerate(self.cores):
            if c.shape[1] != c.shape[2]:
                raise ValueError(f"operator core {j} must act on a square local space")

    def to_dense(self, cap=None):
        """Dense matrix of shape (prod(dims), prod(dims))."""
        _check_dense_size(math.prod(self.dims) ** 2, cap)
        t = np.ones((1, 1, 1))
        for c in self.cores:
            t = np.einsum("abk,kxyl->axbyl", t, c)
            t = t.reshape(t.shape[0] * t.shape[1], t.shape[2] * t.shape[3], t.shape[4])
        return np.ascontiguousarray(t[:, :, 0])


def mpo_transpose(op):
    return MatrixProductOperator([c.swapaxes(1, 2) for c in op.cores])


# the one scaling and the one direct sum serve operators as well as trains
mpo_scale = tt_scale
mpo_add = tt_add


def identity_mpo(dims):
    return MatrixProductOperator([np.eye(n)[None, :, :, None] for n in dims])


def boundary_env():
    return np.ones((1, 1, 1))


def update_left_env(env, bra_core, op_core, ket_core, ledger=None, op_class="env_update"):
    """Extend a left environment by one site."""
    t = contract(ledger, op_class, env, bra_core, ((0,), (0,)))
    u = contract(ledger, op_class, t, op_core, ((0, 2), (0, 1)))
    return contract(ledger, op_class, u, ket_core, ((0, 2), (0, 1)))


def update_right_env(env, bra_core, op_core, ket_core, ledger=None, op_class="env_update"):
    """Extend a right environment by one site."""
    t = contract(ledger, op_class, bra_core, env, ((2,), (0,)))
    u = contract(ledger, op_class, t, op_core, ((1, 2), (1, 3)))
    return contract(ledger, op_class, u, ket_core, ((3, 1), (1, 2)))


def left_env(bra, op, ket, j, ledger=None, op_class="env_build"):
    """Environment of sites ``0..j-1`` built from scratch."""
    e = boundary_env()
    for s in range(j):
        e = update_left_env(e, bra.cores[s], op.cores[s], ket.cores[s], ledger, op_class)
    return e


def right_env(bra, op, ket, j, ledger=None, op_class="env_build"):
    """Environment of sites ``j..d-1`` built from scratch."""
    e = boundary_env()
    for s in range(bra.d - 1, j - 1, -1):
        e = update_right_env(e, bra.cores[s], op.cores[s], ket.cores[s], ledger, op_class)
    return e


def all_left_envs(bra, op, ket, ledger=None, op_class="env_build"):
    """List of d+1 left environments; entry ``j`` covers sites ``< j``."""
    envs = [boundary_env()]
    for s in range(bra.d):
        envs.append(
            update_left_env(envs[-1], bra.cores[s], op.cores[s], ket.cores[s], ledger, op_class)
        )
    return envs


def all_right_envs(bra, op, ket, ledger=None, op_class="env_build"):
    """List of d+1 right environments; entry ``j`` covers sites ``>= j``."""
    envs = [boundary_env()] * (bra.d + 1)
    for s in range(bra.d - 1, -1, -1):
        envs[s] = update_right_env(
            envs[s + 1], bra.cores[s], op.cores[s], ket.cores[s], ledger, op_class
        )
    return envs


def mpo_inner(bra, op, ket, ledger=None, op_class="inner"):
    """Scalar ``<bra | A | ket>`` via one left-to-right pass."""
    e = left_env(bra, op, ket, bra.d, ledger=ledger, op_class=op_class)
    return float(e[0, 0, 0])


def rayleigh_quotient(x, op, ledger=None, op_class="inner"):
    from .tt import inner as tt_inner

    num = mpo_inner(x, op, x, ledger=ledger, op_class=op_class)
    den = tt_inner(x, x, ledger=ledger, op_class=op_class)
    if den <= 0.0:
        raise ValueError("Rayleigh quotient of a zero train")
    return num / den


def local_step_flops(env_left, op_cores, env_right, shape):
    """The flops :func:`apply_local` charges, step by step, on a block of
    ``shape``: the left GEMM, one entry per operator core, the right GEMM."""
    a, w, a2 = env_left.shape
    _, w2, b2 = env_right.shape
    flops = [tensordot_flops(env_left.shape, shape, a2)]
    x = (a * w,) + tuple(shape[1:])  # the intermediate's dims, as in apply_local
    for core in op_cores:
        wl, s1, s, wr = core.shape
        flops.append(tensordot_flops(x, core.shape, wl * s))
        x = (math.prod(x) // (wl * s), s1 * wr)
    flops.append(tensordot_flops(x, env_right.shape, w2 * b2))
    return flops


def apply_local(env_left, op_cores, env_right, v, ledger=None, op_class="matvec"):
    """Apply the projected operator on ``k = len(op_cores)`` adjacent sites
    to a block of shape ``(rank, n_1, ..., n_k, rank')``.

    Each operator core contracts the bond and input index it meets next,
    so after core ``j`` the intermediate reads ``(a, s_1 .. s_j, w, n_{j+1}
    .. n_k, b')``; every step is charged as the pairwise contraction of
    its input (:func:`local_step_flops`).
    """
    if ledger is not None:
        for flops in local_step_flops(env_left, op_cores, env_right, v.shape):
            ledger.charge(op_class, flops)
    a, w, a2 = env_left.shape
    b, w2, b2 = env_right.shape
    x = env_left.reshape(a * w, a2) @ v.reshape(a2, -1)  # (a, w, n_1, ..., b')
    lead = a
    for core in op_cores:
        wl, s1, s, wr = core.shape
        wp = core.transpose(1, 3, 0, 2).reshape(s1 * wr, wl * s)
        x = np.matmul(wp, x.reshape(lead, wl * s, -1))  # (lead, s1, wr, ..., b')
        lead *= s1
    out = x.reshape(lead, w2 * b2) @ env_right.reshape(b, w2 * b2).T
    # operator cores act on square local spaces: the block keeps v's dims
    return out.reshape((a,) + v.shape[1:-1] + (b,))


def apply_local_1site(env_left, op_core, env_right, v, ledger=None, op_class="matvec"):
    """:func:`apply_local` at one site."""
    return apply_local(env_left, (op_core,), env_right, v, ledger, op_class)


def apply_local_2site(env_left, op_core1, op_core2, env_right, v, ledger=None, op_class="matvec"):
    """:func:`apply_local` on a pair of adjacent sites."""
    return apply_local(env_left, (op_core1, op_core2), env_right, v, ledger, op_class)


def local_matvec(env_left, op_cores, env_right, ledger=None, op_class="matvec"):
    """Flat matvec closure over the projected operator on ``len(op_cores)``
    (one or two) adjacent sites, plus its dimension and the block shape.

    The shapes are fixed, so the per-step charges are computed once here
    and every call charges them in :func:`apply_local`'s order."""
    shape = (env_left.shape[2],) + tuple(c.shape[2] for c in op_cores) + (env_right.shape[2],)
    # called through the per-width names, which bench/tracer.py spans
    apply = {1: apply_local_1site, 2: apply_local_2site}[len(op_cores)]
    steps = local_step_flops(env_left, op_cores, env_right, shape) if ledger is not None else ()

    def matvec(x):
        out = apply(env_left, *op_cores, env_right, x.reshape(shape)).ravel()
        for flops in steps:
            ledger.charge(op_class, flops)
        return out

    return matvec, math.prod(shape), shape


def local_matvec_1site(env_left, op_core, env_right, ledger=None, op_class="matvec"):
    return local_matvec(env_left, (op_core,), env_right, ledger, op_class)


def local_matvec_2site(env_left, op_core1, op_core2, env_right, ledger=None, op_class="matvec"):
    return local_matvec(env_left, (op_core1, op_core2), env_right, ledger, op_class)
