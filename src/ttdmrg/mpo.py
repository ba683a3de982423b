"""Matrix product operators, environments, and projected local operators.

Operator cores have shape ``(orank[j], dims[j], dims[j], orank[j+1])`` with
axis 1 the output (row) index and axis 2 the input (column) index: the
two-leg kind of the core chain of :mod:`ttdmrg.tt`, whose base class checks
the format; this module adds only the square-local-space check.  An
environment at cut ``j`` is an order-3 array ``(row bond, operator bond,
column bond)``; the trivial boundary environment is ``ones((1, 1, 1))``.

Environments of ``<bra | A | ket>`` contractions are built site by site.
``update_left_env`` / ``update_right_env`` extend an environment, or a
stack of them along leading axes, by one site; they are the package's one
environment step per direction, copy-free (ket first going left, bra
first going right) and charged one count for both directions,
:func:`env_step_flops`.  The ``all_*`` helpers sweep a whole train.

Projected operators on k adjacent sites are applied matrix-free through
one copy-free kernel, ``apply_local``, which charges nothing;
``local_matvec`` wraps it as the flat matvec of a local eigensolve and
charges :func:`local_matvec_flops` once per call.
"""

from __future__ import annotations

import math

import numpy as np

from .ledger import charge, tensordot_flops
from .tt import _check_dense_size, _CoreChain, inner, tt_add, tt_scale


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


def env_step_flops(bra_core, op_core, ket_core):
    """What one environment step costs in either direction, ``2n(w a a' b'
    + n w w' a b' + w' a b b')`` for bra ``(a, n, b)``, operator ``(w, n,
    n, w')`` and ket ``(a', n, b')``."""
    a, n, b = bra_core.shape
    a2, _, b2 = ket_core.shape
    w, _, _, w2 = op_core.shape
    return 2.0 * n * (w * a * a2 * b2 + n * w * w2 * a * b2 + w2 * a * b * b2)


def update_left_env(env, bra_core, op_core, ket_core, ledger=None, op_class="env_update"):
    """Extend left environments ``(..., a, w, a')`` by one site.

    Copy-free, ket first: one GEMM against the ket over the stack of
    leading axes, one batched ``np.matmul`` of the permuted operator core,
    and one broadcast ``np.matmul`` against the bra's transposed view;
    charged :func:`env_step_flops` once per stacked environment."""
    a, n, b = bra_core.shape
    a2, _, b2 = ket_core.shape
    w, _, _, w2 = op_core.shape
    lead = env.shape[:-3]
    k = math.prod(lead)
    charge(ledger, op_class, k * env_step_flops(bra_core, op_core, ket_core))
    x = env.reshape(k * a * w, a2) @ ket_core.reshape(a2, n * b2)  # (K, a, w, n', b')
    wp = op_core.transpose(1, 3, 0, 2).reshape(n * w2, w * n)
    x = np.matmul(wp, x.reshape(k * a, w * n, b2))  # (K, a, n, w', b')
    x = np.matmul(bra_core.reshape(a * n, b).T, x.reshape(k, a * n, w2 * b2))  # (K, b, w' b')
    return x.reshape(lead + (b, w2, b2))


def update_right_env(env, bra_core, op_core, ket_core, ledger=None, op_class="env_update"):
    """The mirror of :func:`update_left_env`, extending right environments
    ``(..., b, w', b')`` leftward, bra first: one broadcast ``np.matmul``
    over the stack, the permuted operator core, then one GEMM against the
    ket's transposed view."""
    a, n, b = bra_core.shape
    a2, _, b2 = ket_core.shape
    w, _, _, w2 = op_core.shape
    lead = env.shape[:-3]
    k = math.prod(lead)
    charge(ledger, op_class, k * env_step_flops(bra_core, op_core, ket_core))
    x = np.matmul(bra_core.reshape(a * n, b), env.reshape(k, b, w2 * b2))  # (K, a, n, w', b')
    wp = op_core.transpose(0, 2, 1, 3).reshape(w * n, n * w2)
    x = np.matmul(wp, x.reshape(k * a, n * w2, b2))  # (K, a, w, n', b')
    x = x.reshape(k * a * w, n * b2) @ ket_core.reshape(a2, n * b2).T  # (K, a, w, a')
    return x.reshape(lead + (a, w, a2))


def left_env(bra, op, ket, j, ledger=None, op_class="env_build"):
    """Environment of sites ``0..j-1`` built from scratch."""
    e = boundary_env()
    for s in range(j):
        e = update_left_env(e, bra.cores[s], op.cores[s], ket.cores[s], ledger, op_class)
    return e


def right_env(bra, op, ket, j, ledger=None):
    """Environment of sites ``j..d-1`` built from scratch."""
    e = boundary_env()
    for s in range(bra.d - 1, j - 1, -1):
        e = update_right_env(e, bra.cores[s], op.cores[s], ket.cores[s], ledger, "env_build")
    return e


def all_left_envs(bra, op, ket, ledger=None):
    """List of d+1 left environments; entry ``j`` covers sites ``< j``."""
    envs = [boundary_env()]
    for s in range(bra.d):
        envs.append(
            update_left_env(envs[-1], bra.cores[s], op.cores[s], ket.cores[s], ledger, "env_build")
        )
    return envs


def all_right_envs(bra, op, ket, ledger=None):
    """List of d+1 right environments; entry ``j`` covers sites ``>= j``."""
    envs = [boundary_env()] * (bra.d + 1)
    for s in range(bra.d - 1, -1, -1):
        envs[s] = update_right_env(
            envs[s + 1], bra.cores[s], op.cores[s], ket.cores[s], ledger, "env_build"
        )
    return envs


def mpo_inner(bra, op, ket, ledger=None, op_class="inner"):
    """Scalar ``<bra | A | ket>`` via one left-to-right pass."""
    e = left_env(bra, op, ket, bra.d, ledger=ledger, op_class=op_class)
    return float(e[0, 0, 0])


def rayleigh_quotient(x, op, ledger=None):
    num = mpo_inner(x, op, x, ledger)
    den = inner(x, x, ledger)
    if den <= 0.0:
        raise ValueError("Rayleigh quotient of a zero train")
    return num / den


def local_matvec_flops(env_left, op_cores, env_right, shape):
    """What one :func:`apply_local` on a block of ``shape`` costs: the sum of
    its steps' pairwise contraction counts, the left GEMM, one per operator
    core and the right GEMM."""
    a, w, a2 = env_left.shape
    _, w2, b2 = env_right.shape
    flops = tensordot_flops(env_left.shape, shape, a2)
    x = (a * w,) + tuple(shape[1:])  # the intermediate's dims, as in apply_local
    for core in op_cores:
        wl, s1, s, wr = core.shape
        flops += tensordot_flops(x, core.shape, wl * s)
        x = (math.prod(x) // (wl * s), s1 * wr)
    return flops + tensordot_flops(x, env_right.shape, w2 * b2)


def apply_local(env_left, op_cores, env_right, v):
    """Apply the projected operator on ``k = len(op_cores)`` adjacent sites
    to a block of shape ``(rank, n_1, ..., n_k, rank')``; charges nothing
    (:func:`local_matvec` charges :func:`local_matvec_flops` per call).

    Each operator core contracts the bond and input index it meets next,
    so after core ``j`` the intermediate reads ``(a, s_1 .. s_j, w, n_{j+1}
    .. n_k, b')``.
    """
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


def apply_local_1site(env_left, op_core, env_right, v):
    """:func:`apply_local` at one site."""
    return apply_local(env_left, (op_core,), env_right, v)


def apply_local_2site(env_left, op_core1, op_core2, env_right, v):
    """:func:`apply_local` on a pair of adjacent sites."""
    return apply_local(env_left, (op_core1, op_core2), env_right, v)


def local_matvec(env_left, op_cores, env_right, ledger=None):
    """Flat matvec closure over the projected operator on ``len(op_cores)``
    (one or two) adjacent sites, plus its dimension and the block shape.

    The shapes are fixed, so :func:`local_matvec_flops` is counted once
    here and every call charges it as ``"matvec"``."""
    shape = (env_left.shape[2],) + tuple(c.shape[2] for c in op_cores) + (env_right.shape[2],)
    # called through the per-width names, which bench/tracer.py spans
    apply = {1: apply_local_1site, 2: apply_local_2site}[len(op_cores)]
    flops = local_matvec_flops(env_left, op_cores, env_right, shape)

    def matvec(x):
        out = apply(env_left, *op_cores, env_right, x.reshape(shape)).ravel()
        charge(ledger, "matvec", flops)
        return out

    return matvec, math.prod(shape), shape


def local_matvec_1site(env_left, op_core, env_right, ledger=None):
    return local_matvec(env_left, (op_core,), env_right, ledger)


def local_matvec_2site(env_left, op_core1, op_core2, env_right, ledger=None):
    return local_matvec(env_left, (op_core1, op_core2), env_right, ledger)
