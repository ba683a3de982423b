"""Brute-force reference implementations the tests check the library against.

Everything here is written with plain loops and Kronecker products, not with
the library's contraction routines, so agreement is meaningful.  The
exceptions are :func:`pairwise_coarse`, which builds the coarse matrices from the
library's full inner products, one pair of members at a time, sharing no
transfers between entries as the row sweeps of
``ttdmrg.twolevel.assemble_coarse`` do; :func:`row_sweep_coarse`, the
coarse assembly's schedule with one row and one column at a time and no
stacks, over the same ``(family, updates)`` and the windows of
:func:`span_windows`, whose ledger the stacked assembly must reproduce
exactly, taking each step off a shared environment in full but charging it
as the closing of a stored open half (:func:`full_step`,
:func:`closing_flops`); :func:`tensordot_apply_local_1site`
and :func:`tensordot_apply_local_2site`, the projected local operators as
pairwise ``contract`` calls, each charged at its input shapes, whose ledger
charges the library's in-place kernel must reproduce exactly;
``tensordot_update_{left,right}_{overlap,env}``, the one-site transfer
steps as pairwise ``contract`` calls, bra first both ways, which the
library's copy-free steps must match in value; :func:`list_lanczos_lowest`, the
Lanczos iteration as it was written before the basis moved into one
preallocated array, which the library's version must match bitwise when
both solve the tridiagonal with the package's step, and to roundoff when
this one solves it with scipy's ``eigh_tridiagonal``;
:func:`materialize_one_site_sum` and :func:`two_site_sum`, the one- and
two-site sum builders as they were written before the library built its
sums right-orthogonal, the raw rail trains that
``ttdmrg.sums.orthogonal_sum_train`` must equal to roundoff (both
checked against dense or ``tt_add`` sums of the members);
:func:`rail_sum`, whichever of the two fits the updates;
:func:`round_sum_oracle`, step 4 as it was computed before it
orthogonalized the sum against its done rail: the library's ``round_tt``
of :func:`rail_sum`; and :func:`add_and_round`,
step 4 by the library's pairwise ``tt_add`` of the scaled members and one
``round_tt``, the two-site reference the package kept as
``compress_two_site_fallback``.
"""

import numpy as np
import scipy.linalg

from ttdmrg.eigen import LanczosResult, _LowestRitz, dense_sym_svd
from ttdmrg.ledger import CostLedger, charge, contract
from ttdmrg.mpo import mpo_inner
from ttdmrg.tt import TensorTrain, inner, round_tt, tt_add, tt_scale
from ttdmrg.twolevel import (
    CoarseProblem,
    _close,
    _extend_left,
    _extend_right,
    _merge,
    shared_envs,
    span_members,
)


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


def meeting_cut(family, op, win, rows, closed):
    """The cut at which the assembly's closed pairs meet, by brute force.
    ``win`` are the members' windows, ``rows`` the rows that have a closed
    column and ``closed`` the closed columns.  Each candidate cut's gap
    steps (rows from just past their window to the cut, columns from the
    cut to their window start) are counted from what one ``_extend_left``
    across each site charges, and the cheapest cut wins, ties going to the
    smallest."""
    def site_flops(s):
        led = CostLedger()
        r, w = family.right[s].shape[0], op.cores[s].shape[0]
        env = (np.zeros((r, r)), np.zeros((r, w, r)))
        _extend_left(env, family.right[s], op.cores[s], family.left[s], led)
        return led.total_flops()

    lo = min(win[k][1] + 1 for k in rows)
    hi = max(win[l][0] for l in closed)
    flops = {s: site_flops(s) for s in range(lo, hi)}
    costs = []
    for c in range(lo, hi + 1):
        cost = sum(flops[s] for k in rows for s in range(win[k][1] + 1, c))
        cost += sum(flops[s] for l in closed for s in range(c, win[l][0]))
        costs.append((cost, c))
    return min(costs)[1]


def span_windows(updates):
    """The sites ``[a, b]`` outside which each member of
    ``span_members(family, updates)`` holds the family's shared cores:
    ``[0, 0]`` for the iterate, ``[i, i+k-1]`` for the ``k`` cores of
    ``updates[i]``."""
    return [(0, 0)] + [(i, i + len(u) - 1) for i, u in enumerate(updates)]


def with_identity(env):
    """A shared operator environment ``(rank, w, rank)`` paired with its
    overlap transfer over the same orthonormal cores, ``eye(rank)``."""
    return np.eye(env.shape[0]), env


def closing_flops(side, bra, op_core, ket):
    """What a step off a shared environment costs when it closes the
    stored open half: only the closing GEMMs of the overlap and operator
    steps, ``2n a b b' (w' + 1)`` going left (the bra side) and ``2n a a'
    b' (w + 1)`` going right (the ket side), for bra ``(a, n, b)``,
    operator ``(w, n, n, w')`` and ket ``(a', n, b')``."""
    a, n, b = bra.shape
    a2, _, b2 = ket.shape
    w, w2 = op_core.shape[0], op_core.shape[3]
    if side == "left":
        return 2.0 * n * a * b * b2 * (w2 + 1)
    return 2.0 * n * a * a2 * b2 * (w + 1)


def full_step(side, env, bra, op_core, ket, ledger):
    """A transfer-pair step from the shared environment ``env`` taken in
    full from its identity-paired transfers, charged the closing count of
    :func:`closing_flops` as ``"coarse"``: the library's stored half
    closed with one core must equal it bitwise and charge the same."""
    extend = _extend_left if side == "left" else _extend_right
    charge(ledger, "coarse", closing_flops(side, bra, op_core, ket))
    return extend(with_identity(env), bra, op_core, ket, None)


def row_sweep_coarse(family, updates, op, eps=1e-10, ledger=None, envs=None):
    """``ttdmrg.twolevel.assemble_coarse`` with one row and one column at a
    time and no stacks.  Overlap and reduced operator matrices over the
    span of the iterate and its updated members.

    Each member is read as its window ``[a, b]`` (:func:`span_windows`)
    plus the shared cores of ``family``.  Row ``k`` is one task, tagged
    ``gram{k}``: it starts from the shared left environment at ``a_k``,
    advances one site at a time with member ``k`` as bra and
    ``family.left`` as ket, and fills its diagonal and every column ``l``
    after ``k`` in window-start order (ties by index).  An overlapping
    column is contracted across both windows and closed against the
    shared right environment.  A column whose window starts past ``b_k``
    has its own right environment (``family.right`` as bra, member ``l``
    as ket), built once from the shared right environment at its window
    and extended leftward with ``family.left`` as ket down to the cut
    ``c`` of :func:`meeting_cut`, all of it charged to ``gram{l}``.  A
    row's first step with ket ``family.left`` and a column's first step
    are taken in full but charged as closings (:func:`full_step`).  Such a
    closed pair meets at ``c``, or at the column's start when it lies
    before ``c``, or just past the row's window when that lies after ``c``;
    the row advances to that meeting cut.  ``envs`` are the family's
    :func:`shared_envs`, built here when not given; they hold operator
    environments only, and every shared one enters :func:`with_identity`.
    """
    if envs is None:
        envs = shared_envs(family, op, ledger)
    members = span_members(family, updates)
    win = span_windows(updates)
    m = len(members)
    order = sorted(range(m), key=lambda l: (win[l][0], l))
    cols = {k: order[pos:] for pos, k in enumerate(order)}
    pairs = [(k, l) for k in range(m) for l in cols[k] if win[l][0] > win[k][1]]
    closed = sorted({l for _, l in pairs})
    cut = meeting_cut(family, op, win, {k for k, _ in pairs}, closed) if pairs else None

    column_envs = {}  # column -> {cut t: its right transfers covering sites >= t}
    for l in closed:
        led = CostLedger()
        a, b = win[l]
        env = full_step("right", envs.right[b + 1], family.right[b], op.cores[b],
                        members[l].cores[b], led)
        for s in range(b - 1, a - 1, -1):
            env = _extend_right(env, family.right[s], op.cores[s], members[l].cores[s], led)
        column_envs[l] = {a: env}
        for s in range(a - 1, cut - 1, -1):
            env = _extend_right(env, family.right[s], op.cores[s], family.left[s], led)
            column_envs[l][s] = env
        _merge(ledger, led, f"gram{l}")

    s_hat = np.zeros((m, m))
    a_hat = np.zeros((m, m))
    for k in range(m):
        led = CostLedger()
        bra = members[k].cores
        a, b = win[k]
        env, site = with_identity(envs.left[a]), a
        for l in cols[k]:
            al, bl = win[l]
            meet = min(max(b + 1, cut), al) if al > b else al
            while site < meet:
                if site == a:  # the first step off the shared environment
                    env = full_step("left", envs.left[a], bra[a], op.cores[a], family.left[a],
                                    led)
                else:
                    env = _extend_left(env, bra[site], op.cores[site], family.left[site], led)
                site += 1
            if al > b:
                s_kl, a_kl = _close(env, column_envs[l][meet], led)
            else:
                ket = members[l].cores
                end = max(b, bl)
                e = env
                for j in range(al, end + 1):
                    e = _extend_left(e, bra[j], op.cores[j], ket[j], led)
                s_kl, a_kl = _close(e, with_identity(envs.right[end + 1]), led)
            s_hat[k, l] = s_hat[l, k] = s_kl
            a_hat[k, l] = a_hat[l, k] = a_kl
        _merge(ledger, led, f"gram{k}")

    sigma, basis = dense_sym_svd(s_hat, ledger=ledger)
    smax = sigma[0] if len(sigma) else 0.0
    p = int(np.sum(sigma > eps * smax)) if smax > 0 else 0
    return CoarseProblem(s_hat, a_hat, sigma, basis, p)


def tensordot_apply_local_1site(env_left, op_core, env_right, v, ledger=None, op_class="matvec"):
    """Apply the projected operator at one site to a core-shaped array."""
    t = contract(ledger, op_class, env_left, v, ((2,), (0,)))
    t = contract(ledger, op_class, t, op_core, ((1, 2), (0, 2)))
    return contract(ledger, op_class, t, env_right, ((1, 3), (2, 1)))


def tensordot_apply_local_2site(
    env_left, op_core1, op_core2, env_right, v, ledger=None, op_class="matvec"
):
    """Apply the projected operator on a pair of adjacent sites to a block
    of shape ``(rank, n1, n2, rank')``."""
    t = contract(ledger, op_class, env_left, v, ((2,), (0,)))
    t = contract(ledger, op_class, t, op_core1, ((1, 2), (0, 2)))
    t = contract(ledger, op_class, t, op_core2, ((4, 1), (0, 2)))
    return contract(ledger, op_class, t, env_right, ((1, 4), (2, 1)))


def tensordot_update_left_overlap(e, cx, cy, ledger=None, op_class="inner"):
    """Extend a left overlap transfer ``(rank_x, rank_y)`` by one site."""
    t = contract(ledger, op_class, e, cx, ((0,), (0,)))
    return contract(ledger, op_class, t, cy, ((0, 1), (0, 1)))


def tensordot_update_right_overlap(e, cx, cy, ledger=None, op_class="inner"):
    """Extend a right overlap transfer ``(rank_x, rank_y)`` by one site."""
    t = contract(ledger, op_class, cx, e, ((2,), (0,)))
    return contract(ledger, op_class, t, cy, ((1, 2), (1, 2)))


def tensordot_update_left_env(env, bra_core, op_core, ket_core, ledger=None,
                              op_class="env_update"):
    """Extend a left operator environment by one site, bra first."""
    t = contract(ledger, op_class, env, bra_core, ((0,), (0,)))
    u = contract(ledger, op_class, t, op_core, ((0, 2), (0, 1)))
    return contract(ledger, op_class, u, ket_core, ((0, 2), (0, 1)))


def tensordot_update_right_env(env, bra_core, op_core, ket_core, ledger=None,
                               op_class="env_update"):
    """Extend a right operator environment by one site, bra first."""
    t = contract(ledger, op_class, bra_core, env, ((2,), (0,)))
    u = contract(ledger, op_class, t, op_core, ((1, 2), (1, 3)))
    return contract(ledger, op_class, u, ket_core, ((3, 1), (1, 2)))


def _list_tridiag_lowest(alphas, betas):
    """``(theta, |s_k|, s)`` of the tridiagonal from the package's step, run
    afresh over the whole list; the step depends on nothing but the list."""
    ritz = _LowestRitz()
    theta, sk = ritz.add(alphas[0], 0.0)
    for a, b in zip(alphas[1:], betas):
        theta, sk = ritz.add(a, b)
    return theta, sk, ritz.vector()


def scipy_tridiag_lowest(alphas, betas):
    """``(theta, |s_k|, s)`` from ``scipy.linalg.eigh_tridiagonal``, which the
    package does not call."""
    if len(alphas) == 1:
        return alphas[0], 1.0, np.ones(1)
    w, v = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
    return w[0], abs(v[-1, 0]), v[:, 0]


def list_lanczos_lowest(matvec, dim, v0=None, tol=1e-6, max_iter=None, seed=0, ledger=None,
                        tridiag=_list_tridiag_lowest):
    """Lanczos with the Krylov basis kept as a list of vectors, stacked anew
    every step, and the tridiagonal problem solved from scratch every step by
    ``tridiag`` (the package's step by default, or
    :func:`scipy_tridiag_lowest`); same contract as
    ``ttdmrg.eigen.lanczos_lowest``: at least one step past a start that is
    not an exact eigenvector, and the residual read off the recurrence."""
    if dim < 1:
        raise ValueError("operator dimension must be positive")
    if max_iter is None:
        max_iter = min(dim, 256)
    max_iter = max(int(max_iter), 1)
    rng = np.random.default_rng(seed)

    def finish(theta, vec, res, iters):
        nv = np.linalg.norm(vec)
        vec = vec / nv
        conv = res <= tol * max(1.0, abs(theta))
        return LanczosResult(float(theta), vec, iters, conv, float(res))

    start = None
    if v0 is not None:
        start = np.asarray(v0, dtype=float).ravel()
        if start.shape[0] != dim:
            raise ValueError(f"start vector has length {start.shape[0]}, expected {dim}")
        n0 = np.linalg.norm(start)
        start = start / n0 if n0 > 0 else None

    total = 0
    best = None

    def pick(theta, vec, res):
        if best is not None and best[0] < theta:
            return best
        return theta, vec, res

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
            theta, sk, s = tridiag(alphas, betas)
            # a start that is not an exact eigenvector takes one more step
            if b * sk <= tol * max(1.0, abs(theta)) and (len(alphas) > 1 or b <= 1e-13):
                theta, vec, res = pick(theta, vmat @ s, b * sk)
                return finish(theta, vec, res, total)
            if b <= 1e-13:
                if best is None or theta < best[0]:
                    best = (theta, vmat @ s, b * sk)
                broke = True
                break
            betas.append(b)
            basis.append(w / b)
        if not broke:
            if alphas:
                n = len(alphas)
                theta, sk, s = tridiag(alphas, betas[: n - 1])
                theta, vec, res = pick(theta, np.asarray(basis).T[:, :n] @ s, betas[n - 1] * sk)
            else:
                theta, vec, res = best
            return finish(theta, vec, res, total)
    theta, vec, res = best
    return finish(theta, vec, res, total)


def materialize_one_site_sum(family, replacements, coeffs, prev_coeff):
    """``ttdmrg.sums.OneSiteSumFamily.materialize`` as it was written with
    its own block layout: exact train of ``prev_coeff * x + sum_i
    coeffs[i] * (x with center core i replaced)``."""
    fam = family
    d = fam.d
    first = coeffs[0] * replacements[0] + prev_coeff * fam.centers[0]
    if d == 1:
        return TensorTrain([first], center=0)

    cores = [np.concatenate([first, fam.left[0]], axis=2)]
    for j in range(1, d - 1):
        r0, n, r1 = fam.centers[j].shape
        g = np.zeros((2 * r0, n, 2 * r1))
        g[:r0, :, :r1] = fam.right[j]
        g[r0:, :, :r1] = coeffs[j] * replacements[j]
        g[r0:, :, r1:] = fam.left[j]
        cores.append(g)
    cores.append(
        np.concatenate(
            [fam.right[d - 1], coeffs[d - 1] * replacements[d - 1]], axis=0
        )
    )
    return TensorTrain(cores, center=None)


def two_site_sum(family, pairs, coeffs, prev_coeff=0.0):
    """``ttdmrg.sums.two_site_sum`` as it was written before one builder
    took both widths: exact three-rail train of ``prev_coeff * x + sum_i
    coeffs[i] * member_i`` over the split pairs ``(L_i, R_i)``."""
    d = family.d
    ranks = tuple(c.shape[0] for c in family.centers) + (1,)
    dims = family.dims

    # (done, middle, pending) slices of every cut's bond; the left boundary
    # is a pending rail of size 1, the right one a done rail
    cuts = [(None, None, slice(0, 1))]
    for j in range(1, d):
        r, k = ranks[j], pairs[j - 1][0].shape[2]
        pend = slice(r + k, 2 * r + k) if j < d - 1 else None
        cuts.append((slice(0, r), slice(r, r + k), pend))
    cuts.append((slice(0, 1), None, None))
    sizes = [max(s.stop for s in cut if s is not None) for cut in cuts]

    cores = []
    for j in range(d):
        (done0, mid0, pend0), (done1, mid1, pend1) = cuts[j], cuts[j + 1]
        g = np.zeros((sizes[j], dims[j], sizes[j + 1]))
        if j == 0:
            g[pend0, :, done1] = prev_coeff * family.centers[0]
        else:
            g[done0, :, done1] = family.right[j]
            g[mid0, :, done1] = coeffs[j - 1] * pairs[j - 1][1]
        if j < d - 1:
            g[pend0, :, mid1] = pairs[j][0]
        if pend1 is not None:
            g[pend0, :, pend1] = family.left[j]
        cores.append(g)
    return TensorTrain(cores, center=None)


def rail_sum(family, updates, coeffs, prev_coeff=0.0):
    """The raw rail train of ``prev_coeff * x + sum_i coeffs[i] * member_i``
    for the one- or two-core ``updates`` of
    ``ttdmrg.sums.orthogonal_sum_train``: :func:`materialize_one_site_sum`
    or :func:`two_site_sum`."""
    if len(updates[0]) == 1:
        return materialize_one_site_sum(family, [c for c, in updates], coeffs, prev_coeff)
    return two_site_sum(family, updates, coeffs, prev_coeff)


def round_sum_oracle(family, updates, coeffs, max_rank, round_tol=0.0, ledger=None):
    """Step 4 with the signature of ``ttdmrg.twolevel.compress_one_site``:
    the exact :func:`rail_sum` of the span combination (``coeffs[0]``
    weighs the iterate), orthogonalized by a full LQ sweep and truncated,
    i.e. ``round_tt(rail_sum(...))``."""
    total = rail_sum(family, updates, coeffs[1:], coeffs[0])
    return round_tt(total, max_ranks=max_rank, tol=round_tol, ledger=ledger)


def add_and_round(members, coeffs, max_rank, round_tol=0.0, ledger=None):
    """Step 4 as ``ttdmrg.twolevel.compress_two_site_fallback`` computed it
    before it left the package: scale the members, add them pairwise with
    the library's ``tt_add`` and round once with its ``round_tt``; equal to
    ``compress_two_site`` in exact arithmetic."""
    acc = tt_scale(members[0], coeffs[0])
    for member, c in zip(members[1:], coeffs[1:]):
        acc = tt_add(acc, tt_scale(member, c))
    return round_tt(acc, max_ranks=max_rank, tol=round_tol, ledger=ledger)


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
