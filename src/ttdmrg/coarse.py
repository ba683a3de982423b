"""Step 3's assembly: the overlap and reduced operator matrices of the
two-level iteration's coarse span, built from transfer pairs.

A transfer pair is an overlap transfer and an operator environment
stepped together over one bra and one ket core, the assembly's unit of
work.  Every step charges ``"coarse"``; stacked pairs carry a leading
axis.  The pair of a shared operator environment over orthonormal cores
has the identity as its overlap transfer, so none is stored, and a step
that leaves a shared environment closes the open half that
:func:`~ttdmrg.mpo.open_left_sweep` / :func:`~ttdmrg.mpo.open_right_sweep`
stored for it (:func:`_close_left`, :func:`_close_right`): one GEMM per
matrix.

:func:`coarse_matrices` reuses what steps 1 and 2 hold.  Member ``k`` of
:func:`span_members` is its window ``[a_k, b_k]`` (:func:`_windows`) plus
the family's shared cores.  Its diagonal and its entry against the
iterate come from its solve: with ``u`` the merged update (two-site, the
product of the split factors) and ``v0`` the solve's start block, ``S_kk
= <u, u>``, ``S_0k = <v0, u>``, and one-site, where ``u`` is the Ritz
vector, ``A_kk = theta S_kk`` and ``A_0k = |v0| <A q0, u>`` from the
``start_image`` ``A q0`` (exact on every exit, unlike ``theta S_0k``);
two-site the split changed the block, so one local application gives
``A_kk = <u, A u>`` and ``A_0k = <v0, A u>``.  ``S_00`` and ``A_00`` are
what :func:`~ttdmrg.twolevel.family_energy` reads.  The iterate is thus
neither a row nor a column, and every other row ``k`` fills its columns
``l > k``: it closes the stored open half
(:class:`~ttdmrg.twolevel.SharedEnvs`) of the shared step at ``a_k`` with
its core, advances with member ``k`` as bra and ``family.left`` as ket,
and closes an overlapping column (two-site, ``l = k + 1``) across both
windows against the shared right environment.  A column that starts past
``b_k`` is closed against its own right environment (``family.right`` as
bra), which starts by closing the stored half at ``b_l`` with the
member's core.  Between the windows of such a closed pair both hold
shared cores, the same for every pair at a site, so the rows advance
there rightward as one stack and the columns leftward as another, to one
cut (:func:`_meeting_cut`), meeting each other in one GEMM per matrix:
about ``d^2/4`` shared-site steps in O(d) batched calls.  Each member has
one ledger, charged its entries, its row's steps and closings and its
column's; the iterate's is empty.
"""

from __future__ import annotations

import math

import numpy as np

from .dmrg import _merge_cores
from .ledger import CostLedger, charge
from .mpo import (close_left_env, close_right_env, env_step_flops, local_matvec,
                  update_left_env, update_right_env)
from .tt import TensorTrain, overlap_step_flops, update_left_overlap, update_right_overlap


def _extend_left(env, bra, op_core, ket, ledger):
    # one site of a transfer pair (overlap, operator)
    s, a = env
    return (
        update_left_overlap(s, bra, ket, ledger, "coarse"),
        update_left_env(a, bra, op_core, ket, ledger, "coarse"),
    )


def _extend_right(env, bra, op_core, ket, ledger):
    s, a = env
    return (
        update_right_overlap(s, bra, ket, ledger, "coarse"),
        update_right_env(a, bra, op_core, ket, ledger, "coarse"),
    )


def _close(left, right, ledger):
    # <bra|ket> and <bra|A|ket> from a left and a right transfer at one cut
    out = tuple(float(np.vdot(x, y)) for x, y in zip(left, right))
    charge(ledger, "coarse", 2.0 * sum(x.size for x in left))
    return out


def _close_left(half, bra, ket, ledger):
    # the step of a shared environment's pair with `bra` and `ket`, from the
    # open half of its step with `ket`: one GEMM per matrix, since the
    # overlap's open half is the ket itself (contiguous, in the layout the
    # full step has)
    ket = np.ascontiguousarray(ket)
    a, n, b = bra.shape
    charge(ledger, "coarse", 2.0 * n * a * b * ket.shape[2] * (half.shape[-2] + 1))
    s_env = np.matmul(bra.reshape(a * n, b).T, ket.reshape(1, a * n, -1))[0]
    return s_env, close_left_env(half, bra)


def _close_right(half, bra, ket, ledger):
    # the mirror, from the open half of a right step with `bra`
    bra = np.ascontiguousarray(bra)
    a, n, b = bra.shape
    charge(ledger, "coarse", 2.0 * n * a * b * ket.shape[0] * (half.shape[-3] + 1))
    return bra.reshape(a, n * b) @ ket.reshape(-1, n * b).T, close_right_env(half, ket)


def _stacked(pairs, stack=None):
    # transfer pairs stacked along a new leading axis, after those in `stack`
    return tuple(
        np.concatenate(([] if stack is None else [stack[i]]) + [p[i][None] for p in pairs])
        for i in (0, 1)
    )


def _windows(updates):
    # the sites [a, b] outside which each member of span_members holds shared cores
    return [(0, 0)] + [(i, i + len(u) - 1) for i, u in enumerate(updates)]


def _member_cores(family, updates):
    # each member's core list: the iterate's, then each update's between shared cores
    return [[family.centers[0], *family.right[1:]]] + [
        [*family.left[:i], *u, *family.right[i + len(u) :]] for i, u in enumerate(updates)
    ]


def span_members(family, updates):
    """The coarse span's members: the iterate ``family.config(0)``, then
    for each update ``u`` of width ``k`` at sites ``i .. i+k-1`` the train
    ``family.left[:i] + list(u) + family.right[i+k:]``, site-orthogonal at
    ``i + k - 1``; every member shares the family's cores outside its
    window."""
    cores = _member_cores(family, updates)
    return [TensorTrain(c, center=b) for c, (_, b) in zip(cores, _windows(updates))]


def _sweep(env, bra, op, ket, start, stop, ledger):
    """Extend a left transfer pair across sites ``start .. stop - 1`` with
    the core lists ``bra`` and ``ket``, charged as ``"coarse"``."""
    for s in range(start, stop):
        env = _extend_left(env, bra[s], op.cores[s], ket[s], ledger)
    return env


def _meeting_cut(joins, starts, step):
    """The cut ``c`` where the row and column stacks of
    :func:`coarse_matrices` meet.  ``joins`` maps a site to the rows that
    join the row stack there and cross the sites ``[site, c)``, ``starts``
    a site to the columns that start there and cross ``[c, site)``, and
    ``step[s]`` is what one crossing of site ``s`` costs.  ``c`` minimizes
    the sum, ties going to the smallest cut: moving the cut from ``c`` to
    ``c + 1`` adds site ``c`` to every row joined by then and takes it off
    every column that starts past it."""
    cut = lo = min(joins)
    cost = best = 0.0
    joined, past = 0, sum(len(cols) for cols in starts.values())
    for c in range(lo, max(starts)):
        joined += len(joins.get(c, ()))
        past -= len(starts.get(c, ()))
        cost += step[c] * (joined - past)
        if cost < best:
            best, cut = cost, c + 1
    return cut


def coarse_matrices(family, updates, solves, op, envs):
    """``(S, A, ledgers)``: the overlap and reduced operator matrices over
    :func:`span_members`, assembled as the module docstring says, and one
    ledger per member with its share of the work.  ``solves`` are the
    :func:`~ttdmrg.twolevel.local_solves` results of ``updates`` and
    ``envs`` the family's :func:`~ttdmrg.twolevel.shared_envs`."""
    win = _windows(updates)
    members = _member_cores(family, updates)
    m, width = len(members), len(updates[0])
    # The windows start in member order, so row k's closed columns are all l
    # with a_l > b_k, from width + 1 on; the last of them starts at `last`,
    # so every row that has one has that one.
    last = win[-1][0]
    closed = range(width + 1, m)

    ledgers = [CostLedger() for _ in range(m)]
    s_hat = np.zeros((m, m))
    a_hat = np.zeros((m, m))
    c0 = family.centers[0]
    s_hat[0, 0], a_hat[0, 0] = float(np.vdot(c0, c0)), float(envs.right[0][0, 0, 0])
    for k, (update, res) in enumerate(zip(updates, solves), 1):
        i, led = k - 1, ledgers[k]
        v0 = _merge_cores([family.centers[i], *family.right[i + 1 : i + width]], led)
        u = _merge_cores(update, led)
        s_hat[k, k] = s_kk = float(np.vdot(u, u))
        s_hat[0, k] = s_hat[k, 0] = float(np.vdot(v0, u))
        if width == 1:
            a_hat[k, k] = res.eigenvalue * s_kk
            a_0k = math.sqrt(float(np.vdot(v0, v0))) * float(np.vdot(res.start_image, u))
        else:
            au = local_matvec(envs.left[i], op.cores[i : i + 2], envs.right[i + 2], led)[0](u)
            a_hat[k, k], a_0k = float(np.vdot(u, au)), float(np.vdot(v0, au))
        a_hat[0, k] = a_hat[k, 0] = a_0k
        led.charge("coarse", 8.0 * u.size)

    column_envs = {}
    for l in closed:
        a, b = win[l]
        env = _close_right(envs.right_open[b], family.right[b], members[l][b], ledgers[l])
        for s in range(b - 1, a - 1, -1):
            env = _extend_right(env, family.right[s], op.cores[s], members[l][s], ledgers[l])
        column_envs[l] = env

    row_envs = {}  # rows with a closed column -> transfers just past the window
    for k in range(1, m - 1):  # the rows with a later column, each starting at a closing
        led, bra, (a, b) = ledgers[k], members[k], win[k]
        env = _close_left(envs.left_open[a], bra[a], family.left[a], led)
        if width == 2:  # column k + 1 overlaps the row on site b and ends at b + 1
            e = _sweep(env, bra, op, members[k + 1], b, b + 2, led)
            shared = envs.right[b + 2]  # with its overlap transfer, the identity
            s_kl, a_kl = _close(e, (np.eye(len(shared)), shared), led)
            s_hat[k, k + 1] = s_hat[k + 1, k] = s_kl
            a_hat[k, k + 1] = a_hat[k + 1, k] = a_kl
        if b < last:
            row_envs[k] = _sweep(env, bra, op, family.left, a + 1, b + 1, led)

    def meet(rows, cols, left, right):
        # every row's transfers against every column's, one GEMM per matrix
        # (a single row or column may come unstacked); each row is charged its closings
        r, c = np.array(rows), np.array(cols)
        for out, x, y in ((s_hat, left[0], right[0]), (a_hat, left[1], right[1])):
            block = x.reshape(len(rows), -1) @ y.reshape(len(cols), -1).T
            out[r[:, None], c] = block
            out[c[:, None], r] = block.T
        flops = 2.0 * len(cols) * ((left[0].size + left[1].size) // len(rows))
        for k in rows:
            ledgers[k].charge("coarse", flops)

    if closed:
        joins, starts = {}, {}  # site -> rows joining there, closed columns starting there
        for k in row_envs:
            joins.setdefault(win[k][1] + 1, []).append(k)
        for l in closed:
            starts.setdefault(win[l][0], []).append(l)
        # the row's bra, the operator and the column's ket at each gap site;
        # the stacks step uncharged and each member is charged its crossings
        lo = min(joins)
        gap = {s: (family.right[s], op.cores[s], family.left[s]) for s in range(lo, last)}
        step = {s: overlap_step_flops(bra, ket) + env_step_flops(bra, w, ket)
                for s, (bra, w, ket) in gap.items()}
        cut = _meeting_cut(joins, starts, step)

        rows, left = [], None
        for s in range(lo, cut + 1):
            if s in joins:
                rows += joins[s]
                left = _stacked([row_envs[k] for k in joins[s]], left)
            if s == cut:
                break
            if s in starts:
                meet(rows, starts[s], left, _stacked([column_envs[l] for l in starts[s]]))
            left = _extend_left(left, *gap[s], None)
            for k in rows:
                ledgers[k].charge("coarse", step[s])

        cols, right = [], None
        for t in range(last, cut - 1, -1):
            if t in starts:
                cols += starts[t]
                right = _stacked([column_envs[l] for l in starts[t]], right)
            if t == cut:
                break
            for k in joins.get(t, []):
                meet([k], cols, row_envs[k], right)
            s = t - 1
            right = _extend_right(right, *gap[s], None)
            for l in cols:
                ledgers[l].charge("coarse", step[s])
        meet(rows, cols, left, right)
    return s_hat, a_hat, ledgers
