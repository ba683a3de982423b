"""Additive two-level ground-state iteration.

Each global iteration runs four steps:

1. take the orthogonal family of the current iterate and its shared
   environments, built once when the iterate was formed (sequential, see
   below);
2. solve one local eigenproblem per site (one-site) or per neighboring
   pair (two-site).  The solves are independent, so the method can run
   them in parallel; here they run one after another in the calling
   thread, and each task charges a private cost ledger that is merged
   under its own worker tag (``solve:i``), so ``flops_max_worker`` and
   ``cost_per_processor`` give the cost of an ideal one-processor-per-task
   run.  The operator environments the tasks read are built once per
   iterate over the family's shared cores (one left sweep and one
   right sweep, tagged ``env:left`` and ``env:right``) instead of from
   scratch in every task.  The solves are inexact: their tolerance and
   the stop test come from :class:`ttdmrg.dmrg.Schedule` (README,
   "Inexact local solves and the stop test"), as in classical sweeps,
   with the start's Rayleigh quotient as the energy before iteration 1;
3. form the coarse problem over the span of the previous iterate plus
   all locally updated members, and minimize the Rayleigh quotient in
   that span: a whitened dense eigenproblem of size p <= d+1 (the span's
   directions above :data:`COARSE_EPS`), its matrix taken from the
   assembled reduced operator or, structured, from p applications of the
   operator to exact sum trains, one ``mpo_inner`` per member.
   Every member differs from the family's shared cores only on a short
   window, so each row of the overlap and reduced operator matrices
   starts from the shared left environment at the row's window and closes
   each later column against a right environment reused across rows (the
   overlaps over shared cores are identities, as they are orthonormal):
   O(d^2) flops per iteration rather than O(d^3) for pairwise inner
   products.  Between a row's window and a later column's both members
   hold only shared cores, so the rows advance there rightward as one
   stack and the columns leftward as another, and the two stacks meet at
   one cut chosen from the window shapes: about d^2/4 shared-site steps
   instead of the d^2/2 of rows alone, in O(d) calls per iteration, each
   one call of the package's transfer steps over a stack axis.  Each
   member is one task with one ledger, tagged ``gram{k}``, charged its
   row's steps and closings and its column's leftward steps, in the same
   per-task cost model;
4. compress the coarse minimizer back to the working ranks: the
   combination of the local solves' k-site updates is one exact train
   (two rails at k = 1, three at k = 2, the middle one over the kept split
   factors; :func:`~ttdmrg.sums.sum_train`), built right-orthogonal by
   :func:`~ttdmrg.sums.orthogonal_sum_train`, which orthogonalizes only
   the rows off the right-orthonormal done rail, and truncated once by
   the SVD sweep :func:`~ttdmrg.tt.truncate` (sequential).  This is
   ``round_tt(sum_train(...))`` in exact arithmetic without its full LQ
   sweep over the doubled or tripled bonds.
   Truncation projects orthogonally, so ``fit_residual`` records the exact
   error ``sqrt(c^T S c - |x~|^2)`` of the truncated state ``x~``, whose
   norm is its last core's (the result is left-orthogonal).

The iterate is kept left-orthogonal and at unit norm between iterations,
and the energy is the Rayleigh quotient of the compressed state, so the
recorded energy sequence reflects what the method actually keeps.  It is
read off the family and environments the next iteration needs anyway
(:func:`family_energy`: the right sweep's site-0 entry ``<x|A|x>`` over
``<C_0, C_0>``), which are built right after the iterate is normalized:
those of the start before iteration 1, those of iterate k at the end of
iteration k, before its record.  A run thus builds one family and one
environment pair more than it runs iterations, and no full-train
Rayleigh quotient.
"""

from __future__ import annotations

import math
import warnings

# Eight names are bound here only because bench/tracer.py rebinds them by name
# in this module's namespace: ThreadPoolExecutor, left_env, right_env,
# lanczos_lowest, inner and round_tt are imported but never called here, and
# fit_chain and compress_two_site_fallback, set to None below the imports, are
# placeholders that nothing calls.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np

from .dmrg import (
    Schedule,
    SolverConfig,
    _merge_cores,
    _solve,
    check_start,
    records_csv,
    split_and_shift,
    warn_exhausted,
    warn_unconverged,
)
from .eigen import dense_lowest_eig, dense_sym_svd
from .eigen import lanczos_lowest  # noqa: F401
from .ledger import CostLedger, charge
from .mpo import (
    all_left_envs,
    all_right_envs,
    env_step_flops,
    local_matvec,
    mpo_inner,
    update_left_env,
    update_right_env,
)
from .mpo import left_env, right_env  # noqa: F401
from .sums import orthogonal_sum_train, sum_train
from .tt import (
    TensorTrain,
    check_integer,
    clip_ranks,
    orthogonal_family,
    orthogonalize,
    overlap_step_flops,
    truncate,
    tt_scale,
    update_left_overlap,
    update_right_overlap,
)
from .tt import inner, round_tt  # noqa: F401

# bound for bench/tracer.py only; see the comment above the imports
fit_chain = None
compress_two_site_fallback = None

# Step 4 never keeps a singular value at or below this fraction of the
# largest one, whatever ``svd_tol`` says: a two-site sum has rank-deficient
# bonds, and directions at roundoff level have arbitrary singular vectors.
ROUNDOFF_CUT = 64 * np.finfo(float).eps

# Step 3 keeps the span's directions whose Gram eigenvalue exceeds this
# fraction of the largest one.
COARSE_EPS = 1e-10


@dataclass(kw_only=True)
class TwoLevelConfig(SolverConfig):
    """Knobs for :func:`run_two_level`: the shared ones of
    :class:`~ttdmrg.dmrg.SolverConfig`, and these.

    ``max_rank`` caps the compressed iterate; two-site local solves are
    also split at this rank before entering the coarse space.
    ``max_iters`` caps the global iterations, and ``structured_coarse``
    builds the coarse matrix from operator applications to sum trains
    rather than from the assembled reduced operator (see the module
    docstring, step 3).
    The shared ``svd_tol`` is the relative cut of the step-4 rounding in
    both modes, never below :data:`ROUNDOFF_CUT`.
    ``workers`` is accepted and validated for existing configurations
    but changes neither the results nor the wall time: the independent
    tasks run in the calling thread, since they hold the interpreter lock
    and a thread pool only made runs slower.  Their parallel cost is
    modeled by the ledger's per-task tags (``flops_max_worker``,
    ``cost_per_processor``).
    """

    max_iters: int = 200
    structured_coarse: bool = False
    workers: int = 1

    def __post_init__(self):
        self.check("max_iters")
        check_integer("workers", self.workers)


@dataclass
class CoarseProblem:
    """Assembled second-level problem over the member span."""

    s_hat: np.ndarray
    a_hat: np.ndarray
    sigma: np.ndarray
    basis: np.ndarray
    p: int

    def whitener(self):
        if self.p == 0:
            raise ValueError("coarse span is numerically degenerate (p = 0)")
        return self.basis[:, : self.p] / np.sqrt(self.sigma[: self.p])


@dataclass
class CoarseSolution:
    coeffs: np.ndarray
    energy: float


@dataclass
class IterationRecord:
    """One global iteration of :func:`run_two_level`; also one row of the
    trace CSV, whose columns are these fields in order.

    Columns: ``global_iter`` (1-based); ``energy``, the Rayleigh quotient
    of the compressed, normalized iterate; ``energy_error_vs_reference``,
    its distance to the reference energy (NaN without one); ``coarse_p``,
    the kept coarse span size; ``lanczos_iterations``, each local solve's
    operator applications; ``coarse_energy``, the coarse minimum before
    compression; ``min_update_energy``, the lowest Rayleigh quotient of an
    updated member; ``prev_energy``, the energy before the iteration;
    ``fit_residual``, the exact compression error; ``flops_seq``,
    ``flops_max_worker`` and ``cost_per_processor``, the ledger's
    cumulative sequential, largest per-task and critical-path flops (0
    without a ledger), which include the new iterate's family and
    environments, built to read ``energy`` and reused by the next
    iteration; ``lanczos_unconverged`` and ``lanczos_max_residual``,
    the local solves that missed ``local_eig_tol`` and their largest
    residual estimate; ``local_eig_tol``, the local solves' tolerance.
    """

    global_iter: int
    energy: float
    energy_error_vs_reference: float
    coarse_p: int
    lanczos_iterations: tuple
    coarse_energy: float
    min_update_energy: float
    prev_energy: float
    fit_residual: float
    flops_seq: float
    flops_max_worker: float
    cost_per_processor: float
    lanczos_unconverged: int
    lanczos_max_residual: float
    local_eig_tol: float


@dataclass
class TwoLevelTrace:
    records: list = field(default_factory=list)
    converged: bool = False

    def energies(self):
        return [r.energy for r in self.records]

    def steps(self):
        """Per iteration ``(energy, cost)``: its energy and the ledger's
        cumulative cost per processor after it."""
        return [(r.energy, r.cost_per_processor) for r in self.records]

    def to_csv(self):
        return records_csv(IterationRecord, self.records)


@dataclass
class SharedEnvs:
    """Operator environments of an orthogonal family's shared cores.

    Entry ``j`` of ``left`` covers sites ``< j`` of ``family.config(d -
    1)``, the left-orthogonal iterate, and entry ``j`` of ``right`` covers
    sites ``>= j`` of ``family.config(0)``, the right-orthogonal one; each
    has shape ``(rank, operator bond, rank)``.  ``right[0]`` closes the
    whole train: its one entry is ``<x|A|x>``.  The overlap transfers over
    the same cores are identities, since the cores are left- or
    right-orthonormal, so none is stored.
    """

    left: list
    right: list


def _extend_left(env, bra, op_core, ket, ledger):
    # one site of a transfer pair (overlap, operator), charged as "coarse"
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


def _paired(env):
    # a shared operator environment and its overlap transfer, the identity
    return np.eye(len(env)), env


def _close(left, right, ledger):
    # <bra|ket> and <bra|A|ket> from a left and a right transfer at one cut
    out = tuple(float(np.vdot(x, y)) for x, y in zip(left, right))
    charge(ledger, "coarse", 2.0 * sum(x.size for x in left))
    return out


def _merge(ledger, task_ledger, tag):
    if ledger is not None:
        ledger.merge(task_ledger, tag)


def shared_envs(family, op, ledger=None):
    """The family's operator environments, one task per direction:
    :func:`~ttdmrg.mpo.all_left_envs` over the left-orthogonal iterate and
    :func:`~ttdmrg.mpo.all_right_envs` over the right-orthogonal one,
    charged as ``"env_build"`` and merged under the worker tags
    ``env:left`` and ``env:right``."""
    envs = []
    for sweep, x, tag in ((all_left_envs, family.config(family.d - 1), "env:left"),
                          (all_right_envs, family.config(0), "env:right")):
        led = CostLedger()
        envs.append(sweep(x, op, x, led))
        _merge(ledger, led, tag)
    return SharedEnvs(*envs)


def family_energy(family, envs):
    """Rayleigh quotient of the family's iterate: ``<x|A|x>``, the one
    entry of the right sweep's ``envs.right[0]``, over ``<C_0, C_0>`` for
    the center ``C_0`` of ``family.config(0)``, whose other cores are
    right-orthonormal.  This is :func:`~ttdmrg.mpo.rayleigh_quotient` of
    the iterate up to roundoff; the one dot product is not charged."""
    c0 = family.centers[0]
    return float(envs.right[0][0, 0, 0]) / float(np.vdot(c0, c0))


def local_solves(family, op, mode, eig_tol=1e-8, eig_max_iter=None, max_rank=None,
                 seed=0, ledger=None, envs=None):
    """Step 2: independent local eigensolves over a read-only family.

    Returns ``(updates, results)`` where update ``i`` is the tuple of the
    cores member ``i`` puts at its sites: the center core ``(C_i,)``
    one-site, and two-site the split factors ``(L_i, R_i)`` of the pair's
    block, truncated to ``max_rank`` with ``L_i`` left-orthonormal.  Task
    ``i`` reads its operator environments from the family's shared
    environments ``envs`` (built by :func:`shared_envs` when not given) and
    its ledger is merged under ``solve:i``.
    """
    d = family.d
    if envs is None:
        envs = shared_envs(family, op, ledger)

    k = 1 if mode == "one-site" else 2
    updates, results = [], []
    for i in range(d - k + 1):
        led = CostLedger()
        v0 = _merge_cores([family.centers[i], *family.right[i + 1 : i + k]], led)
        local = local_matvec(envs.left[i], op.cores[i : i + k], envs.right[i + k], led)
        update, res = _solve(local, v0, eig_tol, eig_max_iter, seed, led)
        if k == 2:
            updates.append(split_and_shift(update, "LR", max_rank, 0.0, led)[:2])
        else:
            updates.append((update,))
        results.append(res)
        _merge(ledger, led, f"solve:{i}")
    return updates, results


def span_members(family, updates):
    """The coarse span's members: the iterate ``family.config(0)``, then
    for each update ``u`` of width ``k`` at sites ``i .. i+k-1`` the train
    ``family.left[:i] + list(u) + family.right[i+k:]``, site-orthogonal at
    ``i + k - 1``; every member shares the family's cores outside its
    window."""
    members = [family.config(0)]
    for i, u in enumerate(updates):
        k = len(u)
        cores = list(family.left[:i]) + list(u) + list(family.right[i + k :])
        members.append(TensorTrain(cores, center=i + k - 1))
    return members


def _sweep(env, bra, op, ket, start, stop, ledger):
    """Extend a left transfer pair across sites ``start .. stop - 1`` with
    the core lists ``bra`` and ``ket``, charged as ``"coarse"``."""
    for s in range(start, stop):
        env = _extend_left(env, bra[s], op.cores[s], ket[s], ledger)
    return env


def _stacked(pairs, stack=None):
    """Transfer pairs ``(overlap, operator)`` stacked along a new leading
    axis, after those already in ``stack``."""
    return tuple(
        np.concatenate(([] if stack is None else [stack[i]]) + [p[i][None] for p in pairs])
        for i in (0, 1)
    )


def _meeting_cut(joins, starts, step):
    """The cut ``c`` where the row and column stacks of
    :func:`assemble_coarse` meet.  ``joins`` maps a site to the rows that
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


def assemble_coarse(family, updates, op, ledger=None, envs=None):
    """Step 3 assembly: overlap and reduced operator matrices over the
    span of the iterate and its updated members (:func:`span_members`).

    Each member is read as its window ``[a, b]`` plus the shared cores of
    ``family``: the iterate holds ``family.centers[0]`` at ``[0, 0]``, and
    member ``i + 1`` holds the ``k`` cores of ``updates[i]`` at
    ``[i, i+k-1]``, so the windows start in member order.  Row ``k``,
    part of member ``k``'s task ``gram{k}``, fills its diagonal and every
    column ``l > k``.  It starts from the shared left environment at ``a_k`` and
    advances with member ``k`` as bra and ``family.left`` as ket.  An
    overlapping column is contracted across both windows and closed
    against the shared right environment.  A column whose window starts
    past ``b_k`` is closed against its own right environment
    (``family.right`` as bra, member ``l`` as ket), built once from the
    shared right environment (:func:`_paired`) and charged to ``gram{l}``.

    Between the windows of such a closed pair both members hold shared
    cores, ``family.right`` in the row and ``family.left`` in the column,
    the same for every pair at a site.  So the rows advance there
    rightward as one stack and the closed columns leftward as another,
    one :func:`_extend_left` or :func:`_extend_right` call per site over
    the stack's leading axis, both to one cut ``c``
    (:func:`_meeting_cut`): a row whose window ends before ``c`` joins the
    left stack and meets every column that starts before ``c`` at that
    column's start; a column that starts at or past ``c`` joins the right
    stack and meets every row that ends at or past ``c`` just after that
    row's window; at ``c`` the two stacks meet in one GEMM per matrix.
    The shared sites are crossed about ``d^2/4`` times rather than the
    ``d^2/2`` of rows alone, in O(d) batched calls.  Each member has one
    ledger, merged under ``gram{k}``: its row's steps and closings and, for
    a closed column, its window environment and leftward steps all charge
    it; a step costs the same either way (:func:`~ttdmrg.tt.overlap_step_flops`
    plus :func:`~ttdmrg.mpo.env_step_flops`).  ``envs`` are the family's
    :func:`shared_envs`, built here when not given.
    """
    if envs is None:
        envs = shared_envs(family, op, ledger)
    members = [x.cores for x in span_members(family, updates)]
    win = [(0, 0)] + [(i, i + len(u) - 1) for i, u in enumerate(updates)]
    m = len(members)
    # The windows start in member order and the iterate's ends at site 0,
    # so the closed columns are the members from 2 on.  Row k's closed
    # columns are all l with a_l > b_k; the last of them starts at `last`,
    # so every row that has one has that one.
    last = win[-1][0]
    closed = range(2, m)

    ledgers = [CostLedger() for _ in range(m)]  # member k's work, merged under gram{k}
    column_envs = {}
    for l in closed:
        a, b = win[l]
        env = _paired(envs.right[b + 1])
        for s in range(b, a - 1, -1):
            env = _extend_right(env, family.right[s], op.cores[s], members[l][s], ledgers[l])
        column_envs[l] = env

    s_hat = np.zeros((m, m))
    a_hat = np.zeros((m, m))
    row_envs = {}  # rows with a closed column -> transfers just past the window
    for k in range(m):
        led = ledgers[k]
        bra = members[k]
        a, b = win[k]
        env, site = _paired(envs.left[a]), a
        for l in range(k, m):
            al, bl = win[l]
            if al > b:
                break
            env, site = _sweep(env, bra, op, family.left, site, al, led), al
            end = max(b, bl)
            e = _sweep(env, bra, op, members[l], al, end + 1, led)
            s_kl, a_kl = _close(e, _paired(envs.right[end + 1]), led)
            s_hat[k, l] = s_hat[l, k] = s_kl
            a_hat[k, l] = a_hat[l, k] = a_kl
        if b < last:
            row_envs[k] = _sweep(env, bra, op, family.left, site, b + 1, led)

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
        gap = {s: (family.right[s], op.cores[s], family.left[s]) for s in range(1, last)}
        step = {s: overlap_step_flops(bra, ket) + env_step_flops(bra, w, ket)
                for s, (bra, w, ket) in gap.items()}
        cut = _meeting_cut(joins, starts, step)

        rows, left = [], None
        for s in range(1, cut + 1):
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

    for k, led in enumerate(ledgers):
        _merge(ledger, led, f"gram{k}")

    sigma, basis = dense_sym_svd(s_hat, ledger=ledger)
    smax = sigma[0] if len(sigma) else 0.0
    p = int(np.sum(sigma > COARSE_EPS * smax)) if smax > 0 else 0
    return CoarseProblem(s_hat, a_hat, sigma, basis, p)


def _lowest_whitened(w, h, ledger):
    # the lowest eigenpair of the whitened matrix h = w^T A w, in member coefficients
    h = 0.5 * (h + h.T)
    lam, vec = dense_lowest_eig(h, ledger=ledger)
    return CoarseSolution(coeffs=w @ vec, energy=float(lam))


def solve_coarse(cp, ledger=None):
    """Step 3 solve, direct path: whitened dense eigenproblem."""
    w = cp.whitener()
    return _lowest_whitened(w, w.T @ cp.a_hat @ w, ledger)


def structured_apply(family, updates, op, ledger=None):
    """The reduced operator on a coefficient vector ``c`` without the
    assembled matrix: ``<member_k, A x(c)>`` for every member of
    :func:`span_members`, where ``x(c)`` is the exact
    :func:`~ttdmrg.sums.sum_train` of the span combination, charged as
    ``"coarse"``."""
    members = span_members(family, updates)

    def apply_a(c):
        total = sum_train(family, updates, c[1:], prev_coeff=c[0])
        return np.array([mpo_inner(m, op, total, ledger, "coarse") for m in members])

    return apply_a


def solve_coarse_structured(cp, apply_a, ledger=None):
    """Step 3 solve, structured path: the same whitened dense eigenproblem,
    its matrix built from one ``apply_a`` call (a structured evaluation of
    the reduced operator on a coefficient vector) per whitened direction
    instead of from the assembled matrix."""
    w = cp.whitener()
    aw = np.column_stack([apply_a(col) for col in w.T])
    return _lowest_whitened(w, w.T @ aw, ledger)


def compress_one_site(family, updates, coeffs, max_rank, round_tol=0.0, ledger=None):
    """Step 4: the exact sum of the ``k``-site updates, built right-orthogonal
    (:func:`~ttdmrg.sums.orthogonal_sum_train`), then truncated; equal to
    ``round_tt(sum_train(...))`` in exact arithmetic.  ``coeffs[0]`` weighs
    the iterate.  The relative cut is ``round_tol``, but never below
    :data:`ROUNDOFF_CUT`."""
    total = orthogonal_sum_train(family, updates, coeffs[1:], coeffs[0], ledger)
    return truncate(total, max_ranks=max_rank, tol=max(round_tol, ROUNDOFF_CUT), ledger=ledger)


# One body for both modes, bound under two names so that bench/tracer.py
# spans step 4 by whichever name run_two_level calls.
compress_two_site = compress_one_site


def run_two_level(init, op, config=None, ledger=None, reference_energy=None):
    """Iterate the two-level method until the energy settles.

    Parameters
    ----------
    init : TensorTrain
        Starting state, any gauge, nonzero, at least two sites.
    op : MatrixProductOperator
        Symmetric operator on the same local spaces.
    config : TwoLevelConfig
    ledger : CostLedger, optional
        Parallel-step work is recorded under per-task worker tags, so
        ``cost_per_processor`` reflects the critical path.
    reference_energy : float, optional
        Fills the trace's energy error column.

    Returns
    -------
    state, trace : TensorTrain, TwoLevelTrace
        The final left-orthogonal, unit-norm iterate and per-iteration
        records.
    """
    if config is None:
        config = TwoLevelConfig()
    check_start(init, op)

    def read(state):
        # the iterate's family and environments, built once: they give its
        # energy here and the next iteration's local solves and coarse rows
        family = orthogonal_family(state, ledger)
        envs = shared_envs(family, op, ledger)
        return family, envs, family_energy(family, envs)

    if init.ranks != clip_ranks(init.dims, init.ranks[1:-1]):
        # a bond that one side cannot carry: the LQ sweep clips it from the right
        init = orthogonalize(init, 0, ledger)
    state = orthogonalize(init, init.d - 1, ledger)
    state = tt_scale(state, 1.0 / float(np.linalg.norm(state.cores[-1])))
    trace = TwoLevelTrace()
    family, envs, energy = read(state)
    schedule = Schedule(config, op.dims)

    def flops_snapshot():
        if ledger is None:
            return 0.0, 0.0, 0.0
        return ledger.sequential_flops, ledger.max_worker_flops(), ledger.cost_per_processor()

    for it in range(1, config.max_iters + 1):
        updates, results = local_solves(
            family, op, config.mode, eig_tol=schedule.eig_tol,
            eig_max_iter=config.eig_max_iter, max_rank=config.max_rank,
            seed=config.seed, ledger=ledger, envs=envs,
        )
        unconverged = sum(not r.converged for r in results)
        warn_unconverged(f"iteration {it}", unconverged, len(results))

        cp = assemble_coarse(family, updates, op, ledger=ledger, envs=envs)
        if config.structured_coarse:
            apply_a = structured_apply(family, updates, op, ledger)
            sol = solve_coarse_structured(cp, apply_a, ledger)
        else:
            sol = solve_coarse(cp, ledger=ledger)

        # Rayleigh quotients of the span members (matrix diagonals), not
        # the local eigenvalues: two-site updates are split at max_rank
        # before they enter the span, which can cost energy.
        min_update_energy = float(
            min(cp.a_hat[j, j] / cp.s_hat[j, j] for j in range(1, len(cp.s_hat)))
        )
        # Over the whole span the coarse minimum lies below every member's
        # Rayleigh quotient.  A cut to one direction that leaves a member
        # lower has thrown that descent away, so a stalled energy would be
        # stagnation, not convergence.  (At a fixed point the members all
        # coincide with the iterate, and p = 1 is no collapse; a few ulp of
        # |E| bound the roundoff by which the two can still differ there.)
        slack = max(config.energy_tol, 16 * np.finfo(float).eps) * max(abs(sol.energy), 1e-12)
        collapsed = cp.p <= 1 and sol.energy - min_update_energy > slack
        if collapsed:
            warnings.warn(
                f"iteration {it}: coarse span collapsed to p = {cp.p} of {len(cp.s_hat)} "
                "members",
                RuntimeWarning,
                stacklevel=2,
            )

        compress = compress_one_site if config.mode == "one-site" else compress_two_site
        state = compress(family, updates, sol.coeffs, config.max_rank, config.svd_tol, ledger)
        norm = float(np.linalg.norm(state.cores[-1]))  # the state is left-orthogonal
        if norm == 0.0:
            raise ValueError("compressed iterate vanished; coarse span degenerate")
        # rounding is an orthogonal projection of the exact sum
        exact_sq = float(sol.coeffs @ cp.s_hat @ sol.coeffs)
        fit_residual = math.sqrt(max(exact_sq - norm * norm, 0.0))
        state = tt_scale(state, 1.0 / norm)

        prev_energy = energy
        family, envs, energy = read(state)
        seq, maxw, cpp = flops_snapshot()
        trace.records.append(
            IterationRecord(
                global_iter=it,
                energy=float(energy),
                energy_error_vs_reference=(
                    float(abs(energy - reference_energy)) if reference_energy is not None
                    else math.nan
                ),
                coarse_p=cp.p,
                lanczos_iterations=tuple(r.iterations for r in results),
                coarse_energy=float(sol.energy),
                min_update_energy=min_update_energy,
                prev_energy=float(prev_energy),
                fit_residual=float(fit_residual),
                flops_seq=seq,
                flops_max_worker=maxw,
                cost_per_processor=cpp,
                lanczos_unconverged=unconverged,
                lanczos_max_residual=max(r.residual_norm for r in results),
                local_eig_tol=schedule.eig_tol,
            )
        )

        if schedule.converged(prev_energy, energy, may_stop=not collapsed):
            trace.converged = True
            break

    if not trace.converged:
        warn_exhausted("max_iters", config.max_iters)
    return state, trace
