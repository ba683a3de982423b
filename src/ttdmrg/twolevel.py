"""Additive two-level ground-state iteration.

Each global iteration runs four steps:

1. build the orthogonal family of the current iterate (sequential);
2. solve one local eigenproblem per site (one-site) or per neighboring
   pair (two-site).  The solves are independent, so the method can run
   them in parallel; here they run one after another in the calling
   thread, and each task charges a private cost ledger that is merged
   under its own worker tag (``solve:i``), so ``flops_max_worker`` and
   ``cost_per_processor`` give the cost of an ideal one-processor-per-task
   run.  The operator environments the tasks read are built once per
   iteration over the family's shared cores (one left sweep and one
   right sweep, tagged ``env:left`` and ``env:right``) instead of from
   scratch in every task.  The solves are inexact: their tolerance and
   the stop test come from :class:`ttdmrg.dmrg.Schedule` (README,
   "Inexact local solves and the stop test"), as in classical sweeps,
   with the start's Rayleigh quotient as the energy before iteration 1;
3. form the coarse problem over the span of the previous iterate plus
   all locally updated members, and minimize the Rayleigh quotient in
   that span (a whitened dense eigenproblem of size at most d+1, with
   an optional Krylov path that applies the operator to the exact sum
   train of each combination, one ``mpo_inner`` per member, instead of
   the assembled matrix).
   Every member differs from the family's shared cores only on a short
   window, so each row of the overlap and reduced operator matrices
   starts from the shared left environment at the row's window and closes
   each later column against a right environment reused across rows:
   O(d^2) flops per iteration rather than O(d^3) for pairwise inner
   products.  Past its window a row crosses only shared cores, so the
   rows advance there as one stack in a single left-to-right sweep of
   batched products, O(d) calls per iteration.  Each row is still a task
   tagged ``gram{k}``, charged exactly the contractions of its own sweep,
   in the same per-task cost model;
4. compress the coarse minimizer back to the working ranks: the same
   builder, :func:`~ttdmrg.sums.sum_train`, writes the combination of the
   local solves' k-site updates as one exact train (two rails at k = 1,
   three at k = 2, the middle one over the kept split factors), which is
   rounded once.
   Rounding projects orthogonally, so ``fit_residual`` records the exact
   error ``sqrt(c^T S c - |x~|^2)`` of the rounded state ``x~``.

The iterate is kept left-orthogonal and at unit norm between iterations,
and the energy is the Rayleigh quotient of the compressed state, so the
recorded energy sequence reflects what the method actually keeps.
"""

from __future__ import annotations

import math
import warnings
# ThreadPoolExecutor is not used here; bench/tracer.py rebinds it by name, so it stays bound.
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
    warn_unconverged,
)
from .eigen import dense_lowest_eig, dense_sym_svd, lanczos_lowest
from .ledger import CostLedger, charge, tensordot_flops

# left_env, right_env, inner and fit_chain are not called here; bench/tracer.py
# wraps them by name in this module's namespace, so they stay bound.
from .mpo import (  # noqa: F401
    boundary_env,
    left_env,
    local_matvec,
    mpo_inner,
    rayleigh_quotient,
    right_env,
    update_left_env,
    update_right_env,
)
from .sums import OneSiteSumFamily, fit_chain, sum_train  # noqa: F401
from .tt import (  # noqa: F401
    TensorTrain,
    inner,
    orthogonal_family,
    orthogonalize,
    round_tt,
    tt_add,
    tt_scale,
    update_left_overlap,
    update_right_overlap,
)


@dataclass(kw_only=True)
class TwoLevelConfig(SolverConfig):
    """Knobs for :func:`run_two_level`: the shared ones of
    :class:`~ttdmrg.dmrg.SolverConfig`, and these.

    ``max_rank`` caps the compressed iterate; two-site local solves are
    also split at this rank before entering the coarse space.
    ``max_iters`` caps the global iterations.  ``coarse_eps`` is the
    relative cut of the coarse span, and ``structured_coarse`` selects the
    Krylov coarse solve (see the module docstring, step 3).
    ``round_tol`` is the relative cut of the step-4 rounding in both modes.
    ``workers`` is accepted and validated for existing configurations
    but changes neither the results nor the wall time: the independent
    tasks run in the calling thread, since they hold the interpreter lock
    and a thread pool only made runs slower.  Their parallel cost is
    modeled by the ledger's per-task tags (``flops_max_worker``,
    ``cost_per_processor``).
    """

    max_iters: int = 200
    coarse_eps: float = 1e-10
    structured_coarse: bool = False
    round_tol: float = 0.0
    workers: int = 1

    def __post_init__(self):
        self.check("max_iters", "round_tol")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if not 0 < self.coarse_eps < 1:
            raise ValueError("coarse_eps must be in (0, 1)")


@dataclass
class CoarseProblem:
    """Assembled second-level problem over the member span."""

    s_hat: np.ndarray
    a_hat: np.ndarray
    sigma: np.ndarray
    basis: np.ndarray
    eps: float
    p: int

    def whitener(self):
        if self.p == 0:
            raise ValueError("coarse span is numerically degenerate (p = 0)")
        return self.basis[:, : self.p] / np.sqrt(self.sigma[: self.p])


@dataclass
class CoarseSolution:
    coeffs: np.ndarray
    energy: float
    iterations: int


@dataclass
class IterationRecord:
    """One global iteration of :func:`run_two_level`; also one row of the
    trace CSV, whose columns are these fields in order.

    Columns: ``global_iter`` (1-based); ``energy``, the Rayleigh quotient
    of the compressed, normalized iterate; ``energy_error_vs_reference``,
    its distance to the reference energy (NaN without one); ``coarse_p``,
    the kept coarse span size; ``coarse_iterations``, the Krylov coarse
    solve's operator applications (0 on the direct path);
    ``lanczos_iterations``, each local solve's operator applications;
    ``coarse_energy``, the coarse minimum before compression;
    ``min_update_energy``, the lowest Rayleigh quotient of an updated
    member; ``prev_energy``, the energy before the iteration;
    ``fit_residual``, the exact compression error; ``flops_seq``,
    ``flops_max_worker`` and ``cost_per_processor``, the ledger's
    cumulative sequential, largest per-task and critical-path flops (0
    without a ledger); ``lanczos_unconverged`` and ``lanczos_max_residual``,
    the local solves that missed ``local_eig_tol`` and their largest
    residual estimate; ``local_eig_tol``, the local solves' tolerance.
    """

    global_iter: int
    energy: float
    energy_error_vs_reference: float
    coarse_p: int
    coarse_iterations: int
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
    """Transfers of an orthogonal family's shared cores against themselves.

    Entry ``j`` of ``left`` covers sites ``< j`` over ``family.left``
    (``j < d``); entry ``j`` of ``right`` covers sites ``>= j`` over
    ``family.right`` (``j >= 1``; entry 0 is None).  Every entry is a
    pair ``(overlap, operator)``: the plain transfer of shape
    ``(rank, rank)`` and the operator environment of shape ``(rank,
    operator bond, rank)``.
    """

    left: list
    right: list


def _boundary():
    return np.ones((1, 1)), boundary_env()


def _extend_left(env, bra, op_core, ket, ledger, op_class):
    s, a = env
    return (
        update_left_overlap(s, bra, ket, ledger, op_class),
        update_left_env(a, bra, op_core, ket, ledger, op_class),
    )


def _extend_right(env, bra, op_core, ket, ledger, op_class):
    s, a = env
    return (
        update_right_overlap(s, bra, ket, ledger, op_class),
        update_right_env(a, bra, op_core, ket, ledger, op_class),
    )


def _close(left, right, ledger):
    # <bra|ket> and <bra|A|ket> from a left and a right transfer at one cut
    out = tuple(float(np.vdot(x, y)) for x, y in zip(left, right))
    charge(ledger, "coarse", 2.0 * sum(x.size for x in left))
    return out


def _merge(ledger, task_ledger, tag):
    if ledger is not None:
        ledger.merge(task_ledger, worker=tag)


def shared_envs(family, op, ledger=None):
    """Build the family's L-L and R-R transfers, one task per direction.

    The task ledgers are merged under the worker tags ``env:left`` and
    ``env:right``.  The operator environments are extended site by site
    exactly as :func:`~ttdmrg.mpo.left_env` / :func:`~ttdmrg.mpo.right_env`
    build them for one configuration, so they are bitwise equal to the
    from-scratch ones.
    """
    d = family.d
    led = CostLedger()
    left = [_boundary()]
    for s in range(d - 1):
        core = family.left[s]
        left.append(_extend_left(left[-1], core, op.cores[s], core, led, "env_build"))
    _merge(ledger, led, "env:left")

    led = CostLedger()
    right = [None] * d + [_boundary()]
    for s in range(d - 1, 0, -1):
        core = family.right[s]
        right[s] = _extend_right(right[s + 1], core, op.cores[s], core, led, "env_build")
    _merge(ledger, led, "env:right")
    return SharedEnvs(left, right)


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
        local = local_matvec(envs.left[i][1], op.cores[i : i + k], envs.right[i + k][1], led)
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


def _window(member, family):
    """Sites ``[a, b]`` outside which ``member`` holds the family's shared
    cores (``family.left`` before ``a``, ``family.right`` after ``b``),
    found by core identity; the whole train when there is no family or
    the member is not built from it."""
    d = member.d
    if family is None or family.d != d:
        return 0, d - 1
    a = 0
    while a < d and member.cores[a] is family.left[a]:
        a += 1
    b = d - 1
    while b > 0 and member.cores[b] is family.right[b]:
        b -= 1
    return min(a, b), b


def _sweep(env, bra, op, ket, start, stop, ledger):
    """Extend a left transfer pair across sites ``start .. stop - 1`` with
    the core lists ``bra`` and ``ket``, charged as ``"coarse"``."""
    for s in range(start, stop):
        env = _extend_left(env, bra[s], op.cores[s], ket[s], ledger, "coarse")
    return env


def _shared_step_flops(bra, op_core, ket):
    """What :func:`_extend_left` charges for one site: the two overlap and
    three operator contractions, bra first."""
    a, n, b = bra.shape
    a2, n2, _ = ket.shape
    w, _, _, w2 = op_core.shape
    return (
        tensordot_flops((a, a2), bra.shape, a)
        + tensordot_flops((a2, n, b), ket.shape, a2 * n)
        + tensordot_flops((a, w, a2), bra.shape, a)
        + tensordot_flops((w, a2, n, b), op_core.shape, w * n)
        + tensordot_flops((a2, b, n2, w2), ket.shape, a2 * n2)
    )


def _advance_stack(overlaps, opers, bra, op_core, ket):
    """Extend a stack of left transfers ``(K, a, a')`` and operator
    environments ``(K, a, w, a')`` by one site that every one of them
    crosses with the same bra, operator and ket cores.

    Copy-free, ket first: one GEMM against the ket, one batched
    ``np.matmul`` of the permuted operator core over the stack and bra
    bond, and one broadcast ``np.matmul`` against the bra's transposed
    view.  Bra and ket must have equal shapes, which makes each step cost
    what the bra-first step of :func:`_extend_left` costs."""
    if bra.shape != ket.shape:
        raise ValueError(f"stacked step needs equal bra and ket shapes, got {bra.shape} "
                         f"and {ket.shape}")
    k, a, w, a2 = opers.shape
    _, n, b = bra.shape
    w2 = op_core.shape[3]
    kmat = ket.reshape(a2, n * b)
    brat = bra.reshape(a * n, b).T
    x = overlaps.reshape(k * a, a2) @ kmat  # (K, a, n, b')
    overlaps = np.matmul(brat, x.reshape(k, a * n, b))  # (K, b, b')
    x = opers.reshape(k * a * w, a2) @ kmat  # (K, a, w, n', b')
    wp = op_core.transpose(1, 3, 0, 2).reshape(n * w2, w * n)
    x = np.matmul(wp, x.reshape(k * a, w * n, b))  # (K, a, n, w2, b')
    opers = np.matmul(brat, x.reshape(k, a * n, w2 * b))  # (K, b, w2 * b')
    return overlaps, opers.reshape(k, b, w2, b)


def assemble_coarse(members, op, eps=1e-10, ledger=None, family=None, envs=None):
    """Step 3 assembly: overlap and reduced operator matrices over the
    member trains.

    Each member is read as its window ``[a, b]`` (see :func:`_window`)
    plus the shared cores of ``family``.  Row ``k`` is one task, tagged
    ``gram{k}``, that fills its diagonal and every column ``l`` after
    ``k`` in window-start order (ties by index).  It starts from the
    shared left environment at ``a_k`` and advances with member ``k`` as
    bra and ``family.left`` as ket.  An overlapping column is contracted
    across both windows and closed against the shared right environment.
    A column whose window starts past ``b_k`` is closed against its own
    right environment (``family.right`` as bra, member ``l`` as ket),
    built once from the shared right environment and charged to
    ``gram{l}``.

    Past its window a row crosses only shared cores, the same for every
    row at a site, so all rows with such a closed column advance there
    together: each joins a stack after its window, one left-to-right
    sweep extends the whole stack site by site (:func:`_advance_stack`),
    and every closed column is closed against the stack by one
    matrix-vector product per matrix.  That is O(d) batched calls per
    assembly for the same O(d^2) flops as a sweep per row.  Every row is
    still charged exactly the contractions of its own sweep, under the
    same tags, so the ledger is unchanged; only the summation order of
    the entries differs.  Without ``family`` every window is the whole
    train and each entry is a full contraction, which is exact for
    arbitrary trains.  ``envs`` are the family's :func:`shared_envs`,
    built here when not given.
    """
    m = len(members)
    d = members[0].d
    if family is not None and envs is None:
        envs = shared_envs(family, op, ledger)
    if envs is None:
        # whole-train windows only read the two boundary transfers
        envs = SharedEnvs([_boundary()], [None] * d + [_boundary()])
    win = [_window(x, family) for x in members]
    order = sorted(range(m), key=lambda l: (win[l][0], l))
    cols = {k: order[pos:] for pos, k in enumerate(order)}
    # Row k's closed columns are all l with a_l > b_k; the last of them
    # starts at `last`, so every row in the stack stays to the end.
    last = max(a for a, _ in win)
    first_end = min(b for _, b in win)
    closed = [l for l in range(m) if win[l][0] > first_end]

    column_envs = {}
    closing = {}  # site -> closed columns whose window starts there
    for l in closed:
        closing.setdefault(win[l][0], []).append(l)
        led = CostLedger()
        a, b = win[l]
        env = envs.right[b + 1]
        for s in range(b, a - 1, -1):
            env = _extend_right(
                env, family.right[s], op.cores[s], members[l].cores[s], led, "coarse"
            )
        column_envs[l] = env
        _merge(ledger, led, f"gram{l}")

    s_hat = np.zeros((m, m))
    a_hat = np.zeros((m, m))
    row_ledgers = []
    joins = {}  # site -> rows whose transfers join the stack there
    shared_left = family.left if family is not None else None  # unread without a family
    for k in range(m):
        led = CostLedger()
        bra = members[k].cores
        a, b = win[k]
        env, site = envs.left[a], a
        for l in cols[k]:
            al, bl = win[l]
            if al > b:
                break
            env, site = _sweep(env, bra, op, shared_left, site, al, led), al
            end = max(b, bl)
            e = _sweep(env, bra, op, members[l].cores, al, end + 1, led)
            s_kl, a_kl = _close(e, envs.right[end + 1], led)
            s_hat[k, l] = s_hat[l, k] = s_kl
            a_hat[k, l] = a_hat[l, k] = a_kl
        if b < last:
            env = _sweep(env, bra, op, shared_left, site, b + 1, led)
            joins.setdefault(b + 1, []).append((k, env))
        row_ledgers.append(led)

    # The stack's rows and transfers; each row is charged what it costs at
    # every site it crosses (integers below 2**53, so every sum is exact).
    rows, overlaps, opers = np.zeros(0, dtype=int), None, None
    for s in range(min(joins, default=last + 1), last + 1):
        if s in joins:
            rows = np.append(rows, [k for k, _ in joins[s]])
            new_o = [env[0][None] for _, env in joins[s]]
            new_a = [env[1][None] for _, env in joins[s]]
            overlaps = np.concatenate(new_o if overlaps is None else [overlaps, *new_o])
            opers = np.concatenate(new_a if opers is None else [opers, *new_a])
        flops = 0.0
        for l in closing.get(s, ()):
            col_o, col_a = column_envs[l]
            s_hat[rows, l] = s_hat[l, rows] = overlaps.reshape(len(rows), -1) @ col_o.ravel()
            a_hat[rows, l] = a_hat[l, rows] = opers.reshape(len(rows), -1) @ col_a.ravel()
            flops += 2.0 * (overlaps[0].size + opers[0].size)
        if s < last:
            cores = family.right[s], op.cores[s], family.left[s]
            overlaps, opers = _advance_stack(overlaps, opers, *cores)
            flops += _shared_step_flops(*cores)
        for k in rows:
            row_ledgers[k].charge("coarse", flops)
    for k, led in enumerate(row_ledgers):
        _merge(ledger, led, f"gram{k}")

    sigma, basis = dense_sym_svd(s_hat, ledger=ledger)
    smax = sigma[0] if len(sigma) else 0.0
    p = int(np.sum(sigma > eps * smax)) if smax > 0 else 0
    return CoarseProblem(s_hat, a_hat, sigma, basis, eps, p)


def solve_coarse(cp, ledger=None):
    """Step 3 solve, direct path: whitened dense eigenproblem."""
    w = cp.whitener()
    h = w.T @ cp.a_hat @ w
    h = 0.5 * (h + h.T)
    lam, vec = dense_lowest_eig(h, ledger=ledger)
    return CoarseSolution(coeffs=w @ vec, energy=float(lam), iterations=0)


def structured_apply(family, updates, members, op, ledger=None):
    """The reduced operator on a coefficient vector ``c`` without the
    assembled matrix: ``<member_k, A x(c)>`` for every member, where
    ``x(c)`` is the exact :func:`~ttdmrg.sums.sum_train` of the span
    combination, charged as ``"coarse"``."""
    def apply_a(c):
        total = sum_train(family, updates, c[1:], prev_coeff=c[0])
        return np.array([mpo_inner(m, op, total, ledger, "coarse") for m in members])

    return apply_a


def solve_coarse_structured(cp, apply_a, v0=None, tol=1e-12, seed=0, ledger=None):
    """Step 3 solve, Krylov path: same whitened problem, but operator
    applications go through ``apply_a`` (a structured evaluation of the
    reduced operator on a coefficient vector) instead of an assembled
    matrix.  The iteration count is reported for the trace."""
    w = cp.whitener()

    def matvec(y):
        return w.T @ apply_a(w @ y)

    start = None
    if v0 is not None:
        start = np.sqrt(cp.sigma[: cp.p]) * (cp.basis[:, : cp.p].T @ v0)
        if np.linalg.norm(start) == 0.0:
            start = None
    res = lanczos_lowest(matvec, cp.p, v0=start, tol=tol, seed=seed, ledger=ledger)
    return CoarseSolution(
        coeffs=w @ res.eigenvector, energy=float(res.eigenvalue), iterations=res.iterations
    )


def compress_one_site(family, updates, coeffs, max_rank, round_tol=0.0, ledger=None):
    """Step 4, one-site: exact doubled-rank train of the ``(C_i,)``
    updates, then rounding."""
    total = OneSiteSumFamily(family, [c for c, in updates], coeffs[1:], prev_coeff=coeffs[0])
    return round_tt(total.materialize(), max_ranks=max_rank, tol=round_tol, ledger=ledger)


def compress_two_site(family, pairs, coeffs, max_rank, round_tol=0.0, ledger=None):
    """Step 4, two-site: exact three-rail train of the split pairs, then
    rounding."""
    total = sum_train(family, pairs, coeffs[1:], prev_coeff=coeffs[0])
    return round_tt(total, max_ranks=max_rank, tol=round_tol, ledger=ledger)


def compress_two_site_fallback(members, coeffs, max_rank, round_tol=0.0, ledger=None):
    """Step 4 reference, not called by the iteration: scale members, add
    pairwise, round once; equal to :func:`compress_two_site` in exact arithmetic."""
    acc = tt_scale(members[0], coeffs[0])
    for member, c in zip(members[1:], coeffs[1:]):
        acc = tt_add(acc, tt_scale(member, c))
    return round_tt(acc, max_ranks=max_rank, tol=round_tol, ledger=ledger)


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

    state = orthogonalize(init, init.d - 1, ledger)
    state = tt_scale(state, 1.0 / state.norm())
    trace = TwoLevelTrace()
    energy = rayleigh_quotient(state, op, ledger)
    prev_coeffs = None
    schedule = Schedule(config, op.dims)

    def flops_snapshot():
        if ledger is None:
            return 0.0, 0.0, 0.0
        return ledger.sequential_flops, ledger.max_worker_flops(), ledger.cost_per_processor()

    for it in range(1, config.max_iters + 1):
        family = orthogonal_family(state, ledger)
        envs = shared_envs(family, op, ledger)
        updates, results = local_solves(
            family, op, config.mode, eig_tol=schedule.eig_tol,
            eig_max_iter=config.eig_max_iter, max_rank=config.max_rank,
            seed=config.seed, ledger=ledger, envs=envs,
        )
        unconverged = sum(not r.converged for r in results)
        warn_unconverged(f"iteration {it}", unconverged, len(results))

        members = span_members(family, updates)
        cp = assemble_coarse(
            members, op, eps=config.coarse_eps, ledger=ledger, family=family, envs=envs
        )
        if config.structured_coarse:
            apply_a = structured_apply(family, updates, members, op, ledger)
            sol = solve_coarse_structured(
                cp, apply_a, v0=prev_coeffs, seed=config.seed, ledger=ledger
            )
        else:
            sol = solve_coarse(cp, ledger=ledger)
        prev_coeffs = sol.coeffs

        # Rayleigh quotients of the span members (matrix diagonals), not
        # the local eigenvalues: two-site updates are split at max_rank
        # before they enter the span, which can cost energy.
        min_update_energy = float(
            min(cp.a_hat[j, j] / cp.s_hat[j, j] for j in range(1, len(members)))
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
                f"iteration {it}: coarse span collapsed to p = {cp.p} of {len(members)} "
                "members",
                RuntimeWarning,
                stacklevel=2,
            )

        compress = compress_one_site if config.mode == "one-site" else compress_two_site
        state = compress(family, updates, sol.coeffs, config.max_rank, config.round_tol, ledger)
        norm = state.norm()
        if norm == 0.0:
            raise ValueError("compressed iterate vanished; coarse span degenerate")
        # rounding is an orthogonal projection of the exact sum
        exact_sq = float(sol.coeffs @ cp.s_hat @ sol.coeffs)
        fit_residual = math.sqrt(max(exact_sq - norm * norm, 0.0))
        state = tt_scale(state, 1.0 / norm)

        prev_energy = energy
        energy = rayleigh_quotient(state, op, ledger)
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
                coarse_iterations=sol.iterations,
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

    return state, trace
