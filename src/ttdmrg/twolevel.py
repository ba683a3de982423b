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
   scratch in every task;
3. form the coarse problem over the span of the previous iterate plus
   all locally updated members, and minimize the Rayleigh quotient in
   that span (a whitened dense eigenproblem of size at most d+1, with
   an optional Krylov path whose operator applications use the
   structured sum representations instead of the assembled matrix).
   Every member differs from the family's shared cores only on a short
   window, so the overlap and reduced operator matrices are assembled
   by one left-to-right sweep per matrix row that starts from the shared
   left environment at the row's window and closes each column against a
   right environment reused across rows: O(d^2) environment updates per
   iteration rather than O(d^3) for pairwise inner products.  Each row
   is a task tagged ``gram{k}`` in the same per-task cost model;
4. compress the coarse minimizer back to the working ranks in both
   modes by building the sum as one exact train (two-site: three rails
   over the split factors the local solves kept) and rounding it once.
   Rounding projects orthogonally, so ``fit_residual`` records the exact
   error ``sqrt(c^T S c - |x~|^2)`` of the rounded state ``x~``.

The iterate is kept left-orthogonal and at unit norm between iterations,
and the energy is the Rayleigh quotient of the compressed state, so the
recorded energy sequence reflects what the method actually keeps.
"""

from __future__ import annotations

import csv
import math
import warnings
# ThreadPoolExecutor is not used here; bench/tracer.py rebinds it by name, so it stays bound.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .dmrg import _solve, split_and_shift
from .eigen import dense_lowest_eig, dense_sym_svd, lanczos_lowest
from .ledger import CostLedger, charge, contract

# left_env, right_env, inner and fit_chain are not called here; bench/tracer.py
# wraps them by name in this module's namespace, so they stay bound.
from .mpo import (  # noqa: F401
    boundary_env,
    left_env,
    local_matvec_1site,
    local_matvec_2site,
    mpo_inner,
    rayleigh_quotient,
    right_env,
    update_left_env,
    update_right_env,
)
from .sums import (  # noqa: F401
    OneSiteSumFamily,
    TwoSiteChain,
    fit_chain,
    tt_chain_operator_inner,
    two_site_sum,
)
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


@dataclass
class TwoLevelConfig:
    """Knobs for :func:`run_two_level`.

    ``max_rank`` caps the compressed iterate; two-site local solves are
    also split at this rank before entering the coarse space.
    ``round_tol`` is the relative cut of the step-4 rounding in both modes.
    ``fit_tol``, ``max_fit_iters`` and ``fallback_compression`` are
    deprecated: a non-default value warns and changes nothing.
    ``workers`` is accepted and validated for existing configurations
    but changes neither the results nor the wall time: the independent
    tasks run in the calling thread, since they hold the interpreter lock
    and a thread pool only made runs slower.  Their parallel cost is
    modeled by the ledger's per-task tags (``flops_max_worker``,
    ``cost_per_processor``).
    """

    mode: str = "two-site"
    max_rank: int = 16
    eig_tol: float = 1e-8
    energy_tol: float = 1e-8
    max_iters: int = 200
    eig_max_iter: int | None = None
    coarse_eps: float = 1e-10
    structured_coarse: bool = False
    round_tol: float = 0.0
    fit_tol: float = 1e-8
    max_fit_iters: int = 20
    fallback_compression: bool = False
    workers: int = 1
    seed: int = 0

    _deprecated = {"fit_tol": 1e-8, "max_fit_iters": 20, "fallback_compression": False}

    def __post_init__(self):
        for name in [k for k, v in self._deprecated.items() if getattr(self, k) != v]:
            warnings.warn(f"TwoLevelConfig.{name} is deprecated and has no effect: step 4 "
                          "rounds an exact train in both modes", DeprecationWarning, stacklevel=3)
        if self.mode not in ("one-site", "two-site"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_rank < 1:
            raise ValueError("max_rank must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
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
    global_iter: int
    energy: float
    energy_error: float
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


@dataclass
class TwoLevelTrace:
    records: list = field(default_factory=list)
    converged: bool = False

    def energies(self):
        return [r.energy for r in self.records]

    def to_csv(self):
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "global_iter",
                "energy",
                "energy_error_vs_reference",
                "coarse_p",
                "coarse_iterations",
                "lanczos_iterations",
                "coarse_energy",
                "min_update_energy",
                "prev_energy",
                "fit_residual",
                "flops_seq",
                "flops_max_worker",
                "cost_per_processor",
                "lanczos_unconverged",
                "lanczos_max_residual",
            ]
        )
        for r in self.records:
            writer.writerow(
                [
                    r.global_iter,
                    repr(r.energy),
                    repr(r.energy_error),
                    r.coarse_p,
                    r.coarse_iterations,
                    ";".join(str(k) for k in r.lanczos_iterations),
                    repr(r.coarse_energy),
                    repr(r.min_update_energy),
                    repr(r.prev_energy),
                    repr(r.fit_residual),
                    repr(r.flops_seq),
                    repr(r.flops_max_worker),
                    repr(r.cost_per_processor),
                    r.lanczos_unconverged,
                    repr(r.lanczos_max_residual),
                ]
            )
        return buf.getvalue()


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

    Returns ``(updates, results)`` where one-site updates are center
    cores and two-site updates are the split factors ``(L_i, R_i)`` of
    each pair's block, truncated to ``max_rank`` with ``L_i``
    left-orthonormal.  Task ``i`` reads its operator environments from the
    family's shared environments ``envs`` (built by :func:`shared_envs`
    when not given) and its ledger is merged under ``solve:i``.
    """
    d = family.d
    if envs is None:
        envs = shared_envs(family, op, ledger)

    def solve_site(i, led):
        local = local_matvec_1site(envs.left[i][1], op.cores[i], envs.right[i + 1][1], led)
        return _solve(local, family.centers[i], eig_tol, eig_max_iter, seed, led)

    def solve_pair(i, led):
        v0 = contract(led, "matvec", family.centers[i], family.right[i + 1], ((2,), (0,)))
        local = local_matvec_2site(
            envs.left[i][1], op.cores[i], op.cores[i + 1], envs.right[i + 2][1], led
        )
        block, res = _solve(local, v0, eig_tol, eig_max_iter, seed, led)
        return split_and_shift(block, "LR", max_rank, 0.0, led)[:2], res

    solve, n = (solve_site, d) if mode == "one-site" else (solve_pair, d - 1)
    updates, results = [], []
    for i in range(n):
        led = CostLedger()
        update, res = solve(i, led)
        updates.append(update)
        results.append(res)
        _merge(ledger, led, f"solve:{i}")
    return updates, results


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


def assemble_coarse(members, op, eps=1e-10, ledger=None, family=None, envs=None):
    """Step 3 assembly: overlap and reduced operator matrices over the
    member trains.

    Each member is read as its window ``[a, b]`` (see :func:`_window`)
    plus the shared cores of ``family``.  Row ``k`` is one task, tagged
    ``gram{k}``: it starts from the shared left environment at ``a_k``,
    advances one site at a time with member ``k`` as bra and
    ``family.left`` as ket, and fills its diagonal and every column ``l``
    after ``k`` in window-start order (ties by index).  A column whose
    window starts past ``b_k`` is closed against its own right
    environment (``family.right`` as bra, member ``l`` as ket), built
    once from the shared right environment and charged to ``gram{l}``;
    an overlapping column is
    contracted across both windows and closed against the shared right
    environment.  That is O(d^2) environment updates for members with
    short windows.  Without ``family`` every window is the whole train
    and each entry is a full contraction, which is exact for arbitrary
    trains.  ``envs`` are the family's :func:`shared_envs`, built here
    when not given.
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
    closed = sorted({l for k in range(m) for l in cols[k] if win[l][0] > win[k][1]})

    column_envs = {}
    for l in closed:
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
    for k in range(m):
        led = CostLedger()
        bra = members[k].cores
        a, b = win[k]
        env, site = envs.left[a], a
        for l in cols[k]:
            al, bl = win[l]
            while site < al:
                env = _extend_left(
                    env, bra[site], op.cores[site], family.left[site], led, "coarse"
                )
                site += 1
            if al > b:
                s_kl, a_kl = _close(env, column_envs[l], led)
            else:
                ket = members[l].cores
                end = max(b, bl)
                e = env
                for j in range(al, end + 1):
                    e = _extend_left(e, bra[j], op.cores[j], ket[j], led, "coarse")
                s_kl, a_kl = _close(e, envs.right[end + 1], led)
            s_hat[k, l] = s_hat[l, k] = s_kl
            a_hat[k, l] = a_hat[l, k] = a_kl
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


def compress_one_site(family, replacements, coeffs, max_rank, round_tol=0.0, ledger=None):
    """Step 4, one-site: exact doubled-rank train, then rounding."""
    total = OneSiteSumFamily(family, replacements, coeffs[1:], prev_coeff=coeffs[0])
    return round_tt(total.materialize(), max_ranks=max_rank, tol=round_tol, ledger=ledger)


def compress_two_site(family, pairs, coeffs, max_rank, round_tol=0.0, ledger=None):
    """Step 4, two-site: exact three-rail train of the split pairs, then
    rounding."""
    total = two_site_sum(family, pairs, coeffs[1:], prev_coeff=coeffs[0])
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
    if init.dims != op.dims:
        raise ValueError(f"state dims {init.dims} do not match operator dims {op.dims}")
    d = init.d
    if d < 2:
        raise ValueError("the iteration needs at least two sites")
    if init.norm() == 0.0:
        raise ValueError("initial state has zero norm")

    one_site = config.mode == "one-site"
    state = orthogonalize(init, d - 1, ledger)
    state = tt_scale(state, 1.0 / state.norm())
    trace = TwoLevelTrace()
    energy = rayleigh_quotient(state, op, ledger)
    prev_coeffs = None

    def flops_snapshot():
        if ledger is None:
            return 0.0, 0.0, 0.0
        return ledger.sequential_flops, ledger.max_worker_flops(), ledger.cost_per_processor()

    for it in range(1, config.max_iters + 1):
        family = orthogonal_family(state, ledger)
        envs = shared_envs(family, op, ledger)
        updates, results = local_solves(
            family, op, config.mode, eig_tol=config.eig_tol,
            eig_max_iter=config.eig_max_iter, max_rank=config.max_rank,
            seed=config.seed, ledger=ledger, envs=envs,
        )
        unconverged = sum(not r.converged for r in results)
        if unconverged:
            warnings.warn(
                f"iteration {it}: {unconverged} of {len(results)} local Lanczos solves "
                "did not converge",
                RuntimeWarning,
                stacklevel=2,
            )

        members = [family.config(0)]
        if one_site:
            members += [family.config(i).replace_core(i, updates[i], center=i) for i in range(d)]
        else:
            members += [
                TensorTrain(family.left[:i] + pair + family.right[i + 2 :], center=i + 1)
                for i, pair in enumerate(updates)
            ]

        cp = assemble_coarse(
            members, op, eps=config.coarse_eps, ledger=ledger, family=family, envs=envs
        )
        if config.structured_coarse:
            if one_site:
                def apply_a(c):
                    total = OneSiteSumFamily(
                        family, updates, c[1:], prev_coeff=c[0]
                    ).materialize()
                    return np.array(
                        [mpo_inner(mem, op, total, ledger, "coarse") for mem in members]
                    )
            else:
                blocks = [contract(ledger, "coarse", lf, rf, ((2,), (0,))) for lf, rf in updates]

                def apply_a(c):
                    ch = TwoSiteChain(family, blocks, c[1:], prev_coeff=c[0])
                    return np.array(
                        [tt_chain_operator_inner(mem, op, ch, ledger, "coarse")
                         for mem in members]
                    )
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
        # coincide with the iterate, and p = 1 is no collapse.)
        collapsed = cp.p <= 1 and (
            sol.energy - min_update_energy > config.energy_tol * max(abs(sol.energy), 1e-12)
        )
        if collapsed:
            warnings.warn(
                f"iteration {it}: coarse span collapsed to p = {cp.p} of {len(members)} "
                "members",
                RuntimeWarning,
                stacklevel=2,
            )

        compress = compress_one_site if one_site else compress_two_site
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
                energy_error=(
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
            )
        )

        denom = max(abs(energy), 1e-12)
        if not collapsed and abs(energy - prev_energy) <= config.energy_tol * denom:
            trace.converged = True
            break

    return state, trace
