"""Alternating ground-state sweeps over a tensor train.

One half-sweep optimizes sites left to right or right to left while the
train stays site-orthogonal around the active site.  Environments are
reused across the sweep: all right environments are built once before
the first pass, left environments are extended on the fly as the center
moves right, and right environments are refreshed on the way back, so
every local solve sees environments that match the current cores.

Memory: a sweep is one list of d + 1 cut environments, and a k-site solve
runs with d + 2 - k of them alive, both boundaries included.  Slot j holds
the environment at cut j that the sweep reads next: the left one left of
the window, the right one right of it.  A two-site window's inner cut is
dropped while it solves, and each micro-step then writes the cut its
center crosses.  The two-level solver keeps both shared sweeps (2(d + 1)
environments) by design, since every local task reads one of each.
Factorization outputs own exactly what they keep: the kept factor of a
split is a copy, not a view that would pin the whole SVD factor.

The one-site mode keeps bond dimensions fixed, so it refuses a start below
``max_rank`` (:func:`check_start`), inside whose ranks it would converge.
The two-site mode solves on a merged pair of sites and re-splits with a
truncated SVD, so ranks can grow up to ``max_rank`` and the discarded
singular value weight is recorded per micro-step.

Both solvers share one run contract, stated once in this module:
:class:`SolverConfig` declares and checks the knobs they share, and
:class:`Schedule` sets each step's local Lanczos tolerance (by the forcing
term :func:`forced_eig_tol`) and decides which step ends the run.  README
("Inexact local solves and the stop test") gives the account and the
measurements behind the rule.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, fields
from io import StringIO

import numpy as np

from .eigen import lanczos_lowest
from .ledger import contract
from .mpo import (
    all_right_envs,
    boundary_env,
    left_env,
    local_matvec,
    right_env,
    update_left_env,
    update_right_env,
)
from .tt import (TensorTrain, _rank_keep, check_cap, check_integer, check_tol, clip_ranks,
                 lq_step, orthogonalize, qr_step, svd_fixed)

# Forcing term of inexact local solves: after the first half-sweep (or
# two-level iteration) the local Lanczos tolerance follows this fraction of
# the last relative energy change.
EIG_FORCING = 0.1


def forced_eig_tol(eig_tol, change, energy, prev_change, energy_tol):
    """Local Lanczos tolerance after a step that moved the energy by ``change``.

    Returns ``max(eig_tol, EIG_FORCING * change / |energy|)``, the forcing
    term of inexact Newton methods: far from the ground state, a tight
    local solve buys nothing the next step keeps.  :class:`Schedule`
    decides once per run whether it applies.

    End game: when the changes contract (``change < prev_change``, the
    step before's change, None after the first step) and the next one,
    predicted as ``change**2 / prev_change``, already meets
    ``energy_tol * |energy|``, the coming step is the one that can stop
    the run, so it is solved to ``max(eig_tol, energy_tol)``, the loosest
    tolerance the convergence guard accepts, if the forcing term is
    looser.  Without it that step would run loose, be refused, and a
    further full step would run only to confirm convergence.  The clause
    only ever lowers the tolerance.  On linearly converging runs whose
    contraction ratio is at least ``EIG_FORCING`` the forcing term is
    already that tight, so it changes nothing there.
    """
    scale = max(abs(energy), 1e-12)
    forced = max(eig_tol, EIG_FORCING * change / scale)
    if (
        prev_change is not None
        and change < prev_change
        and change * change / prev_change <= energy_tol * scale
    ):
        return min(forced, max(eig_tol, energy_tol))
    return forced


@dataclass(kw_only=True)
class SolverConfig:
    """Knobs both solvers share; :class:`SweepConfig` and
    :class:`~ttdmrg.twolevel.TwoLevelConfig` add their own.

    Parameters
    ----------
    mode : {"one-site", "two-site"}
        Local update width.
    max_rank : int
        Bond dimension cap of the iterate.
    eig_tol : float
        Residual tolerance of the first step's local Lanczos solves and the
        tightest one of later steps (see :class:`Schedule`).  Zero pins
        every local solve to its iteration budget.
    energy_tol : float
        Relative energy change of one step (a half-sweep or a global
        iteration) that ends the run.  It bounds the last change, not the
        error: one-site two-level runs on a 16-site Heisenberg chain at
        rank 16 and ``energy_tol = 1e-6`` stop 1.6-3.2e-6 relative above
        the exact energy (the benchmark's 12 starts of seeds 0-2).
    svd_tol : float
        Relative singular value cut of every truncation: the two-site
        splits of :func:`run_dmrg` and the step-4 rounding of
        :func:`~ttdmrg.twolevel.run_two_level`.  0 keeps every nonzero
        singular value up to ``max_rank`` in the splits; step 4 never cuts
        below :data:`~ttdmrg.twolevel.ROUNDOFF_CUT` (64 ulp), since the
        roundoff-level directions of a two-site sum are arbitrary.
    eig_max_iter : int or None
        Iteration cap per local solve (None picks the solver default).
    seed : int
        Nonnegative seed for the local solver's restart draws.
    """

    mode: str = "two-site"
    max_rank: int = 16
    eig_tol: float = 1e-8
    energy_tol: float = 1e-8
    svd_tol: float = 0.0
    eig_max_iter: int | None = None
    seed: int = 0

    def check(self, budget):
        """Reject an unknown mode; ``max_rank``, the iteration budget named
        ``budget`` or a set local iteration cap that is not an integer or
        is below one; a ``seed`` that is not a nonnegative integer; and a
        negative or NaN ``svd_tol``, ``eig_tol`` or ``energy_tol``."""
        if self.mode not in ("one-site", "two-site"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("max_rank", budget):
            check_integer(name, getattr(self, name))
        check_cap("eig_max_iter", self.eig_max_iter)  # None: the local solver's default
        check_integer("seed", self.seed, least=0)
        for name in ("svd_tol", "eig_tol", "energy_tol"):
            check_tol(name, getattr(self, name))


class Schedule:
    """The local tolerance and the stop test of a run, one step (a
    half-sweep or a global iteration) at a time.

    ``eig_tol`` is the coming step's local Lanczos tolerance: the
    configured ``eig_tol`` for the first step, then, with ``forcing``,
    :func:`forced_eig_tol` of the last energy change.  Forcing is off
    when ``max_rank`` reaches every bond's full separation rank of the
    local spaces ``dims`` (truncation then loses nothing, exact solves
    converge in a few steps and loose ones only add steps) and when
    ``eig_tol == 0``, which pins every solve to its iteration budget.  A
    step counts as converged only if it was solved to at most
    ``max(eig_tol, energy_tol)``, because a loose step can leave the
    energy where it was without being converged.
    """

    def __init__(self, config, dims, forcing=True):
        full_rank = clip_ranks(dims, config.max_rank) == clip_ranks(dims, math.prod(dims))
        self.config = config
        self.forcing = forcing and not full_rank and config.eig_tol > 0
        self.eig_tol = config.eig_tol
        self._prev_change = None

    def converged(self, before, after, may_stop=True):
        """Whether the step that moved the energy from ``before`` to
        ``after`` ends the run; if not, set the next step's ``eig_tol``.
        A step with ``may_stop`` false never ends the run."""
        cfg = self.config
        change = abs(after - before)
        if (
            may_stop
            and self.eig_tol <= max(cfg.eig_tol, cfg.energy_tol)
            and change <= cfg.energy_tol * max(abs(after), 1e-12)
        ):
            return True
        if self.forcing:
            self.eig_tol = forced_eig_tol(
                cfg.eig_tol, change, after, self._prev_change, cfg.energy_tol
            )
        self._prev_change = change
        return False


def check_start(init, op, config=None):
    """Reject a start that cannot seed either solver: dimensions other
    than the operator's, fewer than two sites, a NaN or infinite entry in
    a start or operator core, or zero norm.  Under a one-site
    :class:`SweepConfig`, which keeps the start's bonds, also reject a
    bond below ``max_rank`` clipped to its cut (:func:`~ttdmrg.tt.clip_ranks`)."""
    if init.dims != op.dims:
        raise ValueError(f"state dims {init.dims} do not match operator dims {op.dims}")
    if init.d < 2:
        raise ValueError("the solvers need at least two sites")
    for name, chain in (("initial state", init), ("operator", op)):
        if not all(np.isfinite(c).all() for c in chain.cores):
            raise ValueError(f"{name} has non-finite entries")
    if init.norm() == 0.0:
        raise ValueError("initial state has zero norm")
    if isinstance(config, SweepConfig) and config.mode == "one-site":
        for j, (have, need) in enumerate(zip(init.ranks, clip_ranks(init.dims, config.max_rank))):
            if have < need:
                raise ValueError(f"one-site sweeps keep the start's bonds: bond {have} at cut {j} "
                                 f"is below max_rank = {config.max_rank} clipped to the cut ({need})")


def warn_unconverged(step, unconverged, solves):
    """Warn, on behalf of the solver's caller, that ``unconverged`` of the
    ``solves`` local Lanczos solves of ``step`` missed their tolerance."""
    if unconverged:
        warnings.warn(
            f"{step}: {unconverged} of {solves} local Lanczos solves did not converge",
            RuntimeWarning,
            stacklevel=3,
        )


def warn_exhausted(budget, steps):
    """Warn, on behalf of the solver's caller, that the run spent its whole
    step budget, the config field ``budget`` set to ``steps``, and returns
    with ``converged=False``."""
    warnings.warn(
        f"run stopped at {budget} = {steps} without converging", RuntimeWarning, stacklevel=3
    )


def records_csv(record_type, records):
    """CSV text of a trace: a header row of the fields of the dataclass
    ``record_type`` in declaration order, then one row per record.  Floats
    are written with ``repr`` (so they read back bitwise), booleans as 0/1,
    tuples joined by ``;``, and integers as they are."""
    names = [f.name for f in fields(record_type)]
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for record in records:
        writer.writerow([_csv_cell(getattr(record, name)) for name in names])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(str(v) for v in value)
    return value


@dataclass(kw_only=True)
class SweepConfig(SolverConfig):
    """Knobs for :func:`run_dmrg`: the shared ones of :class:`SolverConfig`
    (``max_rank`` caps the two-site splits and, clipped to each cut, is the
    least bond of a one-site start; local solves loosen only in two-site
    mode), and these.

    Parameters
    ----------
    max_half_sweeps : int
        Hard stop on the number of half-sweeps.
    """

    max_half_sweeps: int = 40

    def __post_init__(self):
        self.check("max_half_sweeps")


@dataclass
class MicroRecord:
    """One local solve of :func:`run_dmrg`; also one row of the trace CSV,
    whose columns are these fields in order.

    Columns: ``half_sweep`` (1-based) and ``site`` (the window's first
    site); ``energy``, the local eigenvalue; ``lanczos_iterations``, its
    operator applications; ``discarded_weight``, the 2-norm of the singular
    values the two-site split dropped (0 one-site); ``flops_cumulative``,
    the ledger's total after the step (0 without a ledger);
    ``lanczos_converged``, ``lanczos_residual`` and ``local_eig_tol``, the
    solve's convergence flag, residual estimate and tolerance.
    """

    half_sweep: int
    site: int
    energy: float
    lanczos_iterations: int
    discarded_weight: float
    flops_cumulative: float
    lanczos_converged: bool
    lanczos_residual: float
    local_eig_tol: float


@dataclass
class SweepTrace:
    micro: list = field(default_factory=list)
    half_sweep_energies: list = field(default_factory=list)
    converged: bool = False

    def for_half_sweep(self, half_sweep):
        return [m for m in self.micro if m.half_sweep == half_sweep]

    def steps(self):
        """Per half-sweep ``(energy, cost)``: the energy it ended on and the
        ledger's cumulative flops after it."""
        last = {m.half_sweep: m.flops_cumulative for m in self.micro}
        return [(e, last[hs]) for hs, e in enumerate(self.half_sweep_energies, start=1)]

    def to_csv(self):
        return records_csv(MicroRecord, self.micro)


def _solve(local, v0, tol, max_iter, seed, ledger, keep_start=False):
    # local: the (matvec, dim, shape) of mpo.local_matvec
    matvec, dim, shape = local
    res = lanczos_lowest(
        matvec, dim, v0=v0.ravel(), tol=tol, max_iter=max_iter, seed=seed, ledger=ledger,
        keep_start=keep_start,
    )
    return res.eigenvector.reshape(shape), res


def _merge_cores(cores, ledger=None):
    """The block ``(r, n_1, ..., n_k, r')`` of k adjacent cores."""
    block = cores[0]
    for core in cores[1:]:
        block = contract(ledger, "matvec", block, core, ((block.ndim - 1,), (0,)))
    return block


def micro_step(state, op, k, tol=1e-8, max_iter=None, seed=0, ledger=None):
    """Solve the projected problem on the ``k`` (one or two) sites from
    the current center on.

    Environments are built from scratch, so this is the right entry
    point for isolated local solves.  Returns the optimal block of shape
    ``(r, n_i, ..., n_{i+k-1}, r')`` and the solver result; the caller
    re-installs it (one site) or splits it (two sites).
    """
    i = state.center
    if i is None:
        raise ValueError("state must be site-orthogonal around the active site")
    if i + k > state.d:
        raise ValueError(f"{k}-site step at site {i} lacks a right neighbor")
    env_l = left_env(state, op, state, i, ledger)
    env_r = right_env(state, op, state, i + k, ledger)
    local = local_matvec(env_l, op.cores[i : i + k], env_r, ledger)
    return _solve(local, _merge_cores(state.cores[i : i + k]), tol, max_iter, seed, ledger)


def split_and_shift(block, direction, max_rank=None, svd_tol=0.0, ledger=None):
    """Split a merged two-site block back into two cores.

    Parameters
    ----------
    block : ndarray
        Shape (r0, n1, n2, r3).
    direction : {"LR", "RL"}
        "LR" leaves the orthogonality center on the right core, "RL"
        on the left core.
    max_rank, svd_tol
        Truncation controls (None or an integer >= 1; nonnegative); singular
        values below ``svd_tol`` times the largest one are dropped.

    Returns
    -------
    left, right, discarded : ndarray, ndarray, float
        The two cores and the 2-norm of the dropped singular values.
    """
    if direction not in ("LR", "RL"):
        raise ValueError(f"unknown direction {direction!r}")
    check_cap("max_rank", max_rank)
    check_tol("svd_tol", svd_tol)
    r0, n1, n2, r3 = block.shape
    mat = block.reshape(r0 * n1, n2 * r3)
    u, s, vt = svd_fixed(mat, ledger)
    k = _rank_keep(s, max_rank, svd_tol)
    discarded = float(np.sqrt(np.sum(s[k:] ** 2)))
    # the kept orthonormal factor is copied: a view would pin all of u or vt
    if direction == "LR":
        left = u[:, :k].reshape(r0, n1, k).copy()
        right = (s[:k, None] * vt[:k]).reshape(k, n2, r3)
    else:
        left = (u[:, :k] * s[:k]).reshape(r0, n1, k)
        right = vt[:k].reshape(k, n2, r3).copy()
    return left, right, discarded


def run_dmrg(init, op, config=None, ledger=None):
    """Minimize the Rayleigh quotient of ``op`` by alternating sweeps.

    Parameters
    ----------
    init : TensorTrain
        Starting state; any gauge, must be nonzero, at least two sites.
    op : MatrixProductOperator
        Symmetric operator on the same local spaces.
    config : SweepConfig
    ledger : CostLedger, optional
        Charged with every environment, solver, and factorization op.

    Returns
    -------
    state, trace : TensorTrain, SweepTrace
        The optimized train, site-orthogonal at the side the last
        half-sweep ended on, and the per-micro-step record.
    """
    if config is None:
        config = SweepConfig()
    check_start(init, op, config)
    d = init.d

    state = orthogonalize(init, 0, ledger)
    cores = list(state.cores)
    k = 1 if config.mode == "one-site" else 2

    # slot j: the environment at cut j the sweep reads next, the left one
    # left of the window and the right one right of it
    envs = all_right_envs(state, op, state, ledger)
    envs[0] = boundary_env()

    trace = SweepTrace()

    def flops():
        return ledger.total_flops() if ledger is not None else 0.0

    schedule = Schedule(config, op.dims, forcing=k == 2)
    for hs in range(1, config.max_half_sweeps + 1):
        going_right = hs % 2 == 1
        last_energy = None
        unconverged = 0

        # going left, the window's last site runs from d - 1 down to 1
        sites = range(0, d - 1) if going_right else range(d - k, 1 - k, -1)

        for i in sites:
            envs[i + 1 : i + k] = [None] * (k - 1)  # the inner cut is stale until written
            local = local_matvec(envs[i], op.cores[i : i + k], envs[i + k], ledger)
            update, res = _solve(
                local, _merge_cores(cores[i : i + k]), schedule.eig_tol, config.eig_max_iter,
                config.seed, ledger,
            )
            if k == 1:
                cores[i] = update
                discarded = 0.0
                (qr_step if going_right else lq_step)(cores, i, ledger)
            else:
                direction = "LR" if going_right else "RL"
                cores[i], cores[i + 1], discarded = split_and_shift(
                    update, direction, config.max_rank, config.svd_tol, ledger
                )
            if going_right:
                envs[i + 1] = update_left_env(envs[i], cores[i], op.cores[i], cores[i], ledger)
            else:
                j = i + k - 1
                envs[j] = update_right_env(envs[j + 1], cores[j], op.cores[j], cores[j], ledger)

            last_energy = res.eigenvalue
            unconverged += not res.converged
            trace.micro.append(
                MicroRecord(
                    half_sweep=hs,
                    site=i,
                    energy=float(res.eigenvalue),
                    lanczos_iterations=res.iterations,
                    discarded_weight=float(discarded),
                    flops_cumulative=flops(),
                    lanczos_converged=bool(res.converged),
                    lanczos_residual=float(res.residual_norm),
                    local_eig_tol=schedule.eig_tol,
                )
            )

        warn_unconverged(f"half-sweep {hs}", unconverged, len(sites))
        trace.half_sweep_energies.append(float(last_energy))
        # the first half-sweep's change runs from its first micro-step; it cannot stop the run
        before = trace.half_sweep_energies[-2] if hs > 1 else trace.micro[-len(sites)].energy
        if schedule.converged(before, last_energy, may_stop=hs > 1):
            trace.converged = True
            break

    if not trace.converged:
        warn_exhausted("max_half_sweeps", config.max_half_sweeps)
    center = d - 1 if len(trace.half_sweep_energies) % 2 == 1 else 0
    return TensorTrain(cores, center=center), trace
