"""Alternating ground-state sweeps over a tensor train.

One half-sweep optimizes sites left to right or right to left while the
train stays site-orthogonal around the active site.  Environments are
reused across the sweep: all right environments are built once before
the first pass, left environments are extended on the fly as the center
moves right, and right environments are refreshed on the way back, so
every local solve sees environments that match the current cores.

The one-site mode keeps bond dimensions fixed.  The two-site mode solves
on a merged pair of sites and re-splits with a truncated SVD, so ranks
can grow up to ``max_rank`` and the discarded singular value weight is
recorded per micro-step.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from .eigen import lanczos_lowest
from .ledger import contract, svd_flops
from .mpo import (
    all_right_envs,
    boundary_env,
    left_env,
    local_matvec_1site,
    local_matvec_2site,
    right_env,
    update_left_env,
    update_right_env,
)
from .tt import TensorTrain, _rank_keep, orthogonalize, qr_fixed, svd_fixed


@dataclass
class SweepConfig:
    """Knobs for :func:`run_dmrg`.

    Parameters
    ----------
    mode : {"one-site", "two-site"}
        Local update width.
    max_rank : int
        Bond dimension cap applied at two-site splits.
    svd_tol : float
        Relative singular value cutoff at splits (0 keeps everything
        up to ``max_rank``).
    eig_tol : float
        Residual tolerance handed to the local Lanczos solves.
    energy_tol : float
        Relative energy change between half-sweeps that counts as
        converged.
    max_half_sweeps : int
        Hard stop on the number of half-sweeps.
    eig_max_iter : int or None
        Iteration cap per local solve (None picks the solver default).
    seed : int
        Seed for the local solver's restart draws.
    """

    mode: str = "two-site"
    max_rank: int = 16
    svd_tol: float = 0.0
    eig_tol: float = 1e-8
    energy_tol: float = 1e-8
    max_half_sweeps: int = 40
    eig_max_iter: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("one-site", "two-site"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if self.max_rank < 1:
            raise ValueError("max_rank must be positive")
        if self.max_half_sweeps < 1:
            raise ValueError("max_half_sweeps must be positive")


@dataclass
class MicroRecord:
    half_sweep: int
    site: int
    energy: float
    lanczos_iterations: int
    discarded_weight: float
    flops_cumulative: float
    lanczos_converged: bool
    lanczos_residual: float


@dataclass
class SweepTrace:
    micro: list = field(default_factory=list)
    half_sweep_energies: list = field(default_factory=list)
    converged: bool = False

    def for_half_sweep(self, half_sweep):
        return [m for m in self.micro if m.half_sweep == half_sweep]

    def to_csv(self):
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "half_sweep",
                "site",
                "energy",
                "lanczos_iterations",
                "discarded_weight",
                "flops_cumulative",
                "lanczos_converged",
                "lanczos_residual",
            ]
        )
        for m in self.micro:
            writer.writerow(
                [
                    m.half_sweep,
                    m.site,
                    repr(m.energy),
                    m.lanczos_iterations,
                    repr(m.discarded_weight),
                    repr(m.flops_cumulative),
                    int(m.lanczos_converged),
                    repr(m.lanczos_residual),
                ]
            )
        return buf.getvalue()


def _solve(local, v0, tol, max_iter, seed, ledger):
    # local: the (matvec, dim, shape) of mpo.local_matvec_1site / _2site
    matvec, dim, shape = local
    res = lanczos_lowest(
        matvec, dim, v0=v0.ravel(), tol=tol, max_iter=max_iter, seed=seed, ledger=ledger
    )
    return res.eigenvector.reshape(shape), res


def micro_step_1site(state, op, tol=1e-8, max_iter=None, seed=0, ledger=None):
    """Solve the projected problem at the current center site.

    Environments are built from scratch, so this is the right entry
    point for isolated local solves.  Returns the updated center core
    and the solver result; the caller re-installs the core.
    """
    i = state.center
    if i is None:
        raise ValueError("state must be site-orthogonal around the active site")
    env_l = left_env(state, op, state, i, ledger)
    env_r = right_env(state, op, state, i + 1, ledger)
    local = local_matvec_1site(env_l, op.cores[i], env_r, ledger)
    return _solve(local, state.cores[i], tol, max_iter, seed, ledger)


def micro_step_2site(state, op, tol=1e-8, max_iter=None, seed=0, ledger=None):
    """Solve the projected problem on the pair (center, center + 1).

    Returns the optimal merged block of shape (r, n_i, n_{i+1}, r') and
    the solver result; the caller splits the block.
    """
    i = state.center
    if i is None:
        raise ValueError("state must be site-orthogonal around the active site")
    if i + 1 >= state.d:
        raise ValueError("two-site step needs a right neighbor")
    env_l = left_env(state, op, state, i, ledger)
    env_r = right_env(state, op, state, i + 2, ledger)
    local = local_matvec_2site(env_l, op.cores[i], op.cores[i + 1], env_r, ledger)
    v0 = contract(None, "matvec", state.cores[i], state.cores[i + 1], ((2,), (0,)))
    return _solve(local, v0, tol, max_iter, seed, ledger)


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
        Truncation controls; singular values below ``svd_tol`` times
        the largest one are dropped.

    Returns
    -------
    left, right, discarded : ndarray, ndarray, float
        The two cores and the 2-norm of the dropped singular values.
    """
    r0, n1, n2, r3 = block.shape
    mat = block.reshape(r0 * n1, n2 * r3)
    u, s, vt = svd_fixed(mat)
    if ledger is not None:
        ledger.charge("svd", svd_flops(*mat.shape))
    k = _rank_keep(s, max_rank, svd_tol)
    discarded = float(np.sqrt(np.sum(s[k:] ** 2)))
    if direction == "LR":
        left = u[:, :k].reshape(r0, n1, k)
        right = (s[:k, None] * vt[:k]).reshape(k, n2, r3)
    elif direction == "RL":
        left = (u[:, :k] * s[:k]).reshape(r0, n1, k)
        right = vt[:k].reshape(k, n2, r3)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return left, right, discarded


def _shift_center_right(cores, i, ledger):
    # QR the center, push the triangular factor into the right neighbor.
    r0, n, r1 = cores[i].shape
    q, rmat = qr_fixed(cores[i].reshape(r0 * n, r1))
    cores[i] = q.reshape(r0, n, q.shape[1])
    cores[i + 1] = contract(None, "matmul", rmat, cores[i + 1], ((1,), (0,)))
    if ledger is not None:
        ledger.charge("qr", 4.0 * (r0 * n) * r1 * r1)


def _shift_center_left(cores, i, ledger):
    # LQ the center, push the triangular factor into the left neighbor.
    r0, n, r1 = cores[i].shape
    q, rmat = qr_fixed(cores[i].reshape(r0, n * r1).T)
    cores[i] = q.T.reshape(q.shape[1], n, r1)
    cores[i - 1] = contract(None, "matmul", cores[i - 1], rmat.T, ((2,), (0,)))
    if ledger is not None:
        ledger.charge("qr", 4.0 * (n * r1) * r0 * r0)


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
    if init.dims != op.dims:
        raise ValueError(f"state dims {init.dims} do not match operator dims {op.dims}")
    d = init.d
    if d < 2:
        raise ValueError("sweeping needs at least two sites")
    if init.norm() == 0.0:
        raise ValueError("initial state has zero norm")

    state = orthogonalize(init, 0, ledger)
    cores = list(state.cores)
    one_site = config.mode == "one-site"

    left_envs = [boundary_env()] * (d + 1)
    right_envs = [boundary_env()] * (d + 1)
    start = TensorTrain(cores, center=0)
    fresh = all_right_envs(start, op, start, ledger, op_class="env_build")
    for j in range(d + 1):
        right_envs[j] = fresh[j]

    trace = SweepTrace()

    def flops():
        return ledger.total_flops() if ledger is not None else 0.0

    energy = None
    for hs in range(1, config.max_half_sweeps + 1):
        going_right = hs % 2 == 1
        last_energy = None
        unconverged = 0

        if one_site:
            sites = range(0, d - 1) if going_right else range(d - 1, 0, -1)
        else:
            sites = range(0, d - 1) if going_right else range(d - 2, -1, -1)

        for i in sites:
            if one_site:
                local = local_matvec_1site(left_envs[i], op.cores[i], right_envs[i + 1], ledger)
                v0 = cores[i]
            else:
                local = local_matvec_2site(
                    left_envs[i], op.cores[i], op.cores[i + 1], right_envs[i + 2], ledger
                )
                v0 = contract(None, "matvec", cores[i], cores[i + 1], ((2,), (0,)))
            update, res = _solve(
                local, v0, config.eig_tol, config.eig_max_iter, config.seed, ledger
            )
            if one_site:
                cores[i] = update
                discarded = 0.0
                if going_right:
                    _shift_center_right(cores, i, ledger)
                    left_envs[i + 1] = update_left_env(
                        left_envs[i], cores[i], op.cores[i], cores[i], ledger
                    )
                else:
                    _shift_center_left(cores, i, ledger)
                    right_envs[i] = update_right_env(
                        right_envs[i + 1], cores[i], op.cores[i], cores[i], ledger
                    )
            else:
                direction = "LR" if going_right else "RL"
                left, right, discarded = split_and_shift(
                    update, direction, config.max_rank, config.svd_tol, ledger
                )
                cores[i] = left
                cores[i + 1] = right
                if going_right:
                    left_envs[i + 1] = update_left_env(
                        left_envs[i], cores[i], op.cores[i], cores[i], ledger
                    )
                else:
                    right_envs[i + 1] = update_right_env(
                        right_envs[i + 2], cores[i + 1], op.cores[i + 1], cores[i + 1], ledger
                    )

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
                )
            )

        if unconverged:
            warnings.warn(
                f"half-sweep {hs}: {unconverged} of {len(sites)} local Lanczos solves "
                "did not converge",
                RuntimeWarning,
                stacklevel=2,
            )

        trace.half_sweep_energies.append(float(last_energy))
        if energy is not None:
            denom = max(abs(last_energy), 1e-12)
            if abs(last_energy - energy) <= config.energy_tol * denom:
                trace.converged = True
                break
        energy = last_energy

    center = d - 1 if len(trace.half_sweep_energies) % 2 == 1 else 0
    return TensorTrain(cores, center=center), trace
