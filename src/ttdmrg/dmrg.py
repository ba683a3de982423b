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
    local_matvec,
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
    # local: the (matvec, dim, shape) of mpo.local_matvec
    matvec, dim, shape = local
    res = lanczos_lowest(
        matvec, dim, v0=v0.ravel(), tol=tol, max_iter=max_iter, seed=seed, ledger=ledger
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
    k = 1 if config.mode == "one-site" else 2

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

        # going left, the window's last site runs from d - 1 down to 1
        sites = range(0, d - 1) if going_right else range(d - k, 1 - k, -1)

        for i in sites:
            local = local_matvec(left_envs[i], op.cores[i : i + k], right_envs[i + k], ledger)
            update, res = _solve(
                local, _merge_cores(cores[i : i + k]), config.eig_tol, config.eig_max_iter,
                config.seed, ledger,
            )
            if k == 1:
                cores[i] = update
                discarded = 0.0
                shift = _shift_center_right if going_right else _shift_center_left
                shift(cores, i, ledger)
            else:
                direction = "LR" if going_right else "RL"
                cores[i], cores[i + 1], discarded = split_and_shift(
                    update, direction, config.max_rank, config.svd_tol, ledger
                )
            if going_right:
                left_envs[i + 1] = update_left_env(
                    left_envs[i], cores[i], op.cores[i], cores[i], ledger
                )
            else:
                j = i + k - 1
                right_envs[j] = update_right_env(
                    right_envs[j + 1], cores[j], op.cores[j], cores[j], ledger
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
