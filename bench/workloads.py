"""The benchmark's fixed ground-state workloads and their correctness gate.

Every workload solves one model from normalized rank-2 random starts.  A run
with seed ``s`` solves the starts ``random_tt(op.dims, 2, s * starts + k)``
for ``k < starts``, each scaled to unit norm, so one seed always gives the
same inputs and different seeds give disjoint ones.  Why each workload was
chosen is in ``bench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from references import heisenberg_reference, ising_reference
from ttdmrg import (
    SweepConfig,
    TwoLevelConfig,
    heisenberg_chain,
    ising_chain,
    random_tt,
    rayleigh_quotient,
    run_dmrg,
    run_two_level,
    tt_scale,
)

# A run fails when the returned energy is further than this from the reference.
MAX_REL_ERR = 1e-5
# A Rayleigh quotient cannot sit below the ground energy by more than roundoff.
VARIATIONAL_SLACK = 1e-10

SOLVER_TOLS = dict(eig_tol=1e-8, energy_tol=1e-6)


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    sites: int
    config: object
    starts: int

    @property
    def workers(self):
        return getattr(self.config, "workers", 1)

    @property
    def classical(self):
        return isinstance(self.config, SweepConfig)

    def operator(self):
        if self.model == "ising":
            return ising_chain(self.sites, coupling=1.0, field=1.0)
        return heisenberg_chain(self.sites)

    def reference(self):
        if self.model == "ising":
            return ising_reference(self.sites)
        return heisenberg_reference(self.sites)

    def start(self, op, seed, k):
        x = random_tt(op.dims, 2, seed=seed * self.starts + k)
        return tt_scale(x, 1.0 / x.norm())

    def serial(self):
        """The same workload with the thread pool bypassed."""
        return replace(self, config=replace(self.config, workers=1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dmrg2-heis-d48-r64", "heisenberg", 48,
            SweepConfig(mode="two-site", max_rank=64, svd_tol=0.0, **SOLVER_TOLS),
            starts=6,
        ),
        Workload(
            "a2dmrg2-ising-d20-r16", "ising", 20,
            TwoLevelConfig(mode="two-site", max_rank=16, workers=1, **SOLVER_TOLS),
            starts=3,
        ),
        Workload(
            "a2dmrg1-heis-d16-r16-w2", "heisenberg", 16,
            TwoLevelConfig(mode="one-site", max_rank=16, workers=2, **SOLVER_TOLS),
            starts=4,
        ),
    )
}


class Problem:
    """Everything a run builds before its first solver call."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.op = workload.operator()
        self.inits = [workload.start(self.op, seed, k) for k in range(workload.starts)]
        self.reference, self.provenance = workload.reference()


@dataclass
class Solve:
    """What one solver call returned, reduced to what the gate and the
    invariance checks compare."""

    energy: float
    energies: tuple
    iterations: int
    converged: bool


def run_solver(workload, op, init, ledger):
    """The one solver call a run times; returns ``(state, trace)``."""
    runner = run_dmrg if workload.classical else run_two_level
    return runner(init, op, workload.config, ledger=ledger)


def outcome(workload, op, state, trace):
    """Reduce a solver's return value; the energy is the Rayleigh quotient
    of the returned state."""
    if workload.classical:
        energies = tuple(m.energy for m in trace.micro) + tuple(trace.half_sweep_energies)
        iterations = len(trace.half_sweep_energies)
    else:
        energies = tuple(trace.energies())
        iterations = len(trace.records)
    return Solve(
        energy=float(rayleigh_quotient(state, op)),
        energies=energies,
        iterations=iterations,
        converged=bool(trace.converged),
    )


def rel_err(energy, reference):
    return abs(energy - reference) / abs(reference)


def gate(result, reference):
    """Reasons the solve fails the correctness gate; empty when it passes."""
    reasons = []
    if not result.converged:
        reasons.append("converged=False")
    if not math.isfinite(result.energy):
        reasons.append(f"energy {result.energy}")
        return reasons
    err = rel_err(result.energy, reference)
    if err > MAX_REL_ERR:
        reasons.append(f"energy_rel_err {err:.3e} > {MAX_REL_ERR:g}")
    if result.energy < reference - VARIATIONAL_SLACK * abs(reference):
        reasons.append(f"energy {result.energy!r} below the reference {reference!r}")
    return reasons
