"""Falsification sweep: a run that reports ``converged=True`` must be near
the ground state.

Every solver runs on seeded random symmetric operators small enough for the
dense oracle, and each converged run is checked against the best final
error any solver reached on the same instance (differential testing with an
exact oracle).  A solver that stops on a stalled energy far above the
ground state is caught here even when its own stop test is satisfied.
"""

import warnings

import pytest

from ttdmrg.dmrg import SweepConfig, run_dmrg
from ttdmrg.models import dense_ground_state, random_symmetric_mpo
from ttdmrg.tt import random_tt
from ttdmrg.twolevel import TwoLevelConfig, run_two_level

CAP = 8
ENERGY_TOL = 1e-8

# (sites, local dimension, operator rank, seed); all fit under the dense cap
INSTANCES = [(10, 2, 2, 1), (10, 2, 3, 2), (10, 2, 3, 3), (6, 3, 2, 4), (6, 3, 3, 5), (6, 3, 2, 6)]

# name -> (config, start rank)
SOLVERS = {
    "dmrg2": (SweepConfig(mode="two-site", max_rank=CAP, energy_tol=ENERGY_TOL), 2),
    # a one-site sweep never grows a rank, so it starts at the cap; a lower
    # start is refused (below)
    "dmrg1": (SweepConfig(mode="one-site", max_rank=CAP, energy_tol=ENERGY_TOL), CAP),
    "a2dmrg1": (TwoLevelConfig(mode="one-site", max_rank=CAP, energy_tol=ENERGY_TOL), 2),
    "a2dmrg2": (TwoLevelConfig(mode="two-site", max_rank=CAP, energy_tol=ENERGY_TOL), 2),
    "a2dmrg2-structured": (
        TwoLevelConfig(mode="two-site", max_rank=CAP, energy_tol=ENERGY_TOL,
                       structured_coarse=True),
        2,
    ),
}


def final_energy(op, config, rank, seed):
    init = random_tt(op.dims, rank, seed=seed)
    with warnings.catch_warnings():
        # an unconverged run is not what this sweep checks
        warnings.simplefilter("ignore", RuntimeWarning)
        if isinstance(config, SweepConfig):
            _, trace = run_dmrg(init, op, config)
            return trace.half_sweep_energies[-1], trace.converged
        _, trace = run_two_level(init, op, config)
        return trace.energies()[-1], trace.converged


@pytest.mark.parametrize("sites, n, rank, seed", INSTANCES)
def test_converged_runs_end_near_the_ground_state(sites, n, rank, seed):
    op = random_symmetric_mpo(sites, n=n, rank=rank, seed=seed)
    e_ref, _ = dense_ground_state(op)
    # from the others' rank-2 start a one-site sweep could report
    # convergence at a rank it cannot leave, so it refuses that start
    with pytest.raises(ValueError, match="one-site sweeps keep the start's bonds"):
        run_dmrg(random_tt(op.dims, 2, seed=seed), op, SOLVERS["dmrg1"][0])
    runs = {}
    for name, (config, start_rank) in SOLVERS.items():
        energy, converged = final_energy(op, config, start_rank, seed)
        runs[name] = (abs(energy - e_ref) / abs(e_ref), converged)
    bound = max(10 * min(error for error, _ in runs.values()), 1e-9)
    false = {name: error for name, (error, converged) in runs.items()
             if converged and error > bound}
    assert not false, f"converged above {bound:.1e}: {false}"
