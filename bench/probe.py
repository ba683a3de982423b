"""False-convergence probe for the two-level solver (ROADMAP item 1).

Runs two-site two-level DMRG on ``ising_chain(24)`` from the raw, unnormalized
``random_tt`` start the command-line tool uses, with the iteration count
capped, and reports FAIL when the run claims convergence while its energy is
further from the free-fermion reference than the benchmark's gate allows.
Untimed; exits 1 on FAIL so the known defect stays visible:

    python3 bench/probe.py
"""

import sys

import run

MAX_ITERS = 8


def main():
    run.import_package()
    from dataclasses import replace

    from ttdmrg import random_tt
    from workloads import MAX_REL_ERR, WORKLOADS, outcome, rel_err, run_solver

    workload = WORKLOADS["a2dmrg2-ising-d20-r16"]
    workload = replace(workload, sites=24, config=replace(workload.config, max_iters=MAX_ITERS))
    op = workload.operator()
    reference, provenance = workload.reference()
    state, trace = run_solver(workload, op, random_tt(op.dims, 2, seed=0), None)
    result = outcome(workload, op, state, trace)
    err = rel_err(result.energy, reference)
    false_convergence = result.converged and err > MAX_REL_ERR
    print(f"probe a2dmrg2-ising-d24-r16 raw start: {'FAIL' if false_convergence else 'PASS'}  "
          f"energy {result.energy!r} against {reference!r} ({provenance}), "
          f"energy_rel_err {err:.3e}, converged={result.converged} after "
          f"{result.iterations} of at most {MAX_ITERS} iterations")
    print(f"failed/attempted {int(false_convergence)}/1")
    return 1 if false_convergence else 0


if __name__ == "__main__":
    sys.exit(main())
