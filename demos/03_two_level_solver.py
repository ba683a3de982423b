"""The additive two-level solver, step by step and end to end.

Every global iteration does four things:

  1. put the current iterate into an orthogonal family (one gauge per site),
  2. solve all local eigenproblems independently (the ledger books each as
     its own parallel task; they run one after another in this process),
  3. minimize over the span of the previous iterate and all local updates
     (a small dense eigenproblem after whitening),
  4. compress the minimizer back to the rank budget: build the sum as one
     exact train (three rails in two-site mode, from the split factors of
     each pair) and round it once.

The coarse step is what makes the parallel solves cooperate: its energy
is never above the previous iterate or any single update.
"""

from ttdmrg import (
    CostLedger,
    TwoLevelConfig,
    dense_ground_state,
    heisenberg_chain,
    random_tt,
    run_two_level,
)

d = 8
op = heisenberg_chain(d)
e_ref, _ = dense_ground_state(op)
print(f"Heisenberg d={d}: dense ground energy {e_ref:.12f}\n")

cfg = TwoLevelConfig(mode="two-site", max_rank=16, eig_tol=1e-8, energy_tol=1e-10, workers=4)
ledger = CostLedger()
state, trace = run_two_level(
    random_tt(op.dims, 2, seed=0), op, cfg, ledger=ledger, reference_energy=e_ref
)

print("iter   energy            error      coarse p   coarse <= best update")
for r in trace.records:
    descends = r.coarse_energy <= min(r.prev_energy, r.min_update_energy) + 1e-10
    print(
        f"  {r.global_iter}    {r.energy:+.12f}  {r.energy_error_vs_reference / abs(e_ref):.2e}"
        f"   {r.coarse_p:2d}        {descends}"
    )
print(f"\nconverged {trace.converged} at ranks {state.ranks}")
print(f"last compression error (fit_residual) {trace.records[-1].fit_residual:.2e}")

# The worker count is accepted for existing configurations but changes
# neither the results nor the wall time: the independent tasks always run
# serially in the calling thread (a thread pool only slowed them down), and
# their parallel cost is the ledger's cost_per_processor under per-task tags.
energies = {}
for workers in (1, 4, 8):
    led = CostLedger()
    _, tr = run_two_level(
        random_tt(op.dims, 2, seed=0), op,
        TwoLevelConfig(mode="two-site", max_rank=16, eig_tol=1e-8, energy_tol=1e-10, workers=workers),
        ledger=led,
    )
    energies[workers] = (tr.energies(), led.report())
same = all(v == energies[1] for v in energies.values())
print(f"worker counts 1/4/8 give identical energies and ledgers: {same}")
