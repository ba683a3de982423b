"""Flop accounting and the parallel cost of paired solver runs.

Both solvers run on the same random symmetric operator at d=12 with the
same tolerances, each to its own stopping rule.  The ledger separates
sequential work from per-task work, so the cost per processor of the
two-level solver counts only its critical path: sequential steps plus
the most expensive single task.
"""

from ttdmrg import (
    CostLedger,
    SweepConfig,
    TwoLevelConfig,
    dense_ground_state,
    mpo_scale,
    random_symmetric_mpo,
    random_tt,
    rayleigh_quotient,
    run_dmrg,
    run_two_level,
)

# Random cores at this size give O(1e5) energies; scale to O(1).
op = mpo_scale(random_symmetric_mpo(12, n=2, rank=4, seed=0), 1e-5)
e_ref, _ = dense_ground_state(op, cap=2**26)
print(f"random symmetric operator d=12: dense ground energy {e_ref:.10f}\n")

for cap in (16, 32):
    led_c = CostLedger()
    state_c, _ = run_dmrg(
        random_tt(op.dims, 2, seed=0), op,
        SweepConfig(mode="two-site", max_rank=cap, svd_tol=0.0, eig_tol=1e-8, energy_tol=1e-8),
        ledger=led_c,
    )
    err_c = abs(rayleigh_quotient(state_c, op) - e_ref) / abs(e_ref)

    led_a = CostLedger()
    state_a, trace = run_two_level(
        random_tt(op.dims, 2, seed=0), op,
        TwoLevelConfig(mode="two-site", max_rank=cap, eig_tol=1e-8, energy_tol=1e-8),
        ledger=led_a,
    )
    err_a = abs(rayleigh_quotient(state_a, op) - e_ref) / abs(e_ref)

    speedup = led_c.cost_per_processor() / led_a.cost_per_processor()
    print(f"rank cap {cap}:")
    print(f"  classical  error {err_c:.2e}  cost/processor {led_c.cost_per_processor():.3e}")
    print(f"  two-level  error {err_a:.2e}  cost/processor {led_a.cost_per_processor():.3e}")
    print(f"  speedup {speedup:.2f}x at matched error\n")

print("two-level ledger at rank cap 32:\n")
print(led_a.format_report())
