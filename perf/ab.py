"""In-process A/B timing of two source trees on the benchmark workloads.

Loads the ``src/ttdmrg`` package of two trees into one interpreter under
distinct names (``ttdmrg_a``, ``ttdmrg_b``), with ``OPENBLAS_NUM_THREADS``
pinned to 1 before numpy loads, and rebuilds each workload of
``bench/workloads.py`` (read, never changed) once against each package.
Per workload and seed it alternates whole solves in ABBA rounds: A solves
every start, then B, then B again, then A again, each solve timed by the
process's CPU time (``time.process_time``).  Each round gives two pairs of
summed solve times, and it prints the median of the pair ratios B/A with a
bootstrap 95% interval.  From the first round it prints, per start, the
flops ratios B/A (ledger ``total_flops`` and ``cost_per_processor``), the
iteration counts of A and B, the relative energy difference, and whether
the two runs agree exactly: ``ledger_equal`` (equal ``CostLedger.report()``)
and ``energies_equal`` (equal energy sequences and final energies), so
that a refactor's claim of bitwise equal results takes one command.

    python3 perf/ab.py --a ../parent --b .
    python3 perf/ab.py --a . --b . --workload a2dmrg1-heis-d16-r16-w2 --rounds 4

Running a tree against itself (A/A) should give an interval that contains
1.  The last line of standard output is one JSON object with the numbers.
"""

import argparse
import importlib.util
import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def pair_ratios(times_a, times_b):
    """B/A for each pair of timings."""
    if len(times_a) != len(times_b) or not times_a:
        raise ValueError("need equally many A and B timings, at least one")
    return [b / a for a, b in zip(times_a, times_b)]


def quantile(values, q):
    """The ``q`` quantile of ``values`` by linear interpolation between the
    order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_interval(ratios, level=0.95, resamples=2000, seed=0):
    """``(median, low, high)``: the median of ``ratios`` and a percentile
    bootstrap interval of it at ``level``, from ``resamples`` draws with
    replacement of a seeded generator (repeatable)."""
    if not ratios:
        raise ValueError("no ratios")
    rng = random.Random(seed)
    n = len(ratios)
    medians = [statistics.median(rng.choices(ratios, k=n)) for _ in range(resamples)]
    tail = (1.0 - level) / 2.0
    return statistics.median(ratios), quantile(medians, tail), quantile(medians, 1.0 - tail)


def load_tree(root, name):
    """The ``src/ttdmrg`` package of the tree ``root``, imported as ``name``
    (the package imports its own modules only relatively)."""
    src = Path(root).resolve() / "src" / "ttdmrg"
    if not (src / "__init__.py").is_file():
        sys.exit(f"error: no package at {src}")
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_workloads(package, name):
    """``bench/workloads.py`` executed as module ``name`` with its ``from
    ttdmrg import ...`` bound to ``package``."""
    saved = sys.modules.get("ttdmrg")
    sys.modules["ttdmrg"] = package
    try:
        spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["ttdmrg"]
        else:
            sys.modules["ttdmrg"] = saved
    return module


class Side:
    """One tree's package, workload module and inputs for one workload and seed."""

    def __init__(self, package, workloads, name, seed):
        self.package = package
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]
        self.op = self.workload.operator()
        self.inits = [self.workload.start(self.op, seed, k) for k in range(self.workload.starts)]

    def solve(self, k):
        """``(cpu seconds, Solve, ledger)`` of one solve of start ``k``."""
        ledger = self.package.CostLedger()
        t0 = time.process_time()
        state, trace = self.workloads.run_solver(self.workload, self.op, self.inits[k], ledger)
        seconds = time.process_time() - t0
        return seconds, self.workloads.outcome(self.workload, self.op, state, trace), ledger


def sweep(side):
    """Solve every start once: ``(summed seconds, [(Solve, ledger)] per start)``."""
    total, runs = 0.0, []
    for k in range(len(side.inits)):
        seconds, result, ledger = side.solve(k)
        total += seconds
        runs.append((result, ledger))
    return total, runs


def compare_starts(runs_a, runs_b):
    """Per start: the flops ratios B/A, both iteration counts, the
    relative energy difference of B from A, and whether the ledger reports
    and the energies (the sequence and the final one) are equal."""
    rows = []
    for k, ((ra, la), (rb, lb)) in enumerate(zip(runs_a, runs_b)):
        rows.append({
            "start": k,
            "flops_total_ratio": lb.total_flops() / la.total_flops(),
            "flops_cpp_ratio": lb.cost_per_processor() / la.cost_per_processor(),
            "iterations": [ra.iterations, rb.iterations],
            "energy_rel_diff": (rb.energy - ra.energy) / abs(ra.energy),
            "ledger_equal": la.report() == lb.report(),
            "energies_equal": ra.energies == rb.energies and ra.energy == rb.energy,
        })
    return rows


def run_workload(sides, rounds):
    """ABBA rounds over one workload; returns the timings and the first
    round's per-start comparison."""
    a, b = sides
    times_a, times_b, first = [], [], None
    for _ in range(rounds):
        ta1, runs_a = sweep(a)
        tb1, runs_b = sweep(b)
        tb2, _ = sweep(b)
        ta2, _ = sweep(a)
        times_a += [ta1, ta2]
        times_b += [tb1, tb2]
        if first is None:
            first = compare_starts(runs_a, runs_b)
    return times_a, times_b, first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="root of tree A (the parent)")
    parser.add_argument("--b", required=True, help="root of tree B (the change)")
    parser.add_argument("--workload", action="append",
                        help="a workload of bench/workloads.py (repeatable; default all)")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed (repeatable; default 0)")
    parser.add_argument("--rounds", type=int, default=8, help="ABBA rounds (two pairs each)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if "numpy" in sys.modules:
        sys.exit("error: numpy was imported before OPENBLAS_NUM_THREADS was pinned")
    sys.path.insert(0, str(BENCH))  # workloads.py imports references.py by name
    packages = [load_tree(args.a, "ttdmrg_a"), load_tree(args.b, "ttdmrg_b")]
    modules = [load_workloads(p, f"workloads_{s}") for p, s in zip(packages, "ab")]
    names = args.workload or list(modules[0].WORKLOADS)
    seeds = args.seed or [0]

    report = {"a": str(Path(args.a).resolve()), "b": str(Path(args.b).resolve()),
              "rounds": args.rounds, "workloads": {}}
    for name in names:
        for seed in seeds:
            sides = [Side(p, m, name, seed) for p, m in zip(packages, modules)]
            times_a, times_b, starts = run_workload(sides, args.rounds)
            median, lo, hi = median_interval(pair_ratios(times_a, times_b))
            print(f"{name} seed {seed}: solve-time ratio B/A {median:.4f} "
                  f"(95% interval {lo:.4f}-{hi:.4f}, {len(times_a)} pairs; "
                  f"A median {statistics.median(times_a):.3f} s, "
                  f"B median {statistics.median(times_b):.3f} s)")
            for row in starts:
                print(f"  start {row['start']}: flops_total B/A {row['flops_total_ratio']:.6f}  "
                      f"flops_cpp B/A {row['flops_cpp_ratio']:.6f}  "
                      f"iterations {row['iterations'][0]}/{row['iterations'][1]}  "
                      f"energy rel diff {row['energy_rel_diff']:.2e}  "
                      f"ledger_equal {row['ledger_equal']}  "
                      f"energies_equal {row['energies_equal']}")
            report["workloads"][f"{name} seed {seed}"] = {
                "ratio_median": median, "ratio_low": lo, "ratio_high": hi,
                "times_a": times_a, "times_b": times_b, "starts": starts,
            }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
