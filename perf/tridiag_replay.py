"""Replay the Lanczos tridiagonals of the benchmark workloads.

Solves one start of each workload in ``bench/workloads.py`` (imported
read-only) and captures every diagonal/off-diagonal sequence its Lanczos
solves build.  Then it replays each sequence through the package's
incremental step (``ttdmrg.eigen._LowestRitz``), one call per Lanczos step,
and, when scipy is installed, through the LAPACK pair ``?stebz`` + ``?stein``
that ``scipy.linalg.eigh_tridiagonal`` runs for one eigenpair by index.  It
prints, per workload, the microseconds per call of each (per sequence the
fastest of ``--repeats`` rounds, the two sides alternating sequence by
sequence, summed over the sequences) and the largest deviations of the step
from LAPACK: theta relative to ``max(1, |theta|)``, ``|s_k|`` relative, and
the eigenvector (same sign convention, largest entry positive).

    python3 perf/tridiag_replay.py
    python3 perf/tridiag_replay.py --workload a2dmrg2-ising-d20-r16 --seed 1 --start 2

The last line of standard output is one JSON object with the numbers.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from ttdmrg import CostLedger, eigen  # noqa: E402
from workloads import WORKLOADS, Problem, run_solver  # noqa: E402


def capture(workload, seed, start):
    """Every (alpha, beta) sequence the solve of one start adds to a
    tridiagonal step, and how many of its steps went to the dense fallback."""
    sequences, dense = [], [0]
    step = eigen._LowestRitz

    class Recording(step):
        __slots__ = ("seq",)

        def __init__(self):
            super().__init__()
            self.seq = []
            sequences.append(self.seq)

        def add(self, alpha, beta):
            self.seq.append((alpha, beta))
            return super().add(alpha, beta)

        def _dense(self):
            dense[0] += 1
            return super()._dense()

    problem = Problem(workload, seed)
    eigen._LowestRitz = Recording
    try:
        run_solver(workload, problem.op, problem.inits[start], CostLedger())
    finally:
        eigen._LowestRitz = step
    return [seq for seq in sequences if seq], dense[0]


def replay(sequences):
    """``(theta, |s_k|, s)`` after every call of the package's step."""
    out = []
    for seq in sequences:
        ritz = eigen._LowestRitz()
        for alpha, beta in seq:
            theta, sk = ritz.add(alpha, beta)
            out.append((theta, sk, ritz.vector()))
    return out


def lapack_pair():
    """The ?stebz/?stein pair as a function of (alphas, betas) arrays, or
    None without scipy."""
    try:
        from scipy.linalg import get_lapack_funcs
    except ImportError:
        return None
    stebz, stein = get_lapack_funcs(("stebz", "stein"), (np.zeros(1),))

    def lowest(alphas, betas):
        if len(alphas) == 1:
            return float(alphas[0]), np.ones(1)
        m, w, iblock, isplit, info = stebz(alphas, betas, 2, 0.0, 1.0, 1, 1, 0.0, "B")
        v, info = stein(alphas, betas, w[:m], iblock, isplit)
        return w[0], v[:, 0]

    return lowest


def prefixes(seq):
    """The (alphas, betas) arrays of every call of one sequence, as the LAPACK
    pair takes them."""
    alphas = np.array([a for a, _ in seq])
    betas = np.array([b for _, b in seq[1:]])
    return [(alphas[:k], betas[: k - 1]) for k in range(1, len(seq) + 1)]


def run(name, seed, start, repeats):
    sequences, dense = capture(WORKLOADS[name], seed, start)
    ncalls = sum(len(seq) for seq in sequences)
    row = {"workload": name, "sequences": len(sequences), "calls": ncalls,
           "max_k": max(len(seq) for seq in sequences), "dense_fallbacks": dense}
    lowest = lapack_pair()
    calls = [prefixes(seq) for seq in sequences]
    # each sequence's fastest replay by each side, the sides alternating
    # sequence by sequence so that both see the same host load
    best_step = [float("inf")] * len(sequences)
    best_lapack = [float("inf")] * len(sequences)
    clock = time.perf_counter
    for _ in range(repeats):
        for i, seq in enumerate(sequences):
            t0 = clock()
            ritz = eigen._LowestRitz()
            for alpha, beta in seq:
                ritz.add(alpha, beta)
            t1 = clock()
            best_step[i] = min(best_step[i], t1 - t0)
            if lowest is not None:
                for alphas, betas in calls[i]:
                    lowest(alphas, betas)
                best_lapack[i] = min(best_lapack[i], clock() - t1)
    best_step, best_lapack = sum(best_step), sum(best_lapack)
    row["step_us"] = 1e6 * best_step / ncalls
    if lowest is None:
        return row
    row["lapack_us"] = 1e6 * best_lapack / ncalls
    dtheta = dsk = dvec = 0.0
    flat = [call for seq_calls in calls for call in seq_calls]
    for (theta, sk, s), (alphas, betas) in zip(replay(sequences), flat):
        w, v = lowest(alphas, betas)
        dtheta = max(dtheta, abs(theta - w) / max(1.0, abs(w)))
        dsk = max(dsk, abs(sk - abs(v[-1])) / abs(v[-1]))
        dvec = max(dvec, float(np.abs(s - v).max()))
    row.update(theta_rel_dev=dtheta, sk_rel_dev=dsk, vector_dev=dvec)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to replay (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    rows = []
    for name in args.workload or list(WORKLOADS):
        row = run(name, args.seed, args.start, args.repeats)
        rows.append(row)
        line = (f"{name}: {row['calls']} calls in {row['sequences']} sequences, k <= "
                f"{row['max_k']}, {row['dense_fallbacks']} dense fallbacks; "
                f"step {row['step_us']:.2f} us/call")
        if "lapack_us" in row:
            line += (f", ?stebz+?stein {row['lapack_us']:.2f} us/call; max deviation: "
                     f"theta {row['theta_rel_dev']:.1e} rel, |s_k| {row['sk_rel_dev']:.1e} rel, "
                     f"vector {row['vector_dev']:.1e}")
        print(line, flush=True)
    print(json.dumps({"seed": args.seed, "start": args.start, "repeats": args.repeats,
                      "numpy": np.__version__, "rows": rows}))


if __name__ == "__main__":
    main()
