"""Transient memory of the two-level local solves and coarse assembly at
large operator bond.

Each case runs ``run_two_level`` on ``random_symmetric_mpo(16, n=2,
rank=40, seed=0)`` (operator bond 80) from a rank-r ``random_tt`` start,
seed 0, for 3 iterations with ``eig_tol`` and ``energy_tol`` 1e-6:
one-site at r = 32 and 64, two-site at r = 64.  For the run,
``local_solves`` and ``assemble_coarse`` are rebound in ``ttdmrg.twolevel``
(the names ``run_two_level`` calls), and each call records its transient:
the tracemalloc peak during the call above the traced level at its entry.
Per case it prints the largest transient of each phase, the traced peak of
the whole run and the process's ``ru_maxrss``, each case in a child process
of its own (``OPENBLAS_NUM_THREADS`` pinned to 1) so that ``ru_maxrss`` is
that case's.  The last line of standard output is one JSON object with the
numbers, in MiB.

    python3 perf/coarse_memory.py
    python3 perf/coarse_memory.py --case one-site-r32
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = 1024.0 * 1024.0

# name -> (mode, start rank)
CASES = {
    "one-site-r32": ("one-site", 32),
    "one-site-r64": ("one-site", 64),
    "two-site-r64": ("two-site", 64),
}
PHASES = ("local_solves", "assemble_coarse")


def measure(mode, rank, sites=16, op_rank=40, iters=3):
    """Run one case in this process: ``{"<phase>_mib": largest transient,
    "traced_peak_mib": ..., "calls": {phase: count}}``."""
    from ttdmrg import TwoLevelConfig, random_symmetric_mpo, random_tt, run_two_level, twolevel

    op = random_symmetric_mpo(sites, n=2, rank=op_rank, seed=0)
    init = random_tt(op.dims, rank, seed=0)
    config = TwoLevelConfig(mode=mode, max_rank=rank, max_iters=iters, eig_tol=1e-6,
                            energy_tol=1e-6)
    transients = {phase: [] for phase in PHASES}
    peak = 0

    def probed(phase, real):
        def call(*args, **kwargs):
            nonlocal peak
            entry, before = tracemalloc.get_traced_memory()
            peak = max(peak, before)
            tracemalloc.reset_peak()
            try:
                return real(*args, **kwargs)
            finally:
                after = tracemalloc.get_traced_memory()[1]
                peak = max(peak, after)
                transients[phase].append(after - entry)
        return call

    reals = {phase: getattr(twolevel, phase) for phase in PHASES}
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for phase, real in reals.items():
            setattr(twolevel, phase, probed(phase, real))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # max_iters is reached on purpose
            run_two_level(init, op, config)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        for phase, real in reals.items():
            setattr(twolevel, phase, real)
        if started:
            tracemalloc.stop()
    out = {f"{phase}_mib": max(transients[phase]) / MIB for phase in PHASES}
    out["traced_peak_mib"] = peak / MIB
    out["calls"] = {phase: len(transients[phase]) for phase in PHASES}
    return out


def run_child(name):
    """One case in a child process, with its own ``ru_maxrss``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--child", name], capture_output=True,
                         text=True, env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", action="append", choices=list(CASES),
                        help="a case (repeatable; default all)")
    parser.add_argument("--child", choices=list(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path.insert(0, str(ROOT / "src"))
        result = measure(*CASES[args.child])
        # ru_maxrss is in KiB on Linux
        result["ru_maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result))
        return

    report = {}
    for name in args.case or list(CASES):
        report[name] = r = run_child(name)
        print(f"{name}: assembly transient {r['assemble_coarse_mib']:.1f} MiB, "
              f"local-solves transient {r['local_solves_mib']:.1f} MiB, "
              f"traced peak {r['traced_peak_mib']:.1f} MiB, "
              f"ru_maxrss {r['ru_maxrss_mib']:.0f} MiB")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
