"""Time-to-solution benchmark for classical and two-level DMRG.

One workload, one seed:

    python3 bench/run.py --workload dmrg2-heis-d48-r64 --seed 3 --seconds 30 --trace 0

``--trace 0`` times the solver from the seed's starts and prints the
end-to-end metrics; ``--trace 1`` solves the seed's first start untraced,
traced and (for a pooled workload) serially, checks that all of them agree
bit for bit, and prints the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without ``--workload`` every workload runs in turn, followed
by the false-convergence probe, and a summary table is printed.

The BLAS pool is pinned to one thread here, before numpy is imported; the
run refuses to report timings when the pin is not in effect.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

NUMPY_IMPORTED_BEFORE_PIN = "numpy" in sys.modules
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SECONDS = 30
SETUP_REPEATS = 7
CHILD_TIMEOUT = 170

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "energy_digits": "digits",
    "flops_total": "flop",
    "flops_cpp": "flop",
    "peak_rss_mib": "MiB",
}

SPAN_SECONDS = {
    "dmrg.split_s": "dmrg.split",
    "mpo.matvec_s": "mpo.matvec",
    "mpo.env_update_s": "mpo.env_update",
    "mpo.env_build_s": "mpo.env_build",
    "mpo.inner_s": "mpo.inner",
    "eigen.dense_s": "eigen.dense",
    "tt.inner_s": "tt.inner",
    "tt.round_s": "tt.round",
    "tt.family_s": "tt.family",
    "twolevel.local_solves_s": "twolevel.local_solves",
    "twolevel.assemble_coarse_s": "twolevel.assemble_coarse",
    "twolevel.solve_coarse_s": "twolevel.solve_coarse",
    "twolevel.compress_s": "twolevel.compress",
    "sums.fit_chain_s": "sums.fit_chain",
    "sums.member_train_s": "sums.member_train",
    "sums.materialize_s": "sums.materialize",
}

SPAN_CALLS = {
    "dmrg.split_calls": "dmrg.split",
    "mpo.matvec_calls": "mpo.matvec",
    "mpo.env_update_calls": "mpo.env_update",
    "eigen.lanczos_calls": "eigen.lanczos",
    "tt.inner_calls": "tt.inner",
}

# (thread-count getter, build-string getter) as exported by OpenBLAS builds
OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}get_config{suffix}")
    for prefix in ("scipy_openblas_", "openblas_")
    for suffix in ("64_", "")
)


def per_layer_units():
    """Every per-layer metric the traced pass reports, with its unit."""
    from ttdmrg.ledger import OP_CLASSES

    units = {"dmrg.half_sweeps": "count", "twolevel.iterations": "count"}
    units.update({k: "s" for k in SPAN_SECONDS})
    units.update({k: "count" for k in SPAN_CALLS})
    units.update({
        "eigen.lanczos_self_s": "s",
        "eigen.lanczos_iters": "count",
        "eigen.lanczos_converged_ratio": "1",
        "twolevel.coarse_kept_ratio": "1",
        "twolevel.pool_busy_ratio": "1",
        "twolevel.serial_solve_s": "s",
        "ledger.rate.matvec_gflops": "GF/s",
        "ledger.rate.coarse_gflops": "GF/s",
        "ledger.rate.svd_gflops": "GF/s",
        "trace.overhead_ratio": "1",
    })
    units.update({f"ledger.flops.{c}": "flop" for c in OP_CLASSES})
    return units


def import_package():
    """Import ttdmrg from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ttdmrg" / "__init__.py").is_file():
        sys.exit(f"error: package source {SRC / 'ttdmrg'} not found")
    sys.path.insert(0, str(SRC))
    import ttdmrg

    if Path(ttdmrg.__file__).resolve().parent != (SRC / "ttdmrg").resolve():
        sys.exit(f"error: imported ttdmrg from {ttdmrg.__file__}, not from {SRC}")


def openblas_libraries():
    """(library name, threads, build string) of every OpenBLAS loaded into
    this process."""
    import ctypes

    paths = []
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads_name, config_name in OPENBLAS_SYMBOLS:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                threads = getattr(lib, threads_name)
                threads.restype, threads.argtypes = ctypes.c_int, []
                config = getattr(lib, config_name)
                config.restype, config.argtypes = ctypes.c_char_p, []
                found.append((Path(path).name, threads(), config().decode().strip()))
                break
    return found


def check_pin():
    """The loaded OpenBLAS libraries, or exit when the one-thread pin is not
    in effect (or cannot be confirmed).  Call it once the package, and with
    it numpy and scipy.linalg, is imported."""
    if NUMPY_IMPORTED_BEFORE_PIN:
        sys.exit("error: numpy was imported before OPENBLAS_NUM_THREADS was pinned")
    libs = openblas_libraries()
    if not libs:
        sys.exit("error: no OpenBLAS found; cannot confirm the one-thread BLAS pin")
    for name, threads, _ in libs:
        if threads != 1:
            sys.exit(f"error: {name} runs {threads} threads; refusing to report timings")
    return libs


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(workload, libs):
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "blas_pin": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "pinned_before_numpy_import": not NUMPY_IMPORTED_BEFORE_PIN,
        },
        "openblas": [{"library": n, "threads": t, "config": c} for n, t, c in libs],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python_threads": workload.workers,
        "blas_threads_per_python_thread": 1,
    }


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_solve(problem, init, workload=None):
    """Solve once; returns (seconds, Solve, ledger)."""
    from ttdmrg import CostLedger
    from workloads import outcome, run_solver

    workload = workload or problem.workload
    ledger = CostLedger()
    t0 = time.perf_counter()
    state, trace = run_solver(workload, problem.op, init, ledger)
    seconds = time.perf_counter() - t0
    return seconds, outcome(workload, problem.op, state, trace), ledger


def measure_setup(args):
    """Median wall time from spawning a fresh interpreter until it is ready
    to call the solver, over several spawns."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
            child.wait(timeout=CHILD_TIMEOUT)
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"error: set-up child exited with {child.returncode}")
    return statistics.median(samples)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def run_timed(args, workload, problem):
    from workloads import gate, rel_err

    setup_s = measure_setup(args)
    n = len(problem.inits)
    times = [[] for _ in range(n)]
    errs, totals, cpps = {}, {}, {}
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        idx = attempted % n
        attempted += 1
        try:
            seconds, result, ledger = timed_solve(problem, problem.inits[idx])
        except Exception as exc:  # a raising solver is a failed run, not a crash
            failed += 1
            print(f"start {idx}: solver raised {type(exc).__name__}: {exc}", flush=True)
        else:
            reasons = gate(result, problem.reference)
            failed += bool(reasons)
            times[idx].append(seconds)
            errs[idx] = rel_err(result.energy, problem.reference)
            totals[idx] = ledger.total_flops()
            cpps[idx] = ledger.cost_per_processor()
            print(f"start {idx}: solve_s {seconds:.4f} s  iterations {result.iterations}  "
                  f"energy {result.energy!r}  energy_rel_err {errs[idx]:.3e}  "
                  f"{'FAIL ' + '; '.join(reasons) if reasons else 'ok'}", flush=True)
        elapsed = time.perf_counter() - began
        if attempted >= n and elapsed + elapsed / attempted > args.seconds:
            break
    if not errs:
        sys.exit("error: every solve raised")

    # Errors below double precision carry no digits.
    digits = [-math.log10(max(e, 1e-16)) for e in errs.values()]
    values = {
        "solve_s": statistics.median(statistics.median(t) for t in times if t),
        "setup_s": setup_s,
        "energy_digits": statistics.fmean(digits),
        "flops_total": statistics.fmean(totals.values()),
        "flops_cpp": statistics.fmean(cpps.values()),
        "peak_rss_mib": peak_rss_mib(),
    }
    print(f"reference {problem.reference!r} ({problem.provenance})")
    print(f"energy_rel_err {10 ** -values['energy_digits']:.6e} 1 "
          f"(geometric mean over {len(errs)} starts)")
    for name, unit in END_TO_END.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"failed/attempted {failed}/{attempted}")
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    return failed == 0, attempted, failed, metrics


def run_traced(args, workload, problem):
    from tracer import ROOT as ROOT_SPAN
    from tracer import Tracer, pool_busy_time, self_times, summarize
    from ttdmrg import CostLedger
    from ttdmrg.ledger import OP_CLASSES
    from workloads import gate, outcome, run_solver

    init = problem.inits[0]
    untraced_s, untraced, untraced_ledger = timed_solve(problem, init)
    ledger = CostLedger()
    with Tracer() as tracer:
        state, trace = tracer.call(ROOT_SPAN, run_solver, workload, problem.op, init, ledger)
    traced = outcome(workload, problem.op, state, trace)
    spans = tracer.spans
    root = spans[0]
    traced_s = root.end - root.start

    def same(a, a_ledger, b, b_ledger):
        return (a.energies == b.energies and a.energy == b.energy
                and a_ledger.report() == b_ledger.report())

    checks = {
        "untraced gate": not gate(untraced, problem.reference),
        "traced gate": not gate(traced, problem.reference),
        "traced run bitwise equal to untraced run": same(traced, ledger, untraced,
                                                         untraced_ledger),
    }
    serial_s = 0.0
    if workload.workers > 1:
        serial_s, serial, serial_ledger = timed_solve(problem, init, workload.serial())
        checks["serial gate"] = not gate(serial, problem.reference)
        checks[f"workers=1 bitwise equal to workers={workload.workers}"] = same(
            serial, serial_ledger, untraced, untraced_ledger
        )
    else:
        if not workload.classical:
            serial_s = untraced_s
        selfs = self_times(spans)
        layer_self = sum(selfs[id(s)] for s in spans if s is not root)
        checks["layer self times within solve_s"] = layer_self <= traced_s

    rows = summarize(spans)

    def seconds(name, kind="inclusive_s"):
        return rows.get(name, {}).get(kind, 0.0)

    flops = ledger.report()["per_class_flops"]
    counts = tracer.counts
    classical = workload.classical
    values = {
        "dmrg.half_sweeps": traced.iterations if classical else 0,
        "twolevel.iterations": 0 if classical else traced.iterations,
        "eigen.lanczos_self_s": seconds("eigen.lanczos", "self_s"),
        "eigen.lanczos_iters": counts["lanczos_iters"],
        "twolevel.serial_solve_s": serial_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    values.update({k: seconds(name) for k, name in SPAN_SECONDS.items()})
    values.update({k: rows.get(name, {}).get("calls", 0) for k, name in SPAN_CALLS.items()})
    values.update({f"ledger.flops.{c}": flops.get(c, 0.0) for c in OP_CLASSES})
    lanczos_calls = values["eigen.lanczos_calls"]
    values["eigen.lanczos_converged_ratio"] = (
        counts["lanczos_converged"] / lanczos_calls if lanczos_calls else 0.0
    )
    values["twolevel.coarse_kept_ratio"] = (
        counts["coarse_p"] / counts["coarse_m"] if counts["coarse_m"] else 0.0
    )
    local_s = values["twolevel.local_solves_s"]
    values["twolevel.pool_busy_ratio"] = (
        pool_busy_time(spans, "twolevel.local_solves") / (workload.workers * local_s)
        if workload.workers > 1 and local_s else 0.0
    )

    def rate(flop, secs):
        return flop / secs / 1e9 if secs else 0.0

    values["ledger.rate.matvec_gflops"] = rate(
        flops.get("matvec", 0.0), values["mpo.matvec_s"] + values["eigen.lanczos_self_s"]
    )
    values["ledger.rate.coarse_gflops"] = rate(
        flops.get("coarse", 0.0), values["twolevel.assemble_coarse_s"]
    )
    # Only classical sweeps charge the "svd" class at splits alone.
    values["ledger.rate.svd_gflops"] = (
        rate(flops.get("svd", 0.0), values["dmrg.split_s"]) if classical else 0.0
    )

    OUT.mkdir(exist_ok=True)
    index = {id(s): i for i, s in enumerate(spans)}
    dump = {
        "workload": workload.name,
        "seed": args.seed,
        "solve_s": {"untraced": untraced_s, "traced": traced_s, "serial": serial_s},
        "layers": rows,
        "spans": [
            [s.name, s.start - root.start, s.end - root.start,
             index[id(s.parent)] if s.parent else -1]
            for s in spans
        ],
    }
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps(dump, separators=(",", ":")))

    print(f"solve_s untraced {untraced_s:.4f} s, traced {traced_s:.4f} s ({len(spans)} spans "
          f"written to {path.relative_to(ROOT)})")
    print(f"{'layer':<28}{'calls':>9}{'inclusive_s':>13}{'self_s':>10}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<28}{row['calls']:>9}{row['inclusive_s']:>13.4f}{row['self_s']:>10.4f}")
    for name, ok in checks.items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name}")
    units = per_layer_units()
    for name in sorted(units):
        print(f"{name} {values[name]:.6g} {units[name]}")
    failed = sum(not ok for ok in checks.values())
    metrics = {name: metric(values[name], unit) for name, unit in units.items()}
    return failed == 0, len(checks), failed, metrics


def run_suite(args):
    """Every workload in its own process, then the false-convergence probe."""
    from workloads import WORKLOADS

    table = []
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=args.seconds + CHILD_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        table.append((name, result))
    if args.trace == 0:
        header = "".join(f"{k:>18}" for k in END_TO_END)
        print(f"\n{'workload':<26}{header}  failed/attempted")
        for name, result in table:
            m = result["metrics"]
            cells = "".join(f"{m[k]['value']:>11.4g} {m[k]['unit']:<6}" for k in END_TO_END)
            print(f"{name:<26}{cells}  {result['failed']}/{result['attempted']}")
    print("\n== false-convergence probe", flush=True)
    probe = subprocess.run([sys.executable, str(BENCH / "probe.py")], cwd=ROOT,
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    print(probe.stdout.strip())
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload name; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    import_package()
    if args.workload is None:
        return run_suite(args)
    from workloads import WORKLOADS, Problem

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    problem = Problem(workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    libs = check_pin()
    print("manifest " + json.dumps(manifest(workload, libs), sort_keys=True), flush=True)
    run = run_traced if args.trace else run_timed
    correct, attempted, failed, metrics = run(args, workload, problem)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
