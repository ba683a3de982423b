"""Experiment driver for the solvers in this package.

Experiments are described by an INI file with three sections::

    [model]
    kind = ising            ; ising | heisenberg | random
    sites = 8
    coupling = 1.0          ; ising, heisenberg
    field = 1.0             ; ising
    local_dim = 2           ; random
    rank = 2                ; random (operator bond dimension before
                            ; symmetrization)
    seed = 0                ; random

    [run]
    algorithm = dmrg2       ; dmrg1 | dmrg2 | a2dmrg1 | a2dmrg2
    max_rank = 16
    init_rank = 2
    eig_tol = 1e-6          ; dmrg2, a2dmrg: step 1's, later ones may be looser
    svd_tol = 0.0
    energy_tol = 1e-6
    coarse_eps = 1e-10      ; a2dmrg only
    max_iters = 200         ; half-sweeps (dmrg) or global iterations
    seed = 0
    workers = 1             ; accepted; changes neither results nor wall time
    structured_coarse = false
    reference = dense       ; dense | none

    [output]                ; all keys optional
    trace = runs/trace.csv
    ledger = runs/ledger.json
    summary = runs/summary.json
    state = runs/state.tt

Subcommands: ``run`` executes one experiment, ``compare`` runs two
configurations over the same model and emits aligned error/cost columns,
``oracle`` prints the dense reference energy and the ground state's
separation ranks, ``ledger-report`` formats a saved flop report.  All
emitted files depend only on the configuration and seeds, never on wall
time, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .dmrg import SweepConfig, run_dmrg
from .io import save_tt
from .ledger import CostLedger
from .models import dense_ground_state, heisenberg_chain, ising_chain, random_symmetric_mpo
from .tt import dense_cap, random_tt, separation_ranks
from .twolevel import TwoLevelConfig, run_two_level

ALGORITHMS = ("dmrg1", "dmrg2", "a2dmrg1", "a2dmrg2")
MODEL_KINDS = ("ising", "heisenberg", "random")

_SECTION_KEYS = {
    "model": {"kind", "sites", "coupling", "field", "local_dim", "rank", "seed"},
    "run": {
        "algorithm", "max_rank", "init_rank", "eig_tol", "svd_tol", "energy_tol",
        "coarse_eps", "max_iters", "seed", "workers", "structured_coarse", "reference",
    },
    "output": {"trace", "ledger", "summary", "state"},
}


class CliError(Exception):
    """Configuration or usage problem; maps to exit status 2."""


@dataclass
class ExperimentConfig:
    kind: str = "ising"
    sites: int = 8
    coupling: float = 1.0
    field: float = 1.0
    local_dim: int = 2
    op_rank: int = 2
    model_seed: int = 0

    algorithm: str = "dmrg2"
    max_rank: int = 16
    init_rank: int = 2
    eig_tol: float = 1e-6
    svd_tol: float = 0.0
    energy_tol: float = 1e-6
    coarse_eps: float = 1e-10
    max_iters: int = 200
    seed: int = 0
    workers: int = 1
    structured_coarse: bool = False
    reference: str = "dense"

    trace_path: str | None = None
    ledger_path: str | None = None
    summary_path: str | None = None
    state_path: str | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise CliError(f"unknown model kind {self.kind!r}; pick one of {MODEL_KINDS}")
        if self.algorithm not in ALGORITHMS:
            raise CliError(f"unknown algorithm {self.algorithm!r}; pick one of {ALGORITHMS}")
        if self.sites < 2:
            raise CliError("model needs at least two sites")
        if self.max_rank < 1 or self.init_rank < 1 or self.op_rank < 1:
            raise CliError("ranks must be positive")
        if self.eig_tol <= 0 or self.energy_tol <= 0:
            raise CliError("tolerances must be positive")
        if self.svd_tol < 0:
            raise CliError("svd_tol must be nonnegative")
        if not 0 < self.coarse_eps < 1:
            raise CliError("coarse_eps must be in (0, 1)")
        if self.max_iters < 1:
            raise CliError("max_iters must be positive")
        if self.workers < 1:
            raise CliError("worker count must be at least 1")
        if self.reference not in ("dense", "none"):
            raise CliError("reference must be 'dense' or 'none'")

    def model_key(self):
        """Tuple identifying the operator; compared runs must agree on it."""
        if self.kind == "ising":
            return ("ising", self.sites, self.coupling, self.field)
        if self.kind == "heisenberg":
            return ("heisenberg", self.sites, self.coupling)
        return ("random", self.sites, self.local_dim, self.op_rank, self.model_seed)


def load_config(path, overrides=()):
    """Parse an INI experiment file, applying ``section.key=value`` overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise CliError(f"malformed config {path}: {exc}") from exc

    for item in overrides:
        key, sep, value = item.partition("=")
        section, dot, option = key.partition(".")
        if not sep or not dot:
            raise CliError(f"override {item!r} is not of the form section.key=value")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, value)

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise CliError(f"unknown config section [{section}]")
        extra = set(parser[section]) - _SECTION_KEYS[section]
        if extra:
            raise CliError(
                f"unknown key(s) {sorted(extra)} in section [{section}]"
            )

    def get(section, option, cast, default):
        if not parser.has_option(section, option):
            return default
        raw = parser.get(section, option)
        try:
            if cast is bool:
                return parser.getboolean(section, option)
            return cast(raw)
        except ValueError as exc:
            raise CliError(f"bad value {raw!r} for {section}.{option}") from exc

    return ExperimentConfig(
        kind=get("model", "kind", str, "ising"),
        sites=get("model", "sites", int, 8),
        coupling=get("model", "coupling", float, 1.0),
        field=get("model", "field", float, 1.0),
        local_dim=get("model", "local_dim", int, 2),
        op_rank=get("model", "rank", int, 2),
        model_seed=get("model", "seed", int, 0),
        algorithm=get("run", "algorithm", str, "dmrg2"),
        max_rank=get("run", "max_rank", int, 16),
        init_rank=get("run", "init_rank", int, 2),
        eig_tol=get("run", "eig_tol", float, 1e-6),
        svd_tol=get("run", "svd_tol", float, 0.0),
        energy_tol=get("run", "energy_tol", float, 1e-6),
        coarse_eps=get("run", "coarse_eps", float, 1e-10),
        max_iters=get("run", "max_iters", int, 200),
        seed=get("run", "seed", int, 0),
        workers=get("run", "workers", int, 1),
        structured_coarse=get("run", "structured_coarse", bool, False),
        reference=get("run", "reference", str, "dense"),
        trace_path=get("output", "trace", str, None),
        ledger_path=get("output", "ledger", str, None),
        summary_path=get("output", "summary", str, None),
        state_path=get("output", "state", str, None),
    )


def build_operator(cfg):
    if cfg.kind == "ising":
        return ising_chain(cfg.sites, coupling=cfg.coupling, field=cfg.field)
    if cfg.kind == "heisenberg":
        return heisenberg_chain(cfg.sites, coupling=cfg.coupling)
    return random_symmetric_mpo(cfg.sites, n=cfg.local_dim, rank=cfg.op_rank,
                                seed=cfg.model_seed)


def checked_dense_cap():
    """The dense cap; a malformed ``TTDMRG_DENSE_CAP`` is a configuration error."""
    try:
        return dense_cap()
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def reference_energy(cfg, op):
    """Dense oracle energy, or None when disabled or over the cap."""
    if cfg.reference == "none":
        return None
    checked_dense_cap()
    try:
        energy, _ = dense_ground_state(op)
    except ValueError as exc:
        print(f"note: no dense reference ({exc})", file=sys.stderr)
        return None
    return energy


def _energy_cost_series(trace):
    """Per-iteration (energy, cost_per_processor) pairs from either trace."""
    if hasattr(trace, "half_sweep_energies"):
        out = []
        for hs, energy in enumerate(trace.half_sweep_energies, start=1):
            micro = trace.for_half_sweep(hs)
            out.append((energy, micro[-1].flops_cumulative))
        return out
    return [(r.energy, r.cost_per_processor) for r in trace.records]


def run_solver(cfg, op, ledger, reference=None):
    """Run ``cfg.algorithm`` on ``op`` from the seeded random start;
    returns ``(state, trace)``."""
    init = random_tt(op.dims, cfg.init_rank, seed=cfg.seed)
    mode = "one-site" if cfg.algorithm.endswith("1") else "two-site"
    if cfg.algorithm.startswith("dmrg"):
        sweep = SweepConfig(
            mode=mode, max_rank=cfg.max_rank, svd_tol=cfg.svd_tol, eig_tol=cfg.eig_tol,
            energy_tol=cfg.energy_tol, max_half_sweeps=cfg.max_iters, seed=cfg.seed,
        )
        return run_dmrg(init, op, sweep, ledger)
    two = TwoLevelConfig(
        mode=mode, max_rank=cfg.max_rank, eig_tol=cfg.eig_tol, energy_tol=cfg.energy_tol,
        max_iters=cfg.max_iters, coarse_eps=cfg.coarse_eps,
        structured_coarse=cfg.structured_coarse, round_tol=cfg.svd_tol,
        workers=cfg.workers, seed=cfg.seed,
    )
    return run_two_level(init, op, two, ledger, reference_energy=reference)


def run_experiment(cfg):
    """Execute one configuration; returns the summary dict."""
    op = build_operator(cfg)
    ref = reference_energy(cfg, op)
    ledger = CostLedger()
    state, trace = run_solver(cfg, op, ledger, ref)
    series = _energy_cost_series(trace)
    iterations = len(series)
    final_energy = series[-1][0]

    summary = {
        "algorithm": cfg.algorithm,
        "model": {"kind": cfg.kind, "sites": cfg.sites},
        "final_energy": final_energy,
        "reference_energy": ref,
        "relative_error": (
            abs(final_energy - ref) / max(abs(ref), 1e-12) if ref is not None else None
        ),
        "iterations": iterations,
        "converged": trace.converged,
        "flops": ledger.report(),
    }

    def emit(path, text):
        p = Path(path)
        if p.parent != Path("."):
            p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)

    if cfg.trace_path:
        emit(cfg.trace_path, trace.to_csv())
    if cfg.ledger_path:
        emit(cfg.ledger_path, ledger.report_json() + "\n")
    if cfg.summary_path:
        emit(cfg.summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if cfg.state_path:
        p = Path(cfg.state_path)
        if p.parent != Path("."):
            p.parent.mkdir(parents=True, exist_ok=True)
        save_tt(state, p)
    return summary


def format_summary(summary):
    lines = [
        f"algorithm       {summary['algorithm']} on {summary['model']['kind']} "
        f"d={summary['model']['sites']}",
        f"final energy    {summary['final_energy']!r}",
    ]
    if summary["reference_energy"] is not None:
        lines.append(f"reference       {summary['reference_energy']!r}")
        lines.append(f"relative error  {summary['relative_error']:.3e}")
    else:
        lines.append("reference       (none)")
    lines.append(f"iterations      {summary['iterations']}")
    lines.append(f"converged       {summary['converged']}")
    flops = summary["flops"]
    lines.append(f"total flops     {flops['total_flops']:.6e}")
    lines.append(f"cost/processor  {flops['cost_per_processor']:.6e}")
    lines.append(f"speedup         {flops['speedup_vs_single_processor']:.3f}")
    return "\n".join(lines)


def compare_experiments(cfg_a, cfg_b):
    """Run two configurations over the same model; returns (csv, note).

    Rows align per iteration index (half-sweeps or global iterations);
    the shorter run repeats its final error and cost.  Errors are
    relative to the dense reference when available, otherwise to the
    best energy either run achieved (noted in the returned note).
    """
    if cfg_a.model_key() != cfg_b.model_key():
        raise CliError(
            f"configs describe different models: {cfg_a.model_key()} vs {cfg_b.model_key()}"
        )
    op = build_operator(cfg_a)
    ref = reference_energy(cfg_a, op)

    series = []
    for cfg in (cfg_a, cfg_b):
        _, trace = run_solver(cfg, op, CostLedger())
        series.append(_energy_cost_series(trace))

    if ref is not None:
        note = "errors relative to the dense reference"
    else:
        ref = min(series[0][-1][0], series[1][-1][0])
        note = "no dense reference; errors relative to the best achieved energy"
    scale = max(abs(ref), 1e-12)

    import csv as _csv
    from io import StringIO

    buf = StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["iteration", "error_a", "error_b", "cpp_a", "cpp_b", "speedup"])
    rows = max(len(series[0]), len(series[1]))
    for k in range(rows):
        ea, ca = series[0][min(k, len(series[0]) - 1)]
        eb, cb = series[1][min(k, len(series[1]) - 1)]
        err_a = abs(ea - ref) / scale
        err_b = abs(eb - ref) / scale
        speedup = ca / cb if cb > 0 else float("inf")
        writer.writerow(
            [k + 1, repr(err_a), repr(err_b), repr(ca), repr(cb), repr(speedup)]
        )
    return buf.getvalue(), note


def oracle_report(cfg):
    op = build_operator(cfg)
    cap = checked_dense_cap()
    try:
        energy, psi = dense_ground_state(op)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    ranks = separation_ranks(psi)
    return "\n".join(
        [
            f"model             {cfg.kind} d={cfg.sites}",
            f"ground energy     {energy!r}",
            f"separation ranks  {' '.join(str(r) for r in ranks)}",
            f"dense cap         {cap} entries",
        ]
    )


def ledger_report_text(path):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read ledger {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"ledger {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"ledger {path} is not a JSON object")
    for key in ("sequential_flops", "per_worker_flops", "per_class_flops"):
        if key not in data:
            raise CliError(f"ledger {path} is missing {key!r}")
    led = CostLedger()
    try:
        led.sequential_flops = float(data["sequential_flops"])
        led.per_worker_flops = {k: float(v) for k, v in data["per_worker_flops"].items()}
        led.per_class_flops = {k: float(v) for k, v in data["per_class_flops"].items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise CliError(f"ledger {path} has a malformed entry: {exc}") from exc
    return led.format_report()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ttdmrg", description="Tensor-train ground-state experiment driver."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="SECTION.KEY=VALUE", help="override a config entry",
        )
        p.add_argument("--workers", type=int, help="shortcut for run.workers")
        p.add_argument("--seed", type=int, help="shortcut for run.seed")
        p.add_argument("--algorithm", help="shortcut for run.algorithm")
        p.add_argument("--max-rank", type=int, help="shortcut for run.max_rank")

    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("config")
    add_overrides(p_run)

    p_cmp = sub.add_parser("compare", help="run two configs on one model")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.add_argument("-o", "--output", help="write the comparison CSV here")
    p_cmp.add_argument("--workers", type=int, help="worker count for both runs")

    p_orc = sub.add_parser("oracle", help="dense reference for a model")
    p_orc.add_argument("config")
    add_overrides(p_orc)

    p_led = sub.add_parser("ledger-report", help="format a saved flop report")
    p_led.add_argument("ledger")

    args = parser.parse_args(argv)

    def collect_overrides(ns):
        out = list(ns.overrides)
        if ns.workers is not None:
            out.append(f"run.workers={ns.workers}")
        if ns.seed is not None:
            out.append(f"run.seed={ns.seed}")
        if ns.algorithm is not None:
            out.append(f"run.algorithm={ns.algorithm}")
        if ns.max_rank is not None:
            out.append(f"run.max_rank={ns.max_rank}")
        return out

    try:
        if args.command == "run":
            cfg = load_config(args.config, collect_overrides(args))
            try:
                summary = run_experiment(cfg)
            except ValueError as exc:
                print(f"solver error: {exc}", file=sys.stderr)
                return 1
            print(format_summary(summary))
            return 0
        if args.command == "compare":
            extra = [f"run.workers={args.workers}"] if args.workers is not None else []
            cfg_a = load_config(args.config_a, extra)
            cfg_b = load_config(args.config_b, extra)
            try:
                text, note = compare_experiments(cfg_a, cfg_b)
            except ValueError as exc:
                print(f"solver error: {exc}", file=sys.stderr)
                return 1
            if args.output:
                path = Path(args.output)
                if path.parent != Path("."):
                    path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
                print(note)
            else:
                print(note, file=sys.stderr)
                sys.stdout.write(text)
            return 0
        if args.command == "oracle":
            cfg = load_config(args.config, collect_overrides(args))
            print(oracle_report(cfg))
            return 0
        if args.command == "ledger-report":
            print(ledger_report_text(args.ledger))
            return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
