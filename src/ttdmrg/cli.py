"""Experiment driver for the solvers in this package.

Experiments are described by an INI file with three sections; every key
and its default is listed once, in :data:`SCHEMA`::

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
    svd_tol = 0.0           ; relative cut of the dmrg2 splits and a2dmrg rounding
    energy_tol = 1e-6
    max_iters = 200         ; half-sweeps (dmrg) or global iterations
    seed = 0
    structured_coarse = false
    reference = dense       ; dense | none

    [output]                ; all keys optional
    trace = runs/trace.csv
    ledger = runs/ledger.json
    summary = runs/summary.json
    state = runs/state.tt

Loading a file builds the run it describes: the operator, the seeded
random start and the solver config of ``algorithm``.  So every value is
range-checked once, by the library code that takes it, and a value it
rejects is a configuration error (exit status 2) that carries the
library's message, as is a start the solver refuses (a ``dmrg1`` start
below ``max_rank``, :func:`~ttdmrg.dmrg.check_start`).  The CLI itself
checks only the choices that pick code: ``kind``, ``algorithm`` and
``reference``.  Every ``[run]`` key is checked whatever the algorithm.
``eig_tol = 0`` (every local solve runs to its iteration budget) and
``energy_tol = 0`` (run to ``max_iters``) are accepted.  ``[model]``
keys that the chosen kind does not read are parsed, so they must have
the right type, but not range-checked.

Subcommands: ``run`` executes one experiment, ``compare`` runs two
configurations over the same model and the same ``reference`` and emits
aligned error/cost columns, ``oracle`` prints the dense reference energy
and the ground state's separation ranks, ``ledger-report`` formats a saved
flop report.  All
emitted files depend only on the configuration and seeds, never on wall
time, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .dmrg import SweepConfig, check_start, run_dmrg
from .io import tt_bytes
from .ledger import CostLedger
from .models import dense_ground_state, heisenberg_chain, ising_chain, random_symmetric_mpo
from .tt import dense_cap, random_tt, separation_ranks
from .twolevel import TwoLevelConfig, run_two_level

ALGORITHMS = ("dmrg1", "dmrg2", "a2dmrg1", "a2dmrg2")
MODEL_KINDS = ("ising", "heisenberg", "random")

# section -> key -> default.  A value is read as its default's type (a bool
# with ``getboolean``); a None default marks an output path.
SCHEMA = {
    "model": {
        "kind": "ising", "sites": 8, "coupling": 1.0, "field": 1.0, "local_dim": 2,
        "rank": 2, "seed": 0,
    },
    "run": {
        "algorithm": "dmrg2", "max_rank": 16, "init_rank": 2, "eig_tol": 1e-6,
        "svd_tol": 0.0, "energy_tol": 1e-6, "max_iters": 200, "seed": 0,
        "structured_coarse": False, "reference": "dense",
    },
    "output": {"trace": None, "ledger": None, "summary": None, "state": None},
}

# ``run`` keys that ``ttdmrg run`` also takes as flags (``--max-rank``).
RUN_FLAGS = ("seed", "algorithm", "max_rank")


class CliError(Exception):
    """Configuration or usage problem; maps to exit status 2."""


class ExperimentConfig:
    """A checked experiment: one namespace per :data:`SCHEMA` section, such
    as ``cfg.run.max_rank`` or ``cfg.output.trace`` (missing keys take
    their defaults), and the run they describe, built by the library:
    the operator ``cfg.op``, the seeded start ``cfg.init`` and the solver
    config ``cfg.solver``."""

    def __init__(self, **sections):
        for name, defaults in SCHEMA.items():
            setattr(self, name, SimpleNamespace(**{**defaults, **sections.get(name, {})}))
        model, run = self.model, self.run
        if model.kind not in MODEL_KINDS:
            raise CliError(f"unknown model kind {model.kind!r}; pick one of {MODEL_KINDS}")
        if run.algorithm not in ALGORITHMS:
            raise CliError(f"unknown algorithm {run.algorithm!r}; pick one of {ALGORITHMS}")
        if run.reference not in ("dense", "none"):
            raise CliError("reference must be 'dense' or 'none'")
        try:
            self.op = build_operator(model)
            self.init = random_tt(self.op.dims, run.init_rank, seed=run.seed)
            self.solver = solver_config(run)
            check_start(self.init, self.op, self.solver)
        except ValueError as exc:
            raise CliError(str(exc)) from exc


def load_config(path, overrides=()):
    """Parse an INI experiment file, applying ``section.key=value`` overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
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

    sections = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise CliError(f"unknown config section [{section}]")
        extra = set(parser[section]) - set(SCHEMA[section])
        if extra:
            raise CliError(f"unknown key(s) {sorted(extra)} in section [{section}]")
        values = sections[section] = {}
        for key in parser[section]:
            default, raw = SCHEMA[section][key], parser.get(section, key)
            try:
                if isinstance(default, bool):
                    values[key] = parser.getboolean(section, key)
                else:
                    values[key] = raw if default is None else type(default)(raw)
            except ValueError as exc:
                raise CliError(f"bad value {raw!r} for {section}.{key}") from exc
    return ExperimentConfig(**sections)


def build_operator(model):
    """The operator of the ``[model]`` section ``model``."""
    if model.kind == "ising":
        return ising_chain(model.sites, coupling=model.coupling, field=model.field)
    if model.kind == "heisenberg":
        return heisenberg_chain(model.sites, coupling=model.coupling)
    return random_symmetric_mpo(model.sites, n=model.local_dim, rank=model.rank, seed=model.seed)


def solver_config(run):
    """The solver config of the ``[run]`` section ``run``.  Both configs
    are built, so every key is checked whatever the algorithm, and the
    two-level one first, so that a message names ``max_iters``."""
    shared = dict(
        mode="one-site" if run.algorithm.endswith("1") else "two-site",
        max_rank=run.max_rank, eig_tol=run.eig_tol, energy_tol=run.energy_tol,
        svd_tol=run.svd_tol, seed=run.seed,
    )
    two = TwoLevelConfig(
        **shared, max_iters=run.max_iters, structured_coarse=run.structured_coarse
    )
    sweep = SweepConfig(**shared, max_half_sweeps=run.max_iters)
    return sweep if run.algorithm.startswith("dmrg") else two


def checked_dense_cap():
    """The dense cap; a malformed ``TTDMRG_DENSE_CAP`` is a configuration error."""
    try:
        return dense_cap()
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def reference_energy(cfg):
    """Dense oracle energy, or None when disabled or over the cap."""
    if cfg.run.reference == "none":
        return None
    checked_dense_cap()
    try:
        energy, _ = dense_ground_state(cfg.op)
    except ValueError as exc:
        print(f"note: no dense reference ({exc})", file=sys.stderr)
        return None
    return energy


def check_output(path):
    """Make the directory of the output ``path``, before any solve, and
    refuse a path that is a directory or whose directory cannot be made or
    written: a configuration error."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    if path.is_dir():
        raise CliError(f"cannot write {path}: it is a directory")
    if not os.access(path.parent, os.W_OK | os.X_OK):
        raise CliError(f"cannot write {path}: its directory is not writable")


def write_file(path, data):
    """Write the text or bytes ``data`` to ``path``, checked by
    :func:`check_output`; a write that still fails is a configuration error."""
    try:
        Path(path).write_bytes(data.encode() if isinstance(data, str) else data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def run_solver(cfg, ledger, reference=None):
    """Run ``cfg.solver`` on ``cfg.op`` from ``cfg.init``; returns
    ``(state, trace)``."""
    if isinstance(cfg.solver, SweepConfig):
        return run_dmrg(cfg.init, cfg.op, cfg.solver, ledger)
    return run_two_level(cfg.init, cfg.op, cfg.solver, ledger, reference_energy=reference)


def run_experiment(cfg):
    """Execute one configuration; returns the summary dict."""
    paths = {key: path for key, path in vars(cfg.output).items() if path}
    for path in paths.values():
        check_output(path)
    ref = reference_energy(cfg)
    ledger = CostLedger()
    state, trace = run_solver(cfg, ledger, ref)
    series = trace.steps()
    final_energy = series[-1][0]

    summary = {
        "algorithm": cfg.run.algorithm,
        "model": {"kind": cfg.model.kind, "sites": cfg.model.sites},
        "final_energy": final_energy,
        "reference_energy": ref,
        "relative_error": (
            abs(final_energy - ref) / max(abs(ref), 1e-12) if ref is not None else None
        ),
        "iterations": len(series),
        "converged": trace.converged,
        "flops": ledger.report(),
    }
    outputs = {
        "trace": trace.to_csv,
        "ledger": lambda: ledger.report_json() + "\n",
        "summary": lambda: json.dumps(summary, indent=2, sort_keys=True) + "\n",
        "state": lambda: tt_bytes(state),
    }
    for key, path in paths.items():
        write_file(path, outputs[key]())
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

    The models are the same when their operators are equal core by core.
    Rows align per iteration index (half-sweeps or global iterations);
    the shorter run repeats its final error and cost.  Errors are
    relative to the dense reference when available, otherwise to the
    best energy either run achieved (noted in the returned note).  Both
    configs must name the same ``run.reference``, so that the columns do
    not depend on the argument order.
    """
    op, op_b = cfg_a.op, cfg_b.op
    if len(op.cores) != len(op_b.cores) or not all(
        np.array_equal(a, b) for a, b in zip(op.cores, op_b.cores)
    ):
        raise CliError(
            f"configs describe different models: {cfg_a.model.kind} d={cfg_a.model.sites} "
            f"vs {cfg_b.model.kind} d={cfg_b.model.sites}"
        )
    if cfg_a.run.reference != cfg_b.run.reference:
        raise CliError(
            f"configs ask for different references: {cfg_a.run.reference!r} vs "
            f"{cfg_b.run.reference!r}"
        )
    ref = reference_energy(cfg_a)

    series = []
    for cfg in (cfg_a, cfg_b):
        _, trace = run_solver(cfg, CostLedger())
        series.append(trace.steps())

    if ref is not None:
        note = "errors relative to the dense reference"
    else:
        ref = min(series[0][-1][0], series[1][-1][0])
        note = "no dense reference; errors relative to the best achieved energy"
    scale = max(abs(ref), 1e-12)

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
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
    cap = checked_dense_cap()
    try:
        energy, psi = dense_ground_state(cfg.op)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    ranks = separation_ranks(psi)
    return "\n".join(
        [
            f"model             {cfg.model.kind} d={cfg.model.sites}",
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
    try:
        return CostLedger.from_report(data).format_report()
    except ValueError as exc:
        raise CliError(f"ledger {path}: {exc}") from exc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ttdmrg", description="Tensor-train ground-state experiment driver."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p, flags=()):
        p.add_argument("config")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="SECTION.KEY=VALUE", help="override a config entry",
        )
        for key in flags:
            p.add_argument(
                "--" + key.replace("_", "-"), type=type(SCHEMA["run"][key]),
                help=f"shortcut for run.{key}",
            )

    add_config(sub.add_parser("run", help="execute one experiment"), RUN_FLAGS)

    p_cmp = sub.add_parser("compare", help="run two configs on one model")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.add_argument("-o", "--output", help="write the comparison CSV here")

    add_config(sub.add_parser("oracle", help="dense reference for a model"))

    p_led = sub.add_parser("ledger-report", help="format a saved flop report")
    p_led.add_argument("ledger")

    args = parser.parse_args(argv)

    def config():
        flags = [f"run.{k}={getattr(args, k)}" for k in RUN_FLAGS
                 if getattr(args, k, None) is not None]
        return load_config(args.config, args.overrides + flags)

    try:
        if args.command == "run":
            print(format_summary(run_experiment(config())))
        elif args.command == "compare":
            cfg_a, cfg_b = load_config(args.config_a), load_config(args.config_b)
            if args.output:
                check_output(args.output)
            text, note = compare_experiments(cfg_a, cfg_b)
            if args.output:
                write_file(args.output, text)
                print(note)
            else:
                print(note, file=sys.stderr)
                sys.stdout.write(text)
        elif args.command == "oracle":
            print(oracle_report(config()))
        else:
            print(ledger_report_text(args.ledger))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
