"""Experiment driver: config parsing, subcommands, deterministic outputs."""

import json

import numpy as np
import pytest

from ttdmrg import cli
from ttdmrg.cli import SCHEMA, CliError, load_config, main
from ttdmrg.dmrg import SweepConfig, run_dmrg
from ttdmrg.io import load_tt, tt_bytes
from ttdmrg.ledger import CostLedger
from ttdmrg.models import (
    dense_ground_state,
    heisenberg_chain,
    ising_chain,
    random_symmetric_mpo,
)
from ttdmrg.tt import random_tt, separation_ranks
from ttdmrg.twolevel import TwoLevelConfig, run_two_level

BASE = """\
[model]
kind = ising
sites = 6

[run]
algorithm = dmrg2
max_rank = 8
eig_tol = 1e-8
energy_tol = 1e-8
max_iters = 20
seed = 0
"""


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def with_outputs(tmp_path, sub):
    out = tmp_path / sub
    return BASE + (
        f"\n[output]\ntrace = {out}/trace.csv\nledger = {out}/ledger.json\n"
        f"summary = {out}/summary.json\nstate = {out}/state.tt\n"
    ), out


def test_run_writes_outputs_and_reruns_byte_identical(tmp_path, capsys):
    body, out1 = with_outputs(tmp_path, "one")
    cfg1 = write_config(tmp_path, "a.ini", body)
    assert main(["run", cfg1]) == 0
    text = capsys.readouterr().out
    assert "final energy" in text and "relative error" in text

    summary = json.loads((out1 / "summary.json").read_text())
    e_ref, _ = dense_ground_state(ising_chain(6))
    assert summary["algorithm"] == "dmrg2"
    assert summary["relative_error"] < 1e-6
    assert summary["final_energy"] >= e_ref - 1e-9 * abs(e_ref)
    assert summary["converged"] is True
    assert summary["flops"]["total_flops"] > 0

    state = load_tt(out1 / "state.tt")
    assert state.dims == (2,) * 6

    body2, out2 = with_outputs(tmp_path, "two")
    cfg2 = write_config(tmp_path, "b.ini", body2)
    assert main(["run", cfg2]) == 0
    for name in ("trace.csv", "ledger.json", "summary.json", "state.tt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_flag_overrides_take_effect(tmp_path):
    body, out = with_outputs(tmp_path, "ovr")
    cfg = write_config(tmp_path, "c.ini", body)
    assert main([
        "run", cfg, "--algorithm", "a2dmrg2", "--set", "run.energy_tol=1e-10",
    ]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "a2dmrg2"
    # parallel steps leave tagged work behind
    assert summary["flops"]["max_worker_flops"] > 0


def test_invalid_algorithm_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.ini", BASE.replace("dmrg2", "dmrg3"))
    assert main(["run", cfg]) == 2
    assert "dmrg3" in capsys.readouterr().err


def test_unknown_key_and_section_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "k.ini", BASE + "\n[run2]\nx = 1\n")
    assert main(["run", cfg]) == 2
    assert "run2" in capsys.readouterr().err
    cfg = write_config(tmp_path, "k2.ini", BASE + "max_rnk = 8\n")
    assert main(["run", cfg]) == 2
    assert "max_rnk" in capsys.readouterr().err
    # a removed key is rejected like a misspelled one
    for removed in ("fallback_compression = true", "workers = 2"):
        cfg = write_config(tmp_path, "k3.ini", BASE + removed + "\n")
        assert main(["run", cfg]) == 2
        assert removed.split()[0] in capsys.readouterr().err
    # so is the removed --workers flag, on run and compare alike
    cfg = write_config(tmp_path, "k4.ini", BASE)
    for argv in (["run", cfg], ["compare", cfg, cfg]):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--workers", "2"])
        assert exit_.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_removed_coarse_eps_key_is_a_config_error(tmp_path, capsys):
    # the coarse cut is the constant twolevel.COARSE_EPS
    assert "coarse_eps" not in SCHEMA["run"]
    cfg = write_config(tmp_path, "eps.ini", BASE + "coarse_eps = 1e-8\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == "error: unknown key(s) ['coarse_eps'] in section [run]\n"


@pytest.mark.parametrize(
    "body, overrides, message",
    [
        (BASE.replace("kind = ising", "kind = potts"), [],
         "unknown model kind 'potts'; pick one of ('ising', 'heisenberg', 'random')"),
        (BASE + "reference = exact\n", [], "reference must be 'dense' or 'none'"),
        ("[run]\nalgorithm dmrg2\n", [], "malformed config "),
        (BASE, ["run.max_rank"], "override 'run.max_rank' is not of the form section.key=value"),
        (BASE, ["max_rank=4"], "override 'max_rank=4' is not of the form section.key=value"),
    ],
    ids=["unknown-kind", "bad-reference", "malformed-ini", "override-without-value",
         "override-without-section"],
)
def test_config_errors_exit_2_with_their_message(tmp_path, capsys, body, overrides, message):
    cfg = write_config(tmp_path, "e.ini", body)
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["run", cfg, *sets]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_run_over_the_dense_cap_notes_it_and_runs_without_reference(tmp_path, capsys, monkeypatch):
    body, out = with_outputs(tmp_path, "cap")
    cfg = write_config(tmp_path, "cap.ini", body)
    monkeypatch.setenv("TTDMRG_DENSE_CAP", "100")
    assert main(["run", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("note: no dense reference (dense tensor with 4096 entries "
                                   "exceeds the cap of 100")
    assert "reference       (none)" in captured.out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reference_energy"] is None and summary["relative_error"] is None


def test_compare_without_reference_measures_against_the_best_energy(tmp_path, capsys):
    cfg_a = write_config(tmp_path, "na.ini", BASE + "reference = none\n")
    cfg_b = write_config(
        tmp_path, "nb.ini",
        BASE.replace("algorithm = dmrg2", "algorithm = a2dmrg2") + "reference = none\n",
    )
    out = tmp_path / "none.csv"
    assert main(["compare", cfg_a, cfg_b, "-o", str(out)]) == 0
    assert capsys.readouterr().out == (
        "no dense reference; errors relative to the best achieved energy\n"
    )
    last = out.read_text().splitlines()[-1].split(",")
    # the run that reached the best energy reads exactly zero
    assert min(float(last[1]), float(last[2])) == 0.0


def test_compare_without_output_writes_the_csv_to_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.ini", BASE)
    assert main(["compare", cfg, cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == "errors relative to the dense reference\n"
    rows = captured.out.splitlines()
    assert rows[0] == "iteration,error_a,error_b,cpp_a,cpp_b,speedup"
    assert float(rows[-1].split(",")[5]) == 1.0


def test_ledger_report_on_a_missing_or_non_json_file(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    assert main(["ledger-report", str(absent)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read ledger {absent}: ")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ledger-report", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: ledger {bad} is not valid JSON: ")


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_load_config_validates_values(tmp_path):
    cfg = write_config(tmp_path, "v.ini", BASE.replace("eig_tol = 1e-8", "eig_tol = -1"))
    with pytest.raises(CliError, match="eig_tol"):
        load_config(cfg)


@pytest.mark.parametrize("key", ["eig_tol", "energy_tol", "svd_tol"])
def test_nan_tolerance_is_a_config_error(tmp_path, capsys, key):
    cfg = write_config(tmp_path, "nan.ini", BASE)
    with pytest.raises(CliError, match=key):
        load_config(cfg, [f"run.{key}=nan"])
    assert main(["run", cfg, "--set", f"run.{key}=nan"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_reports_energy_and_separation_ranks(tmp_path, capsys):
    cfg = write_config(tmp_path, "o.ini", BASE)
    assert main(["oracle", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    by_key = {line.split(maxsplit=1)[0]: line.split()[2:] for line in lines}
    energy = float(by_key["ground"][0])
    e_ref, psi = dense_ground_state(ising_chain(6))
    assert energy == e_ref
    ranks = tuple(int(r) for r in by_key["separation"])
    assert ranks == separation_ranks(psi)


def test_oracle_cap_env_override(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, "cap.ini", BASE)
    monkeypatch.setenv("TTDMRG_DENSE_CAP", "100")
    assert main(["oracle", cfg]) == 2
    assert "TTDMRG_DENSE_CAP" in capsys.readouterr().err
    monkeypatch.setenv("TTDMRG_DENSE_CAP", str(1 << 22))
    assert main(["oracle", cfg]) == 0
    assert "dense cap         4194304" in capsys.readouterr().out
    # a cap that is not a positive integer is a configuration error, not a missing reference
    for bad in ("abc", "0", "-3"):
        monkeypatch.setenv("TTDMRG_DENSE_CAP", bad)
        for command in ("oracle", "run"):
            assert main([command, cfg]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "TTDMRG_DENSE_CAP" in err


def test_compare_identical_configs_gives_unit_speedup(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.ini", BASE)
    out = tmp_path / "cmp.csv"
    assert main(["compare", cfg, cfg, "-o", str(out)]) == 0
    assert "dense reference" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "iteration,error_a,error_b,cpp_a,cpp_b,speedup"
    last = rows[-1].split(",")
    assert float(last[5]) == 1.0
    assert last[1] == last[2]
    assert float(last[1]) < 1e-6


def test_compare_different_solvers_share_reference(tmp_path):
    cfg_a = write_config(tmp_path, "ca.ini", BASE)
    cfg_b = write_config(
        tmp_path, "cb.ini", BASE.replace("algorithm = dmrg2", "algorithm = a2dmrg2")
    )
    out = tmp_path / "cmp2.csv"
    assert main(["compare", cfg_a, cfg_b, "-o", str(out)]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    assert float(rows[-1][1]) < 1e-6
    assert float(rows[-1][2]) < 1e-6
    # cost columns are cumulative
    cpp_b = [float(r[4]) for r in rows]
    assert all(b >= a for a, b in zip(cpp_b, cpp_b[1:]))


def test_compare_rejects_model_mismatch(tmp_path, capsys):
    cfg_a = write_config(tmp_path, "ma.ini", BASE)
    cfg_b = write_config(tmp_path, "mb.ini", BASE.replace("sites = 6", "sites = 4"))
    assert main(["compare", cfg_a, cfg_b]) == 2
    assert "different models" in capsys.readouterr().err


def test_compare_matches_models_by_operator(tmp_path, capsys):
    heis = BASE.replace("kind = ising", "kind = heisenberg")
    cfg_a = write_config(tmp_path, "ha.ini", heis)
    cfg_b = write_config(tmp_path, "hb.ini", heis.replace("sites = 6", "sites = 6\nfield = 0.3"))
    # the Heisenberg chain reads no field, so both describe one operator
    assert main(["compare", cfg_a, cfg_b, "-o", str(tmp_path / "h.csv")]) == 0
    capsys.readouterr()
    cfg_c = write_config(tmp_path, "ic.ini", BASE)
    assert main(["compare", cfg_c, cfg_a]) == 2
    assert "different models" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["dense-first", "none-first"])
def test_compare_refuses_differing_references(tmp_path, capsys, monkeypatch, order):
    def solver_ran(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(cli, "run_solver", solver_ran)
    dense = write_config(tmp_path, "rd.ini", BASE + "reference = dense\n")
    none = write_config(tmp_path, "rn.ini", BASE + "reference = none\n")
    pair = [dense, none] if order == "dense-first" else [none, dense]
    out = tmp_path / "never.csv"
    assert main(["compare", *pair, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    first, second = ("'dense'", "'none'") if order == "dense-first" else ("'none'", "'dense'")
    assert err == f"error: configs ask for different references: {first} vs {second}\n"
    assert not out.exists()


def test_compare_dense_pair_reports_against_dense_reference(tmp_path, capsys):
    cfg_a = write_config(tmp_path, "da.ini", BASE + "reference = dense\n")
    cfg_b = write_config(
        tmp_path, "db.ini",
        BASE.replace("algorithm = dmrg2", "algorithm = a2dmrg1") + "reference = dense\n",
    )
    out = tmp_path / "dd.csv"
    assert main(["compare", cfg_a, cfg_b, "-o", str(out)]) == 0
    assert capsys.readouterr().out == "errors relative to the dense reference\n"
    e_ref, _ = dense_ground_state(ising_chain(6))
    last = out.read_text().splitlines()[-1].split(",")
    for column, path in ((1, cfg_a), (2, cfg_b)):
        _, trace = cli.run_solver(load_config(path), CostLedger())
        energy = trace.steps()[-1][0]
        assert last[column] == repr(abs(energy - e_ref) / abs(e_ref))


@pytest.mark.parametrize(
    "where", ["trace-is-a-directory", "summary-under-a-file", "compare-output"]
)
def test_unwritable_output_is_a_config_error(tmp_path, capsys, where):
    cfg = write_config(tmp_path, "u.ini", BASE)
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("")
    argv = {
        "trace-is-a-directory": ["run", cfg, "--set", f"output.trace={tmp_path / 'adir'}"],
        "summary-under-a-file": [
            "run", cfg, "--set", f"output.summary={tmp_path / 'afile' / 'x.json'}"
        ],
        "compare-output": ["compare", cfg, cfg, "-o", str(tmp_path / "adir")],
    }[where]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Traceback" not in err


def test_ledger_report_round_trip(tmp_path, capsys):
    body, out = with_outputs(tmp_path, "led")
    cfg = write_config(tmp_path, "l.ini", body)
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    assert main(["ledger-report", str(out / "ledger.json")]) == 0
    text = capsys.readouterr().out
    assert "flop ledger" in text and "cost/processor" in text

    bad = tmp_path / "bad.json"
    bad.write_text("{\"a\": 1}")
    assert main(["ledger-report", str(bad)]) == 2
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        3,
        {"sequential_flops": "x", "per_worker_flops": {}, "per_class_flops": {}},
        {"sequential_flops": 1.0, "per_worker_flops": [], "per_class_flops": {}},
        {"sequential_flops": -5, "per_worker_flops": {}, "per_class_flops": {}},
        {"sequential_flops": "12", "per_worker_flops": {}, "per_class_flops": {}},
        {"sequential_flops": 1.0, "per_worker_flops": {"w": True}, "per_class_flops": {}},
    ],
    ids=["bare-number", "non-numeric-flops", "list-of-workers", "negative-flops",
         "string-flops", "boolean-flops"],
)
def test_ledger_report_rejects_wrong_shapes(tmp_path, capsys, body):
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps(body))
    assert main(["ledger-report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ledger ") and "Traceback" not in err


def test_random_model_runs_and_reference_none(tmp_path):
    body = """\
[model]
kind = random
sites = 5
rank = 2
seed = 3

[run]
algorithm = a2dmrg1
max_rank = 6
eig_tol = 1e-8
energy_tol = 1e-9
max_iters = 40
seed = 1
reference = none
"""
    out = tmp_path / "r"
    body += f"\n[output]\nsummary = {out}/summary.json\n"
    cfg = write_config(tmp_path, "r.ini", body)
    assert main(["run", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reference_energy"] is None
    assert summary["relative_error"] is None
    assert np.isfinite(summary["final_energy"])


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_percent_sign_in_a_path_is_taken_literally(tmp_path):
    body = BASE + f"\n[output]\nsummary = {tmp_path}/a%b.json\n"
    cfg = write_config(tmp_path, "pct.ini", body)
    assert main(["run", cfg, "--set", f"output.ledger={tmp_path}/x%y.json"]) == 0
    assert json.loads((tmp_path / "a%b.json").read_text())["algorithm"] == "dmrg2"
    assert "per_class_flops" in json.loads((tmp_path / "x%y.json").read_text())


def solver_ran(*args):
    raise AssertionError("the solver ran")


@pytest.mark.parametrize(
    "where", ["trace-is-a-directory", "summary-under-a-file", "compare-output"]
)
def test_bad_output_path_ends_the_run_before_the_solve(tmp_path, capsys, monkeypatch, where):
    monkeypatch.setattr(cli, "run_solver", solver_ran)
    test_unwritable_output_is_a_config_error(tmp_path, capsys, where)


def test_output_directories_are_made_before_the_solve(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_solver", solver_ran)
    cfg = write_config(tmp_path, "d.ini", with_outputs(tmp_path, "new/deep")[0])
    with pytest.raises(AssertionError, match="the solver ran"):
        main(["run", cfg])
    assert (tmp_path / "new" / "deep").is_dir()


# eig_tol = 0 runs every local solve to its budget, so none converges;
# both solvers at energy_tol = 0 may run to their budget, through the CLI
# and through the library alike
@pytest.mark.filterwarnings("ignore:.*did not converge:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:run stopped at max_half_sweeps = 20 without:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:run stopped at max_iters = 20 without:RuntimeWarning")
@pytest.mark.parametrize("algorithm", ["dmrg2", "a2dmrg1"])
@pytest.mark.parametrize("key", ["eig_tol", "energy_tol"])
def test_zero_tolerance_runs_as_the_library_does(tmp_path, capsys, key, algorithm):
    body, out = with_outputs(tmp_path, "zero")
    cfg = write_config(tmp_path, "z.ini", body)
    argv = ["run", cfg, "--algorithm", algorithm, "--set", f"run.{key}=0"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""

    # the same run, straight through the library
    tols = {"eig_tol": 1e-8, "energy_tol": 1e-8, key: 0.0}
    op = ising_chain(6)
    init = random_tt(op.dims, 2, seed=0)
    ledger = CostLedger()
    if algorithm == "dmrg2":
        config = SweepConfig(mode="two-site", max_rank=8, max_half_sweeps=20, seed=0, **tols)
        state, trace = run_dmrg(init, op, config, ledger)
    else:
        config = TwoLevelConfig(mode="one-site", max_rank=8, max_iters=20, seed=0, **tols)
        e_ref, _ = dense_ground_state(op)
        state, trace = run_two_level(init, op, config, ledger, reference_energy=e_ref)
    assert (out / "trace.csv").read_text() == trace.to_csv()
    assert (out / "ledger.json").read_text() == ledger.report_json() + "\n"
    assert (out / "state.tt").read_bytes() == tt_bytes(state)


# a value other than the default and a2dmrg2 for every [run] key
NON_DEFAULT_RUN = {
    "algorithm": "a2dmrg1", "max_rank": 5, "init_rank": 3, "eig_tol": 1e-7, "svd_tol": 1e-9,
    "energy_tol": 1e-5, "max_iters": 7, "seed": 4,
    "structured_coarse": True, "reference": "none",
}


def test_every_run_key_reaches_the_run(tmp_path):
    assert set(NON_DEFAULT_RUN) == set(SCHEMA["run"])
    cfg = write_config(tmp_path, "keys.ini", "[model]\nsites = 5\n[run]\nalgorithm = a2dmrg2\n")
    base = load_config(cfg)
    assert base.solver == TwoLevelConfig(mode="two-site", max_rank=16, eig_tol=1e-6,
                                         energy_tol=1e-6, max_iters=200)
    for key, value in NON_DEFAULT_RUN.items():
        assert value != SCHEMA["run"][key]
        changed = load_config(cfg, [f"run.{key}={value}"])
        same_init = changed.init.ranks == base.init.ranks and all(
            np.array_equal(a, b) for a, b in zip(changed.init.cores, base.init.cores)
        )
        assert (changed.solver != base.solver or not same_init
                or changed.run.reference != base.run.reference), key


RANDOM = ["model.kind=random"]
HEIS = ["model.kind=heisenberg"]
# overrides of BASE, and the library call that rejects the same value
LIBRARY_REJECTS = [
    (["run.max_rank=0"], lambda: TwoLevelConfig(max_rank=0)),
    (["run.init_rank=0"], lambda: random_tt((2,) * 6, 0)),
    (["run.eig_tol=-1"], lambda: TwoLevelConfig(eig_tol=-1.0)),
    (["run.energy_tol=nan"], lambda: TwoLevelConfig(energy_tol=float("nan"))),
    (["run.svd_tol=-1e-3"], lambda: SweepConfig(svd_tol=-1e-3)),
    (["run.max_iters=0"], lambda: TwoLevelConfig(max_iters=0)),
    (["run.seed=-1"], lambda: random_tt((2,) * 6, 2, seed=-1)),
    (["model.sites=1"], lambda: ising_chain(1)),
    (["model.coupling=nan"], lambda: ising_chain(6, coupling=float("nan"))),
    (["model.field=inf"], lambda: ising_chain(6, field=float("inf"))),
    (HEIS + ["model.coupling=-inf"], lambda: heisenberg_chain(6, coupling=-float("inf"))),
    (RANDOM + ["model.local_dim=0"], lambda: random_symmetric_mpo(6, n=0)),
    (RANDOM + ["model.local_dim=-1"], lambda: random_symmetric_mpo(6, n=-1)),
    (RANDOM + ["model.rank=0"], lambda: random_symmetric_mpo(6, rank=0)),
    (RANDOM + ["model.sites=1"], lambda: random_symmetric_mpo(1)),
]


@pytest.mark.parametrize(
    "overrides, make", LIBRARY_REJECTS, ids=[",".join(o) for o, _ in LIBRARY_REJECTS]
)
def test_library_rejection_is_a_config_error(tmp_path, capsys, overrides, make):
    with pytest.raises(ValueError) as exc:
        make()
    body, out = with_outputs(tmp_path, "out")
    cfg = write_config(tmp_path, "bad.ini", body)
    sets = [arg for item in overrides for arg in ("--set", item)]
    for command in ("run", "oracle"):
        assert main([command, cfg, *sets]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not out.exists()


def test_model_keys_the_kind_does_not_read_are_not_range_checked(tmp_path):
    cfg = write_config(tmp_path, "m.ini", BASE)
    loaded = load_config(cfg, ["model.rank=0", "model.local_dim=-1", "model.seed=-5"])
    assert all(np.array_equal(a, b) for a, b in zip(loaded.op.cores, ising_chain(6).cores))
    with pytest.raises(CliError, match="model.rank"):
        load_config(cfg, ["model.rank=two"])
