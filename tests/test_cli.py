"""Experiment driver: config parsing, subcommands, deterministic outputs."""

import json

import numpy as np
import pytest

from ttdmrg.cli import CliError, load_config, main
from ttdmrg.io import load_tt
from ttdmrg.models import dense_ground_state, ising_chain
from ttdmrg.tt import separation_ranks

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
        "run", cfg, "--algorithm", "a2dmrg2", "--workers", "3",
        "--set", "run.energy_tol=1e-10",
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
    cfg = write_config(tmp_path, "k3.ini", BASE + "fallback_compression = true\n")
    assert main(["run", cfg]) == 2
    assert "fallback_compression" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_load_config_validates_values(tmp_path):
    cfg = write_config(tmp_path, "v.ini", BASE.replace("eig_tol = 1e-8", "eig_tol = -1"))
    with pytest.raises(CliError, match="positive"):
        load_config(cfg)
    cfg = write_config(tmp_path, "w.ini", BASE.replace("seed = 0", "workers = 0"))
    with pytest.raises(CliError, match="worker"):
        load_config(cfg)


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
