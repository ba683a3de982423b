import json
import math

import numpy as np
import pytest

from ttdmrg import dmrg as dmrg_module
from ttdmrg import sums as sums_module
from ttdmrg import tt as tt_module
from ttdmrg.dmrg import SweepConfig, run_dmrg
from ttdmrg.ledger import (
    CostLedger,
    contract,
    eigh_flops,
    qr_flops,
    svd_flops,
    tensordot_flops,
)
from ttdmrg.models import heisenberg_chain
from ttdmrg.tt import random_tt
from ttdmrg.twolevel import TwoLevelConfig, run_two_level


def test_flop_formulas():
    assert tensordot_flops((3, 4), (4, 5), 4) == 2 * 3 * 4 * 5
    # (2,3,4) contracted with (4,5) over the size-4 axis is a 6x4 @ 4x5 product
    assert tensordot_flops((2, 3, 4), (4, 5), 4) == 2 * 6 * 4 * 5
    assert qr_flops(10, 4) == 4 * 10 * 16
    assert qr_flops(4, 10) == 4 * 10 * 16
    assert svd_flops(8, 3) == 14 * 8 * 9
    assert eigh_flops(5) == 9 * 125


def merge_task(led, tag, op_class, flops):
    """Charge one task's work to a private ledger and merge it under ``tag``,
    the one way a worker tag gets flops."""
    task = CostLedger()
    task.charge(op_class, flops)
    led.merge(task, tag)


def test_charge_and_totals():
    led = CostLedger()
    led.charge("qr", 100.0)
    merge_task(led, "w0", "matvec", 50.0)
    merge_task(led, "w1", "matvec", 70.0)
    merge_task(led, "w0", "svd", 10.0)
    assert led.sequential_flops == 100.0
    assert led.per_worker_flops == {"w0": 60.0, "w1": 70.0}
    assert led.total_flops() == 230.0
    assert led.max_worker_flops() == 70.0
    assert led.cost_per_processor() == 170.0
    assert led.per_class_flops["matvec"] == 120.0


def test_negative_charge_rejected():
    led = CostLedger()
    with pytest.raises(ValueError):
        led.charge("qr", -1.0)


@pytest.mark.parametrize("flops", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_charge_rejected(flops):
    # a report holding it would not read back through from_report
    led = CostLedger()
    with pytest.raises(ValueError, match="not a finite nonnegative flop charge"):
        led.charge("qr", flops)
    assert led.report() == CostLedger().report()
    CostLedger.from_report(json.loads(led.report_json()))


def test_merge_maps_task_ledger_to_worker():
    main = CostLedger()
    task = CostLedger()
    task.charge("env_build", 30.0)
    task.charge("matvec", 12.0)
    main.merge(task, "solve2")
    assert main.per_worker_flops == {"solve2": 42.0}
    assert main.per_class_flops == {"env_build": 30.0, "matvec": 12.0}
    main.charge("qr", 8.0)
    main.merge(task, "solve2")
    assert main.sequential_flops == 8.0
    assert main.per_worker_flops == {"solve2": 84.0}
    assert main.total_flops() == 92.0
    with pytest.raises(TypeError):
        main.merge(task)  # a merged ledger always has a tag


def test_report_roundtrips_as_json():
    led = CostLedger()
    led.charge("inner", 1.0)
    merge_task(led, "a", "matvec", 2.0)
    r = json.loads(led.report_json())
    assert r["total_flops"] == 3.0
    assert r["cost_per_processor"] == 3.0
    assert r["speedup_vs_single_processor"] == 1.0
    assert "inner" in r["per_class_flops"]
    assert "flop ledger" in led.format_report()


def test_from_report_reads_back_what_report_writes():
    led = CostLedger()
    led.charge("inner", 1.5)
    merge_task(led, "a", "matvec", 2.0)
    merge_task(led, "b", "svd", 7.0)
    back = CostLedger.from_report(json.loads(led.report_json()))
    assert back.report() == led.report()
    assert back.format_report() == led.format_report()


@pytest.mark.parametrize(
    "data, message",
    [
        (3, "not a JSON object"),
        ([], "not a JSON object"),
        ({"per_worker_flops": {}, "per_class_flops": {}}, "missing 'sequential_flops'"),
        ({"sequential_flops": 1.0, "per_class_flops": {}}, "missing 'per_worker_flops'"),
        ({"sequential_flops": 1.0, "per_worker_flops": {}}, "missing 'per_class_flops'"),
        ({"sequential_flops": "x", "per_worker_flops": {}, "per_class_flops": {}}, "malformed"),
        ({"sequential_flops": None, "per_worker_flops": {}, "per_class_flops": {}}, "malformed"),
        ({"sequential_flops": 1.0, "per_worker_flops": [], "per_class_flops": {}}, "malformed"),
        ({"sequential_flops": 1.0, "per_worker_flops": {}, "per_class_flops": {"a": "b"}},
         "malformed"),
        ({"sequential_flops": -5, "per_worker_flops": {}, "per_class_flops": {}}, "malformed"),
        ({"sequential_flops": 1.0, "per_worker_flops": {"a": float("nan")}, "per_class_flops": {}},
         "malformed"),
        ({"sequential_flops": 1.0, "per_worker_flops": {}, "per_class_flops": {"x": -math.inf}},
         "malformed"),
        # only JSON numbers are counts: not what float() also reads
        ({"sequential_flops": "12", "per_worker_flops": {}, "per_class_flops": {}}, "malformed"),
        ({"sequential_flops": 1.0, "per_worker_flops": {"a": "1e3"}, "per_class_flops": {}},
         "malformed"),
        ({"sequential_flops": True, "per_worker_flops": {}, "per_class_flops": {}}, "malformed"),
        ({"sequential_flops": 1.0, "per_worker_flops": {}, "per_class_flops": {"x": False}},
         "malformed"),
        ({"sequential_flops": 10**400, "per_worker_flops": {}, "per_class_flops": {}},
         "malformed"),
    ],
)
def test_from_report_rejects_missing_keys_and_wrong_shapes(data, message):
    with pytest.raises(ValueError, match=message):
        CostLedger.from_report(data)


def test_totals_do_not_depend_on_worker_assignment():
    charges = [(f"op{i % 3}", float(i + 1)) for i in range(12)]
    totals = []
    for nworkers in (1, 4, 12):
        led = CostLedger()
        for i, (cls, fl) in enumerate(charges):
            merge_task(led, f"w{i % nworkers}", cls, fl)
        totals.append(led.total_flops())
    assert totals[0] == totals[1] == totals[2]


# -- the contraction kernel ---------------------------------------------------

# (a.shape, b.shape, axes): one per contraction pattern in the package, with
# shapes chosen so every extent differs
SIGNATURES = [
    ((3, 4, 5), (3, 2, 6), ((0,), (0,))),  # left env / left overlap, first step
    ((4, 2), (4, 3, 5), ((0,), (0,))),
    ((4, 5, 2, 6), (4, 2, 2, 7), ((0, 2), (0, 1))),  # left env, operator step
    ((5, 6, 3, 7), (5, 3, 8), ((0, 2), (0, 1))),
    ((3, 2, 4), (4, 5, 6), ((2,), (0,))),  # right env / center times right core
    ((3, 2, 5, 6), (7, 2, 3, 5), ((1, 2), (1, 3))),
    ((3, 4, 5, 2), (6, 2, 4), ((3, 1), (1, 2))),
    ((4, 5, 6), (6, 2, 3, 7), ((2,), (0,))),  # local matvec, first step
    ((4, 5, 2, 3, 7), (5, 6, 2, 8), ((1, 2), (0, 2))),
    ((4, 2, 3, 6, 8), (8, 5, 2, 9), ((4, 1), (0, 2))),
    ((4, 7, 3, 6), (5, 6, 7), ((1, 3), (2, 1))),
    ((4, 3, 6, 5, 9), (8, 9, 3), ((1, 4), (2, 1))),
    ((2, 3, 4), (5, 3, 4), ((1, 2), (1, 2))),  # right overlap
    ((3, 4), (3, 4, 6), ((0, 1), (0, 1))),
    ((4, 3), (3, 2, 5), ((1,), (0,))),  # gauge moves
    ((2, 3, 4, 5), (5, 2, 6), ((-1,), (0,))),  # dense contraction, negative axis
    ((2, 3, 4), (3, 4, 5), ((-2, -1), (0, 1))),
]


@pytest.mark.parametrize("a_shape, b_shape, axes", SIGNATURES)
def test_contract_is_tensordot_and_charges_tensordot_flops(a_shape, b_shape, axes):
    rng = np.random.default_rng(len(a_shape) * 10 + len(b_shape))
    a = rng.standard_normal(a_shape)
    b = rng.standard_normal(b_shape)
    for x, y in ((a, b), (np.asfortranarray(a), np.asfortranarray(b))):
        led = CostLedger()
        out = contract(led, "matvec", x, y, axes)
        want = np.tensordot(x, y, axes=(list(axes[0]), list(axes[1])))
        assert out.shape == want.shape
        assert np.array_equal(out, want)
        k = math.prod(b_shape[ax] for ax in axes[1])
        assert led.per_class_flops == {"matvec": tensordot_flops(a_shape, b_shape, k)}
        assert contract(None, "matvec", x, y, axes).shape == want.shape


def test_contract_on_transposed_views():
    rng = np.random.default_rng(1)
    r = rng.standard_normal((4, 3))
    core = rng.standard_normal((2, 5, 3))
    assert np.array_equal(
        contract(None, "qr", core, r.T, ((2,), (0,))), np.tensordot(core, r.T, axes=([2], [0]))
    )


def test_contract_rejects_mismatched_extents():
    with pytest.raises(ValueError):
        contract(None, "matvec", np.ones((2, 3)), np.ones((4, 5)), ((1,), (0,)))


# the runs only harvest contraction signatures, on budgets too short to converge
@pytest.mark.filterwarnings("ignore:run stopped at max_half_sweeps = 2 without:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:run stopped at max_iters = 1 without:RuntimeWarning")
def test_contract_matches_tensordot_on_every_signature_the_solvers_use(monkeypatch):
    seen = set()

    def recording(ledger, op_class, a, b, axes):
        seen.add((a.shape, b.shape, axes))
        return contract(ledger, op_class, a, b, axes)

    for module in (tt_module, dmrg_module, sums_module):
        monkeypatch.setattr(module, "contract", recording)
    op = heisenberg_chain(6)
    init = random_tt(op.dims, 3, seed=2)
    init.to_dense()
    for mode in ("one-site", "two-site"):
        cap = 4 if mode == "two-site" else 3  # one-site sweeps keep the start's rank
        run_dmrg(init, op, SweepConfig(mode=mode, max_rank=cap, max_half_sweeps=2))
        for structured in (False, True):
            run_two_level(init, op, TwoLevelConfig(
                mode=mode, max_rank=4, max_iters=1, structured_coarse=structured))
    # the projected matvecs and the transfer steps read their operands in
    # place and do not contract through it
    assert len({axes for _, _, axes in seen}) >= 5
    rng = np.random.default_rng(3)
    for a_shape, b_shape, axes in sorted(seen):
        a = rng.standard_normal(a_shape)
        b = rng.standard_normal(b_shape)
        led = CostLedger()
        out = contract(led, "inner", a, b, axes)
        assert np.array_equal(out, np.tensordot(a, b, axes=axes))
        k = math.prod(b_shape[ax] for ax in axes[1])
        assert led.per_class_flops == {"inner": tensordot_flops(a_shape, b_shape, k)}
