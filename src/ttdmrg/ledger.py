"""Analytic floating-point operation ledger.

Costs are charged from closed-form counts rather than measured, so they are
exactly reproducible across machines and runs:

* matrix product (m, k) x (k, n): 2*m*k*n
* thin QR with explicit Q, m >= n:  4*m*n**2
* SVD, m >= n:                      14*m*n**2
* symmetric eigendecomposition:     9*n**3

Charges carry an operation class (see ``OP_CLASSES``) and optionally a worker
tag.  Untagged work is sequential.  The aggregate cost of a run on an
idealized machine with one processor per worker tag is

    cost_per_processor = sequential_flops + max over workers

while ``total_flops`` is the classical single-processor equivalent.
"""

from __future__ import annotations

import json
import math

import numpy as np

OP_CLASSES = (
    "env_build",
    "env_update",
    "matvec",
    "qr",
    "svd",
    "inner",
    "coarse",
    "matmul",
)


def tensordot_flops(a_shape, b_shape, contracted):
    """Flops of a pairwise tensor contraction.

    ``contracted`` is the product of the contracted dimensions; the
    contraction is counted as one (M, K) x (K, N) matrix product.
    """
    pa = 1
    for s in a_shape:
        pa *= s
    pb = 1
    for s in b_shape:
        pb *= s
    # pa = M*K, pb = K*N  ->  2*M*K*N = 2*pa*pb/K
    return 2.0 * pa * pb / max(contracted, 1)


# Contraction plans keyed by (a.shape, b.shape, axes).  Entries are shape
# tuples only; the cache is cleared when it reaches its cap.  Two threads
# that miss on the same key at once both compute its plan, which is harmless.
_PLANS = {}
_PLAN_CAP = 4096


def _plan(a_shape, b_shape, axes):
    # the same permutation and reshapes np.tensordot derives
    axes_a = [ax + len(a_shape) if ax < 0 else ax for ax in axes[0]]
    axes_b = [ax + len(b_shape) if ax < 0 else ax for ax in axes[1]]
    if [a_shape[i] for i in axes_a] != [b_shape[i] for i in axes_b]:
        raise ValueError(f"shape mismatch contracting {a_shape} and {b_shape} over {axes}")
    free_a = [ax for ax in range(len(a_shape)) if ax not in axes_a]
    free_b = [ax for ax in range(len(b_shape)) if ax not in axes_b]
    k = math.prod(a_shape[ax] for ax in axes_a)
    return (
        tuple(free_a + axes_a),
        (math.prod(a_shape[ax] for ax in free_a), k),
        tuple(axes_b + free_b),
        (k, math.prod(b_shape[ax] for ax in free_b)),
        tuple(a_shape[ax] for ax in free_a) + tuple(b_shape[ax] for ax in free_b),
        tensordot_flops(a_shape, b_shape, k),
    )


def contract(ledger, op_class, a, b, axes):
    """``np.tensordot(a, b, axes)``, charged to ``ledger`` as
    :func:`tensordot_flops` under ``op_class`` (nothing when ``ledger`` is
    None).

    ``axes`` is a pair of tuples of axes of ``a`` and ``b`` (negative
    entries count from the end).  The result is bitwise equal to
    ``np.tensordot``: the same transpose, reshape, ``np.dot`` and reshape
    run, from a plan cached per shape signature.
    """
    key = (a.shape, b.shape, axes)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _plan(*key)
        if len(_PLANS) >= _PLAN_CAP:
            _PLANS.clear()
        _PLANS[key] = plan
    perm_a, shape_a, perm_b, shape_b, shape_out, flops = plan
    if ledger is not None:
        ledger.charge(op_class, flops)
    at = a.transpose(perm_a).reshape(shape_a)
    bt = b.transpose(perm_b).reshape(shape_b)
    return np.dot(at, bt).reshape(shape_out)


def qr_flops(m, n):
    if m < n:
        m, n = n, m
    return 4.0 * m * n * n


def svd_flops(m, n):
    if m < n:
        m, n = n, m
    return 14.0 * m * n * n


def eigh_flops(n):
    return 9.0 * n * n * n


class CostLedger:
    """Accumulates analytic flop counts by operation class and worker."""

    def __init__(self):
        self.sequential_flops = 0.0
        self.per_worker_flops = {}
        self.per_class_flops = {}

    def charge(self, op_class, flops, worker=None):
        flops = float(flops)
        if flops < 0:
            raise ValueError("negative flop charge")
        self.per_class_flops[op_class] = self.per_class_flops.get(op_class, 0.0) + flops
        if worker is None:
            self.sequential_flops += flops
        else:
            self.per_worker_flops[worker] = self.per_worker_flops.get(worker, 0.0) + flops

    def merge(self, other, worker=None):
        """Fold a task-local ledger into this one under one worker tag.

        Tasks charge private ledgers that the driver merges in task
        order, so every tag holds exactly its own task's work.
        """
        for k, v in other.per_class_flops.items():
            self.per_class_flops[k] = self.per_class_flops.get(k, 0.0) + v
        t = other.total_flops()
        if worker is None:
            self.sequential_flops += t
        else:
            self.per_worker_flops[worker] = self.per_worker_flops.get(worker, 0.0) + t

    def total_flops(self):
        return self.sequential_flops + sum(self.per_worker_flops.values())

    def max_worker_flops(self):
        if not self.per_worker_flops:
            return 0.0
        return max(self.per_worker_flops.values())

    def cost_per_processor(self):
        return self.sequential_flops + self.max_worker_flops()

    def report(self):
        total = self.total_flops()
        cpp = self.cost_per_processor()
        return {
            "sequential_flops": self.sequential_flops,
            "per_worker_flops": dict(sorted(self.per_worker_flops.items())),
            "per_class_flops": dict(sorted(self.per_class_flops.items())),
            "max_worker_flops": self.max_worker_flops(),
            "total_flops": total,
            "cost_per_processor": cpp,
            "speedup_vs_single_processor": total / cpp if cpp > 0 else 1.0,
        }

    @classmethod
    def from_report(cls, data):
        """The ledger whose :meth:`report` is ``data`` (as JSON reads it
        back); ``ValueError`` on a missing key, a wrong shape, or a count
        that is negative or not finite, which no charge can produce."""
        if not isinstance(data, dict):
            raise ValueError("report is not a JSON object")

        def flops(v):
            x = float(v)
            if not (math.isfinite(x) and x >= 0.0):
                raise ValueError(f"{x} is not a finite nonnegative flop count")
            return x

        led = cls()
        try:
            led.sequential_flops = flops(data["sequential_flops"])
            led.per_worker_flops = {k: flops(v) for k, v in data["per_worker_flops"].items()}
            led.per_class_flops = {k: flops(v) for k, v in data["per_class_flops"].items()}
        except KeyError as exc:
            raise ValueError(f"report is missing {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"report has a malformed entry: {exc}") from exc
        return led

    def report_json(self):
        return json.dumps(self.report(), indent=2, sort_keys=True)

    def format_report(self):
        r = self.report()
        lines = [
            "flop ledger",
            f"  sequential        {r['sequential_flops']:.6e}",
            f"  max worker        {r['max_worker_flops']:.6e}",
            f"  cost/processor    {r['cost_per_processor']:.6e}",
            f"  total (1 proc)    {r['total_flops']:.6e}",
            f"  speedup           {r['speedup_vs_single_processor']:.3f}",
            "  by class:",
        ]
        for k, v in r["per_class_flops"].items():
            lines.append(f"    {k:<12} {v:.6e}")
        return "\n".join(lines)


def charge(ledger, op_class, flops, worker=None):
    """Charge helper tolerating ``ledger=None``."""
    if ledger is not None:
        ledger.charge(op_class, flops, worker=worker)
