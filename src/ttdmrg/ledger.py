"""Analytic floating-point operation ledger.

Costs are charged from closed-form counts rather than measured, so they are
exactly reproducible across machines and runs:

* matrix product (m, k) x (k, n): 2*m*k*n
* thin QR with explicit Q, m >= n:  4*m*n**2
* SVD, m >= n:                      14*m*n**2
* symmetric eigendecomposition:     9*n**3

A charge carries an operation class (see ``OP_CLASSES``) and is sequential
work.  Work that may run in parallel is charged to a private task ledger,
which the driver merges under the task's worker tag (:meth:`CostLedger.merge`),
so a tag only ever holds merged task ledgers.  The aggregate cost of a run
on an idealized machine with one processor per worker tag is

    cost_per_processor = sequential_flops + max over workers

while ``total_flops`` is the classical single-processor equivalent.

Each kernel charges its own work once per call (a Lanczos solve once, as
it returns).  Counts and totals are integer-valued floats below 2**53, so
every sum is exact and how charges are grouped never changes a report.
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
    # |a| = M*K, |b| = K*N  ->  2*M*K*N = 2*|a|*|b|/K
    return 2.0 * math.prod(a_shape) * math.prod(b_shape) / max(contracted, 1)


def contract(ledger, op_class, a, b, axes):
    """``np.tensordot(a, b, axes)``, charged to ``ledger`` as
    :func:`tensordot_flops` under ``op_class`` (nothing when ``ledger`` is
    None).  ``axes`` is a pair of tuples of axes of ``a`` and ``b``
    (negative entries count from the end)."""
    out = np.tensordot(a, b, axes)
    k = math.prod(a.shape[ax] for ax in axes[0])
    charge(ledger, op_class, tensordot_flops(a.shape, b.shape, k))
    return out


def qr_flops(m, n):
    m, n = max(m, n), min(m, n)
    return 4.0 * m * n * n


def svd_flops(m, n):
    m, n = max(m, n), min(m, n)
    return 14.0 * m * n * n


def eigh_flops(n):
    return 9.0 * n * n * n


class CostLedger:
    """Accumulates analytic flop counts by operation class and worker."""

    def __init__(self):
        self.sequential_flops = 0.0
        self.per_worker_flops = {}
        self.per_class_flops = {}

    def charge(self, op_class, flops):
        """Charge ``flops`` of ``op_class`` as sequential work; ``ValueError``
        on a count that is negative or not finite, as :meth:`from_report`."""
        flops = float(flops)
        if not 0.0 <= flops < math.inf:  # written so that a NaN fails too
            raise ValueError(f"{flops} is not a finite nonnegative flop charge")
        self.per_class_flops[op_class] = self.per_class_flops.get(op_class, 0.0) + flops
        self.sequential_flops += flops

    def merge(self, other, worker):
        """Fold a task-local ledger into this one under the worker tag ``worker``.

        Tasks charge private ledgers that the driver merges in task
        order, so every tag holds exactly its own task's work.
        """
        for k, v in other.per_class_flops.items():
            self.per_class_flops[k] = self.per_class_flops.get(k, 0.0) + v
        self.per_worker_flops[worker] = self.per_worker_flops.get(worker, 0.0) + other.total_flops()

    def total_flops(self):
        return self.sequential_flops + sum(self.per_worker_flops.values())

    def max_worker_flops(self):
        return max(self.per_worker_flops.values(), default=0.0)

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
        back); ``ValueError`` on a missing key, a wrong shape, a count that
        is not a JSON number (a string or a boolean), or one that is
        negative or not finite, which no charge can produce."""
        if not isinstance(data, dict):
            raise ValueError("report is not a JSON object")

        def flops(v):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"{v!r} is not a number")
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
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
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


def charge(ledger, op_class, flops):
    """Charge helper tolerating ``ledger=None``."""
    if ledger is not None:
        ledger.charge(op_class, flops)
