"""Tensor-train containers, gauges, rounding, and disk round trips.

Run as a script; prints what each step does to the ranks and the error.
"""

import tempfile

import numpy as np

from ttdmrg import (
    TensorTrain,
    inner,
    load_tt,
    orthogonalize,
    random_tt,
    round_tt,
    save_tt,
    separation_ranks,
    tt_add,
    tt_scale,
)

dims = (2, 3, 2, 3, 2)
x = random_tt(dims, 4, seed=7)
print("random train        dims", x.dims, "ranks", x.ranks)

# Gauge moves are exact: the represented tensor never changes.
dense = x.to_dense()
for center in (0, x.d - 1, 2):
    moved = orthogonalize(x, center)
    err = np.linalg.norm(moved.to_dense() - dense) / np.linalg.norm(dense)
    print(f"center -> {center}:  ranks {moved.ranks}  gauge error {err:.2e}")

# Addition doubles ranks; rounding brings them back down when the sum
# is compressible.  x + x is just 2x, so rounding recovers the originals.
s = tt_add(x, x)
print("x + x               ranks", s.ranks)
rounded = round_tt(s, tol=1e-12)
err = np.linalg.norm(rounded.to_dense() - 2 * dense) / np.linalg.norm(2 * dense)
print("rounded             ranks", rounded.ranks, f" error {err:.2e}")

# Separation ranks of the dense tensor match the minimal TT ranks.
print("separation ranks   ", separation_ranks(dense))

# Inner products contract pairs of trains without going dense.
y = tt_scale(random_tt(dims, 3, seed=8), 0.5)
lhs = inner(x, y)
rhs = float(np.vdot(x.to_dense(), y.to_dense()))
print(f"inner vs dense      {lhs:.10f} vs {rhs:.10f}")

# Trains round-trip through a small binary container.
with tempfile.NamedTemporaryFile(suffix=".tt") as fh:
    save_tt(x, fh.name)
    back = load_tt(fh.name)
print("disk round trip     exact:", all(
    np.array_equal(a, b) for a, b in zip(x.cores, back.cores)
))

# Cores are plain numpy arrays; a train is just the list of them.
first = x.cores[0]
print("first core shape   ", first.shape, "(rank, dim, rank)")
custom = TensorTrain([np.ones((1, 2, 1)) for _ in range(4)])
print("constant train      entry sum", custom.to_dense().sum())
