"""Tensor trains: contraction, gauges, rounding, and separation ranks.

A tensor train represents X(x_0, ..., x_{d-1}) as a product of core slices

    X(x_0, ..., x_{d-1}) = C_0(x_0) C_1(x_1) ... C_{d-1}(x_{d-1})

where core ``j`` is an ndarray of shape ``(rank[j], dims[j], rank[j+1])``
with boundary ranks 1.  Sites are 0-based.  A train is site-orthogonal at
``center`` when every core left of the center is column-orthonormal in its
``(rank*dim, rank)`` unfolding and every core right of it is row-orthonormal
in its ``(rank, dim*rank)`` unfolding; ``center == d-1`` is the
left-orthogonal gauge and ``center == 0`` the right-orthogonal one.

The chain format (axis counts, matching bonds, unit boundary ranks) is
checked in one place, the base class ``_CoreChain`` that trains share with
operators (:class:`~ttdmrg.mpo.MatrixProductOperator`, the two-leg kind);
:func:`tt_add` and :func:`tt_scale` are the direct sum and scaling of both.

All factorizations use a fixed sign convention (the largest-magnitude entry
of every orthonormal column is nonnegative) so repeated runs are bitwise
reproducible.
"""

from __future__ import annotations

import copy
import math
import numbers
import os

import numpy as np

from .ledger import charge, contract, qr_flops, svd_flops, tensordot_flops

DEFAULT_DENSE_CAP = 1 << 20
DENSE_CAP_ENV = "TTDMRG_DENSE_CAP"

# Relative singular value threshold defining numerical separation ranks.
SEPARATION_RANK_RTOL = 1e-10


def dense_cap(cap=None):
    """Resolve the densification cap: explicit argument, else environment
    variable ``TTDMRG_DENSE_CAP``, else 2**20 entries.  Either must be an
    integer of at least one (a bool is not one), else ``ValueError``."""
    if cap is not None:
        check_integer("dense cap", cap)
        return cap
    env = os.environ.get(DENSE_CAP_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{DENSE_CAP_ENV} must be an integer, got {env!r}") from None
        check_integer(DENSE_CAP_ENV, cap)
        return cap
    return DEFAULT_DENSE_CAP


def _check_dense_size(numel, cap):
    cap = dense_cap(cap)
    if numel > cap:
        raise ValueError(
            f"dense tensor with {numel} entries exceeds the cap of {cap}; "
            f"raise it explicitly or via {DENSE_CAP_ENV}"
        )


def check_integer(name, value, least=1):
    """Reject ``name`` unless it is an integer (not a bool) of at least ``least``, 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}, got {value}")


def _check_center(center, d):
    """Reject a gauge center that is not a site index of a ``d``-site train."""
    check_integer("center", center, least=0)
    if center >= d:
        raise ValueError(f"center {center} out of range for {d} sites")


def check_cap(name, value):
    """Reject a cap ``name`` that is neither None nor an integer >= 1."""
    if value is not None:
        check_integer(name, value)


def check_tol(name, value):
    """Reject a tolerance ``name`` that is negative or NaN; 0 is allowed."""
    if not value >= 0:  # written so that a NaN fails too
        raise ValueError(f"{name} must be nonnegative, got {value!r}")


def column_signs(u):
    """-1.0 for each column of ``u`` whose largest-magnitude entry is
    negative, 1.0 otherwise.  Every factorization here scales its columns
    by these to fix their signs; the scaling is exact."""
    if not u.size:
        return np.ones(u.shape[1])
    return np.where(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0, -1.0, 1.0)


def qr_fixed(a, ledger=None):
    """Reduced QR with deterministic column signs, charged as ``"qr"``."""
    charge(ledger, "qr", qr_flops(*a.shape))
    q, r = np.linalg.qr(a)
    s = column_signs(q)
    return q * s, r * s[:, None]


def lq_fixed(a, ledger=None):
    """Reduced LQ (a = L @ Q, Q row-orthonormal): the QR of ``a.T``."""
    qt, rt = qr_fixed(a.T, ledger)
    return rt.T, qt.T


def svd_fixed(a, ledger=None):
    """Thin SVD with deterministic signs on the left factor's columns, charged as ``"svd"``."""
    charge(ledger, "svd", svd_flops(*a.shape))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    sg = column_signs(u)
    return u * sg, s, vt * sg[:, None]


class _CoreChain:
    """A chain of cores, each ``(rank[j], n_j, ..., rank[j+1])`` with
    ``legs`` local indices between its two bonds: one for a train, a row
    and a column for an operator.  The format is checked here, once for
    both kinds: at least one core, real entries (a complex core is refused,
    not cast), ``legs + 2`` axes per core, no empty local leg, no zero
    bond, matching bonds and unit boundary ranks."""

    legs = 1

    def __init__(self, cores):
        cores = tuple(np.asarray(c) for c in cores)
        if not cores:
            raise ValueError("need at least one core")
        for j, c in enumerate(cores):
            if np.iscomplexobj(c):
                raise ValueError(f"core {j} is complex; chains are real")
            if c.ndim != self.legs + 2:
                raise ValueError(f"core {j} must have {self.legs + 2} axes, got {c.ndim}")
            if 0 in c.shape[1:-1]:
                raise ValueError(f"core {j} has an empty local leg, shape {c.shape}")
            if 0 in (c.shape[0], c.shape[-1]):
                raise ValueError(f"core {j} has a zero bond, shape {c.shape}")
            if j and cores[j - 1].shape[-1] != c.shape[0]:
                raise ValueError(
                    f"bond mismatch between cores {j - 1} and {j}: "
                    f"{cores[j - 1].shape[-1]} vs {c.shape[0]}"
                )
        if cores[0].shape[0] != 1 or cores[-1].shape[-1] != 1:
            raise ValueError("boundary ranks must be 1")
        self.cores = tuple(c.astype(float, copy=False) for c in cores)

    @property
    def d(self):
        return len(self.cores)

    @property
    def dims(self):
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self):
        return tuple(c.shape[0] for c in self.cores) + (1,)

    def __repr__(self):
        return f"{type(self).__name__}(dims={self.dims}, ranks={self.ranks})"


class TensorTrain(_CoreChain):
    """Immutable-by-convention chain of order-3 cores plus a gauge tag.

    Parameters
    ----------
    cores : sequence of ndarray
        Core ``j`` has shape ``(rank[j], dims[j], rank[j+1])``; the chain of
        bond dimensions must match and the boundary ranks must be 1.
    center : int or None
        Site index the train is site-orthogonal at, or None when the gauge
        is unknown.  Constructing with a center asserts nothing; it is a
        tag maintained by the functions in this module.
    """

    def __init__(self, cores, center=None):
        super().__init__(cores)
        if center is not None:
            _check_center(center, self.d)
        self.center = center

    def replace_core(self, j, core):
        """The train with core ``j`` replaced, its gauge unknown."""
        cores = list(self.cores)
        cores[j] = core
        return TensorTrain(cores)

    def to_dense(self, cap=None):
        """Contract all cores into a dense ndarray of shape ``dims``."""
        _check_dense_size(math.prod(self.dims), cap)
        t = self.cores[0][0]
        for c in self.cores[1:]:
            t = contract(None, "matmul", t, c, ((-1,), (0,)))
        return np.ascontiguousarray(t[..., 0])

    def norm(self):
        return math.sqrt(max(inner(self, self), 0.0))

    def __repr__(self):
        return f"TensorTrain(dims={self.dims}, ranks={self.ranks}, center={self.center})"


def clip_ranks(dims, ranks):
    """Clip requested bond dimensions to what the cuts can support.

    ``ranks`` is an int (uniform bond dimension) or a sequence of the d-1
    interior bonds.  Bonds are clipped so every cut and both neighbor chains
    stay representable: ``rank[j] <= min(prod(dims[:j]), prod(dims[j:]))``
    and ``rank[j+1] <= rank[j]*dims[j]`` in both directions.  Returns the
    full d+1 tuple including the unit boundary bonds.  Every local
    dimension and requested rank must be an integer of at least one (a
    bool is not one); clipping only lowers a bond.
    """
    dims = tuple(dims)
    for n in dims:
        check_integer("local dimensions", n)
    d = len(dims)
    if not d:
        raise ValueError("need at least one site")
    scalar = np.isscalar(ranks)
    requested = [ranks] if scalar else list(ranks)
    for r in requested:
        check_integer("ranks", r)
    interior = requested * (d - 1) if scalar else requested
    if len(interior) != d - 1:
        raise ValueError(f"need {d - 1} interior ranks, got {len(interior)}")
    rank = [1] + interior + [1]
    for j in range(1, d):
        rank[j] = min(rank[j], math.prod(dims[:j]), math.prod(dims[j:]))
    for j in range(d):
        rank[j + 1] = min(rank[j + 1], rank[j] * dims[j])
    for j in range(d - 1, -1, -1):
        rank[j] = min(rank[j], dims[j] * rank[j + 1])
    return tuple(rank)


def random_tt(dims, ranks, seed=0):
    """Tensor train with i.i.d. standard normal core entries.

    Bond dimensions are clipped with :func:`clip_ranks`, which rejects a
    local dimension or requested rank that is not an integer of at least
    one.
    """
    dims = tuple(dims)
    rank = clip_ranks(dims, ranks)
    rng = np.random.default_rng(seed)
    cores = [rng.standard_normal((rank[j], dims[j], rank[j + 1])) for j in range(len(dims))]
    return TensorTrain(cores)


def overlap_step_flops(cx, cy):
    """What one overlap step costs in either direction, ``2n(a a' b' + a b
    b')`` for ``cx (a, n, b)`` and ``cy (a', n, b')``."""
    a, n, b = cx.shape
    a2, _, b2 = cy.shape
    return 2.0 * n * (a * a2 * b2 + a * b * b2)


def update_left_overlap(e, cx, cy, ledger=None, op_class="inner"):
    """Extend left overlap transfers ``(..., rank_x, rank_y)`` by one site.

    Copy-free, ``cy`` first: one GEMM over the stack of leading axes, then
    one broadcast ``np.matmul`` against ``cx``'s transposed view; charged
    :func:`overlap_step_flops` once per stacked transfer."""
    a, n, b = cx.shape
    a2, _, b2 = cy.shape
    lead = e.shape[:-2]
    k = math.prod(lead)
    charge(ledger, op_class, k * overlap_step_flops(cx, cy))
    x = e.reshape(k * a, a2) @ cy.reshape(a2, n * b2)  # (K, a, n, b')
    out = np.matmul(cx.reshape(a * n, b).T, x.reshape(k, a * n, b2))
    return out.reshape(lead + (b, b2))


def update_right_overlap(e, cx, cy, ledger=None, op_class="inner"):
    """The mirror of :func:`update_left_overlap`, extending right transfers
    leftward, ``cx`` first: one broadcast ``np.matmul`` over the stack,
    then one GEMM against ``cy``'s transposed view."""
    a, n, b = cx.shape
    a2, _, b2 = cy.shape
    lead = e.shape[:-2]
    k = math.prod(lead)
    charge(ledger, op_class, k * overlap_step_flops(cx, cy))
    x = np.matmul(cx.reshape(a * n, b), e.reshape(k, b, b2))  # (K, a, n, b')
    out = x.reshape(k * a, n * b2) @ cy.reshape(a2, n * b2).T
    return out.reshape(lead + (a, a2))


def inner(x, y, ledger=None):
    """Euclidean inner product of two trains via transfer contractions,
    charged as ``"inner"``."""
    if x.dims != y.dims:
        raise ValueError(f"dimension mismatch: {x.dims} vs {y.dims}")
    e = np.ones((1, 1))
    for cx, cy in zip(x.cores, y.cores):
        e = update_left_overlap(e, cx, cy, ledger)
    return float(e[0, 0])


def tt_scale(x, alpha):
    """Scale a train or an operator by ``alpha``, of the input's type.  One
    core is scaled: a train's center core, so a known gauge is kept, else
    core 0."""
    j = getattr(x, "center", None) or 0
    scaled = copy.copy(x)
    scaled.cores = x.cores[:j] + (alpha * x.cores[j],) + x.cores[j + 1 :]
    return scaled


def tt_add(x, y):
    """Direct sum of two trains or of two operators, of the inputs' type;
    bond dimensions add at every interior cut."""
    if type(x) is not type(y):
        raise ValueError(f"cannot add a {type(x).__name__} and a {type(y).__name__}")
    if x.dims != y.dims:
        raise ValueError(f"dimension mismatch: {x.dims} vs {y.dims}")
    if x.d == 1:
        return type(x)([x.cores[0] + y.cores[0]])
    cores = []
    for j, (a, b) in enumerate(zip(x.cores, y.cores)):
        left = a.shape[0] + b.shape[0] if j else 1
        right = a.shape[-1] + b.shape[-1] if j < x.d - 1 else 1
        z = np.zeros((left,) + a.shape[1:-1] + (right,))
        z[: a.shape[0], ..., : a.shape[-1]] = a
        z[left - b.shape[0] :, ..., right - b.shape[-1] :] = b
        cores.append(z)
    return type(x)(cores)


def qr_step(cores, j, ledger=None):
    """Move the gauge from site ``j`` to ``j + 1`` in the core list
    ``cores``: core ``j`` becomes the Q of its QR and the triangular factor
    is multiplied into core ``j + 1``."""
    r, n, r2 = cores[j].shape
    q, rr = qr_fixed(cores[j].reshape(r * n, r2), ledger)
    cores[j] = q.reshape(r, n, q.shape[1])
    cores[j + 1] = contract(ledger, "matmul", rr, cores[j + 1], ((1,), (0,)))


def lq_step(cores, j, ledger=None):
    """Move the gauge from site ``j`` to ``j - 1`` in the core list
    ``cores``: core ``j`` becomes the Q of its LQ and the triangular factor
    is multiplied into core ``j - 1``."""
    r, n, r2 = cores[j].shape
    l, q = lq_fixed(cores[j].reshape(r, n * r2), ledger)
    cores[j] = q.reshape(q.shape[0], n, r2)
    cores[j - 1] = contract(ledger, "matmul", cores[j - 1], l, ((2,), (0,)))


def orthogonalize(tt, center, ledger=None):
    """Return an equivalent train that is site-orthogonal at ``center``.

    A left-to-right QR pass runs up to the center and a right-to-left LQ
    pass runs down to it.  Ranks are never truncated (a QR can only shrink
    a bond that exceeds what its neighbors can carry).  Zero trains pass
    through with zero cores.
    """
    d = tt.d
    _check_center(center, d)
    cores = list(tt.cores)
    for j in range(center):
        qr_step(cores, j, ledger)
    for j in range(d - 1, center, -1):
        lq_step(cores, j, ledger)
    return TensorTrain(cores, center=center)


def _rank_keep(s, max_rank, tol):
    if s.size == 0 or s[0] <= 0.0:
        return 1
    k = int(np.count_nonzero(s > tol * s[0]))
    if max_rank is not None:
        k = min(k, max_rank)
    return max(k, 1)


def round_tt(tt, max_ranks=None, tol=0.0, ledger=None):
    """Truncate bond dimensions: :func:`orthogonalize` to site 0, then
    :func:`truncate`.

    At every interior cut the kept rank is
    ``min(max_rank, #{sigma_i > tol * sigma_max})``.  The result is
    left-orthogonal, and the total error obeys the usual
    sqrt(d-1) quasi-optimality bound relative to the best truncation at the
    produced ranks.
    """
    return truncate(orthogonalize(tt, 0, ledger=ledger), max_ranks, tol, ledger)


def truncate(x, max_ranks=None, tol=0.0, ledger=None):
    """The singular value sweep of :func:`round_tt` on a train that is
    already right-orthogonal (``x.center == 0``); other gauges are
    refused, since the sweep reads each cut's singular values off the core
    left of it only when every core right of it is right-orthonormal.
    ``max_ranks`` holds one or ``d - 1`` caps, None or integers >= 1; ``tol`` is >= 0."""
    d = x.d
    if x.center != 0:
        raise ValueError(f"truncate needs a train site-orthogonal at 0, got center {x.center}")
    scalar = max_ranks is None or np.isscalar(max_ranks)
    caps = [max_ranks] * (d - 1) if scalar else list(max_ranks)
    if len(caps) != d - 1:
        raise ValueError(f"need {d - 1} rank caps, got {len(caps)}")
    for cap in [max_ranks] if scalar else caps:
        check_cap("max_ranks", cap)
    check_tol("tol", tol)
    cores = list(x.cores)
    for j in range(d - 1):
        r, n, r2 = cores[j].shape
        u, s, vt = svd_fixed(cores[j].reshape(r * n, r2), ledger)
        k = _rank_keep(s, caps[j], tol)
        cores[j] = u[:, :k].reshape(r, n, k).copy()  # a view would pin all of u
        carry = s[:k, None] * vt[:k]
        cores[j + 1] = contract(None, "matmul", carry, cores[j + 1], ((1,), (0,)))
        # Charged as a (k, k) x (k, n*r3) product although ``carry`` is
        # (k, r2); the count is kept as recorded so ledgers stay comparable.
        charge(ledger, "matmul", tensordot_flops(carry.shape, cores[j + 1].shape, r2))
    return TensorTrain(cores, center=d - 1)


def separation_ranks(x):
    """Numerical ranks of the d-1 canonical unfoldings of a dense tensor.

    A singular value counts toward the rank when it exceeds
    :data:`SEPARATION_RANK_RTOL` times the largest singular value of its
    unfolding; the all-zero tensor has rank 0 at every cut.
    """
    x = np.asarray(x, dtype=float)
    out = []
    left = 1
    for n in x.shape[:-1]:
        left *= n
        s = np.linalg.svd(x.reshape(left, -1), compute_uv=False)
        smax = s[0] if s.size else 0.0
        out.append(int(np.count_nonzero(s > SEPARATION_RANK_RTOL * smax)) if smax > 0 else 0)
    return tuple(out)


class OrthogonalFamily:
    """All d site-orthogonal configurations of one tensor, sharing cores.

    ``config(i)`` assembles the train ``(L_0, ..., L_{i-1}, C_i, R_{i+1},
    ..., R_{d-1})`` where the ``L`` cores are left-orthonormal, the ``R``
    cores are right-orthonormal, and every configuration contracts to the
    same tensor.
    """

    def __init__(self, left, centers, right):
        self.left = tuple(left)
        self.centers = tuple(centers)
        self.right = tuple(right)
        self.d = len(self.centers)

    @property
    def dims(self):
        return tuple(c.shape[1] for c in self.centers)

    def config(self, i):
        cores = list(self.left[:i]) + [self.centers[i]] + list(self.right[i + 1 :])
        return TensorTrain(cores, center=i)


def orthogonal_family(tt, ledger=None):
    """Build the family of site-orthogonal configurations from a
    left-orthogonal train with one right-to-left LQ sweep."""
    d = tt.d
    if tt.center != d - 1:
        raise ValueError("input must be left-orthogonal (center at the last site)")
    cores = list(tt.cores)
    centers = [None] * d
    right = [None] * d
    for j in range(d - 1, 0, -1):
        centers[j] = cores[j]
        lq_step(cores, j, ledger)
        right[j] = cores[j]
        if right[j].shape[0] != centers[j].shape[0]:
            raise ValueError(
                f"rank {centers[j].shape[0]} at cut {j} is not representable from the "
                "right; round or orthogonalize the input first"
            )
    centers[0] = cores[0]
    return OrthogonalFamily(tt.cores, centers, right)
