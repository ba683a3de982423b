"""Structured sums of trains that share all but one core or one pair.

Given the site-orthogonal configurations of a tensor (one
:class:`~ttdmrg.tt.OrthogonalFamily`), a linear combination of the tensor
and of members whose center core or center pair was replaced is an exact
train of up to three rails per bond, built right-orthogonal by
:func:`orthogonal_sum_train`, the package's one sum builder: step 4 of
the two-level iteration truncates it, and the structured coarse solve
applies the operator to it.  :class:`OneSiteSumFamily` is the validated
one-site form of the same sum.

``TwoSiteChain`` is an inert name (``member_train = None``) that
``bench/tracer.py`` binds; the members of a replaced pair are built by
:func:`~ttdmrg.twolevel.span_members`.
"""

from __future__ import annotations

import numpy as np

from .ledger import charge, contract, qr_flops
from .tt import TensorTrain, column_signs, lq_fixed


class OneSiteSumFamily:
    """``prev_coeff * x + sum_i coeffs[i] * (x with center core i replaced)``.

    ``family`` holds the site-orthogonal configurations of ``x``;
    ``replacements[i]`` is the new center core for configuration ``i``
    and must match its shape.  Validated as the one-site updates of
    :func:`orthogonal_sum_train` are.
    """

    def __init__(self, family, replacements, coeffs, prev_coeff=0.0):
        replacements = tuple(np.asarray(w, dtype=float) for w in replacements)
        _rails(family, [(w,) for w in replacements], coeffs)
        self.family = family
        self.replacements = replacements
        self.coeffs = tuple(float(c) for c in coeffs)
        self.prev_coeff = float(prev_coeff)

    def materialize(self):
        """The sum as one right-orthogonal train (:func:`orthogonal_sum_train`
        at ``k = 1``): center 0, bonds as :func:`~ttdmrg.tt.orthogonalize`
        gives them, at most twice the family's."""
        updates = [(w,) for w in self.replacements]
        return orthogonal_sum_train(self.family, updates, self.coeffs, self.prev_coeff)


DONE, MID, PEND = range(3)  # the rails of a sum train's bond, in bond order


def _rails(family, updates, coeffs):
    # validate the updates; return their width k and the (done, middle,
    # pending) slices of every cut's bond.  The left boundary is a pending
    # rail of size 1, the right one a done rail.
    d = family.d
    k = len(updates[0]) if updates else 0
    if k not in (1, 2) or any(len(u) != k for u in updates):
        raise ValueError("every update must hold one or two cores")
    if len(updates) != d - k + 1:
        raise ValueError(f"need one update per window of {k} sites")
    if len(coeffs) != len(updates):
        raise ValueError("need one coefficient per update")
    ranks = tuple(c.shape[0] for c in family.centers) + (1,)
    dims = family.dims
    for i, u in enumerate(updates):
        shapes = [c.shape for c in u]
        if (any(len(s) != 3 for s in shapes)
                or shapes[0][0] != ranks[i] or shapes[-1][2] != ranks[i + k]
                or [s[1] for s in shapes] != list(dims[i : i + k])
                or any(a[2] != b[0] for a, b in zip(shapes, shapes[1:]))):
            raise ValueError(f"update {i} has shapes {shapes}")

    cuts = []
    for j in range(d + 1):
        done = ranks[j] if j > 0 else 0
        mid = updates[j - 1][0].shape[2] if k == 2 and 0 < j < d else 0
        pend = ranks[j] if j <= d - k else 0
        cuts.append((slice(0, done), slice(done, done + mid),
                     slice(done + mid, done + mid + pend)))
    return k, cuts


def _blocks(family, updates, coeffs, prev_coeff, k, j):
    # the nonzero blocks (row rail, column rail, block) of the sum's core j
    # off the done rail; its block family.right[j] (j > 0) goes unlisted
    d = family.d
    if j == 0:
        yield PEND, DONE, prev_coeff * family.centers[0]
    if j < d - k:
        yield PEND, PEND, family.left[j]
    if k == 1:
        yield PEND, DONE, coeffs[j] * updates[j][0]
    else:
        if j < d - 1:
            yield PEND, MID, updates[j][0]
        if j > 0:
            yield MID, DONE, coeffs[j - 1] * updates[j - 1][1]


def orthogonal_sum_train(family, updates, coeffs, prev_coeff=0.0, ledger=None):
    """Exact train of ``prev_coeff * x + sum_i coeffs[i] * member_i``,
    right-orthogonal (center 0).

    ``updates[i]`` holds the ``k`` cores (``k`` = 1 or 2) that member ``i``
    puts at sites ``i .. i+k-1``: the member is ``family.left[:i] +
    list(updates[i]) + family.right[i+k:]``.  Before orthogonalization up
    to three rails cross cut ``j``.  The done rail (``family.right``)
    carries ``x`` and the members that end left of the cut.  The middle
    rail, empty at ``k = 1``, carries the pair of member ``j-1``, entering
    through its first core and leaving through ``coeffs[j-1]`` times its
    second.  The pending rail (``family.left``) carries the members that
    start right of the cut; it exists at cut ``j`` iff ``j <= d - k``.  At
    ``k = 1`` member ``j`` crosses from the pending to the done rail
    through ``coeffs[j]`` times its core, so interior bonds are ``2 r_j``;
    at ``k = 2`` the bond at cut ``j`` is at most ``2 r_j + k_{j-1}``, with
    ``k_{j-1}`` the split bond.

    One right-to-left sweep orthogonalizes only the rows off the done rail:
    ``family.right`` is right-orthonormal already.  At cut ``j`` the carried
    factor is ``F = [[I, 0], [X, Y]]``, mapping the sum's ``(done, middle,
    pending)`` bond to the orthogonalized ``(done, new)`` one, so the done
    rows of core ``j`` stay exactly ``[family.right[j], 0]``.  Per site the
    middle and pending rows are multiplied by ``[X, Y]`` (never the zero
    blocks), projected off ``family.right[j]`` twice (classical Gram-Schmidt
    with one reorthogonalization; the projections make the next ``X``), and
    the complement's LQ gives the next ``Y`` and the new rows.  Where the
    cut's bond exceeds what its right side can carry (``n_j`` times the new
    bond right of it, near the right end only), the complement of
    ``family.right[j]`` is completed to an orthonormal basis instead, so
    every bond equals what :func:`~ttdmrg.tt.orthogonalize` gives the
    rail train and the two agree to roundoff.  Products are
    charged as ``"matmul"``, factorizations as ``"qr"``.

    The complement can be rank-deficient: under zero coefficients, or at
    ``k = 2`` when more middle rows meet a cut than the ``n_j r_{j+1} -
    r_j`` directions of the done block left free by ``family.right[j]``.
    The LQ rows beyond its rank then carry weight zero, or roundoff, in
    ``Y``: the train stays exact, and only those rows may miss
    right-orthonormality.
    """
    k, cuts = _rails(family, updates, coeffs)
    cores = [None] * family.d
    z = np.zeros((0, 1))  # [X, Y] at the right boundary: a done rail only
    for j in range(family.d - 1, -1, -1):
        n = family.dims[j]
        r0, r1 = cuts[j][DONE].stop, cuts[j + 1][DONE].stop  # the ranks of x
        c = np.zeros((cuts[j][PEND].stop - r0, n, z.shape[1]))
        for row, col, block in _blocks(family, updates, coeffs, prev_coeff, k, j):
            rows = _shift(cuts[j][row], r0)
            if col == DONE:
                c[rows, :, :r1] += block
            else:
                zc = z[_shift(cuts[j + 1][col], r1)]
                c[rows] += contract(ledger, "matmul", block, zc, ((2,), (0,)))
        if j == 0:
            cores[0] = c
            break
        right = family.right[j]
        nd, m = c.shape[0], n * c.shape[2]
        if r0 + nd > m:
            # saturated: [right, 0] and its complement are a square basis
            x = contract(ledger, "matmul", c[:, :, :r1], right, ((1, 2), (1, 2)))
            q2 = _complement(right, c.shape[2], ledger)
            y = contract(ledger, "matmul", c.reshape(nd, m), q2, ((1,), (1,)))
        else:
            done, rmat = c[:, :, :r1], right.reshape(r0, n * r1)
            x = 0.0
            for _ in range(2):
                p = done.reshape(nd, n * r1) @ rmat.T
                done -= (p @ rmat).reshape(nd, n, r1)
                x = x + p
            charge(ledger, "matmul", 8.0 * nd * r0 * n * r1)  # four (nd, r0, n r1) products
            y, q2 = lq_fixed(c.reshape(nd, m), ledger)
        core = np.zeros((r0 + q2.shape[0], n, c.shape[2]))
        core[:r0, :, :r1] = right
        core[r0:] = q2.reshape(-1, n, c.shape[2])
        cores[j] = core
        z = np.concatenate([x, y], axis=1)
    return TensorTrain(cores, center=0)


def _shift(rail, offset):
    return slice(rail.start - offset, rail.stop - offset)


def _complement(right, bond, ledger):
    # orthonormal rows completing those of [right, 0] (zero-padded to
    # ``bond`` columns) to a basis of the whole (n * bond) row space
    r0, n, r1 = right.shape
    m = n * bond
    if m == r0:
        return np.zeros((0, m))
    padded = np.zeros((r0, n, bond))
    padded[:, :, :r1] = right
    q, _ = np.linalg.qr(padded.reshape(r0, m).T, mode="complete")
    charge(ledger, "qr", qr_flops(m, m))
    comp = q[:, r0:]
    return (comp * column_signs(comp)).T


class TwoSiteChain:
    """Placeholder bound for bench/tracer.py only; nothing calls it."""

    member_train = None
