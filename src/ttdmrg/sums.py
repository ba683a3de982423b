"""Structured sums of trains that share all but one core or one pair.

Given the site-orthogonal configurations of a tensor (one
:class:`~ttdmrg.tt.OrthogonalFamily`), a linear combination of members
whose center core or center pair was replaced is an exact train, which
step 4 of the two-level iteration rounds once:

* replacing single cores gives interior bond dimensions exactly twice
  the family's (:class:`OneSiteSumFamily`).  The lower rail carries the
  shared left-orthonormal prefix, the upper rail the shared
  right-orthonormal suffix, and each term crosses between the rails
  through its replaced core.

* replacing pairs by their split factors adds a middle rail of the split
  bond for the term whose pair straddles a cut (:func:`two_site_sum`).

Merged two-site blocks instead form a chain of d-1 blocks in which
neighboring blocks read the same physical index (:class:`TwoSiteChain`),
contracted by message passing that keeps the shared index pending between
steps; the structured coarse solve applies the operator this way.
:func:`fit_chain` compresses a chain to fixed ranks by alternating least
squares.
"""

from __future__ import annotations

import numpy as np

from .ledger import charge, qr_flops
from .tt import TensorTrain, clip_ranks, lq_fixed, orthogonalize, qr_fixed


def _einsum(ledger, op_class, subscripts, *ops):
    # flop model: 2 * product of the distinct index extents
    if ledger is not None:
        sizes = {}
        for part, op in zip(subscripts.split("->")[0].split(","), ops):
            for ax, letter in enumerate(part.strip()):
                sizes[letter] = op.shape[ax]
        flops = 2.0
        for extent in sizes.values():
            flops *= extent
        charge(ledger, op_class, flops)
    return np.einsum(subscripts, *ops)


def _family_ranks(family):
    return tuple(c.shape[0] for c in family.centers) + (1,)


class OneSiteSumFamily:
    """``prev_coeff * x + sum_i coeffs[i] * (x with center core i replaced)``.

    ``family`` holds the site-orthogonal configurations of ``x``;
    ``replacements[i]`` is the new center core for configuration ``i``
    and must match its shape.
    """

    def __init__(self, family, replacements, coeffs, prev_coeff=0.0):
        if len(replacements) != family.d:
            raise ValueError("need one replacement core per site")
        if len(coeffs) != family.d:
            raise ValueError("need one coefficient per site")
        for i, (w, c) in enumerate(zip(replacements, family.centers)):
            if w.shape != c.shape:
                raise ValueError(f"replacement {i} has shape {w.shape}, expected {c.shape}")
        self.family = family
        self.replacements = tuple(np.asarray(w, dtype=float) for w in replacements)
        self.coeffs = tuple(float(c) for c in coeffs)
        self.prev_coeff = float(prev_coeff)

    def materialize(self):
        """Exact block train of the sum; interior ranks are twice the
        family's, whatever the coefficients are."""
        fam = self.family
        d = fam.d
        first = self.coeffs[0] * self.replacements[0] + self.prev_coeff * fam.centers[0]
        if d == 1:
            return TensorTrain([first], center=0)

        cores = [np.concatenate([first, fam.left[0]], axis=2)]
        for j in range(1, d - 1):
            r0, n, r1 = fam.centers[j].shape
            g = np.zeros((2 * r0, n, 2 * r1))
            g[:r0, :, :r1] = fam.right[j]
            g[r0:, :, :r1] = self.coeffs[j] * self.replacements[j]
            g[r0:, :, r1:] = fam.left[j]
            cores.append(g)
        cores.append(
            np.concatenate(
                [fam.right[d - 1], self.coeffs[d - 1] * self.replacements[d - 1]], axis=0
            )
        )
        return TensorTrain(cores, center=None)


def two_site_sum(family, pairs, coeffs, prev_coeff=0.0):
    """Exact train of ``prev_coeff * x + sum_i coeffs[i] * member_i``.

    Member ``i`` is ``family.left[:i] + [L_i, R_i] + family.right[i+2:]``
    for the split factors ``pairs[i] = (L_i, R_i)``, of shapes
    ``(r_i, n_i, k_i)`` and ``(k_i, n_{i+1}, r_{i+2})``.  Three rails cross
    cut ``j``: the done rail (``family.right``) carries ``x`` and the
    members whose pair lies left of the cut; the middle rail carries
    member ``j-1``, entering through ``L_{j-1}`` and leaving through
    ``coeffs[j-1] * R_{j-1}``; the pending rail (``family.left``) carries
    the members whose pair lies right of the cut and is absent at the last
    cut.  The bond at cut ``j`` is ``2 r_j + k_{j-1}`` at most.
    """
    d = family.d
    if d < 2:
        raise ValueError("pair replacements need at least two sites")
    if len(pairs) != d - 1:
        raise ValueError("need one split pair per neighboring pair")
    if len(coeffs) != d - 1:
        raise ValueError("need one coefficient per neighboring pair")
    ranks = _family_ranks(family)
    dims = family.dims
    for i, (lf, rf) in enumerate(pairs):
        if (lf.shape[:2] != (ranks[i], dims[i]) or lf.shape[2] != rf.shape[0]
                or rf.shape[1:] != (dims[i + 1], ranks[i + 2])):
            raise ValueError(f"pair {i} has shapes {lf.shape} and {rf.shape}")

    # (done, middle, pending) slices of every cut's bond; the left boundary
    # is a pending rail of size 1, the right one a done rail
    cuts = [(None, None, slice(0, 1))]
    for j in range(1, d):
        r, k = ranks[j], pairs[j - 1][0].shape[2]
        pend = slice(r + k, 2 * r + k) if j < d - 1 else None
        cuts.append((slice(0, r), slice(r, r + k), pend))
    cuts.append((slice(0, 1), None, None))
    sizes = [max(s.stop for s in cut if s is not None) for cut in cuts]

    cores = []
    for j in range(d):
        (done0, mid0, pend0), (done1, mid1, pend1) = cuts[j], cuts[j + 1]
        g = np.zeros((sizes[j], dims[j], sizes[j + 1]))
        if j == 0:
            g[pend0, :, done1] = prev_coeff * family.centers[0]
        else:
            g[done0, :, done1] = family.right[j]
            g[mid0, :, done1] = coeffs[j - 1] * pairs[j - 1][1]
        if j < d - 1:
            g[pend0, :, mid1] = pairs[j][0]
        if pend1 is not None:
            g[pend0, :, pend1] = family.left[j]
        cores.append(g)
    return TensorTrain(cores, center=None)


class TwoSiteChain:
    """``prev_coeff * x + sum_i coeffs[i] * (x with the pair (i, i+1)
    replaced by the merged block blocks[i])``.

    Stored as d-1 chain blocks ``K_l`` of shape ``(p_l, n_l, n_{l+1},
    p_{l+1})``; the represented tensor entry is the matrix product of
    the slices ``K_l[:, x_l, x_{l+1}, :]``, so neighboring blocks read
    the same physical index.  Interior chain bonds are ``r_{l+1} +
    r_l`` in the family's ranks ``r``.
    """

    def __init__(self, family, blocks, coeffs, prev_coeff=0.0):
        d = family.d
        if d < 2:
            raise ValueError("pair replacements need at least two sites")
        if len(blocks) != d - 1:
            raise ValueError("need one replacement block per neighboring pair")
        if len(coeffs) != d - 1:
            raise ValueError("need one coefficient per neighboring pair")
        ranks = _family_ranks(family)
        dims = family.dims
        blocks = [np.asarray(b, dtype=float) for b in blocks]
        for i, b in enumerate(blocks):
            want = (ranks[i], dims[i], dims[i + 1], ranks[i + 2])
            if b.shape != want:
                raise ValueError(f"block {i} has shape {b.shape}, expected {want}")
        self.family = family
        self.member_blocks = tuple(blocks)
        self.coeffs = tuple(float(c) for c in coeffs)
        self.prev_coeff = float(prev_coeff)
        self.dims = dims
        self.blocks = self._assemble()

    def _assemble(self):
        fam = self.family
        d = fam.d
        ranks = _family_ranks(fam)
        dims = self.dims
        first = self.coeffs[0] * self.member_blocks[0] + self.prev_coeff * np.einsum(
            "axb,byc->axyc", fam.centers[0], fam.right[1]
        )
        if d == 2:
            return (first,)

        blocks = []
        k0 = np.zeros((1, dims[0], dims[1], ranks[2] + ranks[1]))
        k0[:, :, :, : ranks[2]] = first
        k0[:, :, :, ranks[2] :] = fam.left[0][:, :, None, :]
        blocks.append(k0)
        for l in range(1, d - 2):
            k = np.zeros((ranks[l + 1] + ranks[l], dims[l], dims[l + 1], ranks[l + 2] + ranks[l + 1]))
            k[: ranks[l + 1], :, :, : ranks[l + 2]] = fam.right[l + 1][:, None, :, :]
            k[ranks[l + 1] :, :, :, : ranks[l + 2]] = self.coeffs[l] * self.member_blocks[l]
            k[ranks[l + 1] :, :, :, ranks[l + 2] :] = fam.left[l][:, :, None, :]
            blocks.append(k)
        klast = np.zeros((ranks[d - 1] + ranks[d - 2], dims[d - 2], dims[d - 1], 1))
        klast[: ranks[d - 1]] = fam.right[d - 1][:, None, :, :]
        klast[ranks[d - 1] :] = self.coeffs[d - 2] * self.member_blocks[d - 2]
        blocks.append(klast)
        return tuple(blocks)

    def member_train(self, i, ledger=None):
        """Exact train of the bare member ``i`` (coefficient not
        applied), site-orthogonal at site ``i + 1``."""
        fam = self.family
        block = self.member_blocks[i]
        r0, n1, n2, r3 = block.shape
        q, rmat = qr_fixed(block.reshape(r0 * n1, n2 * r3))
        charge(ledger, "qr", qr_flops(r0 * n1, min(r0 * n1, n2 * r3)))
        k = q.shape[1]
        cores = (
            list(fam.left[:i])
            + [q.reshape(r0, n1, k), rmat.reshape(k, n2, r3)]
            + list(fam.right[i + 2 :])
        )
        return TensorTrain(cores, center=i + 1)


def chain_pair_inner(a, b, ledger=None, op_class="inner"):
    """Inner product of two chains over the same local spaces."""
    if a.dims != b.dims:
        raise ValueError("chains live on different local spaces")
    msg = np.ones((a.dims[0], 1, 1))  # pending x_0, bonds (a, b)
    for ka, kb in zip(a.blocks, b.blocks):
        t = _einsum(ledger, op_class, "xab,axyc->bxyc", msg, ka)
        msg = _einsum(ledger, op_class, "bxyc,bxyd->ycd", t, kb)
    return float(msg.sum(axis=0)[0, 0])


def chain_operator_inner(a, op, b, ledger=None, op_class="inner"):
    """Quadratic form <T_a, A T_b> with both arguments given as chains."""
    if a.dims != op.dims or b.dims != op.dims:
        raise ValueError("operator and chains live on different local spaces")
    n0 = a.dims[0]
    msg = np.ones((n0, n0, 1, 1, 1))  # pending (bra x_0, ket y_0)
    for l, (ka, kb) in enumerate(zip(a.blocks, b.blocks)):
        t = _einsum(ledger, op_class, "xyawb,axuc->xywbuc", msg, ka)
        t = _einsum(ledger, op_class, "xywbuc,wxyv->ybucv", t, op.cores[l])
        msg = _einsum(ledger, op_class, "ybucv,byze->uzcve", t, kb)
    out = _einsum(ledger, op_class, "xyawb,wxy->ab", msg, op.cores[-1][:, :, :, 0])
    return float(out[0, 0])


def tt_chain_inner(train, chain, ledger=None, op_class="inner"):
    """Inner product <train, chain>."""
    if train.dims != chain.dims:
        raise ValueError("train and chain live on different local spaces")
    msg = np.ones((train.dims[0], 1, 1))  # pending x_0, bonds (train, chain)
    for l, k in enumerate(chain.blocks):
        t = _einsum(ledger, op_class, "xrp,rxs->xps", msg, train.cores[l])
        msg = _einsum(ledger, op_class, "xps,pxuq->usq", t, k)
    out = _einsum(ledger, op_class, "xsq,sx->q", msg, train.cores[-1][:, :, 0])
    return float(out[0])


def tt_chain_operator_inner(train, op, chain, ledger=None, op_class="inner"):
    """Quadratic form <train, A chain>."""
    if train.dims != op.dims or chain.dims != op.dims:
        raise ValueError("arguments live on different local spaces")
    msg = np.ones((train.dims[0], 1, 1, 1))  # pending ket y_0, bonds (train, op, chain)
    for l, k in enumerate(chain.blocks):
        t = _einsum(ledger, op_class, "yrwp,rxs->ywpxs", msg, train.cores[l])
        t = _einsum(ledger, op_class, "ywpxs,wxyv->ypsv", t, op.cores[l])
        msg = _einsum(ledger, op_class, "ypsv,pyzq->zsvq", t, k)
    t = _einsum(ledger, op_class, "ysvq,sx->yvxq", msg, train.cores[-1][:, :, 0])
    out = _einsum(ledger, op_class, "yvxq,vxy->q", t, op.cores[-1][:, :, :, 0])
    return float(out[0])


def _lstep(msg, block, core, ledger, op_class):
    # extend a left message (pending x_l) past site l
    t = _einsum(ledger, op_class, "xrp,rxs->xps", msg, core)
    return _einsum(ledger, op_class, "xps,pxuq->usq", t, block)


def _rstep(msg, block, core, ledger, op_class):
    # extend a right message (pending x_{l+1}, chain bond, train bond)
    # past site l+1; the result is pending x_l in the same layout
    t = _einsum(ledger, op_class, "syt,yqt->syq", core, msg)
    return _einsum(ledger, op_class, "pxyq,syq->xps", block, t)


def chain_project_core(chain, train, i, ledger=None, op_class="inner"):
    """Contract the chain against the train with core ``i`` removed.

    Returns the tensor of shape ``(r_i, n_i, r_{i+1})`` whose inner
    product with any candidate core equals the inner product of the
    corresponding train with the chain.  When the train is
    site-orthogonal at ``i`` this is the optimal core in one
    alternating least squares update.
    """
    if train.dims != chain.dims:
        raise ValueError("train and chain live on different local spaces")
    d = train.d
    lmsg = np.ones((train.dims[0], 1, 1))  # (x, r, p)
    for l in range(i):
        lmsg = _lstep(lmsg, chain.blocks[l], train.cores[l], ledger, op_class)
    rmsg = np.ones((train.dims[d - 1], 1, 1))  # (x, p, r)
    for l in range(d - 2, i - 1, -1):
        rmsg = _rstep(rmsg, chain.blocks[l], train.cores[l + 1], ledger, op_class)
    return _einsum(ledger, op_class, "xrp,xps->rxs", lmsg, rmsg)


def pad_ranks(train, max_ranks, seed=0, scale=1e-6):
    """Grow a train's bonds toward ``max_ranks`` with small random pads.

    The requested ranks are clipped to what the local spaces can
    support.  New directions are filled with seeded noise of relative
    size ``scale``, so the represented tensor changes only at second
    order in ``scale``; an alternating fit started from the result can
    still activate every padded direction.
    """
    d = train.d
    want = clip_ranks(train.dims, max_ranks)
    rng = np.random.default_rng(seed)
    cores = [c.copy() for c in train.cores]
    for j in range(1, d):
        have = cores[j - 1].shape[2]
        grow = want[j] - have
        if grow <= 0:
            continue
        left = cores[j - 1]
        right = cores[j]
        lscale = scale * (np.linalg.norm(left) / np.sqrt(left.size) or 1.0)
        rscale = scale * (np.linalg.norm(right) / np.sqrt(right.size) or 1.0)
        lpad = rng.standard_normal((left.shape[0], left.shape[1], grow)) * lscale
        rpad = rng.standard_normal((grow, right.shape[1], right.shape[2])) * rscale
        cores[j - 1] = np.concatenate([left, lpad], axis=2)
        cores[j] = np.concatenate([right, rpad], axis=0)
    return TensorTrain(cores, center=None)


def fit_chain(chain, init, max_fit_iters=20, fit_tol=1e-8, ledger=None, op_class="inner"):
    """Best approximation of a chain by a train of fixed ranks.

    Library code: the two-level iteration rounds :func:`two_site_sum`
    instead, but the benchmark's tracer still binds this name there.

    Alternating least squares sweeps over the sites of ``init``; ranks
    never grow, so pick the starting ranks with :func:`pad_ranks`.
    Stops when the residual norm moves by less than ``fit_tol`` times
    the chain norm between half-sweeps; ``max_fit_iters`` counts
    sweeps, one left-to-right and one right-to-left half-sweep each.

    The environment messages of the chain against the train are built
    once from the right before the first half-sweep.  After that each
    half-sweep does one projection and one message step per site: a
    left-to-right pass projects site ``i`` from the stored left and
    right messages, orthonormalizes it and extends the left message
    past it, so the right-to-left pass that follows finds every left
    message it reads already built from the final cores (and mirrored
    for the right messages).  The triangular factors are dropped: the
    next site's projection overwrites the core they would multiply.

    Returns
    -------
    train, residual : TensorTrain, float
        The fit, site-orthogonal at the last site, and the 2-norm of
        the approximation error.
    """
    d = len(chain.dims)
    if init.dims != chain.dims:
        raise ValueError("train and chain live on different local spaces")
    cores = list(orthogonalize(init, 0, ledger).cores)
    dims = chain.dims
    blocks = chain.blocks

    target_sq = chain_pair_inner(chain, chain, ledger, op_class)
    target = float(np.sqrt(max(target_sq, 0.0)))
    residual = None
    rightward = False  # direction of the last half-sweep

    # lmsgs[i] contracts sites < i (pending x_i), rmsgs[i] sites > i
    lmsgs = [np.ones((dims[0], 1, 1))] + [None] * (d - 1)
    rmsgs = [None] * (d - 1) + [np.ones((dims[d - 1], 1, 1))]
    for l in range(d - 2, -1, -1):
        rmsgs[l] = _rstep(rmsgs[l + 1], blocks[l], cores[l + 1], ledger, op_class)

    for half in range(2 * max_fit_iters):
        rightward = half % 2 == 0
        for i in range(d) if rightward else range(d - 1, -1, -1):
            b = _einsum(ledger, op_class, "xrp,xps->rxs", lmsgs[i], rmsgs[i])
            cores[i] = b
            r0, n, r1 = b.shape
            if rightward and i < d - 1:
                q, _ = qr_fixed(b.reshape(r0 * n, r1))
                charge(ledger, "qr", qr_flops(r0 * n, r1))
                cores[i] = q.reshape(r0, n, q.shape[1])
                lmsgs[i + 1] = _lstep(lmsgs[i], blocks[i], cores[i], ledger, op_class)
            elif not rightward and i > 0:
                _, q = lq_fixed(b.reshape(r0, n * r1))
                charge(ledger, "qr", qr_flops(n * r1, r0))
                cores[i] = q.reshape(q.shape[0], n, r1)
                rmsgs[i - 1] = _rstep(rmsgs[i], blocks[i - 1], cores[i], ledger, op_class)
        fit_sq = float(np.sum(cores[d - 1 if rightward else 0] ** 2))
        prev, residual = residual, float(np.sqrt(max(target_sq - fit_sq, 0.0)))
        if prev is not None and abs(prev - residual) <= fit_tol * max(target, 1e-300):
            break

    result = TensorTrain(cores, center=d - 1 if rightward else 0)
    if not rightward:
        result = orthogonalize(result, d - 1, ledger)
    return result, residual
