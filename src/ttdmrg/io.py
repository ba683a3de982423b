"""Binary container files for trains and operators.

Both formats are self-describing, little-endian, and laid out as follows.

State train container (magic ``TTR1``)::

    bytes  0..3    magic b"TTR1"
    bytes  4..7    uint32  d, number of sites
    bytes  8..11   int32   gauge tag: center site, or -1 when unknown (a
                           tag below -1 is rejected)
    next   4*d     uint32  local dimensions n_0 .. n_{d-1}
    next   4*(d+1) uint32  bond dimensions r_0 .. r_d (r_0 = r_d = 1)
    then, for j = 0..d-1, the core entries as float64 in C (row-major)
    order, r_j * n_j * r_{j+1} values per core, cores concatenated.

Operator container (magic ``MPR1``)::

    bytes  0..3    magic b"MPR1"
    bytes  4..7    uint32  d
    next   4*d     uint32  local dimensions
    next   4*(d+1) uint32  operator bond dimensions (boundaries 1)
    then cores of shape (r_j, n_j, n_j, r_{j+1}) as float64, C order.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .mpo import MatrixProductOperator
from .tt import TensorTrain

TT_MAGIC = b"TTR1"
MPO_MAGIC = b"MPR1"


def _encode(magic, head, x):
    """The container of the train or operator ``x``: its magic, uint32 d,
    the int32 header fields ``head``, dims, ranks, then the cores."""
    d = x.d
    return b"".join([
        magic,
        struct.pack(f"<I{len(head)}i", d, *head),
        struct.pack(f"<{d}I", *x.dims),
        struct.pack(f"<{d + 1}I", *x.ranks),
        *(np.ascontiguousarray(core, dtype="<f8").tobytes() for core in x.cores),
    ])


def _load(path, magic, what, heads, legs):
    """Read a container written by :func:`_encode` with ``heads`` int32
    header fields and cores of shape ``(r_j, n_j, ..., n_j, r_{j+1})``,
    ``legs`` physical axes; returns ``(head, cores)``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != magic:
        article = "an" if what[0] in "aeiou" else "a"
        raise ValueError(f"not {article} {what} container: bad magic {data[:4]!r}")
    try:
        d, *head = struct.unpack_from(f"<I{heads}i", data, 4)
        off = 8 + 4 * heads
        dims = struct.unpack_from(f"<{d}I", data, off)
        off += 4 * d
        ranks = struct.unpack_from(f"<{d + 1}I", data, off)
        off += 4 * (d + 1)
        cores = []
        for j in range(d):
            shape = (ranks[j],) + (dims[j],) * legs + (ranks[j + 1],)
            count = math.prod(shape)
            core = np.frombuffer(data, dtype="<f8", count=count, offset=off)
            off += 8 * count
            cores.append(core.reshape(shape).astype(float))
    except (struct.error, ValueError) as exc:
        raise ValueError(f"truncated {what} container: {exc}") from exc
    if off != len(data):
        raise ValueError(f"container has {len(data) - off} trailing bytes")
    return head, cores


def tt_bytes(train):
    """The ``TTR1`` container of ``train``, as :func:`save_tt` writes it."""
    return _encode(TT_MAGIC, (-1 if train.center is None else train.center,), train)


def save_tt(train, path):
    Path(path).write_bytes(tt_bytes(train))


def load_tt(path):
    (gauge,), cores = _load(path, TT_MAGIC, "train", 1, 1)
    if gauge < -1:
        raise ValueError(f"gauge tag {gauge} is neither a site nor -1")
    return TensorTrain(cores, center=None if gauge < 0 else gauge)


def save_mpo(op, path):
    Path(path).write_bytes(_encode(MPO_MAGIC, (), op))


def load_mpo(path):
    _, cores = _load(path, MPO_MAGIC, "operator", 0, 2)
    return MatrixProductOperator(cores)
