"""Container round-trips checked against a hand-parsed byte layout."""

import struct

import numpy as np
import pytest

from ttdmrg.io import load_mpo, load_tt, save_mpo, save_tt
from ttdmrg.mpo import MatrixProductOperator
from ttdmrg.tt import TensorTrain, orthogonalize, random_tt


def random_mpo(dims, ranks, seed=0):
    rng = np.random.default_rng(seed)
    full = (1,) + tuple(ranks) + (1,)
    cores = [rng.standard_normal((full[j], n, n, full[j + 1])) for j, n in enumerate(dims)]
    return MatrixProductOperator(cores)


def test_tt_round_trip(tmp_path):
    train = orthogonalize(random_tt((2, 3, 2, 4), (2, 3, 2), seed=5), center=2)
    path = tmp_path / "state.tt"
    save_tt(train, path)
    back = load_tt(path)
    assert back.dims == train.dims
    assert back.ranks == train.ranks
    assert back.center == 2
    for a, b in zip(back.cores, train.cores):
        np.testing.assert_array_equal(a, b)


def test_tt_round_trip_without_gauge(tmp_path):
    train = random_tt((2, 2, 2), (2, 2), seed=1)
    path = tmp_path / "state.tt"
    save_tt(train, path)
    assert load_tt(path).center is None


def test_mpo_round_trip(tmp_path):
    op = random_mpo((2, 3, 2), (3, 4), seed=2)
    path = tmp_path / "op.mpo"
    save_mpo(op, path)
    back = load_mpo(path)
    assert back.dims == op.dims
    assert back.ranks == op.ranks
    for a, b in zip(back.cores, op.cores):
        np.testing.assert_array_equal(a, b)


def test_tt_byte_layout(tmp_path):
    train = random_tt((2, 3), (2,), seed=7)
    path = tmp_path / "state.tt"
    save_tt(train, path)
    data = path.read_bytes()

    assert data[:4] == b"TTR1"
    d, gauge = struct.unpack_from("<Ii", data, 4)
    assert d == 2
    assert gauge == -1
    dims = struct.unpack_from("<2I", data, 12)
    ranks = struct.unpack_from("<3I", data, 20)
    assert dims == (2, 3)
    assert ranks == (1, 2, 1)

    off = 32
    first = np.array(struct.unpack_from("<4d", data, off)).reshape(1, 2, 2)
    off += 32
    second = np.array(struct.unpack_from("<6d", data, off)).reshape(2, 3, 1)
    np.testing.assert_array_equal(first, train.cores[0])
    np.testing.assert_array_equal(second, train.cores[1])
    assert off + 48 == len(data)


def test_gauge_tag_below_minus_one_rejected(tmp_path):
    # the format's tag is a site or -1 (unknown); -7 once read as unknown
    path = tmp_path / "state.tt"
    save_tt(random_tt((2, 2), (2,), seed=8), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<i", data, 8, -7)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="gauge tag -7"):
        load_tt(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.tt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_tt(path)
    with pytest.raises(ValueError, match="magic"):
        load_mpo(path)


def test_truncated_file_rejected(tmp_path):
    train = random_tt((2, 2, 2), (2, 2), seed=3)
    path = tmp_path / "state.tt"
    save_tt(train, path)
    clipped = tmp_path / "clipped.tt"
    clipped.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(ValueError, match="truncated"):
        load_tt(clipped)


def test_trailing_bytes_rejected(tmp_path):
    op = random_mpo((2, 2), (2,), seed=4)
    path = tmp_path / "op.mpo"
    save_mpo(op, path)
    padded = tmp_path / "padded.mpo"
    padded.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="trailing"):
        load_mpo(padded)
