"""Round-trip and corruption tests for the binary tensor container."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patchbias.errors import ValidationError
from patchbias.tensorio import MAGIC, read_tensor, write_tensor


def test_f32_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.random((5, 7, 3)).astype(np.float32)
    path = tmp_path / "t.pbt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_u8_round_trip(tmp_path):
    arr = np.arange(24, dtype=np.uint8).reshape(4, 6)
    path = tmp_path / "t.pbt"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, arr)


def test_scalar_and_1d_shapes(tmp_path):
    for arr in (np.float32(3.5).reshape(()), np.array([1, 2, 3], dtype=np.uint8)):
        path = tmp_path / "t.pbt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_header_layout_is_exactly_as_documented(tmp_path):
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    path = tmp_path / "t.pbt"
    write_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:8] == MAGIC
    rank = struct.unpack("<I", raw[8:12])[0]
    assert rank == 2
    dims = struct.unpack("<2I", raw[12:20])
    assert dims == (1, 2)
    assert raw[20] == 0  # f32 tag
    assert raw[21:] == arr.tobytes()


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValidationError):
        write_tensor(tmp_path / "t.pbt", np.zeros(3, dtype=np.float64))


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensor(path, np.zeros(3, dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError):
        read_tensor(path)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensor(path, np.zeros((2, 2), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValidationError):
        read_tensor(path)


def test_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensor(path, np.zeros((2, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ValidationError):
        read_tensor(path)


def test_rejects_unknown_dtype_tag(tmp_path):
    path = tmp_path / "t.pbt"
    write_tensor(path, np.zeros(2, dtype=np.uint8))
    raw = bytearray(path.read_bytes())
    raw[16] = 9  # dtype tag byte for a rank-1 tensor
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError):
        read_tensor(path)


# Malformed files: every defect is a ValidationError, found before the payload is read.

FUZZ = settings(max_examples=60, deadline=None)


@st.composite
def stored_arrays(draw, max_side=4):
    shape = tuple(draw(st.lists(st.integers(0, max_side), min_size=0, max_size=4)))
    dtype = draw(st.sampled_from([np.float32, np.uint8]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, 256, shape).astype(dtype)


def _stored_bytes(tmp_path, arr) -> bytes:
    path = tmp_path / "src.pbt"
    write_tensor(path, arr)
    return path.read_bytes()


def _read_bytes_as_tensor(tmp_path, raw: bytes):
    path = tmp_path / "fuzz.pbt"
    path.write_bytes(raw)
    return read_tensor(path)


@FUZZ
@given(arr=stored_arrays(max_side=3))
def test_every_truncation_offset_is_a_validation_error(tmp_path_factory, arr):
    tmp_path = tmp_path_factory.mktemp("t")
    raw = _stored_bytes(tmp_path, arr)
    for cut in range(len(raw)):
        with pytest.raises(ValidationError):
            _read_bytes_as_tensor(tmp_path, raw[:cut])


@FUZZ
@given(arr=stored_arrays(), extra=st.binary(min_size=1, max_size=16))
def test_trailing_bytes_are_a_validation_error(tmp_path_factory, arr, extra):
    tmp_path = tmp_path_factory.mktemp("t")
    with pytest.raises(ValidationError, match="trailing"):
        _read_bytes_as_tensor(tmp_path, _stored_bytes(tmp_path, arr) + extra)


@FUZZ
@given(arr=stored_arrays(), data=st.data())
def test_false_dims_are_a_validation_error(tmp_path_factory, arr, data):
    tmp_path = tmp_path_factory.mktemp("t")
    assume(arr.ndim > 0)
    raw = bytearray(_stored_bytes(tmp_path, arr))
    lie = tuple(data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=arr.ndim, max_size=arr.ndim)))
    assume(math.prod(lie) != arr.size)
    struct.pack_into(f"<{arr.ndim}I", raw, 12, *lie)
    with pytest.raises(ValidationError, match="truncated|trailing"):
        _read_bytes_as_tensor(tmp_path, bytes(raw))


@FUZZ
@given(arr=stored_arrays(), rank=st.integers(0, 9) | st.integers(0, 2**32 - 1))
def test_a_false_rank_never_raises_anything_but_a_validation_error(tmp_path_factory, arr, rank):
    tmp_path = tmp_path_factory.mktemp("t")
    assume(rank != arr.ndim)
    raw = bytearray(_stored_bytes(tmp_path, arr))
    struct.pack_into("<I", raw, 8, rank)
    try:
        back = _read_bytes_as_tensor(tmp_path, bytes(raw))
    except ValidationError:
        return
    # a lie that happens to parse must still account for every byte of the file
    assert 13 + 4 * back.ndim + back.nbytes == len(raw)


def test_huge_declared_dims_are_rejected_before_reading(tmp_path):
    raw = bytearray(_stored_bytes(tmp_path, np.zeros((2, 2), dtype=np.float32)))
    struct.pack_into("<2I", raw, 12, 2**31, 2**31)
    with pytest.raises(ValidationError, match="truncated"):
        _read_bytes_as_tensor(tmp_path, bytes(raw))


@pytest.mark.parametrize("cut", [10, 14, 20])  # inside the rank, the dims, and before the tag
def test_a_short_header_names_the_header(tmp_path, cut):
    raw = _stored_bytes(tmp_path, np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValidationError, match="header cut short"):
        _read_bytes_as_tensor(tmp_path, raw[:cut])
