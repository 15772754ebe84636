"""Round-trip and corruption tests for the `.npy` tensor files."""

import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib import format as npy

from patchbias.errors import ValidationError
from patchbias.tensorio import read_tensor, write_tensor

DTYPES = [np.float32, np.float64, np.uint8]


def _assert_round_trip(tmp_path, arr):
    """`arr` comes back bit for bit, through read_tensor and through plain numpy."""
    path = tmp_path / "t.npy"
    write_tensor(path, arr)
    for back in (read_tensor(path), np.load(path, allow_pickle=False)):
        assert (back.dtype, back.shape) == (arr.dtype, arr.shape)
        assert back.tobytes() == arr.tobytes()


def test_f32_round_trip(tmp_path):
    arr = np.random.default_rng(0).random((5, 7, 3)).astype(np.float32)
    for stored in (arr, np.asfortranarray(arr), arr[:, ::2]):  # any memory layout is stored in C order
        _assert_round_trip(tmp_path, stored)


def test_f64_round_trip(tmp_path):
    _assert_round_trip(tmp_path, np.random.default_rng(0).normal(size=(4, 9)))


def test_u8_round_trip(tmp_path):
    _assert_round_trip(tmp_path, np.arange(24, dtype=np.uint8).reshape(4, 6))


def test_scalar_and_1d_shapes(tmp_path):
    for arr in (np.float32(3.5).reshape(()), np.array([1, 2, 3], dtype=np.uint8), np.zeros((0, 4))):
        _assert_round_trip(tmp_path, arr)


def test_rejects_unsupported_dtype(tmp_path):
    for dtype in (np.int64, np.float16, object):
        with pytest.raises(ValidationError, match="unsupported dtype"):
            write_tensor(tmp_path / "t.npy", np.zeros(3, dtype=dtype))


def _npy_bytes(descr: str, shape: tuple, payload: bytes, fortran_order: bool = False) -> bytes:
    """A version 1.0 file with this header, followed by `payload`."""
    fh = io.BytesIO()
    npy.write_array_header_1_0(fh, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return fh.getvalue() + payload


def _stored_bytes(tmp_path, arr) -> bytes:
    path = tmp_path / "src.npy"
    write_tensor(path, arr)
    return path.read_bytes()


def _read_bytes_as_tensor(tmp_path, raw: bytes):
    path = tmp_path / "fuzz.npy"
    # each cut goes to a new file, not into the last one truncated in place:
    # on ext4 an in-place rewrite stalled for milliseconds while the rest of
    # the suite ran
    path.unlink(missing_ok=True)
    path.write_bytes(raw)
    return read_tensor(path)


def test_a_missing_or_unreadable_file_is_a_validation_error_naming_it(tmp_path):
    missing = tmp_path / "gone.npy"
    with pytest.raises(ValidationError, match=f"{missing}: No such file or directory"):
        read_tensor(missing)
    with pytest.raises(ValidationError, match=f"{tmp_path}: Is a directory"):
        read_tensor(tmp_path)


def test_rejects_bad_magic(tmp_path):
    raw = bytearray(_stored_bytes(tmp_path, np.zeros(3, dtype=np.float32)))
    raw[1] ^= 0xFF
    with pytest.raises(ValidationError, match="magic string"):
        _read_bytes_as_tensor(tmp_path, bytes(raw))


def test_rejects_truncated_payload(tmp_path):
    raw = _stored_bytes(tmp_path, np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValidationError, match="truncated"):
        _read_bytes_as_tensor(tmp_path, raw[:-4])


def test_rejects_trailing_garbage(tmp_path):
    raw = _stored_bytes(tmp_path, np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValidationError, match="trailing"):
        _read_bytes_as_tensor(tmp_path, raw + b"xx")


@pytest.mark.parametrize(
    "raw, message",
    [
        (_npy_bytes("<i8", (1,), bytes(8)), "unsupported dtype"),
        (_npy_bytes("|O", (1,), bytes(8)), "unsupported dtype"),
        (_npy_bytes(">f4", (2,), bytes(8)), "unsupported dtype"),
        (_npy_bytes("<f4", (2, 2), bytes(16), fortran_order=True), "Fortran"),
        (b"\x93NUMPY\x02\x00" + _npy_bytes("<f4", (1,), bytes(4))[8:], "version"),
        (_npy_bytes("<f4", (1,), bytes(4)).replace(b"{", b"("), "parse"),
    ],
    ids=["int64", "object", "big-endian", "fortran", "version", "syntax"],
)
def test_rejects_a_malformed_header(tmp_path, raw, message):
    with pytest.raises(ValidationError, match=message) as caught:
        _read_bytes_as_tensor(tmp_path, raw)
    assert str(tmp_path / "fuzz.npy") in str(caught.value)


# Malformed files: every defect is a ValidationError, found before the array is allocated.

FUZZ = settings(max_examples=60, deadline=None)


@st.composite
def stored_arrays(draw, max_side=4):
    shape = tuple(draw(st.lists(st.integers(0, max_side), min_size=0, max_size=4)))
    dtype = draw(st.sampled_from(DTYPES))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, 256, shape).astype(dtype)


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
    lie = tuple(data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=5)))
    assume(math.prod(lie) != arr.size)
    with pytest.raises(ValidationError, match="truncated|trailing"):
        _read_bytes_as_tensor(tmp_path, _npy_bytes(arr.dtype.str, lie, arr.tobytes()))


@FUZZ
@given(arr=stored_arrays(), data=st.data())
def test_a_corrupt_header_never_raises_anything_but_a_validation_error(tmp_path_factory, arr, data):
    tmp_path = tmp_path_factory.mktemp("t")
    raw = bytearray(_stored_bytes(tmp_path, arr))
    header_end = len(raw) - arr.nbytes
    for _ in range(data.draw(st.integers(1, 3))):
        raw[data.draw(st.integers(0, header_end - 1))] = data.draw(st.sampled_from(b"{}()[]',:-0129 \n\x00<|fuO"))
    try:
        back = _read_bytes_as_tensor(tmp_path, bytes(raw))
    except ValidationError:
        return
    # a corrupt header that still parses must account for every byte of the file
    assert back.tobytes() == np.load(tmp_path / "fuzz.npy", allow_pickle=False).tobytes()


def test_huge_declared_dims_are_rejected_before_reading(tmp_path):
    # allocating 2**82 bytes would fail with another error than the size check's
    with pytest.raises(ValidationError, match="truncated"):
        _read_bytes_as_tensor(tmp_path, _npy_bytes("<f4", (2**40, 2**40), bytes(16)))


@pytest.mark.parametrize("cut", [10, 14, 20])  # inside the dict of a header whose length field is intact
def test_a_short_header_names_the_header(tmp_path, cut):
    raw = _stored_bytes(tmp_path, np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValidationError, match="array header"):
        _read_bytes_as_tensor(tmp_path, raw[:cut])
