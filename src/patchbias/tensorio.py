"""Flat binary tensor container used for images, masks, and checkpoints.

Layout: 8-byte magic ``PBTENSR1``, u32 rank, u32 dims (row-major),
u8 dtype tag (0 = float32 little-endian, 1 = uint8), then raw data.
All integers are little-endian.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ValidationError

MAGIC = b"PBTENSR1"

_TAG_F32 = 0
_TAG_U8 = 1

_DTYPE_TO_TAG = {np.dtype("<f4"): _TAG_F32, np.dtype("u1"): _TAG_U8}
_TAG_TO_DTYPE = {_TAG_F32: np.dtype("<f4"), _TAG_U8: np.dtype("u1")}


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write a float32 or uint8 array to `path` in PBTENSR1 layout."""
    arr = np.asarray(array)  # tobytes(order="C") copies, so contiguity is irrelevant
    if arr.dtype not in _DTYPE_TO_TAG:
        raise ValidationError(
            f"unsupported dtype {arr.dtype}; only float32 and uint8 can be stored"
        )
    tag = _DTYPE_TO_TAG[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(struct.pack("<B", tag))
        fh.write(arr.tobytes(order="C"))


def _unpack_header(fh, fmt: str, path) -> tuple:
    """Read and unpack one header field; a short read is a ValidationError."""
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise ValidationError(f"{path}: header cut short")
    return struct.unpack(fmt, raw)


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a PBTENSR1 file back into a numpy array.

    Any malformed file raises ValidationError: a bad magic, a header cut
    short, an implausible rank, an unknown tag, or a payload that is not
    exactly the rest of the file. The declared payload size is checked
    against the file size before the payload is read.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (rank,) = _unpack_header(fh, "<I", path)
        if rank > 8:
            raise ValidationError(f"{path}: implausible rank {rank}")
        dims = _unpack_header(fh, f"<{rank}I", path)
        (tag,) = _unpack_header(fh, "<B", path)
        if tag not in _TAG_TO_DTYPE:
            raise ValidationError(f"{path}: unknown dtype tag {tag}")
        dtype = _TAG_TO_DTYPE[tag]
        nbytes = math.prod(dims) * dtype.itemsize  # Python ints, so huge dims cannot overflow
        remaining = file_size - fh.tell()
        if nbytes > remaining:
            raise ValidationError(f"{path}: truncated payload: header declares {nbytes} bytes, {remaining} follow")
        if nbytes < remaining:
            raise ValidationError(f"{path}: trailing bytes after payload")
        raw = fh.read(nbytes)
    if len(raw) != nbytes:  # the file shrank after the size check
        raise ValidationError(f"{path}: truncated payload")
    return np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
