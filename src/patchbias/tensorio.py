"""Images, masks and checkpoints as version 1.0 `.npy` files (NEP 1).

Only float32, float64 and uint8 arrays in C order are stored, so any numpy
reads the files back with `np.load(path, allow_pickle=False)`. The reader
is stricter than `np.load`: any malformed file, including one with bytes
after the payload, raises ValidationError.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from tokenize import TokenError

import numpy as np
from numpy.lib import format as npy

from .errors import ValidationError

_DTYPES = (np.dtype("<f4"), np.dtype("<f8"), np.dtype("u1"))


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    """Write a float32, float64 or uint8 array to `path` as a `.npy` file."""
    arr = np.asarray(array, order="C")  # a Fortran-ordered array is stored in C order
    if arr.dtype not in _DTYPES:
        raise ValidationError(f"unsupported dtype {arr.dtype}; only float32, float64 and uint8 can be stored")
    with open(path, "wb") as fh:  # np.save(path) would append ".npy" to the name
        npy.write_array(fh, arr, version=(1, 0), allow_pickle=False)


def read_tensor(path: str | Path) -> np.ndarray:
    """Read a `.npy` file written by `write_tensor` back into a numpy array.

    A missing or unreadable file, and any malformed one, raises
    ValidationError naming `path`: a bad magic or version, an unparsable
    header, a dtype outside the three stored ones, Fortran order, or a
    payload that is not exactly the rest of the file. The declared payload
    size is checked against the file size before the array is allocated.
    """
    try:
        with open(path, "rb") as fh:
            version = npy.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"unsupported .npy version {version}")
            shape, fortran_order, dtype = npy.read_array_header_1_0(fh)
            if dtype not in _DTYPES:
                raise ValueError(f"unsupported dtype {dtype}")
            if fortran_order:
                raise ValueError("Fortran-ordered arrays are not stored")
            nbytes = math.prod(shape) * dtype.itemsize  # Python ints, so huge dims cannot overflow
            remaining = os.fstat(fh.fileno()).st_size - fh.tell()
            if nbytes > remaining:
                raise ValueError(f"truncated payload: header declares {nbytes} bytes, {remaining} follow")
            if nbytes < remaining:
                raise ValueError("trailing bytes after payload")
            array = np.empty(shape, dtype)
            if fh.readinto(array.reshape(-1).view(np.uint8)) != nbytes:  # the file shrank after the size check
                raise ValueError("truncated payload")
    except (ValueError, TypeError, SyntaxError, TokenError) as e:  # what numpy's header parser raises
        raise ValidationError(f"{path}: {e}") from e
    except OSError as e:
        raise ValidationError(f"{path}: {e.strerror or e}") from e
    return array
