"""Pin the end-to-end results bytes of a small run across code versions.

Rerunning the same code twice (criterion 7 in test_acceptance) cannot catch a
refactor that changes bits; these hashes can. The config pools its 32 px
patches by a factor of 2, so the pooling layer is covered. The hashes hold
for one numpy and OpenBLAS runtime (the kernel core OpenBLAS picks at run
time changes float rounding); elsewhere the test skips.

To regenerate on purpose, after a change that is meant to move results: run
this config through ``harness.run_pipeline``, take sha256 of
``train/results.json`` and ``report/final_table.csv``, replace RESULTS_SHA256
and TABLE_SHA256, and say in CHANGES.md why the bytes moved.
"""

import ctypes
import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from patchbias import harness

NUMPY_VERSION = "2.4.6"
OPENBLAS_CONFIG = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"
RESULTS_SHA256 = "49c3eeede9c48ba36dc22eb90e4d8cbc095fc10f062469a65887a19a1daed112"
TABLE_SHA256 = "93ef20ec9b8d841f28fd7d5ef7d25a07cefc70e29d138b95a38faae8ae9e7c05"


def _openblas_config() -> str | None:
    """The runtime configuration string of the OpenBLAS bundled with numpy, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _pinned_config() -> dict:
    cfg = harness.default_config()
    cfg["dataset"].update(images=80, height=96, width=96, seed=1001, split_fractions=[0.4, 0.3, 0.3])
    cfg["patch"].update(height=32, width=32)
    cfg["model"].update(pool_target=16)
    cfg["train"].update(epochs=10, trials=2, beta=None, beta_grid=[0.0, 1.0], seed=5)
    return cfg


def test_pinned_config_pools_its_patches():
    assert harness.model_spec_from_config(_pinned_config()).pool_factor == 2


def test_small_run_matches_pinned_hashes(tmp_path):
    blas = _openblas_config()
    if np.__version__ != NUMPY_VERSION or blas != OPENBLAS_CONFIG:
        pytest.skip(
            f"hashes are pinned for numpy {NUMPY_VERSION} with {OPENBLAS_CONFIG!r}; "
            f"this is numpy {np.__version__} with {blas!r}, whose float rounding may differ"
        )
    with redirect_stdout(io.StringIO()):
        harness.run_pipeline(_pinned_config(), tmp_path)
    digest = {
        rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
        for rel in ("train/results.json", "report/final_table.csv")
    }
    assert digest == {"train/results.json": RESULTS_SHA256, "report/final_table.csv": TABLE_SHA256}
