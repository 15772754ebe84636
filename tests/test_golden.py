"""Pin the bytes of a small run across code versions.

Rerunning the same code twice (criterion 7 in test_acceptance) cannot catch a
refactor that changes bits; these hashes can. The config pools its 32 px
patches by a factor of 2, so the pooling layer is covered. The results hashes
hold for one numpy and OpenBLAS runtime (the kernel core OpenBLAS picks at
run time changes float rounding); elsewhere that test skips. The data stages
(generate, patchify, analyze) make no BLAS call, so their hashes depend on
the numpy version alone.

Each hash is checked on a run with one worker and on a run with two, and the
two runs must write the same bytes on any runtime.

To regenerate on purpose, after a change that is meant to move results: run
this config through ``harness.run_pipeline``, take sha256 of
``train/results.json`` and ``report/final_table.csv``, replace RESULTS_SHA256
and TABLE_SHA256, and say in CHANGES.md why the bytes moved. For the data
stages, print ``_data_digests`` of the run's out root into DATA_SHA256.
"""

import ctypes
import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from patchbias import harness, parallel

NUMPY_VERSION = "2.4.6"
OPENBLAS_CONFIG = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"
RESULTS_SHA256 = "49c3eeede9c48ba36dc22eb90e4d8cbc095fc10f062469a65887a19a1daed112"
TABLE_SHA256 = "93ef20ec9b8d841f28fd7d5ef7d25a07cefc70e29d138b95a38faae8ae9e7c05"
DATA_SHA256 = {
    "dataset/images": "c74587017a9db37a87b3a2ada6a2d09d1d205838530421290cdc68d1798770ba",
    "dataset/masks": "34785785cbc04f85e80d1e6cf5b7a9da0e9e116c09f9dfe985587e152712b436",
    "patches/patch_index.jsonl": "3cc0ff73159ae8ae84d45ae0708a21d288d6ff1133ffa4f4f703b65657605247",
    "analysis/bias_tau0.03.json": "395c2083a17ae342603c5b2f9fdff539725dd4e99d815dc58af879e51130cada",
    "analysis/bias_tau0.1.json": "a43499750722ba8f606bfba449c4ed0ab4193bca49f6ff4d9b36240fe00e2f54",
    "analysis/hist_r_tissue_y0.csv": "c1d37f8eab757cc95bead225f7cc9e0b599c90d2a1d140197aa884928445c34c",
    "analysis/hist_r_tumor_tissue_y1.csv": "3774f2e87028c32b7a2bf337969c5257926e9390cc67daac3cfb80cf9e04c5c8",
    "analysis/hist_r_tumor_y1.csv": "fd8e2cafb65d62c228f3d5591c24ba7bacdcfef97097abb1149dd0e1ece68200",
}


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


def skip_unless_pinned_runtime() -> None:
    """Skip the calling test unless numpy and OpenBLAS are the runtime the result hashes hold for."""
    blas = _openblas_config()
    if np.__version__ != NUMPY_VERSION or blas != OPENBLAS_CONFIG:
        pytest.skip(
            f"hashes are pinned for numpy {NUMPY_VERSION} with {OPENBLAS_CONFIG!r}; "
            f"this is numpy {np.__version__} with {blas!r}, whose float rounding may differ"
        )


def _pinned_config() -> dict:
    cfg = harness.default_config()
    cfg["dataset"].update(images=80, height=96, width=96, seed=1001, split_fractions=[0.4, 0.3, 0.3])
    cfg["patch"].update(height=32, width=32)
    cfg["model"].update(pool_target=16)
    cfg["train"].update(epochs=10, trials=2, beta=None, beta_grid=[0.0, 1.0], seed=5)
    return cfg


def test_pinned_config_pools_its_patches():
    assert harness.model_spec_from_config(_pinned_config()).pool_factor == 2


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[int, Path]:
    """The pinned config run end to end on one worker and on two, by worker count."""
    roots = {}
    for workers in (1, 2):
        root = tmp_path_factory.mktemp(f"workers{workers}")
        with pytest.MonkeyPatch.context() as patch, redirect_stdout(io.StringIO()):
            patch.setattr(parallel, "worker_count", lambda: workers)
            harness.run_pipeline(_pinned_config(), root)
        roots[workers] = root
    return roots


def test_small_run_matches_pinned_hashes(runs):
    skip_unless_pinned_runtime()
    for root in runs.values():
        digest = {
            rel: hashlib.sha256((root / rel).read_bytes()).hexdigest()
            for rel in ("train/results.json", "report/final_table.csv")
        }
        assert digest == {"train/results.json": RESULTS_SHA256, "report/final_table.csv": TABLE_SHA256}


def test_one_and_two_workers_write_the_same_bytes(runs):
    """On any runtime: every artifact but the timing manifest, byte for byte."""
    def files(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "run_manifest.json"
        }

    one, two = files(runs[1]), files(runs[2])
    assert one.keys() == two.keys()
    assert [rel for rel in one if one[rel] != two[rel]] == []


def _data_digests(out: Path) -> dict[str, str]:
    """sha256 of every data-stage artifact: the images and the masks (one digest per
    directory over names and bytes, in name order), the patch index and every analysis file."""
    digest = {}
    for sub in ("images", "masks"):
        h = hashlib.sha256()
        for path in sorted((out / "dataset" / sub).iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        digest[f"dataset/{sub}"] = h.hexdigest()
    rels = ["patches/patch_index.jsonl"] + [f"analysis/{p.name}" for p in sorted((out / "analysis").iterdir())]
    for rel in rels:
        digest[rel] = hashlib.sha256((out / rel).read_bytes()).hexdigest()
    return digest


def test_data_stages_match_pinned_hashes(runs):
    if np.__version__ != NUMPY_VERSION:
        pytest.skip(f"data hashes are pinned for numpy {NUMPY_VERSION}, this is numpy {np.__version__}")
    for root in runs.values():
        assert _data_digests(root) == DATA_SHA256
