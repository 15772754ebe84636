"""Grid partitioning and patch labeling, with brute-force oracles."""

import numpy as np
import pytest

from patchbias.errors import ValidationError
from patchbias.patchgrid import PatchGridSpec, binary_label, partition
from patchbias.synthdata import SceneSpec, TissueClass, generate_scene


def _pair(h, w, m=2, seed=0):
    rng = np.random.default_rng(seed)
    img = rng.random((h, w, m)).astype(np.float32)
    mask = rng.integers(0, 3, (h, w)).astype(np.uint8)
    return img, mask


def test_partition_4x4_grid():
    img, mask = _pair(512, 512)
    patches = partition(img, mask, PatchGridSpec(128, 128))
    assert len(patches) == 16


def test_partition_identity_case():
    img, mask = _pair(100, 100)
    patches = partition(img, mask, PatchGridSpec(100, 100))
    assert len(patches) == 1
    assert np.array_equal(patches[0].pixels, img)
    assert np.array_equal(patches[0].mask, mask)


def test_partition_drops_partial_border():
    img, mask = _pair(130, 130)
    patches = partition(img, mask, PatchGridSpec(64, 64))
    assert len(patches) == 4  # floor(130/64) = 2 per axis, 2px border dropped


def test_partition_row_major_disjoint_tiling():
    img, mask = _pair(96, 128)
    patches = partition(img, mask, PatchGridSpec(32, 32))
    assert [(p.grid_row, p.grid_col) for p in patches] == [
        (r, c) for r in range(3) for c in range(4)
    ]
    # reassembling the patches reproduces the kept region exactly once
    seen = np.zeros((96, 128), dtype=int)
    for p in patches:
        seen[p.grid_row * 32 : p.grid_row * 32 + 32, p.grid_col * 32 : p.grid_col * 32 + 32] += 1
    assert np.all(seen == 1)
    for p in patches:
        sub = mask[p.grid_row * 32 : p.grid_row * 32 + 32, p.grid_col * 32 : p.grid_col * 32 + 32]
        assert np.array_equal(p.mask, sub)


def test_partition_rejects_oversized_patch_and_mismatched_mask():
    img, mask = _pair(64, 64)
    with pytest.raises(ValidationError):
        partition(img, mask, PatchGridSpec(65, 64))
    _, bad_mask = _pair(32, 64)
    with pytest.raises(ValidationError):
        partition(img, bad_mask, PatchGridSpec(32, 32))


def test_patch_views_alias_source_arrays():
    img, mask = _pair(64, 64)
    patch = partition(img, mask, PatchGridSpec(32, 32))[0]
    assert np.shares_memory(patch.pixels, img)
    assert np.shares_memory(patch.mask, mask)


def test_binary_label_trivial_cases():
    assert binary_label(np.zeros((8, 8), dtype=np.uint8)) == 0
    one_pixel = np.zeros((128, 128), dtype=np.uint8)
    one_pixel[7, 99] = TissueClass.TUMOR
    assert binary_label(one_pixel) == 1


def test_binary_label_monotone_under_added_tumor_pixel():
    rng = np.random.default_rng(4)
    mask = rng.integers(0, 3, (16, 16)).astype(np.uint8)
    before = binary_label(mask)
    mask[0, 0] = TissueClass.TUMOR
    assert binary_label(mask) >= before


def test_binary_label_matches_brute_force_on_random_masks():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        h, w = rng.integers(1, 9, 2)
        mask = rng.integers(0, 3, (h, w)).astype(np.uint8)
        expect = 0
        for i in range(h):
            for j in range(w):
                if mask[i, j] == TissueClass.TUMOR:
                    expect = 1
        assert binary_label(mask) == expect


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        PatchGridSpec(0, 4).validate()


def test_partition_on_generated_scene_labels_match_scene_content():
    img, mask = generate_scene(SceneSpec(seed=9, height=96, width=96, tumor_coverage=0.25))
    patches = partition(img, mask, PatchGridSpec(48, 48))
    for p in patches:
        assert binary_label(p.mask) == int(np.any(p.mask == TissueClass.TUMOR))
