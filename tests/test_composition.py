"""Ratio arithmetic, tissue inference, binarization, and group encoding."""

import numpy as np
import pytest

from patchbias.composition import (
    assign_group,
    binarize_spurious,
    compute_ratios,
    infer_tissue,
)
from patchbias.errors import ValidationError
from patchbias.patchgrid import PatchGridSpec, binary_label, partition
from patchbias.synthdata import SceneSpec, TissueClass, generate_scene


def test_ratios_direct_arithmetic():
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask.flat[:4] = TissueClass.TUMOR
    mask.flat[4:8] = TissueClass.HEALTHY
    r = compute_ratios(mask)
    assert r.r_tumor == 0.25
    assert r.r_tissue == 0.5
    assert r.r_tumor_tissue == 0.5
    assert r.tissue_pixels == 8


def test_ratios_all_background_leaves_tumor_tissue_undefined():
    r = compute_ratios(np.zeros((4, 4), dtype=np.uint8))
    assert r.r_tumor == 0.0
    assert r.r_tissue == 0.0
    assert r.tissue_pixels == 0
    assert r.r_tumor_tissue is None


def test_ratios_match_brute_force_recount():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        h, w = rng.integers(1, 9, 2)
        mask = rng.integers(0, 3, (h, w)).astype(np.uint8)
        tumor = healthy = 0
        for i in range(h):
            for j in range(w):
                if mask[i, j] == TissueClass.TUMOR:
                    tumor += 1
                elif mask[i, j] == TissueClass.HEALTHY:
                    healthy += 1
        total = h * w
        s = tumor + healthy
        r = compute_ratios(mask)
        assert r.r_tumor == tumor / total
        assert r.r_tissue == s / total
        assert r.tissue_pixels == s
        if s == 0:
            assert r.r_tumor_tissue is None
        else:
            assert r.r_tumor_tissue == tumor / s


def test_ratio_invariants_hold_on_random_masks():
    rng = np.random.default_rng(8)
    for _ in range(200):
        mask = rng.integers(0, 3, (7, 5)).astype(np.uint8)
        r = compute_ratios(mask)
        assert r.r_tumor <= r.r_tissue
        if r.r_tumor_tissue is not None:
            assert abs(r.r_tumor - r.r_tumor_tissue * r.r_tissue) < 1e-12
        # Eq. 3 consistency: positive tumor mass iff positive label
        assert (r.r_tumor > 0) == (binary_label(mask) == 1)


def test_infer_tissue_trivial_cases():
    assert not infer_tissue(np.zeros((4, 4, 3), dtype=np.float32), 0.05).any()
    assert infer_tissue(np.ones((4, 4, 3), dtype=np.float32), 0.05).all()


def test_infer_tissue_threshold_is_strict():
    patch = np.full((1, 1, 2), 0.05, dtype=np.float32)
    assert not infer_tissue(patch, 0.05).any()  # tissue iff max channel > epsilon
    patch[0, 0, 1] = 0.051
    assert infer_tissue(patch, 0.05).all()


def test_infer_tissue_exact_on_noise_free_scene():
    s = SceneSpec(seed=17, height=96, width=96, tumor_coverage=0.2, healthy_coverage=0.1, noise_sigma=0.0)
    image, mask = generate_scene(s)
    # any epsilon in the (background max, tissue minimum) gap recovers the mask
    inferred = infer_tissue(image, 0.05)
    truth = mask != TissueClass.BACKGROUND
    assert np.array_equal(inferred, truth)


def test_infer_tissue_validates_epsilon_and_shape():
    with pytest.raises(ValidationError):
        infer_tissue(np.zeros((2, 2, 1), dtype=np.float32), 0.0)
    with pytest.raises(ValidationError):
        infer_tissue(np.zeros((2, 2, 1), dtype=np.float32), 1.0)
    with pytest.raises(ValidationError):
        infer_tissue(np.zeros((2, 2), dtype=np.float32), 0.05)
    with pytest.raises(ValidationError, match="at least one channel"):
        infer_tissue(np.zeros((2, 2, 0), dtype=np.float32), 0.05)


def test_binarize_spurious_paper_cases():
    assert binarize_spurious(0.05, 0.1) == 0
    assert binarize_spurious(0.1, 0.1) == 1  # boundary uses >=
    assert binarize_spurious(0.5, 0.03) == 1


def test_binarize_spurious_monotonicity():
    rs = np.linspace(0, 1, 21)
    for tau in (0.0, 0.03, 0.1, 0.5, 1.0):
        zs = [binarize_spurious(float(r), tau) for r in rs]
        assert zs == sorted(zs)  # non-decreasing in r_tissue
    for r in rs:
        zs = [binarize_spurious(float(r), tau) for tau in (0.0, 0.25, 0.5, 1.0)]
        assert zs == sorted(zs, reverse=True)  # non-increasing in tau


def test_binarize_spurious_validates_inputs():
    with pytest.raises(ValidationError):
        binarize_spurious(1.2, 0.1)
    with pytest.raises(ValidationError):
        binarize_spurious(0.5, -0.1)


def test_group_encoding_bijection_and_round_trip():
    assert assign_group(0, 0) == 0
    assert assign_group(1, 1) == 3
    seen = {assign_group(y, z) for y in (0, 1) for z in (0, 1)}
    assert seen == {0, 1, 2, 3}
    for y in (0, 1):
        for z in (0, 1):
            assert divmod(assign_group(y, z), 2) == (y, z)


def test_group_encoding_validates_bits():
    with pytest.raises(ValidationError):
        assign_group(2, 0)


def test_ratios_on_generated_patches_are_consistent():
    img, mask = generate_scene(SceneSpec(seed=23, height=96, width=96, tumor_coverage=0.3))
    for p in partition(img, mask, PatchGridSpec(32, 32)):
        r = compute_ratios(p.mask)
        y = binary_label(p.mask)
        assert (r.r_tumor > 0) == (y == 1)
        z = binarize_spurious(r.r_tissue, 0.1)
        assert assign_group(y, z) == 2 * y + z
