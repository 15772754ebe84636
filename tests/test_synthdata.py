"""Scene generator contracts: determinism, coverage, intensity separation,
blob geometry, and corpus split assignment."""

import numpy as np
import pytest

from patchbias.errors import ValidationError
from patchbias.synthdata import (
    SPLITS,
    SceneSpec,
    TissueClass,
    _ellipse_mask,
    _place_tumor_blobs,
    generate_corpus,
    generate_scene,
    load_scene,
    materialize,
    scene_paths,
    split_counts,
)


def spec(**kw) -> SceneSpec:
    base = dict(seed=3, height=128, width=128)
    base.update(kw)
    return SceneSpec(**base)


def test_zero_coverage_scene_is_all_background_near_black():
    s = spec(tumor_blob_count=0, tumor_coverage=0.0, healthy_coverage=0.0)
    image, mask = generate_scene(s)
    assert np.all(mask == TissueClass.BACKGROUND)
    bound = s.background_intensity_max + 3 * s.noise_sigma
    assert float(image.max()) <= bound


def test_full_coverage_scene_is_all_tumor():
    s = spec(tumor_coverage=1.0, healthy_coverage=0.0, noise_sigma=0.0)
    _, mask = generate_scene(s)
    assert np.all(mask == TissueClass.TUMOR)


def test_identical_spec_gives_bit_identical_tensors():
    s = SceneSpec(seed=7, height=512, width=512, tumor_coverage=0.3)
    img_a, mask_a = generate_scene(s)
    img_b, mask_b = generate_scene(s)
    assert img_a.tobytes() == img_b.tobytes()
    assert mask_a.tobytes() == mask_b.tobytes()


def test_different_seeds_differ():
    img_a, _ = generate_scene(spec(seed=1))
    img_b, _ = generate_scene(spec(seed=2))
    assert img_a.tobytes() != img_b.tobytes()


def test_tumor_coverage_hits_target_within_ten_percent_relative():
    for seed in range(8):
        for target in (0.05, 0.15, 0.3):
            s = spec(seed=seed, tumor_blob_count=3, tumor_coverage=target, healthy_coverage=0.05)
            _, mask = generate_scene(s)
            frac = float(np.mean(mask == TissueClass.TUMOR))
            assert abs(frac - target) <= 0.1 * target, (seed, target, frac)


def test_image_values_finite_in_unit_interval_and_float32():
    image, mask = generate_scene(spec(seed=5))
    assert image.dtype == np.float32
    assert mask.dtype == np.uint8
    assert np.isfinite(image).all()
    assert image.min() >= 0.0 and image.max() <= 1.0
    assert set(np.unique(mask)) <= {0, 1, 2}


def test_background_bounded_and_tissue_separated():
    s = spec(seed=11, tumor_coverage=0.25, healthy_coverage=0.1, noise_sigma=0.04)
    image, mask = generate_scene(s)
    bg = mask == TissueClass.BACKGROUND
    tissue = ~bg
    assert float(image[bg].max()) <= s.background_intensity_max + 3 * s.noise_sigma
    # every tissue pixel clears twice the background cap on some channel
    assert float(image[tissue].max(axis=1).min()) > 2 * s.background_intensity_max


def test_noise_free_intensity_separation_has_zero_overlap():
    s = spec(seed=13, tumor_coverage=0.2, healthy_coverage=0.15, noise_sigma=0.0)
    image, mask = generate_scene(s)
    bg = mask == TissueClass.BACKGROUND
    max_channel = image.max(axis=2)
    assert float(max_channel[bg].max()) < float(max_channel[~bg].min())


def test_tumor_blobs_are_convex_like():
    """Midpoints of random in-blob pixel pairs land inside the blob >= 95%."""
    rng = np.random.default_rng(0)
    s = spec(seed=21, tumor_blob_count=2, tumor_coverage=0.2, healthy_coverage=0.0)
    # the blobs are rebuilt from the parameters the scene was drawn with
    tumor, params = _place_tumor_blobs(s, np.random.Generator(np.random.PCG64(np.random.SeedSequence(s.seed))))
    _, mask = generate_scene(s)
    assert np.array_equal(tumor, mask == TissueClass.TUMOR)
    checked = 0
    for blob in (_ellipse_mask(s.height, s.width, *p) for p in params):
        ys, xs = np.nonzero(blob)
        if ys.size < 2:
            continue
        a = rng.integers(0, ys.size, 1000)
        b = rng.integers(0, ys.size, 1000)
        my = (ys[a] + ys[b]) // 2
        mx = (xs[a] + xs[b]) // 2
        rate = float(np.mean(blob[my, mx]))
        assert rate >= 0.95, rate
        checked += 1
    assert checked > 0


def test_blob_count_zero_means_no_tumor_regardless_of_coverage():
    _, mask = generate_scene(spec(tumor_blob_count=0, tumor_coverage=0.4))
    assert not np.any(mask == TissueClass.TUMOR)


@pytest.mark.parametrize(
    "kw",
    [
        dict(tumor_coverage=0.7, healthy_coverage=0.4),
        dict(height=0),
        dict(channels=0),
        dict(noise_sigma=-0.1),
        dict(tumor_blob_count=-1),
        dict(background_intensity_max=1.0),
        dict(seed=-1),
    ],
)
def test_invalid_specs_rejected(kw):
    with pytest.raises(ValidationError):
        spec(**kw).validate()


def test_split_counts_exact_division():
    assert split_counts(10, (0.8, 0.1, 0.1)) == (8, 1, 1)


def test_split_counts_all_train():
    assert split_counts(5, (1.0, 0.0, 0.0)) == (5, 0, 0)


def test_split_counts_largest_remainder_by_hand():
    # quotas 1.02/0.99/0.99, floors 1/0/0, residue 2 to the largest remainders
    assert split_counts(3, (0.34, 0.33, 0.33)) == (1, 1, 1)


def test_split_counts_remainder_tie_goes_to_lower_index():
    # quotas 1.5/1.5/0: one leftover image, tied remainders, train wins
    assert split_counts(3, (0.5, 0.5, 0.0)) == (2, 1, 0)


def test_split_counts_rejects_bad_fractions():
    with pytest.raises(ValidationError):
        split_counts(10, (0.5, 0.2, 0.2))
    with pytest.raises(ValidationError):
        split_counts(10, (0.8, 0.3, -0.1))


def test_generate_corpus_assigns_in_list_order():
    specs = [spec(seed=i) for i in range(10)]
    entries = generate_corpus(specs, (0.8, 0.1, 0.1))
    splits = [e.split for e in entries]
    assert splits == ["train"] * 8 + ["val"] + ["test"]
    assert [e.image_id for e in entries] == [f"img{i}" for i in range(10)]


def test_generate_corpus_rejects_empty_and_duplicate_seeds():
    with pytest.raises(ValidationError):
        generate_corpus([], (1.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        generate_corpus([spec(seed=1), spec(seed=1)], (1.0, 0.0, 0.0))


def test_materialize_and_load_scene_round_trip(tmp_path):
    entries = generate_corpus([spec(seed=i, height=64, width=64) for i in range(3)], (1.0, 0.0, 0.0))
    materialize(entries, tmp_path)
    # only the scenes are written: the corpus is derived, never stored
    assert sorted(p.name for p in tmp_path.iterdir()) == ["images", "masks"]
    for entry in entries:
        image, mask = load_scene(tmp_path, entry)
        fresh_img, fresh_mask = generate_scene(entry.spec)
        assert np.array_equal(image, fresh_img)
        assert np.array_equal(mask, fresh_mask)


def test_load_scene_reports_missing_files(tmp_path):
    [entry] = generate_corpus([spec(seed=1, height=64, width=64)], (1.0, 0.0, 0.0))
    materialize([entry], tmp_path)
    victim = tmp_path / scene_paths(entry.image_id)[0]
    victim.unlink()
    with pytest.raises(ValidationError, match=str(victim)):
        load_scene(tmp_path, entry)


def test_splits_are_train_val_test():
    assert set(SPLITS) == {"train", "val", "test"}
