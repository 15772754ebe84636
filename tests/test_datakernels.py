"""The data-stage kernels against the implementations they replaced, bit for bit.

Tissue inference was a `max(axis=-1)` over the channel axis, the composition
counts compared against `TissueClass` members, the inferred tissue fraction
was a `mean()`, ellipses were rasterized on a full `np.mgrid`, and scene
painting wrote through boolean gathers and scatters. Those versions are kept
here as oracles: the faster kernels must give the same bytes, so every pinned
hash of the data stages holds.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from patchbias.composition import PatchRatios, compute_ratios, infer_tissue
from patchbias.patchgrid import PatchGridSpec, binary_label, partition
from patchbias.synthdata import (
    SceneSpec,
    TissueClass,
    _class_profile,
    _ellipse_mask,
    _place_tumor_blobs,
    generate_scene,
)

PROPERTY = settings(max_examples=80, deadline=None)


# ---- oracles: the replaced implementations -----------------------------------------------


def _oracle_infer_tissue(pixels, epsilon):
    return pixels.max(axis=-1) > epsilon


def _oracle_compute_ratios(mask):
    total = mask.size
    tumor = int(np.count_nonzero(mask == TissueClass.TUMOR))
    healthy = int(np.count_nonzero(mask == TissueClass.HEALTHY))
    tissue = tumor + healthy
    return PatchRatios(
        r_tumor=tumor / total,
        r_tumor_tissue=(tumor / tissue) if tissue > 0 else None,
        r_tissue=tissue / total,
        tissue_pixels=tissue,
    )


def _oracle_binary_label(mask, target_class=TissueClass.TUMOR):
    return int(np.any(mask == target_class))


def _oracle_ellipse_mask(height, width, cy, cx, a, b, angle):
    if a <= 0 or b <= 0:
        return np.zeros((height, width), dtype=bool)
    r = max(a, b)
    y0, y1 = max(0, int(math.floor(cy - r))), min(height, int(math.ceil(cy + r)) + 1)
    x0, x1 = max(0, int(math.floor(cx - r))), min(width, int(math.ceil(cx + r)) + 1)
    out = np.zeros((height, width), dtype=bool)
    if y0 >= y1 or x0 >= x1:
        return out
    yy, xx = np.mgrid[y0:y1, x0:x1]
    dy = yy - cy
    dx = xx - cx
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    u = dx * cos_t + dy * sin_t
    v = -dx * sin_t + dy * cos_t
    out[y0:y1, x0:x1] = (u / a) ** 2 + (v / b) ** 2 <= 1.0
    return out


def _oracle_place_tumor_blobs(spec, rng):
    h, w = spec.height, spec.width
    area = h * w
    target = spec.tumor_coverage * area
    if spec.tumor_blob_count == 0 or target <= 0:
        return np.zeros((h, w), dtype=bool), [], []
    if spec.tumor_coverage >= 1.0:
        full = np.ones((h, w), dtype=bool)
        return full, [full.copy()], [(h / 2, w / 2, float(h + w), float(h + w), 0.0)]
    n = spec.tumor_blob_count
    weights = rng.uniform(0.5, 1.5, size=n)
    weights /= weights.sum()
    centers = np.column_stack(
        [rng.uniform(0.12 * h, 0.88 * h, size=n), rng.uniform(0.12 * w, 0.88 * w, size=n)]
    )
    aspects = rng.uniform(1.0, 2.2, size=n)
    angles = rng.uniform(0.0, math.pi, size=n)
    scale = 1.0
    best = None
    for _ in range(12):
        blobs = []
        params = []
        for i in range(n):
            blob_area = target * weights[i] * scale**2
            b_ax = math.sqrt(blob_area / (math.pi * aspects[i]))
            a_ax = b_ax * aspects[i]
            params.append((centers[i, 0], centers[i, 1], a_ax, b_ax, angles[i]))
            blobs.append(_oracle_ellipse_mask(h, w, *params[-1]))
        union = np.logical_or.reduce(blobs) if blobs else np.zeros((h, w), dtype=bool)
        actual = union.sum()
        rel = abs(actual - target) / target
        if best is None or rel < best[0]:
            best = (rel, union, blobs, params)
        if rel <= 0.02:
            break
        ratio = target / max(actual, 1.0)
        scale *= min(4.0, max(0.5, math.sqrt(ratio)))
    return best[1], best[2], best[3]


def _oracle_paint_healthy(spec, rng, tumor, tumor_params):
    h, w = spec.height, spec.width
    healthy = np.zeros((h, w), dtype=bool)
    target = spec.healthy_coverage * h * w
    if target <= 0:
        return healthy
    if spec.rim_thickness > 0:
        for cy, cx, a, b, angle in tumor_params:
            outer = _oracle_ellipse_mask(
                h, w, cy, cx, a + spec.rim_thickness, b + spec.rim_thickness, angle
            )
            healthy |= outer & ~tumor
    tries = 0
    while healthy.sum() < target and tries < 300:
        tries += 1
        frac = rng.uniform(0.002, 0.012)
        blob_area = frac * h * w
        aspect = rng.uniform(1.0, 2.0)
        b_ax = math.sqrt(blob_area / (math.pi * aspect))
        blob = _oracle_ellipse_mask(
            h,
            w,
            rng.uniform(0.05 * h, 0.95 * h),
            rng.uniform(0.05 * w, 0.95 * w),
            b_ax * aspect,
            b_ax,
            rng.uniform(0.0, math.pi),
        )
        healthy |= blob & ~tumor
    return healthy


def _oracle_generate_scene_details(spec):
    spec.validate()
    h, w, m = spec.height, spec.width, spec.channels
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    tumor, blob_masks, blob_params = _oracle_place_tumor_blobs(spec, rng)
    healthy = _oracle_paint_healthy(spec, rng, tumor, blob_params)
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[healthy] = TissueClass.HEALTHY
    mask[tumor] = TissueClass.TUMOR
    bg_cap = min(1.0, spec.background_intensity_max + 3.0 * spec.noise_sigma)
    data = rng.uniform(0.0, spec.background_intensity_max, size=(h, w, m))
    for label in (TissueClass.HEALTHY, TissueClass.TUMOR):
        region = mask == label
        if region.any():
            data[region] = _class_profile(label, m)
    if spec.noise_sigma > 0:
        data += rng.normal(0.0, spec.noise_sigma, size=(h, w, m))
    data = np.clip(data, 0.0, 1.0)
    background = mask == TissueClass.BACKGROUND
    data[background] = np.minimum(data[background], max(0.0, bg_cap - 1e-6))
    tissue = ~background
    if tissue.any():
        floor = min(1.0, 2.0 * spec.background_intensity_max + 1e-3)
        for label in (TissueClass.HEALTHY, TissueClass.TUMOR):
            region = mask == label
            if region.any():
                sig = int(np.argmax(_class_profile(label, m)))
                data[region, sig] = np.maximum(data[region, sig], floor)
    return data.astype(np.float32), mask, blob_masks, blob_params


# ---- strategies ---------------------------------------------------------------------------


@st.composite
def tiled_pixels(draw):
    """(epsilon, float32 image, patch grid): pixels mix NaN, ±inf, ±0, epsilon itself and its
    float32 neighbours with ordinary values, and the patches are strided views into the image."""
    # a float32-representable epsilon lets pixels equal it exactly
    epsilon = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, width=32)
                   | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    at_eps = np.float32(epsilon)
    specials = [
        np.nan, np.inf, -np.inf, 0.0, -0.0, at_eps,
        np.nextafter(at_eps, np.float32(0)), np.nextafter(at_eps, np.float32(1)),
    ]
    elements = st.one_of(st.sampled_from(specials), st.floats(-2.0, 2.0, width=32))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    extra_h, extra_w = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    shape = (rows * h + extra_h, cols * w + extra_w, draw(st.integers(1, 6)))
    pixels = draw(hnp.arrays(np.float32, shape, elements=elements))
    return epsilon, pixels, PatchGridSpec(h, w)


_MASK_DTYPES = (np.uint8, np.int8, np.int16, np.int64)


@st.composite
def masks(draw):
    """Integer masks of several dtypes, mostly class values 0..2 but also values outside them."""
    dtype = np.dtype(draw(st.sampled_from(_MASK_DTYPES)))
    info = np.iinfo(dtype)
    # values that wrap onto a class id when cast to a narrower type (258 -> 2 as uint8)
    aliases = [v for v in (-255, -254, 257, 258, 65537, 65538, 2**32 + 2) if info.min <= v <= info.max]
    values = st.one_of(
        st.integers(max(-3, info.min), 5),
        st.integers(int(info.min), int(info.max)),
        *([st.sampled_from(aliases)] if aliases else []),
    )
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return draw(hnp.arrays(dtype, shape, elements=values))


@st.composite
def scene_specs(draw):
    tumor = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return SceneSpec(
        seed=draw(st.integers(0, 2**64 - 1)),
        height=draw(st.integers(1, 48)),
        width=draw(st.integers(1, 48)),
        channels=draw(st.integers(1, 5)),
        tumor_blob_count=draw(st.integers(0, 6)),
        tumor_coverage=tumor,
        healthy_coverage=draw(st.floats(0.0, 1.0 - tumor)),
        background_intensity_max=draw(st.sampled_from([0.0, 0.45]) | st.floats(0.0, 0.45)),
        noise_sigma=draw(st.sampled_from([0.0]) | st.floats(0.0, 0.3)),
        rim_thickness=draw(st.sampled_from([0.0]) | st.floats(0.0, 4.0)),
    )


# ---- properties ---------------------------------------------------------------------------


@PROPERTY
@given(tiled_pixels())
def test_infer_tissue_matches_the_channel_max_oracle(case):
    epsilon, pixels, grid = case
    labels = np.zeros(pixels.shape[:2], dtype=np.uint8)
    patches = partition(pixels, labels, grid)
    views = [pixels] + [p.pixels for p in patches]
    for view in views:
        got = infer_tissue(view, epsilon)
        want = _oracle_infer_tissue(view, epsilon)
        assert got.dtype == want.dtype == np.bool_
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_infer_tissue_nan_is_never_tissue():
    pixels = np.array([[[np.nan, 0.9, 0.9], [0.9, np.nan, 0.0], [0.0, 0.0, np.nan]]], dtype=np.float32)
    assert not infer_tissue(pixels, 0.05).any()
    assert np.array_equal(infer_tissue(pixels, 0.05), _oracle_infer_tissue(pixels, 0.05))


@PROPERTY
@given(masks(), st.integers(1, 4), st.integers(1, 4))
def test_compute_ratios_and_binary_label_match_the_enum_oracle(mask, h, w):
    grid = PatchGridSpec(min(h, mask.shape[0]), min(w, mask.shape[1]))
    pixels = np.zeros((*mask.shape, 1), dtype=np.float32)
    patches = partition(pixels, mask, grid)
    views = [mask] + [p.mask for p in patches]
    for view in views:
        assert compute_ratios(view) == _oracle_compute_ratios(view)
        assert binary_label(view) == _oracle_binary_label(view)
        for target in TissueClass:
            assert binary_label(view, int(target)) == _oracle_binary_label(view, target)


@PROPERTY
@given(hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=80)))
def test_inferred_fraction_count_equals_mean(tissue):
    fraction = int(np.count_nonzero(tissue)) / tissue.size
    assert type(fraction) is float
    assert fraction == float(tissue.mean())


@PROPERTY
@given(
    st.integers(1, 60),
    st.integers(1, 60),
    st.floats(-40.0, 100.0),
    st.floats(-40.0, 100.0),
    st.sampled_from([0.0, -1.0, 1e-9, 0.5]) | st.floats(0.0, 80.0),
    st.sampled_from([0.0, -1.0, 1e-9, 0.5]) | st.floats(0.0, 80.0),
    st.floats(-2 * math.pi, 2 * math.pi),
)
@example(5, 5, -30.0, -30.0, 3.0, 2.0, 0.3)  # centre far off the image: empty box
@example(5, 5, 2.0, 2.0, 0.0, 3.0, 0.0)  # degenerate axis
@example(1, 1, 0.0, 0.0, 1e-9, 1e-9, 0.0)  # a single pixel on the centre
@example(5, 5, 2.0, 2.0, 1.0, 1.0, 0.0)  # pixels exactly on the boundary
def test_ellipse_mask_matches_the_mgrid_oracle(height, width, cy, cx, a, b, angle):
    with np.errstate(over="ignore"):  # tiny axes square to inf, identically in both
        got = _ellipse_mask(height, width, cy, cx, a, b, angle)
        want = _oracle_ellipse_mask(height, width, cy, cx, a, b, angle)
    assert got.dtype == np.bool_ and got.shape == (height, width)
    assert np.array_equal(got, want)


def _assert_scene_matches_oracle(spec):
    image, mask = generate_scene(spec)
    data, labels, blob_masks, blob_params = _oracle_generate_scene_details(spec)
    assert image.dtype == np.float32 and image.tobytes() == data.tobytes()
    assert mask.dtype == np.uint8 and mask.tobytes() == labels.tobytes()
    # the blob placement generate_scene starts with, rebuilt blob by blob from its parameters
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    tumor, params = _place_tumor_blobs(spec, rng)
    assert np.array_equal(tumor, labels == TissueClass.TUMOR)
    assert params == blob_params
    rebuilt = [_ellipse_mask(spec.height, spec.width, *p) for p in params]
    assert len(rebuilt) == len(blob_masks)
    assert all(np.array_equal(x, y) for x, y in zip(rebuilt, blob_masks))


@settings(max_examples=60, deadline=None)
@given(scene_specs())
def test_generate_scene_matches_the_gather_scatter_oracle(spec):
    with np.errstate(over="ignore"):  # a near-zero coverage gives tiny ellipse axes, in both
        _assert_scene_matches_oracle(spec)


def test_generate_scene_matches_the_oracle_on_edge_specs():
    base = SceneSpec(seed=11, height=40, width=36, channels=3, tumor_blob_count=3)
    cases = [
        base,
        SceneSpec(**{**vars(base), "noise_sigma": 0.0}),
        SceneSpec(**{**vars(base), "tumor_blob_count": 0, "tumor_coverage": 0.0}),
        SceneSpec(**{**vars(base), "tumor_blob_count": 0}),  # coverage asked for, no blobs
        SceneSpec(**{**vars(base), "tumor_coverage": 1.0, "healthy_coverage": 0.0}),
        SceneSpec(**{**vars(base), "background_intensity_max": 0.45}),
        SceneSpec(**{**vars(base), "tumor_coverage": 0.0, "healthy_coverage": 0.0}),
        SceneSpec(**{**vars(base), "rim_thickness": 0.0, "healthy_coverage": 0.3}),
    ]
    cases += [SceneSpec(**{**vars(base), "channels": c, "seed": 100 + c}) for c in range(1, 6)]
    cases += [SceneSpec(seed=20240801 + i, height=216, width=216, tumor_blob_count=i % 7,
                        tumor_coverage=0.05 + 0.04 * (i % 7), healthy_coverage=0.03) for i in range(4)]
    for spec in cases:
        _assert_scene_matches_oracle(spec)
