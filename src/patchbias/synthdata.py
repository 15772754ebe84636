"""Deterministic synthetic multimodal scenes with pixel-wise tissue masks.

Tumor regions are rendered as large rotated ellipses (convex by
construction), optionally wrapped in a thin healthy rim and accompanied by
small free-standing healthy blobs. Background stays near-black so tissue
can be told apart from background by channel intensity alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import IntEnum
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .parallel import run_jobs
from .tensorio import read_tensor, write_tensor

SPLITS = ("train", "val", "test")

# Per-class mean channel intensities, tiled/truncated to the channel count.
# The leading channel of each profile is that class's brightest ("signature")
# channel; generate_scene guarantees it stays above twice the background cap.
_TUMOR_BASE = (0.66, 0.30, 0.52)
_HEALTHY_BASE = (0.34, 0.62, 0.46)

# background_intensity_max above this would leave no headroom in [0,1] for
# the 2x tissue/background separation margin
_MAX_BACKGROUND_CAP = 0.45


class TissueClass(IntEnum):
    BACKGROUND = 0
    HEALTHY = 1
    TUMOR = 2


@dataclass(frozen=True)
class SceneSpec:
    """Full recipe for one synthetic scene; generation is a pure function of it."""

    seed: int
    height: int
    width: int
    channels: int = 3
    tumor_blob_count: int = 2
    tumor_coverage: float = 0.2
    healthy_coverage: float = 0.1
    background_intensity_max: float = 0.03
    noise_sigma: float = 0.05
    rim_thickness: float = 2.0

    def validate(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ValidationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.height < 1 or self.width < 1:
            raise ValidationError(f"height and width must be >= 1, got {self.height}x{self.width}")
        if self.channels < 1:
            raise ValidationError(f"channels must be >= 1, got {self.channels}")
        if self.tumor_blob_count < 0:
            raise ValidationError(f"tumor_blob_count must be >= 0, got {self.tumor_blob_count}")
        for name in ("tumor_coverage", "healthy_coverage"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.tumor_coverage + self.healthy_coverage > 1.0 + 1e-12:
            raise ValidationError(
                "tumor_coverage + healthy_coverage must be <= 1, got "
                f"{self.tumor_coverage} + {self.healthy_coverage}"
            )
        if not (0.0 <= self.background_intensity_max < 1.0):
            raise ValidationError(
                f"background_intensity_max must be in [0, 1), got {self.background_intensity_max}"
            )
        if self.background_intensity_max > _MAX_BACKGROUND_CAP:
            raise ValidationError(
                f"background_intensity_max must be <= {_MAX_BACKGROUND_CAP} so tissue "
                "channels can stay above twice the background cap"
            )
        if self.noise_sigma < 0:
            raise ValidationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.rim_thickness < 0:
            raise ValidationError(f"rim_thickness must be >= 0, got {self.rim_thickness}")


def _class_profile(label: TissueClass, channels: int) -> np.ndarray:
    base = _TUMOR_BASE if label == TissueClass.TUMOR else _HEALTHY_BASE
    return np.resize(np.asarray(base, dtype=np.float64), channels)


def _ellipse_mask(
    height: int,
    width: int,
    cy: float,
    cx: float,
    a: float,
    b: float,
    angle: float,
) -> np.ndarray:
    """Boolean mask of pixels whose integer coordinates fall inside the ellipse."""
    if a <= 0 or b <= 0:
        return np.zeros((height, width), dtype=bool)
    r = max(a, b)
    y0, y1 = max(0, int(math.floor(cy - r))), min(height, int(math.ceil(cy + r)) + 1)
    x0, x1 = max(0, int(math.floor(cx - r))), min(width, int(math.ceil(cx + r)) + 1)
    out = np.zeros((height, width), dtype=bool)
    if y0 >= y1 or x0 >= x1:
        return out
    # a column of row offsets and a row of column offsets; broadcasting gives
    # the same per-pixel values as a full mgrid at a fraction of the work
    dy = (np.arange(y0, y1) - cy)[:, None]
    dx = np.arange(x0, x1) - cx
    cos_t, sin_t = math.cos(angle), math.sin(angle)
    u = dx * cos_t + dy * sin_t
    v = -dx * sin_t + dy * cos_t
    out[y0:y1, x0:x1] = (u / a) ** 2 + (v / b) ** 2 <= 1.0
    return out


def _place_tumor_blobs(
    spec: SceneSpec, rng: np.random.Generator
) -> tuple[np.ndarray, list[np.ndarray], list[tuple[float, float, float, float, float]]]:
    """Rasterize tumor ellipses, rescaling until coverage lands near the target.

    Returns (union mask, per-blob masks, per-blob (cy, cx, a, b, angle))."""
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
    best: tuple[float, np.ndarray, list[np.ndarray], list] | None = None
    for _ in range(12):
        blobs = []
        params = []
        for i in range(n):
            blob_area = target * weights[i] * scale**2
            b_ax = math.sqrt(blob_area / (math.pi * aspects[i]))
            a_ax = b_ax * aspects[i]
            params.append((centers[i, 0], centers[i, 1], a_ax, b_ax, angles[i]))
            blobs.append(_ellipse_mask(h, w, *params[-1]))
        union = np.logical_or.reduce(blobs) if blobs else np.zeros((h, w), dtype=bool)
        actual = np.count_nonzero(union)
        rel = abs(actual - target) / target
        if best is None or rel < best[0]:
            best = (rel, union, blobs, params)
        if rel <= 0.02:
            break
        ratio = target / max(actual, 1.0)
        scale *= min(4.0, max(0.5, math.sqrt(ratio)))
    assert best is not None
    return best[1], best[2], best[3]


def _paint_healthy(
    spec: SceneSpec,
    rng: np.random.Generator,
    tumor: np.ndarray,
    tumor_params: list[tuple[float, float, float, float, float]],
) -> np.ndarray:
    """Healthy pixels: thin rims around tumor blobs, then small stray blobs."""
    h, w = spec.height, spec.width
    healthy = np.zeros((h, w), dtype=bool)
    target = spec.healthy_coverage * h * w
    if target <= 0:
        return healthy

    if spec.rim_thickness > 0:
        for cy, cx, a, b, angle in tumor_params:
            outer = _ellipse_mask(
                h, w, cy, cx, a + spec.rim_thickness, b + spec.rim_thickness, angle
            )
            healthy |= outer & ~tumor

    tries = 0
    while np.count_nonzero(healthy) < target and tries < 300:
        tries += 1
        frac = rng.uniform(0.002, 0.012)
        blob_area = frac * h * w
        aspect = rng.uniform(1.0, 2.0)
        b_ax = math.sqrt(blob_area / (math.pi * aspect))
        blob = _ellipse_mask(
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


def generate_scene_details(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray, dict]:
    """Like generate_scene but also returns per-blob masks for geometry checks."""
    spec.validate()
    h, w, m = spec.height, spec.width, spec.channels
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))

    tumor, blob_masks, blob_params = _place_tumor_blobs(spec, rng)
    healthy = _paint_healthy(spec, rng, tumor, blob_params)

    mask = np.zeros((h, w), dtype=np.uint8)
    mask[healthy] = TissueClass.HEALTHY
    mask[tumor] = TissueClass.TUMOR
    regions = {label: mask == label for label in TissueClass}

    # Masked writes go in place, one channel plane at a time under a 2-D
    # `where=` mask: a boolean gather plus scatter gives the same values at
    # several times the cost. The order and sizes of the RNG draws are part
    # of every scene's bytes.
    bg_cap = min(1.0, spec.background_intensity_max + 3.0 * spec.noise_sigma)
    data = rng.uniform(0.0, spec.background_intensity_max, size=(h, w, m))
    planes = np.moveaxis(data, -1, 0)  # (m, h, w) views into data
    for label in (TissueClass.HEALTHY, TissueClass.TUMOR):
        for plane, value in zip(planes, _class_profile(label, m)):
            np.copyto(plane, value, where=regions[label])
    if spec.noise_sigma > 0:
        data += rng.normal(0.0, spec.noise_sigma, size=(h, w, m))

    np.clip(data, 0.0, 1.0, out=data)
    # the 1e-6 margin keeps the bound intact after float32 rounding
    bg_bound = max(0.0, bg_cap - 1e-6)
    for plane in planes:
        np.minimum(plane, bg_bound, out=plane, where=regions[TissueClass.BACKGROUND])
    floor = min(1.0, 2.0 * spec.background_intensity_max + 1e-3)
    for label in (TissueClass.HEALTHY, TissueClass.TUMOR):
        sig = planes[int(np.argmax(_class_profile(label, m)))]
        np.maximum(sig, floor, out=sig, where=regions[label])

    details = {"tumor_blob_masks": blob_masks, "tumor_blob_params": blob_params}
    return data.astype(np.float32), mask, details


def generate_scene(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Generate one scene as (H, W, M) float32 pixels in [0, 1] and an (H, W)
    uint8 mask over TissueClass values; identical specs give bit-identical output."""
    data, labels, _ = generate_scene_details(spec)
    return data, labels


@dataclass
class ManifestEntry:
    image_id: str
    split: str
    spec: SceneSpec
    image_path: str | None = None
    mask_path: str | None = None


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def to_dict(self) -> dict:
        images = [{**vars(e), "spec": vars(e.spec).copy()} for e in self.entries]
        return {"format": "patchbias-dataset-manifest-v1", "images": images}

    @classmethod
    def from_dict(cls, doc: dict) -> "DatasetManifest":
        if doc.get("format") != "patchbias-dataset-manifest-v1":
            raise ValidationError(f"unknown manifest format {doc.get('format')!r}")
        entries = [ManifestEntry(**{**item, "spec": SceneSpec(**item["spec"])}) for item in doc["images"]]
        return cls(entries=entries)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        """Read a saved manifest; bad JSON or a missing or unknown field raises `ValidationError`."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:  # ValidationError is a ValueError
            raise ValidationError(f"dataset manifest {path} is malformed ({exc!r}); run generate again") from None


def split_counts(n_images: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder apportionment of images over (train, val, test)."""
    if len(fractions) != len(SPLITS):
        raise ValidationError(f"expected {len(SPLITS)} split fractions, got {len(fractions)}")
    if any(f < 0 for f in fractions):
        raise ValidationError(f"split fractions must be >= 0, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValidationError(f"split fractions must sum to 1, got {fractions}")
    quotas = [n_images * f for f in fractions]
    counts = [int(math.floor(q)) for q in quotas]
    residue = n_images - sum(counts)
    order = sorted(range(len(SPLITS)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:residue]:
        counts[i] += 1
    return tuple(counts)  # type: ignore[return-value]


def generate_corpus(
    specs: list[SceneSpec], split_fractions: tuple[float, float, float]
) -> DatasetManifest:
    """Assign each scene spec to a split; images land in splits in list order."""
    if not specs:
        raise ValidationError("spec list is empty")
    for spec in specs:
        spec.validate()
    ids = [f"img{s.seed}" for s in specs]
    if len(set(ids)) != len(ids):
        raise ValidationError("scene seeds must be unique within a corpus")
    counts = split_counts(len(specs), split_fractions)
    splits = [split for split, count in zip(SPLITS, counts) for _ in range(count)]
    return DatasetManifest(entries=[
        ManifestEntry(image_id=image_id, split=split, spec=spec)
        for image_id, split, spec in zip(ids, splits, specs)
    ])


def _render(entry: ManifestEntry, out: Path) -> ManifestEntry:
    """Render one scene, write its pixels and mask under `out`, and return its entry with both paths."""
    data, labels = generate_scene(entry.spec)
    image_rel = f"images/{entry.image_id}.pbt"
    mask_rel = f"masks/{entry.image_id}.pbt"
    write_tensor(out / image_rel, data)
    write_tensor(out / mask_rel, labels)
    return replace(entry, image_path=image_rel, mask_path=mask_rel)


def materialize(manifest: DatasetManifest, out_dir: str | Path) -> DatasetManifest:
    """Render every scene to PBTENSR1 files under `out_dir`, one job per scene, and save the manifest."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    entries = run_jobs([partial(_render, entry, out) for entry in manifest.entries])
    result = DatasetManifest(entries=entries)
    result.save(out / "manifest.json")
    return result


def load_scene(manifest_dir: str | Path, entry: ManifestEntry) -> tuple[np.ndarray, np.ndarray]:
    """Read one materialized (pixels, mask) pair back from disk."""
    if entry.image_path is None or entry.mask_path is None:
        raise ValidationError(f"manifest entry {entry.image_id} has no stored paths")
    root = Path(manifest_dir)
    missing = [str(root / p) for p in (entry.image_path, entry.mask_path) if not (root / p).exists()]
    if missing:
        raise ValidationError("missing dataset files: " + ", ".join(missing))
    return read_tensor(root / entry.image_path), read_tensor(root / entry.mask_path)
