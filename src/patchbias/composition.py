"""Patch composition ratios, tissue inference, and group assignment.

Three ratios describe what a patch is made of: tumor fraction of the whole
patch, tumor fraction of the tissue, and tissue fraction of the whole
patch. Binarizing the tissue fraction at a threshold yields the spurious
attribute z; (label, z) pairs index the four evaluation groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .synthdata import TissueClass

DEFAULT_TISSUE_EPSILON = 0.05

GROUP_NAMES = ("y0_z0", "y0_z1", "y1_z0", "y1_z1")

# plain ints: an enum member lookup costs more than the count it feeds
_TUMOR = int(TissueClass.TUMOR)
_HEALTHY = int(TissueClass.HEALTHY)


@dataclass(frozen=True)
class PatchRatios:
    r_tumor: float
    r_tumor_tissue: float | None  # undefined when the patch has no tissue
    r_tissue: float
    tissue_pixels: int


def compute_ratios(patch_mask: np.ndarray) -> PatchRatios:
    """Exact pixel-count ratios; one division per ratio at the end."""
    total = patch_mask.size
    if total == 0:
        raise ValidationError("patch mask is empty")
    tumor = int(np.count_nonzero(patch_mask == _TUMOR))
    healthy = int(np.count_nonzero(patch_mask == _HEALTHY))
    tissue = tumor + healthy
    return PatchRatios(
        r_tumor=tumor / total,
        r_tumor_tissue=(tumor / tissue) if tissue > 0 else None,
        r_tissue=tissue / total,
        tissue_pixels=tissue,
    )


def infer_tissue(patch_pixels: np.ndarray, epsilon: float = DEFAULT_TISSUE_EPSILON) -> np.ndarray:
    """Tissue wherever any channel rises above `epsilon` (background is near-black).

    The channel maximum is a pairwise `np.maximum` over the channel planes:
    on a 3-wide last axis that is an order of magnitude cheaper than
    `max(axis=-1)` and gives the same mask (a NaN channel still yields False).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValidationError(f"epsilon must be in (0, 1), got {epsilon}")
    if patch_pixels.ndim != 3:
        raise ValidationError(f"expected (h, w, channels) pixels, got shape {patch_pixels.shape}")
    if patch_pixels.shape[-1] == 0:
        raise ValidationError(f"expected at least one channel, got shape {patch_pixels.shape}")
    peak = patch_pixels[..., 0]
    for c in range(1, patch_pixels.shape[-1]):
        peak = np.maximum(peak, patch_pixels[..., c])
    return peak > epsilon


def binarize_spurious(r_tissue: float, tau: float) -> int:
    """z = 1 ("large tissue") iff r_tissue >= tau."""
    if not (0.0 <= tau <= 1.0):
        raise ValidationError(f"tau must be in [0, 1], got {tau}")
    if not (0.0 <= r_tissue <= 1.0):
        raise ValidationError(f"r_tissue must be in [0, 1], got {r_tissue}")
    return 1 if r_tissue >= tau else 0


def assign_group(y: int, z: int) -> int:
    """Bijective (y, z) -> 2y + z group id."""
    if y not in (0, 1) or z not in (0, 1):
        raise ValidationError(f"y and z must be binary, got y={y}, z={z}")
    return 2 * y + z
