"""Tiling of image/mask pairs into fixed-size patches and per-patch labels.

A patch is labeled positive the moment a single pixel of the target class
appears in it.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ValidationError
from .synthdata import TissueClass

# a plain int compares faster than the enum member
_TUMOR = int(TissueClass.TUMOR)


@dataclass(frozen=True)
class PatchGridSpec:
    patch_height: int
    patch_width: int

    def validate(self) -> None:
        if self.patch_height < 1 or self.patch_width < 1:
            raise ValidationError(
                f"patch dims must be >= 1, got {self.patch_height}x{self.patch_width}"
            )


@dataclass
class Patch:
    pixels: np.ndarray  # (h, w, M) view into the source image
    mask: np.ndarray  # (h, w) view into the source mask
    grid_row: int
    grid_col: int


def partition(data: np.ndarray, labels: np.ndarray, spec: PatchGridSpec) -> list[Patch]:
    """Tile (H, W, M) pixels and their (H, W) mask into a top-left-aligned grid,
    row-major, partial edges dropped."""
    spec.validate()
    if data.shape[:2] != labels.shape:
        raise ValidationError(
            f"image {data.shape[:2]} and mask {labels.shape} disagree on size"
        )
    H, W = labels.shape
    h, w = spec.patch_height, spec.patch_width
    if h > H or w > W:
        raise ValidationError(f"patch {h}x{w} larger than image {H}x{W}")
    patches = []
    for gr in range(H // h):
        for gc in range(W // w):
            ys, xs = gr * h, gc * w
            patches.append(
                Patch(
                    pixels=data[ys : ys + h, xs : xs + w],
                    mask=labels[ys : ys + h, xs : xs + w],
                    grid_row=gr,
                    grid_col=gc,
                )
            )
    return patches


def binary_label(patch_mask: np.ndarray, target_class: int = _TUMOR) -> int:
    """1 iff at least one pixel of the target class is present."""
    return int(np.any(patch_mask == target_class))
