"""
From pixels to patch labels
===========================

Tile one scene into a patch grid, label each patch by tumor presence, and
look at the composition ratios that drive the spurious-correlation story.
"""

from patchbias.composition import GROUP_NAMES, assign_group, binarize_spurious, compute_ratios
from patchbias.patchgrid import PatchGridSpec, binary_label, partition
from patchbias.synthdata import SceneSpec, generate_scene

spec = SceneSpec(seed=11, height=128, width=128, channels=3,
                 tumor_blob_count=2, tumor_coverage=0.12, healthy_coverage=0.04,
                 background_intensity_max=0.03, noise_sigma=0.05, rim_thickness=2.0)
image, mask = generate_scene(spec)

grid = PatchGridSpec(patch_height=32, patch_width=32)
patches = partition(image, mask, grid)
print(f"{len(patches)} patches of 32x32 from a 128x128 scene\n")

# a patch is positive iff any pixel is tumor; r_tissue is the spurious cue
print("row col  label  r_tumor  r_tissue  r_tumor|tissue   group@0.1")
for p in patches:
    y = binary_label(p.mask)
    r = compute_ratios(p.mask)
    z = binarize_spurious(r.r_tissue, tau=0.1)
    rtt = "   undef" if r.r_tumor_tissue is None else f"{r.r_tumor_tissue:8.4f}"
    print(f"{p.grid_row:3d} {p.grid_col:3d}  {y:5d}  {r.r_tumor:7.4f}  {r.r_tissue:8.4f}  {rtt}"
          f"        y{y}_z{z} ({assign_group(y, z)})")

# tighter threshold, different grouping of the same patches
for tau in (0.1, 0.03):
    counts = [0] * len(GROUP_NAMES)
    for p in patches:
        y = binary_label(p.mask)
        z = binarize_spurious(compute_ratios(p.mask).r_tissue, tau)
        counts[assign_group(y, z)] += 1
    sizes = " ".join(f"{name}={count}" for name, count in zip(GROUP_NAMES, counts))
    print(f"\ntau={tau}: group sizes {sizes}")
