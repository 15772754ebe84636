"""
Measuring the shortcut
======================

Build a small corpus, then quantify how strongly tissue size predicts the
tumor label: conditional ratio histograms plus the alignment rate between
the binarized tissue share and the label.
"""

import tempfile
from pathlib import Path

from patchbias.analysis import bias_report, histogram, write_histogram_csv
from patchbias.composition import compute_ratios, infer_tissue
from patchbias.patchgrid import PatchGridSpec, binary_label, partition
from patchbias.records import PatchRecord, tau_key
from patchbias.synthdata import SceneSpec, generate_scene

records = []
grid = PatchGridSpec(32, 32)
for seed in range(40):
    blobs = seed % 4  # includes tumor-free scenes
    spec = SceneSpec(seed=500 + seed, height=96, width=96, channels=3,
                     tumor_blob_count=blobs, tumor_coverage=0.18 if blobs else 0.0,
                     healthy_coverage=0.03, background_intensity_max=0.03,
                     noise_sigma=0.05, rim_thickness=2.0)
    image, mask = generate_scene(spec)
    for p in partition(image, mask, grid):
        y = binary_label(p.mask)
        r = compute_ratios(p.mask)
        records.append(PatchRecord(
            image_id=f"img{seed:03d}", grid_row=p.grid_row, grid_col=p.grid_col,
            split="train", label=y, r_tumor=r.r_tumor, r_tumor_tissue=r.r_tumor_tissue,
            r_tissue=r.r_tissue, tissue_pixels=r.tissue_pixels,
        ))

print(f"{len(records)} patch records")
for tau in (0.1, 0.03):
    rep = bias_report(records, tau)
    print(f"tau={tau_key(tau)}: alignment={rep['alignment']} groups={rep['group_counts']}")

# positive patches skew toward small tumor shares: the histogram shows where
# a lazy classifier will fail
hist = histogram(records, "tumor", condition_label=1, n_bins=10)
print("\nr_tumor distribution over positive patches")
for i in range(hist.n_bins):
    bar = "#" * int(50 * hist.mass[i])
    print(f"[{hist.bin_edges[i]:.2f}, {hist.bin_edges[i + 1]:.2f})  {hist.counts[i]:4d}  {bar}")
print(f"excluded (undefined ratio): {hist.n_excluded}")

with tempfile.TemporaryDirectory(prefix="patchbias_demo_") as out_dir:
    for kind, label in (("tumor", 1), ("tissue", 0)):
        path = Path(out_dir) / f"hist_{kind}.csv"
        write_histogram_csv(histogram(records, kind, label, n_bins=10), path)
        print("wrote", path)

# tissue share can also be recovered from pixels alone when labels are absent
image, mask = generate_scene(SceneSpec(seed=501, height=96, width=96, channels=3,
                                       tumor_blob_count=1, tumor_coverage=0.18,
                                       healthy_coverage=0.03, background_intensity_max=0.03,
                                       noise_sigma=0.0, rim_thickness=2.0))
patch = partition(image, mask, grid)[4]
inferred = infer_tissue(patch.pixels, epsilon=0.05)
assert float(inferred.mean()) == compute_ratios(patch.mask).r_tissue
print("\nnoise-free intensity inference matches the mask")
