"""
Synthetic tissue scenes
=======================

Render a handful of seeded scenes, check how well the requested tumor
coverage is hit, and round-trip one image through a `.npy` file that plain
numpy reads too.
"""

import tempfile
from pathlib import Path

import numpy as np

from patchbias.synthdata import SceneSpec, TissueClass, generate_scene
from patchbias.tensorio import read_tensor, write_tensor

# each spec is a full recipe: same seed, same scene, bit for bit
specs = [
    SceneSpec(seed=s, height=128, width=128, channels=3,
              tumor_blob_count=3, tumor_coverage=0.15, healthy_coverage=0.05,
              background_intensity_max=0.03, noise_sigma=0.05, rim_thickness=2.0)
    for s in (1, 2, 3)
]

print("seed  tumor_px  healthy_px  coverage (target 0.15)")
for spec in specs:
    image, mask = generate_scene(spec)
    tumor = int((mask == TissueClass.TUMOR).sum())
    healthy = int((mask == TissueClass.HEALTHY).sum())
    print(f"{spec.seed:4d}  {tumor:8d}  {healthy:10d}  {tumor / mask.size:.4f}")

image, mask = generate_scene(specs[0])
again, _ = generate_scene(specs[0])
assert image.tobytes() == again.tobytes()
print("regeneration is bit-identical")

with tempfile.TemporaryDirectory(prefix="patchbias_demo_") as tmp:
    out = Path(tmp) / "scene.npy"
    write_tensor(out, image)
    back, plain = read_tensor(out), np.load(out, allow_pickle=False)
assert back.dtype == plain.dtype == image.dtype
assert back.tobytes() == plain.tobytes() == image.tobytes()
print(f"{out.name} round trip is bit-identical, through read_tensor and through np.load")
