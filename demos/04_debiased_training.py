"""
ERM vs gradient extrapolation
=============================

Train the small classifier two ways on the same corpus and compare
worst-group accuracy. ERM follows the dataset's skew; the debiased update
extrapolates from a group-balanced batch away from the uniform one:

    g_ext = g_lb + beta * (g_lb - g_b)

Everything below runs in well under a minute.
"""

import tempfile
from pathlib import Path

from patchbias import harness
from patchbias.training import TrainConfig, run_experiment

config = harness.default_config()
config["dataset"].update(images=160, height=96, width=96, seed=1001)
config["patch"].update(height=32, width=32)
# beta=None tunes beta over the grid on validation
config["train"].update(epochs=14, trials=1, beta=None, seed=5, beta_grid=[0.0, 0.5, 1.0])
spec = harness.model_spec_from_config(config)

with tempfile.TemporaryDirectory(prefix="patchbias_demo_") as tmp:
    out = Path(tmp)
    harness.cmd_generate(config, out)
    harness.cmd_patchify(config, out)
    # assembly pools each scene into the model's input, as the train stage does
    data_by_tau, _ = harness.build_split_data(config, out, spec)

tau = 0.1
train, val, test = data_by_tau[tau]
print(f"\ntraining on {train.size} patches, validating on {val.size}, testing on {test.size}")

report = run_experiment(spec, {tau: (train, val, test)}, TrainConfig(**config["train"]))

print("\nrow        test WGA  test BCA   per-group accuracy")
for cell in report.cells:
    per_group_acc = cell.outcomes[0].test_eval.per_group_acc()
    per_group = "  ".join(f"g{g}={a:.2f}" for g, a in sorted(per_group_acc.items()))
    beta = f"  (beta={cell.beta})" if cell.method == "gerne" else ""
    print(f"{cell.row_label:<9}  {cell.wga_mean:8.4f}  {cell.bca_mean:8.4f}   {per_group}{beta}")

gerne = report.cell("gerne", "wga", tau)
erm = report.cell("erm", "wga", tau)
print(f"\nworst-group gain over ERM: {gerne.wga_mean - erm.wga_mean:+.4f}")
print("validation scores per beta:", {b: round(s, 4) for b, s in gerne.beta_scores.items()})
