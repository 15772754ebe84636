"""
The command line pipeline
=========================

Drive the five pipeline stages exactly as a shell user would:

    patchbias generate --config run.json
    patchbias patchify --config run.json
    patchbias analyze  --config run.json
    patchbias train    --config run.json
    patchbias report   --config run.json

then walk the artifact tree the run leaves behind.
"""

import json
import tempfile
from pathlib import Path

from patchbias import harness
from patchbias.cli import main

with tempfile.TemporaryDirectory(prefix="patchbias_demo_") as tmp:
    work = Path(tmp)
    out = work / "run"

    config = harness.default_config()
    config["dataset"].update(images=80, height=96, width=96, seed=1001)
    config["patch"].update(height=32, width=32)
    config["train"].update(epochs=3, trials=1, beta=0.5, seed=5)
    config["out_root"] = str(out)
    config_path = work / "run.json"
    config_path.write_text(json.dumps(config, indent=2))

    for command in ("generate", "patchify", "analyze", "train", "report"):
        print(f"\n$ patchbias {command} --config {config_path.name}")
        code = main([command, "--config", str(config_path)])
        assert code == 0, f"{command} exited with {code}"

    # overlay a trained model's test predictions onto the composition histograms
    preds = out / "train" / "erm_bca_tau0.1" / "trial0" / "test_predictions.csv"
    print(f"\n$ patchbias analyze --config {config_path.name} --predictions .../test_predictions.csv")
    assert main(["analyze", "--config", str(config_path), "--predictions", str(preds)]) == 0

    print("\nartifacts:")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            print(" ", path.relative_to(out))

    print("\nfinal table:")
    print((out / "report" / "final_table.csv").read_text())
