"""The benchmark's workloads: inputs from a seed, one timed iteration, an output digest.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports patchbias from there, so the benchmark always measures the sources
next to it and fails to import when they are absent.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "patchbias" / "__init__.py").is_file():
    raise ImportError(f"patchbias sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import patchbias  # noqa: E402
from patchbias import cli, harness, training  # noqa: E402

if Path(patchbias.__file__).resolve().parent != SRC / "patchbias":
    raise ImportError(f"imported patchbias from {patchbias.__file__}, not from {SRC}")

PIPELINE = ("generate", "patchify", "analyze", "train", "report")
TRAJECTORY_BETA = 1.0
TRAJECTORY_TAU = 0.1


def seeded_config(seed: int) -> dict:
    """default_config() with the dataset and train seeds derived from the workload seed."""
    config = harness.default_config()
    # 1000 apart so the 360 scene seeds of two workload seeds never overlap
    config["dataset"]["seed"] += 1000 * seed
    config["train"]["seed"] += seed
    return config


def corpus_size(config: dict) -> tuple[int, int]:
    """(images, patches) of the corpus a config describes."""
    d, p = config["dataset"], config["patch"]
    per_image = (d["height"] // p["height"]) * (d["width"] // p["width"])
    return d["images"], d["images"] * per_image


def _hash_files(h, root: Path, rels) -> None:
    for rel in rels:
        h.update(rel.encode())
        h.update((root / rel).read_bytes())


# --- grid: the whole CLI pipeline ------------------------------------------

def grid_config(seed: int, tiny: bool) -> dict:
    config = seeded_config(seed)
    # 80 images with 40/30/30 splits keep every group of both thresholds
    # populated in validation while training stays short. One epoch keeps an
    # iteration near 7 s, so a run holds several and reports their median.
    config["dataset"]["images"] = 40 if tiny else 80
    config["dataset"]["split_fractions"] = [0.4, 0.3, 0.3]
    config["train"]["epochs"] = 1
    config["train"]["trials"] = 2
    return config


def grid_prepare(config: dict, scratch: Path) -> Path:
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / "config.json"
    path.write_text(json.dumps(config))
    return path


def grid_run(config: dict, config_path: Path, out: Path, tracer) -> None:
    for stage in PIPELINE:
        with tracer.span(f"cli.{stage}"):
            code = cli.main([stage, "--config", str(config_path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"patchbias {stage} exited with {code}")


def grid_digest(result: None, out: Path) -> str:
    h = hashlib.sha256()
    _hash_files(h, out, ("train/results.json", "report/final_table.csv"))
    return h.hexdigest()


# --- trajectory: one GERNE trajectory on prepared splits ----------------------

def trajectory_config(seed: int, tiny: bool) -> dict:
    config = seeded_config(seed)
    config["patch"]["taus"] = [TRAJECTORY_TAU]
    # two epochs (198 steps on the default corpus) keep selection a real
    # choice and an iteration near 4 s, so a run holds several
    config["train"]["epochs"] = 1 if tiny else 2
    if tiny:
        config["dataset"]["images"] = 40
    return config


def trajectory_prepare(config: dict, scratch: Path):
    harness.cmd_generate(config, scratch)
    harness.cmd_patchify(config, scratch)
    data_by_tau, _ = harness.build_split_data(config, scratch)
    shutil.rmtree(scratch)
    return harness.model_spec_from_config(config), data_by_tau[TRAJECTORY_TAU]


def trajectory_run(config: dict, state, out: Path, tracer):
    spec, (train, val, test) = state
    t = config["train"]
    history = training.train_history(
        spec, training.METHOD_GERNE, train,
        seed=t["seed"], epochs=t["epochs"], batch_size=t["batch_size"],
        lr=t["lr"], momentum=t["momentum"], beta=TRAJECTORY_BETA,
    )
    outcome = training.evaluate_outcome(history, val, test, "wga")
    return history, outcome


def trajectory_digest(result, out: Path) -> str:
    history, outcome = result
    h = hashlib.sha256()
    for values in history.snapshots:
        h.update(values.tobytes())
    h.update(outcome.test_preds.tobytes())
    h.update(str(outcome.checkpoint.epoch).encode())
    return h.hexdigest()


# --- corpus: the data stages, no training -----------------------------------

def corpus_config(seed: int, tiny: bool) -> dict:
    config = seeded_config(seed)
    # half the default corpus keeps an iteration near 3.5 s, so a run holds
    # several; the work per image is unchanged
    config["dataset"]["images"] = 12 if tiny else 180
    return config


def corpus_prepare(config: dict, scratch: Path) -> None:
    return None


def corpus_run(config: dict, state, out: Path, tracer):
    harness.cmd_generate(config, out)
    harness.cmd_patchify(config, out)
    harness.cmd_analyze(config, out)
    data_by_tau, _ = harness.build_split_data(config, out)
    return data_by_tau


def corpus_digest(data_by_tau, out: Path) -> str:
    h = hashlib.sha256()
    analysis = sorted(p.name for p in (out / "analysis").iterdir())
    _hash_files(h, out, ["patches/patch_index.jsonl"] + [f"analysis/{name}" for name in analysis])
    first = next(iter(data_by_tau.values()))
    for split in first:  # pixels and labels are shared across thresholds
        h.update(split.x.tobytes())
        h.update(split.y.tobytes())
    for tau, splits in data_by_tau.items():
        h.update(repr(tau).encode())
        for split in splits:
            h.update(split.groups.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    configure: Callable[[int, bool], dict]  # (seed, tiny) -> config
    prepare: Callable[[dict, Path], Any]  # untimed inputs, built in a scratch dir
    run: Callable[[dict, Any, Path, Any], Any]  # one timed iteration into a fresh out root
    digest: Callable[[Any, Path], str]
    top_level: tuple[str, ...]  # span names that should cover an iteration
    # bindings (see spans.BINDINGS) a traced iteration must call at least once
    required: tuple[str, ...]


_DATA_BINDINGS = (
    "harness.cmd_generate", "harness.cmd_patchify", "harness.cmd_analyze", "harness.build_split_data",
    "harness.materialize", "harness.load_scene", "harness.partition", "harness.compute_ratios",
    "harness.infer_tissue", "harness.write_patch_index", "harness.read_patch_index",
    "harness.histogram", "harness.bias_report",
    "synthdata.generate_scene", "synthdata.read_tensor", "synthdata.write_tensor",
)
_GERNE_BINDINGS = (
    "training.train_history", "training.evaluate_outcome", "training.select_checkpoint",
    "training.gerne_step", "training.loss_and_grad", "training.predict", "training.evaluate",
    "training.draw_biased", "training.draw_less_biased",
)

WORKLOADS = {
    "grid": Workload(
        "grid", grid_config, grid_prepare, grid_run, grid_digest,
        top_level=tuple(f"cli.{stage}" for stage in PIPELINE),
        required=_DATA_BINDINGS + _GERNE_BINDINGS + (
            "harness.cmd_train", "harness.cmd_report", "harness.run_experiment",
            "model.write_tensor", "training.erm_step", "training.draw_erm",
        ),
    ),
    "trajectory": Workload(
        "trajectory", trajectory_config, trajectory_prepare, trajectory_run, trajectory_digest,
        top_level=("training.trajectory", "training.evaluate_outcome"),
        required=_GERNE_BINDINGS,
    ),
    "corpus": Workload(
        "corpus", corpus_config, corpus_prepare, corpus_run, corpus_digest,
        top_level=("harness.generate", "harness.patchify", "harness.analyze", "harness.split_assembly"),
        required=_DATA_BINDINGS,
    ),
}
