"""Pipeline stages and their on-disk layout.

One JSON config drives everything. Stages write under a single output root:

    dataset/    images/, masks/, manifest.json, generate.json (skip marker)
    patches/    patch_index.jsonl
    analysis/   histogram CSVs, bias_tau*.json
    train/      <cell>/trial<k>/{epochs.csv, checkpoint.pbt, checkpoint.json,
                test_predictions.csv}, results.json
    report/     final_table.csv
    run_manifest.json

The output root resolves as: explicit argument, then the PATCHBIAS_OUT
environment variable, then config["out_root"]. The config hash covers every
section except out_root, so moving a run does not change its identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import time
from contextlib import ExitStack
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import bias_report, histogram, overlay_predictions, write_histogram_csv
from .atomicio import atomic_dir, atomic_path, write_atomic
from .composition import assign_group, binarize_spurious, compute_ratios, infer_tissue
from .errors import ValidationError, is_int, is_number
from .model import ClassifierSpec, pool, save_checkpoint
from .parallel import pool_size
from .patchgrid import PatchGridSpec, binary_label, partition
from .records import PatchRecord, read_patch_index, tau_key, write_patch_index
from .synthdata import (
    _MAX_BACKGROUND_CAP,
    SPLITS,
    DatasetManifest,
    SceneSpec,
    generate_corpus,
    load_scene,
    materialize,
    split_counts,
)
from .training import ROWS, RunReport, SplitData, TrainConfig, row_label, run_experiment

ENV_OUT_ROOT = "PATCHBIAS_OUT"
_HIST_FILES = (
    ("tumor", 1, "hist_r_tumor_y1.csv"),
    ("tumor_tissue", 1, "hist_r_tumor_tissue_y1.csv"),
    ("tissue", 0, "hist_r_tissue_y0.csv"),
)


def default_config() -> dict:
    """A complete config that exercises the whole pipeline at desk scale."""
    return {
        "out_root": "runs/default",
        "dataset": {
            "images": 360,
            "height": 216,
            "width": 216,
            "channels": 3,
            "seed": 20240801,
            "tumor_blob_count_range": [0, 6],
            "tumor_coverage_range": [0.05, 0.32],
            "healthy_coverage_range": [0.01, 0.05],
            "background_intensity_max": 0.03,
            "noise_sigma": 0.05,
            "rim_thickness": 2.0,
            "split_fractions": [0.7, 0.15, 0.15],
        },
        "patch": {
            "height": 40,
            "width": 40,
            "taus": [0.1, 0.03],
            "epsilon": 0.05,
        },
        "analysis": {
            "n_bins": 20,
            "split": "test",
        },
        "model": {
            "k1": 8,
            "k2": 16,
            "pool_target": 32,
        },
        "train": {
            "batch_size": 64,
            "epochs": 18,
            "lr": 0.05,
            "momentum": 0.9,
            "seed": 7,
            "trials": 3,
            "beta": None,
            "beta_grid": [-0.5, 0.0, 0.5, 1.0, 2.0],
        },
    }


def _check_range(section: str, key: str, v, lo_ok=None, hi_ok=None) -> None:
    name = f"{section}.{key}"
    if not (isinstance(v, list) and len(v) == 2 and all(is_number(x) for x in v)):
        raise ValidationError(f"config field {name} must be a [low, high] pair of finite numbers")
    if v[0] > v[1]:
        raise ValidationError(f"config field {name} must have low <= high, got {v}")
    if lo_ok is not None and v[0] < lo_ok:
        raise ValidationError(f"config field {name} values must be >= {lo_ok}")
    if hi_ok is not None and v[1] > hi_ok:
        raise ValidationError(f"config field {name} values must be <= {hi_ok}")


def validate_config(config: dict) -> None:
    """Structural validation with messages naming the offending field."""
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    known_sections = {"out_root", "dataset", "patch", "analysis", "model", "train"}
    for key in config:
        if key not in known_sections:
            raise ValidationError(f"unknown config field {key}")
    for key in known_sections:
        if key not in config:
            raise ValidationError(f"missing config field {key}")
    if not isinstance(config["out_root"], str) or not config["out_root"]:
        raise ValidationError("config field out_root must be a non-empty string")

    def check_section(name: str, fields: dict) -> dict:
        section = config[name]
        if not isinstance(section, dict):
            raise ValidationError(f"config field {name} must be an object")
        for key in section:
            if key not in fields:
                raise ValidationError(f"unknown config field {name}.{key}")
        for key in fields:
            if key not in section:
                raise ValidationError(f"missing config field {name}.{key}")
        return section

    d = check_section("dataset", {
        "images", "height", "width", "channels", "seed",
        "tumor_blob_count_range", "tumor_coverage_range", "healthy_coverage_range",
        "background_intensity_max", "noise_sigma", "rim_thickness", "split_fractions",
    })
    for key in ("images", "height", "width", "channels", "seed"):
        if not is_int(d[key]) or d[key] < (0 if key == "seed" else 1):
            raise ValidationError(f"config field dataset.{key} must be a positive integer")
    _check_range("dataset", "tumor_blob_count_range", d["tumor_blob_count_range"], lo_ok=0)
    if not all(is_int(x) for x in d["tumor_blob_count_range"]):
        raise ValidationError("config field dataset.tumor_blob_count_range must hold integers")
    _check_range("dataset", "tumor_coverage_range", d["tumor_coverage_range"], 0.0, 1.0)
    _check_range("dataset", "healthy_coverage_range", d["healthy_coverage_range"], 0.0, 1.0)
    for key in ("background_intensity_max", "noise_sigma", "rim_thickness"):
        if not is_number(d[key]) or d[key] < 0:
            raise ValidationError(f"config field dataset.{key} must be a non-negative finite number")
    if d["background_intensity_max"] > _MAX_BACKGROUND_CAP:
        raise ValidationError(
            f"config field dataset.background_intensity_max must be <= {_MAX_BACKGROUND_CAP}, "
            f"got {d['background_intensity_max']}"
        )
    if d["seed"] + d["images"] - 1 >= 2**64:
        raise ValidationError(
            "config field dataset.seed: scene seeds seed .. seed + images - 1 must stay below 2**64"
        )
    sf = d["split_fractions"]
    if not (isinstance(sf, list) and len(sf) == 3 and all(is_number(x) and x >= 0 for x in sf)):
        raise ValidationError("config field dataset.split_fractions must be three non-negative numbers")
    if abs(sum(sf) - 1.0) > 1e-9:
        raise ValidationError(f"config field dataset.split_fractions must sum to 1, got {sf}")

    p = check_section("patch", {"height", "width", "taus", "epsilon"})
    for key in ("height", "width"):
        if not is_int(p[key]) or p[key] < 1:
            raise ValidationError(f"config field patch.{key} must be a positive integer")
    taus = p["taus"]
    if not (isinstance(taus, list) and taus and all(is_number(t) and 0.0 <= t <= 1.0 for t in taus)):
        raise ValidationError("config field patch.taus must be a non-empty list of numbers in [0, 1]")
    if len({tau_key(t) for t in taus}) != len(taus):
        raise ValidationError("config field patch.taus must not repeat thresholds")
    if not is_number(p["epsilon"]) or not 0.0 < p["epsilon"] < 1.0:
        raise ValidationError("config field patch.epsilon must be a number in (0, 1)")

    a = check_section("analysis", {"n_bins", "split"})
    if not is_int(a["n_bins"]) or a["n_bins"] < 1:
        raise ValidationError("config field analysis.n_bins must be a positive integer")
    if a["split"] not in SPLITS:
        raise ValidationError(f"config field analysis.split must be one of {SPLITS}")

    m = check_section("model", {"k1", "k2", "pool_target"})
    for key in ("k1", "k2", "pool_target"):
        if not is_int(m[key]) or m[key] < 1:
            raise ValidationError(f"config field model.{key} must be a positive integer")

    TrainConfig(**check_section("train", {f.name for f in dataclasses.fields(TrainConfig)}))

    # combinations of valid fields that would otherwise fail only after the data stages
    for key in ("height", "width"):
        if p[key] > d[key]:
            raise ValidationError(
                f"config field patch.{key} ({p[key]}) must not exceed dataset.{key} ({d[key]})"
            )
    for split, count in zip(SPLITS, split_counts(d["images"], tuple(sf))):
        if count == 0:
            raise ValidationError(
                f"config field dataset.images: {d['images']} images at split_fractions {sf} "
                f"leave split {split!r} empty"
            )
    try:
        model_spec_from_config(config).validate()
    except ValidationError as exc:
        raise ValidationError(f"config fields patch.height/width and model.pool_target: {exc}") from None


def load_config(path: str | Path) -> dict:
    """Read a config file; each stage validates the config it is given."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    return config


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    """sha256 over the canonical config, out_root excluded; key order never matters."""
    core = {k: v for k, v in config.items() if k != "out_root"}
    return hashlib.sha256(_canonical(core).encode()).hexdigest()


def resolve_out_root(config: dict, override: str | Path | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get(ENV_OUT_ROOT)
    if env:
        return Path(env)
    return Path(config["out_root"])


def _stage_root(config: dict, out_root: str | Path | None) -> Path:
    """Validate the config, then resolve and create the stage's output root.

    This is the one validation of a stage, whether the CLI or a library
    caller runs it, and it comes before anything is written.
    """
    validate_config(config)
    root = resolve_out_root(config, out_root)
    root.mkdir(parents=True, exist_ok=True)
    return root


def _update_run_manifest(
    out_root: Path, config: dict, stage: str, artifacts: dict, seconds: float, workers: int = 1
) -> None:
    """Record a finished stage: when, how long, on how many processes, its peak memory, and what it wrote.

    `peak_rss_mb` is the stage process's `ru_maxrss`: the calling process only,
    not the helpers `run_jobs` forks, and, when one process runs several
    stages, the peak so far rather than this stage's own.
    """
    path = out_root / "run_manifest.json"
    doc = json.loads(path.read_text()) if path.exists() else {"stages": {}}
    doc["config_hash"] = config_hash(config)
    doc["version"] = __version__
    for rel in artifacts.values():
        if not (out_root / rel).exists():
            raise ValidationError(f"manifest would reference a missing artifact: {rel}")
    doc["stages"][stage] = {
        "completed_utc": datetime.now(timezone.utc).isoformat(),
        "seconds": round(seconds, 3),
        "workers": workers,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "artifacts": artifacts,
    }
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True))


def scene_specs_from_config(dataset_cfg: dict) -> list[SceneSpec]:
    """Sample one SceneSpec per image; pure function of the dataset section."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((dataset_cfg["seed"], 91))))
    lo_b, hi_b = dataset_cfg["tumor_blob_count_range"]
    specs = []
    for i in range(dataset_cfg["images"]):
        blobs = int(rng.integers(lo_b, hi_b + 1))
        tumor = float(rng.uniform(*dataset_cfg["tumor_coverage_range"]))
        healthy = float(rng.uniform(*dataset_cfg["healthy_coverage_range"]))
        if blobs == 0:
            tumor = 0.0
        healthy = min(healthy, 1.0 - tumor)
        specs.append(SceneSpec(
            seed=dataset_cfg["seed"] + i,
            height=dataset_cfg["height"],
            width=dataset_cfg["width"],
            channels=dataset_cfg["channels"],
            tumor_blob_count=blobs,
            tumor_coverage=tumor,
            healthy_coverage=healthy,
            background_intensity_max=dataset_cfg["background_intensity_max"],
            noise_sigma=dataset_cfg["noise_sigma"],
            rim_thickness=dataset_cfg["rim_thickness"],
        ))
    return specs


def _dataset_hash(config: dict) -> str:
    return hashlib.sha256(_canonical(config["dataset"]).encode()).hexdigest()


def _generated_manifest(config: dict, dataset_dir: Path) -> DatasetManifest:
    """The dataset manifest, once generate has finished for this config's dataset section.

    generate deletes its marker before it renders and writes it last, so
    without a matching marker the scenes may be partial or from another section.
    """
    manifest_path = dataset_dir / "manifest.json"
    if not manifest_path.exists():
        raise ValidationError(f"dataset manifest not found: {manifest_path}; run generate first")
    marker_path = dataset_dir / "generate.json"
    try:
        stamped = json.loads(marker_path.read_text())["dataset_hash"]
    except (OSError, ValueError, TypeError, KeyError):  # missing, or not a marker generate wrote
        stamped = None
    if stamped != _dataset_hash(config):
        raise ValidationError(
            f"the dataset under {dataset_dir} was not generated from this config's dataset section "
            f"({marker_path} is missing or names another); run generate first"
        )
    return DatasetManifest.load(manifest_path)


def cmd_generate(config: dict, out_root: str | Path | None) -> Path:
    """Materialize the corpus; a rerun with the same dataset section skips."""
    out_root = _stage_root(config, out_root)
    started = time.monotonic()
    dataset_dir = out_root / "dataset"
    try:
        missing = _missing_dataset_files(_generated_manifest(config, dataset_dir), dataset_dir)
    except ValidationError:  # not generated, interrupted, or from another dataset section
        missing = None
    if missing == []:
        print(f"dataset already generated under {dataset_dir}, skipping")
        return dataset_dir
    if missing:
        print(f"dataset under {dataset_dir} is missing {len(missing)} files, regenerating")
    marker_path = dataset_dir / "generate.json"
    # an interrupted run must not leave a marker that vouches for partial files
    marker_path.unlink(missing_ok=True)
    specs = scene_specs_from_config(config["dataset"])
    manifest = generate_corpus(specs, tuple(config["dataset"]["split_fractions"]))
    materialize(manifest, dataset_dir)
    write_atomic(marker_path, json.dumps(
        {"dataset_hash": _dataset_hash(config), "images": len(specs)}, indent=2, sort_keys=True
    ))
    _update_run_manifest(
        out_root, config, "generate",
        {"dataset_manifest": "dataset/manifest.json"},
        time.monotonic() - started, pool_size(len(specs)),
    )
    print(f"generated {len(specs)} images under {dataset_dir}")
    return dataset_dir


def _missing_dataset_files(manifest: DatasetManifest, dataset_dir: Path) -> list[str]:
    """"<image_id>: <path>" for every image or mask the manifest names that is not on disk."""
    return [
        f"{entry.image_id}: {rel}"
        for entry in manifest.entries
        for rel in (entry.image_path, entry.mask_path)
        if rel is None or not (dataset_dir / rel).exists()
    ]


def _iter_patch_records(config: dict, manifest: DatasetManifest, dataset_dir: Path):
    """Yield (record, patch) pairs across the corpus in manifest/grid order."""
    grid = PatchGridSpec(config["patch"]["height"], config["patch"]["width"])
    taus = config["patch"]["taus"]
    epsilon = config["patch"]["epsilon"]
    missing = _missing_dataset_files(manifest, dataset_dir)
    if missing:
        raise ValidationError("missing dataset files: " + "; ".join(missing))
    for entry in manifest.entries:
        image, mask = load_scene(dataset_dir, entry)
        for patch in partition(image, mask, grid):
            label = binary_label(patch.mask)
            ratios = compute_ratios(patch.mask)
            inferred = infer_tissue(patch.pixels, epsilon)
            z, group = {}, {}
            for tau in taus:
                zt = binarize_spurious(ratios.r_tissue, tau)
                z[tau_key(tau)] = zt
                group[tau_key(tau)] = assign_group(label, zt)
            record = PatchRecord(
                image_id=entry.image_id,
                grid_row=patch.grid_row,
                grid_col=patch.grid_col,
                split=entry.split,
                label=label,
                r_tumor=ratios.r_tumor,
                r_tumor_tissue=ratios.r_tumor_tissue,
                r_tissue=ratios.r_tissue,
                tissue_pixels=ratios.tissue_pixels,
                r_tissue_inferred=int(np.count_nonzero(inferred)) / inferred.size,
                z=z,
                group=group,
            )
            yield record, patch


def cmd_patchify(config: dict, out_root: str | Path | None) -> Path:
    """Patch the whole corpus into a JSON-lines index with per-tau group columns."""
    out_root = _stage_root(config, out_root)
    started = time.monotonic()
    dataset_dir = out_root / "dataset"
    manifest = _generated_manifest(config, dataset_dir)
    patches_dir = out_root / "patches"
    patches_dir.mkdir(parents=True, exist_ok=True)
    index_path = patches_dir / "patch_index.jsonl"
    n = write_patch_index(
        (record for record, _ in _iter_patch_records(config, manifest, dataset_dir)), index_path
    )
    _update_run_manifest(
        out_root, config, "patchify",
        {"patch_index": "patches/patch_index.jsonl"},
        time.monotonic() - started,
    )
    print(f"wrote {n} patch records to {index_path}")
    return index_path


def _read_predictions_csv(path: Path) -> dict[tuple[str, int, int], int]:
    import csv as _csv

    if not path.exists():
        raise ValidationError(f"predictions file not found: {path}")
    preds: dict[tuple[str, int, int], int] = {}
    with path.open() as fh:
        reader = _csv.DictReader(fh)
        needed = {"image_id", "grid_row", "grid_col", "pred"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ValidationError(f"predictions file {path} must have columns {sorted(needed)}")
        for row in reader:
            key = (row["image_id"], int(row["grid_row"]), int(row["grid_col"]))
            if key in preds:
                raise ValidationError(f"duplicate prediction for patch {key}")
            preds[key] = int(row["pred"])
    return preds


def cmd_analyze(config: dict, out_root: str | Path | None, predictions: str | Path | None = None) -> Path:
    """Composition histograms and bias reports on one split, optionally overlaying predictions."""
    out_root = _stage_root(config, out_root)
    started = time.monotonic()
    index_path = out_root / "patches" / "patch_index.jsonl"
    records = read_patch_index(index_path)
    split = config["analysis"]["split"]
    subset = [r for r in records if r.split == split]
    if not subset:
        raise ValidationError(f"no patch records in split {split!r}")
    n_bins = config["analysis"]["n_bins"]

    pred_arr = label_arr = None
    if predictions is not None:
        by_key = _read_predictions_csv(Path(predictions))
        pred_arr = np.empty(len(subset), dtype=np.int64)
        label_arr = np.empty(len(subset), dtype=np.int64)
        missing = []
        for i, rec in enumerate(subset):
            key = (rec.image_id, rec.grid_row, rec.grid_col)
            if key not in by_key:
                missing.append(key)
                continue
            pred_arr[i] = by_key[key]
            label_arr[i] = rec.label
        if missing:
            raise ValidationError(
                f"predictions cover {len(by_key)} patches but miss {len(missing)} "
                f"of split {split!r}, first: {missing[0]}"
            )

    analysis_dir = out_root / "analysis"
    analysis_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    # every file is written in full to a temporary before any replaces its
    # previous version, so a failed write leaves no mix of two runs
    with ExitStack() as staged:
        for kind, label, filename in _HIST_FILES:
            hist = histogram(subset, kind, label, n_bins)
            if pred_arr is not None:
                hist = overlay_predictions(hist, pred_arr, label_arr)
            write_histogram_csv(hist, staged.enter_context(atomic_path(analysis_dir / filename)))
            artifacts[f"hist_{kind}"] = f"analysis/{filename}"

        for tau in config["patch"]["taus"]:
            report = bias_report(subset, tau)
            name = f"bias_tau{tau_key(tau)}.json"
            tmp = staged.enter_context(atomic_path(analysis_dir / name))
            tmp.write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
            artifacts[f"bias_{tau_key(tau)}"] = f"analysis/{name}"
            print(f"tau={tau_key(tau)}: alignment={report['alignment']}, groups={report['group_counts']}")

    _update_run_manifest(out_root, config, "analyze", artifacts, time.monotonic() - started)
    return analysis_dir


def build_split_data(
    config: dict, out_root: Path
) -> tuple[dict[float, tuple[SplitData, SplitData, SplitData]], dict[str, list[PatchRecord]]]:
    """Assemble dense per-split arrays from the patch index plus pixel data.

    Each split's (count, h, w, C) float32 array is allocated once from the
    index's split counts and filled in place, so assembly holds no second
    copy of the pixels. Pixel arrays are shared across thresholds; only the
    group ids differ. The arrays stay raw and nothing here keeps a reference
    to them, so `cmd_train` can replace each with its pooled copy and free it.
    """
    dataset_dir = out_root / "dataset"
    manifest = _generated_manifest(config, dataset_dir)
    index_path = out_root / "patches" / "patch_index.jsonl"
    stored = read_patch_index(index_path)
    taus = config["patch"]["taus"]

    by_split: dict[str, list[PatchRecord]] = {s: [] for s in SPLITS}
    for record in stored:
        by_split[record.split].append(record)
    shape = (config["patch"]["height"], config["patch"]["width"], config["dataset"]["channels"])
    pixels = {s: np.empty((len(by_split[s]), *shape), dtype=np.float32) for s in SPLITS}
    filled = dict.fromkeys(SPLITS, 0)

    cursor = 0
    for record, patch in _iter_patch_records(config, manifest, dataset_dir):
        if cursor >= len(stored):
            raise ValidationError("patch index is shorter than the dataset grid; re-run patchify")
        on_disk = stored[cursor]
        cursor += 1
        if (on_disk.image_id, on_disk.grid_row, on_disk.grid_col, on_disk.label) != (
            record.image_id, record.grid_row, record.grid_col, record.label
        ):
            raise ValidationError(
                f"patch index row {cursor - 1} does not match the dataset; re-run patchify"
            )
        pixels[on_disk.split][filled[on_disk.split]] = patch.pixels
        filled[on_disk.split] += 1
    if cursor != len(stored):
        raise ValidationError("patch index is longer than the dataset grid; re-run patchify")

    arrays = {}
    for s in SPLITS:
        if not by_split[s]:
            raise ValidationError(f"split {s!r} has no patches; enlarge the dataset")
        arrays[s] = (
            pixels[s],
            np.array([r.label for r in by_split[s]], dtype=np.int64),
            {t: np.array([r.group_at(t) for r in by_split[s]], dtype=np.int64) for t in taus},
        )
    data_by_tau = {
        t: tuple(SplitData(x=arrays[s][0], y=arrays[s][1], groups=arrays[s][2][t]) for s in SPLITS)
        for t in taus
    }
    return data_by_tau, by_split


def model_spec_from_config(config: dict) -> ClassifierSpec:
    return ClassifierSpec(
        input_height=config["patch"]["height"],
        input_width=config["patch"]["width"],
        channels=config["dataset"]["channels"],
        k1=config["model"]["k1"],
        k2=config["model"]["k2"],
        pool_target=config["model"]["pool_target"],
        seed=config["train"]["seed"],
    )


def cell_dir_name(method: str, eval_metric: str, tau: float) -> str:
    return f"{method}_{eval_metric}_tau{tau_key(tau)}"


def cmd_train(config: dict, out_root: str | Path | None) -> RunReport:
    """Run the full (method, selection metric) x threshold grid and persist artifacts."""
    out_root = _stage_root(config, out_root)
    started = time.monotonic()
    data_by_tau, by_split = build_split_data(config, out_root)
    test_records = by_split["test"]
    model_spec = model_spec_from_config(config)
    # training reads only the pooled input, so each shared raw array is
    # replaced by its pooled copy and freed; val and test go first, so that
    # only the raw train array is alive when the largest copy is made
    shared = next(iter(data_by_tau.values()))
    for i in (1, 2, 0):
        x = pool(model_spec, shared[i].x)
        for splits in data_by_tau.values():
            splits[i].x = x
    report = run_experiment(model_spec, data_by_tau, TrainConfig(**config["train"]))

    artifacts = {}
    # the whole tree is built beside train/ and swapped in at the end, so a
    # failed write leaves the previous run's files and results.json as they were
    with atomic_dir(out_root / "train") as staged:
        for cell in report.cells:
            name = cell_dir_name(cell.method, cell.eval_metric, cell.tau)
            for k, outcome in enumerate(cell.outcomes):
                tdir = staged / name / f"trial{k}"
                tdir.mkdir(parents=True)
                with open(tdir / "epochs.csv", "w", encoding="utf-8") as fh:
                    fh.write("epoch,train_loss,val_wga,val_bca\n")
                    for row in outcome.log:
                        fh.write(f"{row.epoch},{row.train_loss:.6f},{row.val_wga:.6f},{row.val_bca:.6f}\n")
                save_checkpoint(tdir / "checkpoint.pbt", model_spec, outcome.checkpoint.params)
                with open(tdir / "test_predictions.csv", "w", encoding="utf-8") as fh:
                    fh.write("image_id,grid_row,grid_col,label,pred\n")
                    for rec, pred in zip(test_records, outcome.test_preds):
                        fh.write(f"{rec.image_id},{rec.grid_row},{rec.grid_col},{rec.label},{int(pred)}\n")
            artifacts[name] = f"train/{name}"

        results = {
            "config_hash": config_hash(config),
            "taus": config["patch"]["taus"],
            "cells": [cell.to_dict() for cell in report.cells],
        }
        (staged / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")
    artifacts["results"] = "train/results.json"
    _update_run_manifest(out_root, config, "train", artifacts, time.monotonic() - started, report.workers)
    for cell in report.cells:
        print(
            f"{cell.row_label} tau={tau_key(cell.tau)}: "
            f"wga={cell.wga_mean:.4f}±{cell.wga_std:.4f} bca={cell.bca_mean:.4f}±{cell.bca_std:.4f}"
            + (f" beta={cell.beta}" if cell.method == "gerne" else "")
        )
    return report


def cmd_report(config: dict, out_root: str | Path | None) -> Path:
    """Assemble the final results table from the train stage output."""
    out_root = _stage_root(config, out_root)
    started = time.monotonic()
    results_path = out_root / "train" / "results.json"
    if not results_path.exists():
        raise ValidationError(f"train results not found: {results_path}; run train first")
    results = json.loads(results_path.read_text())
    taus = results["taus"]
    by_key = {(c["row"], tau_key(c["tau"])): c for c in results["cells"]}

    report_dir = out_root / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    table_path = report_dir / "final_table.csv"
    header = ["row"]
    for t in taus:
        header += [f"wga_tau={tau_key(t)}", f"bca_tau={tau_key(t)}"]
    lines = [",".join(header)]
    for method, metric in ROWS:
        label = row_label(method, metric)
        cells = [label]
        for t in taus:
            cell = by_key.get((label, tau_key(t)))
            if cell is None:
                raise ValidationError(f"results are missing cell {label} at tau={tau_key(t)}")
            cells.append(f"{cell['wga_mean']:.4f}±{cell['wga_std']:.4f}")
            cells.append(f"{cell['bca_mean']:.4f}±{cell['bca_std']:.4f}")
        lines.append(",".join(cells))
    write_atomic(table_path, "\n".join(lines) + "\n")
    _update_run_manifest(
        out_root, config, "report", {"final_table": "report/final_table.csv"},
        time.monotonic() - started,
    )
    print(f"wrote {table_path}")
    return table_path


def run_pipeline(config: dict, out_root: str | Path | None) -> Path:
    """generate -> patchify -> analyze -> train -> report, returning the table path."""
    cmd_generate(config, out_root)
    cmd_patchify(config, out_root)
    cmd_analyze(config, out_root)
    cmd_train(config, out_root)
    return cmd_report(config, out_root)
