"""Pipeline stages, their config and their on-disk layout.

One JSON config drives everything. `CONFIG_SCHEMA` states every field and
what a valid value is, and `validate_config` checks a config against it
before a stage writes anything. Stages write under a single output root:

    dataset/    images/<id>.npy, masks/<id>.npy
    patches/    patch_index.jsonl
    analysis/   histogram CSVs, bias_tau*.json
    train/      <cell>/trial<k>/{epochs.csv, checkpoint.npy, checkpoint.json,
                test_predictions.csv}, results.json
    report/     final_table.csv
    run_manifest.json

The output root resolves as: explicit argument, then the PATCHBIAS_OUT
environment variable, then config["out_root"]. The config hash covers every
section except out_root, so moving a run does not change its identity.

Each stage owns exactly one of the directories above, and `STAGES` names
it, the config sections its output is made from and the stages it reads. Every
stage runs in one frame, `_stage`: it builds the new contents beside its
directory and swaps them in whole, so a failure before the swap leaves the
previous directory and its run-manifest entry as they were. A stage's
run_manifest.json entry is the one record of where its output came from: its
`inputs_hash` covers the stage's sections. A stage drops its entry just before
the swap and writes it after; the next stage reads that output only under an
entry that matches its own config. Without run_manifest.json every stage must
run again.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import bias_report, histogram, write_histogram_csv
from .atomicio import atomic_dir, write_atomic
from .composition import assign_group, binarize_spurious, compute_ratios, infer_tissue
from .errors import ValidationError, is_int, is_number
from .model import ClassifierSpec, pool, save_checkpoint
from .parallel import pool_size
from .patchgrid import PatchGridSpec, binary_label, partition
from .records import PatchRecord, read_patch_index, tau_key, write_patch_index
from .synthdata import (
    _MAX_BACKGROUND_CAP,
    SPLITS,
    ManifestEntry,
    SceneSpec,
    generate_corpus,
    load_scene,
    materialize,
    scene_paths,
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


def _non_negative(v) -> bool:
    return is_number(v) and v >= 0


def _fraction(v) -> bool:
    return is_number(v) and 0.0 <= v <= 1.0


def _pair(ok):
    """A [low, high] list with `ok` true of both and low <= high."""
    return lambda v: isinstance(v, list) and len(v) == 2 and all(map(ok, v)) and v[0] <= v[1]


_POSITIVE_INT = (lambda v: is_int(v) and v >= 1, "a positive integer")
_SEED = (lambda v: is_int(v) and v >= 0, "a non-negative integer")
_NON_NEGATIVE = (_non_negative, "a non-negative finite number")
_FRACTION_PAIR = (_pair(_fraction), "a [low, high] pair of numbers in [0, 1] with low <= high")

# Every config field: section -> key -> (check, what a valid value is). A
# number must be finite (`errors.is_number`), since json reads NaN and
# Infinity. The README's config reference has one row per field here.
CONFIG_SCHEMA = {
    "out_root": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "dataset": {
        "images": _POSITIVE_INT,
        "height": _POSITIVE_INT,
        "width": _POSITIVE_INT,
        "channels": _POSITIVE_INT,
        "seed": _SEED,
        "tumor_blob_count_range": (_pair(_SEED[0]), "a [low, high] pair of integers >= 0 with low <= high"),
        "tumor_coverage_range": _FRACTION_PAIR,
        "healthy_coverage_range": _FRACTION_PAIR,
        "background_intensity_max": (
            lambda v: _non_negative(v) and v <= _MAX_BACKGROUND_CAP,
            f"<= {_MAX_BACKGROUND_CAP} and non-negative",
        ),
        "noise_sigma": _NON_NEGATIVE,
        "rim_thickness": _NON_NEGATIVE,
        "split_fractions": (
            lambda v: isinstance(v, list) and len(v) == 3 and all(map(_non_negative, v))
            and abs(sum(v) - 1.0) <= 1e-9,
            "three non-negative numbers that sum to 1",
        ),
    },
    "patch": {
        "height": _POSITIVE_INT,
        "width": _POSITIVE_INT,
        "taus": (
            lambda v: isinstance(v, list) and len(v) > 0 and all(map(_fraction, v))
            and len({tau_key(t) for t in v}) == len(v),
            "a non-empty list of numbers in [0, 1] that do not repeat",
        ),
        "epsilon": (lambda v: is_number(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
    },
    "analysis": {"n_bins": _POSITIVE_INT, "split": (lambda v: v in SPLITS, "one of " + ", ".join(SPLITS))},
    "model": {"k1": _POSITIVE_INT, "k2": _POSITIVE_INT, "pool_target": _POSITIVE_INT},
    "train": {
        "batch_size": _POSITIVE_INT,
        "epochs": _POSITIVE_INT,
        "lr": (lambda v: is_number(v) and v > 0, "a positive finite number"),
        "momentum": (lambda v: is_number(v) and 0.0 <= v < 1.0, "a number in [0, 1)"),
        "seed": _SEED,
        "trials": _POSITIVE_INT,
        "beta": (lambda v: v is None or is_number(v), "a finite number or null"),
        "beta_grid": (
            lambda v: isinstance(v, list) and len(v) > 0 and all(map(is_number, v)),
            "a non-empty list of finite numbers",
        ),
    },
}


def _check_fields(obj: dict, schema: dict, prefix: str = "") -> None:
    """Reject unknown, missing and invalid fields, naming each as section.key."""
    for key in obj:
        if key not in schema:
            raise ValidationError(f"unknown config field {prefix}{key}")
    for key, rule in schema.items():
        name = prefix + key
        if key not in obj:
            raise ValidationError(f"missing config field {name}")
        value = obj[key]
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                raise ValidationError(f"config field {name} must be an object")
            _check_fields(value, rule, name + ".")
        elif not rule[0](value):
            raise ValidationError(f"config field {name} must be {rule[1]}, got {value!r}")


def validate_config(config: dict) -> None:
    """Check every field against CONFIG_SCHEMA, then the combinations of fields.

    The combinations would otherwise fail only after the data stages. Each
    message names the offending field.
    """
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    _check_fields(config, CONFIG_SCHEMA)
    d, p = config["dataset"], config["patch"]
    if d["seed"] + d["images"] - 1 >= 2**64:
        raise ValidationError(
            "config field dataset.seed: scene seeds seed .. seed + images - 1 must stay below 2**64"
        )
    for key in ("height", "width"):
        if p[key] > d[key]:
            raise ValidationError(
                f"config field patch.{key} ({p[key]}) must not exceed dataset.{key} ({d[key]})"
            )
    sf = d["split_fractions"]
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


# stage -> (the directory it owns, the config sections its output is made
# from, the stages whose output it reads). Report reads only train's output,
# so it has train's sections.
STAGES = {
    "generate": ("dataset", ("dataset",), ()),
    "patchify": ("patches", ("dataset", "patch"), ("generate",)),
    "analyze": ("analysis", ("dataset", "patch", "analysis"), ("patchify",)),
    "train": ("train", ("dataset", "patch", "model", "train"), ("generate", "patchify")),
    "report": ("report", ("dataset", "patch", "model", "train"), ("train",)),
}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def config_hash(config: dict) -> str:
    """sha256 over the canonical config, out_root excluded; key order never matters."""
    return _sha256({k: v for k, v in config.items() if k != "out_root"})


def _inputs_hash(config: dict, stage: str) -> str:
    return _sha256([config[section] for section in STAGES[stage][1]])


def resolve_out_root(config: dict, override: str | Path | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get(ENV_OUT_ROOT)
    if env:
        return Path(env)
    return Path(config["out_root"])


def _read_run_manifest(out_root: Path) -> dict:
    """The run manifest so far; one that is not a manifest this package wrote raises `ValidationError`."""
    path = out_root / "run_manifest.json"
    if not path.exists():
        return {"stages": {}}
    try:
        doc = json.loads(path.read_text())
    except ValueError:
        doc = None
    if not (isinstance(doc, dict) and isinstance(doc.get("stages"), dict)):
        raise ValidationError(f"run manifest {path} is malformed; repair or delete it")
    return doc


def _require_stages(out_root: Path, config: dict, names) -> None:
    """Raise unless each named stage's run-manifest entry was made from this config's sections."""
    entries = _read_run_manifest(out_root)["stages"]
    for name in names:
        entry = entries.get(name)
        if not (isinstance(entry, dict) and entry.get("inputs_hash") == _inputs_hash(config, name)):
            directory, sections, _ = STAGES[name]
            raise ValidationError(
                f"{out_root / directory} was not made from this config's {', '.join(sections)} "
                f"section{'s' if len(sections) > 1 else ''} (run_manifest.json has no matching {name} "
                f"entry); run {name} first"
            )


class _Frame:
    """What a stage's work sees of its frame, and what it hands back for the run-manifest entry."""

    def __init__(self, root: Path, staged: Path) -> None:
        self.root = root  # the resolved output root
        self.dir = staged  # where the stage builds its directory
        self.artifacts: dict[str, str] = {}
        self.workers = 1
        self.skipped = False  # set, then return, when the previous output stands


class _Skip(Exception):
    """Abandons a skipped stage's staged directory without a swap."""


@contextmanager
def _stage(config: dict, out_root: str | Path | None, name: str):
    """Run stage `name` in its frame, yielding a `_Frame` whose `dir` the stage fills.

    The frame validates the config and reads the run manifest before anything
    is written, whether the CLI or a library caller runs the stage, and
    refuses unless each stage it reads from has an entry made from this
    config. `atomic_dir` deletes stale staging siblings and gives the
    directory to fill. When the block exits, the stage's entry is dropped just
    before the swap and written after it, so a failure before the swap leaves
    the previous directory and its entry as they were. A stage that sets
    `skipped` must return from the block: its staged directory goes, and the
    manifest is not touched.

    The entry holds the hash of the sections the stage read, when it
    finished, how long it took, on how many processes, its peak memory and
    minor page faults, and what it wrote. `peak_rss_mb` is the stage
    process's `ru_maxrss` and `minflt` its `ru_minflt`: the calling process
    only, not the helpers `run_jobs` or a trajectory forks, and, when one
    process runs several stages, the totals so far rather than this stage's own.
    """
    validate_config(config)
    root = resolve_out_root(config, out_root)
    root.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    directory, _, upstream = STAGES[name]
    _require_stages(root, config, upstream)  # reads the manifest, so a malformed one stops the stage here
    manifest = root / "run_manifest.json"
    try:
        with atomic_dir(root / directory) as staged:
            frame = _Frame(root, staged)
            yield frame
            if frame.skipped:
                raise _Skip
            doc = _read_run_manifest(root)
            if doc["stages"].pop(name, None) is not None:
                write_atomic(manifest, json.dumps(doc, indent=2, sort_keys=True))
    except _Skip:
        return
    for rel in frame.artifacts.values():
        if not (root / rel).exists():
            raise ValidationError(f"manifest would reference a missing artifact: {rel}")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc["version"] = __version__
    doc["stages"][name] = {
        "inputs_hash": _inputs_hash(config, name),
        "completed_utc": datetime.now(timezone.utc).isoformat(),
        "seconds": round(time.monotonic() - started, 3),
        "workers": frame.workers,
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "minflt": usage.ru_minflt,
        "artifacts": frame.artifacts,
    }
    write_atomic(manifest, json.dumps(doc, indent=2, sort_keys=True))


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


def _corpus(config: dict) -> list[ManifestEntry]:
    """Each image's id, split and scene recipe: a pure function of the dataset section, never stored."""
    dataset = config["dataset"]
    return generate_corpus(scene_specs_from_config(dataset), tuple(dataset["split_fractions"]))


def cmd_generate(config: dict, out_root: str | Path | None) -> Path:
    """Materialize the corpus; a rerun with the same dataset section skips."""
    with _stage(config, out_root, "generate") as stage:
        dataset_dir = stage.root / "dataset"
        entries = _corpus(config)
        try:
            _require_stages(stage.root, config, ("generate",))
        except ValidationError:  # not generated, interrupted, or from another dataset section
            missing = None
        else:
            missing = _missing_dataset_files(entries, dataset_dir)
        if missing == []:
            print(f"dataset already generated under {dataset_dir}, skipping")
            stage.skipped = True
            return dataset_dir
        if missing:
            print(f"dataset under {dataset_dir} is missing {len(missing)} files, regenerating")
        materialize(entries, stage.dir)
        stage.workers = pool_size(len(entries))
        stage.artifacts = {"dataset": "dataset"}
    print(f"generated {len(entries)} images under {dataset_dir}")
    return dataset_dir


def _missing_dataset_files(entries: list[ManifestEntry], dataset_dir: Path) -> list[str]:
    """"<image_id>: <path>" for every image or mask of the corpus that is not on disk."""
    return [
        f"{entry.image_id}: {rel}"
        for entry in entries
        for rel in scene_paths(entry.image_id)
        if not (dataset_dir / rel).exists()
    ]


def _iter_patch_records(config: dict, dataset_dir: Path):
    """Yield (record, patch) pairs across the corpus in corpus/grid order."""
    entries = _corpus(config)
    grid = PatchGridSpec(config["patch"]["height"], config["patch"]["width"])
    taus = config["patch"]["taus"]
    epsilon = config["patch"]["epsilon"]
    missing = _missing_dataset_files(entries, dataset_dir)
    if missing:
        raise ValidationError("missing dataset files: " + "; ".join(missing))
    for entry in entries:
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
    with _stage(config, out_root, "patchify") as stage:
        records = (record for record, _ in _iter_patch_records(config, stage.root / "dataset"))
        n = write_patch_index(records, stage.dir / "patch_index.jsonl")
        stage.artifacts = {"patch_index": "patches/patch_index.jsonl"}
    index_path = stage.root / "patches" / "patch_index.jsonl"
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
            where = f"{path}:{reader.line_num}"
            try:
                key = (row["image_id"], int(row["grid_row"]), int(row["grid_col"]))
                pred = int(row["pred"])
            except (TypeError, ValueError):  # a non-integer value, or a short row's None
                raise ValidationError(f"{where}: grid_row, grid_col and pred must be integers") from None
            if pred not in (0, 1):
                raise ValidationError(f"{where}: pred must be 0 or 1, got {pred}")
            if key in preds:
                raise ValidationError(f"{where}: duplicate prediction for patch {key}")
            preds[key] = pred
    return preds


def cmd_analyze(config: dict, out_root: str | Path | None, predictions: str | Path | None = None) -> Path:
    """Composition histograms and bias reports on one split, optionally overlaying predictions."""
    with _stage(config, out_root, "analyze") as stage:
        records = read_patch_index(stage.root / "patches" / "patch_index.jsonl")
        split = config["analysis"]["split"]
        subset = [r for r in records if r.split == split]
        if not subset:
            raise ValidationError(f"no patch records in split {split!r}")
        n_bins = config["analysis"]["n_bins"]

        pred_arr = None
        if predictions is not None:
            by_key = _read_predictions_csv(Path(predictions))
            pred_arr = np.empty(len(subset), dtype=np.int64)
            missing = []
            for i, rec in enumerate(subset):
                key = (rec.image_id, rec.grid_row, rec.grid_col)
                if key not in by_key:
                    missing.append(key)
                    continue
                pred_arr[i] = by_key[key]
            if missing:
                raise ValidationError(
                    f"predictions cover {len(by_key)} patches but miss {len(missing)} "
                    f"of split {split!r}, first: {missing[0]}"
                )

        for kind, label, filename in _HIST_FILES:
            write_histogram_csv(histogram(subset, kind, label, n_bins, pred_arr), stage.dir / filename)
            stage.artifacts[f"hist_{kind}"] = f"analysis/{filename}"

        for tau in config["patch"]["taus"]:
            report = bias_report(subset, tau)
            name = f"bias_tau{tau_key(tau)}.json"
            (stage.dir / name).write_text(json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
            stage.artifacts[f"bias_{tau_key(tau)}"] = f"analysis/{name}"
            print(f"tau={tau_key(tau)}: alignment={report['alignment']}, groups={report['group_counts']}")
    return stage.root / "analysis"


def build_split_data(
    config: dict, out_root: str | Path, spec: ClassifierSpec | None = None
) -> tuple[dict[float, tuple[SplitData, SplitData, SplitData]], dict[str, list[PatchRecord]]]:
    """Assemble dense per-split arrays from the patch index plus pixel data.

    Every patch is replayed from its scene and checked against its index row
    (image, grid cell, split and label), so an index that no longer matches
    the dataset raises before anything trains. Each split's array is
    allocated once from the index's split counts and filled scene by scene:
    a scene's patches are copied into one reusable (patches per image, h, w,
    C) float32 buffer, which goes into the split's next rows. Without a spec
    the split arrays hold those raw float32 patches. With one they hold the
    model's pooled float64 input, `model.pool(spec, buffer)` per scene (pool
    is exact per patch, so the bytes equal pooling the raw split), and no
    raw split array ever exists. Arrays are shared across thresholds; only
    the group ids differ.
    """
    out_root = Path(out_root)
    _require_stages(out_root, config, ("generate", "patchify"))
    stored = read_patch_index(out_root / "patches" / "patch_index.jsonl")
    taus = config["patch"]["taus"]

    by_split: dict[str, list[PatchRecord]] = {s: [] for s in SPLITS}
    for record in stored:
        by_split[record.split].append(record)
    d, p = config["dataset"], config["patch"]
    patch_shape = (p["height"], p["width"], d["channels"])
    if spec is None:
        row_shape, dtype = patch_shape, np.float32
    else:
        row_shape, dtype = (*spec.pooled_shape, d["channels"]), np.float64
    pixels = {s: np.empty((len(by_split[s]), *row_shape), dtype=dtype) for s in SPLITS}
    per_image = (d["height"] // p["height"]) * (d["width"] // p["width"])
    scene = np.empty((per_image, *patch_shape), dtype=np.float32)
    filled = dict.fromkeys(SPLITS, 0)

    cursor = 0
    replay = _iter_patch_records(config, out_root / "dataset")
    for _, patches in groupby(replay, key=lambda pair: pair[0].image_id):
        n = 0
        for record, patch in patches:
            if cursor >= len(stored):
                raise ValidationError("patch index is shorter than the dataset grid; re-run patchify")
            on_disk = stored[cursor]
            cursor += 1
            # a scene's rows must share one split, since the scene goes into it whole
            if (on_disk.image_id, on_disk.grid_row, on_disk.grid_col, on_disk.split, on_disk.label) != (
                record.image_id, record.grid_row, record.grid_col, record.split, record.label
            ):
                raise ValidationError(
                    f"patch index row {cursor - 1} does not match the dataset; re-run patchify"
                )
            scene[n] = patch.pixels
            n += 1
        lo = filled[record.split]
        pixels[record.split][lo : lo + n] = scene[:n] if spec is None else pool(spec, scene[:n])
        filled[record.split] = lo + n
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
    with _stage(config, out_root, "train") as stage:
        model_spec = model_spec_from_config(config)
        data_by_tau, by_split = build_split_data(config, stage.root, model_spec)
        test_records = by_split["test"]
        report = run_experiment(model_spec, data_by_tau, TrainConfig(**config["train"]))
        stage.workers = report.workers

        for cell in report.cells:
            name = cell_dir_name(cell.method, cell.eval_metric, cell.tau)
            for k, outcome in enumerate(cell.outcomes):
                tdir = stage.dir / name / f"trial{k}"
                tdir.mkdir(parents=True)
                with open(tdir / "epochs.csv", "w", encoding="utf-8") as fh:
                    fh.write("epoch,train_loss,val_wga,val_bca\n")
                    for row in outcome.log:
                        fh.write(f"{row.epoch},{row.train_loss:.6f},{row.val_wga:.6f},{row.val_bca:.6f}\n")
                save_checkpoint(tdir / "checkpoint.npy", model_spec, outcome.checkpoint.params)
                with open(tdir / "test_predictions.csv", "w", encoding="utf-8") as fh:
                    fh.write("image_id,grid_row,grid_col,label,pred\n")
                    for rec, pred in zip(test_records, outcome.test_preds):
                        fh.write(f"{rec.image_id},{rec.grid_row},{rec.grid_col},{rec.label},{int(pred)}\n")
            stage.artifacts[name] = f"train/{name}"

        results = {
            "config_hash": config_hash(config),
            "taus": config["patch"]["taus"],
            "cells": [cell.to_dict() for cell in report.cells],
        }
        (stage.dir / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")
        stage.artifacts["results"] = "train/results.json"
    for cell in report.cells:
        print(
            f"{cell.row_label} tau={tau_key(cell.tau)}: "
            f"wga={cell.wga_mean:.4f}±{cell.wga_std:.4f} bca={cell.bca_mean:.4f}±{cell.bca_std:.4f}"
            + (f" beta={cell.beta}" if cell.method == "gerne" else "")
        )
    return report


def cmd_report(config: dict, out_root: str | Path | None) -> Path:
    """Assemble the final results table from the train stage output made from this config's sections."""
    with _stage(config, out_root, "report") as stage:
        results_path = stage.root / "train" / "results.json"
        try:
            results = json.loads(results_path.read_text())
        except (OSError, ValueError):
            raise ValidationError(f"train results {results_path} are unreadable or not JSON; run train first") from None
        taus = results["taus"]
        by_key = {(c["row"], tau_key(c["tau"])): c for c in results["cells"]}

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
        (stage.dir / "final_table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        stage.artifacts = {"final_table": "report/final_table.csv"}
    table_path = stage.root / "report" / "final_table.csv"
    print(f"wrote {table_path}")
    return table_path


def run_pipeline(config: dict, out_root: str | Path | None) -> Path:
    """generate -> patchify -> analyze -> train -> report, returning the table path."""
    cmd_generate(config, out_root)
    cmd_patchify(config, out_root)
    cmd_analyze(config, out_root)
    cmd_train(config, out_root)
    return cmd_report(config, out_root)
