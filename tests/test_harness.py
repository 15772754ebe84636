"""Config handling, pipeline stages, on-disk artifacts, and the CLI front end."""

import builtins
import csv
import dataclasses
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchbias import harness, model, parallel, synthdata
from patchbias.cli import main as cli_main
from patchbias.errors import ValidationError
from patchbias.model import load_checkpoint
from patchbias.patchgrid import PatchGridSpec, partition
from patchbias.synthdata import generate_scene
from patchbias.tensorio import read_tensor
from patchbias.training import TrainConfig


def tiny_config():
    """Small corpus that still populates every (label, proxy) group in every split."""
    cfg = harness.default_config()
    cfg["dataset"].update(images=80, height=96, width=96, seed=1001)
    cfg["patch"].update(height=32, width=32)
    cfg["train"].update(epochs=3, trials=1, beta=0.5, seed=5)
    return cfg


def mini_config():
    """Just enough images to exercise generate/patchify mechanics: one per split."""
    cfg = harness.default_config()
    cfg["dataset"].update(images=3, height=64, width=64, seed=42)
    cfg["dataset"]["split_fractions"] = [0.4, 0.3, 0.3]
    cfg["patch"].update(height=32, width=32)
    return cfg


@pytest.fixture(scope="module")
def tiny_trained(tmp_path_factory):
    """One full pipeline pass shared by the artifact tests, with the train stage's report."""
    out = tmp_path_factory.mktemp("tinyrun")
    cfg = tiny_config()
    harness.cmd_generate(cfg, out)
    harness.cmd_patchify(cfg, out)
    harness.cmd_analyze(cfg, out)
    report = harness.cmd_train(cfg, out)
    harness.cmd_report(cfg, out)
    return cfg, out, report


@pytest.fixture(scope="module")
def tiny_run(tiny_trained):
    """The shared pipeline pass as (config, out root)."""
    cfg, out, _ = tiny_trained
    return cfg, out


def test_default_config_is_valid():
    harness.validate_config(harness.default_config())


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: c.update(extra=1), "unknown config field extra"),
        (lambda c: c.pop("patch"), "missing config field patch"),
        (lambda c: c["dataset"].update(shape="round"), "unknown config field dataset.shape"),
        (lambda c: c["dataset"].pop("noise_sigma"), "missing config field dataset.noise_sigma"),
        (lambda c: c["dataset"].update(images=0), "dataset.images"),
        (lambda c: c["dataset"].update(tumor_coverage_range=[0.4, 0.2]), "low <= high"),
        (lambda c: c["dataset"].update(tumor_blob_count_range=[0.5, 2]), "integers"),
        (lambda c: c["dataset"].update(split_fractions=[0.5, 0.4, 0.2]), "sum to 1"),
        (lambda c: c["patch"].update(taus=[]), "patch.taus"),
        (lambda c: c["patch"].update(taus=[0.1, 0.1]), "repeat"),
        (lambda c: c["patch"].update(epsilon=0.0), "patch.epsilon"),
        (lambda c: c["analysis"].update(split="holdout"), "analysis.split"),
        (lambda c: c["model"].update(k1=0), "model.k1"),
        (lambda c: c["train"].update(momentum=1.0), "train.momentum"),
        (lambda c: c["train"].update(beta="big"), "train.beta"),
        (lambda c: c["train"].update(beta_grid=[]), "train.beta_grid"),
        (lambda c: c.update(out_root=""), "out_root"),
        # json reads NaN and Infinity as floats; a config number must be finite
        (lambda c: c["train"].update(lr=float("nan")), "train.lr"),
        (lambda c: c["train"].update(beta=float("inf")), "train.beta must be a finite number"),
        (lambda c: c["train"].update(beta_grid=[0.0, float("nan")]), "train.beta_grid .* finite"),
        (lambda c: c["dataset"].update(noise_sigma=float("nan")), "dataset.noise_sigma"),
        (lambda c: c["dataset"].update(rim_thickness=float("inf")), "dataset.rim_thickness"),
        (lambda c: c["dataset"].update(background_intensity_max=float("nan")), "dataset.background_intensity_max"),
        (lambda c: c["dataset"].update(tumor_coverage_range=[float("nan"), 0.3]), "dataset.tumor_coverage_range"),
        # valid fields whose combination used to fail only after the data stages
        (lambda c: c["model"].update(pool_target=3), "model.pool_target: pooled input 2x2 too small"),
        (lambda c: (c["dataset"].update(height=48), c["patch"].update(height=64)), "patch.height .* dataset.height"),
        (lambda c: c["dataset"].update(images=2), "dataset.images: 2 images .* leave split 'val' empty"),
        # values SceneSpec rejects, which used to fail only inside generate
        (lambda c: c["dataset"].update(background_intensity_max=0.5), "dataset.background_intensity_max must be <= 0.45"),
        (lambda c: c["dataset"].update(seed=2**64 - 10), "dataset.seed: scene seeds"),
    ],
)
def test_config_validation_names_the_field(mutate, message, tmp_path):
    cfg = harness.default_config()
    mutate(cfg)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    config = harness.load_config(path)
    # the stage validates before it writes anything
    with pytest.raises(ValidationError, match=message):
        harness.cmd_generate(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _schema_rows() -> dict:
    """Each CONFIG_SCHEMA row by its dotted field name ("train.momentum", "out_root")."""
    rows = {}
    for key, rule in harness.CONFIG_SCHEMA.items():
        if isinstance(rule, dict):
            rows.update({f"{key}.{field}": row for field, row in rule.items()})
        else:
            rows[key] = rule
    return rows


def test_schema_names_every_default_field_and_every_train_config_field():
    default = harness.default_config()
    assert default.keys() == harness.CONFIG_SCHEMA.keys()
    for key, rule in harness.CONFIG_SCHEMA.items():
        if isinstance(rule, dict):
            assert default[key].keys() == rule.keys(), key
    assert set(harness.CONFIG_SCHEMA["train"]) == {f.name for f in dataclasses.fields(TrainConfig)}


def _values_of_another_kind(default) -> list:
    if isinstance(default, str):
        return [True, 0, None, [], math.nan]
    if isinstance(default, list):
        return ["x", True, [], ["x"], [math.nan]]
    return ["x", True, math.nan, math.inf, -math.inf, []]  # a number, or train.beta's null


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_schema_row_rejects_a_value_of_another_kind(data):
    name = data.draw(st.sampled_from(sorted(_schema_rows())), label="field")
    config = harness.default_config()
    section, _, key = name.rpartition(".")
    fields = config[section] if section else config
    fields[key] = data.draw(st.sampled_from(_values_of_another_kind(fields[key])), label="value")
    with pytest.raises(ValidationError, match=f"^config field {re.escape(name)} must be "):
        harness.validate_config(config)


def test_readme_config_reference_lists_every_schema_row():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    reference = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([\w.]+)` \| .+ \| (.+) \|$", reference, re.M))
    assert rows == {name: description for name, (_, description) in _schema_rows().items()}


def test_config_hash_ignores_key_order_and_out_root():
    a = harness.default_config()
    b = json.loads(json.dumps(a))
    b["out_root"] = "somewhere/else"
    reordered = {k: b[k] for k in reversed(list(b))}
    assert harness.config_hash(a) == harness.config_hash(reordered)
    changed = harness.default_config()
    changed["dataset"]["seed"] += 1
    assert harness.config_hash(changed) != harness.config_hash(a)


def test_out_root_resolution_precedence(monkeypatch):
    cfg = harness.default_config()
    cfg["out_root"] = "from_config"
    monkeypatch.delenv(harness.ENV_OUT_ROOT, raising=False)
    assert str(harness.resolve_out_root(cfg)) == "from_config"
    monkeypatch.setenv(harness.ENV_OUT_ROOT, "from_env")
    assert str(harness.resolve_out_root(cfg)) == "from_env"
    assert str(harness.resolve_out_root(cfg, "from_arg")) == "from_arg"


def test_scene_specs_are_a_pure_function_of_the_dataset_section():
    d = tiny_config()["dataset"]
    specs1 = harness.scene_specs_from_config(d)
    specs2 = harness.scene_specs_from_config(d)
    assert specs1 == specs2
    assert len(specs1) == d["images"]
    assert [s.seed for s in specs1] == list(range(d["seed"], d["seed"] + d["images"]))
    for s in specs1:
        if s.tumor_blob_count == 0:
            assert s.tumor_coverage == 0.0
        assert s.tumor_coverage + s.healthy_coverage <= 1.0


def _copy_run(tiny_run, tmp_path):
    """The shared run copied under `tmp_path`, for a test that changes its files."""
    cfg, out = tiny_run
    return cfg, shutil.copytree(out, tmp_path / "run")


def test_generate_writes_corpus_and_skips_reruns(tmp_path, capsys):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    dataset = tmp_path / "dataset"
    # only the scenes; the corpus itself is derived, never stored
    assert sorted(p.name for p in dataset.iterdir()) == ["images", "masks"]
    assert len(list((dataset / "images").glob("*.npy"))) == 3
    assert len(list((dataset / "masks").glob("*.npy"))) == 3
    capsys.readouterr()
    harness.cmd_generate(cfg, tmp_path)
    assert "skipping" in capsys.readouterr().out

    # changing the dataset section invalidates the marker
    cfg["dataset"]["noise_sigma"] = 0.08
    harness.cmd_generate(cfg, tmp_path)
    assert "generated 3 images" in capsys.readouterr().out


def test_generate_regenerates_a_deleted_image_instead_of_skipping(tmp_path, capsys):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    victim = next((tmp_path / "dataset" / "images").glob("*.npy"))
    original = victim.read_bytes()
    victim.unlink()
    capsys.readouterr()
    harness.cmd_generate(cfg, tmp_path)
    out = capsys.readouterr().out
    assert "skipping" not in out and "missing 1 files, regenerating" in out
    assert victim.read_bytes() == original
    harness.cmd_patchify(cfg, tmp_path)


def test_write_atomic_replaces_the_file(tmp_path):
    path = tmp_path / "results.json"
    path.write_text("old")
    harness.write_atomic(path, "new ±")
    assert path.read_text(encoding="utf-8") == "new ±"
    assert [p.name for p in tmp_path.iterdir()] == ["results.json"]


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_write_atomic_failure_keeps_the_previous_file_and_no_temporary(tmp_path, monkeypatch, stage):
    path = tmp_path / "final_table.csv"
    path.write_text("previous\n")
    if stage == "replace":
        def refuse(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(harness.os, "replace", refuse)
        text = "next\n"
    else:
        text = "\udcff"  # a lone surrogate cannot be encoded, so the write fails midway
    with pytest.raises((OSError, UnicodeEncodeError)):
        harness.write_atomic(path, text)
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["final_table.csv"]


def test_report_failure_keeps_the_previous_table(tiny_run, monkeypatch):
    cfg, out = tiny_run
    table = out / "report" / "final_table.csv"
    before = table.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        harness.cmd_report(cfg, out)
    assert table.read_bytes() == before
    assert [p.name for p in table.parent.iterdir()] == ["final_table.csv"]


def test_patchify_requires_the_dataset(tmp_path):
    with pytest.raises(ValidationError, match="run generate first"):
        harness.cmd_patchify(mini_config(), tmp_path)


def test_patchify_reports_missing_scene_files(tmp_path):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    victim = next((tmp_path / "dataset" / "images").glob("*.npy"))
    victim.unlink()
    with pytest.raises(ValidationError, match=f"missing dataset files.*{victim.name}"):
        harness.cmd_patchify(cfg, tmp_path)


def _fail_the_third_tensor_write(monkeypatch):
    """Make the third scene tensor write of the next generate raise OSError("disk full")."""
    calls = []
    real_write = synthdata.write_tensor

    def fail_on_third_write(path, array):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        real_write(path, array)

    # the writes must happen in this process for the patch to see them
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    monkeypatch.setattr(synthdata, "write_tensor", fail_on_third_write)


def _files(directory: Path) -> dict:
    """Every file under `directory`, relative path -> bytes."""
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def test_a_failed_regenerate_keeps_the_previous_dataset(tmp_path, monkeypatch):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    index = harness.cmd_patchify(cfg, tmp_path)
    before, scenes = index.read_bytes(), _files(tmp_path / "dataset")
    changed = mini_config()
    changed["dataset"]["noise_sigma"] = 0.08
    _fail_the_third_tensor_write(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        harness.cmd_generate(changed, tmp_path)
    monkeypatch.undo()
    # the new scenes were built beside dataset/ and never swapped in, so the
    # previous dataset and its entry stay, and only the old section reads them
    assert _files(tmp_path / "dataset") == scenes
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
    with pytest.raises(ValidationError, match="not made from this config's dataset section "):
        harness.cmd_patchify(changed, tmp_path)
    with pytest.raises(ValidationError, match="run generate first"):
        harness.build_split_data(changed, tmp_path)
    assert harness.cmd_patchify(cfg, tmp_path).read_bytes() == before


def test_a_smaller_dataset_leaves_only_its_own_scenes(tmp_path):
    cfg = mini_config()
    cfg["dataset"]["images"] = 6
    harness.cmd_generate(cfg, tmp_path)
    smaller = mini_config()
    harness.cmd_generate(smaller, tmp_path)
    expected = {Path(rel) for entry in harness._corpus(smaller) for rel in synthdata.scene_paths(entry.image_id)}
    assert set(_files(tmp_path / "dataset")) == expected


def test_a_killed_stage_leaves_no_staging_tree_behind(tmp_path):
    # what a generate killed mid-render, or mid-swap, by another process leaves
    for name in (".dataset.999999.tmp", ".dataset.999999.old"):
        (tmp_path / name / "images").mkdir(parents=True)
        (tmp_path / name / "images" / "img0000.npy").write_bytes(b"partial")
    harness.cmd_generate(mini_config(), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset", "run_manifest.json"]


def test_a_skipped_generate_sweeps_a_killed_generates_tree_and_touches_nothing_else(tmp_path, capsys):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    manifest = tmp_path / "run_manifest.json"
    before, scenes = manifest.read_bytes(), _files(tmp_path / "dataset")
    (tmp_path / ".dataset.999999.tmp" / "images").mkdir(parents=True)
    capsys.readouterr()
    harness.cmd_generate(cfg, tmp_path)
    printed = capsys.readouterr().out
    assert "skipping" in printed and not re.search(r"generated \d+ images", printed)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset", "run_manifest.json"]
    # no swap and no new entry, not even a new completed_utc
    assert manifest.read_bytes() == before
    assert _files(tmp_path / "dataset") == scenes


def test_patchify_and_assembly_refuse_a_dataset_from_another_section(tmp_path, capsys):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    harness.cmd_patchify(cfg, tmp_path)
    changed = mini_config()
    changed["dataset"]["noise_sigma"] = 0.08
    with pytest.raises(ValidationError, match="not made from this config's dataset section "):
        harness.cmd_patchify(changed, tmp_path)
    with pytest.raises(ValidationError, match="not made from this config's dataset section "):
        harness.build_split_data(changed, tmp_path)
    # an entry with another inputs hash vouches for nothing, and generate replaces it
    manifest = tmp_path / "run_manifest.json"
    doc = json.loads(manifest.read_text())
    doc["stages"]["generate"]["inputs_hash"] = "0" * 64
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="not made from this config's dataset section "):
        harness.cmd_patchify(cfg, tmp_path)
    capsys.readouterr()
    harness.cmd_generate(cfg, tmp_path)
    assert "generated 3 images" in capsys.readouterr().out
    harness.cmd_patchify(cfg, tmp_path)


def test_without_its_run_manifest_entry_the_dataset_must_be_generated_again(tmp_path, capsys):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    harness.cmd_patchify(cfg, tmp_path)
    manifest = tmp_path / "run_manifest.json"

    def refused():
        for stage in (harness.cmd_patchify, harness.build_split_data):
            with pytest.raises(ValidationError, match="run generate first"):
                stage(cfg, tmp_path)

    # entries as runs wrote them before inputs_hash existed vouch for nothing
    doc = json.loads(manifest.read_text())
    for entry in doc["stages"].values():
        entry["config_hash"] = harness.config_hash(cfg)
        del entry["inputs_hash"]
    manifest.write_text(json.dumps(doc))
    refused()
    # the entry is the only record of the dataset, so deleting the manifest discards it
    manifest.unlink()
    refused()
    capsys.readouterr()
    harness.cmd_generate(cfg, tmp_path)
    printed = capsys.readouterr().out
    assert "generated 3 images" in printed and "skipping" not in printed
    harness.cmd_patchify(cfg, tmp_path)


def test_patch_index_matches_the_grid(tiny_run):
    cfg, out = tiny_run
    lines = (out / "patches" / "patch_index.jsonl").read_text().splitlines()
    grid = PatchGridSpec(cfg["patch"]["height"], cfg["patch"]["width"])
    expected = 0
    for entry in harness._corpus(cfg)[:5]:
        image, mask = generate_scene(entry.spec)
        expected += len(partition(image, mask, grid))
    per_image = expected // 5
    assert len(lines) == per_image * cfg["dataset"]["images"]
    first = json.loads(lines[0])
    assert set(first["z"]) == {"0.1", "0.03"}
    assert set(first["group"]) == {"0.1", "0.03"}
    assert first["group"]["0.1"] == 2 * first["label"] + first["z"]["0.1"]


def test_interrupted_patchify_keeps_the_previous_index(tmp_path, monkeypatch):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    index = harness.cmd_patchify(cfg, tmp_path)
    before = index.read_bytes()
    calls = []
    real_load = harness.load_scene

    def fail_on_second_scene(root, entry):
        calls.append(entry.image_id)
        if len(calls) == 2:
            raise OSError("read failed")
        return real_load(root, entry)

    monkeypatch.setattr(harness, "load_scene", fail_on_second_scene)
    with pytest.raises(OSError, match="read failed"):
        harness.cmd_patchify(cfg, tmp_path)
    assert index.read_bytes() == before
    # the failure came before the swap, so the kept index keeps its entry and is still read
    assert [p.name for p in index.parent.iterdir()] == ["patch_index.jsonl"]
    assert "patchify" in json.loads((tmp_path / "run_manifest.json").read_text())["stages"]
    monkeypatch.undo()
    harness.cmd_analyze(cfg, tmp_path)


def test_failed_analysis_write_keeps_the_previous_files(tiny_run, tmp_path, monkeypatch):
    cfg, out = _copy_run(tiny_run, tmp_path)
    analysis, manifest = out / "analysis", out / "run_manifest.json"
    before, entry = _files(analysis), json.loads(manifest.read_text())["stages"]["analyze"]
    calls = []
    real_report = harness.bias_report

    def fail_on_second_tau(subset, tau):
        calls.append(tau)
        if len(calls) == 2:
            raise OSError("disk full")
        return real_report(subset, tau)

    # other bins change every histogram, so a histogram written before the
    # failing bias report would show up as a mix of two runs
    rerun = json.loads(json.dumps(cfg))
    rerun["analysis"]["n_bins"] = cfg["analysis"]["n_bins"] + 1
    monkeypatch.setattr(harness, "bias_report", fail_on_second_tau)
    with pytest.raises(OSError, match="disk full"):
        harness.cmd_analyze(rerun, out)
    assert _files(analysis) == before
    assert json.loads(manifest.read_text())["stages"]["analyze"] == entry
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]


def test_a_taus_edit_leaves_only_the_current_bias_reports(tmp_path):
    cfg = mini_config()
    for stage in (harness.cmd_generate, harness.cmd_patchify, harness.cmd_analyze):
        stage(cfg, tmp_path)
    cfg["patch"]["taus"] = [0.2]
    harness.cmd_patchify(cfg, tmp_path)
    harness.cmd_analyze(cfg, tmp_path)
    analysis = tmp_path / "analysis"
    assert sorted(p.name for p in analysis.glob("bias_tau*.json")) == ["bias_tau0.2.json"]
    # the run manifest names exactly the files analyze left
    artifacts = json.loads((tmp_path / "run_manifest.json").read_text())["stages"]["analyze"]["artifacts"]
    assert sorted(artifacts.values()) == sorted(f"analysis/{p.name}" for p in analysis.iterdir())


def test_analyze_artifacts(tiny_run):
    cfg, out = tiny_run
    analysis = out / "analysis"
    for name in ("hist_r_tumor_y1.csv", "hist_r_tumor_tissue_y1.csv", "hist_r_tissue_y0.csv"):
        rows = list(csv.DictReader((analysis / name).open()))
        assert len(rows) == cfg["analysis"]["n_bins"]
        # each serialized mass is rounded to 6 decimals, so the sum drifts a little
        assert sum(float(r["mass"]) for r in rows) == pytest.approx(1.0, abs=2e-5)
    n_test = sum(
        1 for line in (out / "patches" / "patch_index.jsonl").read_text().splitlines()
        if json.loads(line)["split"] == "test"
    )
    for tau in ("0.1", "0.03"):
        report = json.loads((analysis / f"bias_tau{tau}.json").read_text())
        assert sum(report["group_counts"].values()) == n_test == report["n_records"]
        assert 0.0 <= report["alignment"] <= 1.0


def test_train_artifacts(tiny_trained):
    cfg, out, report = tiny_trained
    results = json.loads((out / "train" / "results.json").read_text())
    assert results["config_hash"] == harness.config_hash(cfg)
    assert len(results["cells"]) == 6  # three rows at two thresholds
    assert {c["row"] for c in results["cells"]} == {"ERM+BCA", "ERM+WGA", "GERNE+WGA"}
    n_test = sum(
        1 for line in (out / "patches" / "patch_index.jsonl").read_text().splitlines()
        if json.loads(line)["split"] == "test"
    )
    data_by_tau, _ = harness.build_split_data(cfg, out)
    _, _, test = next(iter(data_by_tau.values()))  # pixels are shared across thresholds
    assert len(report.cells) == len(results["cells"])
    for cell, reported in zip(results["cells"], report.cells):
        assert len(cell["trials"]) == cfg["train"]["trials"]
        cdir = out / "train" / harness.cell_dir_name(cell["method"], cell["eval_metric"], cell["tau"])
        for k in range(cfg["train"]["trials"]):
            tdir = cdir / f"trial{k}"
            epochs = tdir.joinpath("epochs.csv").read_text().splitlines()
            assert epochs[0] == "epoch,train_loss,val_wga,val_bca"
            assert len(epochs) == 1 + cfg["train"]["epochs"]
            spec, params = load_checkpoint(tdir / "checkpoint.npy")
            assert spec.input_height == cfg["patch"]["height"]
            # the checkpoint is the float64 vector run_experiment selected, bit for bit
            selected = reported.outcomes[k].checkpoint.params
            assert params.dtype == selected.dtype == np.float64
            assert params.tobytes() == selected.tobytes()
            preds = list(csv.DictReader(tdir.joinpath("test_predictions.csv").open()))
            assert len(preds) == n_test
            assert {p["pred"] for p in preds} <= {"0", "1"}
            reloaded = model.predict(spec, params, model.pool(spec, test.x))
            assert reloaded.tolist() == [int(p["pred"]) for p in preds]


def test_every_tensor_file_is_a_plain_npy_file(tiny_trained):
    """Plain numpy reads every scene and checkpoint of a run to the same array as read_tensor."""
    cfg, out, report = tiny_trained
    scenes = sorted((out / "dataset").glob("*/*.npy"))
    assert len(scenes) == 2 * cfg["dataset"]["images"]
    checkpoints = sorted((out / "train").glob("*/trial*/checkpoint.npy"))
    assert len(checkpoints) == sum(len(cell.outcomes) for cell in report.cells)
    for path in scenes + checkpoints:
        plain, ours = np.load(path, allow_pickle=False), read_tensor(path)
        assert (plain.dtype, plain.shape) == (ours.dtype, ours.shape)
        assert plain.tobytes() == ours.tobytes()


@pytest.mark.parametrize("failure", ["checkpoint", "predictions"])
def test_failed_train_write_keeps_the_previous_trial_files(tiny_run, tmp_path, monkeypatch, failure):
    cfg, out = _copy_run(tiny_run, tmp_path)
    # a rerun with another learning rate writes other bytes, so any mix of the two runs shows
    changed = json.loads(json.dumps(cfg))
    changed["train"]["lr"] = cfg["train"]["lr"] / 2
    train_dir = out / "train"
    table = out / "report" / "final_table.csv"
    previous_table = table.read_bytes()
    before = _files(train_dir)
    if failure == "checkpoint":
        def cut_short(path, array):
            Path(path).write_bytes(b"\x93NUMPY")  # the magic is out, then the disk fills
            raise OSError("disk full")

        monkeypatch.setattr(model, "write_tensor", cut_short)
    else:
        real_open = builtins.open

        def cut_short_predictions(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            # a process pool opens file descriptors (ints) here too; only paths are checked
            if isinstance(path, (str, Path)) and "test_predictions.csv" in Path(path).name:
                fh.write("image_id,grid_")  # the header is half out, then the disk fills
                fh.close()
                raise OSError("disk full")
            return fh

        monkeypatch.setattr(builtins, "open", cut_short_predictions)
    with pytest.raises(OSError, match="disk full"):
        harness.cmd_train(changed, out)
    assert _files(train_dir) == before
    assert not [p.name for p in out.iterdir() if p.name.startswith(".train")]

    monkeypatch.undo()
    stages = json.loads((out / "run_manifest.json").read_text())["stages"]
    for name, entry in stages.items():
        for rel in entry["artifacts"].values():
            assert (out / rel).exists(), (name, rel)
    with pytest.raises(ValidationError, match="run train first"):
        harness.cmd_report(changed, out)
    # a failure before the swap keeps the previous results and their entry
    harness.cmd_report(cfg, out)
    assert table.read_bytes() == previous_table


# stage -> (the directory it owns, a config edit that changes its output);
# report's output is made from train's sections, so it only reruns as it was
_RERUNS = {
    "generate": ("dataset", "dataset.noise_sigma", 0.08),
    "patchify": ("patches", "patch.epsilon", 0.2),
    "analyze": ("analysis", "analysis.n_bins", 21),
    "train": ("train", "train.lr", 0.025),
    "report": ("report", None, None),
}


@pytest.mark.parametrize("stage", list(_RERUNS))
def test_a_refused_swap_keeps_the_previous_directory(tiny_run, tmp_path, monkeypatch, stage):
    name, field, value = _RERUNS[stage]
    cfg, out = _copy_run(tiny_run, tmp_path)
    # where a stage allows it, a rerun from another section writes other bytes, so any mix shows
    rerun = json.loads(json.dumps(cfg))
    if field is not None:
        section, key = field.split(".")
        assert rerun[section][key] != value
        rerun[section][key] = value
    target = out / name
    before = _files(target)
    real_replace = harness.os.replace

    def refuse_swap(src, dst):
        # the new tree may not move in; moving the previous one back is allowed
        if Path(dst) == target and Path(src).name.endswith(".tmp"):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(harness.os, "replace", refuse_swap)
    with pytest.raises(OSError, match="disk full"):
        getattr(harness, f"cmd_{stage}")(rerun, out)
    assert _files(target) == before
    # the entry was dropped just before the swap, so nothing vouches for the kept directory
    assert stage not in json.loads((out / "run_manifest.json").read_text())["stages"]
    assert not [p.name for p in out.iterdir() if p.name.startswith(".")]


def test_gerne_beta_fixed_by_config_skips_tuning(tiny_run):
    _, out = tiny_run
    results = json.loads((out / "train" / "results.json").read_text())
    for cell in results["cells"]:
        if cell["method"] == "gerne":
            assert cell["beta"] == 0.5
            assert cell["beta_scores"] == {}


def test_report_table_layout(tiny_run):
    _, out = tiny_run
    lines = (out / "report" / "final_table.csv").read_text().splitlines()
    assert lines[0] == "row,wga_tau=0.1,bca_tau=0.1,wga_tau=0.03,bca_tau=0.03"
    assert [l.split(",")[0] for l in lines[1:]] == ["ERM+BCA", "ERM+WGA", "GERNE+WGA"]
    for line in lines[1:]:
        for cell in line.split(",")[1:]:
            mean, std = cell.split("±")
            float(mean), float(std)


def _inputs_hash(cfg, *sections):
    return harness._sha256([cfg[section] for section in sections])


def test_run_manifest_tracks_every_stage(tiny_run):
    cfg, out = tiny_run
    doc = json.loads((out / "run_manifest.json").read_text())
    assert "config_hash" not in doc and "inputs_hash" not in doc  # each stage records its own
    # each entry hashes exactly the sections its stage's output is made from
    assert {name: stage["inputs_hash"] for name, stage in doc["stages"].items()} == {
        "generate": _inputs_hash(cfg, "dataset"),
        "patchify": _inputs_hash(cfg, "dataset", "patch"),
        "analyze": _inputs_hash(cfg, "dataset", "patch", "analysis"),
        "train": _inputs_hash(cfg, "dataset", "patch", "model", "train"),
        "report": _inputs_hash(cfg, "dataset", "patch", "model", "train"),
    }
    for stage in doc["stages"].values():
        assert "config_hash" not in stage
        for rel in stage["artifacts"].values():
            assert (out / rel).exists()
    # only generate (a job per scene) and train run jobs on a process pool; the
    # train stage's largest batch is its ERM seeds plus a one-point grid per threshold
    assert {name: stage["workers"] for name, stage in doc["stages"].items()} == {
        "generate": parallel.pool_size(cfg["dataset"]["images"]),
        "patchify": 1, "analyze": 1,
        "train": parallel.pool_size(cfg["train"]["trials"] + len(cfg["patch"]["taus"])),
        "report": 1,
    }
    for stage in doc["stages"].values():
        assert isinstance(stage["peak_rss_mb"], float) and stage["peak_rss_mb"] > 0
        assert type(stage["minflt"]) is int and stage["minflt"] >= 0


def test_run_manifest_keeps_each_stages_inputs_hash(tmp_path):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    harness.cmd_patchify(cfg, tmp_path)
    harness.cmd_analyze(cfg, tmp_path)
    rerun = mini_config()
    rerun["analysis"]["n_bins"] = cfg["analysis"]["n_bins"] + 1
    harness.cmd_analyze(rerun, tmp_path)
    stages = json.loads((tmp_path / "run_manifest.json").read_text())["stages"]
    # the rerun relabels only its own entry, not the stages it did not run
    assert {name: stage["inputs_hash"] for name, stage in stages.items()} == {
        "generate": _inputs_hash(cfg, "dataset"),
        "patchify": _inputs_hash(cfg, "dataset", "patch"),
        "analyze": _inputs_hash(rerun, "dataset", "patch", "analysis"),
    }
    assert stages["analyze"]["inputs_hash"] != _inputs_hash(cfg, "dataset", "patch", "analysis")


def test_run_manifest_names_only_existing_files_after_every_stage(tmp_path, capsys, monkeypatch):
    cfg = tiny_config()
    cfg["train"]["epochs"] = 1
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    # the second generate finds the dataset complete and skips
    for k, stage in enumerate(("generate", "generate", "patchify", "analyze", "train", "report")):
        capsys.readouterr()
        assert cli_main([stage, "--config", str(path), "--out", str(out)]) == 0, stage
        assert ("skipping" in capsys.readouterr().out) == (k == 1), stage
        doc = json.loads((out / "run_manifest.json").read_text())
        for name, entry in doc["stages"].items():
            for rel in entry["artifacts"].values():
                assert (out / rel).exists(), (stage, name, rel)
        assert not (out / "dataset" / "manifest.json").exists(), stage

    # a regenerate that fails midway keeps generate's previous entry
    changed = tiny_config()
    changed["dataset"]["noise_sigma"] = 0.08
    _fail_the_third_tensor_write(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        cli_main(["generate", "--config", str(_write_config(tmp_path, changed)), "--out", str(out)])
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["stages"]["generate"]["inputs_hash"] == _inputs_hash(cfg, "dataset")
    for name, entry in doc["stages"].items():
        for rel in entry["artifacts"].values():
            assert (out / rel).exists(), (name, rel)


def test_results_json_has_no_timings(tiny_run):
    _, out = tiny_run
    text = (out / "train" / "results.json").read_text()
    assert "seconds" not in text and "utc" not in text


def test_analyze_overlays_training_predictions(tiny_run, tmp_path):
    cfg, out = tiny_run
    preds_csv = out / "train" / "erm_bca_tau0.1" / "trial0" / "test_predictions.csv"
    harness.cmd_analyze(cfg, out, predictions=preds_csv)
    rows = list(csv.DictReader((out / "analysis" / "hist_r_tumor_y1.csv").open()))
    filled = [r for r in rows if int(r["count"]) > 0]
    assert filled and all(r["correct_fraction"] != "" for r in filled)
    for r in filled:
        assert float(r["correct_fraction"]) + float(r["incorrect_fraction"]) == pytest.approx(1.0)

    # a prediction file that misses patches is rejected
    truncated = tmp_path / "short.csv"
    truncated.write_text("\n".join(preds_csv.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(ValidationError, match="miss"):
        harness.cmd_analyze(cfg, out, predictions=truncated)
    # restore the plain histograms for any later assertions
    harness.cmd_analyze(cfg, out)


def test_build_split_data_shares_pixels_across_thresholds(tiny_run):
    cfg, out = tiny_run
    data_by_tau, by_split = harness.build_split_data(cfg, out)
    assert set(data_by_tau) == {0.1, 0.03}
    train1, val1, test1 = data_by_tau[0.1]
    train2, _, _ = data_by_tau[0.03]
    assert train1.x is train2.x and train1.y is train2.y
    assert train1.groups is not train2.groups
    assert test1.size == len(by_split["test"])
    assert train1.size + val1.size + test1.size == 720


def test_build_split_data_takes_a_str_out_root(tiny_run):
    cfg, out = tiny_run
    from_path, _ = harness.build_split_data(cfg, out)
    from_str, _ = harness.build_split_data(cfg, str(out))
    assert from_str.keys() == from_path.keys()
    for tau, splits in from_path.items():
        for a, b in zip(splits, from_str[tau]):
            for field in ("x", "y", "groups"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def test_train_trains_on_the_pooled_arrays_assembly_returned(tiny_run, monkeypatch):
    cfg, out = tiny_run
    cfg = {**cfg, "model": {**cfg["model"], "pool_target": 16}}  # pool factor 2
    real_build = harness.build_split_data
    specs, built = [], []

    class Stop(Exception):
        pass

    def build(config, out_root, spec=None):
        specs.append(spec)
        data_by_tau, by_split = real_build(config, out_root, spec)
        built.extend(split.x for split in next(iter(data_by_tau.values())))
        return data_by_tau, by_split

    def check(model_spec, data_by_tau, config):
        assert specs == [model_spec] == [harness.model_spec_from_config(cfg)]
        assert len(built) == 3
        pooled = (*model_spec.pooled_shape, model_spec.channels)
        for splits in data_by_tau.values():  # every threshold shares assembly's arrays
            for split, x in zip(splits, built):
                assert split.x is x
                assert split.x.dtype == np.float64 and split.x.shape[1:] == pooled
        raise Stop

    monkeypatch.setattr(harness, "build_split_data", build)
    monkeypatch.setattr(harness, "run_experiment", check)
    with pytest.raises(Stop):
        harness.cmd_train(cfg, out)


@pytest.fixture(scope="module")
def corpus40(tmp_path_factory):
    """A generated and patchified corpus of 40-pixel patches, four per scene."""
    out = tmp_path_factory.mktemp("corpus40")
    cfg = mini_config()
    cfg["dataset"].update(height=80, width=80)
    cfg["patch"].update(height=40, width=40)
    harness.cmd_generate(cfg, out)
    harness.cmd_patchify(cfg, out)
    return cfg, out


@pytest.mark.parametrize("pool_target, factor", [(40, 1), (20, 2), (14, 3)])
def test_pooled_assembly_is_the_pooled_raw_assembly_bit_for_bit(corpus40, pool_target, factor):
    cfg, out = corpus40
    cfg = {**cfg, "model": {**cfg["model"], "pool_target": pool_target}}
    spec = harness.model_spec_from_config(cfg)
    assert spec.pool_factor == factor
    raw, _ = harness.build_split_data(cfg, out)
    pooled, _ = harness.build_split_data(cfg, out, spec)
    for tau in cfg["patch"]["taus"]:
        for r, q in zip(raw[tau], pooled[tau]):
            assert r.x.dtype == np.float32 and q.x.dtype == np.float64
            assert q.x.shape == (r.size, *spec.pooled_shape, spec.channels)
            assert q.x.tobytes() == model.pool(spec, r.x).tobytes()
            assert q.y.tobytes() == r.y.tobytes() and q.groups.tobytes() == r.groups.tobytes()


def test_build_split_data_detects_a_stale_index(tiny_run):
    cfg, out = tiny_run
    index = out / "patches" / "patch_index.jsonl"
    original = index.read_text()
    try:
        lines = original.splitlines()
        doc = json.loads(lines[0])
        doc["label"] = 1 - doc["label"]
        lines[0] = json.dumps(doc, sort_keys=True)
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="re-run patchify"):
            harness.build_split_data(cfg, out)
        # a row moved to another split: its scene would no longer go into one split whole
        doc["label"] = 1 - doc["label"]
        doc["split"] = "val" if doc["split"] != "val" else "test"
        lines[0] = json.dumps(doc, sort_keys=True)
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="re-run patchify"):
            harness.build_split_data(cfg, out)
        index.write_text("\n".join(original.splitlines()[:-1]) + "\n")
        with pytest.raises(ValidationError, match="re-run patchify"):
            harness.build_split_data(cfg, out)
    finally:
        index.write_text(original)


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_generate_and_patchify(tmp_path):
    cfg = mini_config()
    path = _write_config(tmp_path, cfg)
    assert cli_main(["generate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    assert cli_main(["patchify", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "patches" / "patch_index.jsonl").exists()


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["generate", "--config", str(missing), "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    cfg = mini_config()
    cfg["dataset"]["images"] = -4
    assert cli_main(["generate", "--config", str(_write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 2
    assert "dataset.images" in capsys.readouterr().err

    cfg = mini_config()
    cfg["dataset"]["rim_thickness"] = float("inf")  # written as Infinity, which json reads back
    assert cli_main(["generate", "--config", str(_write_config(tmp_path, cfg)), "--out", str(tmp_path)]) == 2
    assert "dataset.rim_thickness" in capsys.readouterr().err


def test_cli_reports_a_malformed_patch_index(tmp_path, capsys):
    cfg = mini_config()
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli_main(["generate", "--config", str(path), "--out", str(out)]) == 0
    assert cli_main(["patchify", "--config", str(path), "--out", str(out)]) == 0
    index = out / "patches" / "patch_index.jsonl"
    lines = index.read_text().splitlines()
    first = json.loads(lines[0])
    cases = {
        "truncated": (lines[:-1] + [lines[-1][: len(lines[-1]) // 2]], len(lines)),
        "missing field": ([json.dumps({k: v for k, v in first.items() if k != "label"})] + lines[1:], 1),
        "unknown field": ([json.dumps({**first, "stain": 1})] + lines[1:], 1),
        "unknown split": ([json.dumps({**first, "split": "holdout"})] + lines[1:], 1),
    }
    for name, (corrupt, lineno) in cases.items():
        index.write_text("\n".join(corrupt) + "\n")
        capsys.readouterr()
        assert cli_main(["analyze", "--config", str(path), "--out", str(out)]) == 2, name
        assert f"error: {index}:{lineno}: " in capsys.readouterr().err, name


def test_each_cli_stage_validates_the_config_once(tiny_run, tmp_path, monkeypatch):
    cfg, out = tiny_run
    path = _write_config(tmp_path, cfg)
    real = harness.validate_config
    calls = []
    monkeypatch.setattr(harness, "validate_config", lambda config: calls.append(config) or real(config))
    for stage in ("generate", "patchify", "analyze", "train", "report"):
        calls.clear()
        assert cli_main([stage, "--config", str(path), "--out", str(out)]) == 0, stage
        assert len(calls) == 1, stage


@pytest.mark.parametrize("patch", [{"height": 24, "width": 24}, {"epsilon": 0.2}], ids=["size", "epsilon"])
def test_analyze_and_assembly_refuse_an_index_from_another_patch_section(tmp_path, capsys, patch):
    cfg = mini_config()
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli_main(["generate", "--config", str(path), "--out", str(out)]) == 0
    assert cli_main(["patchify", "--config", str(path), "--out", str(out)]) == 0
    changed = mini_config()
    changed["patch"].update(patch)
    changed_path = tmp_path / "changed.json"
    changed_path.write_text(json.dumps(changed))
    capsys.readouterr()
    assert cli_main(["analyze", "--config", str(changed_path), "--out", str(out)]) == 2
    assert "(run_manifest.json has no matching patchify entry); run patchify first" in capsys.readouterr().err
    assert not (out / "analysis").exists()
    with pytest.raises(ValidationError, match="run patchify first"):
        harness.build_split_data(changed, out)
    assert cli_main(["analyze", "--config", str(path), "--out", str(out)]) == 0


def test_cli_analyze_rejects_malformed_predictions(tiny_run, tmp_path, capsys):
    cfg, out = tiny_run
    path = _write_config(tmp_path, cfg)
    lines = (out / "train" / "erm_bca_tau0.1" / "trial0" / "test_predictions.csv").read_text().splitlines()
    image_id, row, col, label, pred = lines[2].split(",")
    cases = {
        "non-integer pred": f"{image_id},{row},{col},{label},x",
        "pred outside 0/1": f"{image_id},{row},{col},{label},2",
        "negative pred": f"{image_id},{row},{col},{label},-1",
        "non-integer grid_row": f"{image_id},{row}.5,{col},{label},{pred}",
        "empty grid_col": f"{image_id},{row},,{label},{pred}",
        "short row": f"{image_id},{row}",
    }
    bad = tmp_path / "predictions.csv"
    for name, line in cases.items():
        bad.write_text("\n".join(lines[:2] + [line] + lines[3:]) + "\n")
        capsys.readouterr()
        args = ["analyze", "--config", str(path), "--out", str(out), "--predictions", str(bad)]
        assert cli_main(args) == 2, name
        assert f"error: {bad}:3: " in capsys.readouterr().err, name


def test_cli_stages_refuse_a_malformed_run_manifest_before_any_work(tmp_path, capsys):
    path = _write_config(tmp_path, mini_config())
    out = tmp_path / "run"
    assert cli_main(["generate", "--config", str(path), "--out", str(out)]) == 0
    manifest = out / "run_manifest.json"
    for text in ("{", "[]", '{"stages": 1}', '{"config_hash": "x"}'):
        manifest.write_text(text)
        for stage in ("patchify", "train"):
            capsys.readouterr()
            assert cli_main([stage, "--config", str(path), "--out", str(out)]) == 2, (text, stage)
            assert f"error: run manifest {manifest} is malformed" in capsys.readouterr().err, (text, stage)
        assert sorted(p.name for p in out.iterdir()) == ["dataset", "run_manifest.json"], text
        assert manifest.read_text() == text


def test_cli_honors_the_output_env_var(tiny_run, tmp_path, monkeypatch):
    cfg, out = tiny_run
    path = _write_config(tmp_path, cfg)
    monkeypatch.setenv(harness.ENV_OUT_ROOT, str(out))
    table = out / "report" / "final_table.csv"
    before = table.read_text()
    assert cli_main(["report", "--config", str(path)]) == 0
    assert table.read_text() == before


@pytest.mark.parametrize("section, key", [("train", "epochs"), ("model", "k1")])
def test_cli_report_refuses_results_from_another_config(tiny_run, tmp_path, capsys, section, key):
    cfg, out = tiny_run
    changed = json.loads(json.dumps(cfg))
    changed[section][key] += 1
    path = _write_config(tmp_path, changed)
    table, manifest = out / "report" / "final_table.csv", out / "run_manifest.json"
    before = table.read_bytes(), manifest.read_bytes()
    capsys.readouterr()
    assert cli_main(["report", "--config", str(path), "--out", str(out)]) == 2
    assert "model, train sections (run_manifest.json has no matching train entry); run train first" in (
        capsys.readouterr().err
    )
    assert (table.read_bytes(), manifest.read_bytes()) == before


@pytest.mark.parametrize(
    "field, value",
    [("dataset.noise_sigma", 0.08), ("patch.epsilon", 0.2), ("analysis.n_bins", 21), ("model.k1", 9),
     ("train.epochs", 4)],
)
def test_each_stage_reads_only_its_own_sections(tiny_run, tmp_path, capsys, field, value):
    cfg, out = _copy_run(tiny_run, tmp_path)
    section, key = field.split(".")
    changed = json.loads(json.dumps(cfg))
    assert changed[section][key] != value
    changed[section][key] = value
    path = _write_config(tmp_path, changed)
    table = out / "report" / "final_table.csv"
    before = table.read_bytes()
    capsys.readouterr()
    analyzed = cli_main(["analyze", "--config", str(path), "--out", str(out)])
    refused = "run patchify first" in capsys.readouterr().err
    # analyze reads the dataset and patch sections through the index, and its own
    assert (analyzed, refused) == ((2, True) if section in ("dataset", "patch") else (0, False))
    reported = cli_main(["report", "--config", str(path), "--out", str(out)])
    refused = "run train first" in capsys.readouterr().err
    if section == "analysis":  # train's output is not made from it, so no retrain
        assert (reported, refused) == (0, False)
        assert table.read_bytes() == before
    else:
        assert (reported, refused) == (2, True)


def test_cli_report_refuses_results_that_are_not_json(tiny_run, tmp_path, capsys):
    cfg, out = _copy_run(tiny_run, tmp_path)
    (out / "train" / "results.json").write_text("{")
    capsys.readouterr()
    assert cli_main(["report", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert "are unreadable or not JSON; run train first" in capsys.readouterr().err


def test_cli_report_refuses_missing_results_under_a_matching_train_entry(tiny_run, tmp_path, capsys):
    cfg, out = _copy_run(tiny_run, tmp_path)
    (out / "train" / "results.json").unlink()
    capsys.readouterr()
    assert cli_main(["report", "--config", str(_write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert "are unreadable or not JSON; run train first" in capsys.readouterr().err


def test_report_requires_train_results(tmp_path):
    with pytest.raises(ValidationError, match="run train first"):
        harness.cmd_report(tiny_config(), tmp_path)
