"""Config handling, pipeline stages, on-disk artifacts, and the CLI front end."""

import builtins
import csv
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from patchbias import harness, model, parallel, synthdata
from patchbias.cli import main as cli_main
from patchbias.errors import ValidationError
from patchbias.model import load_checkpoint
from patchbias.patchgrid import PatchGridSpec, partition
from patchbias.synthdata import DatasetManifest, generate_scene


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
def tiny_run(tmp_path_factory):
    """One full pipeline pass shared by the artifact tests."""
    out = tmp_path_factory.mktemp("tinyrun")
    cfg = tiny_config()
    harness.cmd_generate(cfg, out)
    harness.cmd_patchify(cfg, out)
    harness.cmd_analyze(cfg, out)
    harness.cmd_train(cfg, out)
    harness.cmd_report(cfg, out)
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


def test_generate_writes_corpus_and_skips_reruns(tmp_path, capsys):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    dataset = tmp_path / "dataset"
    assert (dataset / "manifest.json").exists()
    assert len(list((dataset / "images").glob("*.pbt"))) == 3
    assert len(list((dataset / "masks").glob("*.pbt"))) == 3
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
    victim = next((tmp_path / "dataset" / "images").glob("*.pbt"))
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
    victim = next((tmp_path / "dataset" / "images").glob("*.pbt"))
    victim.unlink()
    with pytest.raises(ValidationError, match=f"missing dataset files.*{victim.name}"):
        harness.cmd_patchify(cfg, tmp_path)


def test_a_failed_regenerate_leaves_a_dataset_nothing_reads(tmp_path, monkeypatch):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    index = harness.cmd_patchify(cfg, tmp_path)
    before = index.read_bytes()
    changed = mini_config()
    changed["dataset"]["noise_sigma"] = 0.08
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
    with pytest.raises(OSError, match="disk full"):
        harness.cmd_generate(changed, tmp_path)
    # one scene is rewritten, the others are from the old section
    assert (tmp_path / "dataset" / "manifest.json").exists()
    assert not (tmp_path / "dataset" / "generate.json").exists()
    for config in (cfg, changed):
        with pytest.raises(ValidationError, match="generate.json is missing or names another.*run generate first"):
            harness.cmd_patchify(config, tmp_path)
        with pytest.raises(ValidationError, match="run generate first"):
            harness.build_split_data(config, tmp_path)
    assert index.read_bytes() == before


def test_patchify_and_assembly_refuse_a_dataset_from_another_section(tmp_path, capsys):
    cfg = mini_config()
    harness.cmd_generate(cfg, tmp_path)
    harness.cmd_patchify(cfg, tmp_path)
    changed = mini_config()
    changed["dataset"]["noise_sigma"] = 0.08
    with pytest.raises(ValidationError, match="not generated from this config's dataset section"):
        harness.cmd_patchify(changed, tmp_path)
    with pytest.raises(ValidationError, match="not generated from this config's dataset section"):
        harness.build_split_data(changed, tmp_path)
    # a marker that is not valid JSON vouches for nothing, and generate replaces it
    (tmp_path / "dataset" / "generate.json").write_text("{")
    with pytest.raises(ValidationError, match="not generated from this config's dataset section"):
        harness.cmd_patchify(cfg, tmp_path)
    capsys.readouterr()
    harness.cmd_generate(cfg, tmp_path)
    assert "generated 3 images" in capsys.readouterr().out
    harness.cmd_patchify(cfg, tmp_path)


def test_patch_index_matches_the_grid(tiny_run):
    cfg, out = tiny_run
    lines = (out / "patches" / "patch_index.jsonl").read_text().splitlines()
    manifest = DatasetManifest.load(out / "dataset" / "manifest.json")
    grid = PatchGridSpec(cfg["patch"]["height"], cfg["patch"]["width"])
    expected = 0
    for entry in manifest.entries[:5]:
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
    assert [p.name for p in index.parent.iterdir()] == ["patch_index.jsonl"]


def test_failed_analysis_write_keeps_the_previous_files(tiny_run, monkeypatch):
    cfg, out = tiny_run
    analysis = out / "analysis"
    before = {p.name: p.read_bytes() for p in analysis.iterdir()}
    real_replace = harness.os.replace

    def refuse_bias_reports(src, dst):
        if Path(dst).name.startswith("bias_tau"):
            raise OSError("disk full")
        real_replace(src, dst)

    # other bins change every histogram, so a histogram replaced before the
    # failing bias report would show up as a mix of two runs
    rerun = json.loads(json.dumps(cfg))
    rerun["analysis"]["n_bins"] = cfg["analysis"]["n_bins"] + 1
    monkeypatch.setattr(harness.os, "replace", refuse_bias_reports)
    with pytest.raises(OSError, match="disk full"):
        harness.cmd_analyze(rerun, out)
    assert {p.name: p.read_bytes() for p in analysis.iterdir()} == before


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


def test_train_artifacts(tiny_run):
    cfg, out = tiny_run
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
    for cell in results["cells"]:
        assert len(cell["trials"]) == cfg["train"]["trials"]
        cdir = out / "train" / harness.cell_dir_name(cell["method"], cell["eval_metric"], cell["tau"])
        for k in range(cfg["train"]["trials"]):
            tdir = cdir / f"trial{k}"
            epochs = tdir.joinpath("epochs.csv").read_text().splitlines()
            assert epochs[0] == "epoch,train_loss,val_wga,val_bca"
            assert len(epochs) == 1 + cfg["train"]["epochs"]
            spec, params = load_checkpoint(tdir / "checkpoint.pbt")
            assert spec.input_height == cfg["patch"]["height"]
            preds = list(csv.DictReader(tdir.joinpath("test_predictions.csv").open()))
            assert len(preds) == n_test
            assert {p["pred"] for p in preds} <= {"0", "1"}
            # the float32 checkpoint reproduces the predictions made from the float64 parameters
            reloaded = model.predict(spec, params, model.pool(spec, test.x))
            assert reloaded.tolist() == [int(p["pred"]) for p in preds]


@pytest.mark.parametrize("failure", ["checkpoint", "predictions", "swap"])
def test_failed_train_write_keeps_the_previous_trial_files(tiny_run, monkeypatch, failure):
    cfg, out = tiny_run
    # a rerun with another learning rate writes other bytes, so any mix of the two runs shows
    changed = json.loads(json.dumps(cfg))
    changed["train"]["lr"] = cfg["train"]["lr"] / 2
    train_dir = out / "train"

    def files():
        return {p.relative_to(train_dir): p.read_bytes() for p in train_dir.rglob("*") if p.is_file()}

    before = files()
    if failure == "checkpoint":
        def cut_short(path, array):
            Path(path).write_bytes(b"PBTENSR1")  # the header is out, then the disk fills
            raise OSError("disk full")

        monkeypatch.setattr(model, "write_tensor", cut_short)
    elif failure == "predictions":
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
    else:
        real_replace = harness.os.replace

        def refuse_swap(src, dst):
            # the new tree may not move in; moving the previous one back is allowed
            if Path(dst) == train_dir and Path(src).name.endswith(".tmp"):
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(harness.os, "replace", refuse_swap)
    with pytest.raises(OSError, match="disk full"):
        harness.cmd_train(changed, out)
    assert files() == before
    assert not [p.name for p in out.iterdir() if p.name.startswith(".train")]


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


def test_run_manifest_tracks_every_stage(tiny_run):
    cfg, out = tiny_run
    doc = json.loads((out / "run_manifest.json").read_text())
    assert doc["config_hash"] == harness.config_hash(cfg)
    assert set(doc["stages"]) == {"generate", "patchify", "analyze", "train", "report"}
    for stage in doc["stages"].values():
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


def test_train_frees_the_raw_split_arrays_before_training(tiny_run, monkeypatch):
    cfg, out = tiny_run
    cfg = {**cfg, "model": {**cfg["model"], "pool_target": 16}}  # pool factor 2
    real_build = harness.build_split_data
    raw = []

    class Stop(Exception):
        pass

    def build(config, out_root):
        data_by_tau, by_split = real_build(config, out_root)
        raw.extend(weakref.ref(split.x) for split in next(iter(data_by_tau.values())))
        return data_by_tau, by_split

    def check(model_spec, data_by_tau, config):
        assert len(raw) == 3 and [ref() for ref in raw] == [None] * 3
        pooled = (*model_spec.pooled_shape, model_spec.channels)
        assert {(s.x.dtype, s.x.shape[1:]) for splits in data_by_tau.values() for s in splits} == {
            (np.dtype(np.float64), pooled)
        }
        raise Stop

    monkeypatch.setattr(harness, "build_split_data", build)
    monkeypatch.setattr(harness, "run_experiment", check)
    with pytest.raises(Stop):
        harness.cmd_train(cfg, out)


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
        index.write_text("\n".join(lines[:-1]) + "\n")
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


def _malformed_manifests(manifest: Path) -> dict[str, str]:
    good = manifest.read_text()
    doc = json.loads(good)
    first, rest = doc["images"][0], doc["images"][1:]
    return {
        "truncated": good[: len(good) // 2],
        "missing key": json.dumps({**doc, "images": [{k: v for k, v in first.items() if k != "split"}] + rest}),
        "unknown field": json.dumps({**doc, "images": [{**first, "stain": 1}] + rest}),
        "unknown scene field": json.dumps({**doc, "images": [{**first, "spec": {**first["spec"], "x": 1}}] + rest}),
    }


def test_cli_patchify_reports_a_malformed_dataset_manifest(tmp_path, capsys):
    path = _write_config(tmp_path, mini_config())
    out = tmp_path / "run"
    assert cli_main(["generate", "--config", str(path), "--out", str(out)]) == 0
    manifest = out / "dataset" / "manifest.json"
    for name, text in _malformed_manifests(manifest).items():
        manifest.write_text(text)
        capsys.readouterr()
        assert cli_main(["patchify", "--config", str(path), "--out", str(out)]) == 2, name
        assert f"error: dataset manifest {manifest} is malformed" in capsys.readouterr().err, name


def test_cli_generate_replaces_a_malformed_dataset_manifest(tmp_path, capsys):
    path = _write_config(tmp_path, mini_config())
    out = tmp_path / "run"
    assert cli_main(["generate", "--config", str(path), "--out", str(out)]) == 0
    manifest = out / "dataset" / "manifest.json"
    good = manifest.read_text()
    for name, text in _malformed_manifests(manifest).items():
        manifest.write_text(text)
        capsys.readouterr()
        assert cli_main(["generate", "--config", str(path), "--out", str(out)]) == 0, name
        assert "generated 3 images" in capsys.readouterr().out, name
        assert manifest.read_text() == good, name
    assert cli_main(["patchify", "--config", str(path), "--out", str(out)]) == 0


def test_cli_honors_the_output_env_var(tiny_run, tmp_path, monkeypatch):
    cfg, out = tiny_run
    path = _write_config(tmp_path, cfg)
    monkeypatch.setenv(harness.ENV_OUT_ROOT, str(out))
    table = out / "report" / "final_table.csv"
    before = table.read_text()
    assert cli_main(["report", "--config", str(path)]) == 0
    assert table.read_text() == before


def test_report_requires_train_results(tmp_path):
    with pytest.raises(ValidationError, match="run train first"):
        harness.cmd_report(tiny_config(), tmp_path)
