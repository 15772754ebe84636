"""Acceptance gate: one test per shipped guarantee.

Each test prints a [PASS]/[FAIL] line with the measured quantities so a log
scan shows where the build stands. The experiment-level criteria share one
full default-config pipeline run via a module fixture.
"""

import hashlib
import time

import numpy as np
import pytest
from test_golden import skip_unless_pinned_runtime
from test_model import relu_margin

from patchbias import harness
from patchbias.analysis import histogram
from patchbias.composition import compute_ratios
from patchbias.metrics import evaluate
from patchbias.model import ClassifierSpec, init_params, loss_and_grad
from patchbias.patchgrid import binary_label
from patchbias.records import PatchRecord
from patchbias.sampler import (
    GroupedDataset,
    draw_biased,
    draw_less_biased,
    erm_steps_per_epoch,
)
from patchbias.synthdata import TissueClass
from patchbias.training import SplitData, gerne_step, sgd_update, train_history


def _check(ok: bool, criterion: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --- 1: analytic gradients vs central finite differences ---------------------


def test_criterion_1_gradient_oracle():
    spec = ClassifierSpec(input_height=16, input_width=16, channels=1, k1=3, k2=4, pool_target=16)
    started = time.monotonic()
    h = 1e-5
    worst = 0.0
    pairs = 0
    rng = np.random.default_rng(20240815)
    while pairs < 20:
        params = init_params(
            ClassifierSpec(16, 16, 1, k1=3, k2=4, pool_target=16, seed=int(rng.integers(1 << 30)))
        )
        params += rng.normal(0.0, 0.02, params.size)
        batch = rng.random((4, 16, 16, 1)).astype(np.float32)
        labels = rng.integers(0, 2, 4)
        if relu_margin(spec, params, batch) < 10 * h:
            continue  # resample: finite differences must not straddle a ReLU kink
        _, grad = loss_and_grad(spec, params, batch, labels)
        fd = np.empty_like(grad)
        work = params.copy()
        for i in range(params.size):
            orig = work[i]
            work[i] = orig + h
            lp, _ = loss_and_grad(spec, work, batch, labels)
            work[i] = orig - h
            lm, _ = loss_and_grad(spec, work, batch, labels)
            work[i] = orig
            fd[i] = (lp - lm) / (2.0 * h)
        denom = np.maximum.reduce([np.abs(grad), np.abs(fd), np.full_like(fd, 1e-6)])
        worst = max(worst, float((np.abs(grad - fd) / denom).max()))
        pairs += 1
    elapsed = time.monotonic() - started
    _check(
        worst < 1e-4 and elapsed < 30.0,
        "criterion 1 (gradient oracle)",
        f"max rel error {worst:.2e} over {pairs} (theta, batch) pairs in {elapsed:.1f}s",
    )


# --- 2: labeling, ratios, and histogram binning vs brute force ---------------


def _brute_counts(mask):
    tumor = healthy = 0
    for v in mask.ravel().tolist():
        if v == int(TissueClass.TUMOR):
            tumor += 1
        elif v == int(TissueClass.HEALTHY):
            healthy += 1
    return tumor, healthy, mask.size


def test_criterion_2_pipeline_oracle():
    rng = np.random.default_rng(77)
    records = []
    mismatches = 0
    for i in range(1000):
        h, w = rng.integers(1, 13, 2)
        mask = rng.integers(0, 3, (h, w)).astype(np.uint8)
        tumor, healthy, total = _brute_counts(mask)
        tissue = tumor + healthy

        label_ok = binary_label(mask) == (1 if tumor > 0 else 0)

        r = compute_ratios(mask)
        ratio_ok = (
            r.r_tumor == tumor / total
            and r.r_tissue == tissue / total
            and r.tissue_pixels == tissue
            and (r.r_tumor_tissue is None if tissue == 0 else r.r_tumor_tissue == tumor / tissue)
        )
        mismatches += int(not (label_ok and ratio_ok))
        records.append(PatchRecord(
            image_id=f"m{i}", grid_row=0, grid_col=i, split="test",
            label=1 if tumor > 0 else 0,
            r_tumor=r.r_tumor, r_tumor_tissue=r.r_tumor_tissue,
            r_tissue=r.r_tissue, tissue_pixels=r.tissue_pixels,
        ))

    hist_ok = True
    for kind, label in (("tumor", 1), ("tissue", 0), ("tumor_tissue", 1)):
        for n_bins in (1, 7, 20):
            hist = histogram(records, kind, label, n_bins=n_bins)
            edges = hist.bin_edges
            expected = np.zeros(n_bins, dtype=np.int64)
            for rec in records:
                if rec.label != label:
                    continue
                v = {"tumor": rec.r_tumor, "tissue": rec.r_tissue,
                     "tumor_tissue": rec.r_tumor_tissue}[kind]
                if v is None:
                    continue
                for b in range(n_bins):
                    if (edges[b] <= v < edges[b + 1]) or (b == n_bins - 1 and v == edges[-1]):
                        expected[b] += 1
                        break
            total = expected.sum()
            mass = expected / total if total else np.zeros(n_bins)
            hist_ok = hist_ok and np.array_equal(hist.counts, expected) and np.array_equal(hist.mass, mass)

    _check(
        mismatches == 0 and hist_ok,
        "criterion 2 (pipeline oracle)",
        f"{mismatches} label/ratio mismatches on 1000 masks; histogram masses exact: {hist_ok}",
    )


# --- 3: beta limits reduce to single-stream training, bitwise ----------------

_BETA_SPEC = ClassifierSpec(input_height=8, input_width=8, channels=1, k1=2, k2=3, pool_target=8)


def _beta_split(n, seed):
    rng = np.random.default_rng(seed)
    groups = np.arange(n, dtype=np.int64) % 4
    y = groups // 2
    x = np.where(y == 1, 0.5, -0.5)[:, None, None, None] + rng.normal(0.0, 0.05, (n, 8, 8, 1))
    return SplitData(x=x.astype(np.float32), y=y, groups=groups)


def _single_stream_trajectory(split, draw, *, seed, epochs, batch_size, lr, momentum):
    """Plain SGD on one batch stream, recording parameters after every step."""
    from dataclasses import replace

    spec = replace(_BETA_SPEC, seed=seed)
    params = init_params(spec)
    velocity = np.zeros_like(params)
    ds = GroupedDataset.from_group_ids(split.groups, seed)
    steps = erm_steps_per_epoch(split.size, batch_size)
    trajectory = []
    for epoch in range(1, epochs + 1):
        for step in range(steps):
            idx = draw(ds, batch_size, epoch, step)
            _, grad = loss_and_grad(spec, params, split.x[idx], split.y[idx])
            params, velocity = sgd_update(params, velocity, grad, lr, momentum)
            trajectory.append(params)
    return trajectory


def _gerne_trajectory(split, beta, *, seed, epochs, batch_size, lr, momentum):
    from dataclasses import replace

    spec = replace(_BETA_SPEC, seed=seed)
    params = init_params(spec)
    velocity = np.zeros_like(params)
    ds = GroupedDataset.from_group_ids(split.groups, seed)
    steps = erm_steps_per_epoch(split.size, batch_size)
    trajectory = []
    for epoch in range(1, epochs + 1):
        for step in range(steps):
            idx_b = draw_biased(ds, batch_size, epoch, step)
            idx_lb = draw_less_biased(ds, batch_size, epoch, step)
            params, velocity, _, _ = gerne_step(
                spec, params, velocity,
                split.x[idx_b], split.y[idx_b], split.x[idx_lb], split.y[idx_lb],
                beta=beta, lr=lr, momentum=momentum,
            )
            trajectory.append(params)
    return trajectory


def test_criterion_3_beta_limit_equivalence():
    split = _beta_split(64, 31)
    kwargs = dict(seed=11, epochs=25, batch_size=16, lr=0.05, momentum=0.9)  # 4 steps x 25 epochs

    matches = {}
    for beta, draw in ((0.0, draw_less_biased), (-1.0, draw_biased)):
        gerne = _gerne_trajectory(split, beta, **kwargs)
        solo = _single_stream_trajectory(split, draw, **kwargs)
        assert len(gerne) == len(solo) == 100
        matches[beta] = all(np.array_equal(a, b) for a, b in zip(gerne, solo))

    # the shipped epoch-level loop agrees with the per-step replay above
    history = train_history(
        _BETA_SPEC, "gerne", split, beta=0.0,
        seed=kwargs["seed"], epochs=kwargs["epochs"], batch_size=kwargs["batch_size"],
        lr=kwargs["lr"], momentum=kwargs["momentum"],
    )
    gerne0 = _gerne_trajectory(split, 0.0, **kwargs)
    loop_ok = all(np.array_equal(history.snapshots[e], gerne0[4 * e + 3]) for e in range(25))

    _check(
        matches[0.0] and matches[-1.0] and loop_ok,
        "criterion 3 (beta limits)",
        f"100-step bitwise match: beta=0 {matches[0.0]}, beta=-1 {matches[-1.0]}, "
        f"training loop consistent: {loop_ok}",
    )


# --- 4-6: the default experiment ---------------------------------------------


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_run")
    cfg = harness.default_config()
    started = time.monotonic()
    harness.cmd_generate(cfg, out)
    harness.cmd_patchify(cfg, out)
    harness.cmd_analyze(cfg, out)
    report = harness.cmd_train(cfg, out)
    harness.cmd_report(cfg, out)
    elapsed = time.monotonic() - started
    return cfg, out, report, elapsed


# the golden fingerprint of the default config (see ROADMAP.md and scripts/verify.sh)
DEFAULT_RESULTS_SHA256 = "87b1284f0cf4cacaeacc15b56ce21acb756bb1f1d5ea850ff2d0b284a345b260"
DEFAULT_TABLE_SHA256 = "fa904d0439f3924ec362917cf98bee14c2946b2e4e842c11ba96552b638bdbb0"


def test_default_run_matches_the_golden_fingerprint(default_run):
    skip_unless_pinned_runtime()
    _, out, _, _ = default_run
    got = [
        hashlib.sha256((out / rel).read_bytes()).hexdigest()
        for rel in ("train/results.json", "report/final_table.csv")
    ]
    _check(
        got == [DEFAULT_RESULTS_SHA256, DEFAULT_TABLE_SHA256],
        "default fingerprint",
        f"results.json {got[0]}, final_table.csv {got[1]}",
    )


def test_criterion_4_directional_reproduction(default_run):
    import json

    cfg, out, report, elapsed = default_run
    n_images = cfg["dataset"]["images"]
    alignment = json.loads((out / "analysis" / "bias_tau0.1.json").read_text())["alignment"]

    lines = []
    ok = n_images >= 200 and alignment > 0.8 and elapsed < 1800.0
    lines.append(f"{n_images} images, alignment {alignment}, pipeline {elapsed:.0f}s")
    for tau in (0.1, 0.03):
        gerne = report.cell("gerne", "wga", tau)
        erm_wga = report.cell("erm", "wga", tau)
        erm_bca = report.cell("erm", "bca", tau)
        wga_gain = gerne.wga_mean - erm_wga.wga_mean
        bca_drop = max(erm_bca.bca_mean, erm_wga.bca_mean) - gerne.bca_mean
        ok = ok and wga_gain >= 0.05 and bca_drop <= 0.05
        lines.append(
            f"tau={tau}: gerne wga {gerne.wga_mean:.4f} vs erm {erm_wga.wga_mean:.4f} "
            f"(gain {wga_gain:+.4f}), bca drop {bca_drop:+.4f}, beta={gerne.beta}"
        )
    _check(ok, "criterion 4 (directional reproduction)", "; ".join(lines))


def test_criterion_5_model_selection_effect(default_run):
    _, _, report, _ = default_run
    by_wga = report.cell("erm", "wga", 0.1).outcomes
    by_bca = report.cell("erm", "bca", 0.1).outcomes
    assert [t.seed for t in by_wga] == [t.seed for t in by_bca]
    wins = sum(a.test_eval.wga > b.test_eval.wga for a, b in zip(by_wga, by_bca))
    _check(
        wins >= 2,
        "criterion 5 (selection metric effect)",
        f"ERM/WGA beats ERM/BCA on test WGA in {wins} of {len(by_wga)} trials at tau=0.1",
    )


def test_criterion_6_bias_visualization(default_run):
    cfg, out, report, _ = default_run
    _, by_split = harness.build_split_data(cfg, out)
    test_records = by_split["test"]

    cell = report.cell("erm", "bca", 0.1)
    fractions = []
    for outcome in cell.outcomes:
        hist = histogram(test_records, "tumor", 1, cfg["analysis"]["n_bins"], outcome.test_preds)
        fractions.append(hist.correct_fraction)
    # filled bins are filled in every trial, so a plain mean keeps NaN only on empty bins
    avg = np.stack(fractions).mean(axis=0)
    filled = np.flatnonzero(~np.isnan(avg))
    lowest, highest = filled[0], filled[-1]
    gap = avg[highest] - avg[lowest]
    _check(
        gap >= 0.10,
        "criterion 6 (bias visualization)",
        f"ERM correct fraction {avg[lowest]:.4f} on the lowest r_tumor bin vs "
        f"{avg[highest]:.4f} on the highest; gap {gap:.4f} over {len(cell.outcomes)} trials",
    )


# --- 7: end-to-end determinism ------------------------------------------------


def test_criterion_7_byte_identical_reruns(tmp_path):
    cfg = harness.default_config()
    cfg["dataset"].update(images=80, height=96, width=96, seed=1001)
    cfg["patch"].update(height=32, width=32)
    cfg["train"].update(epochs=3, trials=1, beta=0.5, seed=5)

    tables = []
    extras = []
    for run in ("a", "b"):
        out = tmp_path / run
        table = harness.run_pipeline(cfg, out)
        tables.append(table.read_bytes())
        extras.append({
            rel.name: (out / "analysis" / rel.name).read_bytes()
            for rel in (out / "analysis").iterdir()
        } | {"results.json": (out / "train" / "results.json").read_bytes()})
    table_ok = tables[0] == tables[1]
    extras_ok = extras[0] == extras[1]
    _check(
        table_ok and extras_ok,
        "criterion 7 (determinism)",
        f"final tables byte-identical: {table_ok}; analysis and results files too: {extras_ok}",
    )


# --- 8: hand-computed metric fixtures -----------------------------------------


def _fixture(preds, labels, groups):
    return np.array(preds), np.array(labels), np.array(groups)


# each entry: (name, preds, labels, groups, expected wga, expected bca)
_METRIC_FIXTURES = [
    ("perfect", *_fixture([0, 1, 0, 1], [0, 1, 0, 1], [0, 2, 1, 3]), 1.0, 1.0),
    ("all_wrong", *_fixture([1, 0, 1, 0], [0, 1, 0, 1], [0, 2, 1, 3]), 0.0, 0.0),
    # group accs 1, 1, 0, 1 -> wga 0; class accs 1 and 1/2
    ("one_bad_group", *_fixture([0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 2, 3]), 0.0, 0.75),
    # class 0: 2/3 correct; class 1: 1/1; groups (0: 2/3, 2: 1/1)
    ("thirds", *_fixture([0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 2]), 2 / 3, (2 / 3 + 1) / 2),
    # imbalanced: class 0 has 6 samples at 5/6, class 1 has 2 at 1/2
    ("imbalanced",
     *_fixture([0, 0, 0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 0, 1, 1],
               [0, 0, 0, 1, 1, 1, 2, 2]),
     1 / 2, (5 / 6 + 1 / 2) / 2),
    # empty groups 1 and 3; wga over groups 0 (3/4) and 2 (1/2)
    ("empty_groups",
     *_fixture([0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 2, 2]),
     1 / 2, (3 / 4 + 1 / 2) / 2),
    # single class present: bca averages over class 0 alone
    ("single_class", *_fixture([0, 1, 0], [0, 0, 0], [0, 0, 1]), 1 / 2, 2 / 3),
    # duplication keeps the 1/3 ratios exact
    ("exact_thirds",
     *_fixture([1, 0, 0, 1, 0, 0], [1, 1, 1, 1, 1, 1], [2, 2, 2, 3, 3, 3]),
     1 / 3, 1 / 3),
    # wga strictly below bca: groups split class 1 into 1/2 and 1
    ("group_split",
     *_fixture([0, 0, 1, 0, 1, 1], [0, 0, 1, 1, 1, 1], [0, 0, 2, 2, 3, 3]),
     1 / 2, (1 + 3 / 4) / 2),
    # asymmetric sizes with every group populated
    ("mixed_sizes",
     *_fixture([0, 0, 1, 0, 1, 1, 1, 0, 0], [0, 0, 0, 1, 1, 1, 1, 0, 1],
               [0, 0, 1, 2, 2, 3, 3, 1, 2]),
     1 / 3, ((3 / 4) + (3 / 5)) / 2),
]


def test_criterion_8_metric_fixtures():
    failures = []
    for name, preds, labels, groups, want_wga, want_bca in _METRIC_FIXTURES:
        ev = evaluate(preds, labels, groups)
        if ev.wga != want_wga or ev.bca != want_bca:
            failures.append(f"{name}: got ({ev.wga}, {ev.bca}), want ({want_wga}, {want_bca})")
    _check(
        not failures,
        "criterion 8 (metric fixtures)",
        f"{len(_METRIC_FIXTURES) - len(failures)} of {len(_METRIC_FIXTURES)} exact"
        + ("; " + "; ".join(failures) if failures else ""),
    )
