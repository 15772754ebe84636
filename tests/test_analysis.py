"""Conditional ratio histograms with prediction overlays, and co-occurrence reports."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchbias.analysis import (
    RATIO_KINDS,
    bias_report,
    bin_index,
    histogram,
    write_histogram_csv,
)
from patchbias.errors import ValidationError
from patchbias.records import PatchRecord


def _record(label, r_tumor=0.0, r_tissue=0.0, r_tumor_tissue=None, i=0):
    return PatchRecord(
        image_id=f"img{i:03d}", grid_row=0, grid_col=i, split="test", label=label,
        r_tumor=r_tumor, r_tumor_tissue=r_tumor_tissue, r_tissue=r_tissue,
        tissue_pixels=0,
    )


def _records_from_values(values, label=1, kind="tumor"):
    recs = []
    for i, v in enumerate(values):
        kwargs = {"tumor": "r_tumor", "tissue": "r_tissue", "tumor_tissue": "r_tumor_tissue"}[kind]
        recs.append(_record(label, i=i, **{kwargs: v}))
    return recs


def test_point_mass_lands_in_the_first_bin():
    hist = histogram(_records_from_values([0.0] * 7), "tumor", 1, n_bins=4)
    assert hist.counts.tolist() == [7, 0, 0, 0]
    assert hist.mass.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_two_bin_worked_example():
    hist = histogram(_records_from_values([0.1, 0.1, 0.6, 0.9]), "tumor", 1, n_bins=2)
    assert hist.counts.tolist() == [2, 2]
    assert hist.mass.tolist() == [0.5, 0.5]
    assert hist.bin_edges.tolist() == [0.0, 0.5, 1.0]


def test_interior_edge_goes_to_the_right_bin():
    hist = histogram(_records_from_values([0.5]), "tumor", 1, n_bins=2)
    assert hist.counts.tolist() == [0, 1]


def test_last_bin_is_closed_at_one():
    hist = histogram(_records_from_values([1.0, 0.999]), "tumor", 1, n_bins=10)
    assert hist.counts[-1] == 2


def test_binning_matches_edge_comparison_oracle():
    rng = np.random.default_rng(11)
    for trial in range(50):
        n_bins = int(rng.integers(1, 30))
        values = rng.random(int(rng.integers(1, 120)))
        if trial % 3 == 0:
            values = np.round(values * n_bins) / n_bins  # force edge hits
        hist = histogram(_records_from_values(values), "tumor", 1, n_bins=n_bins)
        edges = hist.bin_edges
        expected = np.zeros(n_bins, dtype=np.int64)
        for v in values:
            hits = [
                b for b in range(n_bins)
                if (edges[b] <= v < edges[b + 1]) or (b == n_bins - 1 and v == edges[-1])
            ]
            assert len(hits) == 1  # bins partition [0, 1]
            expected[hits[0]] += 1
        np.testing.assert_array_equal(hist.counts, expected)
        assert hist.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_bin_index_scalar_contract():
    edges = np.arange(5, dtype=np.float64) / 4
    assert bin_index(0.0, edges) == 0
    assert bin_index(0.25, edges) == 1  # interior edge -> right bin
    assert bin_index(0.9999, edges) == 3
    assert bin_index(1.0, edges) == 3  # closed last bin


def test_condition_filters_by_label():
    recs = _records_from_values([0.2, 0.4], label=1) + _records_from_values([0.8], label=0)
    hist = histogram(recs, "tumor", 1, n_bins=2)
    assert hist.n_matching == 2
    assert hist.counts.tolist() == [2, 0]


def test_undefined_ratios_are_excluded_and_counted():
    recs = [
        _record(1, r_tumor_tissue=0.5, i=0),
        _record(1, r_tumor_tissue=None, i=1),  # no tissue in the patch
        _record(1, r_tumor_tissue=None, i=2),
        _record(1, r_tumor_tissue=1.0, i=3),
    ]
    hist = histogram(recs, "tumor_tissue", 1, n_bins=2)
    assert hist.n_excluded == 2
    assert hist.n_matching == 4
    assert hist.counts.sum() == 2
    assert hist.n_matching > 0


def test_empty_histogram_is_flagged_not_an_error():
    hist = histogram(_records_from_values([0.3, 0.7], label=0), "tumor", 1, n_bins=4)
    assert hist.n_matching == 0
    assert hist.counts.sum() == 0
    assert np.all(hist.mass == 0.0)


def test_histogram_input_validation():
    recs = _records_from_values([0.5])
    with pytest.raises(ValidationError, match="ratio kind"):
        histogram(recs, "density", 1)
    with pytest.raises(ValidationError, match="label"):
        histogram(recs, "tumor", 2)
    with pytest.raises(ValidationError, match="n_bins"):
        histogram(recs, "tumor", 1, n_bins=0)
    with pytest.raises(ValidationError, match="outside"):
        histogram(_records_from_values([1.5]), "tumor", 1)


def test_overlay_perfect_predictor():
    recs = _records_from_values([0.05, 0.4, 0.8, 0.9])
    labels = np.array([r.label for r in recs])
    out = histogram(recs, "tumor", 1, n_bins=4, preds=labels)
    filled = out.counts > 0
    assert np.all(out.correct_fraction[filled] == 1.0)
    assert np.all(out.incorrect_fraction[filled] == 0.0)
    assert np.all(np.isnan(out.correct_fraction[~filled]))


def test_overlay_constant_wrong_predictor():
    recs = _records_from_values([0.1, 0.6])
    out = histogram(recs, "tumor", 1, n_bins=2, preds=np.zeros(2, dtype=int))
    assert out.correct_fraction.tolist() == [0.0, 0.0]
    assert out.incorrect_fraction.tolist() == [1.0, 1.0]


def test_overlay_fractions_sum_to_one_on_filled_bins():
    rng = np.random.default_rng(12)
    recs = _records_from_values(rng.random(60))
    out = histogram(recs, "tumor", 1, n_bins=8, preds=rng.integers(0, 2, 60))
    filled = out.counts > 0
    np.testing.assert_allclose(
        out.correct_fraction[filled] + out.incorrect_fraction[filled], 1.0, atol=1e-12
    )
    # the counts and mass do not depend on the predictions
    plain = histogram(recs, "tumor", 1, n_bins=8)
    np.testing.assert_array_equal(out.counts, plain.counts)
    np.testing.assert_array_equal(out.mass, plain.mass)
    assert plain.correct_fraction is None and plain.incorrect_fraction is None


def test_overlay_mixed_example_by_hand():
    recs = _records_from_values([0.1, 0.2, 0.9])
    out = histogram(recs, "tumor", 1, n_bins=2, preds=np.array([1, 0, 1]))
    assert out.correct_fraction.tolist() == [0.5, 1.0]
    assert out.incorrect_fraction.tolist() == [0.5, 0.0]


def test_overlay_rejects_misaligned_inputs():
    recs = _records_from_values([0.1, 0.9])
    with pytest.raises(ValidationError, match="shape"):
        histogram(recs, "tumor", 1, n_bins=2, preds=np.zeros(3, dtype=int))
    with pytest.raises(ValidationError, match="shape"):
        histogram(recs, "tumor", 1, n_bins=2, preds=np.zeros((2, 1), dtype=int))


_FIELDS = {"tumor": "r_tumor", "tumor_tissue": "r_tumor_tissue", "tissue": "r_tissue"}


@st.composite
def _histogram_inputs(draw):
    """Records whose ratios sit on the bin edges (k/n, 0, 1) or between them, or are undefined."""
    n_bins = draw(st.integers(1, 12))
    on_edge = st.integers(0, n_bins).map(lambda k: k / n_bins)
    ratio = st.one_of(st.none(), on_edge, st.floats(0.0, 1.0))
    rows = draw(st.lists(st.tuples(st.integers(0, 1), ratio, st.integers(0, 1)), max_size=40))
    kind = draw(st.sampled_from(RATIO_KINDS))
    records = [
        _record(label, **{"r_tumor": 0.0, "r_tissue": 0.0, _FIELDS[kind]: value}, i=i)
        for i, (label, value, _) in enumerate(rows)
    ]
    return records, kind, draw(st.integers(0, 1)), n_bins, np.array([p for *_, p in rows], dtype=np.int64)


def _oracle(records, kind, condition, n_bins, preds):
    """Counts and correct counts per bin by direct comparison with the edges k/n_bins."""
    counts, correct = [0] * n_bins, [0] * n_bins
    excluded = 0
    for record, pred in zip(records, preds):
        value = getattr(record, _FIELDS[kind])
        if record.label != condition:
            continue
        if value is None:
            excluded += 1
            continue
        b = next(
            b for b in range(n_bins)
            if b / n_bins <= value < (b + 1) / n_bins or (b == n_bins - 1 and value == 1.0)
        )
        counts[b] += 1
        correct[b] += int(pred == record.label)
    return counts, correct, excluded


@settings(max_examples=200, deadline=None)
@given(_histogram_inputs())
def test_histogram_with_predictions_matches_a_brute_force_oracle(inputs):
    records, kind, condition, n_bins, preds = inputs
    counts, correct, excluded = _oracle(records, kind, condition, n_bins, preds)
    total = sum(counts)
    for given_preds in (None, preds):
        hist = histogram(records, kind, condition, n_bins, given_preds)
        assert hist.counts.tolist() == counts
        assert hist.n_excluded == excluded and hist.n_matching == total + excluded
        assert hist.mass.tolist() == [c / total if total else 0.0 for c in counts]
        if given_preds is None:
            assert hist.correct_fraction is None and hist.incorrect_fraction is None
            continue
        for b in range(n_bins):
            if counts[b]:
                assert hist.correct_fraction[b] == correct[b] / counts[b]
                assert hist.incorrect_fraction[b] == 1.0 - correct[b] / counts[b]
            else:
                assert np.isnan(hist.correct_fraction[b]) and np.isnan(hist.incorrect_fraction[b])


def test_bias_report_perfectly_aligned_proxy():
    recs = [_record(0, r_tissue=0.01, i=0)] * 6 + [_record(1, r_tissue=0.9, i=1)] * 4
    rep = bias_report(recs, tau=0.1)
    assert rep["alignment"] == 1.0
    assert rep["group_counts"] == {"y0_z0": 6, "y0_z1": 0, "y1_z0": 0, "y1_z1": 4}
    assert rep["label_positive_rate"] == 0.4
    assert rep["proxy_positive_rate"] == 0.4


def test_bias_report_independent_proxy_is_near_half():
    rng = np.random.default_rng(13)
    recs = [
        _record(int(rng.integers(0, 2)), r_tissue=float(rng.random()), i=i)
        for i in range(4000)
    ]
    rep = bias_report(recs, tau=0.5)
    assert 0.45 < rep["alignment"] < 0.55


def test_bias_report_counts_sum_and_threshold_matters():
    recs = [
        _record(0, r_tissue=0.05, i=0),
        _record(0, r_tissue=0.2, i=1),
        _record(1, r_tissue=0.05, i=2),
        _record(1, r_tissue=0.5, i=3),
    ]
    rep = bias_report(recs, tau=0.1)
    assert sum(rep["group_counts"].values()) == rep["n_records"] == 4
    assert rep["group_counts"] == {"y0_z0": 1, "y0_z1": 1, "y1_z0": 1, "y1_z1": 1}
    assert rep["alignment"] == 0.5
    looser = bias_report(recs, tau=0.03)
    assert looser["group_counts"] == {"y0_z0": 0, "y0_z1": 2, "y1_z0": 0, "y1_z1": 2}
    with pytest.raises(ValidationError, match="at least one"):
        bias_report([], tau=0.1)


def test_histogram_csv_round_trip(tmp_path):
    recs = _records_from_values([0.05, 0.05, 0.55, 1.0])
    hist = histogram(recs, "tumor", 1, n_bins=4)
    plain = tmp_path / "plain.csv"
    write_histogram_csv(hist, plain)
    rows = list(csv.DictReader(plain.open()))
    assert len(rows) == 4
    assert [int(r["count"]) for r in rows] == [2, 0, 1, 1]
    assert [r["correct_fraction"] for r in rows] == [""] * 4  # no overlay attached
    assert float(rows[0]["bin_left"]) == 0.0
    assert float(rows[-1]["bin_right"]) == 1.0
    assert sum(float(r["mass"]) for r in rows) == pytest.approx(1.0, abs=1e-6)

    out = histogram(recs, "tumor", 1, n_bins=4, preds=np.ones(4, dtype=int))
    withov = tmp_path / "overlay.csv"
    write_histogram_csv(out, withov)
    rows = list(csv.DictReader(withov.open()))
    assert rows[0]["correct_fraction"] == "1.000000"
    assert rows[1]["correct_fraction"] == ""  # empty bin stays blank
    assert rows[1]["incorrect_fraction"] == ""
