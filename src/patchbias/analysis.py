"""Descriptive statistics over patch records: ratio histograms, prediction
overlays, and label/proxy co-occurrence summaries.

Histograms bin a composition ratio over [0, 1] conditioned on the patch
label. Bins are half-open [a, b) with the last bin closed, so a ratio
exactly on an interior edge lands in the right-hand bin. Records whose ratio
is undefined (tumor share of tissue on a patch with no tissue) are excluded
and counted. An overlay splits each bin's records into correctly and
incorrectly classified fractions for a given prediction vector.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .atomicio import open_atomic
from .composition import GROUP_NAMES, assign_group, binarize_spurious
from .errors import ValidationError
from .records import PatchRecord

RATIO_KINDS = ("tumor", "tumor_tissue", "tissue")


def _ratio_value(record: PatchRecord, kind: str) -> float | None:
    if kind == "tumor":
        return record.r_tumor
    if kind == "tumor_tissue":
        return record.r_tumor_tissue
    return record.r_tissue


@dataclass(frozen=True)
class ConditionalHistogram:
    condition_label: int
    bin_edges: np.ndarray  # (n_bins + 1,)
    counts: np.ndarray  # (n_bins,) int
    mass: np.ndarray  # (n_bins,) float, sums to 1 unless empty
    n_matching: int
    n_excluded: int  # matching records with an undefined ratio
    n_records_total: int
    record_indices: np.ndarray  # positions in the input record list, per binned record
    record_bins: np.ndarray  # bin index per binned record
    correct_fraction: np.ndarray | None = None
    incorrect_fraction: np.ndarray | None = None

    @property
    def n_bins(self) -> int:
        return self.counts.size


def bin_index(value: float, bin_edges: np.ndarray) -> int:
    """Half-open binning with a closed last bin."""
    idx = int(np.searchsorted(bin_edges, value, side="right")) - 1
    return min(max(idx, 0), bin_edges.size - 2)


def histogram(
    records: list[PatchRecord],
    ratio_kind: str,
    condition_label: int,
    n_bins: int = 20,
) -> ConditionalHistogram:
    """Distribution of one ratio over records with the given label."""
    if ratio_kind not in RATIO_KINDS:
        raise ValidationError(f"unknown ratio kind {ratio_kind!r}, expected one of {RATIO_KINDS}")
    if condition_label not in (0, 1):
        raise ValidationError(f"condition label must be 0 or 1, got {condition_label}")
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")

    edges = np.arange(n_bins + 1, dtype=np.float64) / n_bins
    counts = np.zeros(n_bins, dtype=np.int64)
    indices: list[int] = []
    bins: list[int] = []
    excluded = 0
    for pos, record in enumerate(records):
        if record.label != condition_label:
            continue
        value = _ratio_value(record, ratio_kind)
        if value is None:
            excluded += 1
            continue
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"ratio {value} outside [0, 1] for record at position {pos}")
        b = bin_index(value, edges)
        counts[b] += 1
        indices.append(pos)
        bins.append(b)

    total = int(counts.sum())
    mass = counts / total if total else np.zeros(n_bins, dtype=np.float64)
    return ConditionalHistogram(
        condition_label=condition_label,
        bin_edges=edges,
        counts=counts,
        mass=mass,
        n_matching=total + excluded,
        n_excluded=excluded,
        n_records_total=len(records),
        record_indices=np.asarray(indices, dtype=np.int64),
        record_bins=np.asarray(bins, dtype=np.int64),
    )


def overlay_predictions(
    hist: ConditionalHistogram, preds: np.ndarray, labels: np.ndarray
) -> ConditionalHistogram:
    """Attach per-bin correct/incorrect fractions for a classifier's predictions.

    preds and labels must align, index for index, with the record list the
    histogram was built from. Bins with no records get NaN fractions.
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != (hist.n_records_total,) or labels.shape != (hist.n_records_total,):
        raise ValidationError(
            f"predictions and labels must have shape ({hist.n_records_total},) to align with the records"
        )
    if hist.record_indices.size and not np.all(labels[hist.record_indices] == hist.condition_label):
        raise ValidationError("labels do not match the histogram's conditioning; misaligned inputs?")

    correct = np.zeros(hist.n_bins, dtype=np.int64)
    for pos, b in zip(hist.record_indices, hist.record_bins):
        if preds[pos] == labels[pos]:
            correct[b] += 1
    with np.errstate(invalid="ignore"):
        frac = correct / hist.counts
    incorrect = np.where(hist.counts > 0, 1.0 - frac, np.nan)
    return replace(hist, correct_fraction=frac, incorrect_fraction=incorrect)


def bias_report(records: list[PatchRecord], tau: float) -> dict:
    """Label/proxy co-occurrence at one threshold: group sizes and alignment.

    Alignment is the fraction of records where the binarized tissue share
    agrees with the label, i.e. how well tissue size predicts the label.
    """
    if not records:
        raise ValidationError("bias report needs at least one record")
    counts = [0] * len(GROUP_NAMES)
    label_pos = proxy_pos = agree = 0
    for record in records:
        z = binarize_spurious(record.r_tissue, tau)
        counts[assign_group(record.label, z)] += 1
        label_pos += record.label
        proxy_pos += z
        agree += int(z == record.label)
    n = len(records)
    return {
        "tau": tau,
        "n_records": n,
        "group_counts": dict(zip(GROUP_NAMES, counts)),
        "label_positive_rate": round(label_pos / n, 4),
        "proxy_positive_rate": round(proxy_pos / n, 4),
        "alignment": round(agree / n, 4),
    }


def write_histogram_csv(hist: ConditionalHistogram, path: str | Path) -> None:
    """One row per bin; overlay columns are blank when absent or undefined.

    The file is replaced in one step, so a failed write keeps the previous one.
    """
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["bin_left", "bin_right", "count", "mass", "correct_fraction", "incorrect_fraction"]
        )
        for i in range(hist.n_bins):
            row = [
                f"{hist.bin_edges[i]:.6f}",
                f"{hist.bin_edges[i + 1]:.6f}",
                int(hist.counts[i]),
                f"{hist.mass[i]:.6f}",
            ]
            for frac in (hist.correct_fraction, hist.incorrect_fraction):
                if frac is None or not np.isfinite(frac[i]):
                    row.append("")
                else:
                    row.append(f"{frac[i]:.6f}")
            writer.writerow(row)
