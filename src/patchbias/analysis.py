"""Descriptive statistics over patch records: ratio histograms with an
optional prediction overlay, and label/proxy co-occurrence summaries.

Histograms bin a composition ratio over [0, 1] conditioned on the patch
label. Bins are half-open [a, b) with the last bin closed, so a ratio
exactly on an interior edge lands in the right-hand bin. Records whose ratio
is undefined (tumor share of tissue on a patch with no tissue) are excluded
and counted. Given a prediction per record, a histogram also splits each
bin's records into correctly and incorrectly classified fractions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    preds: np.ndarray | None = None,
) -> ConditionalHistogram:
    """Distribution of one ratio over records with the given label.

    With `preds`, one prediction per record aligned index for index with
    `records`, each bin also gets the fractions of its records predicted
    correctly and incorrectly; bins with no records get NaN fractions.
    """
    if ratio_kind not in RATIO_KINDS:
        raise ValidationError(f"unknown ratio kind {ratio_kind!r}, expected one of {RATIO_KINDS}")
    if condition_label not in (0, 1):
        raise ValidationError(f"condition label must be 0 or 1, got {condition_label}")
    if n_bins < 1:
        raise ValidationError("n_bins must be >= 1")
    if preds is not None:
        preds = np.asarray(preds)
        if preds.shape != (len(records),):
            raise ValidationError(f"predictions must have shape ({len(records)},) to align with the records")

    edges = np.arange(n_bins + 1, dtype=np.float64) / n_bins
    counts = np.zeros(n_bins, dtype=np.int64)
    correct = np.zeros(n_bins, dtype=np.int64)
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
        if preds is not None and preds[pos] == record.label:
            correct[b] += 1

    total = int(counts.sum())
    mass = counts / total if total else np.zeros(n_bins, dtype=np.float64)
    correct_fraction = incorrect_fraction = None
    if preds is not None:
        with np.errstate(invalid="ignore"):
            correct_fraction = correct / counts
        incorrect_fraction = np.where(counts > 0, 1.0 - correct_fraction, np.nan)
    return ConditionalHistogram(
        condition_label=condition_label,
        bin_edges=edges,
        counts=counts,
        mass=mass,
        n_matching=total + excluded,
        n_excluded=excluded,
        correct_fraction=correct_fraction,
        incorrect_fraction=incorrect_fraction,
    )


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
    """One row per bin; overlay columns are blank when absent or undefined."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
