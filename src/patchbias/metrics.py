"""Worst-group and balanced-class accuracy from predictions and group ids.

All accuracies are exact integer ratios. Groups with no samples are
excluded from the worst-group minimum and flagged instead of dragging it
to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

N_GROUPS = 4


@dataclass(frozen=True)
class CountStat:
    correct: int
    total: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.total


@dataclass
class EvalResult:
    per_group: dict[int, CountStat]
    wga: float
    bca: float
    empty_groups: tuple[int, ...]

    def per_group_acc(self) -> dict[int, float]:
        return {g: s.accuracy for g, s in self.per_group.items()}


def evaluate(preds: np.ndarray, labels: np.ndarray, groups: np.ndarray) -> EvalResult:
    """Per-group accuracies, their min (WGA) and the unweighted mean of the class accuracies (BCA)."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    groups = np.asarray(groups)
    if not (len(preds) == len(labels) == len(groups)):
        raise ValidationError(
            f"length mismatch: preds={len(preds)}, labels={len(labels)}, groups={len(groups)}"
        )
    if len(preds) == 0:
        raise ValidationError("cannot evaluate zero samples")
    for name, arr in (("preds", preds), ("labels", labels)):
        if arr.min() < 0 or arr.max() > 1:
            raise ValidationError(f"{name} must be binary")
    if groups.min() < 0 or groups.max() >= N_GROUPS:
        raise ValidationError(f"group ids must lie in [0, {N_GROUPS})")

    correct = preds == labels
    per_group = {}
    empty = []
    for g in range(N_GROUPS):
        sel = groups == g
        total = int(sel.sum())
        if total == 0:
            empty.append(g)
            continue
        per_group[g] = CountStat(correct=int(correct[sel].sum()), total=total)

    class_acc = []
    for c in (0, 1):
        sel = labels == c
        total = int(sel.sum())
        if total:
            class_acc.append(int(correct[sel].sum()) / total)

    return EvalResult(
        per_group=per_group,
        wga=min(s.accuracy for s in per_group.values()),
        bca=sum(class_acc) / len(class_acc),
        empty_groups=tuple(empty),
    )
