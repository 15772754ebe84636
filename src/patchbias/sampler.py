"""Mini-batch index streams for debiased and baseline training.

Three streams: a biased stream drawn uniformly over all records (so group
frequencies mirror the dataset), a group-balanced stream with largest-
remainder rounding of the per-group quota, and an epoch-permutation stream
for the ERM baseline. Every draw is a pure function of
(seed, stream, epoch, step); there is no hidden RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metrics import N_GROUPS

_STREAM_BIASED = 0
_STREAM_LESS_BIASED = 1
_STREAM_ERM = 2


def _rng(seed: int, stream: int, epoch: int, step: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream, epoch, step))))


@dataclass
class GroupedDataset:
    group_indices: tuple[np.ndarray, ...]  # record indices per group id
    seed: int

    @classmethod
    def from_group_ids(cls, group_ids: np.ndarray, seed: int) -> "GroupedDataset":
        group_ids = np.asarray(group_ids)
        if group_ids.ndim != 1:
            raise ValidationError("group ids must be a flat array")
        if group_ids.size and (group_ids.min() < 0 or group_ids.max() >= N_GROUPS):
            raise ValidationError("group ids must lie in 0..3")
        indices = tuple(np.flatnonzero(group_ids == g) for g in range(N_GROUPS))
        return cls(group_indices=indices, seed=seed)

    @property
    def size(self) -> int:
        return sum(len(ix) for ix in self.group_indices)


def balanced_group_counts(batch_size: int) -> tuple[int, ...]:
    """Per-group quota for a balanced batch: B//4 each, residue to low group ids."""
    base = batch_size // N_GROUPS
    residue = batch_size % N_GROUPS
    return tuple(base + (1 if g < residue else 0) for g in range(N_GROUPS))


def draw_biased(ds: GroupedDataset, batch_size: int, epoch: int = 0, step: int = 0) -> np.ndarray:
    """I.i.d. uniform draw over all records (with replacement)."""
    if batch_size < 1:
        raise ValidationError(f"batch size must be >= 1, got {batch_size}")
    n = ds.size
    if n == 0:
        raise ValidationError("cannot sample from an empty dataset")
    rng = _rng(ds.seed, _STREAM_BIASED, epoch, step)
    return rng.integers(0, n, size=batch_size)


def draw_less_biased(
    ds: GroupedDataset, batch_size: int, epoch: int = 0, step: int = 0
) -> np.ndarray:
    """Group-balanced draw; within-group sampling is uniform with replacement."""
    if batch_size < N_GROUPS:
        raise ValidationError(f"batch size must be >= {N_GROUPS}, got {batch_size}")
    for g, ix in enumerate(ds.group_indices):
        if len(ix) == 0:
            raise ValidationError(f"group {g} is empty; balanced sampling needs all four groups")
    rng = _rng(ds.seed, _STREAM_LESS_BIASED, epoch, step)
    parts = []
    for g, count in enumerate(balanced_group_counts(batch_size)):
        pool = ds.group_indices[g]
        parts.append(pool[rng.integers(0, len(pool), size=count)])
    return np.concatenate(parts)


def erm_steps_per_epoch(n_records: int, batch_size: int) -> int:
    return max(1, math.ceil(n_records / batch_size))


def draw_erm(ds: GroupedDataset, batch_size: int, epoch: int = 0, step: int = 0) -> np.ndarray:
    """Slice `step` of this epoch's permutation; the last slice may be short."""
    if batch_size < 1:
        raise ValidationError(f"batch size must be >= 1, got {batch_size}")
    n = ds.size
    if n == 0:
        raise ValidationError("cannot sample from an empty dataset")
    if step < 0 or step * batch_size >= n:
        raise ValidationError(f"step {step} out of range for {n} records at batch size {batch_size}")
    perm = _rng(ds.seed, _STREAM_ERM, epoch, 0).permutation(n)
    return perm[step * batch_size : (step + 1) * batch_size]
