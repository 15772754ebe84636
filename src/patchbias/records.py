"""Patch index records and their JSON-lines persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .atomicio import open_atomic
from .errors import ValidationError


def tau_key(tau: float) -> str:
    """Canonical string key for a threshold, e.g. 0.1 -> "0.1"."""
    return repr(float(tau))


@dataclass
class PatchRecord:
    image_id: str
    grid_row: int
    grid_col: int
    split: str
    label: int
    r_tumor: float
    r_tumor_tissue: float | None
    r_tissue: float
    tissue_pixels: int
    r_tissue_inferred: float | None = None
    z: dict[str, int] = field(default_factory=dict)
    group: dict[str, int] = field(default_factory=dict)

    def group_at(self, tau: float) -> int:
        key = tau_key(tau)
        if key not in self.group:
            raise ValidationError(
                f"patch index has no group column for tau={key}; "
                f"available: {sorted(self.group)}"
            )
        return self.group[key]

    def to_dict(self) -> dict:
        return {
            "image_id": self.image_id,
            "grid_row": self.grid_row,
            "grid_col": self.grid_col,
            "split": self.split,
            "label": self.label,
            "r_tumor": self.r_tumor,
            "r_tumor_tissue": self.r_tumor_tissue,
            "r_tissue": self.r_tissue,
            "tissue_pixels": self.tissue_pixels,
            "r_tissue_inferred": self.r_tissue_inferred,
            "z": self.z,
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PatchRecord":
        return cls(**doc)


def write_patch_index(records: Iterable[PatchRecord], path: str | Path) -> int:
    """One JSON object per line; returns the record count.

    The index replaces `path` only once every record is written: if `records`
    raises midway, the previous index stays as it was.
    """
    n = 0
    with open_atomic(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def read_patch_index(path: str | Path) -> list[PatchRecord]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"patch index not found: {path}")
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(PatchRecord.from_dict(json.loads(line)))
    return records
