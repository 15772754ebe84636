"""Patch index records and their JSON-lines persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import ValidationError
from .synthdata import SPLITS


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
        # vars, not dataclasses.asdict, which deep-copies every value and is ~50x slower
        return dict(vars(self))

    @classmethod
    def from_dict(cls, doc: dict) -> "PatchRecord":
        return cls(**doc)


def write_patch_index(records: Iterable[PatchRecord], path: str | Path) -> int:
    """One JSON object per line; returns the record count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True))
            fh.write("\n")
            n += 1
    return n


def read_patch_index(path: str | Path) -> list[PatchRecord]:
    """Every record of a JSON-lines index; a malformed line raises, naming the path and line number."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"patch index not found: {path}")
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:  # bad JSON, or a missing or unknown field
                record = PatchRecord.from_dict(json.loads(line))
            except (ValueError, TypeError) as exc:
                raise ValidationError(f"{path}:{lineno}: not a patch record ({exc}); re-run patchify") from None
            if record.split not in SPLITS:
                raise ValidationError(f"{path}:{lineno}: unknown split {record.split!r}; re-run patchify")
            records.append(record)
    return records
