"""Patch record serialization and the JSON-lines index."""

import pytest

from patchbias.errors import ValidationError
from patchbias.records import PatchRecord, read_patch_index, tau_key, write_patch_index


def make_record(i=0, split="train"):
    return PatchRecord(
        image_id=f"img{i}",
        grid_row=i,
        grid_col=i + 1,
        split=split,
        label=i % 2,
        r_tumor=0.25,
        r_tumor_tissue=0.5 if i % 2 else None,
        r_tissue=0.5,
        tissue_pixels=8,
        r_tissue_inferred=0.5,
        z={tau_key(0.1): 1, tau_key(0.03): 1},
        group={tau_key(0.1): 2 * (i % 2) + 1, tau_key(0.03): 2 * (i % 2) + 1},
    )


def test_tau_key_is_stable_and_distinct():
    assert tau_key(0.1) == "0.1"
    assert tau_key(0.03) == "0.03"
    assert tau_key(0.1) != tau_key(0.03)
    assert tau_key(0.1) == tau_key(0.100)


def test_round_trip_through_dict():
    rec = make_record(3)
    assert PatchRecord.from_dict(rec.to_dict()) == rec


def test_undefined_ratio_survives_round_trip():
    rec = make_record(0)
    assert rec.r_tumor_tissue is None
    assert PatchRecord.from_dict(rec.to_dict()).r_tumor_tissue is None


def test_index_file_round_trip(tmp_path):
    records = [make_record(i, split=s) for i, s in enumerate(("train", "val", "test"))]
    path = tmp_path / "index.jsonl"
    assert write_patch_index(records, path) == 3
    back = read_patch_index(path)
    assert back == records


def test_index_is_one_json_object_per_line(tmp_path):
    path = tmp_path / "index.jsonl"
    write_patch_index([make_record(i) for i in range(4)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("{") and line.endswith("}") for line in lines)


def test_missing_index_raises(tmp_path):
    with pytest.raises(ValidationError):
        read_patch_index(tmp_path / "nope.jsonl")


def test_group_at_unknown_tau_names_available_keys():
    rec = make_record(1)
    assert rec.group_at(0.1) == 3
    with pytest.raises(ValidationError, match="0.1"):
        rec.group_at(0.5)
