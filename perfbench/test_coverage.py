"""Self-tests of the benchmark: the traced path at a tiny size, and BENCHMARK.json.

    python3 -m pytest perfbench -q

A renamed or re-bound package function then fails here instead of reporting
zero seconds in the traced run.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import workloads  # puts the checkout's src on sys.path first
import spans

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _label(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_workload_calls_every_required_binding(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    config = wl.configure(0, True)
    tracer = spans.Tracer()
    originals = [getattr(module, attr) for module, attr, _, _ in spans.BINDINGS]
    with contextlib.redirect_stdout(io.StringIO()):
        state = wl.prepare(config, tmp_path / "setup")
        with tracer.installed():
            result = wl.run(config, state, tmp_path / "out", tracer)
    assert [getattr(module, attr) for module, attr, _, _ in spans.BINDINGS] == originals

    missing = [b for b in wl.required if tracer.binding_calls[b] == 0]
    assert not missing, f"{name}: wrapped functions never called: {missing}"
    assert {s[3] for s in tracer.spans if s[2] < 0} == set(wl.top_level)
    assert len(wl.digest(result, tmp_path / "out")) == 64

    images, patches = workloads.corpus_size(config)
    flops, nbytes = spans.model_cost(workloads.harness.model_spec_from_config(config))
    metrics = spans.per_layer_metrics(tracer, {
        "images": images, "patches": patches,
        "flops_per_sample": flops, "bytes_per_sample": nbytes,
        "traced_walls": {0: 1.0}, "overhead_s": 0.0,
    })
    assert set(metrics) == {m[0] for m in spans.PER_LAYER}
    if name != "trajectory":
        # the split assembly replays patchify, so every patch is inferred twice
        assert metrics["composition.calls_per_patch"]["value"] == 2.0
        assert metrics["synthdata.load_scene_per_image"]["value"] == 2.0


def test_required_bindings_exist():
    labels = {_label(module, attr) for module, attr, _, _ in spans.BINDINGS}
    for wl in workloads.WORKLOADS.values():
        assert set(wl.required) <= labels


def test_self_time_excludes_nested_spans_of_other_layers():
    tracer = spans.Tracer()
    # iteration, id, parent, name, start_ns, end_ns; children end first
    tracer.spans = [
        (0, 2, 1, "tensorio.read", 15, 35),
        (0, 1, 0, "synthdata.load_scene", 10, 40),
        (0, 3, 0, "composition.infer_tissue", 50, 60),
        (0, 0, -1, "records.write_index", 0, 100),
    ]
    agg = spans._Aggregate(tracer.spans)
    assert agg.layer_self[(0, "records.write_index")] == pytest.approx(60e-9)
    assert agg.layer_self[(0, "synthdata.load_scene")] == pytest.approx(10e-9)
    assert agg.layer_self[(0, "tensorio.read")] == pytest.approx(20e-9)
    assert agg.top_level[0] == pytest.approx(100e-9)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in spans.PER_LAYER
    ]
