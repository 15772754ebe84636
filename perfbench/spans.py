"""Span tracing and per-layer metrics for the patchbias benchmark.

The package imports names with ``from .x import y``, so a function is
wrapped at the binding its caller looks up (``training.loss_and_grad``,
``harness.load_scene``, ...), not where it is defined. Each call records one
span ``(iteration, id, parent, name, start_ns, end_ns)``; spans stay in memory
until the run writes them out. Wrappers are installed only around traced
iterations and removed after each.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from patchbias import harness, model, synthdata, training


class Tracer:
    """Span recorder with per-iteration counters; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.snapshot_digests: dict[int, set[bytes]] = defaultdict(set)
        self.binding_calls: dict[str, int] = defaultdict(int)
        self.iteration = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((self.iteration, sid, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        """A span around code in the benchmark itself, such as one CLI call."""
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def wrap(self, binding: str, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.binding_calls[binding] += 1
            sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every binding in BINDINGS with a traced wrapper, restoring them on exit."""
        saved = []
        try:
            for module, attr, name, hook in BINDINGS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                binding = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, self.wrap(binding, name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def add(self, key: str, amount: float) -> None:
        self.counters[(self.iteration, key)] += amount

    def write(self, path: Path) -> None:
        """One JSON array per span: iteration, id, parent (-1 = top level), name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[4] for s in self.spans), default=0)
        with path.open("w") as fh:
            for it, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([it, sid, parent, name, start - origin, end - origin]) + "\n")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _read_bytes(tracer, args, kwargs, result) -> None:
    tracer.add("tensorio.read_bytes", result.nbytes)


def _write_bytes(tracer, args, kwargs, result) -> None:
    tracer.add("tensorio.write_bytes", _arg(args, kwargs, 1, "array").nbytes)


def _predict_rows(tracer, args, kwargs, result) -> None:
    tracer.add("model.predict_rows", _arg(args, kwargs, 2, "batch").shape[0])


def _partition_patches(tracer, args, kwargs, result) -> None:
    tracer.add("patchgrid.patches", len(result))


def _snapshot_digests(tracer, args, kwargs, result) -> None:
    snapshots = _arg(args, kwargs, 0, "history").snapshots
    tracer.add("training.snapshot_evals", len(snapshots))
    seen = tracer.snapshot_digests[tracer.iteration]
    for values in snapshots:
        seen.add(hashlib.sha1(values.tobytes()).digest())


# (module, attribute, span name, hook). The attribute is the name the caller
# resolves at call time; a renamed or re-bound function fails getattr loudly.
BINDINGS = (
    (harness, "cmd_generate", "harness.generate", None),
    (harness, "cmd_patchify", "harness.patchify", None),
    (harness, "cmd_analyze", "harness.analyze", None),
    (harness, "build_split_data", "harness.split_assembly", None),
    (harness, "cmd_train", "harness.train", None),
    (harness, "cmd_report", "harness.report", None),
    (harness, "run_experiment", "training.run_experiment", None),
    (harness, "materialize", "synthdata.materialize", None),
    (harness, "load_scene", "synthdata.load_scene", None),
    (harness, "partition", "patchgrid.partition", _partition_patches),
    (harness, "compute_ratios", "composition.compute_ratios", None),
    (harness, "infer_tissue", "composition.infer_tissue", None),
    (harness, "write_patch_index", "records.write_index", None),
    (harness, "read_patch_index", "records.read_index", None),
    (harness, "histogram", "analysis.histogram", None),
    (harness, "bias_report", "analysis.bias_report", None),
    (synthdata, "generate_scene", "synthdata.generate_scene", None),
    (synthdata, "read_tensor", "tensorio.read", _read_bytes),
    (synthdata, "write_tensor", "tensorio.write", _write_bytes),
    (model, "write_tensor", "tensorio.write", _write_bytes),
    (training, "train_history", "training.trajectory", None),
    (training, "evaluate_outcome", "training.evaluate_outcome", None),
    (training, "select_checkpoint", "training.select", _snapshot_digests),
    (training, "erm_step", "training.step", None),
    (training, "gerne_step", "training.step", None),
    (training, "loss_and_grad", "model.loss_and_grad", None),
    (training, "predict", "model.predict", _predict_rows),
    (training, "evaluate", "metrics.evaluate", None),
    (training, "draw_erm", "sampler.draw", None),
    (training, "draw_biased", "sampler.draw", None),
    (training, "draw_less_biased", "sampler.draw", None),
)


def model_cost(spec) -> tuple[int, int]:
    """FLOPs and bytes of one loss_and_grad per sample, computed from the layer shapes.

    FLOPs count a multiply-add as two. Bytes count the float32 input read once
    plus every float64 array the forward and backward pass materialise.
    """
    f = spec.pool_factor
    hp, wp = spec.pooled_shape
    h1, w1 = (hp - 3) // 2 + 1, (wp - 3) // 2 + 1
    h2, w2 = (h1 - 3) // 2 + 1, (w1 - 3) // 2 + 1
    c, k1, k2 = spec.channels, spec.k1, spec.k2
    conv1 = 2 * h1 * w1 * 9 * c * k1
    conv2 = 2 * h2 * w2 * 9 * k1 * k2
    head = 2 * k2 * 2
    pool = hp * f * wp * f * c
    forward = pool + conv1 + conv2 + h2 * w2 * k2 + head
    # weight gradients of both convs and the head, the input gradient of conv2,
    # its col2im accumulation and the ReLU mask
    backward = conv1 + 2 * conv2 + 2 * head + 9 * h2 * w2 * k1 + h1 * w1 * k1
    input_elems = spec.input_height * spec.input_width * c
    upcast = input_elems if f > 1 else 0
    forward_arrays = upcast + hp * wp * c + h1 * w1 * (9 * c + 2 * k1) + h2 * w2 * (9 * k1 + k2)
    backward_arrays = h2 * w2 * 9 * k1 + 2 * h1 * w1 * k1
    return forward + backward, 4 * input_elems + 8 * (forward_arrays + backward_arrays)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class _Aggregate:
    """Per-iteration sums over the spans of the traced iterations."""

    def __init__(self, spans) -> None:
        by_id = {s[1]: s for s in spans}
        self.incl = defaultdict(float)  # (it, name) -> seconds, every span
        self.layer_self = defaultdict(float)  # (it, name) -> seconds outside other layers
        self.calls = defaultdict(int)  # (it, name)
        self.durations = defaultdict(list)  # name -> per-call ms, pooled over iterations
        self.top_level = defaultdict(float)  # it -> seconds in spans without a parent
        self.span_count = defaultdict(int)
        self.train_io = defaultdict(float)
        self.select = defaultdict(float)
        foreign = defaultdict(int)  # span id -> ns spent in nested spans of other layers
        child_named = defaultdict(int)  # (parent id, name) -> ns
        # spans are appended when they end, so children precede their parents
        for it, sid, parent, name, start, end in spans:
            dur = end - start
            parent_name = by_id[parent][3] if parent >= 0 else None
            if parent >= 0:
                foreign[parent] += dur if _layer(name) != _layer(parent_name) else foreign[sid]
                child_named[(parent, name)] += dur
            else:
                self.top_level[it] += dur / 1e9
            if parent_name is None or _layer(parent_name) != _layer(name):
                self.layer_self[(it, name)] += (dur - foreign[sid]) / 1e9
            self.incl[(it, name)] += dur / 1e9
            self.calls[(it, name)] += 1
            self.durations[name].append(dur / 1e6)
            self.span_count[it] += 1
            if name == "training.evaluate_outcome" or (
                name == "training.select" and parent_name != "training.evaluate_outcome"
            ):
                self.select[it] += dur / 1e9
            if name == "harness.train":
                inner = child_named[(sid, "training.run_experiment")] + child_named[(sid, "harness.split_assembly")]
                self.train_io[it] += (dur - inner) / 1e9

    def percentile(self, name: str, q: float) -> float:
        values = self.durations.get(name)
        return float(np.percentile(values, q)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name, unit, better, description, value for one iteration (agg, it, tracer, ctx)
# *_s under harness and training are inclusive phase times; the other *_s
# metrics are layer self time: span time minus nested spans of other layers.
PER_LAYER = (
    ("harness.generate_s", "s", "lower", "cmd_generate wall time", lambda a, i, t, c: a.incl[(i, "harness.generate")]),
    ("harness.patchify_s", "s", "lower", "cmd_patchify wall time", lambda a, i, t, c: a.incl[(i, "harness.patchify")]),
    ("harness.analyze_s", "s", "lower", "cmd_analyze wall time", lambda a, i, t, c: a.incl[(i, "harness.analyze")]),
    ("harness.split_assembly_s", "s", "lower", "build_split_data wall time",
     lambda a, i, t, c: a.incl[(i, "harness.split_assembly")]),
    ("harness.train_s", "s", "lower", "cmd_train wall time", lambda a, i, t, c: a.incl[(i, "harness.train")]),
    ("harness.train_io_s", "s", "lower", "cmd_train minus run_experiment minus split assembly",
     lambda a, i, t, c: a.train_io[i]),
    ("harness.report_s", "s", "lower", "cmd_report wall time", lambda a, i, t, c: a.incl[(i, "harness.report")]),
    ("training.trajectory_s", "s", "lower", "train_history wall time", lambda a, i, t, c: a.incl[(i, "training.trajectory")]),
    ("training.trajectories", "count", "lower", "train_history calls", lambda a, i, t, c: a.calls[(i, "training.trajectory")]),
    ("training.steps", "count", "lower", "erm_step and gerne_step calls", lambda a, i, t, c: a.calls[(i, "training.step")]),
    ("training.step_ms_p50", "ms", "lower", "median step time", lambda a, i, t, c: a.percentile("training.step", 50)),
    ("training.step_ms_p90", "ms", "lower", "90th percentile step time", lambda a, i, t, c: a.percentile("training.step", 90)),
    ("training.select_s", "s", "lower", "checkpoint selection and test evaluation wall time", lambda a, i, t, c: a.select[i]),
    ("training.select_calls", "count", "lower", "select_checkpoint calls", lambda a, i, t, c: a.calls[(i, "training.select")]),
    ("training.snapshot_evals", "count", "lower", "epoch snapshots evaluated by select_checkpoint",
     lambda a, i, t, c: t.counters[(i, "training.snapshot_evals")]),
    ("training.snapshot_unique_ratio", "ratio", "higher", "distinct snapshot digests over snapshot evaluations",
     lambda a, i, t, c: _ratio(len(t.snapshot_digests[i]), t.counters[(i, "training.snapshot_evals")])),
    ("model.loss_and_grad_calls", "count", "lower", "loss_and_grad calls", lambda a, i, t, c: a.calls[(i, "model.loss_and_grad")]),
    ("model.loss_and_grad_s", "s", "lower", "time in loss_and_grad", lambda a, i, t, c: a.layer_self[(i, "model.loss_and_grad")]),
    ("model.loss_and_grad_ms_p50", "ms", "lower", "median loss_and_grad time",
     lambda a, i, t, c: a.percentile("model.loss_and_grad", 50)),
    ("model.loss_and_grad_ms_p90", "ms", "lower", "90th percentile loss_and_grad time",
     lambda a, i, t, c: a.percentile("model.loss_and_grad", 90)),
    ("model.predict_calls", "count", "lower", "predict calls", lambda a, i, t, c: a.calls[(i, "model.predict")]),
    ("model.predict_rows", "count", "lower", "patches predicted", lambda a, i, t, c: t.counters[(i, "model.predict_rows")]),
    ("model.predict_s", "s", "lower", "time in predict", lambda a, i, t, c: a.layer_self[(i, "model.predict")]),
    ("model.flops_per_sample", "flop_computed", "lower", "loss_and_grad FLOPs per sample, computed from ClassifierSpec",
     lambda a, i, t, c: c["flops_per_sample"]),
    ("model.bytes_per_sample", "B_computed", "lower", "loss_and_grad bytes per sample, computed from ClassifierSpec",
     lambda a, i, t, c: c["bytes_per_sample"]),
    ("sampler.draw_s", "s", "lower", "time in the three draw functions", lambda a, i, t, c: a.layer_self[(i, "sampler.draw")]),
    ("sampler.draws", "count", "lower", "batch index draws", lambda a, i, t, c: a.calls[(i, "sampler.draw")]),
    ("metrics.evaluate_s", "s", "lower", "time in evaluate", lambda a, i, t, c: a.layer_self[(i, "metrics.evaluate")]),
    ("metrics.evaluate_calls", "count", "lower", "evaluate calls", lambda a, i, t, c: a.calls[(i, "metrics.evaluate")]),
    ("synthdata.materialize_s", "s", "lower", "materialize outside tensor writes",
     lambda a, i, t, c: a.layer_self[(i, "synthdata.materialize")]),
    ("synthdata.scenes", "count", "lower", "generate_scene calls", lambda a, i, t, c: a.calls[(i, "synthdata.generate_scene")]),
    ("synthdata.load_scene_s", "s", "lower", "load_scene outside tensor reads",
     lambda a, i, t, c: a.layer_self[(i, "synthdata.load_scene")]),
    ("synthdata.load_scene_per_image", "ratio", "lower", "load_scene calls per corpus image",
     lambda a, i, t, c: _ratio(a.calls[(i, "synthdata.load_scene")], c["images"])),
    ("tensorio.read_s", "s", "lower", "time in read_tensor", lambda a, i, t, c: a.layer_self[(i, "tensorio.read")]),
    ("tensorio.read_bytes", "B", "lower", "payload bytes read", lambda a, i, t, c: t.counters[(i, "tensorio.read_bytes")]),
    ("tensorio.write_s", "s", "lower", "time in write_tensor", lambda a, i, t, c: a.layer_self[(i, "tensorio.write")]),
    ("tensorio.write_bytes", "B", "lower", "payload bytes written", lambda a, i, t, c: t.counters[(i, "tensorio.write_bytes")]),
    ("patchgrid.partition_s", "s", "lower", "time in partition", lambda a, i, t, c: a.layer_self[(i, "patchgrid.partition")]),
    ("patchgrid.patches", "count", "lower", "patches returned by partition", lambda a, i, t, c: t.counters[(i, "patchgrid.patches")]),
    ("composition.infer_tissue_s", "s", "lower", "time in infer_tissue",
     lambda a, i, t, c: a.layer_self[(i, "composition.infer_tissue")]),
    ("composition.compute_ratios_s", "s", "lower", "time in compute_ratios",
     lambda a, i, t, c: a.layer_self[(i, "composition.compute_ratios")]),
    ("composition.calls_per_patch", "ratio", "lower", "infer_tissue calls per corpus patch",
     lambda a, i, t, c: _ratio(a.calls[(i, "composition.infer_tissue")], c["patches"])),
    ("records.write_index_s", "s", "lower", "write_patch_index outside the scene, grid and composition calls it drives",
     lambda a, i, t, c: a.layer_self[(i, "records.write_index")]),
    ("records.read_index_s", "s", "lower", "time in read_patch_index", lambda a, i, t, c: a.layer_self[(i, "records.read_index")]),
    ("records.read_index_calls", "count", "lower", "read_patch_index calls", lambda a, i, t, c: a.calls[(i, "records.read_index")]),
    ("analysis.histogram_s", "s", "lower", "time in histogram", lambda a, i, t, c: a.layer_self[(i, "analysis.histogram")]),
    ("analysis.bias_report_s", "s", "lower", "time in bias_report", lambda a, i, t, c: a.layer_self[(i, "analysis.bias_report")]),
    ("trace.wall_s", "s", "lower", "traced iteration wall time", lambda a, i, t, c: c["traced_walls"][i]),
    ("trace.overhead_s", "s", "lower", "median traced wall time minus median untraced wall time, same run",
     lambda a, i, t, c: c["overhead_s"]),
    ("trace.top_level_s", "s", "lower", "sum of top-level spans", lambda a, i, t, c: a.top_level[i]),
    ("trace.unaccounted_s", "s", "lower", "traced wall time not covered by top-level spans",
     lambda a, i, t, c: c["traced_walls"][i] - a.top_level[i]),
    ("trace.spans", "count", "lower", "spans recorded", lambda a, i, t, c: a.span_count[i]),
)


def per_layer_metrics(tracer: Tracer, context: dict) -> dict[str, dict]:
    """Median over traced iterations of every PER_LAYER metric.

    `context` holds images, patches, flops_per_sample, bytes_per_sample,
    traced_walls (iteration -> seconds) and overhead_s.
    """
    agg = _Aggregate(tracer.spans)
    iterations = sorted(context["traced_walls"])
    out = {}
    for name, unit, _, _, value in PER_LAYER:
        values = [float(value(agg, it, tracer, context)) for it in iterations]
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out
