"""Benchmark for patchbias: one workload per run, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from anywhere; the benchmark measures the ``src`` tree next to this
directory and keeps every file it writes under ``.perfbench/`` at the
checkout root. Each run sets its inputs up several times (untimed), then
repeats one workload iteration, each into a fresh out root, for about
``--seconds`` seconds and checks every iteration's output digest. With
``--trace 1`` iterations alternate untraced and traced, and the run reports
per-layer metrics instead of the end-to-end ones. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. See README.md next to this file for workloads and metrics.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread unless the caller chose otherwise. The workloads are
# serial; on a 2-core host a second BLAS thread made two grid iterations of
# one run differ by up to 18%, against under 2% with one thread. Must be set
# before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench"
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = ("grid", "trajectory", "corpus")
SETUP_REPEATS = 3
# two iterations at least: an unpinned seed is then still checked bit for bit,
# and a traced run has an untraced and a traced iteration
MIN_ITERATIONS = 2


@dataclass
class Iteration:
    index: int
    wall: float
    digest: str | None
    error: str | None
    traced: bool


class Untraced:
    iteration = 0

    def span(self, name: str):
        return contextlib.nullcontext()


def _quiet():
    # the package prints progress lines; keep them off the benchmark's stdout
    return contextlib.redirect_stdout(io.StringIO())


def blas_config() -> str:
    """OpenBLAS's runtime configuration string, which names the kernel core; else numpy's build info."""
    import numpy as np

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def provenance(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_1m": os.getloadavg()[0],
    }


def _pins(prov: dict, golden: dict) -> dict:
    """The workload -> seed -> digest table pinned for this numpy and BLAS, created if absent."""
    for pin in golden["pins"]:
        if pin["numpy"] == prov["numpy"] and pin["blas"] == prov["blas"]:
            return pin["digests"]
    golden["pins"].append({"numpy": prov["numpy"], "blas": prov["blas"], "digests": {}})
    return golden["pins"][-1]["digests"]


def measure(wl, config, state, scratch: Path, budget: float, tracer=None) -> list[Iteration]:
    """Closed loop: run iterations until the next one would end past `budget` seconds.

    With a tracer, iterations alternate untraced and traced, starting untraced,
    so both kinds see the same machine conditions.
    """
    done: list[Iteration] = []
    started = time.perf_counter()
    while True:
        index = len(done)
        traced = tracer is not None and index % 2 == 1
        run_tracer = tracer if traced else Untraced()
        run_tracer.iteration = index
        out = scratch / f"iter{index}"
        gc.collect()
        digest = error = None
        t0 = time.perf_counter()
        try:
            with tracer.installed() if traced else contextlib.nullcontext(), _quiet():
                result = wl.run(config, state, out, run_tracer)
            wall = time.perf_counter() - t0
            digest = wl.digest(result, out)
        except Exception as exc:  # a failing iteration is counted, not fatal
            wall = time.perf_counter() - t0
            error = "".join(traceback.format_exception_only(exc)).strip()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        result = None
        done.append(Iteration(index, wall, digest, error, traced))
        elapsed = time.perf_counter() - started
        if len(done) >= MIN_ITERATIONS and elapsed + elapsed / len(done) > budget:
            return done


def check(iterations: list[Iteration], pinned: str | None) -> None:
    """Mark iterations whose digest differs from the pin, or from the first digest when unpinned."""
    reference = pinned
    for it in iterations:
        if it.error is not None:
            continue
        if reference is None:
            reference = it.digest
        elif it.digest != reference:
            source = "pinned" if pinned else "first iteration's"
            it.error = f"output digest {it.digest} differs from the {source} digest {reference}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="record this run's digest in golden.json if unpinned")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads  # puts the checkout's src on sys.path first
        import spans
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED

    wl = workloads.WORKLOADS[args.workload]
    prov = provenance(args)
    if prov["loadavg_1m"] > prov["nproc"]:
        print(f"perfbench: warning: 1-minute load average {prov['loadavg_1m']:.2f} "
              f"exceeds {prov['nproc']} cores; timings will be noisy", file=sys.stderr)
    golden = json.loads(GOLDEN.read_text())
    pins = _pins(prov, golden)
    pinned = pins.get(args.workload, {}).get(str(args.seed))

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK / "tmp"))
    try:
        config = wl.configure(args.seed, False)
        prepare_times = []
        state = None
        for k in range(SETUP_REPEATS):
            state = None  # free the previous inputs before building the next ones
            gc.collect()
            t0 = time.perf_counter()
            with _quiet():
                state = wl.prepare(config, scratch / f"setup{k}")
            prepare_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(prepare_times)

        tracer = spans.Tracer() if args.trace else None
        iterations = measure(wl, config, state, scratch, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    check(iterations, pinned)
    failed = [it for it in iterations if it.error is not None]
    for it in failed:
        print(f"perfbench: iteration {it.index} failed: {it.error}", file=sys.stderr)
    ok_walls = [it.wall for it in iterations if it.error is None] or [it.wall for it in iterations]

    if args.trace:
        spec = workloads.harness.model_spec_from_config(config)
        flops, nbytes = spans.model_cost(spec)
        images, patches = workloads.corpus_size(config)
        traced_walls = {it.index: it.wall for it in iterations if it.traced}
        untraced_walls = [it.wall for it in iterations if not it.traced]
        metrics = spans.per_layer_metrics(tracer, {
            "images": images,
            "patches": patches,
            "flops_per_sample": flops,
            "bytes_per_sample": nbytes,
            "traced_walls": traced_walls,
            "overhead_s": statistics.median(traced_walls.values()) - statistics.median(untraced_walls),
        })
        spans_path = WORK / "spans" / f"{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        missing = [b for b in wl.required if tracer.binding_calls[b] == 0]
        if missing:
            print(f"perfbench: warning: traced bindings never called: {missing}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(ok_walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    digests = sorted({it.digest for it in iterations if it.digest})
    if args.pin and not failed and pinned is None and len(digests) == 1:
        pins.setdefault(args.workload, {})[str(args.seed)] = digests[0]
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: "
          f"{len(iterations)} iterations, {len(failed)} failed, "
          f"digest {'pinned' if pinned else 'unpinned, checked across iterations'}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {len(failed) / len(iterations):>16.6g} ratio")
    if args.trace:
        print(f"  spans written to {spans_path}")
    print("provenance: " + json.dumps({**prov, "digests": digests, "walls_s": [it.wall for it in iterations]}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(iterations),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
