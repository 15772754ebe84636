#!/usr/bin/env bash
# Verify a checkout: the tier-1 tests, the benchmark self-tests, the
# benchmark's output check on every workload (and on the trajectory workload
# once more, pinned to one core), the package's import time, the
# demos and, with --full, a run of the default config checked against the
# golden fingerprint in ROADMAP.md, then an analysis-only edit that analyze
# and report must take without a retrain and a skipped generate beside a
# planted staging tree, after which the out root must hold no dot-entry.
#
#   scripts/verify.sh          # tier-1 tests + perfbench self-tests and output check + demos (about 3 min on 2 cores)
#   scripts/verify.sh --full   # also the default pipeline in a temporary out root (about 2 min more)
#
# Exits non-zero on the first failing step or on a fingerprint mismatch. The
# fingerprint holds for numpy 2.4.6 with OpenBLAS 0.3.31 (SkylakeX core); the
# default run uses one BLAS thread unless OPENBLAS_NUM_THREADS is set.
set -euo pipefail

RESULTS_SHA256=87b1284f0cf4cacaeacc15b56ce21acb756bb1f1d5ea850ff2d0b284a345b260
TABLE_SHA256=fa904d0439f3924ec362917cf98bee14c2946b2e4e842c11ba96552b638bdbb0

full=0
case "${1:-}" in
  "") ;;
  --full) full=1 ;;
  *) echo "usage: $0 [--full]" >&2; exit 2 ;;
esac

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests"
python -m pytest -q --continue-on-collection-errors
echo "== benchmark self-tests"
python3 -m pytest perfbench -q
# one short run per workload at seed 0, whose digest perfbench/golden.json
# pins; the last line of a run reports whether every iteration's output matched,
# and its peak_rss_mb is printed for information, with no bound
echo "== benchmark output check"
for workload in grid trajectory corpus; do
  last=$(python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 1 2>&1 | tail -n 1)
  case "$last" in
    *'"correct": true'*)
      rss=$(python3 -c 'import json, sys; print("%.1f" % json.loads(sys.argv[1])["metrics"]["peak_rss_mb"]["value"])' "$last")
      echo "ok       $workload (peak $rss MB)" ;;
    *) echo "FAILED   $workload: $last" >&2; exit 1 ;;
  esac
done
# pinned to one core, a lone GERNE trajectory computes both gradients itself
# instead of in a forked helper; both paths must give the pinned digest
last=$(taskset -c 0 python3 perfbench/run.py --workload trajectory --seed 0 --seconds 1 2>&1 | tail -n 1)
case "$last" in
  *'"correct": true'*) echo "ok       trajectory on one core (taskset -c 0)" ;;
  *) echo "FAILED   trajectory on one core (taskset -c 0): $last" >&2; exit 1 ;;
esac
# informational, no bound: the benchmark's grid and corpus setup_s is almost
# all import time
echo "== import time (cumulative, median of 5 fresh interpreters)"
python3 - <<'PY'
import statistics, subprocess, sys

cumulative_us = {"patchbias": [], "numpy": []}
for _ in range(5):
    cmd = [sys.executable, "-X", "importtime", "-c", "import patchbias"]
    # each stderr line reads "import time: <self us> | <cumulative us> | <package>"
    for line in subprocess.run(cmd, capture_output=True, text=True, check=True).stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() in cumulative_us:
            cumulative_us[fields[2].strip()].append(int(fields[1]))
for name, us in cumulative_us.items():
    print("%-9s %7.1f ms" % (name, statistics.median(us) / 1000))
PY
echo "== demos"
for demo in demos/*.py; do
  echo "$demo"
  python3 "$demo" > /dev/null
done

if [ "$full" = 0 ]; then
  exit 0
fi

echo "== default config against the golden fingerprint"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
python3 -c 'import json, sys; from patchbias.harness import default_config; json.dump(default_config(), open(sys.argv[1], "w"))' "$out/config.json"
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
for stage in generate patchify analyze train report; do
  python3 -m patchbias "$stage" --config "$out/config.json" --out "$out/run" > /dev/null
done

# peak RSS and minor faults are the stage process's ru_maxrss and ru_minflt:
# the caller only, not its forked helpers. The train stage holds only the
# pooled split arrays (86.4 MB on the default config), so its peak stays under
# 180 MB. With the allocator primed (training._ALLOCATOR_PRIMER_BYTES) its
# per-step temporaries are reused, so its minor faults stay under 100,000;
# when each temporary is mapped anew they run to millions.
echo "== stage seconds, peak RSS and minor faults (run_manifest.json)"
status=0
python3 -c '
import json, sys
stages = json.load(open(sys.argv[1]))["stages"]
for name in ("generate", "patchify", "analyze", "train", "report"):
    s = stages[name]
    print("%-9s %8.2f s on %d worker(s), peak %7.1f MB, %8d minor faults"
          % (name, s["seconds"], s["workers"], s["peak_rss_mb"], s["minflt"]))
train = stages["train"]
if train["peak_rss_mb"] > 180 or train["minflt"] > 100000:
    sys.exit("OVER     train stage: peak %.1f MB (bound 180), %d minor faults (bound 100000)"
             % (train["peak_rss_mb"], train["minflt"]))
print("ok       train stage peak <= 180 MB and minor faults <= 100000")
' "$out/run/run_manifest.json" || status=1

check() {
  local got
  got=$(sha256sum "$out/run/$1" | cut -d' ' -f1)
  if [ "$got" = "$2" ]; then
    echo "ok       $1 $got"
  else
    echo "MISMATCH $1 $got, expected $2" >&2
    status=1
  fi
}
check train/results.json "$RESULTS_SHA256"
check report/final_table.csv "$TABLE_SHA256"

# train reads no analysis field, so its run-manifest entry still vouches for
# train/ after this edit: report must give the same table and leave the
# results untouched (seconds, against a full retrain)
echo "== analysis.n_bins 21: analyze and report without a retrain"
cp "$out/run/train/results.json" "$out/results.before.json"
python3 -c 'import json, sys; from patchbias.harness import default_config; c = default_config(); c["analysis"]["n_bins"] = 21; json.dump(c, open(sys.argv[1], "w"))' "$out/n_bins21.json"
for stage in analyze report; do
  python3 -m patchbias "$stage" --config "$out/n_bins21.json" --out "$out/run" > /dev/null
done
check report/final_table.csv "$TABLE_SHA256"
if cmp -s "$out/run/train/results.json" "$out/results.before.json"; then
  echo "ok       train/results.json unchanged"
else
  echo "CHANGED  train/results.json" >&2
  status=1
fi

# a generate that finds the dataset complete skips, and it still deletes the
# staging tree a killed generate left; plant one for the check below
echo "== generate skips and sweeps a killed generate's staging tree"
mkdir -p "$out/run/.dataset.999999.tmp/images"
printed=$(python3 -m patchbias generate --config "$out/config.json" --out "$out/run")
case "$printed" in
  *skipping*) echo "ok       generate skipped" ;;
  *) echo "NOT SKIPPED $printed" >&2; status=1 ;;
esac

# each stage builds its directory beside it and swaps it in whole, so after a
# clean run the out root holds no staging tree (.<name>.<pid>.tmp or .old)
leftover=$(find "$out/run" -mindepth 1 -maxdepth 1 -name '.*')
if [ -z "$leftover" ]; then
  echo "ok       no dot-entries in the out root"
else
  echo "LEFTOVER $leftover" >&2
  status=1
fi
exit "$status"
