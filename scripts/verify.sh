#!/usr/bin/env bash
# Verify a checkout: the tier-1 tests, the benchmark self-tests, the demos
# and, with --full, a run of the default config checked against the golden
# fingerprint in ROADMAP.md.
#
#   scripts/verify.sh          # tier-1 tests + perfbench self-tests + demos (about 5 min on 2 cores)
#   scripts/verify.sh --full   # also the default pipeline in a temporary out root (about 3 min more)
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

# peak RSS is the stage process's ru_maxrss: the caller only, not its forked helpers
echo "== stage seconds and peak RSS (run_manifest.json)"
python3 -c '
import json, sys
stages = json.load(open(sys.argv[1]))["stages"]
for name in ("generate", "patchify", "analyze", "train", "report"):
    s = stages[name]
    print("%-9s %8.2f s on %d worker(s), peak %7.1f MB" % (name, s["seconds"], s["workers"], s["peak_rss_mb"]))
' "$out/run/run_manifest.json"

status=0
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
exit "$status"
