#!/usr/bin/env bash
# Self-test of the benchmark, from the repository root:
#   bash perfbench/selftest.sh
# 1. Negative control: each workload passes its correctness checks as
#    is, and reports failures (correct=false, failed>0, ok_share<1) when
#    one expected answer is corrupted after set-up.
# 2. An untraced run refuses to start while LCL_WORKERS is set.
# 3. run.sh fails, without a result line, in a directory holding only
#    BENCHMARK.json and perfbench/.
set -euo pipefail

dune build --root . ./perfbench/bench.exe 1>&2
exe=./_build/default/perfbench/bench.exe

verdict() {
  python3 -c '
import json, sys
r = json.loads(sys.stdin.read().strip().splitlines()[-1])
ok = r["metrics"]["ok_share"]["value"]
print("clean" if r["correct"] and r["failed"] == 0 and ok == 1 else
      "failing" if not r["correct"] and r["failed"] > 0 and ok < 1 else
      "inconsistent")'
}

status=0
for w in simulate-cycle serve-mix classify-zoo; do
  clean=$("$exe" --workload "$w" --seed 7 --seconds 1 --trace 0 | verdict)
  bad=$("$exe" --workload "$w" --seed 7 --seconds 1 --trace 0 --corrupt-expected | verdict)
  echo "$w: as is -> $clean, corrupted -> $bad"
  [[ $clean == clean && $bad == failing ]] || status=1
done

if LCL_WORKERS=2 "$exe" --workload simulate-cycle --seed 7 --seconds 1 --trace 0 >/dev/null 2>&1; then
  echo "untraced run started with LCL_WORKERS set"
  status=1
else
  echo "untraced run refused with LCL_WORKERS set"
fi

bare=.perfbench-run/bare-$$
mkdir -p "$bare"
cp BENCHMARK.json "$bare"/
cp -r perfbench "$bare"/
if out=$(cd "$bare" && timeout 180 bash perfbench/run.sh --workload simulate-cycle \
    --seed 7 --seconds 1 --trace 0 2>/dev/null) || [[ -n $out ]]; then
  echo "run.sh did not fail cleanly in a bare directory"
  status=1
else
  echo "run.sh fails without a result in a bare directory"
fi
rm -rf "$bare"
rmdir .perfbench-run 2>/dev/null || true

exit $status
