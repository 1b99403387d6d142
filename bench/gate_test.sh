#!/bin/sh
# Exit-code checks for `main.exe check-summary` on tiny summaries derived
# from one fixture: the gate passes identical records (0), fails a 1.5x
# slowdown of one above-floor case (1), and refuses records it cannot read
# in full (2).
#
#   sh gate_test.sh path/to/main.exe path/to/gate_fixture.json
set -u
exe=$(realpath "$1")
base=$(realpath "$2")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
export BENCH_CASES=log2,multiplier,sqrt
sed '/"multiplier"/s/"total_s": 2.0/"total_s": 3.0/' "$base" > slow.json
grep -v '"calibration_s"' "$base" > nocal.json
sed '/"sqrt"/s/"total_s": 1.5, //' "$base" > nototal.json
sed 's/"name": "sqrt"/"name": "sin"/' "$base" > nosqrt.json
status=0
# expect CODE LABEL FRESH BASELINE
expect() {
  cp "$3" BENCH_summary.json
  BENCH_BASELINE=$4 "$exe" check-summary > out.txt 2>&1
  got=$?
  if [ "$got" -ne "$1" ]; then
    echo "check-summary on $2: exit $got, expected $1"
    cat out.txt
    status=1
  fi
}
expect 0 "identical records" "$base" "$base"
expect 1 "multiplier 1.5x slower" slow.json "$base"
expect 2 "a baseline without calibration_s" "$base" nocal.json
expect 2 "a fresh row without total_s" nototal.json "$base"
expect 2 "a case without a baseline row" "$base" nosqrt.json
exit $status
