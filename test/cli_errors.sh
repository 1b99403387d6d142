#!/bin/sh
# Exit-code checks for hostile command-line input: `cec` on a malformed
# AIGER file and on two files whose PI counts differ, `simsweep-shell` on
# a missing script and `simsweep-sat` on a malformed AIGER miter must each
# print `error: ...` and exit 2 (usage or I/O error), never die on an
# uncaught exception.  Usage errors the command-line parser reports itself
# (an unknown option, a missing FILE, an unknown engine name, the removed
# --shard flag, a worker-domain count below 1 for `cec` or
# `simsweep-fuzz`, an unknown option or a missing FILE for `simsweep-sat`)
# must exit 2 with a message on stderr.
#
#   sh cli_errors.sh path/to/cec.exe path/to/shell_main.exe A.aag B.aag \
#     path/to/fuzz.exe path/to/sat_solve.exe
# where A.aag and B.aag are well-formed AIGER files with different PI
# counts.
set -u
cec=$(realpath "$1")
shell=$(realpath "$2")
left=$(realpath "$3")
right=$(realpath "$4")
fuzz=$(realpath "$5")
sat=$(realpath "$6")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir" || exit 1
# A header that promises one AND gate the body never delivers.
printf 'aag 3 2 0 1 1\n2\n4\n6\n6 x 4\n' > bad.aag
status=0
# expect LABEL COMMAND...
expect() {
  label=$1
  shift
  "$@" > out.txt 2> err.txt
  got=$?
  if [ "$got" -ne 2 ] || ! grep -q '^error: ' err.txt; then
    echo "$label: exit $got, expected 2 with an error: line"
    cat out.txt err.txt
    status=1
  fi
}
# expect_usage LABEL COMMAND...
expect_usage() {
  label=$1
  shift
  "$@" > out.txt 2> err.txt
  got=$?
  if [ "$got" -ne 2 ] || [ ! -s err.txt ]; then
    echo "$label: exit $got, expected 2 with a message on stderr"
    cat out.txt err.txt
    status=1
  fi
}
expect "cec on a malformed AIGER" "$cec" bad.aag
expect "cec on a PI count mismatch" "$cec" "$left" "$right"
expect "shell on a missing script" "$shell" missing.ss
expect "sat on a malformed AIGER" "$sat" bad.aag
expect_usage "cec with an unknown option" "$cec" --bogus
expect_usage "cec on a missing FILE" "$cec" missing.aag
# On a miter every engine decides, so only the rejected name can exit 2.
expect_usage "cec with the removed portfolio.race engine" "$cec" \
  -e portfolio.race --suite voter --scale 0
expect_usage "cec with the removed --shard flag" "$cec" --shard 2 --suite voter --scale 0
expect_usage "cec with zero worker domains" "$cec" -j 0 --suite voter --scale 0
expect_usage "fuzz with zero worker domains" "$fuzz" -j 0 --cases 1
expect_usage "sat with an unknown option" "$sat" --bogus
expect_usage "sat on a missing FILE" "$sat" missing.cnf
exit $status
