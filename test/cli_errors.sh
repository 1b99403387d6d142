#!/bin/sh
# Exit-code checks for hostile command-line input: `cec` on a malformed
# AIGER file and on two files whose PI counts differ, and `simsweep-shell`
# on a missing script, must each print `error: ...` and exit 2 (usage or
# I/O error), never die on an uncaught exception.
#
#   sh cli_errors.sh path/to/cec.exe path/to/shell_main.exe A.aag B.aag
# where A.aag and B.aag are well-formed AIGER files with different PI
# counts.
set -u
cec=$(realpath "$1")
shell=$(realpath "$2")
left=$(realpath "$3")
right=$(realpath "$4")
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
expect "cec on a malformed AIGER" "$cec" bad.aag
expect "cec on a PI count mismatch" "$cec" "$left" "$right"
expect "shell on a missing script" "$shell" missing.ss
exit $status
