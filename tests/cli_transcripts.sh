#!/usr/bin/env bash
# Runs each case of CASE_DIR/cases.txt through the thriftyvid binary and
# compares its stdout and exit status with the recorded transcript
# CASE_DIR/<name>.out.  Cases run in order in one scratch directory, so a
# case may read what an earlier one wrote.  The build-info line (git
# describe, build type) reads as "<build info>".
#
#   usage: cli_transcripts.sh THRIFTYVID CASE_DIR [--update]
#
# --update rewrites every .out file from the binary instead of comparing
# (exit statuses stay as cases.txt states them).
set -uf
bin=$(realpath "$1")
dir=$(realpath "$2")
update=${3:-}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
version=$("$bin" --version)
failed=0
while read -r name status args; do
  [[ -z "$name" || "$name" == \#* ]] && continue
  # shellcheck disable=SC2086  # each case's arguments split on spaces.
  "$bin" $args </dev/null 2>/dev/null |
    awk -v v="$version" '{ print ($0 == v ? "<build info>" : $0) }' >actual
  rc=${PIPESTATUS[0]}
  if [[ "$update" == --update ]]; then
    cp actual "$dir/$name.out"
  elif ! diff -u "$dir/$name.out" actual; then
    echo "FAIL $name: thriftyvid $args: stdout differs" >&2
    failed=1
  fi
  if [[ "$rc" != "$status" ]]; then
    echo "FAIL $name: thriftyvid $args: exit $rc, expected $status" >&2
    failed=1
  fi
done <"$dir/cases.txt"
exit "$failed"
