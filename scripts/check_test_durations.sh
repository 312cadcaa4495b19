#!/usr/bin/env bash
# Named-suite gate with per-suite wall-clock budgets. The suites are the
# keys of scripts/test_budget.json, the one list: each key names an
# integration suite file, `tests/<name>.rs` (run with `--test <name>`)
# or `crates/<c>/tests/<name>.rs` (run with `-p aircal-<c> --test
# <name>`). The gate fails if a budget names no suite file (a suite
# deleted or renamed), if a suite file has no budget (a suite nobody
# times), if a suite fails, or if a suite runs longer than its ceiling.
# The ceilings are deliberately generous — they catch a suite quietly
# growing into a ten-minute monster, not CI jitter.
#
#   scripts/check_test_durations.sh
#
# Exits non-zero on any of those failures.
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET_FILE=scripts/test_budget.json

# Flat {"suite": seconds} map, one entry a line; read with sed so the
# gate needs nothing beyond coreutils.
budget_entries() {
  sed -n 's/^[[:space:]]*"\([A-Za-z0-9_]*\)"[[:space:]]*:[[:space:]]*\([0-9][0-9]*\).*/\1 \2/p' "$BUDGET_FILE"
}

entries=$(budget_entries)
fail=0

# Every suite file must have a budget.
for file in tests/*.rs crates/*/tests/*.rs; do
  name=$(basename "$file" .rs)
  if ! grep -q "^$name " <<<"$entries"; then
    echo "# TEST BUDGET: suite file $file has no entry in $BUDGET_FILE" >&2
    fail=1
  fi
done

while read -r name budget; do
  files=(tests/"$name".rs crates/*/tests/"$name".rs)
  found=()
  for f in "${files[@]}"; do
    [ -f "$f" ] && found+=("$f")
  done
  if [ "${#found[@]}" -ne 1 ]; then
    echo "# TEST BUDGET: '$name' in $BUDGET_FILE names ${#found[@]} suite files (want exactly one)" >&2
    fail=1
    continue
  fi
  case "${found[0]}" in
    tests/*) cmd=(cargo test --release -q --test "$name") ;;
    crates/*)
      crate=${found[0]#crates/}
      crate=${crate%%/*}
      cmd=(cargo test --release -q -p "aircal-$crate" --test "$name")
      ;;
  esac
  echo "== suite: $name (budget ${budget}s) =="
  start=$(date +%s)
  if ! "${cmd[@]}" </dev/null; then
    echo "# TEST SUITE FAILED: $name" >&2
    fail=1
    continue
  fi
  elapsed=$(($(date +%s) - start))
  if [ "$elapsed" -gt "$budget" ]; then
    echo "# TEST BUDGET EXCEEDED: $name took ${elapsed}s (budget ${budget}s)" >&2
    fail=1
  else
    echo "# test budget ok: $name took ${elapsed}s (budget ${budget}s)"
  fi
done <<<"$entries"

exit $fail
