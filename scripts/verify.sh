#!/usr/bin/env bash
# Full verification gate: build, test, lint, and regenerate the pipeline
# performance report. Run from anywhere; operates on the repo root.
#
#   scripts/verify.sh
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (--check: the root workspace; benchmark/ is a workspace of its own) =="
cargo fmt --all -- --check

echo "== build (release) =="
cargo build --release --workspace --bins

echo "== tests (workspace; release runs the 10⁶-draw sampler distribution case) =="
cargo test --workspace --release -q

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== rustdoc (-D warnings: no dead intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== named suites + per-suite duration budgets (scripts/test_budget.json) =="
# Runs every integration suite the budget file names, each timed
# against its checked-in wall-clock ceiling; a suite file with no budget,
# or a budget with no suite file, fails the gate.
scripts/check_test_durations.sh

echo "== quickstart demo (calibration end-to-end) =="
cargo run --release --example quickstart

echo "== fault injection demo (front-end + network chaos) =="
cargo run --release --example fault_injection

echo "== cloud failover demo (crash + partition recovery, digest diffed) =="
cargo run --release --example cloud_failover -- 400 42 --no-partition

echo "== benchmark self-tests (benchmark/ is a workspace of its own) =="
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "== fleet smokes (20k nodes: fleet_campaign repeats its digest; fleet_recovery equals its crash-free twin; both keep their seed-7 digests) =="
# The BENCHMARK.json command, one short run each; its result line must
# report a correct run with no failed operations, and its run record the
# campaign digest pinned for seed 7.
for pinned in fleet_campaign:065ced389811bcb8 fleet_recovery:2f66d0bdd50eb9a6; do
  workload=${pinned%%:*}
  digest=${pinned#*:}
  output=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 7 --seconds 1 --trace 0)
  record=$(head -n 1 <<<"$output")
  result=$(tail -n 1 <<<"$output")
  echo "$record"
  echo "$result"
  case "$result" in
    *'"correct": true,'*'"failed": 0,'*) ;;
    *) echo "# $workload smoke: expected \"correct\": true and \"failed\": 0" >&2; exit 1 ;;
  esac
  case "$record" in
    *"\"digest\": \"$digest\""*) ;;
    *) echo "# $workload smoke: expected \"digest\": \"$digest\" at seed 7" >&2; exit 1 ;;
  esac
done

echo "== calibrate smokes (untraced: every world classified; traced: the replica's reports equal Calibrator::calibrate's and layer_coverage >= 0.95) =="
for trace in 0 1; do
  result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload calibrate --seed 7 --seconds 1 --trace "$trace" | tail -n 1)
  echo "$result"
  case "$result" in
    *'"correct": true,'*'"failed": 0,'*) ;;
    *) echo "# calibrate smoke (--trace $trace): expected \"correct\": true and \"failed\": 0" >&2; exit 1 ;;
  esac
done

echo "== cloud_audit smokes (untraced: every adversary evicted, no honest node quarantined, through the real judge; traced: replayed verdicts equal Cloud::audit_one's and tracing leaves them unchanged) =="
for trace in 0 1; do
  result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload cloud_audit --seed 7 --seconds 1 --trace "$trace" | tail -n 1)
  echo "$result"
  case "$result" in
    *'"correct": true,'*'"failed": 0,'*) ;;
    *) echo "# cloud_audit smoke (--trace $trace): expected \"correct\": true and \"failed\": 0" >&2; exit 1 ;;
  esac
done

echo "== perfreport (--quick: kernel, geometry, fleet-scale and journal-replay floors of scripts/budgets.json) =="
# The timed measurements no test covers. Allocation counts, the
# adversary campaign and crash recovery are gated by their test suites
# above (allocations, byzantine, cloud_recovery).
cargo run --release -p aircal-bench --bin perfreport -- --quick --check

echo "== verify: all gates passed =="
