#!/usr/bin/env bash
# The full local gate: everything CI runs, in order. A clean exit here
# means the tree is shippable.
#
#   ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (root package: examples + integration tests) =="
cargo test -q

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== quorum proptests: 64 cases (default is 24) =="
QUORUM_PROPTEST_CASES=64 cargo test -q --test voldemort_quorum_props

echo "== relay proptests: 64 cases (default is 24) =="
RELAY_PROPTEST_CASES=64 cargo test -q --test databus_relay_props

echo "== site graph proptests: 64 cases (default is 32) =="
SITE_GRAPH_PROPTEST_CASES=64 cargo test -q --test site_graph_props

echo "== kafka ingest proptests: 64 cases (default is 24) =="
# Group-commit equivalence: grouped produce must be byte-identical to
# the legacy per-request path (same fingerprints, same offsets) in both
# shard modes, and concurrent grouped producers must lose nothing and
# keep per-thread FIFO order.
KAFKA_INGEST_PROPTEST_CASES=64 cargo test -q --test kafka_ingest_props

echo "== chaos sweep: 20 seeds x 10 scenarios (10 min budget) =="
# Wider seed sweep than the per-test default of 5. Deterministic — only
# the tail-fanout scenario sleeps (it replays simulated link latencies
# in real time so completion order follows the network model) — so the
# timeout is a tripwire for accidental wall-clock dependencies, not a
# flakiness allowance. On failure each scenario prints its own
# CHAOS_SEED=<n> repro line.
CHAOS_SEEDS=20 timeout 600 cargo test -q --test chaos -- chaos_sweep_

echo "== sharding proptests: 64 cases (default is 32) =="
# The deterministic-twin contract of the sharded serving runtime:
# Parallel must be byte-identical to Deterministic on seeded replays and
# lose no commits under concurrent disjoint lanes.
SHARDING_PROPTEST_CASES=64 cargo test -q --test sharding_props

echo "== migration proptests: 64 cases (default is 24) =="
# Online resharding equivalence: a migrated cluster must end
# byte-identical to a never-migrated twin under random write
# interleavings, random cutover points, random admin-fault timings and
# random abort points — with zero acked-write loss and zero refusals.
MIGRATION_PROPTEST_CASES=64 cargo test -q --test migration_props

echo "== site smoke: closed-loop SLO gates at CI population (5 min budget) =="
# A larger population than the per-test default (which keeps plain
# `cargo test` fast); knobs are overridable from the environment. The
# closed loop is seeded and deterministic, so the timeout is a tripwire
# for a wedged drain (lag that never reaches zero), not flakiness.
SITE_SMOKE_MEMBERS="${SITE_SMOKE_MEMBERS:-3000}" \
SITE_SMOKE_DRIVERS="${SITE_SMOKE_DRIVERS:-4}" \
SITE_SMOKE_OPS="${SITE_SMOKE_OPS:-600}" \
  timeout 300 cargo test -q --test site_scale

echo "== contended site smoke: 8 closed-loop drivers on the sharded runtime (5 min budget) =="
# Drives the striped-lock serving paths (sqlstore row stripes, Kafka
# partition index, follow stripes, push dispatch) at real contention.
# Deterministic per-driver op streams; the timeout is a tripwire for a
# serialization regression (a global lock would blow the p99 gates long
# before it), not flakiness.
SITE_SMOKE_MEMBERS="${SITE_SMOKE_MEMBERS:-3000}" \
SITE_SMOKE_DRIVERS=8 \
SITE_SMOKE_OPS="${SITE_SMOKE_OPS:-600}" \
  timeout 300 cargo test -q --test site_scale site_smoke_clears_all_slo_gates

echo "== M:N site smoke: 128 logical drivers on 4 scheduler workers (5 min budget) =="
# Far more logical drivers than OS threads: the M:N scheduler multiplexes
# 128 resumable closed-loop drivers onto 4 pool workers, quantum by
# quantum. Exercises the requeue/park paths under real contention; a
# scheduler that loses a driver or starves the FIFO fails the
# every-op-acked assertion or trips the tripwire timeout.
SITE_SMOKE_MEMBERS="${SITE_SMOKE_MEMBERS:-3000}" \
SITE_SMOKE_DRIVERS=128 \
SITE_SMOKE_WORKERS=4 \
SITE_SMOKE_OPS=40 \
  timeout 300 cargo test -q --test site_scale site_smoke_clears_all_slo_gates

echo "== site loader proptests: streaming == bulk prepare (default cases) =="
# The chunk-invariance contract the pipelined prepare rides on: the
# streaming loader must land the byte-identical primary commit stream
# and router accounting as the bulk path at any chunk size, in both
# shard modes.
cargo test -q --test site_loader_props

echo "== site smoke with migration in flight: online resharding mid-load (5 min budget) =="
# The closed loop with two Voldemort partitions plus an Espresso profile
# partition migrating off node 0 while the drivers run. Every SLO and
# conservation gate must stay green and the run must report exactly the
# expected cutover flips with zero refusals — a wedged delta catch-up or
# a refused flip trips the timeout or the gate, not flakiness.
SITE_SMOKE_MEMBERS="${SITE_SMOKE_MEMBERS:-3000}" \
SITE_SMOKE_DRIVERS="${SITE_SMOKE_DRIVERS:-4}" \
SITE_SMOKE_OPS="${SITE_SMOKE_OPS:-600}" \
  timeout 300 cargo test -q --test site_scale site_smoke_with_migration_in_flight_clears_all_gates

echo "== sitebench smoke: the benchmark crate builds and passes its own tests =="
# sitebench/ is a Cargo workspace of its own (so the benchmark never
# edits the repository workspace); without this step CI would never
# compile it, though it depends on the platform and Kafka APIs.
cargo test -q --offline --manifest-path sitebench/Cargo.toml

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc: first-party crates, warnings are errors =="
# Catches intra-doc links left dangling by a rename or deletion, and
# public docs linking private items. The vendor/* stand-ins are skipped.
first_party=(-p li-repro)
for manifest in crates/*/Cargo.toml; do
  first_party+=(-p "$(awk -F'"' '/^name = /{print $2; exit}' "$manifest")")
done
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps "${first_party[@]}"

echo "== cargo bench --workspace --no-run (bench targets compile-gate) =="
cargo bench --workspace --no-run

echo "ci.sh: all green"
