#!/usr/bin/env bash
# Local CI gate for the AIMS workspace. Fully offline: every dependency is
# path-based (workspace crates + vendor/ stand-ins), so no network or
# registry access is needed. Run from the repo root:
#
#   ./ci.sh          # fmt check, clippy -D warnings, build, tests
#   ./ci.sh --fast   # skip the release build (debug tests only)
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

if [[ $fast -eq 0 ]]; then
    echo "== cargo build --release =="
    cargo build --release
fi

echo "== cargo test (AIMS_THREADS=1, serial execution layer) =="
AIMS_THREADS=1 cargo test -q

echo "== cargo test (AIMS_THREADS=4, pooled execution layer) =="
AIMS_THREADS=4 cargo test -q

echo "== service tests (AIMS_THREADS=1, serial fan-out) =="
AIMS_THREADS=1 cargo test -q -p aims-service

echo "== service tests (AIMS_THREADS=4, pooled fan-out) =="
AIMS_THREADS=4 cargo test -q -p aims-service

echo "== tier tests (AIMS_THREADS=1, serial transform and query pools) =="
AIMS_THREADS=1 cargo test -q -p aims-tier

echo "== tier tests (AIMS_THREADS=4, pooled transform and query pools) =="
AIMS_THREADS=4 cargo test -q -p aims-tier

echo "== telemetry tests =="
cargo test -q -p aims-telemetry

echo "== fault matrix (pinned seed 13) =="
AIMS_FAULT_SEED=13 cargo test -q --test fault_matrix

echo "== fault matrix (pinned seed 1013) =="
AIMS_FAULT_SEED=1013 cargo test -q --test fault_matrix

echo "== ingest drill (pinned seed 17) =="
AIMS_INGEST_FAULT_SEED=17 cargo test -q --test ingest_drill

echo "== ingest drill (pinned seed 1017) =="
AIMS_INGEST_FAULT_SEED=1017 cargo test -q --test ingest_drill

echo "== crash matrix (pinned seed 17) =="
AIMS_CRASH_SEED=17 cargo test -q --test crash_matrix

echo "== crash matrix (pinned seed 2029) =="
AIMS_CRASH_SEED=2029 cargo test -q --test crash_matrix

echo "== chaos drill (pinned seed 4242) =="
AIMS_CHAOS_SEED=4242 cargo test -q --test chaos_drill

echo "== chaos drill (pinned seed 9001) =="
AIMS_CHAOS_SEED=9001 cargo test -q --test chaos_drill

if [[ $fast -eq 0 ]]; then
    echo "== bench_parallel (E24 serial-vs-parallel, bit-identical gate) =="
    cargo run --release -q -p aims-bench --bin experiments -- e24

    echo "== bench_faults (E25 degraded-query error-vs-loss gate) =="
    cargo run --release -q -p aims-bench --bin experiments -- e25

    echo "== bench_ingest_faults (E26 recognition-under-dropout gate) =="
    cargo run --release -q -p aims-bench --bin experiments -- e26
    test -f target/bench_ingest_faults.json || {
        echo "E26 did not record target/bench_ingest_faults.json" >&2
        exit 1
    }

    echo "== bench_service (E27 shared-scan + cache gate) =="
    cargo run --release -q -p aims-bench --bin experiments -- e27
    test -f target/bench_service.json || {
        echo "E27 did not record target/bench_service.json" >&2
        exit 1
    }

    echo "== bench_trace (E28 tracing overhead + profile fidelity gate) =="
    cargo run --release -q -p aims-bench --bin experiments -- e28
    test -f target/bench_trace.json || {
        echo "E28 did not record target/bench_trace.json" >&2
        exit 1
    }
    # The exported flight-recorder trace must be valid Chrome trace-event
    # JSON (loadable in about:tracing / Perfetto).
    python3 - <<'EOF'
import json
with open("target/trace_e28.json") as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "chrome trace export has no events"
for e in events:
    for key in ("name", "ph", "ts", "pid", "tid"):
        assert key in e, f"chrome trace event missing {key}: {e}"
print(f"chrome trace OK: {len(events)} events")
EOF

    echo "== bench_kernels (E29 serial kernel speed, bit-identity gate) =="
    cargo run --release -q -p aims-bench --bin experiments -- e29
    test -f target/bench_kernels.json || {
        echo "E29 did not record target/bench_kernels.json" >&2
        exit 1
    }

    echo "== bench_durability (E30 durability modes + crash-drill gate) =="
    cargo run --release -q -p aims-bench --bin experiments -- e30
    test -f target/bench_durability.json || {
        echo "E30 did not record target/bench_durability.json" >&2
        exit 1
    }

    echo "== bench_chaos (E31 adaptive QoS: chaos drill + scheduling gate) =="
    AIMS_CHAOS_SEED=4242 cargo run --release -q -p aims-bench --bin experiments -- e31
    test -f target/bench_chaos.json || {
        echo "E31 did not record target/bench_chaos.json" >&2
        exit 1
    }

    echo "== tier drill (AIMS_THREADS=1, serial transform pool) =="
    AIMS_THREADS=1 target/release/aims-cli tiers --samples 200000

    echo "== tier drill (AIMS_THREADS=4, pooled transform pool) =="
    AIMS_THREADS=4 target/release/aims-cli tiers --samples 200000

    echo "== bench_tier (E32 tiered ingest: rate + oracle bit-identity gate) =="
    cargo run --release -q -p aims-bench --bin experiments -- e32
    test -f target/bench_tier.json || {
        echo "E32 did not record target/bench_tier.json" >&2
        exit 1
    }

    echo "== perf trajectory gate (trend vs BENCH_TRAJECTORY.json) =="
    cargo run --release -q -p aims-bench --bin trend -- check

    echo "== aims-serve TCP smoke (loopback, clean shutdown) =="
    cargo build --release -q -p aims-service --bin aims-serve
    cargo build --release -q -p aims-service --example tcp_smoke
    : > target/aims-serve.log
    target/release/aims-serve --side 32 --block 16 > target/aims-serve.log 2>&1 &
    serve_pid=$!
    port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's/^aims-serve listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
            target/aims-serve.log)
        [[ -n "$port" ]] && break
        sleep 0.1
    done
    if [[ -z "$port" ]]; then
        echo "aims-serve did not report a listening port" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    target/release/examples/tcp_smoke "$port"
    wait "$serve_pid"   # tcp_smoke sends SHUTDOWN; the server must exit 0
    grep -q "clean shutdown" target/aims-serve.log || {
        echo "aims-serve did not shut down cleanly" >&2
        exit 1
    }
fi

echo "CI OK"
