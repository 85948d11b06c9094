#!/usr/bin/env bash
# Local CI gate for the AIMS workspace. Fully offline: every dependency is
# path-based (workspace crates + vendor/ stand-ins), so no network or
# registry access is needed. Run from the repo root:
#
#   ./ci.sh          # fmt check, clippy and rustdoc -D warnings, build, tests
#   ./ci.sh --fast   # skip the release build (debug tests only)
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# Size, printed and never gated: per crate, the lines of each source file
# before its first #[cfg(test)], summed over the crate's src tree.
echo "== non-test lines per crate =="
total=0
for src in crates/*/src src; do
    lines=$(find "$src" -name '*.rs' -exec awk 'FNR == 1 {t = 0} /#\[cfg\(test\)\]/ {t = 1}
        !t {n++} END {print n + 0}' {} +)
    name=${src%/src}
    [[ $src == src ]] && name=aims
    printf '%-22s %6d\n' "${name#crates/}" "$lines"
    total=$((total + lines))
done
printf '%-22s %6d\n' total "$total"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Broken or private intra-doc links (e.g. to an item a change deleted).
echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --quiet

if [[ $fast -eq 0 ]]; then
    echo "== cargo build --release =="
    cargo build --release
    # The root examples, end to end: each must exit 0 (storage_layout
    # asserts that its reopened durable store answers bit-identically).
    for example in quickstart storage_layout query_service; do
        echo "== example $example =="
        cargo run --release -q --example "$example"
    done
    # The benchmark harness is frozen outside the workspace and builds
    # --locked against these crates: an API or dependency-edge break
    # must fail here, not at the benchmark gate.
    echo "== bench harness compile check =="
    CARGO_TARGET_DIR=target cargo build --release --locked --quiet --manifest-path bench/Cargo.toml || {
        echo "the bench harness does not build --locked. bench/Cargo.lock is frozen until the" >&2
        echo "[benchmark] re-base (ROADMAP item 1); the usual cause is a new dependency edge" >&2
        echo "between workspace crates, which the frozen lock cannot record." >&2
        exit 1
    }
    # Three short runs: the workload that creates a durable store, ingests,
    # stops, reopens and verifies (an on-disk format slip must break here),
    # the one whose wide range sums run the served round end to end over a
    # store larger than its cache, and the only one whose planner thread
    # reads the store while installs commit to the historical device.
    # (run.sh builds into the same target dir, so nothing compiles twice.)
    for workload in ingest_burst serve_range_cold mixed_ingest_query; do
        echo "== bench harness smoke ($workload, 2 s) =="
        result=$(bash bench/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
        echo "$result"
        grep -q '"correct": true' <<<"$result" && grep -q '"failed": 0' <<<"$result" || {
            echo "bench harness smoke ($workload) did not come back correct with 0 failed" >&2
            exit 1
        }
    done
fi

# Every suite in the workspace, under the serial and the pooled execution
# layer (the transform and compaction pools follow AIMS_THREADS; a query
# runs on one thread either way).
for threads in 1 4; do
    echo "== cargo test --workspace (AIMS_THREADS=$threads) =="
    AIMS_THREADS=$threads cargo test --workspace -q
done

# The seeded drills again, under two pinned seeds each (a fifth field names
# the suite's package when it is not the root one).
for pin in "AIMS_FAULT_SEED fault_matrix 13 1013" "AIMS_INGEST_FAULT_SEED ingest_drill 17 1017" \
    "AIMS_CRASH_SEED crash_matrix 17 2029" "AIMS_CRASH_SEED tier_crash 17 2029 aims-tier" \
    "AIMS_CRASH_SEED write_schedule 17 2029 aims-tier" \
    "AIMS_CHAOS_SEED chaos_drill 4242 9001"; do
    read -r var suite seed_a seed_b package <<<"$pin"
    for seed in "$seed_a" "$seed_b"; do
        echo "== $suite (pinned seed $seed) =="
        env "$var=$seed" cargo test -q ${package:+-p "$package"} --test "$suite"
    done
done

if [[ $fast -eq 0 ]]; then
    # The experiments to run are read from the claims index: every row of
    # EXPERIMENTS.md whose owner is an experiment fn that the experiments
    # binary dispatches under the row's id (tests/claims_index.rs, run
    # above, fails on a row whose owner is neither that nor a test). Each
    # asserts its row's shape and exits non-zero otherwise; its timings are
    # printed, not gated — the benchmark under bench/ owns those.
    experiments=()
    while read -r id owner; do
        if grep -qF "(\"$id\", $owner)" crates/aims-bench/src/bin/experiments.rs; then
            experiments+=("$id")
        fi
    done < <(awk -F'|' '/^\| E[0-9]+ \|/ {
        id = tolower($2); owner = $(NF - 1); gsub(/[ `]/, "", id); gsub(/[ `]/, "", owner)
        if (sub(/^crates\/aims-bench\/src\//, "", owner) && sub(/\.rs::/, "::", owner)) print id, owner
    }' EXPERIMENTS.md)
    echo "== experiment owners: ${experiments[*]} =="
    # E12's sharing table, E20's AUC table and E31's bound area must not
    # depend on timing or pool width: those three run at AIMS_THREADS=1
    # here and again at 4 below, and each table (from the header line
    # matching the pattern to the next blank line) must print byte for byte.
    tables=("e12 independent" "e20 L2.AUC" "e31 bound.area")
    table() { awk -v start="$header" '$0 ~ start {on = 1} on && /^$/ {exit} on' "$1"; }
    for exp in "${experiments[@]}"; do
        echo "== $exp =="
        pin=()
        [[ " ${tables[*]} " == *" $exp "* ]] && pin=(AIMS_THREADS=1)
        env "${pin[@]}" AIMS_CHAOS_SEED=4242 cargo run --release -q -p aims-bench --bin experiments -- "$exp" |
            tee "target/experiment-$exp.out"
    done
    for pin in "${tables[@]}"; do
        read -r exp header <<<"$pin"
        echo "== $exp table (AIMS_THREADS=1 vs 4) =="
        AIMS_THREADS=4 AIMS_CHAOS_SEED=4242 cargo run --release -q -p aims-bench --bin experiments -- "$exp" \
            > "target/experiment-$exp-t4.out"
        [[ -n "$(table "target/experiment-$exp.out")" ]] || {
            echo "$exp printed no table matching '$header'" >&2
            exit 1
        }
        diff <(table "target/experiment-$exp.out") <(table "target/experiment-$exp-t4.out") || {
            echo "$exp: the table moved between AIMS_THREADS=1 and 4" >&2
            exit 1
        }
    done
    # The flight-recorder trace E28 exported must be valid Chrome
    # trace-event JSON (loadable in about:tracing / Perfetto).
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

    # Each drill run checks itself against its own in-process oracle; the
    # drained store's answers (hex f64 bits) must also agree across the two
    # execution layers.
    for threads in 1 4; do
        echo "== tier drill (AIMS_THREADS=$threads) =="
        AIMS_THREADS=$threads target/release/aims-cli tiers --samples 200000 --format json |
            tee "target/tiers-t$threads.json"
    done
    tier_answers() { grep -o '"answers":\[[^]]*\]' "$1"; }
    [[ -n "$(tier_answers target/tiers-t1.json)" ]] || {
        echo "the tier drill printed no answers" >&2
        exit 1
    }
    diff <(tier_answers target/tiers-t1.json) <(tier_answers target/tiers-t4.json) || {
        echo "the tier drill's answers moved between AIMS_THREADS=1 and 4" >&2
        exit 1
    }

    # Every drill's JSON report must parse: the two tier reports above, and
    # faults, ingest-faults and durability at their defaults.
    echo "== drill JSON reports =="
    for drill in faults ingest-faults durability; do
        target/release/aims-cli "$drill" --format json > "target/$drill.json"
    done
    for report in target/{faults,ingest-faults,durability,tiers-t1,tiers-t4}.json; do
        python3 -m json.tool "$report" > /dev/null || {
            echo "$report is not valid JSON" >&2
            exit 1
        }
        echo "$report OK"
    done

    # The kernel report: dispatch table, the fixed tile/threshold, and a
    # serial round trip per filter; exits non-zero if one misses by > 1e-9.
    echo "== aims-cli kernels =="
    target/release/aims-cli kernels --side 64

    # The metric name set is the same on every run: a name that a thread
    # or a rare path registers late would come and go between runs.
    echo "== metric name set (three runs of aims-cli metrics) =="
    metric_names() {
        target/release/aims-cli metrics --seconds 1 --format json | grep -o '"name":"[^"]*"' | sort
    }
    names=$(metric_names)
    for _ in 1 2; do
        diff <(echo "$names") <(metric_names) || {
            echo "aims-cli metrics listed a different metric name set on a rerun" >&2
            exit 1
        }
    done
    echo "$(wc -l <<<"$names") names, the same in three runs"

    echo "== aims-serve TCP smoke (loopback, clean shutdown; in memory, created, reopened) =="
    cargo build --release -q -p aims-service --bin aims-serve
    cargo build --release -q -p aims-service --example tcp_smoke
    # One smoke run: serve the demo cube with the given extra flags, query
    # it over TCP, require the startup line $1 (a grep pattern, may be
    # empty) and a clean exit; leaves tcp_smoke's answer line in $answer
    # and the server's peak resident set before the query (VmHWM, kB) in
    # $hwm.
    serve_smoke() {
        local startup=$1 log=target/aims-serve.log port=""
        shift
        target/release/aims-serve --side 32 "$@" > "$log" 2>&1 &
        local serve_pid=$!
        for _ in $(seq 1 100); do
            port=$(sed -n 's/^aims-serve listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
            [[ -n "$port" ]] && break
            sleep 0.1
        done
        if [[ -z "$port" ]]; then
            echo "aims-serve $* did not report a listening port" >&2
            kill "$serve_pid" 2>/dev/null || true
            exit 1
        fi
        hwm=$(awk '/^VmHWM:/ {print $2}' "/proc/$serve_pid/status")
        local out
        out=$(target/release/examples/tcp_smoke "$port")
        echo "$out"
        answer=$(grep '^answer = ' <<<"$out")
        wait "$serve_pid"   # tcp_smoke sends SHUTDOWN; the server must exit 0
        grep -q "$startup" "$log" && grep -q "clean shutdown" "$log" || {
            echo "aims-serve $* did not start with '$startup' and shut down cleanly" >&2
            exit 1
        }
    }
    # The durable store, created and then reopened from its header's energy
    # catalog: the same cube must give byte-identical answers all three
    # ways, at a block size that divides the cube and at one (48) whose
    # last block is short. The create runs over the garbage staging file
    # and spill a killed create leaves behind, which are no store and must
    # be replaced, not trusted, and gone once the store is published.
    for block in 16 48; do
        serve_smoke "" --block "$block"
        in_memory=$answer
        rm -rf target/ci-serve-data
        mkdir -p target/ci-serve-data
        printf 'not a store %.0s' $(seq 1 4096) > target/ci-serve-data/blocks.aims.new
        printf 'not a spill %.0s' $(seq 1 4096) > target/ci-serve-data/blocks.aims.spill
        for startup in created reopened; do
            serve_smoke "^aims-serve: $startup target/ci-serve-data" --block "$block" \
                --data target/ci-serve-data
            [[ "$answer" == "$in_memory" ]] || {
                echo "--block $block: $startup store answered '$answer', in-memory '$in_memory'" >&2
                exit 1
            }
            for leftover in blocks.aims.new blocks.aims.spill; do
                [[ ! -e target/ci-serve-data/$leftover ]] || {
                    echo "the $startup store left $leftover behind" >&2
                    exit 1
                }
            done
        done
    done
    # The create streams its cube through a fixed working set: a side-1024
    # store (the cube alone is 8 MiB) is built below 8 MiB resident.
    rm -rf target/ci-serve-1024
    serve_smoke "^aims-serve: created target/ci-serve-1024" --side 1024 --block 64 \
        --data target/ci-serve-1024
    (( hwm < 8 * 1024 )) || {
        echo "a side-1024 create peaked at VmHWM $hwm kB, not below 8 MiB" >&2
        exit 1
    }
    rm -rf target/ci-serve-1024
    # A restart whose --seed differs from the store's is refused: exit 1,
    # never listening.
    status=0
    timeout 20 target/release/aims-serve --seed 9 --data target/ci-serve-data \
        > target/aims-serve.log 2>&1 || status=$?
    if [[ $status -ne 1 ]] || grep -q listening target/aims-serve.log; then
        echo "aims-serve with a mismatched --seed exited $status instead of refusing" >&2
        exit 1
    fi
fi

echo "CI OK"
