# Local equivalents of the CI gates (.github/workflows/ci.yml).

# Run every CI gate in order.
ci: fmt-check clippy build test doctest doc perfbench-test perfbench-smoke results-check eval-smoke smoke resume-smoke serve-smoke stream-smoke graph-smoke chaos-smoke bench-smoke

fmt:
    cargo fmt

fmt-check:
    cargo fmt --check

# -D warnings also enforces the workspace lints (clippy::unwrap_used /
# expect_used) that linalg and core opt into: library code on the solve
# path must return typed errors, never unwrap.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

build:
    cargo build --workspace --release

# Compile first, then run every test against a fresh TMPDIR and fail if
# anything is left in it: a test works in a comparesets_data::TempDir,
# which removes itself on drop (mirrors the "Tests" CI step).
test:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo test --workspace --no-run
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    TMPDIR="$tmp" cargo test --workspace -q
    leftovers=$(ls -A "$tmp")
    if [ -n "$leftovers" ]; then
        echo "tests left files in TMPDIR: $leftovers" >&2
        exit 1
    fi
    echo "test ok: TMPDIR left clean"

doctest:
    cargo test --workspace --doc -q

# The repository benchmark's self-tests (perfbench/ is its own package,
# outside the workspace). It reads BENCHMARK.json and its own result
# lines through the vendored serde_json, so a codec change can break it
# without any workspace test noticing (mirrors the "Perfbench tests" CI
# step).
perfbench-test:
    cargo test --release --manifest-path perfbench/Cargo.toml

# The repository benchmark end to end: one traced one-second run per
# workload. A run exits 1 when a served answer differs from a cold solve
# or when the traced replay does not reproduce the daemon's counters
# (mirrors the "Perfbench smoke" CI step).
perfbench-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    for workload in popular long_tail live_ingest; do
        cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seconds 1 --trace 1
    done

# The committed results reproduce: run the suite at default scale
# (about 2 min in release) and diff it against results_default_scale.txt.
# Figure 7's rows are wall-clock times, so the sed drops Figure 7
# (through Figure 11's header) from both files (mirrors the "Results
# check" CI step).
results-check:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo run --release -q -p comparesets-cli -- eval --out results_check.txt
    diff <(sed '/^Figure 7:/,/^Figure 11:/d' results_default_scale.txt) \
         <(sed '/^Figure 7:/,/^Figure 11:/d' results_check.txt)
    echo "results check ok"

# Rustdoc must build warnings-clean (broken intra-doc links, missing
# docs on #![warn(missing_docs)] crates).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The two studies beyond the paper, which the default run (and so the
# results check) leaves out: `eval` must run both at the tiny config,
# exit 0 and print both tables (mirrors the "Eval smoke" CI step).
eval-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -q -p comparesets-cli -- eval --config tiny \
        --experiments ablation,scaling > "$tmp/eval.out"
    grep -q '^Ablation studies' "$tmp/eval.out"
    grep -q '^Scalability:' "$tmp/eval.out"
    grep -q '2/2 experiments completed' "$tmp/eval.out"
    echo "eval smoke ok"

# End-to-end observability smoke: generate a small corpus, solve it with
# --trace debug, and require a valid non-empty --metrics-json report
# (mirrors the "Observability smoke" CI step).
smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p comparesets-cli -- generate \
        --category cellphone --products 40 --seed 7 --out "$tmp/corpus.json"
    cargo run --release -p comparesets-cli -- select \
        --corpus "$tmp/corpus.json" --target 0 --m 3 \
        --trace debug --metrics-json "$tmp/metrics.json"
    test -s "$tmp/metrics.json"
    grep -q 'comparesets-metrics/v8' "$tmp/metrics.json"
    grep -q '"nomp_pursuits":' "$tmp/metrics.json"
    grep -q '"cancellation_checks":' "$tmp/metrics.json"
    grep -q '"io_retries":' "$tmp/metrics.json"
    grep -q '"warm_start_hits":' "$tmp/metrics.json"
    echo "smoke ok: $(cat "$tmp/metrics.json")"

# Deadline + resume smoke: start the suite with an unmeetable --timeout,
# require the classified deadline exit code (6) and a checkpoint on disk,
# then resume to completion and diff against an uninterrupted run
# (mirrors the "Resume smoke" CI step).
resume-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    run() { cargo run --release -q -p comparesets-cli -- "$@"; }
    rc=0
    run eval --config tiny --experiments table2,table3 \
        --checkpoint-dir "$tmp/ckpt" --timeout 0.2 \
        --out "$tmp/partial.txt" || rc=$?
    test "$rc" -eq 6
    test -s "$tmp/ckpt/suite-checkpoint.json"
    run eval --config tiny --experiments table2,table3 \
        --checkpoint-dir "$tmp/ckpt" --resume true --out "$tmp/resumed.txt"
    run eval --config tiny --experiments table2,table3 --out "$tmp/full.txt"
    cmp "$tmp/resumed.txt" "$tmp/full.txt"
    echo "resume smoke ok"

# Serving smoke: generate a corpus, start `comparesets serve` on an
# ephemeral port, parse the announced address, drive it with the example
# client (ping, solve, cached repeat, metrics, shutdown), and require
# the serving counters in the --metrics-json report the server writes on
# exit (mirrors the "Serve smoke" CI step).
serve-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p comparesets-cli -- generate \
        --category cellphone --products 40 --seed 7 --out "$tmp/corpus.json"
    cargo build --release -p comparesets-serve --example client
    cargo run --release -p comparesets-cli -- serve \
        --corpus "$tmp/corpus.json" --addr 127.0.0.1:0 \
        --metrics-json "$tmp/metrics.json" > "$tmp/serve.out" &
    server=$!
    addr=""
    for _ in $(seq 100); do
        addr=$(sed -n 's/^serving on //p' "$tmp/serve.out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    test -n "$addr"
    cargo run --release -p comparesets-serve --example client -- "$addr" 0
    wait "$server"
    grep -q 'served 5 request(s), 0 degraded' "$tmp/serve.out"
    grep -q '"serve_requests":5' "$tmp/metrics.json"
    grep -q '"serve_full_hits":1' "$tmp/metrics.json"
    echo "serve smoke ok"

# Streaming smoke: serve durably (--data-dir), stream ingest events with
# the example driver, SIGKILL the server (no cleanup runs), smear garbage
# over the WAL tail, then require `recover` to report the exact durable
# prefix and a restarted server to keep serving and appending from it
# (mirrors the "Stream smoke" CI step).
stream-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p comparesets-cli -- generate \
        --category cellphone --products 40 --seed 7 --out "$tmp/corpus.json"
    cargo build --release -p comparesets-serve --example stream
    cargo run --release -p comparesets-cli -- serve \
        --corpus "$tmp/corpus.json" --addr 127.0.0.1:0 \
        --data-dir "$tmp/data" > "$tmp/serve.out" &
    server=$!
    addr=""
    for _ in $(seq 100); do
        addr=$(sed -n 's/^serving on //p' "$tmp/serve.out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    test -n "$addr"
    cargo run --release -p comparesets-serve --example stream -- "$addr" 6 0
    kill -9 "$server"
    wait "$server" || true
    printf 'torn garbage' >> "$tmp/data/corpus/wal.log"
    cargo run --release -p comparesets-cli -- recover \
        --data-dir "$tmp/data" > "$tmp/recover.out"
    grep -q 'replayed 6 event(s)' "$tmp/recover.out"
    grep -q 'dropped 12 torn byte(s)' "$tmp/recover.out"
    cargo run --release -p comparesets-cli -- serve \
        --corpus "$tmp/corpus.json" --addr 127.0.0.1:0 \
        --data-dir "$tmp/data" --metrics-json "$tmp/metrics.json" \
        > "$tmp/serve2.out" &
    server=$!
    addr=""
    for _ in $(seq 100); do
        addr=$(sed -n 's/^serving on //p' "$tmp/serve2.out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    test -n "$addr"
    cargo run --release -p comparesets-serve --example stream -- \
        "$addr" 2 0 shutdown > "$tmp/stream2.out"
    wait "$server"
    grep -q 'last seq 8' "$tmp/stream2.out"
    grep -q '"recovery_replayed_records":6' "$tmp/metrics.json"
    grep -q '"wal_appends":2' "$tmp/metrics.json"
    grep -q '"wal_fsyncs":2' "$tmp/metrics.json"
    echo "stream smoke ok"

# Graph solver smoke: end-to-end exact narrowing through the CLI with
# four workers and with one: both must print the same core list and
# report nonzero branch-and-bound nodes, and one worker never steals a
# task (mirrors the "Graph smoke" CI step).
graph-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p comparesets-cli -- generate \
        --category cellphone --products 40 --seed 7 --out "$tmp/corpus.json"
    for threads in 4 1; do
        cargo run --release -p comparesets-cli -- narrow \
            --corpus "$tmp/corpus.json" --target 2 --k 3 --method exact \
            --threads "$threads" --metrics-json "$tmp/metrics$threads.json" \
            > "$tmp/narrow$threads.txt"
        grep -q '"bnb_nodes":' "$tmp/metrics$threads.json"
        ! grep -q '"bnb_nodes":0' "$tmp/metrics$threads.json"
    done
    cmp "$tmp/narrow4.txt" "$tmp/narrow1.txt"
    grep -q '"bnb_steals":0[,}]' "$tmp/metrics1.json"
    echo "graph smoke ok"

# Chaos smoke: 1000 seeded fault schedules against the durable store
# (short writes, failed fsyncs, disk full, bit flips, crashes — every
# acknowledged event must recover intact), then a SIGTERM drain drill:
# an in-flight slow solve must be answered (deadline-clamped), the
# server must exit 0, and a recover must report zero replayed events
# (the final snapshot covered the WAL). Fixed seeds, well under 60s
# (mirrors the "Chaos smoke" CI step).
chaos-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p comparesets-cli -- chaos \
        --schedules 1000 --seed 0 --dir "$tmp/chaos" > "$tmp/chaos.out"
    grep -q '1000 schedule(s) clean' "$tmp/chaos.out"
    cargo run --release -p comparesets-cli -- generate \
        --category toy --products 40 --seed 9 --out "$tmp/corpus.json"
    cargo run --release -p comparesets-cli -- serve \
        --corpus "$tmp/corpus.json" --addr 127.0.0.1:0 \
        --data-dir "$tmp/data" --drain-deadline-ms 1000 \
        --metrics-json "$tmp/metrics.json" > "$tmp/serve.out" &
    server=$!
    addr=""
    for _ in $(seq 100); do
        addr=$(sed -n 's/^serving on //p' "$tmp/serve.out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    test -n "$addr"
    cargo run --release -p comparesets-serve --example stream -- "$addr" 3 0
    kill -TERM "$server"
    wait "$server"
    grep -q '"drain_initiated":1' "$tmp/metrics.json"
    cargo run --release -p comparesets-cli -- recover \
        --data-dir "$tmp/data" > "$tmp/recover.out"
    grep -q 'replayed 0 event(s)' "$tmp/recover.out"
    grep -q 'dropped 0 torn byte(s)' "$tmp/recover.out"
    echo "chaos smoke ok"

# Refresh the committed performance baselines (BENCH_sparse.json,
# BENCH_serve.json, BENCH_stream.json and BENCH_targethks.json, see
# PERFORMANCE.md). Take them on at least two cores: the tests in
# crates/bench/tests/schema.rs reject a file measured on one.
bench-baseline:
    cargo bench -p comparesets-bench --bench nomp_sparse
    cargo bench -p comparesets-bench --bench serve
    cargo bench -p comparesets-bench --bench stream
    cargo bench -p comparesets-bench --bench targethks_scaling

# Every bench body, run small: proves each bench executes end to end
# without paying measurement-grade runtimes. COMPARESETS_BENCH_SMOKE
# keeps every committed BENCH_*.json untouched (mirrors the "Bench
# smoke" CI step).
bench-smoke:
    COMPARESETS_BENCH_SMOKE=1 cargo bench -p comparesets-bench
