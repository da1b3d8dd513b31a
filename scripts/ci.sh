#!/usr/bin/env bash
# Offline CI: formatting, lints, rustdoc links, the tier-1 build+test
# command, the benchmark package's build and unit tests, and the engine
# throughput benchmark. No network access required — the workspace has no
# external dependencies.
#
# Usage: scripts/ci.sh [--no-bench]

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== aq-lint: workspace lint gate (R1, R3-R9 + A0, semantic passes on) =="
cargo run -q --offline -p aq-analyze --bin aq-lint -- --deny --baseline=lint-baseline.toml \
    --stats --lock-dot=target/lock-order.dot
# the committed lock-order graph must match what the analyzer derives
diff -u docs/lock-order.dot target/lock-order.dot || {
    echo "docs/lock-order.dot is stale; regenerate with:"
    echo "  cargo run -p aq-analyze --bin aq-lint -- --lock-dot=docs/lock-order.dot"
    exit 1
}

echo "== rustdoc: intra-doc links resolve (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: cargo build --release =="
cargo build --release --offline --workspace

echo "== tier-1: cargo test -q =="
cargo test -q --offline --workspace

echo "== benchmark package: builds and passes its unit tests against this API =="
# perfbench is its own workspace with path deps on the runtime crates; an
# API change it cannot compile against must fail here, not in a bench run
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "== fail-soft: budget-abort suites =="
cargo test -q --offline -p aq-dd --test budget
cargo test -q --offline -p aq-sim --test fail_soft
cargo test -q --offline --test workspace gse_algebraic_run_fails_soft

echo "== persistence: snapshot fault injection + checkpoint/resume =="
cargo test -q --offline -p aq-dd --test snapshot_faults
cargo test -q --offline -p aq-dd --test snapshot_roundtrip
cargo test -q --offline -p aq-sim --test checkpoint_resume
cargo test -q --offline -p aq-bench --test resume_figures

echo "== invariants: validate-invariants feature gates =="
cargo test -q --offline -p aq-dd --features validate-invariants --test invariants
cargo test -q --offline -p aq-sim --features validate-invariants --lib

echo "== serve: concurrency + protocol fault suites (lock-order audit on) =="
cargo test -q --offline -p aq-serve --features lock-audit --test concurrency
cargo test -q --offline -p aq-serve --features lock-audit --test lock_audit
cargo test -q --offline -p aq-serve --features lock-audit --test protocol_faults
# static R9 graph must be acyclic and a superset of the runtime graph
cargo test -q --offline -p aq-serve --features lock-audit --test static_lock_order

echo "== serve: deterministic chaos suite (3 pinned seeds, lock-audit on) =="
# seed-driven worker kills, session corruption, connection stalls and
# spurious wakeups; asserts exact metric reconciliation and byte-identical
# results under every schedule (seeds pinned inside the suite)
cargo test -q --offline -p aq-serve --features chaos,lock-audit --test chaos
cargo test -q --offline -p aq-sim --features chaos --lib

echo "== serve: real server cycle over TCP (aq-served + aq-cli) =="
serve_ck="target/ci_serve_ckpts"
serve_log="target/ci_served.log"
rm -rf "$serve_ck" "$serve_log" target/ci_serve_*.json target/ci_serve_ghz10.qasm
./target/release/aq-served --port=0 --workers=2 --checkpoint-dir="$serve_ck" \
    >"$serve_log" 2>&1 &
serve_pid=$!
# scrape the ephemeral address from the server's "listening on" line
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_log" | head -n 1)"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    echo "aq-served never reported its address:"
    cat "$serve_log"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
cli() { ./target/release/aq-cli --addr="$addr" "$@"; }
# a roomy job that completes...
cli submit --circuit=grover --n=5 --marked=19 --scheme=numeric --eps=1e-10 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_completed.json
grep -q '"state":"completed"' target/ci_serve_completed.json \
    || { echo "expected a completed job"; exit 1; }
# ...and a starved one that budget-aborts, leaving a resumable checkpoint
cli submit --circuit=grover --n=6 --marked=45 --scheme=numeric --eps=1e-10 \
    --max-nodes=24 --wait=120 | tee target/ci_serve_aborted.json
grep -q '"state":"aborted"' target/ci_serve_aborted.json \
    || { echo "expected a budget abort"; exit 1; }
grep -q '"checkpoint":"' target/ci_serve_aborted.json \
    || { echo "expected a checkpoint path in the abort"; exit 1; }
ls "$serve_ck"/job-*.aqckp >/dev/null \
    || { echo "expected a checkpoint file on disk"; exit 1; }
# metrics must reconcile: 2 submitted == 1 completed + 1 aborted, none in flight
cli metrics | tee target/ci_serve_metrics.json
grep -q '"submitted":2,"completed":1,"aborted":1,"rejected":0' \
    target/ci_serve_metrics.json || { echo "metrics do not reconcile"; exit 1; }
grep -q '"queue_depth":0,"running":0' target/ci_serve_metrics.json \
    || { echo "expected an idle server"; exit 1; }
# resubmitting the completed job verbatim must be served from the result cache
cli submit --circuit=grover --n=5 --marked=19 --scheme=numeric --eps=1e-10 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_cached.json
grep -q '"state":"completed"' target/ci_serve_cached.json \
    || { echo "expected the cached resubmission to complete"; exit 1; }
cli metrics | tee target/ci_serve_metrics2.json
grep -q '"served":1,"hits":1' target/ci_serve_metrics2.json \
    || { echo "expected a result-cache hit in the metrics verb"; exit 1; }
# a seeded sampling job over the same server: 10-qubit GHZ under the exact
# gcd scheme — the histogram must sum to the shot count and the exact
# context must report probabilities as exactly one half, with exact strings
ghz_qasm="target/ci_serve_ghz10.qasm"
{
    printf 'OPENQASM 2.0;\nqreg q[10];\nh q[0];\n'
    for q in $(seq 1 9); do printf 'cx q[%d], q[%d];\n' "$((q - 1))" "$q"; done
} >"$ghz_qasm"
cli sample --qasm-file="$ghz_qasm" --scheme=gcd --shots=2048 --seed=9 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_sample.json
grep -q '"state":"completed"' target/ci_serve_sample.json \
    || { echo "expected the sampling job to complete"; exit 1; }
grep -q '"forked":false' target/ci_serve_sample.json \
    || { echo "GHZ has no mid-circuit measurement; sampling must not fork"; exit 1; }
grep -q '"p":0.5,"exact":"' target/ci_serve_sample.json \
    || { echo "expected exactly-1/2 probabilities with exact strings"; exit 1; }
extract_counts() { sed -n 's/.*"counts":\(\[.*\]\]\),"probabilities".*/\1/p' "$1" | head -n 1; }
counts1="$(extract_counts target/ci_serve_sample.json)"
sample_total=$(printf '%s' "$counts1" | grep -o '\[[0-9]*,[0-9]*\]' \
    | awk -F'[^0-9]+' '{s += $3} END {print s}')
[[ "$sample_total" == "2048" ]] \
    || { echo "histogram sums to ${sample_total:-0}, want 2048"; exit 1; }
# same seed again (top-k varied to defeat the result cache): the fresh run
# must reproduce the histogram bit-for-bit
cli sample --qasm-file="$ghz_qasm" --scheme=gcd --shots=2048 --seed=9 --top-k=5 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_sample2.json
counts2="$(extract_counts target/ci_serve_sample2.json)"
[[ -n "$counts1" && "$counts1" == "$counts2" ]] \
    || { echo "equal seeds must reproduce the histogram bit-for-bit"; exit 1; }
# the verbatim repeat is answered from the result cache, byte-identical
cli sample --qasm-file="$ghz_qasm" --scheme=gcd --shots=2048 --seed=9 \
    --max-nodes=2000000 --wait=120 | tee target/ci_serve_sample3.json
counts3="$(extract_counts target/ci_serve_sample3.json)"
[[ "$counts1" == "$counts3" ]] \
    || { echo "cache-served sample must be byte-identical"; exit 1; }
cli metrics | tee target/ci_serve_metrics3.json
grep -q '"samples":3,"shots":6144' target/ci_serve_metrics3.json \
    || { echo "expected sampling counters in the metrics verb"; exit 1; }
grep -q '"served":2,"hits":2' target/ci_serve_metrics3.json \
    || { echo "expected the repeat sample to be cache-served"; exit 1; }
cli drain | grep -q '"state":"drained"' || { echo "drain failed"; exit 1; }
cli shutdown | grep -q '"state":"stopped"' || { echo "shutdown failed"; exit 1; }
wait "$serve_pid" || { echo "aq-served exited non-zero"; exit 1; }
rm -rf "$serve_ck" "$serve_log" target/ci_serve_*.json "$ghz_qasm"

echo "== serve: kill -> respawn -> recover cycle over TCP (chaos build) =="
cargo build -q --release --offline -p aq-serve --features chaos
chaos_ck="target/ci_chaos_ckpts"
chaos_log="target/ci_chaos_served.log"
rm -rf "$chaos_ck" "$chaos_log" target/ci_chaos_*.json
# every even job id panics its worker mid-claim; the supervisor must
# recover the job as a transient abort and respawn the worker
./target/release/aq-served --port=0 --workers=2 --checkpoint-dir="$chaos_ck" \
    --restart-budget=100 --backoff-base-ms=5 --backoff-cap-ms=50 \
    --chaos-seed=7 --chaos-kill-every=2 >"$chaos_log" 2>&1 &
chaos_pid=$!
chaos_addr=""
for _ in $(seq 1 100); do
    chaos_addr="$(sed -n 's/^listening on //p' "$chaos_log" | head -n 1)"
    [[ -n "$chaos_addr" ]] && break
    sleep 0.1
done
if [[ -z "$chaos_addr" ]]; then
    echo "chaos aq-served never reported its address:"
    cat "$chaos_log"
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
ccli() { ./target/release/aq-cli --addr="$chaos_addr" "$@"; }
# job 1 (odd id) survives; job 2 is killed, aborts transient, and the
# retry loop resubmits until the respawned worker completes it
ccli submit --circuit=grover --n=5 --marked=19 --scheme=numeric --eps=1e-10 \
    --max-nodes=2000000 --retries=6 --wait=120 | tee target/ci_chaos_first.json
grep -q '"state":"completed"' target/ci_chaos_first.json \
    || { echo "expected the unkilled job to complete"; exit 1; }
ccli submit --circuit=grover --n=5 --marked=7 --scheme=numeric --eps=1e-10 \
    --max-nodes=2000000 --retries=6 --wait=120 | tee target/ci_chaos_second.json
grep -q '"reason":"transient:' target/ci_chaos_second.json \
    || { echo "expected a transient abort from the injected kill"; exit 1; }
grep -q '"state":"completed"' target/ci_chaos_second.json \
    || { echo "expected the retried job to complete after the respawn"; exit 1; }
ccli metrics | tee target/ci_chaos_metrics.json
grep -Eq '"worker_deaths":[1-9]' target/ci_chaos_metrics.json \
    || { echo "expected at least one detected worker death"; exit 1; }
grep -Eq '"worker_respawns":[1-9]' target/ci_chaos_metrics.json \
    || { echo "expected at least one respawn"; exit 1; }
ccli shutdown | grep -q '"state":"stopped"' || { echo "chaos shutdown failed"; exit 1; }
wait "$chaos_pid" || { echo "chaos aq-served exited non-zero"; exit 1; }
rm -rf "$chaos_ck" "$chaos_log" target/ci_chaos_*.json
# restore the feature-free binaries for anything running after CI
cargo build -q --release --offline -p aq-serve

if [[ "${1:-}" != "--no-bench" ]]; then
    echo "== serve bench: worker-scaling gate + chaos row =="
    # 4-worker throughput must not fall below 1-worker throughput; the
    # gate prints a skip notice (and passes) when host_cores == 1. The
    # chaos build adds the 1%-job-panic row (deaths/respawns/retries).
    # The run writes under target/: the committed BENCH_serve.json is a
    # reference measurement, refreshed deliberately, not on every CI run.
    serve_bench_json="target/ci_serve_bench.json"
    cargo run --release --offline -p aq-bench --features chaos --bin serve_bench -- \
        "$serve_bench_json" --scale-gate --chaos-seed=3405691582
    grep -q '"config": "chaos-1pct-kill-4w"' "$serve_bench_json" \
        || { echo "expected the chaos row in the serve bench report"; exit 1; }
    grep -q '"config": "sampler-final-1w"' "$serve_bench_json" \
        || { echo "expected the measurement-free sampler row"; exit 1; }
    grep -q '"config": "sampler-forked-1w"' "$serve_bench_json" \
        || { echo "expected the fork-per-shot sampler row"; exit 1; }

    echo "== engine bench: algebraic-gap regression gate (grover6) =="
    # GCD D[omega] throughput must hold at least half of numeric throughput
    # (measured ~1.2x on this workload; the gate catches a regression back
    # to the orders-of-magnitude gap this representation used to have)
    cargo run --release --offline -p aq-bench --bin engine_bench -- --gap-gate=0.5

    echo "== engine bench (BENCH_engine.json) =="
    cargo run --release --offline -p aq-bench --bin engine_bench -- BENCH_engine.json

    echo "== engine bench: real checkpoint/resume cycle =="
    ckpt="target/ci_engine_bench.aqckp"
    rm -f "$ckpt"
    # a 50 ms deadline aborts every workload mid-run; each abort dumps the
    # checkpoint (later workloads overwrite it)
    cargo run --release --offline -p aq-bench --bin engine_bench -- \
        target/ci_bench_aborted.json --deadline-secs=0.05 --checkpoint="$ckpt"
    test -f "$ckpt" || { echo "expected a checkpoint dump"; exit 1; }
    # resumed run must complete and leave no aborted samples
    cargo run --release --offline -p aq-bench --bin engine_bench -- \
        target/ci_bench_resumed.json --resume="$ckpt"
    if grep -q '"aborted": "' target/ci_bench_resumed.json; then
        echo "resumed engine_bench still has aborted samples"; exit 1
    fi
    rm -f "$ckpt" target/ci_bench_aborted.json target/ci_bench_resumed.json
fi

echo "CI OK"
