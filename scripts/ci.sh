#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# ---- per-stage wall-clock bookkeeping: stage NAME closes the previous
# stage and opens the next; the summary table prints on any exit
stage_names=()
stage_secs=()
current_stage=""
current_started=0
stage() {
    local now=$SECONDS
    if [ -n "$current_stage" ]; then
        stage_names+=("$current_stage")
        stage_secs+=($((now - current_started)))
    fi
    current_stage="${1:-}"
    current_started=$now
    # plain `if` — a `[ ... ] &&` tail would return 1 for the closing
    # stage "" call and kill the EXIT trap under set -e
    if [ -n "$current_stage" ]; then
        echo "== $current_stage"
    fi
}
stage_summary() {
    stage "" # close the stage in flight
    [ "${#stage_names[@]}" -eq 0 ] && return 0
    echo "stage timing:"
    local i
    for i in "${!stage_names[@]}"; do
        printf '  %4ss  %s\n' "${stage_secs[$i]}" "${stage_names[$i]}"
    done
    printf '  %4ss  total\n' "$SECONDS"
}

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"; stage_summary' EXIT

stage "cargo fmt --check"
cargo fmt --check

stage "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo test -q --workspace"
cargo test -q --workspace

stage "shared-vs-solo matrix (734 CUDA variants x 5 Tiny graphs, release)"
# one gpusim execution priced for both GPUs must report, per device, the
# bits of that device's solo run on every variant, graph and worker count
cargo test -q --release --test shared_execution -- --ignored

stage "fault-injection smoke (crash, resume, clean exits)"
cargo build -q --release -p indigo2 --bin indigo-exp
exp=target/release/indigo-exp
journal="$smoke_dir/run.jsonl"

# an injected panic must complete the sweep with a structured crashed row
# and the completed-with-failed-cells exit code (2)
set +e
"$exp" --smoke --inject-fault panic@3 --journal "$journal" --out "$smoke_dir/fault" >/dev/null
code=$?
set -e
[ "$code" -eq 2 ] || { echo "fault run exited $code, want 2"; exit 1; }
grep -q '"outcome":"crashed"' "$journal" || { echo "no crashed row in journal"; exit 1; }

# SIGKILL emulation: truncate the journal mid-line, then --resume must
# replay the prefix and still finish with exit 2 (the crash is journaled)
head -c "$(($(wc -c <"$journal") / 2))" "$journal" >"$journal.cut"
set +e
"$exp" --smoke --inject-fault panic@3 --resume "$journal.cut" --out "$smoke_dir/resume" >/dev/null
code=$?
set -e
[ "$code" -eq 2 ] || { echo "resume run exited $code, want 2"; exit 1; }

# and a fault-free smoke run exits clean
"$exp" --smoke --out "$smoke_dir/clean" >/dev/null ||
    { echo "clean smoke run exited $?, want 0"; exit 1; }

stage "style advisor gate (fit from smoke journal, held-out regret bound)"
# the data-driven style advisor (DESIGN.md §7.11): fitted from the fault
# run's journal above (its crashed cell must be skipped, not learned), then
# validated against deterministic CUDA-sim ground truth on held-out
# generated graphs — so the reported regret is bit-reproducible and gateable
"$exp" advise --journal "$journal" --out "$smoke_dir/advise" >/dev/null ||
    { echo "advise run failed"; exit 1; }
bench_advisor="$smoke_dir/advise/BENCH_advisor.json"
[ -s "$bench_advisor" ] || { echo "advise run wrote no BENCH_advisor.json"; exit 1; }
for key in '"schema": "bench-advisor-v1"' '"training_cells"' '"held_out_cases"' \
           '"mean_regret_top1"' '"mean_regret_top3"' '"method": "nearest-neighbor"'; do
    grep -q "$key" "$bench_advisor" ||
        { echo "BENCH_advisor.json is missing $key"; exit 1; }
done
# top-3 regret on the held-out graphs must stay small: the smoke fit's
# measured value is ~0.0006, so 0.10 catches a broken model, not noise
# (the ground truth is simulated cycles — there is no noise to absorb)
regret=$(sed -n 's/.*"mean_regret_top3": \([0-9.eE+-]*\).*/\1/p' "$bench_advisor" | head -n 1)
[ -n "$regret" ] || { echo "BENCH_advisor.json has no mean_regret_top3"; exit 1; }
awk -v v="$regret" 'BEGIN { exit !(v >= 0 && v <= 0.10) }' ||
    { echo "held-out top-3 regret $regret exceeds the 0.10 bound"; exit 1; }

stage "serve chaos gate (admission, deadlines, retries, breaker, restart)"
# the query server's robustness invariants (DESIGN.md §7.8), offline on an
# ephemeral loopback port: synthetic multi-client traffic with injected
# faults must end with every request answered or shed, the breaker tripping
# and recovering, and a bit-exact journal replay across a restart
"$exp" serve --chaos --journal "$smoke_dir/serve.jsonl" --out "$smoke_dir/serve" >/dev/null ||
    { echo "serve chaos gate failed"; exit 1; }
bench_serve="$smoke_dir/serve/BENCH_serve.json"
[ -s "$bench_serve" ] || { echo "chaos run wrote no BENCH_serve.json"; exit 1; }
for key in '"schema": "bench-serve-v1"' '"requests"' '"shed"' '"retries"' \
           '"breaker_trips"' '"breaker_recoveries"' '"latency_ms"' '"saturation_rps"' \
           '"metrics_series"' '"advised"' '"flight_pushed"' '"flight_dumps"'; do
    grep -q "$key" "$bench_serve" ||
        { echo "BENCH_serve.json is missing $key"; exit 1; }
done
# the chaos run scraped /metrics on the quiet server, validated the
# exposition syntax, and cross-checked shed/cache_hits/breaker_trips
# against /stats in-process (DESIGN.md §7.10); a zero series count would
# mean that phase silently did nothing
! grep -q '"metrics_series": 0,' "$bench_serve" ||
    { echo "chaos run validated an empty /metrics exposition"; exit 1; }
# the chaos run also asserted style=auto bit-identity in-process: /advise
# named a variant and a style=auto /run answered byte-for-byte the same as
# requesting that variant explicitly; a zero count means the phase vanished
! grep -q '"advised": 0,' "$bench_serve" ||
    { echo "chaos run exercised no style-advisor answers"; exit 1; }
# this stage runs with telemetry compiled OUT: request IDs, stage timing,
# /metrics, and the flight recorder must be fully live regardless
grep -q '"telemetry_enabled": false' "$bench_serve" ||
    { echo "chaos gate expected a telemetry-off build"; exit 1; }
# every 5xx during chaos must have produced a flight-recorder dump that
# names the failing request and carries its stage timeline
ls "$smoke_dir"/serve/FLIGHT_*.jsonl >/dev/null 2>&1 ||
    { echo "chaos 5xx responses produced no FLIGHT_*.jsonl dump"; exit 1; }
grep -q '"trigger":true' "$smoke_dir"/serve/FLIGHT_*.jsonl ||
    { echo "flight dumps carry no trigger record"; exit 1; }
grep -q '"stages":{"queue_us":' "$smoke_dir"/serve/FLIGHT_*.jsonl ||
    { echo "flight dumps carry no stage timeline"; exit 1; }

stage "benchmark smoke (self-tests + five quick workloads: correctness only)"
# benchmark/ (BENCHMARK.json) is a package outside the workspace, so
# `cargo test --workspace` never builds it. Here it must build, pass its
# self-tests, and run every workload for a tenth of the time with every
# op's output checked (exit 2 on a failed op). No metric is compared:
# measuring needs a quiet machine and the parent commit beside the change.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick >"$smoke_dir/benchmark.txt" ||
    { echo "benchmark smoke failed:"; tail -n 20 "$smoke_dir/benchmark.txt"; exit 1; }
tail -n 1 "$smoke_dir/benchmark.txt" | grep -q '"workloads":{"sweep_sim":{"correct":true' ||
    { echo "benchmark smoke printed no ledger row"; exit 1; }

stage "telemetry (feature-on tests, trace validation, zero-cost guard)"
# the full suite again with recording compiled in: obs live tests, the
# trace integration test, and the alloc-regression pin all re-run hot
cargo test -q --workspace --features telemetry

# a telemetry smoke run must emit a trace that the checker accepts and
# the chrome exporter converts; profile must render from the same file
cargo build -q --release -p indigo2 --bin indigo-exp --features telemetry
texp=target/release/indigo-exp
"$texp" --smoke --out "$smoke_dir/telemetry" >/dev/null
trace="$smoke_dir/telemetry/TRACE_smoke.jsonl"
[ -s "$trace" ] || { echo "telemetry smoke wrote no trace"; exit 1; }
"$texp" trace --in "$trace" --check
"$texp" trace --in "$trace" --out "$smoke_dir/telemetry/trace.json" >/dev/null
grep -q '"ph": "X"' "$smoke_dir/telemetry/trace.json" ||
    { echo "chrome export has no complete events"; exit 1; }
"$texp" profile --in "$trace" --out "$smoke_dir/telemetry" >/dev/null

stage "sanitize (feature-on tests, smoke verdicts, mutation gate)"
# the style-conformance sanitizer (DESIGN.md §7.6): feature-on test suite,
# then a smoke sweep that must find no label violations...
cargo test -q --workspace --features sanitize
cargo build -q --release -p indigo2 --bin indigo-exp --features sanitize
sexp=target/release/indigo-exp
"$sexp" sanitize --smoke --out "$smoke_dir/sanitize" >/dev/null
# ...while a seeded mutation (atomics dropped at RMW update sites) must be
# flagged and exit with the violations code (2)
set +e
"$sexp" sanitize --smoke --mutate-drop-atomics --out "$smoke_dir/sanitize-mut" >/dev/null
code=$?
set -e
[ "$code" -eq 2 ] || { echo "mutated sanitize run exited $code, want 2"; exit 1; }
grep -q 'VIOLATION' "$smoke_dir/sanitize-mut/sanitize.txt" ||
    { echo "mutated sanitize run reported no violations"; exit 1; }

# zero-cost guard: the default build must stay telemetry- and sanitizer-
# free — the smoke runs above in this script used both, so just pin the
# compile-time switches
cargo build -q --release -p indigo2 --bin indigo-exp
target/release/indigo-exp --smoke --out "$smoke_dir/off" >/dev/null
ls "$smoke_dir"/off/TRACE_*.jsonl >/dev/null 2>&1 &&
    { echo "telemetry-off build wrote a trace file"; exit 1; }
grep -q '"telemetry_enabled": false' "$smoke_dir/off/BENCH_harness.json" ||
    { echo "telemetry-off build reports telemetry_enabled != false"; exit 1; }
grep -q '"sanitize_enabled": false' "$smoke_dir/off/BENCH_harness.json" ||
    { echo "sanitize-off build reports sanitize_enabled != false"; exit 1; }

stage "telemetry overhead gate (<3% smoke CPU time, interleaved min of 4)"
scripts/bench_harness.sh --check

echo "CI green."
