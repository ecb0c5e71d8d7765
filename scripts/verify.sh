#!/usr/bin/env bash
# Tier-1 verification: build, tests, formatting and lints — fully offline.
# The workspace has no external dependencies, so no network is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> bench_layers: fmt, clippy and unit tests (a package of its own, outside the workspace)"
cargo fmt --manifest-path bench_layers/Cargo.toml --check
cargo clippy --manifest-path bench_layers/Cargo.toml --all-targets -- -D warnings
cargo test --release --manifest-path bench_layers/Cargo.toml

echo "==> table4_passes golden (the whole Table 4 grid must match results/table4_passes.txt byte for byte)"
cargo run --release -q -p dmf-bench --bin table4_passes > /tmp/dmf_table4_passes.txt
diff results/table4_passes.txt /tmp/dmf_table4_passes.txt

echo "==> table3_full golden (Table 3 over the full 6066-ratio corpus must match results/table3_full.txt byte for byte)"
cargo run --release -q -p dmf-bench --bin table3_improvements > /tmp/dmf_table3_full.txt
diff results/table3_full.txt /tmp/dmf_table3_full.txt

echo "==> simulate golden (PCR at D=20, one pass and --storage 2 multi-pass, with the hottest-electrode lines, must match results/simulate_pcr.txt byte for byte)"
{
  target/release/dmfstream simulate 2:1:1:1:1:1:9 --demand 20
  target/release/dmfstream simulate 2:1:1:1:1:1:9 --demand 20 --storage 2
} > /tmp/dmf_simulate_pcr.txt
diff results/simulate_pcr.txt /tmp/dmf_simulate_pcr.txt

echo "==> fault_sweep smoke (fixed seed, all five protocols must meet demand)"
cargo run --release -q -p dmf-bench --bin fault_sweep -- --seed 42 --fault-rate 0.05 --trials 1 >/dev/null

echo "==> dmfstream check --all-protocols (static verifier, exit 1 on any error)"
cargo run --release -q --bin dmfstream -- check --all-protocols

echo "==> dmfstream check --all-protocols --backend row-column (PIN/* rules on the paper oracles)"
cargo run --release -q --bin dmfstream -- check --all-protocols --backend row-column

echo "==> dmfstream check --all-protocols --deep (FLOW/FEAS dataflow analyses, strictest gate)"
cargo run --release -q --bin dmfstream -- check --all-protocols --deep --deny warn \
  --json /tmp/dmf_check_findings.json > /tmp/dmf_check_deep.txt
grep -q '^findings json parse OK: ' /tmp/dmf_check_deep.txt || {
  echo "deep check: --json round-trip did not report back"
  exit 1
}
grep -q '"version":1' /tmp/dmf_check_findings.json || {
  echo "deep check: findings JSON missing version header"
  exit 1
}

echo "==> infeasible request gate (FEAS001 must reject 1:2 pre-planning, exit 1)"
if infeasible_out=$(target/release/dmfstream check 1:2 --demand 4 2>&1); then
  echo "infeasible gate: check 1:2 exited 0; output: $infeasible_out"
  exit 1
fi
printf '%s' "$infeasible_out" | grep -q 'FEAS001' || {
  echo "infeasible gate: diagnostics did not cite FEAS001: $infeasible_out"
  exit 1
}
if target/release/dmfstream plan 1:2 --demand 4 >/dev/null 2>&1; then
  echo "infeasible gate: plan 1:2 exited 0"
  exit 1
fi

echo "==> bench_backends smoke (demand met under every backend; direct yield bounds pinned yields; wear-aware peak < wear-blind)"
cargo run --release -q -p dmf-bench --bin bench_backends -- /tmp/dmf_bench_backends.json >/dev/null
[ -s /tmp/dmf_bench_backends.json ] || { echo "bench_backends: no JSON written"; exit 1; }

echo "==> batch determinism smoke (check --jobs 4 output must match --jobs 1)"
cargo run --release -q --bin dmfstream -- check --all-protocols --jobs 1 > /tmp/dmf_check_j1.txt
cargo run --release -q --bin dmfstream -- check --all-protocols --jobs 4 > /tmp/dmf_check_j4.txt
diff /tmp/dmf_check_j1.txt /tmp/dmf_check_j4.txt

echo "==> registry gate (name listings match results/registries.txt byte for byte; unknown --algo/--scheduler exit 2 typed)"
target/release/dmfstream plan --list-algorithms --list-schedulers > /tmp/dmf_registries.txt
diff results/registries.txt /tmp/dmf_registries.txt
set +e
unknown_out=$(target/release/dmfstream plan 2:1:1:1:1:1:9 --demand 4 --algo nonesuch 2>&1)
unknown_code=$?
set -e
[ "$unknown_code" -eq 2 ] || {
  echo "registry gate: unknown --algo exited $unknown_code, expected 2"
  exit 1
}
printf '%s' "$unknown_out" | grep -q 'unknown mixing algorithm "nonesuch" (registered: mm, rma, mtcs, rsm)' || {
  echo "registry gate: unknown --algo error was not typed: $unknown_out"
  exit 1
}
printf '%s' "$unknown_out" | grep -q 'list-algorithms' || {
  echo "registry gate: unknown --algo error did not suggest --list-algorithms: $unknown_out"
  exit 1
}
set +e
unknown_out=$(target/release/dmfstream plan 2:1:1:1:1:1:9 --demand 4 --scheduler nonesuch 2>&1)
unknown_code=$?
set -e
[ "$unknown_code" -eq 2 ] || {
  echo "registry gate: unknown --scheduler exited $unknown_code, expected 2"
  exit 1
}
printf '%s' "$unknown_out" | grep -q 'unknown scheduler "nonesuch" (registered: mms, srs)' || {
  echo "registry gate: unknown --scheduler error was not typed: $unknown_out"
  exit 1
}

echo "==> bench_plan (plan cache micro-benchmark; warm hit must be >= 10x faster, no warm-cache regression vs results/BENCH_plan.json)"
cargo run --release -q -p dmf-bench --bin bench_plan -- /tmp/dmf_bench_plan.json >/dev/null
recorded_speedup=$(sed -n 's/.*"warm_speedup": \([0-9.]*\).*/\1/p' results/BENCH_plan.json | head -1)
fresh_speedup=$(sed -n 's/.*"warm_speedup": \([0-9.]*\).*/\1/p' /tmp/dmf_bench_plan.json | head -1)
[ -n "$recorded_speedup" ] && [ -n "$fresh_speedup" ] || {
  echo "bench_plan: could not extract warm_speedup (recorded='$recorded_speedup' fresh='$fresh_speedup')"
  exit 1
}
# Machine-noise tolerance: the fresh warm-cache speedup must stay within
# 2x of the committed baseline (and bench_plan itself enforces >= 10x).
awk -v fresh="$fresh_speedup" -v recorded="$recorded_speedup" \
  'BEGIN { exit !(fresh * 2.0 >= recorded) }' || {
  echo "bench_plan: warm-cache speedup regressed: fresh ${fresh_speedup}x vs recorded ${recorded_speedup}x"
  exit 1
}

echo "==> bench_plan jobs curve (parallel batch gate, scaled to this machine)"
# The committed exhibit must carry the jobs curve, and the fresh run must
# show parallel planning paying off: on >= 4 hardware threads, jobs=4 must
# halve the jobs=1 wall time; on narrower machines (a 2x parallel speedup
# is physically impossible there) jobs=4 must not lose to jobs=1 beyond
# thread-timeslice noise. bench_plan enforces the same bound internally;
# this re-checks the numbers it wrote so the gate survives exhibit edits.
grep -q '"jobs_curve"' results/BENCH_plan.json || {
  echo "bench_plan: committed results/BENCH_plan.json is missing the jobs_curve"
  exit 1
}
batch_requests=$(sed -n 's/.*"requests": \([0-9]*\).*/\1/p' /tmp/dmf_bench_plan.json | head -1)
parallelism=$(sed -n 's/.*"parallelism": \([0-9]*\).*/\1/p' /tmp/dmf_bench_plan.json | head -1)
jobs1_ns=$(sed -n 's/.*"jobs1_wall_ns": \([0-9]*\).*/\1/p' /tmp/dmf_bench_plan.json | head -1)
jobs4_ns=$(sed -n 's/.*"jobs4_wall_ns": \([0-9]*\).*/\1/p' /tmp/dmf_bench_plan.json | head -1)
[ -n "$batch_requests" ] && [ -n "$parallelism" ] && [ -n "$jobs1_ns" ] && [ -n "$jobs4_ns" ] || {
  echo "bench_plan: could not extract the jobs curve from /tmp/dmf_bench_plan.json"
  exit 1
}
[ "$batch_requests" -ge 500 ] || {
  echo "bench_plan: batch has only $batch_requests requests (gate needs >= 500)"
  exit 1
}
if [ "$parallelism" -ge 4 ]; then
  awk -v j1="$jobs1_ns" -v j4="$jobs4_ns" 'BEGIN { exit !(j4 * 2 <= j1) }' || {
    echo "bench_plan: jobs=4 (${jobs4_ns}ns) is not 2x faster than jobs=1 (${jobs1_ns}ns) on $parallelism threads"
    exit 1
  }
else
  awk -v j1="$jobs1_ns" -v j4="$jobs4_ns" 'BEGIN { exit !(j4 <= j1 * 1.15) }' || {
    echo "bench_plan: jobs=4 (${jobs4_ns}ns) regressed past jobs=1 (${jobs1_ns}ns) on a ${parallelism}-thread machine"
    exit 1
  }
fi

echo "==> bench_obs (tracing overhead gate: enabled sweep <= 10% over disabled)"
cargo run --release -q -p dmf-bench --bin bench_obs -- /tmp/dmf_bench_obs.json >/dev/null

echo "==> profile smoke (exporters: folded stacks well-formed, chrome trace parses back; span tree matches results/profile_stacks.txt)"
profile_out=$(target/release/dmfstream profile 2:1:1:1:1:1:9 --demand 20 \
  --folded /tmp/dmf_profile.folded --chrome /tmp/dmf_profile.trace.json)
printf '%s\n' "$profile_out" | grep -q '^chrome trace parse OK: [1-9][0-9]* events$' || {
  echo "profile smoke: chrome trace did not parse back: $profile_out"
  exit 1
}
[ -s /tmp/dmf_profile.folded ] || { echo "profile smoke: folded output empty"; exit 1; }
grep -Eq '^[A-Za-z0-9_]+(;[A-Za-z0-9_]+)* [0-9]+$' /tmp/dmf_profile.folded || {
  echo "profile smoke: folded stacks malformed"
  exit 1
}
grep -q '^dmfstream_profile;engine_plan' /tmp/dmf_profile.folded || {
  echo "profile smoke: folded stacks missing the engine_plan tree"
  exit 1
}
# The planner's span tree under a storage budget (every step, the §6 scan
# nesting forest/schedule under split_passes) must match the golden file.
target/release/dmfstream profile 2:1:1:1:1:1:9 --demand 20 --storage 3 \
  --folded /tmp/dmf_profile_q3.folded >/dev/null
cut -d' ' -f1 /tmp/dmf_profile_q3.folded | LC_ALL=C sort -u > /tmp/dmf_profile_stacks.txt
diff results/profile_stacks.txt /tmp/dmf_profile_stacks.txt

echo "==> serve smoke (served plan must match dmfstream plan; clean shutdown)"
serve_log=$(mktemp)
target/release/dmfstream serve --port 0 --workers 2 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill -9 "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  grep -q "^listening on " "$serve_log" && break
  sleep 0.05
done
serve_addr=$(sed -n 's/^listening on //p' "$serve_log" | head -1)
[ -n "$serve_addr" ] || { echo "serve smoke: server never announced its address"; exit 1; }
# No pipe to head here: head closing early races the writer into an EPIPE panic.
plan_full=$(target/release/dmfstream plan 2:1:1:1:1:1:9 --demand 20)
plan_summary=${plan_full%%$'\n'*}
served=$(target/release/dmfstream request 2:1:1:1:1:1:9 --demand 20 --connect "$serve_addr")
served_summary=$(printf '%s' "$served" | sed -n 's/.*"summary":"\([^"]*\)".*/\1/p')
[ "$served_summary" = "$plan_summary" ] || {
  echo "serve smoke: served summary '$served_summary' != plan output '$plan_summary'"
  exit 1
}
stats=$(target/release/dmfstream request --op stats --connect "$serve_addr")
printf '%s' "$stats" | grep -q '"planned":1' || {
  echo "serve smoke: stats did not report the planned request: $stats"
  exit 1
}
# A named algorithm must thread through the protocol to the server's
# engine: the served plan must match the local plan under the same --algo.
plan_rma=$(target/release/dmfstream plan 2:1:1:1:1:1:9 --demand 20 --algo rma)
plan_rma_summary=${plan_rma%%$'\n'*}
served_rma=$(target/release/dmfstream request 2:1:1:1:1:1:9 --demand 20 --algo rma --connect "$serve_addr")
served_rma_summary=$(printf '%s' "$served_rma" | sed -n 's/.*"summary":"\([^"]*\)".*/\1/p')
[ "$served_rma_summary" = "$plan_rma_summary" ] || {
  echo "serve smoke: served --algo rma summary '$served_rma_summary' != plan output '$plan_rma_summary'"
  exit 1
}
# `request` ships raw parts so the server-side feasibility gate answers.
rejected=$(target/release/dmfstream request 1:2 --demand 4 --connect "$serve_addr" || true)
printf '%s' "$rejected" | grep -q '"error":"infeasible"' || {
  echo "serve smoke: 1:2 was not rejected as infeasible: $rejected"
  exit 1
}
printf '%s' "$rejected" | grep -q 'FEAS001' || {
  echo "serve smoke: infeasible rejection did not cite FEAS001: $rejected"
  exit 1
}
stats=$(target/release/dmfstream request --op stats --connect "$serve_addr")
printf '%s' "$stats" | grep -q '"infeasible":1' || {
  echo "serve smoke: stats did not count the infeasible request: $stats"
  exit 1
}
target/release/dmfstream request --op shutdown --connect "$serve_addr" >/dev/null
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "serve smoke: server did not shut down within 10s"
  exit 1
fi
trap - EXIT
wait "$serve_pid" || { echo "serve smoke: server exited non-zero"; exit 1; }

echo "verify: OK"
