#!/usr/bin/env bash
# Repository CI gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> kernel tier forcing"
# The workspace run above exercises native dispatch (the best tier the
# machine supports). Re-run the kernel-sensitive suites pinned to the
# portable SWAR tier so cross-tier byte-identity is checked even on hosts
# where AVX2/SSE2 would otherwise mask a SWAR regression (serve's lib suite
# holds the pinned `encode` reply text), and confirm an unknown tier is a
# typed error, not a silent fallback. Auto-detection never picks SSE2 on
# an AVX2 host, so x86_64 also runs the grid suite and the golden digests
# end to end on SSE2, which shares the plane-count driver with SWAR and AVX2.
# The tier also picks the synthesis sampler's instance (AVX2 or plain), so
# the synthesis pins and the golden digests run on the plain one too.
SIBIA_FORCE_KERNEL=swar cargo test -q -p sibia-sbr
SIBIA_FORCE_KERNEL=swar cargo test -q -p sibia-sim --test parallel
SIBIA_FORCE_KERNEL=swar cargo test -q -p sibia-serve --lib
SIBIA_FORCE_KERNEL=swar cargo test -q -p sibia-nn
SIBIA_FORCE_KERNEL=swar cargo test -q -p sibia-bench --test golden
if [ "$(uname -m)" = "x86_64" ]; then
  SIBIA_FORCE_KERNEL=sse2 cargo test -q -p sibia-sim --test parallel
  SIBIA_FORCE_KERNEL=sse2 cargo test -q -p sibia-bench --test golden
fi
if SIBIA_FORCE_KERNEL=nonsense ./target/release/sibia-cli networks 2>/dev/null; then
  echo "unknown kernel tier was silently accepted"; exit 1
fi

echo "==> exhaustive quantizer sweep"
# The vectorized quantizer against the former libm-round expression on all
# 2^32 f32 bit patterns at 4, 7, 10 and 13 bits (about two minutes).
cargo test --release -q -p sibia-sbr -- --ignored

echo "==> exhaustive sampler math"
# The synthesis sampler's ports of glibc's logf and cosf against the host
# libm, and its AVX2 instance against the plain one, on all 2^24 inputs
# each function can get (about a second); and GELU's port of glibc's tanhf,
# plain and AVX2, against the host libm on all 2^32 f32 inputs (about two
# minutes on two cores). glibc Linux hosts only.
cargo test --release -q -p sibia-nn -- --ignored

echo "==> science smoke test"
# report_all, run in an empty directory, must write exactly the committed
# results/ files. The golden suite (report_all's files, the seed-1 fig grid
# and the committed results/ against the benchmark's expected.json digests)
# runs explicitly so a workspace test filter can never silently skip it.
science_dir="$(mktemp -d)"
report_all="$PWD/target/release/report_all"
(cd "$science_dir" && "$report_all" >/dev/null)
for f in REPORT.md layers_resnet18.csv layers_albert_qqp.csv; do
  cmp "results/$f" "$science_dir/results/$f" \
    || { echo "report_all wrote a different results/$f"; exit 1; }
done
rm -rf "$science_dir"
# Every other experiment binary prints a deterministic table; its stdout
# must match the committed results/<id>.txt byte for byte. A new experiment
# without a committed copy fails here.
for src in crates/bench/src/bin/*.rs; do
  bin="$(basename "$src" .rs)"
  [ "$bin" = report_all ] && continue
  "./target/release/$bin" | cmp "results/$bin.txt" - \
    || { echo "$bin printed something other than results/$bin.txt"; exit 1; }
done
cargo test -q -p sibia-bench --test golden

echo "==> obs smoke test"
# A traced simulate must emit a Perfetto-loadable Chrome trace_event JSONL
# profile with at least one span per layer; trace-check validates both. The
# profile must come from the engine: a one-cell grid request, so every layer
# span nests under sim.network, sim.cell and sim.grid.
trace_out="$(mktemp)"
./target/release/sibia-cli simulate dgcnn --trace-out "$trace_out"
./target/release/sibia-cli trace-check "$trace_out" --network dgcnn \
  --chain sim.grid,sim.cell,sim.network,sim.layer
rm -f "$trace_out"
# Disabled tracing must stay allocation-free (counting-allocator test).
cargo test -q -p sibia-obs --test noalloc

echo "==> store smoke test"
# Crash-safety end to end: populate the store, tear the log mid-record,
# check that verify reports the damage (nonzero, read-only), that reopening
# repairs the tail, and that verify then passes. The warm-restart
# integration suite (serve --store-dir kill/restart byte-identity) runs
# explicitly so a workspace test filter can never silently skip it.
store_dir="$(mktemp -d)"
./target/release/sibia-cli simulate dgcnn --seed 3 --store-dir "$store_dir" >/dev/null
./target/release/sibia-cli store verify --store-dir "$store_dir" | grep -q "ok (1 records)"
truncate -s -1 "$store_dir/store.log"   # torn tail: chop mid-record
if ./target/release/sibia-cli store verify --store-dir "$store_dir" 2>/dev/null; then
  echo "store verify accepted a torn log"; exit 1
fi
./target/release/sibia-cli store stats --store-dir "$store_dir" >/dev/null  # open repairs
./target/release/sibia-cli store verify --store-dir "$store_dir"
./target/release/sibia-cli store compact --store-dir "$store_dir"
rm -rf "$store_dir"
cargo test -q -p sibia-serve --test warm_restart

echo "==> serve smoke test"
# One daemon on an ephemeral port: a sweep with --stream must put at least
# one per-cell progress frame on stderr and end in a document byte-identical
# to the plain sweep of the same grid, and the plain sweep must be
# byte-identical to `fleet sweep --local`, the same grid in process written
# by the library's result writer; then SIGTERM must drain it cleanly.
# The load suite (8 and 1,000 pipelined connections, zero protocol errors)
# runs explicitly so a workspace test filter can never silently skip it.
serve_dir="$(mktemp -d)"
./target/release/sibia-cli serve --port 0 >"$serve_dir/serve.log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
serve_addr=""
for _ in $(seq 1 50); do
  serve_addr="$(sed -n 's/^sibia-serve listening on //p' "$serve_dir/serve.log")"
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
[ -n "$serve_addr" ] || { echo "serve daemon never came up"; cat "$serve_dir/serve.log"; exit 1; }
stream_grid=(--archs sibia,bitfusion --networks dgcnn --seeds 1,2 --sample-cap 512)
./target/release/sibia-cli sweep --endpoint "$serve_addr" "${stream_grid[@]}" \
  >"$serve_dir/plain.json"
./target/release/sibia-cli sweep --endpoint "$serve_addr" "${stream_grid[@]}" --stream \
  >"$serve_dir/stream.json" 2>"$serve_dir/progress.log"
grep -q "^progress: " "$serve_dir/progress.log" \
  || { echo "streamed sweep emitted no progress frames"; cat "$serve_dir/progress.log"; exit 1; }
cmp "$serve_dir/plain.json" "$serve_dir/stream.json" \
  || { echo "streamed final document differs from the plain sweep"; exit 1; }
./target/release/sibia-cli fleet sweep --local "${stream_grid[@]}" >"$serve_dir/local.json"
cmp "$serve_dir/plain.json" "$serve_dir/local.json" \
  || { echo "the daemon's sweep differs from the in-process grid"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid"
trap - EXIT
grep -q "shutdown complete" "$serve_dir/serve.log" \
  || { echo "daemon did not drain cleanly"; cat "$serve_dir/serve.log"; exit 1; }
rm -rf "$serve_dir"
cargo test -q -p sibia-serve --test load

echo "==> fleet smoke test"
# Two store-backed daemons, a sharded sweep, and a SIGKILL of one backend
# mid-run: the merged document must still be byte-identical to the
# single-process grid. This is the end-to-end failover determinism gate.
# The failover suite (byte identity under faults, and the straggler gate:
# stealing and hedging at least 3x faster than a static schedule) runs
# explicitly so a workspace test filter can never silently skip it.
fleet_dir="$(mktemp -d)"
mkdir -p "$fleet_dir/store-a" "$fleet_dir/store-b"
./target/release/sibia-cli serve --port 0 --store-dir "$fleet_dir/store-a" \
  >"$fleet_dir/a.log" 2>&1 &
fleet_pid_a=$!
./target/release/sibia-cli serve --port 0 --store-dir "$fleet_dir/store-b" \
  >"$fleet_dir/b.log" 2>&1 &
fleet_pid_b=$!
trap 'kill "$fleet_pid_a" "$fleet_pid_b" 2>/dev/null || true' EXIT
fleet_addr_a=""; fleet_addr_b=""
for _ in $(seq 1 50); do
  fleet_addr_a="$(sed -n 's/^sibia-serve listening on //p' "$fleet_dir/a.log")"
  fleet_addr_b="$(sed -n 's/^sibia-serve listening on //p' "$fleet_dir/b.log")"
  [ -n "$fleet_addr_a" ] && [ -n "$fleet_addr_b" ] && break
  sleep 0.1
done
[ -n "$fleet_addr_a" ] && [ -n "$fleet_addr_b" ] \
  || { echo "fleet backends never came up"; cat "$fleet_dir"/*.log; exit 1; }
fleet_grid=(--archs sibia,bitfusion --networks dgcnn --seeds 1,2,3,4,5,6 --sample-cap 512)
./target/release/sibia-cli fleet sweep --local "${fleet_grid[@]}" >"$fleet_dir/direct.json"
./target/release/sibia-cli fleet sweep --endpoints "$fleet_addr_a,$fleet_addr_b" \
  "${fleet_grid[@]}" >"$fleet_dir/fleet.json" 2>"$fleet_dir/fleet.log" &
fleet_sweep_pid=$!
sleep 0.3
kill -9 "$fleet_pid_b" 2>/dev/null || true
wait "$fleet_sweep_pid"   # set -e: a failed sweep fails CI here
cmp "$fleet_dir/direct.json" "$fleet_dir/fleet.json" \
  || { echo "fleet merge is not byte-identical to the direct grid"; exit 1; }
kill -TERM "$fleet_pid_a"
wait "$fleet_pid_a" || true
wait "$fleet_pid_b" 2>/dev/null || true
trap - EXIT
rm -rf "$fleet_dir"
cargo test -q -p sibia-fleet --test failover

echo "==> fleet chaos smoke test"
# The control plane under churn: three backends take the sweep, a fresh
# fourth joins 100 ms in (--join), and one of the originals is SIGKILLed at
# ~150 ms. The merged document must stay byte-identical to the direct grid
# and the stats line must record exactly one join — this is the
# membership-churn determinism gate. (Whether the kill lands mid-sweep or
# just after is timing-dependent; the bytes must be identical either way.)
chaos_dir="$(mktemp -d)"
chaos_pids=()
for i in 1 2 3 4; do
  ./target/release/sibia-cli serve --port 0 >"$chaos_dir/$i.log" 2>&1 &
  chaos_pids+=($!)
done
trap 'kill "${chaos_pids[@]}" 2>/dev/null || true' EXIT
chaos_addrs=()
for i in 1 2 3 4; do
  addr=""
  for _ in $(seq 1 50); do
    addr="$(sed -n 's/^sibia-serve listening on //p' "$chaos_dir/$i.log")"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "chaos backend $i never came up"; cat "$chaos_dir"/*.log; exit 1; }
  chaos_addrs+=("$addr")
done
# 96 full-sample cells keep the sweep running well past the 150 ms kill
# (about 0.7 s on a 2-core host), so the join lands mid-sweep.
chaos_grid=(--archs sibia,bitfusion --networks dgcnn
            --seeds "$(seq -s, 1 48)" --sample-cap 32768)
./target/release/sibia-cli fleet sweep --local "${chaos_grid[@]}" >"$chaos_dir/direct.json"
./target/release/sibia-cli fleet sweep \
  --endpoints "${chaos_addrs[0]},${chaos_addrs[1]},${chaos_addrs[2]}" \
  --join "100:${chaos_addrs[3]}" --status-out "$chaos_dir/status.json" \
  "${chaos_grid[@]}" >"$chaos_dir/fleet.json" 2>"$chaos_dir/fleet.log" &
chaos_sweep_pid=$!
sleep 0.15
kill -9 "${chaos_pids[2]}" 2>/dev/null || true
wait "$chaos_sweep_pid"   # set -e: a failed sweep fails CI here
cmp "$chaos_dir/direct.json" "$chaos_dir/fleet.json" \
  || { echo "chaos sweep is not byte-identical to the direct grid"; exit 1; }
grep -q "joins 1" "$chaos_dir/fleet.log" \
  || { echo "mid-sweep join was not recorded"; cat "$chaos_dir/fleet.log"; exit 1; }
grep -q '"endpoint":"'"${chaos_addrs[3]}"'"' "$chaos_dir/status.json" \
  || { echo "status snapshot is missing the joined member"; cat "$chaos_dir/status.json"; exit 1; }
# The final snapshot is the sweep's ledger: every cell done, and the
# members' completed cells (this sweep's, one count per cell won) sum to the
# grid, whichever member died or joined.
grep -q '"progress":{"done":96,"total":96,' "$chaos_dir/status.json" \
  || { echo "final status snapshot is not 96 of 96 cells"; cat "$chaos_dir/status.json"; exit 1; }
chaos_completed="$(grep -o '"completed":[0-9]*' "$chaos_dir/status.json" \
  | awk -F: '{sum += $2} END {print sum + 0}')"
[ "$chaos_completed" -eq 96 ] \
  || { echo "members completed $chaos_completed cells, not 96"; cat "$chaos_dir/status.json"; exit 1; }
kill -TERM "${chaos_pids[@]}" 2>/dev/null || true
for p in "${chaos_pids[@]}"; do wait "$p" 2>/dev/null || true; done
trap - EXIT
rm -rf "$chaos_dir"

echo "==> telemetry smoke test"
# The fleet-wide telemetry plane end to end: two traced backends, a traced
# sharded sweep, and one merged Chrome trace in which the
# coordinator's fleet.dispatch spans are cross-process ancestors of the
# backends' serve.request and sim.* spans — a pid lane for the coordinator
# and for every backend that received cells, valid nesting. Telemetry must never change the sweep's result bytes, and the
# time-series counters must be monotonic between two stats scrapes. The
# spans suite (a response's echoed trace_id selects its spans; limit keeps
# the newest) runs explicitly so a workspace test filter can never silently
# skip it.
tel_dir="$(mktemp -d)"
./target/release/sibia-cli serve --port 0 --trace >"$tel_dir/a.log" 2>&1 &
tel_pid_a=$!
./target/release/sibia-cli serve --port 0 --trace >"$tel_dir/b.log" 2>&1 &
tel_pid_b=$!
trap 'kill "$tel_pid_a" "$tel_pid_b" 2>/dev/null || true' EXIT
tel_addr_a=""; tel_addr_b=""
for _ in $(seq 1 50); do
  tel_addr_a="$(sed -n 's/^sibia-serve listening on //p' "$tel_dir/a.log")"
  tel_addr_b="$(sed -n 's/^sibia-serve listening on //p' "$tel_dir/b.log")"
  [ -n "$tel_addr_a" ] && [ -n "$tel_addr_b" ] && break
  sleep 0.1
done
[ -n "$tel_addr_a" ] && [ -n "$tel_addr_b" ] \
  || { echo "telemetry backends never came up"; cat "$tel_dir"/*.log; exit 1; }
tel_grid=(--archs sibia,bitfusion --networks dgcnn --seeds 1,2,3,4,5,6 --sample-cap 512)
./target/release/sibia-cli fleet sweep --local "${tel_grid[@]}" >"$tel_dir/direct.json"
./target/release/sibia-cli fleet sweep --endpoints "$tel_addr_a,$tel_addr_b" \
  "${tel_grid[@]}" --trace-out "$tel_dir/merged.jsonl" \
  >"$tel_dir/fleet.json" 2>"$tel_dir/fleet.log"
cmp "$tel_dir/direct.json" "$tel_dir/fleet.json" \
  || { echo "sweep output changed with telemetry on"; exit 1; }
# One pid lane for the coordinator plus one per backend that received
# cells: work stealing may hand every row to one backend, and then the idle
# one records no spans. Never fewer than two lanes.
tel_busy="$(sed -n 's/.*per-backend \[\(.*\)\]$/\1/p' "$tel_dir/fleet.log" \
  | tr ',' '\n' | awk '$1+0 > 0' | wc -l)"
tel_min_pids=$((tel_busy + 1 > 2 ? tel_busy + 1 : 2))
# The per-backend cells are the sweep's own: they sum to its 12 cells.
tel_cells="$(sed -n 's/.*per-backend \[\(.*\)\]$/\1/p' "$tel_dir/fleet.log" \
  | tr ',' '\n' | awk '{sum += $1} END {print sum + 0}')"
[ "$tel_cells" -eq 12 ] \
  || { echo "per-backend cells sum to $tel_cells, not 12"; cat "$tel_dir/fleet.log"; exit 1; }
./target/release/sibia-cli trace-check "$tel_dir/merged.jsonl" --min-pids "$tel_min_pids" \
  --chain fleet.dispatch,serve.request,sim.network
# Counters are cumulative: a later scrape can never read lower. (The first
# scrape's own connection bumps the accepted count, so later is strictly
# greater there.)
tel_c1="$(./target/release/sibia-cli metrics-export --endpoint "$tel_addr_a" \
  | awk '$1=="sibia_net_connections_accepted"{print $2}')"
tel_s1="$(./target/release/sibia-cli metrics-export --endpoint "$tel_addr_a" \
  | awk '$1=="sibia_sim_engine_cells"{print $2}')"
sleep 0.7
tel_c2="$(./target/release/sibia-cli metrics-export --endpoint "$tel_addr_a" \
  | awk '$1=="sibia_net_connections_accepted"{print $2}')"
tel_s2="$(./target/release/sibia-cli metrics-export --endpoint "$tel_addr_a" \
  | awk '$1=="sibia_sim_engine_cells"{print $2}')"
awk -v a="$tel_c1" -v b="$tel_c2" 'BEGIN{exit !(a+0 > 0 && b+0 > a+0)}' \
  || { echo "connections counter not monotonic across scrapes ($tel_c1 -> $tel_c2)"; exit 1; }
awk -v a="$tel_s1" -v b="$tel_s2" 'BEGIN{exit !(a+0 > 0 && b+0 >= a+0)}' \
  || { echo "cells counter not monotonic across scrapes ($tel_s1 -> $tel_s2)"; exit 1; }
# The live view renders a row per endpoint in one-shot mode.
./target/release/sibia-cli top --endpoints "$tel_addr_a,$tel_addr_b" --iterations 1 \
  | grep -q "$tel_addr_b" || { echo "top did not render every endpoint"; exit 1; }
kill -TERM "$tel_pid_a" "$tel_pid_b"
wait "$tel_pid_a" 2>/dev/null || true
wait "$tel_pid_b" 2>/dev/null || true
trap - EXIT
rm -rf "$tel_dir"
cargo test -q -p sibia-serve --test spans

echo "==> telemetry overhead gate"
# The same pipelined leg on fresh daemons with hierarchy tracing off and on,
# 200 alternating pairs: the median traced p50 must stay within 5% (+0.25 ms
# timer slack) of the median untraced p50.
cargo test --release -q -p sibia-serve --test load -- --ignored

echo "CI OK"
