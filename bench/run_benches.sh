#!/usr/bin/env bash
# Runs every bench executable in the build tree with JSON output and distills
# the engine-throughput trajectory into BENCH_engine.json so successive PRs
# have a perf baseline to compare against. Also drives one declarative sweep
# (bench/specs/kasync_sweep.json) through the cohesion_run batch driver at 1
# and N worker threads: asserts the deterministic reports are byte-identical
# and records the wall-clock numbers + speedup in BENCH_engine.json. A
# second stage re-runs the same sweep as 3 cohesion_run --shard processes
# plus cohesion_merge and as a truncated-checkpoint --resume, byte-compares
# both against the single-process report (the shard-union and resume
# determinism contracts), and records the walls under shard_sweep. A third
# stage runs the sweep under cohesion_launch with an injected kill/stall/
# corrupt fault schedule and byte-compares the supervised report against
# the fresh run (the fault-tolerance contract), recording the wall under
# fault_sweep. A fourth stage runs one n=16384 spec in bounded-memory
# stream-trace mode (--trace-dir), asserts peak RSS under a fixed ceiling,
# byte-compares the report against the in-memory reference run and the
# cohesion_replay recomputation of the stream file, and records walls +
# RSS under stream_sweep. A fifth stage exercises the content-addressed
# result cache (cohesion_run --cache): the sweep cold into an empty
# cache, fully warm, and with one axis edited — asserting warm and
# mixed hit/miss reports byte-identical to their cold counterparts and
# that exactly the edited variants recompute — and records the walls
# under cache_sweep. A serve stage submits the sweep to a cohesion_serve
# work-queue daemon feeding two workers, SIGKILLs one mid-run, and
# byte-compares the served report (assembled across the 2 -> 1 elastic
# re-partition) against the fresh single-process run, recording the wall
# under serve_sweep.
#
# Usage: bench/run_benches.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build tree containing the bench_* executables (default: build)
#   OUT_DIR    where per-bench JSON and BENCH_engine.json land (default: bench/out)
#
# Env:
#   BENCH_MIN_TIME   --benchmark_min_time per bench (default 0.1s: trajectory
#                    tracking, not microbenchmark-grade precision)
#   BENCH_FILTER     glob over bench executable names (default: all)
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench/out}
MIN_TIME=${BENCH_MIN_TIME:-0.1}
FILTER=${BENCH_FILTER:-bench_*}

cd "$(dirname "$0")/.."
mkdir -p "$OUT_DIR"

# Documentation must match the tree before numbers are recorded.
bash tools/check_docs.sh

found=0
for exe in "$BUILD_DIR"/$FILTER; do
  [ -x "$exe" ] || continue
  name=$(basename "$exe")
  found=1
  echo "== $name"
  "$exe" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
         --benchmark_out="$OUT_DIR/$name.json" --benchmark_out_format=json \
    > /dev/null || { echo "   FAILED (continuing)"; rm -f "$OUT_DIR/$name.json"; }
done
if [ "$found" = 0 ]; then
  echo "No bench executables under $BUILD_DIR/ — build with COHESION_BUILD_BENCHES=ON" >&2
  exit 1
fi

# Declarative batch sweep through cohesion_run: one spec, 1 vs N worker
# threads. The --no-timing reports must be byte-identical (deterministic
# seeding); the timed runs give the wall-clock scaling numbers.
BATCH_JSON="$OUT_DIR/batch_sweep_timing.json"
rm -f "$BATCH_JSON"
if [ -x "$BUILD_DIR/cohesion_run" ] && [ -f bench/specs/kasync_sweep.json ]; then
  NTHREADS=${BENCH_SWEEP_THREADS:-$(nproc)}
  echo "== cohesion_run sweep (1 vs $NTHREADS threads)"
  "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --threads 1 --no-timing \
      --out "$OUT_DIR/sweep_t1.json" 2> /dev/null
  "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --threads "$NTHREADS" --no-timing \
      --out "$OUT_DIR/sweep_tN.json" 2> /dev/null
  if ! cmp -s "$OUT_DIR/sweep_t1.json" "$OUT_DIR/sweep_tN.json"; then
    echo "ERROR: sweep results differ between 1 and $NTHREADS threads" >&2
    exit 1
  fi
  echo "   deterministic: 1-thread and $NTHREADS-thread reports byte-identical"
  t1=$("$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --threads 1 \
         --out "$OUT_DIR/sweep_timed.json" 2>&1 | sed -n 's/.* \([0-9.]*\) s)$/\1/p')
  tN=$("$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --threads "$NTHREADS" \
         --out "$OUT_DIR/sweep_timed.json" 2>&1 | sed -n 's/.* \([0-9.]*\) s)$/\1/p')
  python3 - "$BATCH_JSON" "$NTHREADS" "$t1" "$tN" "$OUT_DIR/sweep_timed.json" <<'EOF'
import json, sys
target, threads, t1, tn, report_path = sys.argv[1:6]
report = json.load(open(report_path))
runs = report["aggregate"]["runs"]
json.dump({
    "spec": "bench/specs/kasync_sweep.json",
    "runs": runs,
    "threads": int(threads),
    "wall_seconds_1_thread": float(t1),
    "wall_seconds_N_threads": float(tn),
    "speedup": round(float(t1) / float(tn), 2) if float(tn) > 0 else None,
}, open(target, "w"))
EOF
else
  echo "cohesion_run or bench/specs/kasync_sweep.json missing; skipping sweep" >&2
fi

# Sharded sweep through cohesion_run/cohesion_merge: the same spec run (a)
# in one process, (b) as 3 shards merged back together, and (c) resumed
# from a mid-file-truncated checkpoint. All three deterministic reports
# must be byte-identical — these are the shard-union and resume contracts
# of docs/operations.md — and the wall numbers land under shard_sweep.
SHARD_JSON="$OUT_DIR/shard_sweep_timing.json"
rm -f "$SHARD_JSON"
if [ -x "$BUILD_DIR/cohesion_run" ] && [ -x "$BUILD_DIR/cohesion_merge" ] \
   && [ -f bench/specs/kasync_sweep.json ]; then
  echo "== sharded sweep (1 process vs 3 shards + merge, + truncated resume)"
  t_single=$( { time "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --no-timing \
      --out "$OUT_DIR/shard_single.json" 2> /dev/null; } 2>&1 | sed -n 's/^real[[:space:]]*//p' )
  t_shards=$( { time { for i in 0 1 2; do
        "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --shard "$i/3" \
            --out "$OUT_DIR/shard_p$i.json" 2> /dev/null
      done; }; } 2>&1 | sed -n 's/^real[[:space:]]*//p' )
  "$BUILD_DIR/cohesion_merge" "$OUT_DIR"/shard_p{0,1,2}.json \
      --out "$OUT_DIR/shard_merged.json" 2> /dev/null
  if ! cmp -s "$OUT_DIR/shard_single.json" "$OUT_DIR/shard_merged.json"; then
    echo "ERROR: 3-shard merged report differs from the single-process report" >&2
    exit 1
  fi
  echo "   shard-union: 3-shard merge byte-identical to single process"
  rm -f "$OUT_DIR/shard.ckpt"
  "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --no-timing \
      --checkpoint "$OUT_DIR/shard.ckpt" --out /dev/null 2> /dev/null
  python3 - "$OUT_DIR/shard.ckpt" <<'EOF'
import pathlib, sys
p = pathlib.Path(sys.argv[1])
data = p.read_bytes()
p.write_bytes(data[: len(data) * 3 // 5])  # kill-at-random-point stand-in
EOF
  "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --no-timing \
      --resume "$OUT_DIR/shard.ckpt" --out "$OUT_DIR/shard_resumed.json" 2> /dev/null
  if ! cmp -s "$OUT_DIR/shard_single.json" "$OUT_DIR/shard_resumed.json"; then
    echo "ERROR: resumed-from-truncated-checkpoint report differs from fresh run" >&2
    exit 1
  fi
  echo "   resume: truncated-checkpoint resume byte-identical to fresh run"
  rm -f "$OUT_DIR/shard.ckpt"
  python3 - "$SHARD_JSON" "$t_single" "$t_shards" <<'EOF'
import json, sys

def seconds(real):  # "0m1.234s" -> 1.234
    m, s = real.rstrip("s").split("m")
    return int(m) * 60 + float(s)

target, t_single, t_shards = sys.argv[1:4]
json.dump({
    "spec": "bench/specs/kasync_sweep.json",
    "shards": 3,
    "wall_seconds_single": round(seconds(t_single), 3),
    "wall_seconds_3_shards_serial": round(seconds(t_shards), 3),
}, open(target, "w"))
EOF
else
  echo "cohesion_run/cohesion_merge or bench/specs/kasync_sweep.json missing; skipping shard sweep" >&2
fi

# Fault-injected supervised sweep through cohesion_launch: the same spec
# under a full crash schedule — SIGKILL one shard mid-journal, SIGSTOP
# another until its lease expires, kill + corrupt a third's journal tail —
# must still produce a report byte-identical to the fresh single-process
# one (the supervised fault-tolerance contract of docs/operations.md).
# The wall number lands under fault_sweep.
FAULT_JSON="$OUT_DIR/fault_sweep_timing.json"
rm -f "$FAULT_JSON"
if [ -x "$BUILD_DIR/cohesion_launch" ] && [ -x "$BUILD_DIR/cohesion_run" ] \
   && [ -f bench/specs/kasync_sweep.json ]; then
  echo "== fault-injected supervised sweep (kill + stall + corrupt, 3 shards)"
  "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --no-timing \
      --out "$OUT_DIR/fault_fresh.json" 2> /dev/null
  rm -rf "$OUT_DIR/fault_work"
  t_fault=$( { time "$BUILD_DIR/cohesion_launch" bench/specs/kasync_sweep.json \
      --shards 3 --work-dir "$OUT_DIR/fault_work" --out "$OUT_DIR/fault_supervised.json" \
      --throttle-ms 20 --lease-timeout 2 --poll-interval 0.02 --backoff-base 0.05 \
      --fault kill:shard=1,after=2 --fault stall:shard=0,after=1 \
      --fault corrupt:shard=2,after=1 --quiet 2> /dev/null; } 2>&1 \
      | sed -n 's/^real[[:space:]]*//p' )
  if ! cmp -s "$OUT_DIR/fault_fresh.json" "$OUT_DIR/fault_supervised.json"; then
    echo "ERROR: supervised report under injected faults differs from the fresh run" >&2
    exit 1
  fi
  echo "   fault tolerance: supervised report byte-identical under kill/stall/corrupt"
  rm -rf "$OUT_DIR/fault_work"
  python3 - "$FAULT_JSON" "$t_fault" <<'EOF'
import json, sys

def seconds(real):  # "0m1.234s" -> 1.234
    m, s = real.rstrip("s").split("m")
    return int(m) * 60 + float(s)

target, t_fault = sys.argv[1:3]
json.dump({
    "spec": "bench/specs/kasync_sweep.json",
    "shards": 3,
    "faults": ["kill:shard=1,after=2", "stall:shard=0,after=1", "corrupt:shard=2,after=1"],
    "wall_seconds_supervised_faulted": round(seconds(t_fault), 3),
}, open(target, "w"))
EOF
else
  echo "cohesion_launch or bench/specs/kasync_sweep.json missing; skipping fault sweep" >&2
fi

# Streaming-trace sweep: one n=16384 run in bounded-memory stream mode
# (bench/specs/stream_run.json, far past the sizes the in-memory sweeps
# use). Three contracts are asserted, matching docs/architecture.md's
# trace layer: peak RSS stays under a fixed ceiling (no O(activations)
# state — the in-memory run of the same spec is measured alongside for
# contrast), the deterministic report equals the in-memory reference
# field for field once the trace-only fields are stripped, and
# cohesion_replay --check recomputes the reported metrics byte-for-byte
# from the stream file. Walls and RSS land under stream_sweep.
STREAM_JSON="$OUT_DIR/stream_sweep_timing.json"
rm -f "$STREAM_JSON"
if [ -x "$BUILD_DIR/cohesion_run" ] && [ -x "$BUILD_DIR/cohesion_replay" ] \
   && [ -f bench/specs/stream_run.json ]; then
  echo "== stream sweep (n=16384 bounded-memory stream mode + replay byte-check)"
  RSS_CEILING_KB=${BENCH_STREAM_RSS_CEILING_KB:-32768}
  rm -rf "$OUT_DIR/stream_traces"
  t_stream=$( { time "$BUILD_DIR/cohesion_run" bench/specs/stream_run.json --no-timing \
      --trace-dir "$OUT_DIR/stream_traces" --peak-rss \
      --out "$OUT_DIR/stream_report.json" 2> "$OUT_DIR/stream_stderr.txt"; } 2>&1 \
      | sed -n 's/^real[[:space:]]*//p' )
  rss_stream=$(sed -n 's/^peak_rss_kb: //p' "$OUT_DIR/stream_stderr.txt")
  if [ -z "$rss_stream" ] || [ "$rss_stream" -gt "$RSS_CEILING_KB" ]; then
    echo "ERROR: stream-mode peak RSS ${rss_stream:-unknown} KB exceeds the" \
         "$RSS_CEILING_KB KB ceiling — bounded-memory mode is leaking history" >&2
    exit 1
  fi
  echo "   bounded memory: peak RSS $rss_stream KB <= $RSS_CEILING_KB KB ceiling"
  t_memory=$( { time "$BUILD_DIR/cohesion_run" bench/specs/stream_run.json --no-timing \
      --peak-rss --out "$OUT_DIR/stream_memory_report.json" \
      2> "$OUT_DIR/stream_stderr.txt"; } 2>&1 | sed -n 's/^real[[:space:]]*//p' )
  rss_memory=$(sed -n 's/^peak_rss_kb: //p' "$OUT_DIR/stream_stderr.txt")
  python3 - "$OUT_DIR/stream_report.json" "$OUT_DIR/stream_memory_report.json" <<'EOF'
import json, sys
stream, memory = (json.load(open(p)) for p in sys.argv[1:3])
stream.get("experiment", {}).get("base", {}).pop("trace", None)
for run in stream.get("runs", []):
    run.pop("trace_path", None)
    run.pop("trace_fingerprint", None)
if stream != memory:
    sys.exit("ERROR: stream-mode report differs from the in-memory reference")
EOF
  echo "   bit-identity: stream-mode report == in-memory report (trace fields aside)"
  trace_file=$(ls "$OUT_DIR"/stream_traces/*.cohtrace | head -1)
  t_replay=$( { time "$BUILD_DIR/cohesion_replay" "$trace_file" \
      --check "$OUT_DIR/stream_report.json" > /dev/null; } 2>&1 \
      | sed -n 's/^real[[:space:]]*//p' )
  echo "   replay: cohesion_replay --check byte-matched the reported metrics"
  stream_bytes=$(wc -c < "$trace_file")
  rm -f "$OUT_DIR/stream_stderr.txt"
  python3 - "$STREAM_JSON" "$t_stream" "$t_memory" "$t_replay" "$rss_stream" "$rss_memory" \
      "$RSS_CEILING_KB" "$stream_bytes" "$OUT_DIR/stream_report.json" <<'EOF'
import json, sys

def seconds(real):  # "0m1.234s" -> 1.234
    m, s = real.rstrip("s").split("m")
    return int(m) * 60 + float(s)

(target, t_stream, t_memory, t_replay, rss_stream, rss_memory, ceiling, stream_bytes,
 report_path) = sys.argv[1:10]
report = json.load(open(report_path))
json.dump({
    "spec": "bench/specs/stream_run.json",
    "n": report["runs"][0]["n"],
    "activations": report["runs"][0]["activations"],
    "wall_seconds_stream": round(seconds(t_stream), 3),
    "wall_seconds_memory": round(seconds(t_memory), 3),
    "wall_seconds_replay": round(seconds(t_replay), 3),
    "peak_rss_kb_stream": int(rss_stream),
    "peak_rss_kb_memory": int(rss_memory),
    "rss_ceiling_kb": int(ceiling),
    "stream_bytes": int(stream_bytes),
}, open(target, "w"))
EOF
else
  echo "cohesion_run/cohesion_replay or bench/specs/stream_run.json missing; skipping stream sweep" >&2
fi

# Content-addressed result cache: the same sweep run cold into an empty
# cache, then fully warm, then with one axis edited (k values [1,2] ->
# [1,3]) both warm-over-the-cache and cold-without-cache. Contracts
# (docs/architecture.md #11): warm reports byte-identical to cold ones,
# and an edit recomputes exactly the changed variants — here 2 of 4
# variants (32 of 64 runs) keep k=1 and must hit. All four runs use the
# same binary back to back, so the cold/warm walls are comparable on a
# drifting-clock host. Numbers land under cache_sweep.
CACHE_JSON="$OUT_DIR/cache_sweep_timing.json"
rm -f "$CACHE_JSON"
if [ -x "$BUILD_DIR/cohesion_run" ] && [ -f bench/specs/kasync_sweep.json ]; then
  echo "== cache sweep (cold vs warm vs edit-one-axis, shared cache dir)"
  CACHE_DIR="$OUT_DIR/cache_sweep_dir"
  rm -rf "$CACHE_DIR"
  t_cold=$( { time "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --no-timing \
      --cache "$CACHE_DIR" --out "$OUT_DIR/cache_cold.json" \
      2> "$OUT_DIR/cache_stderr.txt"; } 2>&1 | sed -n 's/^real[[:space:]]*//p' )
  t_warm=$( { time "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --no-timing \
      --cache "$CACHE_DIR" --out "$OUT_DIR/cache_warm.json" \
      2> "$OUT_DIR/cache_stderr.txt"; } 2>&1 | sed -n 's/^real[[:space:]]*//p' )
  warm_stats=$(sed -n 's/^cache: \(.*\) (.*$/\1/p' "$OUT_DIR/cache_stderr.txt")
  if ! cmp -s "$OUT_DIR/cache_cold.json" "$OUT_DIR/cache_warm.json"; then
    echo "ERROR: warm-cache report differs from the cold report" >&2
    exit 1
  fi
  case "$warm_stats" in
    "64 hits, 0 misses, 0 rejects, 0 inserts") : ;;
    *) echo "ERROR: warm run expected 64 pure hits, saw: $warm_stats" >&2; exit 1 ;;
  esac
  echo "   warm: 64/64 runs served from cache, report byte-identical to cold"
  python3 - bench/specs/kasync_sweep.json "$OUT_DIR/cache_edited_spec.json" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
axis = next(a for a in spec["sweep"] if a["path"] == "scheduler.params.k")
assert axis["values"] == [1, 2], axis
axis["values"] = [1, 3]  # the edit: half the grid (k=1 variants) survives
json.dump(spec, open(sys.argv[2], "w"), indent=2)
EOF
  t_edit_cold=$( { time "$BUILD_DIR/cohesion_run" "$OUT_DIR/cache_edited_spec.json" \
      --no-timing --no-cache --out "$OUT_DIR/cache_edit_ref.json" 2> /dev/null; } 2>&1 \
      | sed -n 's/^real[[:space:]]*//p' )
  t_edit_warm=$( { time "$BUILD_DIR/cohesion_run" "$OUT_DIR/cache_edited_spec.json" \
      --no-timing --cache "$CACHE_DIR" --out "$OUT_DIR/cache_edit_warm.json" \
      2> "$OUT_DIR/cache_stderr.txt"; } 2>&1 | sed -n 's/^real[[:space:]]*//p' )
  edit_stats=$(sed -n 's/^cache: \(.*\) (.*$/\1/p' "$OUT_DIR/cache_stderr.txt")
  if ! cmp -s "$OUT_DIR/cache_edit_ref.json" "$OUT_DIR/cache_edit_warm.json"; then
    echo "ERROR: warm report of the edited sweep differs from its cold no-cache report" >&2
    exit 1
  fi
  case "$edit_stats" in
    "32 hits, 32 misses, 0 rejects, 32 inserts") : ;;
    *) echo "ERROR: edited sweep expected 32 hits + 32 misses, saw: $edit_stats" >&2; exit 1 ;;
  esac
  echo "   edit-one-axis: exactly the 32 changed runs recomputed, report byte-identical"
  rm -f "$OUT_DIR/cache_stderr.txt"
  python3 - "$CACHE_JSON" "$t_cold" "$t_warm" "$t_edit_cold" "$t_edit_warm" <<'EOF'
import json, sys

def seconds(real):  # "0m1.234s" -> 1.234
    m, s = real.rstrip("s").split("m")
    return int(m) * 60 + float(s)

target, t_cold, t_warm, t_edit_cold, t_edit_warm = sys.argv[1:6]
cold, warm = seconds(t_cold), seconds(t_warm)
json.dump({
    "spec": "bench/specs/kasync_sweep.json",
    "runs": 64,
    "wall_seconds_cold": round(cold, 3),
    "wall_seconds_warm": round(warm, 3),
    "warm_speedup": round(cold / warm, 2) if warm > 0 else None,
    "wall_seconds_edited_cold_nocache": round(seconds(t_edit_cold), 3),
    "wall_seconds_edited_warm": round(seconds(t_edit_warm), 3),
    "edited_recomputed_runs": 32,
    "edited_hit_runs": 32,
}, open(target, "w"))
EOF
else
  echo "cohesion_run or bench/specs/kasync_sweep.json missing; skipping cache sweep" >&2
fi

# Served sweep through the cohesion_serve work-queue daemon: the same spec
# submitted to a daemon feeding two workers, one of which is SIGKILLed
# mid-run (no flush, no release — a true crash). The daemon must observe
# the death, re-partition 2 -> 1, re-lease the dead worker's uncovered
# variants, and still deliver a report byte-identical to the fresh
# single-process run (architecture contract 13). Walls land under
# serve_sweep.
SERVE_JSON="$OUT_DIR/serve_sweep_timing.json"
rm -f "$SERVE_JSON"
if [ -x "$BUILD_DIR/cohesion_serve" ] && [ -x "$BUILD_DIR/cohesion_run" ] \
   && [ -f bench/specs/kasync_sweep.json ]; then
  echo "== serve sweep (daemon + 2 workers, one SIGKILLed mid-run, byte-compared)"
  "$BUILD_DIR/cohesion_run" bench/specs/kasync_sweep.json --no-timing \
      --out "$OUT_DIR/serve_fresh.json" 2> /dev/null
  SERVE_DIR="$OUT_DIR/serve_work"
  rm -rf "$SERVE_DIR"
  mkdir -p "$SERVE_DIR"
  SERVE_ADDR="unix:$SERVE_DIR/serve.sock"
  "$BUILD_DIR/cohesion_serve" --listen "$SERVE_ADDR" --ledger "$SERVE_DIR/serve.ledger" \
      --poll-interval 0.01 --backoff-base 0.05 --backoff-max 0.2 --jitter 0 \
      > "$SERVE_DIR/daemon.log" 2>&1 &
  serve_daemon=$!
  "$BUILD_DIR/cohesion_serve" --worker "$SERVE_ADDR" --name bench-w1 \
      --work-dir "$SERVE_DIR/w1.work" --runner "$BUILD_DIR/cohesion_run" \
      --throttle-ms 20 > "$SERVE_DIR/w1.log" 2>&1 &
  serve_w1=$!
  "$BUILD_DIR/cohesion_serve" --worker "$SERVE_ADDR" --name bench-w2 \
      --work-dir "$SERVE_DIR/w2.work" --runner "$BUILD_DIR/cohesion_run" \
      --throttle-ms 20 > "$SERVE_DIR/w2.log" 2>&1 &
  serve_w2=$!
  # Crash injector: the moment real work is streaming into the ledger,
  # SIGKILL one lease holder.
  ( while ! grep -q '"event":"outcome"' "$SERVE_DIR/serve.ledger" 2> /dev/null; do
      sleep 0.05
    done
    kill -9 "$serve_w2" 2> /dev/null ) &
  serve_killer=$!
  t_serve=$( { time "$BUILD_DIR/cohesion_serve" --submit bench/specs/kasync_sweep.json \
      "$SERVE_ADDR" --wait --out "$OUT_DIR/serve_report.json" > /dev/null 2>&1; } 2>&1 \
      | sed -n 's/^real[[:space:]]*//p' )
  wait "$serve_killer" 2> /dev/null || true
  wait "$serve_w2" 2> /dev/null || true
  if ! cmp -s "$OUT_DIR/serve_fresh.json" "$OUT_DIR/serve_report.json"; then
    echo "ERROR: served report with a SIGKILLed worker differs from the fresh run" >&2
    exit 1
  fi
  if ! grep -q 're-partitioned 2 -> 1' "$SERVE_DIR/daemon.log"; then
    echo "ERROR: daemon never re-partitioned after the worker was SIGKILLed" >&2
    exit 1
  fi
  echo "   fault tolerance: served report byte-identical after SIGKILL + 2 -> 1 re-partition"
  kill "$serve_w1" 2> /dev/null || true
  wait "$serve_w1" 2> /dev/null || true
  "$BUILD_DIR/cohesion_serve" --shutdown "$SERVE_ADDR" > /dev/null 2>&1 || true
  wait "$serve_daemon" 2> /dev/null || true
  rm -rf "$SERVE_DIR"
  python3 - "$SERVE_JSON" "$t_serve" <<'EOF'
import json, sys

def seconds(real):  # "0m1.234s" -> 1.234
    m, s = real.rstrip("s").split("m")
    return int(m) * 60 + float(s)

target, t_serve = sys.argv[1:3]
json.dump({
    "spec": "bench/specs/kasync_sweep.json",
    "workers": 2,
    "fault": "SIGKILL one worker after the first journaled outcome",
    "wall_seconds_served_faulted": round(seconds(t_serve), 3),
}, open(target, "w"))
EOF
else
  echo "cohesion_serve/cohesion_run or bench/specs/kasync_sweep.json missing; skipping serve sweep" >&2
fi

# Distill activations/sec per swarm size from the engine benches into one
# trajectory file: {bench -> {benchmark_name -> items_per_second}}, plus the
# declarative-sweep wall-clock scaling when it ran.
python3 - "$OUT_DIR" <<'EOF'
import json, pathlib, sys

out_dir = pathlib.Path(sys.argv[1])
engine = {}
for path in sorted(out_dir.glob("bench_*.json")):
    if path.name not in ("bench_engine_throughput.json", "bench_spatial_scaling.json"):
        continue
    data = json.loads(path.read_text())
    series = {
        b["name"]: round(b["items_per_second"], 1)
        for b in data.get("benchmarks", [])
        if "items_per_second" in b
    }
    if series:
        engine[path.stem] = series

summary = {"context": "activations/sec (items_per_second) per benchmark", "engine": engine}
batch = out_dir / "batch_sweep_timing.json"
if batch.exists():
    summary["batch_sweep"] = json.loads(batch.read_text())
    summary["context"] += "; batch_sweep: cohesion_run wall-clock at 1 vs N threads"
    batch.unlink()
shard = out_dir / "shard_sweep_timing.json"
if shard.exists():
    summary["shard_sweep"] = json.loads(shard.read_text())
    summary["context"] += "; shard_sweep: 1 process vs 3 shards + merge (byte-compared)"
    shard.unlink()
fault = out_dir / "fault_sweep_timing.json"
if fault.exists():
    summary["fault_sweep"] = json.loads(fault.read_text())
    summary["context"] += "; fault_sweep: supervised kill/stall/corrupt schedule (byte-compared)"
    fault.unlink()
stream = out_dir / "stream_sweep_timing.json"
if stream.exists():
    summary["stream_sweep"] = json.loads(stream.read_text())
    summary["context"] += ("; stream_sweep: n=16384 bounded-memory stream run "
                           "(RSS-ceiling + replay byte-compared)")
    stream.unlink()
cache = out_dir / "cache_sweep_timing.json"
if cache.exists():
    summary["cache_sweep"] = json.loads(cache.read_text())
    summary["context"] += ("; cache_sweep: result cache cold vs warm vs edit-one-axis "
                           "(byte-compared)")
    cache.unlink()
serve = out_dir / "serve_sweep_timing.json"
if serve.exists():
    summary["serve_sweep"] = json.loads(serve.read_text())
    summary["context"] += ("; serve_sweep: work-queue daemon + 2 workers, one SIGKILLed "
                           "mid-run (byte-compared)")
    serve.unlink()
target = out_dir / "BENCH_engine.json"
target.write_text(json.dumps(summary, indent=2) + "\n")
print(f"wrote {target}")
for bench, series in engine.items():
    for name, ips in series.items():
        print(f"  {name}: {ips:,.0f} activations/s")
if "batch_sweep" in summary:
    b = summary["batch_sweep"]
    print(f"  batch sweep: {b['runs']} runs, {b['wall_seconds_1_thread']}s @1t, "
          f"{b['wall_seconds_N_threads']}s @{b['threads']}t, speedup {b['speedup']}x")
if "shard_sweep" in summary:
    s = summary["shard_sweep"]
    print(f"  shard sweep: {s['wall_seconds_single']}s single vs "
          f"{s['wall_seconds_3_shards_serial']}s as {s['shards']} serial shards")
if "fault_sweep" in summary:
    f = summary["fault_sweep"]
    print(f"  fault sweep: {f['wall_seconds_supervised_faulted']}s supervised under "
          f"{len(f['faults'])} injected faults ({f['shards']} shards)")
if "stream_sweep" in summary:
    s = summary["stream_sweep"]
    print(f"  stream sweep: n={s['n']}, {s['activations']:,} activations, "
          f"{s['peak_rss_kb_stream']} KB streamed vs {s['peak_rss_kb_memory']} KB in-memory, "
          f"replay {s['wall_seconds_replay']}s")
if "cache_sweep" in summary:
    c = summary["cache_sweep"]
    print(f"  cache sweep: {c['wall_seconds_cold']}s cold vs {c['wall_seconds_warm']}s warm "
          f"({c['warm_speedup']}x), edit-one-axis {c['wall_seconds_edited_warm']}s warm vs "
          f"{c['wall_seconds_edited_cold_nocache']}s cold ({c['edited_hit_runs']}/64 hits)")
if "serve_sweep" in summary:
    s = summary["serve_sweep"]
    print(f"  serve sweep: {s['wall_seconds_served_faulted']}s served by {s['workers']} workers "
          f"with one SIGKILLed mid-run (byte-compared)")
EOF
