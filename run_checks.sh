#!/usr/bin/env bash
# Full check pass: normal build + tests, then a sanitized build + tests,
# then a ThreadSanitizer build running the concurrency-sensitive suites.
#
# Usage: ./run_checks.sh [--sanitize-only | --tsan-only | --validation-only
#                         | --coverage | --tidy | --live-smoke | --chaos-smoke
#                         | --bench-smoke | --cell-smoke | --alloc-smoke
#                         | --analysis-smoke | --clean-clone | --native]
#
# Test tiers are selected by ctest labels (see docs/validation.md):
#   * default passes run everything except the `slow` label (the full-grid
#     convergence test, minutes of simulation under sanitizers).  The
#     default pass first runs the orphan-header guard: it fails when a
#     header under src/ has no includer in src/, tools/, bench/ or
#     examples/ other than its own .cpp — library code that only its own
#     tests reach is dead weight, so delete it rather than keep it;
#   * --validation-only runs the `validation` and `cell` labels — the
#     simulator, property-based, golden-file and fixed-point-vs-DES
#     cross-check suites, including the slow grid;
#   * --coverage builds with gcov instrumentation (build-cov/), runs the
#     non-slow tests and prints per-directory line coverage for src/;
#   * --tidy runs a pinned clang-tidy check set over src/ (skipped with a
#     notice when clang-tidy is not installed);
#   * --live-smoke runs the `live` label (real-socket loopback testbed)
#     plus the loopback e2e binary under a hard timeout, in both the
#     plain and the ASan+UBSan builds.  The timeout is the watchdog: the
#     virtual-clock loop must terminate by going idle, never by waiting
#     on the wall clock, so a hang is a bug, not slowness.  The plain
#     build also runs `live recv --bind=0.0.0.0:PORT` and sends to it with
#     `live send` at the host's first non-loopback IPv4, requiring more
#     than 0 packets received: the send path of the three-host run in
#     docs/live.md (skipped with a notice when the host has no such
#     address).  On one host Linux delivers to its own address even from
#     a 127.0.0.1-bound socket, so this exercises the path but cannot see
#     the sender's bind;
#   * --chaos-smoke runs the `chaos` label (supervised multi-session
#     server + seeded fault injection) plus a 200-session `live load`
#     chaos run (spurious wakeups included), in both the plain and the
#     ASan+UBSan builds, each under a hard timeout, and diffs its report
#     against tests/data/live_load_chaos_200.txt; the ASan+UBSan build
#     also runs the live_load_faults CLI case (the uplink fault plan,
#     damage in place) and diffs it against its transcript.  Same watchdog
#     rationale as --live-smoke.  The plain build also serves 5000
#     sessions under a 15 s timeout and diffs the report against
#     tests/data/live_load_5000.txt, the guard against a server whose
#     per-datagram cost grows with the sessions it has served, and
#     checks that `live load --queue-cap=-1` fails with exit 1 instead
#     of casting the size to a huge cap.
#   * --bench-smoke builds Release, runs the hot-path micro-suite with
#     --quick --json under a hard timeout, and validates the emitted
#     JSON against the tv-bench-hotpath-v1 schema (keys present, numbers
#     finite; docs/benchmarks.md).  Values are machine-specific and are
#     deliberately not asserted.  It first runs each grid figure bench
#     (Figs. 4, 5, 9, 14, 15, Table 2) at --frames=60 --reps=1, once at
#     --threads=1 and once at --threads=4 --json=FILE: the printed tables
#     must be identical and FILE must hold one JSONL line per grid cell.
#     A bench that cannot honour --json (Fig. 6) must reject it.
#   * --cell-smoke runs the `cell` label (the multi-flow contention
#     engine, docs/cell.md) plus the `thriftyvid cell --validate`
#     cross-check grid and a 100-flow capacity cell, in both the plain
#     and the ASan+UBSan builds, each under a hard timeout.  The plain
#     build also schedules an overloaded 50 000-flow cell under a 20 s
#     timeout at --threads=1 and --threads=4, the guard against a
#     scheduler that is quadratic in flows (stdout must be byte-identical
#     across the two), and runs a `sweep` and a `cell` grid whose cells share workloads
#     from a cold start at --threads=1 and --threads=4, each under a
#     60 s timeout: stdout must be byte-identical across thread counts.
#     The timeout is the watchdog against a grid task that builds a
#     workload on the pool and waits on itself (docs/sweeps.md);
#   * --analysis-smoke runs the `analysis` label (the traffic-analysis
#     adversary, docs/adversary.md) plus the full pcap round trip: a
#     deterministic `live loopback --pcap` capture piped through
#     `thriftyvid analyze`, with the emitted JSONL checked for schema
#     validity and the no-countermeasure I-frame recall floor (>= 0.9).
#     It also runs `thriftyvid export` under 3DES and AES256 at one seed:
#     the two eavesdropper pcaps must carry different timestamps (the
#     transfer is priced with the chosen cipher's encryption time), and
#     a re-run at the same seed must write byte-identical files.
#     Both the plain and the ASan+UBSan builds, each under a hard
#     timeout.
#   * --clean-clone extracts `git archive HEAD` into a temporary directory
#     and runs the tier-1 build and ctest there, so untracked local files
#     (regenerated fixtures, stale build trees) cannot mask a red tree.
#     It tests the last commit, not uncommitted edits.
#   * --native builds Release with -march=native (build-native/) and runs
#     the tier-1 ctest there: the guard on the exactness contract
#     (docs/architecture.md).  On a CPU with FMA the compiler could fuse
#     a*b+c into one instruction and move goldens, pinned digests and the
#     bitwise proofs; -ffp-contract=off forbids it.  Skipped with a
#     notice on a CPU without FMA, where baseline and native agree.
#
# Every build configures with -DTHRIFTYVID_WERROR=ON: the tree is expected
# to be warning-clean under -Wall -Wextra, and promoting warnings to errors
# here keeps new ones from accumulating silently.
#
# The sanitized pass builds with -fsanitize=address,undefined and
# -fno-sanitize-recover=all, so any report aborts the run and fails the
# script.  The TSan pass builds with -DTHRIFTYVID_TSAN=ON and runs the
# thread pool / grid skeleton / sweep / validation / flags / flow suites,
# the pooled render, encode and workload build and the pooled scheduler
# property tests (the code that actually shares state across threads) — running every test under TSan would be
# prohibitively slow.  All build trees are kept (build/, build-asan/,
# build-tsan/, build-cov/) so incremental re-runs are fast.
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 4)
mode="${1:-}"

case "${mode}" in
  ""|--sanitize-only|--tsan-only|--validation-only|--coverage|--tidy|--live-smoke|--chaos-smoke|--bench-smoke|--cell-smoke|--alloc-smoke|--analysis-smoke|--clean-clone|--native) ;;
  *)
    echo "usage: $0 [--sanitize-only | --tsan-only | --validation-only |" \
         "--coverage | --tidy | --live-smoke | --chaos-smoke |" \
         "--bench-smoke | --cell-smoke | --alloc-smoke |" \
         "--analysis-smoke | --clean-clone | --native]" >&2
    exit 2
    ;;
esac

if [[ "${mode}" == "--clean-clone" ]]; then
  clone=$(mktemp -d)
  trap 'rm -rf "${clone}"' EXIT
  echo "=== clean clone: git archive HEAD -> ${clone} ==="
  git archive HEAD | tar -x -C "${clone}"
  cmake -B "${clone}/build" -S "${clone}" -DTHRIFTYVID_WERROR=ON
  cmake --build "${clone}/build" -j "${jobs}"
  ctest --test-dir "${clone}/build" --output-on-failure -j "${jobs}"
  echo "=== clean clone passed ==="
  exit 0
fi

if [[ "${mode}" == "--native" ]]; then
  if ! grep -qw fma /proc/cpuinfo 2>/dev/null; then
    echo "=== native: this CPU has no FMA; -march=native cannot contract" \
         "a*b+c, so the leg would repeat the default build. Skipped. ==="
    exit 0
  fi
  echo "=== native: Release -march=native build + tier-1 tests ==="
  cmake -B build-native -S . -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-march=native -DTHRIFTYVID_WERROR=ON
  cmake --build build-native -j "${jobs}"
  ctest --test-dir build-native --output-on-failure -j "${jobs}" -LE slow
  echo "=== native passed ==="
  exit 0
fi

if [[ "${mode}" == "--bench-smoke" ]]; then
  # The bench must complete quickly and emit schema-valid JSON; `timeout`
  # is the watchdog against a wedged measurement loop.
  echo "=== bench smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}" --target bench_hotpath \
    bench_fig04_eavesdropper_psnr bench_fig05_mos bench_fig09_fraction_p \
    bench_fig14_tcp_distortion bench_fig15_tcp_mos \
    bench_table2_delay_distortion bench_fig06_screenshots

  # A bench that cannot honour --json must reject it, not ignore it.
  rejected=build/bench_smoke_fig06.json
  rm -f "${rejected}"
  if ./build/bench/bench_fig06_screenshots --quick --json="${rejected}" \
       >/dev/null 2>&1 || [[ -e "${rejected}" ]]; then
    echo "bench smoke: bench_fig06_screenshots accepted --json" >&2
    exit 1
  fi

  # The grid figure benches run on the sweep engine: their tables (every
  # line not starting with '#') must not depend on --threads, and --json
  # must write one JSONL line per grid cell.
  declare -A grid_cells=(
    [bench_fig04_eavesdropper_psnr]=16 [bench_fig05_mos]=16
    [bench_fig09_fraction_p]=38 [bench_fig14_tcp_distortion]=16
    [bench_fig15_tcp_mos]=16 [bench_table2_delay_distortion]=7)
  for bench in "${!grid_cells[@]}"; do
    serial=build/bench_smoke_${bench}.t1.txt
    pooled=build/bench_smoke_${bench}.t4.txt
    cells=build/bench_smoke_${bench}.jsonl
    rm -f "${cells}"
    timeout 120 "./build/bench/${bench}" --frames=60 --reps=1 --threads=1 \
      > "${serial}"
    timeout 120 "./build/bench/${bench}" --frames=60 --reps=1 --threads=4 \
      --json="${cells}" > "${pooled}"
    if ! diff <(grep -v '^#' "${serial}") <(grep -v '^#' "${pooled}"); then
      echo "bench smoke: ${bench} tables differ between 1 and 4 threads" >&2
      exit 1
    fi
    lines=$(wc -l < "${cells}")
    if [[ "${lines}" -ne "${grid_cells[${bench}]}" ]]; then
      echo "bench smoke: ${bench} --json wrote ${lines} lines," \
           "expected ${grid_cells[${bench}]} (one per cell)" >&2
      exit 1
    fi
    echo "bench smoke: ${bench}: tables thread-invariant, ${lines} JSONL cells"
  done

  out=build/bench_smoke_hotpath.json
  rm -f "${out}"
  timeout 300 ./build/bench/bench_hotpath --quick --json="${out}"

  if ! command -v python3 >/dev/null 2>&1; then
    echo "=== bench smoke: python3 not installed; skipping JSON validation ==="
    exit 0
  fi
  python3 - "${out}" <<'PY'
import json, math, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)

def fail(msg):
    sys.exit(f"bench smoke: schema violation: {msg}")

def finite(value, where):
    # null is the documented encoding for "not measurable on this host".
    if value is None:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(f"{where} is {value!r}, expected a number or null")
    if not math.isfinite(value):
        fail(f"{where} is not finite: {value!r}")

if doc.get("schema") != "tv-bench-hotpath-v2":
    fail(f"schema is {doc.get('schema')!r}")
for key in ("quick", "cycle_clock_available", "aes_ni_available"):
    if not isinstance(doc.get(key), bool):
        fail(f"{key} missing or not a bool")
finite(doc.get("tsc_ghz"), "tsc_ghz")

for section in ("ciphers", "ofb"):
    points = doc.get(section)
    if not isinstance(points, list) or not points:
        fail(f"{section} missing or empty")
    for p in points:
        for key in ("algorithm", "backend", "path"):
            if not isinstance(p.get(key), str):
                fail(f"{section}[].{key} missing")
        for key in ("mb_s", "cycles_per_byte"):
            if key not in p:
                fail(f"{section}[].{key} missing")
            finite(p[key], f"{section}[].{key}")
        if p["mb_s"] is None:
            fail(f"{section} mb_s must be measured, got null")

for key in ("forward_blocks_per_s", "roundtrip_blocks_per_s",
            "inverse_blocks_per_s"):
    finite(doc.get("dct", {}).get(key), f"dct.{key}")
    if doc.get("dct", {}).get(key) is None:
        fail(f"dct.{key} must be measured, got null")
transfer = doc.get("transfer", {})
if not isinstance(transfer.get("packets"), int) or transfer["packets"] <= 0:
    fail("transfer.packets missing or non-positive")
finite(transfer.get("packets_per_s"), "transfer.packets_per_s")
# v2: steady-state heap traffic of the zero-copy packet path.
finite(transfer.get("allocations_per_packet"),
       "transfer.allocations_per_packet")
if transfer.get("allocations_per_packet") is None:
    fail("transfer.allocations_per_packet must be measured, got null")
if transfer["allocations_per_packet"] > 0.5:
    fail("transfer.allocations_per_packet regressed: "
         f"{transfer['allocations_per_packet']} (expected ~0)")
if not isinstance(transfer.get("allocations_per_transfer"), int):
    fail("transfer.allocations_per_transfer missing or not an int")
arena = doc.get("arena", {})
for key in ("payload_bytes", "chunks", "allocations"):
    if not isinstance(arena.get(key), int) or arena[key] <= 0:
        fail(f"arena.{key} missing or non-positive")
video = doc.get("video", {})
if not isinstance(video.get("frames"), int) or video["frames"] <= 0:
    fail("video.frames missing or non-positive")
for key in ("render_ms_per_frame", "encode_ms_per_frame",
            "encode_pooled_ms_per_frame", "decode_ms_per_frame"):
    finite(video.get(key), f"video.{key}")
    if video.get(key) is None:
        fail(f"video.{key} must be measured, got null")
cell = doc.get("cell", {})
for key in ("flows", "admitted", "solves", "pooled_solves"):
    if not isinstance(cell.get(key), int) or cell[key] <= 0:
        fail(f"cell.{key} missing or non-positive")
for key in ("schedule_ms", "schedule_pooled_ms"):
    finite(cell.get(key), f"cell.{key}")
    if cell.get(key) is None:
        fail(f"cell.{key} must be measured, got null")
for key in ("aes128_batch_over_block", "aes128_aesni_over_block"):
    if key not in doc.get("speedups", {}):
        fail(f"speedups.{key} missing")
    finite(doc["speedups"][key], f"speedups.{key}")

print(f"bench smoke: {sys.argv[1]} is schema-valid "
      f"({len(doc['ciphers'])} cipher points, {len(doc['ofb'])} ofb points)")
PY
  echo "=== bench smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--alloc-smoke" ]]; then
  # The allocation-regression gate: the counting-operator-new suite must
  # hold steady-state allocations/packet at ~0 through simulate_transfer,
  # and it must stay clean under ASan (the shim routes through malloc, so
  # the sanitizer still tracks every allocation).
  echo "=== alloc smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}" --target tv_alloc_tests
  timeout 300 ./build/tests/tv_alloc_tests

  echo "=== alloc smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}" --target tv_alloc_tests
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 600 ./build-asan/tests/tv_alloc_tests
  echo "=== alloc smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--cell-smoke" ]]; then
  # The CI gate for the cell engine: the fixed-point-vs-DES cross-check
  # grid must hold every acceptance band (the CLI exits non-zero
  # otherwise), and a 100-flow capacity cell with background traffic must
  # complete under a hard timeout — both deterministic in --seed, so
  # `timeout` is purely the hang watchdog.
  validate_args=(cell --validate)
  sweep_args=(cell --flows=100 --background=5 --frames=16 --gops=8
              --reps=1 --deadlines=20 --quality=off --format=csv --seed=1)
  # Two demand classes (I and all with deadlines 4 and 8 s) and 50 000
  # flows: ~175k scheduler rounds that shed all but ~300 flows.  The
  # whole command takes ~0.3-0.4 s on a 4-core x86-64 box at either
  # thread count (the pool computes the scheduler's contention solves
  # ahead); a flow-by-flow scan takes ~35 s there, so the 20 s timeout
  # fails it.  Its stdout must be byte-identical at 1 and 4 threads.
  overload_args=(cell --flows=50000 --motions=low --gops=8 --frames=16
                 --policies=I,all --algs=AES256 --devices=samsung
                 --deadlines=4,8 --reps=1 --quality=off --format=csv
                 --seed=1)

  echo "=== cell smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -L cell
  timeout 120 ./build/tools/thriftyvid "${validate_args[@]}"
  timeout 300 ./build/tools/thriftyvid "${sweep_args[@]}" >/dev/null
  timeout 20 ./build/tools/thriftyvid "${overload_args[@]}" --threads=1 \
    >build/cell_smoke_overload_t1.csv
  timeout 20 ./build/tools/thriftyvid "${overload_args[@]}" --threads=4 \
    >build/cell_smoke_overload_t4.csv
  cmp build/cell_smoke_overload_t1.csv build/cell_smoke_overload_t4.csv
  # Cold cache on a pool: two motions x two GOPs, many cells per workload.
  cold_grid_diff() {
    timeout 60 ./build/tools/thriftyvid "$@" --threads=1 \
      >build/cell_smoke_cold_t1.jsonl
    timeout 60 ./build/tools/thriftyvid "$@" --threads=4 \
      >build/cell_smoke_cold_t4.jsonl
    cmp build/cell_smoke_cold_t1.jsonl build/cell_smoke_cold_t4.jsonl
  }
  cold_grid_diff sweep --motions=low,high --gops=8,15 \
    --policies=none,I,all --algs=AES128,AES256 --transports=udp,tcp \
    --frames=30 --reps=1 --format=jsonl --seed=3
  cold_grid_diff cell --flows=16,64 --motions=low,high --gops=8,15 \
    --policies=none,I,all --frames=30 --reps=1 --deadlines=4,8 \
    --format=jsonl --seed=3

  echo "=== cell smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L cell
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 300 ./build-asan/tools/thriftyvid "${validate_args[@]}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 600 ./build-asan/tools/thriftyvid "${sweep_args[@]}" >/dev/null

  echo "=== cell smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--analysis-smoke" ]]; then
  # The CI gate for the adversary: capture one deterministic loopback
  # transfer as pcap, run `thriftyvid analyze` over it, and hold the
  # emitted JSONL to the leakage-record schema and the headline result
  # (I-frame recall >= 0.9 with no countermeasures).  Both runs are
  # deterministic in --seed, so `timeout` is purely the hang watchdog.
  analysis_smoke() {
    local build="$1"
    local pcap="${build}/analysis_smoke.pcap"
    local jsonl="${build}/analysis_smoke.jsonl"
    rm -f "${pcap}" "${jsonl}"
    timeout 300 "./${build}/tools/thriftyvid" live loopback \
      --frames=48 --gop=16 --policy=I --seed=1 --pcap="${pcap}"
    timeout 300 "./${build}/tools/thriftyvid" analyze "${pcap}" \
      --policy=I --gop=16 --frames=48 --seed=1 \
      --format=jsonl --out="${jsonl}"

    # `export` prices the transfer with the cipher --alg names, and is
    # deterministic in --seed.
    local export_args=(export --frames=60 --gop=30 --policy=I --seed=1)
    local alg
    for alg in 3DES AES256; do
      rm -rf "${build}/export_smoke_${alg}" "${build}/export_smoke_${alg}_rerun"
      timeout 300 "./${build}/tools/thriftyvid" "${export_args[@]}" \
        --alg="${alg}" --outdir="${build}/export_smoke_${alg}"
      timeout 300 "./${build}/tools/thriftyvid" "${export_args[@]}" \
        --alg="${alg}" --outdir="${build}/export_smoke_${alg}_rerun"
      diff -r "${build}/export_smoke_${alg}" "${build}/export_smoke_${alg}_rerun"
    done
    if ! command -v python3 >/dev/null 2>&1; then
      echo "=== analysis smoke: python3 not installed; skipping JSONL and pcap checks ==="
      return 0
    fi
    python3 - "${jsonl}" <<'PY'
import json, math, sys

def fail(msg):
    sys.exit(f"analysis smoke: {msg}")

with open(sys.argv[1]) as f:
    lines = [line for line in f if line.strip()]
if not lines:
    fail("empty JSONL output")

NUMERIC = (
    "bitrate_est_bps", "bitrate_true_bps", "q_est", "q_true",
    "psnr_est_db", "psnr_true_db", "i_precision", "i_recall", "i_f1",
    "bitrate_rel_error", "trajectory_mae_kbps", "encrypted_fraction_error",
    "psnr_error_db", "duration_s", "mean_delay_ms", "mean_power_w",
    "jitter_mean_delay_s",
)
for line in lines:
    rec = json.loads(line)
    for key in ("cell", "policy", "shaping", "seed", "packets", "captured",
                "frames_observed", "gop_est", "gop_true", "motion_est",
                "motion_true", "gop_error", "motion_match",
                "pad_overhead_bytes", *NUMERIC):
        if key not in rec:
            fail(f"record missing key {key!r}")
    for key in NUMERIC:
        value = rec[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail(f"{key} is {value!r}, expected a number")
        if not math.isfinite(value):
            fail(f"{key} is not finite: {value!r}")
    # The headline adversary result: with no shaping, I-frames stand out.
    if rec["shaping"] == "none" and rec["i_recall"] < 0.9:
        fail(f"i_recall {rec['i_recall']} below the 0.9 floor")

print(f"analysis smoke: {sys.argv[1]} is schema-valid "
      f"({len(lines)} leakage record(s))")
PY

    python3 - "${build}/export_smoke_3DES/eavesdropper.pcap" \
      "${build}/export_smoke_AES256/eavesdropper.pcap" <<'PY'
import struct, sys

def stamps(path):
    with open(path, "rb") as f:
        data = f.read()
    out, at = [], 24  # global header
    while at + 16 <= len(data):
        sec, usec, incl, _ = struct.unpack_from("<IIII", data, at)
        out.append((sec, usec))
        at += 16 + incl
    return out

slow, fast = stamps(sys.argv[1]), stamps(sys.argv[2])
if not slow or not fast:
    sys.exit("analysis smoke: export wrote an empty capture")
if slow == fast:
    sys.exit("analysis smoke: export --alg=3DES and --alg=AES256 captures "
             "have identical timestamps")
print(f"analysis smoke: export pcaps differ by cipher "
      f"({len(slow)} and {len(fast)} records)")
PY
  }

  echo "=== analysis smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -L analysis
  analysis_smoke build

  echo "=== analysis smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L analysis
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    analysis_smoke build-asan

  echo "=== analysis smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--chaos-smoke" ]]; then
  # A 200-session fleet under a composite chaos plan: EAGAIN storms,
  # short writes, bursty loss, dropped control replies, mid-stream kills
  # and a receiver stall.  The run is deterministic in --seed and must
  # terminate by the loop going idle; `timeout` is the hang watchdog.
  # spurious=0.3 makes clients stop reading before their socket is empty,
  # the one path on which the virtual loop must wait again on a
  # callback's word (EventLoop::note_unread); the report is pinned in
  # tests/data/live_load_chaos_200.txt.
  smoke_args=(live load --sessions=200 --ramp=20 --seed=1
              --idle-timeout=8 --stall-timeout=8
              --chaos=eagain=0.2,short=0.05,loss=0.05,burst=3,ctrl-drop=0.2,kill=0.1,stall=4:2,spurious=0.3)

  echo "=== chaos smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -L chaos
  timeout 120 ./build/tools/thriftyvid "${smoke_args[@]}" \
    > build/chaos_smoke_load200.txt
  diff tests/data/live_load_chaos_200.txt build/chaos_smoke_load200.txt

  # 5000 sessions take ~3 s on 4 cores with the server's running backlog
  # count and ~45 s with a rescan of every session served per datagram.
  # run_load opens one client socket per session up front, hence the
  # raised open-file limit.
  (
    ulimit -n 8192
    timeout 15 ./build/tools/thriftyvid live load --sessions=5000 \
        --ramp=100 --seed=1 > build/chaos_smoke_load5000.txt
  )
  diff tests/data/live_load_5000.txt build/chaos_smoke_load5000.txt

  # Size flags are non-negative: -1 must be rejected, not cast to 2^64-1
  # (which silently disables shedding).
  rc=0
  ./build/tools/thriftyvid live load --sessions=4 --queue-cap=-1 \
    2>build/chaos_smoke_negative.txt || rc=$?
  if [[ "${rc}" -ne 1 ]]; then
    echo "chaos smoke: live load --queue-cap=-1 exited ${rc}, expected 1" >&2
    exit 1
  fi
  grep -qF "invalid value for --queue-cap: '-1' (expected a non-negative integer)" \
    build/chaos_smoke_negative.txt

  echo "=== chaos smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L chaos
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 300 ./build-asan/tools/thriftyvid "${smoke_args[@]}" \
    > build-asan/chaos_smoke_load200.txt
  diff tests/data/live_load_chaos_200.txt build-asan/chaos_smoke_load200.txt
  # The uplink fault plan (drop, corrupt, truncate, dup, outage) damages
  # datagrams in place through live::Impairment; its CLI transcript pins
  # the report.
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 120 ./build-asan/tools/thriftyvid live load --sessions=4 \
    --per-session --psnr \
    --chaos=drop=0.05,corrupt=0.1,truncate=0.05,dup=0.1,outage=0.5:0.3 \
    > build-asan/chaos_smoke_faults.txt
  diff tests/data/cli/live_load_faults.out build-asan/chaos_smoke_faults.txt

  echo "=== chaos smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--live-smoke" ]]; then
  # The loopback run replays a deterministic transfer over real UDP
  # sockets; `timeout` is a hard watchdog against event-loop hangs.
  smoke_args=(live loopback --frames=32 --gop=16 --policy=I --seed=1)

  echo "=== live smoke: plain build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -L live
  timeout 120 ./build/tools/thriftyvid "${smoke_args[@]}"

  # `live send` to a non-loopback address, as in the three-host run of
  # docs/live.md.  The host's own first non-loopback IPv4 stands in for
  # the receiving machine.
  host_ip=$(ip -4 -o addr show scope global 2>/dev/null |
              awk '{ split($4, a, "/"); print a[1]; exit }' || true)
  if [[ -z "${host_ip}" ]]; then
    echo "=== live smoke: no non-loopback IPv4 address; skipping live send check ==="
  else
    port=$((20000 + RANDOM % 20000))
    timeout 60 ./build/tools/thriftyvid live recv --bind="0.0.0.0:${port}" \
      --idle-timeout=3 --frames=16 --gop=8 >build/live_smoke_recv.txt &
    recv_pid=$!
    sleep 2  # let the receiver bind before the first datagram.
    timeout 60 ./build/tools/thriftyvid live send --to="${host_ip}:${port}" \
      --frames=16 --gop=8
    wait "${recv_pid}"
    cat build/live_smoke_recv.txt
    if ! grep -Eq '^received [1-9][0-9]* packets' build/live_smoke_recv.txt; then
      echo "live smoke: nothing received from live send to ${host_ip}" >&2
      exit 1
    fi
  fi

  echo "=== live smoke: ASan + UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L live
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    timeout 300 ./build-asan/tools/thriftyvid "${smoke_args[@]}"

  echo "=== live smoke passed ==="
  exit 0
fi

if [[ "${mode}" == "--tidy" ]]; then
  # Static-analysis pass: a pinned check set so results stay stable across
  # clang-tidy releases.  bugprone-easily-swappable-parameters and
  # -narrowing-conversions are excluded as noise for this codebase (math
  # code passes many adjacent doubles and converts sizes deliberately).
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "=== tidy: clang-tidy not installed; skipping ==="
    exit 0
  fi
  echo "=== clang-tidy (pinned checks) over src/ ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  checks='-*,bugprone-*,-bugprone-easily-swappable-parameters'
  checks+=',-bugprone-narrowing-conversions,performance-*'
  checks+=',readability-container-size-empty,readability-container-contains'
  checks+=',readability-container-data-pointer'
  find src -name '*.cpp' -print0 |
    xargs -0 clang-tidy -p build --quiet --checks="${checks}" \
          --warnings-as-errors='*'
  echo "=== tidy pass done ==="
  exit 0
fi

if [[ "${mode}" == "--validation-only" ]]; then
  echo "=== validation tier (plain build) ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" \
        -L 'validation|slow|cell'
  echo "=== validation tier passed ==="
  exit 0
fi

if [[ "${mode}" == "--coverage" ]]; then
  echo "=== coverage build + tests (gcov) ==="
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DTHRIFTYVID_COVERAGE=ON \
        -DTHRIFTYVID_WERROR=ON
  cmake --build build-cov -j "${jobs}"
  ctest --test-dir build-cov --output-on-failure -j "${jobs}" -LE slow
  echo "=== per-directory line coverage (src/) ==="
  covdir=build-cov/coverage
  rm -rf "${covdir}"
  mkdir -p "${covdir}"
  # -p keeps the full path in each .gcov filename so sources with the same
  # basename in different directories cannot clobber each other.
  (cd "${covdir}" &&
     find ../src -name '*.gcda' -print0 |
       xargs -0 gcov -p >/dev/null 2>&1) || true
  report=$(awk -v root="$(pwd)/src/" '
    BEGIN { FS = ":" }
    {
      count = $1; sub(/^[ \t]+/, "", count)
      lineno = $2 + 0
    }
    lineno == 0 && $3 == "Source" {
      keep = index($4, root) == 1
      if (keep) {
        rel = substr($4, length(root) + 1)
        dir = rel
        if (sub(/\/[^\/]*$/, "", dir) == 0) dir = "."
        dir = "src/" dir
      }
      next
    }
    !keep || lineno == 0 || count == "-" { next }
    {
      total[dir]++
      if (count != "#####" && count != "=====") hit[dir]++
    }
    END {
      for (d in total) {
        printf "%-22s %6.1f%%  (%d/%d lines)\n",
               d, 100.0 * hit[d] / total[d], hit[d], total[d]
        grand_total += total[d]
        grand_hit += hit[d]
      }
      if (grand_total > 0) {
        printf "TOTAL %6.1f%% (%d/%d lines)\n",
               100.0 * grand_hit / grand_total, grand_hit, grand_total
      }
    }' "${covdir}"/*.gcov)
  echo "${report}" | grep -v '^TOTAL' | sort
  echo "${report}" | grep '^TOTAL'
  echo "=== coverage pass done ==="
  exit 0
fi

if [[ "${mode}" != "--sanitize-only" && "${mode}" != "--tsan-only" ]]; then
  echo "=== orphan-header guard ==="
  orphans=()
  while IFS= read -r header; do
    includers=$(grep -rlF --include='*.cpp' --include='*.hpp' \
                  "#include \"${header#src/}\"" src tools bench examples |
                grep -vxF -e "${header}" -e "${header%.hpp}.cpp" || true)
    [[ -n "${includers}" ]] || orphans+=("${header}")
  done < <(find src -name '*.hpp' | sort)
  if (( ${#orphans[@]} > 0 )); then
    printf 'orphan header (no includer but its own .cpp): %s\n' \
      "${orphans[@]}" >&2
    exit 1
  fi

  echo "=== plain build + tests ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DTHRIFTYVID_WERROR=ON
  cmake --build build -j "${jobs}"
  ctest --test-dir build --output-on-failure -j "${jobs}" -LE slow
fi

if [[ "${mode}" != "--tsan-only" ]]; then
  echo "=== sanitized build + tests (ASan + UBSan) ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_SANITIZE=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-asan -j "${jobs}"
  ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "${jobs}" -LE slow
fi

if [[ "${mode}" != "--sanitize-only" ]]; then
  echo "=== ThreadSanitizer build + concurrency tests ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTHRIFTYVID_TSAN=ON -DTHRIFTYVID_WERROR=ON
  cmake --build build-tsan -j "${jobs}"
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "${jobs}" \
          -R 'ThreadPool|Sweep|StreamGrid|WorkloadCache|Flags|Validation|Flow\.|PooledEncode|PooledBuild|RenderClip|SchedulerProperty'
fi

echo "=== all checks passed ==="
