#!/usr/bin/env bash
# Single-command CI entry point. Builds the tree under ASan/UBSan, checks
# the tools' flags (each tool's --help lists every row of the flag table in
# src/config/flags.cc that names it; a malformed number, another tool's
# flag and a bad value before ccload connects all exit 2), then runs, in
# order:
#   1. the full tier-1 suite (every registered test),
#   2. the chaos suite      (ctest -L chaos  — fault-injection survival),
#      then the substrate and chaos suites repeated until-fail:20, so a
#      test that fails on any one run fails CI,
#   3. the oracle suite     (ctest -L oracle — serializability oracle +
#                            invariant auditor, incl. the broken-protocol
#                            negative control, and OracleRetirementTest:
#                            synthetic histories checked against a
#                            from-scratch cycle search, across the
#                            oracle's retirement horizon),
#   4. the determinism gate: the determinism tests (byte-identical replay,
#      serial-vs-parallel sweeps, golden digests) and the calendar model
#      test (random schedules must fire in (when, push order)),
#   5. a bounded chaos soak (fixed seeds, 3 compound-fault cocktails across
#      all five protocols) under the same sanitizer, always with --check so
#      the checker, which runs inline on the simulation thread, rides every
#      soak run,
#   6. a real-substrate loopback smoke: ccserve is started (oracle on) and
#      driven by ccload for each of the five protocols; a lost transaction,
#      a conservation violation, zero commits, an unclean server shutdown,
#      or a server whose open descriptors (/proc/PID/fd) do not return
#      within 2 s of ccload's exit to their count when it wrote its port
#      (a departed shard's socket left open) fails the leg; then one
#      silent-peer leg (2PL): a python3 socket connects and sends nothing,
#      and ccserve's open descriptors must return to their count before
#      it connected within 3 s while it stays open (the server's 2 s
#      handshake deadline drops it); then one redial leg (2PL, ccserve
#      --recovery): ccload's hard partition cuts a shard's connection
#      mid-run, and ccload must exit 0 having redialed
#      (`transport   : reconnects N`, N >= 1),
#   7. a real-substrate chaos cocktail: each of the five protocols runs on
#      threads + TCP with frame drop/duplicate/delay-spike, one hard
#      partition, one client crash + restart, and one server crash +
#      log-replay restart, oracle on; a lost transaction (exit 4), an
#      oracle violation, or a stall fails,
#   8. a perf-smoke gate (ctest -L perf-smoke): the allocation-free
#      steady-state contracts — the event kernel's Delay/broadcast paths
#      AND the real-substrate wire path (encode/flush/split/decode) — are
#      asserted exactly via a counting operator new — the fault-free
#      message path's ceiling on allocations over 1 KB per commit, and the
#      oracle's gates: PerfSmokeTest.OracleCommitIsAllocationFreeAfterWarmup
#      (10k commits, fed to an Oracle and through a Checker, allocate
#      nothing) and
#      PerfSmokeTest.OracleStateIsBoundedByTheHorizon (retained nodes,
#      stored edges and writes after 20k and 100k commits, counts only),
#   9. the benchmark's self-test (python3 ccbench/test_ccbench.py): builds
#      the gated harness in Release under .bench_build/, smoke-runs every
#      workload untraced and traced, and checks same-seed digests,
#  10. a real-substrate throughput floor that re-measures: three short
#      real_loopback benchmark runs (python3 ccbench/run.py --workload
#      real_loopback --seconds 5), all three printed, are compared through
#      `run.py compare` with the earlier runs of the same length in this
#      host's benchmark history (.bench_build/ccbench/history.jsonl, keyed
#      by host fingerprint); the median of their commits_per_s must not
#      fall more than CCSIM_CI_TPUT_TOLERANCE percent below the history's
#      median. With no such history the runs are recorded and the step
#      says it skipped,
#  11. a checker-overhead budget gate: three traced 10 s benchmark runs of
#      sim_hot_checked (python3 ccbench/run.py --workload sim_hot_checked
#      --trace 1 --seconds 10) re-measure the checker-on overhead; all
#      three check.overhead_pct values are printed, and their median must
#      be <= CCSIM_CI_CHECKER_BUDGET (default 12) — the price of the
#      checker, which pays the oracle inline on every commit, is a
#      CI-enforced contract, measured on this host, not read from a
#      tracked file.
#
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
# Environment:
#   CCSIM_CI_SANITIZE   sanitizer for the build: asan (default), tsan, OFF
#   CCSIM_CI_JOBS       parallelism (default: nproc)
#   CCSIM_CI_CHECKER_BUDGET  max allowed checker-on overhead percent (12)
#   CCSIM_CI_SMOKE_SECS  measured seconds per protocol in the loopback
#                        smoke (default 5; ~30 s wall across all five)
#   CCSIM_CI_TPUT_TOLERANCE  allowed real-substrate commits/s shortfall
#                        versus this host's history, percent (default 10)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-ci}"
# Absolutize: later steps cd into the build dir and still reference it.
mkdir -p "$build_dir"
build_dir="$(cd "$build_dir" && pwd)"
sanitize="${CCSIM_CI_SANITIZE:-asan}"
jobs="${CCSIM_CI_JOBS:-$(nproc)}"
checker_budget="${CCSIM_CI_CHECKER_BUDGET:-12}"
smoke_secs="${CCSIM_CI_SMOKE_SECS:-5}"
tput_tolerance="${CCSIM_CI_TPUT_TOLERANCE:-10}"

step() { echo; echo "=== $* ==="; }

step "configure ($build_dir, CCSIM_SANITIZE=$sanitize)"
cmake -B "$build_dir" -S "$repo_root" -DCCSIM_SANITIZE="$sanitize"

step "build"
cmake --build "$build_dir" -j"$jobs"

step "tool flags smoke (--help lists the flag table's rows; bad values exit 2)"
# A row of the table starts `{"--name", <tools>,` on one line.
for tool in ccsim_run:kCcsimRun ccserve:kCcserve ccload:kCcload; do
  usage="$("$build_dir/tools/${tool%%:*}" --help)"
  rows='s/^ *\{"(--[a-z-]+)", .*\b(kAllTools|'"${tool#*:}"')\b.*/\1/p'
  for flag in $(sed -nE "$rows" "$repo_root/src/config/flags.cc"); do
    grep -qE -- "^  $flag(=| |\$)" <<<"$usage" ||
      { echo "FAIL: ${tool%%:*} --help does not list $flag"; exit 1; }
  done
done
for check in "ccsim_run --commits=3k|--commits wants a non-negative integer, got '3k'" \
    "ccserve --locality=0.5|unknown flag: --locality=0.5 (try --help)" \
    "ccload --port=1 --clients=8x|--clients wants an integer, got '8x'"; do
  got=0
  err="$("$build_dir"/tools/${check%%|*} 2>&1 >/dev/null)" || got=$?
  if (( got != 2 )) || [[ "$err" != "${check#*|}" ]]; then
    echo "FAIL: ${check%%|*} exited $got, printed '$err'"
    exit 1
  fi
done
echo "flags ok"

cd "$build_dir"

step "tier-1: full test suite"
ctest --output-on-failure -j"$jobs"

step "chaos suite (ctest -L chaos)"
ctest -L chaos --output-on-failure -j"$jobs"

step "flake gate (substrate + chaos suites, 20 repeats)"
ctest --repeat until-fail:20 -L 'substrate|chaos' --output-on-failure \
    -j"$jobs"

step "oracle suite (ctest -L oracle)"
ctest -L oracle --output-on-failure -j"$jobs"

step "determinism gate (determinism tests + calendar model)"
ctest -R "Determinism|CalendarModel" --output-on-failure -j"$jobs"

step "bounded chaos soak (3 fixed seeds x 5 protocols, oracle on)"
"$build_dir"/tools/ccsim_run --chaos-soak=3 --seed=1 --jobs="$jobs" --check

step "ccserve/ccload loopback smoke (5 protocols x ${smoke_secs}s, oracle on; 2PL silent-peer and redial legs)"
# One fresh server per protocol: a poisoned server state from one run must
# not be able to mask (or cause) a failure in the next. ccload exits
# non-zero on zero commits, lost transactions, or a conservation
# violation; ccserve exits non-zero on an unclean shutdown; set -e
# propagates both. Within 2 s of ccload's exit ccserve's open descriptors
# fall back to at most their count when it wrote its port (the port
# file's own descriptor may still have been open then).
# start_ccserve ALGO [FLAG...]: starts ccserve in the background (pid in
# serve_pid) and waits until it has written its port to port_file.
start_ccserve() {
  local algo="$1"
  shift
  port_file="$build_dir/ccserve.$algo.port"
  rm -f "$port_file"
  "$build_dir"/tools/ccserve --algorithm="$algo" --clients=8 --port=0 \
      --port-file="$port_file" --check --duration=$((smoke_secs + 60)) \
      "$@" &
  serve_pid=$!
  for _ in $(seq 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.1
  done
  if [[ ! -s "$port_file" ]]; then
    echo "FAIL: ccserve ($algo) never wrote its port"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
}
for algo in 2pl cert callback no-wait no-wait-notify; do
  start_ccserve "$algo"
  fds_before=$(ls /proc/"$serve_pid"/fd | wc -l)
  "$build_dir"/tools/ccload --port-file="$port_file" --algorithm="$algo" \
      --clients=8 --duration="$smoke_secs" --warmup=1
  for _ in $(seq 20); do
    fds_after=$(ls /proc/"$serve_pid"/fd | wc -l)
    (( fds_after <= fds_before )) && break
    sleep 0.1
  done
  if (( fds_after > fds_before )); then
    echo "FAIL: ccserve ($algo) holds $fds_after descriptors after ccload" \
        "left, $fds_before before it connected"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "$serve_pid" 2>/dev/null || true
  wait "$serve_pid"
done
# The silent-peer leg: a peer that connects and never sends its Hello is
# dropped at the server's handshake deadline, so ccserve's descriptors rise
# by its socket and are back at their count before the connect within 3 s,
# while the peer still holds its end open.
start_ccserve 2pl
fds_before=$(ls /proc/"$serve_pid"/fd | wc -l)
python3 -c 'import socket, sys, time
peer = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
time.sleep(30)' "$(cat "$port_file")" &
silent_pid=$!
accepted=0
deadline=$(( $(date +%s%N) + 3000000000 ))
while (( $(date +%s%N) < deadline )); do
  fds_now=$(ls /proc/"$serve_pid"/fd | wc -l)
  if (( fds_now > fds_before )); then
    accepted=1
  elif (( accepted )); then
    break
  fi
  sleep 0.05
done
peer_alive=0
kill -0 "$silent_pid" 2>/dev/null && peer_alive=1
kill "$silent_pid" 2>/dev/null || true
wait "$silent_pid" 2>/dev/null || true
kill -TERM "$serve_pid" 2>/dev/null || true
wait "$serve_pid"
if (( !accepted || !peer_alive || fds_now > fds_before )); then
  echo "FAIL: silent peer (accepted $accepted, still open $peer_alive):" \
      "ccserve holds $fds_now descriptors 3 s after it connected," \
      "$fds_before before"
  exit 1
fi
echo "silent peer dropped at the handshake deadline"
# The redial leg: the shard whose connection the partition cuts redials
# on its loop and finishes clean.
start_ccserve 2pl --recovery
redial_log="$build_dir/ccload.redial.log"
"$build_dir"/tools/ccload --port-file="$port_file" --algorithm=2pl \
    --clients=8 --duration=4 --partition=0:2.0:0.3:hard | tee "$redial_log"
kill -TERM "$serve_pid" 2>/dev/null || true
wait "$serve_pid"
reconnects=$(sed -n 's/^transport *: reconnects \([0-9]*\).*/\1/p' \
    "$redial_log")
if (( ${reconnects:-0} < 1 )); then
  echo "FAIL: no shard redialed after the hard partition"
  exit 1
fi

step "real-substrate chaos cocktail (5 protocols, drop+dup+spike+hard-partition+crashes)"
# The wire-level fault plan from DESIGN.md §5c on real threads + TCP:
# 2% frame drop, 1% duplicate, 5% 5 ms delay spikes, one hard partition
# (TCP connection killed mid-run), one client crash + restart (client 3
# loses its cache and comes back under a new incarnation), one server
# crash + log-replay restart.
# ccsim_run exits 4 if any committed transaction was lost, non-zero on an
# oracle violation or stall; set -e propagates.
for algo in 2pl cert callback no-wait no-wait-notify; do
  "$build_dir"/tools/ccsim_run --substrate=real --algorithm="$algo" \
      --clients=8 --duration=4 --check \
      --drop=0.02 --dup=0.01 --spike=0.05:5 \
      --partition=0:1.5:0.5:hard --crash=3:2.0:0.3 --crash=-1:2.5:0.3
done

step "perf-smoke gate (allocation-free steady states, ctest -L perf-smoke)"
ctest -L perf-smoke --output-on-failure -j"$jobs"

step "benchmark self-test (python3 ccbench/test_ccbench.py)"
(cd "$repo_root" && python3 ccbench/test_ccbench.py)

step "real-substrate throughput floor (median of 3 within ${tput_tolerance}% of this host's history)"
# ccbench builds its own Release tree, so this step measures the same
# binary under any CI sanitizer. run.py appends every result to the
# history; the earlier runs of this step's length on this host (same
# fingerprint, untraced, correct) are the baseline. Single 5 s runs of one
# build on a shared host spread by 20% or more, so the gate compares the
# median of three.
history="$repo_root/.bench_build/ccbench/history.jsonl"
floor_secs=5
floor_dir="$build_dir/ci_tput_floor"
rm -rf "$floor_dir"
mkdir -p "$floor_dir"
touch "$history"
cp "$history" "$floor_dir/earlier.jsonl"
floor_runs=3
for run in $(seq "$floor_runs"); do
  (cd "$repo_root" && python3 ccbench/run.py --workload real_loopback \
      --seconds "$floor_secs") >"$floor_dir/run$run.log"
  echo "run $run: $(grep '^real_loopback commits_per_s ' "$floor_dir/run$run.log")"
done
tail -n "$floor_runs" "$history" >"$floor_dir/new.jsonl"
fingerprint="$(grep -o '"fingerprint": {[^}]*}' "$floor_dir/new.jsonl" |
  head -n 1)"
grep -F "$fingerprint" "$floor_dir/earlier.jsonl" |
  grep -F '"correct": true,' | grep -F "\"seconds\": $floor_secs.0," |
  grep -F '"trace": 0, "workload": "real_loopback"}' \
  >"$floor_dir/old.jsonl" || true
if [[ ! -s "$floor_dir/old.jsonl" ]]; then
  echo "skipped: no earlier ${floor_secs} s real_loopback run on this host;" \
       "these runs are recorded as the baseline for the next"
else
  echo "comparing with $(wc -l <"$floor_dir/old.jsonl") earlier run(s):"
  # compare reports every end-to-end metric against the benchmark's bounds;
  # the floor gates commits_per_s alone (a short run's millisecond set-up
  # time moves by more than those bounds from run to run).
  (cd "$repo_root" && python3 ccbench/run.py compare \
      "$floor_dir/old.jsonl" "$floor_dir/new.jsonl" || true) |
    tee "$floor_dir/compare.log"
  awk -v tol="$tput_tolerance" '
    $4 == "commits_per_s" {
      found = 1
      floor = $5 * (1 - tol / 100)
      printf "real_loopback: median %.0f commits/s (history median %.0f, floor %.0f)\n", $7, $5, floor
      if ($7 < floor) {
        printf "FAIL: real-substrate throughput fell more than %s%% below this host'"'"'s history\n", tol
        exit 1
      }
    }
    END { if (!found) { print "FAIL: compare printed no commits_per_s line"; exit 1 } }
  ' "$floor_dir/compare.log"
fi

step "checker-overhead budget (<= ${checker_budget}%, median of 3, re-measured)"
# The benchmark prints one JSON result object as its last line; a traced
# run's metrics include check.overhead_pct. Single runs on a shared host
# spread widely, so the gate reads the median of three.
overhead_logs=()
for run in 1 2 3; do
  overhead_log="$build_dir/ci_checker_overhead.$run.log"
  (cd "$repo_root" && python3 ccbench/run.py --workload sim_hot_checked \
      --trace 1 --seconds 10) >"$overhead_log"
  overhead_logs+=("$overhead_log")
done
python3 - "$checker_budget" "${overhead_logs[@]}" <<'PYEOF'
import json, statistics, sys
budget = float(sys.argv[1])
overheads = []
for path in sys.argv[2:]:
    lines = open(path, encoding="utf-8").read().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"FAIL: the benchmark run in {path} printed no result line")
    entry = result.get("metrics", {}).get("check.overhead_pct")
    if entry is None:
        sys.exit(f"FAIL: check.overhead_pct missing from {path}")
    overheads.append(entry["value"])
overhead = statistics.median(overheads)
runs = ", ".join(f"{value:.2f}%" for value in overheads)
print(f"checker-on overhead: runs {runs}; median {overhead:.2f}% "
      f"(budget {budget}%)")
if overhead > budget:
    sys.exit(f"FAIL: checker-on overhead median {overhead:.2f}% exceeds the "
             f"{budget}% budget")
PYEOF

step "ci passed"
