#!/usr/bin/env bash
# Full verification matrix for the EActors runtime:
#
#   lint        enclave-safety lint over src/ (incl. lock-order-cycle) and
#               the lint's own fixture self-test
#   tcb         TCB budget: code lines per trusted module (the
#               [modules].trusted list of tools/enclave_policy.toml) must
#               equal the budgets committed next to that list, and
#               core + concurrent must stay under the paper's §6.1 bound
#               of 3,300 (PAPER_TCB_BOUND), whatever the budgets say
#   plain       plain build (+ -Werror) and the entire ctest suite
#   release     Release (-O3) build (+ -Werror) of every target and the
#               entire ctest suite: the SIMD crypto path and GCC's
#               flow-sensitive warnings at the optimisation level the
#               end-to-end benchmark measures
#   asan        ASan+UBSan build, entire ctest suite
#   tsan        TSan build, concurrency suite (ctest -L tsan)
#   sched       work-stealing scheduler suite (ctest -L sched) on a TSan
#               tree with EA_LOCK_RANK=ON, so affinity/FIFO/steal-stress
#               run with both the race detector and the rank checker live
#   fault       fault build (ASan+UBSan + failpoints + lock-rank checker),
#               fault-injection and crash-recovery suite (ctest -L fault)
#   supervise   containment/restart/reconnect suite + fault-storm soaks on
#               the fault tree, then the same suite 20 times (until one
#               fails) in a plain failpoints tree (build-failpoints: no
#               sanitizers), where the soaks run at full speed
#   lockrank    deadlock-order regression suite (ctest -L lockrank) on the
#               fault tree, where EA_LOCK_RANK=ON makes the checker live
#   migrate     live-migration suite (ctest -L migrate) on the fault tree:
#               sealed handoff, rollback + route quarantine, the
#               duplicate-resume fork guard and the EPC accounting run
#               under ASan+UBSan with failpoints and the rank checker live
#   stress      the scheduler, migration, supervision, net, POS, service,
#               TSan and fault suites (ctest -L
#               'sched|migrate|supervise|net|pos|service|tsan|fault')
#               repeated until one fails, up to 50 rounds, JOBS (default:
#               nproc) tests at a time, on the TSan sched tree and on the
#               fault tree — races a single pass misses
#   nofailpoint zero-overhead-when-off symbol check on the plain tree
#   bench       bench smoke: bench_batching + bench_pos + bench_sched +
#               bench_migrate, JSON schema check (incl. the zero-copy
#               counter guard), bench_ablation_colocated (all three
#               secure-sum rings — TCP, SDK, EActors; exits 1 on a wrong
#               or missing TCP-ring sum), bench_fig12_smc_plain and
#               bench_fig13_smc_dynamic (exit 1 on a wrong SDK or EActors
#               sum), and the end-to-end benchmark's self-test
#               (perfbench/run.py --self-test, built under build-check)
#   posperf     perf-regression guard: a fresh `bench_pos --smoke` cleaner
#               sweep must hold >= 0.8x of the committed BENCH_pos.json
#               cleaner rows, per-mode geomean (the epoch-reclamation
#               throughput claim); skipped with a notice when no baseline
#               is committed
#   netperf     perf-regression guard: a fresh `bench_c100k --smoke` sweep
#               of the READER's epoll plane must hold >= 0.8x throughput
#               and <= 2.0x p99 geomean on the epoll rows of the committed
#               BENCH_net.json (the idle-connection claim); skipped with a
#               notice when no baseline is committed or the RLIMIT_NOFILE
#               hard cap is too low for the client sweep
#   tsa         clang build with -DEA_THREAD_SAFETY=ON: the Clang Thread
#               Safety Analysis over every annotated lock, warnings as
#               errors (skipped with a notice when clang++ is absent)
#   tidy        clang-tidy over src/ (skipped with a notice when absent)
#
# Any leg failing fails the script. Usage:
#   scripts/check.sh              # full matrix
#   scripts/check.sh --quick      # lint + plain only
#   scripts/check.sh --leg NAME   # one leg by the name in the list above
#
# Build trees are kept per-leg (build-check, build-release, build-asan,
# build-tsan, build-sched, build-fault, build-failpoints, build-clang-tsa)
# so incremental re-runs stay cheap.

set -u
cd "$(dirname "$0")/.."

QUICK=0
LEG_FILTER=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --leg)
      shift
      LEG_FILTER="${1:-}"
      if [[ -z "$LEG_FILTER" ]]; then
        echo "usage: scripts/check.sh [--quick] [--leg NAME]" >&2
        exit 2
      fi
      ;;
    *)
      echo "usage: scripts/check.sh [--quick] [--leg NAME]" >&2
      exit 2
      ;;
  esac
  shift
done

JOBS=${JOBS:-$(nproc)}
FAILED=()
MATCHED=0

note() { printf '\n\033[1;34m== %s ==\033[0m\n' "$*"; }

want() {
  # want <slug> — should this leg run under the current selection?
  local slug=$1
  if [[ -n "$LEG_FILTER" ]]; then
    [[ "$slug" == "$LEG_FILTER" ]] || return 1
    MATCHED=1
    return 0
  fi
  if [[ $QUICK -eq 1 ]]; then
    [[ "$slug" == "lint" || "$slug" == "plain" ]]
    return
  fi
  return 0
}

leg() {
  # leg <slug> <display-name> <cmd...> — runs a matrix leg, records failure,
  # keeps going.
  local slug=$1 name=$2
  shift 2
  want "$slug" || return 0
  note "$name"
  if "$@"; then
    printf '\033[1;32mPASS\033[0m %s\n' "$name"
  else
    printf '\033[1;31mFAIL\033[0m %s\n' "$name"
    FAILED+=("$name")
  fi
}

build_and_test() {
  # build_and_test <dir> <ctest-extra-args...> -- <cmake-extra-args...>
  local dir=$1
  shift
  local ctest_args=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do
    ctest_args+=("$1")
    shift
  done
  [[ "${1:-}" == "--" ]] && shift
  cmake -B "$dir" -S . "$@" || return 1
  cmake --build "$dir" -j "$JOBS" || return 1
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" "${ctest_args[@]}"
}

# --- lint first: cheapest signal -------------------------------------------
leg lint "enclave-lint (src/ + fixture self-test)" bash -c "
  python3 tools/enclave_lint.py --jobs $JOBS &&
  python3 tools/enclave_lint.py --self-test"

# --- TCB budget: per trusted module, comment-stripped code lines against ---
# tools/enclave_policy.toml's [modules.tcb_budget], above or below which a
# count fails (a shrunk module lowers its entry); fails too when core +
# concurrent reach the paper's §6.1 bound of < 3.3 kLoC (PAPER_TCB_BOUND in
# enclave_lint.py), so raising two budgets cannot carry them past it. The
# lint leg's `deploy-include` rule keeps the untrusted config parser
# (src/deploy) out of every trusted module, so it stays out of this count.
leg tcb "TCB budget (enclave_lint.py --tcb)" \
  python3 tools/enclave_lint.py --tcb

# --- plain build + full suite, warnings as errors --------------------------
leg plain "plain build + ctest (-Werror)" \
  build_and_test build-check -- -DEA_WERROR=ON -DEA_SANITIZE=

# --- Release: -O3 is where GCC's flow-sensitive warnings and the SIMD ------
# crypto path differ from the plain leg's -O2. Every target (libraries,
# tests, benches, examples) builds with -Werror and the whole suite runs.
leg release "Release -O3 build + ctest (-Werror)" \
  build_and_test build-release -- \
  -DCMAKE_BUILD_TYPE=Release -DEA_WERROR=ON -DEA_SANITIZE=

# --- ASan + UBSan, full suite ----------------------------------------------
leg asan "ASan+UBSan build + ctest" \
  build_and_test build-asan -- -DEA_WERROR=ON -DEA_SANITIZE=address,undefined

# --- TSan, concurrency suite -----------------------------------------------
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
leg tsan "TSan build + ctest -L tsan" \
  build_and_test build-tsan -L tsan -- -DEA_WERROR=ON -DEA_SANITIZE=thread

# --- scheduler: the work-stealing suite under TSan *and* the lock-rank -----
# checker (its own tree: the plain tsan tree keeps EA_LOCK_RANK off).
# Covers the affinity invariant, FIFO-per-actor across migration, the
# skewed-home steal stress, and the zero-copy send_node path.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
leg sched "sched suite (ctest -L sched, TSan + lock-rank)" \
  build_and_test build-sched -L sched -- \
  -DEA_WERROR=ON -DEA_SANITIZE=thread -DEA_LOCK_RANK=ON

# --- fault injection: failpoints + lock-rank checker compiled in, ----------
# ASan+UBSan, the fault suite (failpoint unit tests, channel/net protocol
# faults, POS cleaner faults, and the fork-based crash-recovery torture).
# EA_LOCK_RANK=ON here means every ranked acquisition across the whole
# fault matrix is order-checked — a rank-table error surfaces as a
# contained LockRankError, not a hung test.
FAULT_FLAGS=(-DEA_WERROR=ON -DEA_SANITIZE=address,undefined
  -DEA_FAILPOINTS=ON -DEA_LOCK_RANK=ON)

leg fault "fault build + ctest -L fault (ASan+UBSan, lock-rank)" \
  build_and_test build-fault -L fault -- "${FAULT_FLAGS[@]}"

# --- supervision: the containment/restart/reconnect unit suite plus the
# fault-storm soaks (1% injected body throws + socket resets while the XMPP
# echo and secure-sum ring must keep delivering). Runs on the fault tree,
# so the soaks also run under ASan+UBSan with the rank checker live, then
# 20 times in a plain failpoints tree: at full speed the injected faults
# land on other interleavings than under the sanitizers.
run_supervise() {
  build_and_test build-fault -L supervise -- "${FAULT_FLAGS[@]}" || return 1
  build_and_test build-failpoints -L supervise --repeat until-fail:20 -- \
    -DEA_WERROR=ON -DEA_SANITIZE= -DEA_FAILPOINTS=ON
}
leg supervise "supervise suite + soak (ASan+UBSan, failpoints, lock-rank; then plain failpoints x20)" \
  run_supervise

# --- lock-rank deadlock regression: the two-thread inverted-order suite
# needs EA_LOCK_RANK=ON to exercise the checker (in plain builds it skips).
leg lockrank "lock-rank regression (ctest -L lockrank, checker on)" \
  build_and_test build-fault -L lockrank -- "${FAULT_FLAGS[@]}"

# --- live migration: sealed-state handoff, rollback + route quarantine, the
# duplicate-resume fork guard and the EPC accounting that follows a live
# move, plus the XMPP mid-traffic soak. Reuses the fault tree so every
# rollback path runs under ASan+UBSan with injection compiled in and
# park/rebind ordering rank-checked.
leg migrate "migrate suite (ctest -L migrate, ASan+UBSan, failpoints, lock-rank)" \
  build_and_test build-fault -L migrate -- "${FAULT_FLAGS[@]}"

# --- stress: timing-dependent protocol races (park barrier, home poll, ----
# restart rediscovery, steal/migrate interleavings, READER subscribe vs
# CLOSER, POS epoch reclamation under randomized interleavings, services
# packed onto shared workers) need many runs on real parallel hardware, not
# one. Reuses the sched and fault trees.
STRESS_LABELS='sched|migrate|supervise|net|pos|service|tsan|fault'
run_stress() {
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
    build_and_test build-sched -L "$STRESS_LABELS" --repeat until-fail:50 -- \
    -DEA_WERROR=ON -DEA_SANITIZE=thread -DEA_LOCK_RANK=ON || return 1
  build_and_test build-fault -L "$STRESS_LABELS" --repeat until-fail:50 -- \
    "${FAULT_FLAGS[@]}"
}
leg stress "stress (ctest -L '$STRESS_LABELS' --repeat until-fail:50, TSan sched tree + fault tree)" \
  run_stress

# --- zero-overhead-when-off: the plain tree must contain no failpoint
# machinery at all (uses the build-check tree from the plain leg).
check_no_failpoint_symbols() {
  local objs
  objs=$(find build-check -name 'libea_util.a' -o -name 'pos_test' |
    head -4)
  [[ -n "$objs" ]] || return 1
  # shellcheck disable=SC2086
  if nm -C $objs 2>/dev/null | grep -qi 'failpoint'; then
    echo "failpoint symbols leaked into the EA_FAILPOINTS=OFF build" >&2
    return 1
  fi
  echo "no failpoint symbols in plain build"
}
leg nofailpoint "no failpoint symbols in plain build" \
  check_no_failpoint_symbols

# --- bench smoke: each bench runs end-to-end and its JSON report parses ----
# with the expected v3 schema (uses the plain tree from the plain leg).
# v3 = v2 plus optional per-row p50_us/p99_us/p999_us percentile fields.
check_bench_json() {
  # check_bench_json <path> <bench-name> <expected-scenarios...>
  python3 - "$@" <<'EOF'
import json
import math
import sys

path, name, *expected = sys.argv[1:]
with open(path) as f:
    doc = json.load(f)
assert doc.get("bench") == name, doc.get("bench")
assert doc.get("schema_version") == 3, doc.get("schema_version")
assert isinstance(doc.get("git_sha"), str) and doc["git_sha"], doc.get("git_sha")
assert isinstance(doc.get("threads"), int) and doc["threads"] >= 1, doc
assert isinstance(doc.get("timestamp"), str) and "T" in doc["timestamp"], doc
results = doc["results"]
assert results, "empty results"
for r in results:
    assert isinstance(r["scenario"], str) and r["scenario"], r
    assert isinstance(r["mode"], str) and r["mode"], r
    assert isinstance(r["x"], (int, float)), r
    assert isinstance(r["value"], (int, float)) and r["value"] >= 0, r
    assert isinstance(r["unit"], str) and r["unit"], r
    for pct in ("p50_us", "p99_us", "p999_us"):
        if pct in r:
            assert isinstance(r[pct], (int, float)) and r[pct] >= 0, r
scenarios = {r["scenario"] for r in results}
assert set(expected) <= scenarios, scenarios
print(f"{path} ok: {len(results)} results")
EOF
}
run_bench_smoke() {
  EA_BENCH_SECONDS=0.02 EA_BENCH_SCALE=0.01 \
    EA_BENCH_JSON=build-check/BENCH_batching.json \
    ./build-check/bench/bench_batching >/dev/null || return 1
  check_bench_json build-check/BENCH_batching.json batching \
    mbox channel_enc transition pool || return 1
  EA_BENCH_SECONDS=0.02 EA_BENCH_SCALE=0.01 \
    EA_BENCH_JSON=build-check/BENCH_pos.json \
    ./build-check/bench/bench_pos >/dev/null || return 1
  check_bench_json build-check/BENCH_pos.json pos \
    set get mixed cleaner || return 1
  EA_BENCH_SECONDS=0.02 EA_BENCH_SCALE=0.01 \
    EA_BENCH_JSON=build-check/BENCH_sched.json \
    ./build-check/bench/bench_sched >/dev/null || return 1
  check_bench_json build-check/BENCH_sched.json sched \
    hot_skew zero_copy || return 1
  EA_BENCH_SECONDS=0.02 EA_BENCH_SCALE=0.01 \
    EA_BENCH_JSON=build-check/BENCH_migrate.json \
    ./build-check/bench/bench_migrate >/dev/null || return 1
  check_bench_json build-check/BENCH_migrate.json migrate \
    pause xmpp_echo || return 1
  EA_BENCH_SECONDS=0.02 EA_BENCH_SCALE=0.01 \
    ./build-check/bench/bench_ablation_colocated >/dev/null || return 1
  EA_BENCH_SECONDS=0.02 EA_BENCH_SCALE=0.01 \
    ./build-check/bench/bench_fig12_smc_plain >/dev/null || return 1
  EA_BENCH_SECONDS=0.02 EA_BENCH_SCALE=0.01 \
    ./build-check/bench/bench_fig13_smc_dynamic >/dev/null || return 1
  CARGO_TARGET_DIR=build-check python3 perfbench/run.py --self-test
}
leg bench "bench smoke (bench_batching + bench_pos + bench_sched + bench_migrate + JSON schema + bench_ablation_colocated rings + Fig. 12/13 sums + perfbench self-test)" \
  run_bench_smoke

# --- POS cleaner perf-regression guard: `--smoke` pins its own 0.25 s ------
# per-point window (EA_BENCH_SECONDS is ignored), so the fresh numbers are
# comparable to the committed BENCH_pos.json regardless of how the smoke
# leg above shrank its windows. Each mode's sweep must hold a 0.8x
# geometric mean against the committed rows — a cleaner-path regression
# fails the matrix even when every test still passes.
run_pos_perf_guard() {
  EA_BENCH_JSON=build-check/BENCH_pos_smoke.json \
    ./build-check/bench/bench_pos --smoke >/dev/null || return 1
  python3 - build-check/BENCH_pos_smoke.json BENCH_pos.json <<'EOF'
import json
import math
import sys

fresh_path, committed_path = sys.argv[1:3]
def cleaner_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {
        (r["mode"], r["x"]): r["value"]
        for r in doc["results"]
        if r["scenario"] == "cleaner"
    }

fresh = cleaner_rows(fresh_path)
committed = cleaner_rows(committed_path)
assert committed, f"no cleaner rows in {committed_path}"
missing = set(committed) - set(fresh)
assert not missing, f"smoke run missing cleaner rows: {sorted(missing)}"

# Single rows jitter +-30% on a loaded single-core host, but a real
# cleaner-path regression shifts a mode's whole thread sweep, so the gate
# is the per-mode geometric mean of fresh/committed ratios.
modes = sorted({mode for mode, _ in committed})
bad = []
for mode in modes:
    keys = [k for k in committed if k[0] == mode]
    log_sum = sum(math.log(fresh[k] / committed[k]) for k in keys)
    geomean = math.exp(log_sum / len(keys))
    line = f"  cleaner/{mode}: geomean {geomean:.2f}x over {len(keys)} rows"
    print(line)
    if geomean < 0.8:
        bad.append(line)
if bad:
    print("POS cleaner throughput regressed vs committed BENCH_pos.json:")
    print("\n".join(bad))
    sys.exit(1)
print(f"pos perf guard ok: {len(modes)} modes within 0.8x geomean")
EOF
}
if [[ -f BENCH_pos.json ]]; then
  leg posperf "POS cleaner perf guard (--smoke vs committed BENCH_pos.json)" \
    run_pos_perf_guard
else
  if want posperf; then
    note "SKIP posperf — no committed BENCH_pos.json baseline (run build-check/bench/bench_pos and commit the report to arm the guard)"
  fi
fi

# --- net perf-regression guard: bench_c100k --smoke pins its own 0.25 s ----
# window and sweeps {512, 2048} simulated clients on the READER's epoll
# plane (rows labelled `epoll`), raising RLIMIT_NOFILE itself. The fresh
# rows must hold a 0.8x throughput geomean AND stay under a 2.0x p99
# latency geomean against the committed BENCH_net.json's epoll rows — a
# net-plane regression fails the matrix even when every test still passes.
# Bounds are loose because the committed baseline came from a single-core
# host.
run_net_perf_guard() {
  EA_BENCH_JSON=build-check/BENCH_net_smoke.json \
    ./build-check/bench/bench_c100k --smoke >/dev/null || return 1
  check_bench_json build-check/BENCH_net_smoke.json c100k c100k || return 1
  python3 - build-check/BENCH_net_smoke.json BENCH_net.json <<'EOF'
import json
import math
import sys

fresh_path, committed_path = sys.argv[1:3]
def rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {
        (r["mode"], r["x"]): r
        for r in doc["results"]
        if r["scenario"] == "c100k"
    }

fresh = rows(fresh_path)
committed = rows(committed_path)
assert committed, f"no c100k rows in {committed_path}"
# The smoke sweep is a prefix of the committed full sweep; gate only on the
# epoll rows present in both (the committed scan rows record the per-socket
# recv sweep the READER's epoll set replaced).
keys = sorted(k for k in fresh if k in committed and k[0] == "epoll")
assert keys, f"no shared epoll rows between {fresh_path} and {committed_path}"

def geomean(ratios):
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

tput = geomean([fresh[k]["value"] / committed[k]["value"] for k in keys])
print(f"  c100k/epoll throughput: geomean {tput:.2f}x over {len(keys)} rows")
bad = []
if tput < 0.8:
    bad.append(f"epoll throughput geomean {tput:.2f}x < 0.8x")
p99_keys = [k for k in keys
            if "p99_us" in fresh[k] and "p99_us" in committed[k]]
if p99_keys:
    p99 = geomean([fresh[k]["p99_us"] / committed[k]["p99_us"]
                   for k in p99_keys])
    print(f"  c100k/epoll p99 latency: geomean {p99:.2f}x over "
          f"{len(p99_keys)} rows")
    if p99 > 2.0:
        bad.append(f"epoll p99 geomean {p99:.2f}x > 2.0x")
if bad:
    print("net plane regressed vs committed BENCH_net.json:")
    for line in bad:
        print("  " + line)
    sys.exit(1)
print(f"net perf guard ok: {len(keys)} epoll rows within bounds")
EOF
}
# bench_c100k raises its soft RLIMIT_NOFILE itself, but cannot exceed the
# hard cap; the 2048-client smoke point needs ~2 fds per simulated client
# plus headroom.
NOFILE_HARD=$(ulimit -Hn 2>/dev/null || echo 0)
if [[ ! -f BENCH_net.json ]]; then
  if want netperf; then
    note "SKIP netperf — no committed BENCH_net.json baseline (run build-check/bench/bench_c100k and commit the report to arm the guard)"
  fi
elif [[ "$NOFILE_HARD" != "unlimited" && "$NOFILE_HARD" -lt 8192 ]]; then
  if want netperf; then
    note "SKIP netperf — RLIMIT_NOFILE hard cap is $NOFILE_HARD (< 8192), too low for the c100k client sweep"
  fi
else
  leg netperf "net perf guard (bench_c100k --smoke vs BENCH_net.json)" \
    run_net_perf_guard
fi

# --- clang thread-safety analysis: the whole annotation sweep is only ------
# *checked* by clang; this leg compiles the tree with -Werror=thread-safety
# so any unguarded access to an EA_GUARDED_BY member, missing EA_REQUIRES,
# or unbalanced acquire/release fails the build. ctest is not run here —
# the leg's product is the warning-clean compile.
run_clang_tsa() {
  cmake -B build-clang-tsa -S . \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DEA_WERROR=ON -DEA_SANITIZE= -DEA_THREAD_SAFETY=ON || return 1
  cmake --build build-clang-tsa -j "$JOBS"
}
if command -v clang++ >/dev/null 2>&1; then
  leg tsa "clang -Werror=thread-safety build (EA_THREAD_SAFETY=ON)" \
    run_clang_tsa
else
  if want tsa; then
    note "clang++ not installed — thread-safety leg skipped (install clang to run the TSA sweep)"
  fi
fi

# --- clang-tidy (optional tooling; never silently skipped) -----------------
run_tidy() {
  # Reuse the plain tree's compile commands.
  cmake -B build-check -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
    find src -name '*.cpp' -print0 |
    xargs -0 -n 8 -P "$JOBS" clang-tidy -p build-check --quiet
}
if command -v clang-tidy >/dev/null 2>&1; then
  leg tidy "clang-tidy (src/)" run_tidy
else
  if want tidy; then
    note "clang-tidy not installed — leg skipped (install clang-tidy to run it)"
  fi
fi

# --- summary ---------------------------------------------------------------
if [[ -n "$LEG_FILTER" && $MATCHED -eq 0 ]]; then
  echo "error: no leg named '$LEG_FILTER'" >&2
  echo "legs: lint tcb plain release asan tsan sched fault supervise lockrank migrate stress nofailpoint bench posperf netperf tsa tidy" >&2
  exit 2
fi
note "matrix summary"
if [[ ${#FAILED[@]} -gt 0 ]]; then
  printf '\033[1;31m%d leg(s) failed:\033[0m\n' "${#FAILED[@]}"
  printf '  - %s\n' "${FAILED[@]}"
  exit 1
fi
echo "all legs passed"
