#!/usr/bin/env bash
# Configures a sanitizer-instrumented build tree and runs the test suite
# under it, tier by tier, with a per-tier pass/fail summary.  Defaults to
# ASan+UBSan; override with e.g.
#   SAN=thread BUILD_DIR=build-tsan tools/run_sanitized_tests.sh
#
# Flags:
#   --quick   1-core CI mode: serial build/ctest (no parallel spike on a
#             small runner) and only the suites that exercise concurrency
#             or the slab engine plus one end-to-end integration pass.
#
# Every tier runs even after an earlier one fails — the summary table shows
# the whole picture — and the script exits with the first failing tier's
# ctest exit code.
set -uo pipefail

SAN="${SAN:-address,undefined}"
BUILD_DIR="${BUILD_DIR:-build-sanitize}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc)"
if [ "$QUICK" = "1" ]; then
  JOBS=1
fi

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCOOLSTREAM_SANITIZE="$SAN" || exit $?
cmake --build "$BUILD_DIR" -j "$JOBS" || exit $?

# halt_on_error so CI fails loudly; detect_leaks catches event-record and
# callback ownership mistakes in the slab engine.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
# TSan: the suppressions file documents known-benign reports (empty today;
# entries must cite the reason they are benign).
if [[ ",$SAN," == *",thread,"* ]]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 suppressions=$SRC_DIR/tools/tsan.supp}"
fi

# Tiers: "<name>:<ctest -R regex>".  Each tier is one ctest invocation, so
# a sanitizer report pinpoints the tier that produced it.
if [ "$QUICK" = "1" ]; then
  # The suites where instrumentation has signal: the threaded components
  # (incl. the shard-worker handoff stress tier), the slab/event engine,
  # the protocol core, and one end-to-end pass.
  TIERS=(
    "sim-engine:^(sim_tests|sim_stress_tests|sim_allocation_tests)$"
    "protocol-core:^core_tests$"
    "integration:^integration_tests$"
    # The 8-shard flash-crowd stress run is where TSan sees the sharded
    # tick's parallel phases race for real — always in the quick set.
    "sharded-stress:^sharded_stress_tests$"
  )
else
  TIERS=(
    "unit:^(sim_tests|net_tests|logging_tests|model_tests|baseline_tests)$"
    "protocol-core:^(core_tests|workload_tests|analysis_tests)$"
    "stress:^(sim_stress_tests|sim_allocation_tests|core_allocation_tests)$"
    "integration:^(integration_tests|protocol_properties|golden_tests)$"
    "sharded:^(sharded_tests|sharded_stress_tests|golden_tests_4shard)$"
    "static-and-lint:^(lint_.*|compile_.*)$"
  )
fi

declare -a TIER_NAMES TIER_STATUS TIER_CODES
FIRST_FAIL_CODE=0

for tier in "${TIERS[@]}"; do
  name="${tier%%:*}"
  regex="${tier#*:}"
  echo
  echo "==== tier: $name (-R '$regex') ===="
  if ctest --test-dir "$BUILD_DIR" --output-on-failure --no-tests=error \
       -j "$JOBS" -R "$regex"; then
    code=0
  else
    code=$?
  fi
  TIER_NAMES+=("$name")
  TIER_CODES+=("$code")
  if [ "$code" -eq 0 ]; then
    TIER_STATUS+=("PASS")
  else
    TIER_STATUS+=("FAIL")
    if [ "$FIRST_FAIL_CODE" -eq 0 ]; then
      FIRST_FAIL_CODE=$code
    fi
  fi
done

echo
echo "==== sanitizer run summary (SAN=$SAN) ===="
printf '%-18s %-6s %s\n' "tier" "result" "exit"
printf '%-18s %-6s %s\n' "----" "------" "----"
for i in "${!TIER_NAMES[@]}"; do
  printf '%-18s %-6s %s\n' "${TIER_NAMES[$i]}" "${TIER_STATUS[$i]}" "${TIER_CODES[$i]}"
done

exit "$FIRST_FAIL_CODE"
