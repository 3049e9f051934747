#!/usr/bin/env bash
# Tier-1 verification, exactly as CI runs it (see .github/workflows/ci.yml):
#   scripts/check.sh              plain build + ctest (the tier-1 gate)
#   scripts/check.sh --sanitize   ASan/UBSan build + ctest
#   scripts/check.sh --tsan       ThreadSanitizer build + the thread-
#                                 bearing tests (src/runtime event loop
#                                 and UDP transport, and a replica's
#                                 state transfer over LocalCluster
#                                 threads); suppressions live in
#                                 tsan.supp (audited, currently empty)
#   scripts/check.sh --coverage   gcov line-coverage build + ctest +
#                                 tools/coverage/report.py gate (soft
#                                 floor on src/paxos+ringpaxos+multiring)
#   scripts/check.sh --mc         model-checker gate (docs/MODEL_CHECKING.md):
#                                 mrp_mc self-check + exhaustive ring1
#                                 run with the DPOR-vs-naive comparison
#   scripts/check.sh --werror     warnings-as-errors build (no tests)
#   scripts/check.sh --lint       mrp_lint + clang-tidy + cppcheck
#                                 (docs/STATIC_ANALYSIS.md; tools that are
#                                 not installed are skipped with a notice —
#                                 CI always has them)
#   scripts/check.sh --format     clang-format check, only on files this
#                                 branch touches relative to origin/main
#   scripts/check.sh --fuzz       chaos-fuzz sweep (docs/CHECKING.md):
#                                 FUZZ_SEEDS seeds (default 25) under the
#                                 majority budget + the replay self-check
#   scripts/check.sh --perf       perf smoke (docs/PERF.md): quick run of
#                                 bench/perf_suite compared against the
#                                 committed BENCH_core.json baseline
#                                 (PERF_THRESHOLD, default 0.35)
#   scripts/check.sh --figures    Release build of the 13 figure and
#                                 ablation benches, each run in full mode
#                                 and byte-compared with results/<name>.txt
#                                 (EXPERIMENTS.md); names every file that
#                                 differs. Not a CI gate: float output
#                                 across compilers/libm is unverified
# Each mode uses its own build directory so they never poison each other.
set -euo pipefail

cd "$(dirname "$0")/.."

mode=plain
case "${1:-}" in
  --sanitize) mode=sanitize ;;
  --tsan) mode=tsan ;;
  --coverage) mode=coverage ;;
  --mc) mode=mc ;;
  --werror) mode=werror ;;
  --lint) mode=lint ;;
  --format) mode=format ;;
  --fuzz) mode=fuzz ;;
  --perf) mode=perf ;;
  --figures) mode=figures ;;
  "") ;;
  *)
    echo "usage: $0 [--sanitize|--tsan|--coverage|--mc|--werror|--lint|--format|--fuzz|--perf|--figures]" >&2
    exit 2
    ;;
esac

jobs="$(nproc 2>/dev/null || echo 4)"

case "$mode" in
  plain)
    cmake -B build -S .
    cmake --build build -j "$jobs"
    ctest --test-dir build --output-on-failure -j "$jobs"
    ;;
  sanitize)
    cmake -B build-asan -S . -DMRP_SANITIZE=ON
    cmake --build build-asan -j "$jobs"
    ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --test-dir build-asan --output-on-failure -j "$jobs"
    ;;
  tsan)
    cmake -B build-tsan -S . -DMRP_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" \
      --target runtime_test plumbing_test catchup_test
    # Only the thread-bearing binaries and cases: the sim suite is
    # single-threaded by construction, so running it under TSan would
    # cost 10x for no signal. The catch-up case drives a replica's
    # recovery layer on LocalCluster threads over UDP. halt_on_error so
    # the first race fails the gate.
    TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
      ./build-tsan/tests/runtime_test
    TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
      ./build-tsan/tests/plumbing_test
    TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
      ./build-tsan/tests/catchup_test --gtest_filter='CatchUp.BootstrapOverUdp*'
    ;;
  coverage)
    cmake -B build-cov -S . -DMRP_COVERAGE=ON
    cmake --build build-cov -j "$jobs"
    ctest --test-dir build-cov --output-on-failure -j "$jobs" \
      -E 'mc_ring1_exhaustive|mc_self_check'  # minutes-long; no extra coverage
    python3 tools/coverage/report.py --build-dir build-cov \
      --out build-cov/coverage.txt
    ;;
  mc)
    cmake -B build -S .
    cmake --build build -j "$jobs" --target mrp_mc
    ./build/tools/mc/mrp_mc --self-check
    ./build/tools/mc/mrp_mc --config ring1 --compare
    ;;
  werror)
    cmake -B build-werror -S . -DMRP_WERROR=ON
    cmake --build build-werror -j "$jobs"
    ;;
  lint)
    # 1. Project-specific determinism/protocol-safety lint (always runs;
    #    only needs python3). Self-test first so a broken linter cannot
    #    silently pass the tree.
    python3 tools/lint/lint_selftest.py
    python3 tools/lint/mrp_lint --root .

    # 2. clang-tidy over the full compilation database.
    if command -v clang-tidy >/dev/null 2>&1; then
      cmake -B build-lint -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
      mapfile -t tidy_sources < <(
        git ls-files 'src/*.cc' 'bench/*.cc' 'tests/*.cc' 'tools/*.cc')
      if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p build-lint -quiet "${tidy_sources[@]}"
      else
        clang-tidy -p build-lint --quiet "${tidy_sources[@]}"
      fi
    else
      echo "check.sh: clang-tidy not installed; skipping (CI enforces it)"
    fi

    # 3. cppcheck, inline suppressions only (`// cppcheck-suppress <id>`
    #    with a neighbouring why-comment).
    if command -v cppcheck >/dev/null 2>&1; then
      cppcheck --std=c++20 --language=c++ --enable=warning,performance,portability \
        --inline-suppr --suppressions-list=.cppcheck-suppressions \
        --error-exitcode=1 --quiet -I src src bench tests tools/fuzz
    else
      echo "check.sh: cppcheck not installed; skipping (CI enforces it)"
    fi
    ;;
  format)
    if ! command -v clang-format >/dev/null 2>&1; then
      echo "check.sh: clang-format not installed; skipping (CI enforces it)"
      exit 0
    fi
    # Only files this branch touches: formatting the whole tree at once
    # would bury real diffs in churn. The base ref can be missing or
    # unrelated after a force-push / rebase / shallow fetch, so fall
    # back: configured base -> its merge-base with HEAD -> HEAD~1 ->
    # empty tree (full check).
    base="${CHECK_FORMAT_BASE:-origin/main}"
    if ! git rev-parse --verify -q "$base^{commit}" >/dev/null; then
      base=HEAD~1
    fi
    if merge_base="$(git merge-base "$base" HEAD 2>/dev/null)"; then
      base="$merge_base"
    elif git rev-parse --verify -q HEAD~1 >/dev/null; then
      echo "check.sh: no merge-base with $base (force-push/shallow clone?); using HEAD~1"
      base="$(git rev-parse HEAD~1)"
    else
      echo "check.sh: single-commit history; checking all tracked C++ files"
      base="$(git hash-object -t tree /dev/null)"
    fi
    mapfile -t changed < <(
      git diff --name-only --diff-filter=ACMR "$base" HEAD -- \
        '*.cc' '*.cpp' '*.cxx' '*.h' '*.hpp' | grep -v '^tools/lint/testdata/' || true)
    if [ "${#changed[@]}" -eq 0 ]; then
      echo "check.sh: no C++ files changed vs $base"
    else
      clang-format --dry-run -Werror "${changed[@]}"
    fi
    ;;
  fuzz)
    cmake -B build -S .
    cmake --build build -j "$jobs" --target mrp_fuzz
    artifacts="${FUZZ_ARTIFACT_DIR:-build/fuzz-artifacts}"
    mkdir -p "$artifacts"
    ./build/tools/fuzz/mrp_fuzz --self-check --artifact-dir "$artifacts"
    ./build/tools/fuzz/mrp_fuzz --seeds "${FUZZ_SEEDS:-25}" \
      --start-seed "${FUZZ_START_SEED:-0}" --artifact-dir "$artifacts"
    ;;
  perf)
    cmake -B build -S .
    cmake --build build -j "$jobs" --target perf_suite
    python3 tools/perf/compare.py --self-test
    ./build/bench/perf_suite --quick --out build/BENCH_core.candidate.json
    # Quick mode is noisy; the local gate mirrors CI's lenient threshold.
    python3 tools/perf/compare.py --baseline BENCH_core.json \
      --candidate build/BENCH_core.candidate.json \
      --threshold "${PERF_THRESHOLD:-0.35}"
    ;;
  figures)
    figures=(fig01_ring_paxos fig02_partitioned_single_ring fig05_scalability
             fig06_subscribe_all fig07_delta fig08_m fig09_lambda_equal
             fig10_lambda_skewed fig11_lambda_oscillating
             fig12_coordinator_failure ablation_design_choices geo_latency
             ext_scalability)
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-release -j "$jobs" --target "${figures[@]}"
    out=build-release/figures
    mkdir -p "$out"
    differ=()
    for f in "${figures[@]}"; do
      # Full mode: the committed results are full-mode runs.
      env -u MRP_BENCH_QUICK -u MRP_TRACE -u MRP_METRICS \
        "./build-release/bench/$f" > "$out/$f.txt"
      if cmp -s "$out/$f.txt" "results/$f.txt"; then
        echo "check.sh: $f matches results/$f.txt"
      else
        echo "check.sh: $f DIFFERS from results/$f.txt ($out/$f.txt)"
        differ+=("results/$f.txt")
      fi
    done
    if [ "${#differ[@]}" -ne 0 ]; then
      echo "check.sh: figures differ: ${differ[*]}" >&2
      exit 1
    fi
    ;;
esac

echo "check.sh: $mode OK"
