#!/usr/bin/env bash
# Repo check: lint, tier-1 test suite, and the fast perf smoke subset.
#
#   scripts/check.sh            # lint + tier-1 + perf smoke
#   scripts/check.sh --fast     # tier-1 only
#   scripts/check.sh --docs     # docs health only: links, CLI-flag
#                               # coverage, repro.serve docstring audit
#   scripts/check.sh --lint     # lint only (ruff, or the stdlib fallback)
#   scripts/check.sh --perf     # perf smoke subset only
#   scripts/check.sh --chaos    # chaos smoke only: fault-injection suite
#                               # (worker kill/hang/drop, admission control)
#   scripts/check.sh --fuzz     # fuzz smoke only: seeded dirty-input
#                               # sweep through the recovering frontend
#                               # (REPRO_FUZZ_N mutants/corpus, ~30 s)
#   scripts/check.sh --ddp      # DDP determinism only: the data-parallel
#                               # trainer's bit-identity/parity suite
#                               # (1-vs-N losses + arena bytes, worker
#                               # death, resume, /dev/shm hygiene)
#   scripts/check.sh --shm-weights  # one-copy weights only: blob
#                               # round-trip/validation + fleet segment
#                               # swap, drain, and /dev/shm cleanup
#
# Tier-1 is the gate every change must keep green (`pytest -x -q` from the
# repo root; bench_* files are never collected there).  The smoke subset
# runs the `-m perf`-marked benches that also carry the `smoke` marker —
# seconds, not minutes — to catch hot-path regressions (e.g. the fused and
# legacy training paths drifting apart) without paying for the full
# BENCH_* report sweep.  The --docs step is the documentation pass alone
# (also part of tier-1), for doc-only edits.  Lint runs `ruff check .`
# (config in pyproject.toml) when ruff is installed, otherwise the stdlib
# fallback linter scripts/lint_fallback.py.
#
# The CI workflow (.github/workflows/ci.yml) runs these same modes, one
# job per stage, plus `python scripts/bench_gate.py` over the committed
# bench reports; tests/test_check_script.py pins the invocations so the
# two cannot drift apart.
#
# Every stage reports an explicit pass/fail banner and the script exits
# non-zero on the first failing stage — stage failures are detected and
# named by run_stage itself, not left to `set -e` subshell semantics.

set -uo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$(pwd)/src${PYTHONPATH:+:$PYTHONPATH}"

PASSED_STAGES=()

run_stage() {
    local name="$1"; shift
    echo "== ${name} =="
    "$@"
    local status=$?
    if [[ $status -ne 0 ]]; then
        echo "check.sh: stage '${name}' FAILED (exit ${status})" >&2
        exit "$status"
    fi
    PASSED_STAGES+=("$name")
    echo "check.sh: stage '${name}' passed"
}

stage_lint() {
    if command -v ruff >/dev/null 2>&1; then
        ruff check .
    else
        echo "ruff not installed; running stdlib fallback linter"
        python scripts/lint_fallback.py
    fi
}

stage_tier1() {
    python -m pytest -x -q
}

stage_docs() {
    python -m pytest -x -q tests/test_docs_links.py
}

stage_perf_smoke() {
    # bench_*.py files are outside the default collection pattern on
    # purpose (tier-1 must never pick them up), so name them explicitly
    (cd benchmarks && python -m pytest -q -m "perf and smoke" -p no:cacheprovider bench_*.py)
}

stage_chaos_smoke() {
    # the deterministic fault-injection suite: worker kill/hang/drop/
    # malformed faults, crash-loop degrade, admission control.  Part of
    # tier-1 too; this mode isolates it so serving changes get a fast,
    # targeted signal before the full suite.
    python -m pytest -x -q tests/test_serve_faults.py
}

stage_fuzz_smoke() {
    # seeded, deterministic dirty-input sweep: every mutant must come
    # back with diagnostics inside the budget, never an exception.  The
    # recovery suite is part of tier-1 at a small REPRO_FUZZ_N; this
    # mode rescales the same property tests to a deeper sweep.
    REPRO_FUZZ_N="${REPRO_FUZZ_N:-1200}" \
        python -m pytest -x -q tests/test_clang_recovery.py
}

stage_ddp() {
    # the data-parallel determinism layer: N-worker training must be
    # bit-identical to single-process (loss trajectory, arena bytes,
    # optimizer moments), with clean worker-death semantics and no
    # leaked shared-memory segments.  Part of tier-1 too; this mode
    # isolates it so training changes get a fast, targeted signal.
    python -m pytest -x -q tests/test_train_ddp.py
}

stage_shm_weights() {
    # the one-copy weight plane: blob round-trip + digest validation,
    # legacy-checkpoint fallback, fleet segment swap on reload/canary,
    # replay-at-spawn, and close() unlinking segments dead workers held.
    # Part of tier-1 too; this mode isolates it so persistence/serving
    # changes get a fast, targeted signal.
    python -m pytest -x -q tests/test_persistence_blob.py \
        tests/test_weight_sharing.py
}

case "${1:-}" in
    --docs)
        run_stage "docs" stage_docs
        ;;
    --lint)
        run_stage "lint" stage_lint
        ;;
    --perf)
        run_stage "perf-smoke" stage_perf_smoke
        ;;
    --fast)
        run_stage "tier-1" stage_tier1
        ;;
    --chaos)
        run_stage "chaos-smoke" stage_chaos_smoke
        ;;
    --fuzz)
        run_stage "fuzz-smoke" stage_fuzz_smoke
        ;;
    --ddp)
        run_stage "ddp-determinism" stage_ddp
        ;;
    --shm-weights)
        run_stage "shm-weights" stage_shm_weights
        ;;
    "")
        run_stage "lint" stage_lint
        run_stage "tier-1" stage_tier1
        run_stage "perf-smoke" stage_perf_smoke
        ;;
    *)
        echo "check.sh: unknown mode '${1}' (use --fast, --docs, --lint, --perf, --chaos, --fuzz, --ddp, --shm-weights, or no argument)" >&2
        exit 2
        ;;
esac

echo "check.sh: all green (${PASSED_STAGES[*]})"
