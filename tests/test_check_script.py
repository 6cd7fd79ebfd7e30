"""``scripts/check.sh`` behaves as documented, and CI mirrors it.

The CI workflow runs ``check.sh`` modes as its jobs, so this suite is the
drift guard between the three places a check can be defined: the script,
the workflow, and the docs.  The script is exercised for real — a stub
``python`` is injected via PATH that records its arguments and exits with
a scripted status — so the assertions cover the *actual* invocations each
mode selects, the explicit per-stage pass/fail banners, and the non-zero
exit on a failing stage (the old ``set -e`` subshell ambiguity this
replaced).
"""

import os
import stat
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECK_SH = REPO_ROOT / "scripts" / "check.sh"


@pytest.fixture()
def shim(tmp_path):
    """A PATH shim for ``python`` (and ``ruff``-free PATH) that logs every
    invocation to ``calls.log`` and exits with ``EXIT_STATUS`` (default
    0).  Returns (env, log_path)."""
    log = tmp_path / "calls.log"
    shim_dir = tmp_path / "bin"
    shim_dir.mkdir()
    stub = shim_dir / "python"
    stub.write_text(
        "#!/bin/sh\n"
        f'echo "python $@" >> "{log}"\n'
        'exit "${EXIT_STATUS:-0}"\n')
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    env = dict(os.environ)
    # shim first so check.sh's `python` resolves to the stub; drop any
    # real ruff from PATH so the lint stage deterministically takes the
    # fallback (python) branch
    env["PATH"] = f"{shim_dir}:{env['PATH']}"
    env.pop("EXIT_STATUS", None)
    return env, log


def _run(env, *args):
    return subprocess.run(["bash", str(CHECK_SH), *args],
                          env=env, capture_output=True, text=True,
                          timeout=60)


def _calls(log):
    return log.read_text().splitlines() if log.exists() else []


class TestModeInvocations:
    def test_fast_runs_tier1_only(self, shim):
        env, log = shim
        result = _run(env, "--fast")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q"]
        assert "check.sh: stage 'tier-1' passed" in result.stdout
        assert "all green" in result.stdout

    def test_docs_runs_docs_suite_only(self, shim):
        env, log = shim
        result = _run(env, "--docs")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q tests/test_docs_links.py"]
        assert "check.sh: stage 'docs' passed" in result.stdout

    def test_default_runs_lint_tier1_then_perf_smoke(self, shim):
        env, log = shim
        result = _run(env)
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        # ruff is absent in the shimmed PATH, so lint falls back to the
        # stdlib linter; then tier-1; then the named perf-smoke benches
        assert calls[0] == "python scripts/lint_fallback.py"
        assert calls[1] == "python -m pytest -x -q"
        assert calls[2].startswith("python -m pytest -q -m perf and smoke")
        assert "-p no:cacheprovider" in calls[2]
        assert "bench_" in calls[2]
        for stage in ("lint", "tier-1", "perf-smoke"):
            assert f"check.sh: stage '{stage}' passed" in result.stdout
        assert "all green (lint tier-1 perf-smoke)" in result.stdout

    def test_perf_mode_runs_smoke_subset_only(self, shim):
        env, log = shim
        result = _run(env, "--perf")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert len(calls) == 1 and "perf and smoke" in calls[0]

    def test_chaos_runs_fault_suite_only(self, shim):
        env, log = shim
        result = _run(env, "--chaos")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q tests/test_serve_faults.py"]
        assert "check.sh: stage 'chaos-smoke' passed" in result.stdout

    def test_fuzz_runs_recovery_suite_scaled_up(self, shim):
        env, log = shim
        result = _run(env, "--fuzz")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == [
            "python -m pytest -x -q tests/test_clang_recovery.py"]
        assert "check.sh: stage 'fuzz-smoke' passed" in result.stdout

    def test_ddp_runs_determinism_suite_only(self, shim):
        env, log = shim
        result = _run(env, "--ddp")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q tests/test_train_ddp.py"]
        assert "check.sh: stage 'ddp-determinism' passed" in result.stdout

    def test_shm_weights_runs_one_copy_suite_only(self, shim):
        env, log = shim
        result = _run(env, "--shm-weights")
        assert result.returncode == 0, result.stderr
        calls = _calls(log)
        assert calls == ["python -m pytest -x -q "
                         "tests/test_persistence_blob.py "
                         "tests/test_weight_sharing.py"]
        assert "check.sh: stage 'shm-weights' passed" in result.stdout

    def test_unknown_mode_rejected(self, shim):
        env, _ = shim
        result = _run(env, "--bogus")
        assert result.returncode == 2
        assert "unknown mode" in result.stderr


class TestFailurePropagation:
    def test_failing_stage_exits_nonzero_with_named_banner(self, shim):
        """The regression this replaced: a failing stage must surface as a
        non-zero exit *and* name the stage, not vanish into `set -e`
        subshell semantics."""
        env, log = shim
        env["EXIT_STATUS"] = "3"
        result = _run(env, "--fast")
        assert result.returncode == 3
        assert "stage 'tier-1' FAILED (exit 3)" in result.stderr
        assert "all green" not in result.stdout

    def test_default_mode_stops_at_first_failing_stage(self, shim):
        env, log = shim
        env["EXIT_STATUS"] = "1"
        result = _run(env)
        assert result.returncode == 1
        # lint (the first stage) failed; tier-1 must not have run
        assert _calls(log) == ["python scripts/lint_fallback.py"]
        assert "stage 'lint' FAILED" in result.stderr

    def test_perf_smoke_subshell_failure_propagates(self, shim):
        """The perf-smoke stage runs in a `(cd benchmarks && ...)`
        subshell; its exit code must still fail the script."""
        env, log = shim
        env["EXIT_STATUS"] = "2"
        result = _run(env, "--perf")
        assert result.returncode == 2
        assert "stage 'perf-smoke' FAILED (exit 2)" in result.stderr


class TestCiWorkflowMirrorsCheckScript:
    """The workflow must delegate to check.sh modes (single source of
    truth) and cover every stage plus the bench gate."""

    @pytest.fixture(scope="class")
    def workflow(self):
        return (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()

    def test_workflow_exists_and_names_all_jobs(self, workflow):
        for job in ("tier1:", "perf-smoke:", "docs:", "lint:",
                    "chaos-smoke:", "fuzz-smoke:",
                    "ddp-smoke:", "shm-weights:", "bench-gate:"):
            assert job in workflow, f"ci.yml missing job {job}"

    def test_workflow_invokes_check_sh_modes(self, workflow):
        for mode in ("scripts/check.sh --fast", "scripts/check.sh --perf",
                     "scripts/check.sh --docs", "scripts/check.sh --lint",
                     "scripts/check.sh --chaos",
                     "scripts/check.sh --fuzz", "scripts/check.sh --ddp",
                     "scripts/check.sh --shm-weights"):
            assert mode in workflow, f"ci.yml does not run {mode}"

    def test_workflow_runs_bench_gate(self, workflow):
        assert "python scripts/bench_gate.py" in workflow

    def test_workflow_sets_pythonpath_once(self, workflow):
        assert "PYTHONPATH: src" in workflow

    def test_workflow_caches_pip(self, workflow):
        assert "cache: pip" in workflow
        assert "requirements-ci.txt" in workflow

    def test_check_sh_documents_every_mode(self):
        """check.sh's own usage header must list the modes CI invokes."""
        script = CHECK_SH.read_text()
        for mode in ("--fast", "--docs", "--lint", "--perf", "--chaos",
                     "--fuzz", "--ddp", "--shm-weights"):
            assert mode in script
        assert "ruff check" in script
        assert "lint_fallback.py" in script
