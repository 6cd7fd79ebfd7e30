#!/usr/bin/env python
"""Bench-regression gate: fail CI when a committed BENCH report regresses.

The committed ``benchmarks/BENCH_serving.json`` / ``BENCH_training.json``
reports are the repo's perf trajectory.  This gate enforces the subset of
their metrics that is *stable across machines*: dimensionless ratios
(speedup-vs-sequential, clause-request reduction, optimizer speedup) and
hard invariant counters (zero failed requests / stale cache hits / verdict
mismatches under reload and canary rollouts).  Raw wall-times and
snippets-per-second are **never** gated — the bench host is a single noisy
core, so absolute throughput swings run to run while the ratios and
invariants hold; wall-times are printed report-only for trend reading.

A gate whose metric is *missing* fails too: silently dropping a bench
section must not green the pipeline.

Usage::

    python scripts/bench_gate.py                 # gate the committed reports
    python scripts/bench_gate.py --serving F.json --training G.json
    python scripts/bench_gate.py --list          # show the gate table

Exit status 0 when every gate passes, 1 otherwise — wired into
``.github/workflows/ci.yml`` as the ``bench-gate`` job and covered by
``tests/test_bench_gate.py`` (which also proves a doctored regression
fails).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: report key -> default path of the committed report
DEFAULT_REPORTS = {
    "serving": REPO_ROOT / "benchmarks" / "BENCH_serving.json",
    "training": REPO_ROOT / "benchmarks" / "BENCH_training.json",
}

_OPS = {
    ">=": lambda value, threshold: value >= threshold,
    "<=": lambda value, threshold: value <= threshold,
    "==": lambda value, threshold: value == threshold,
}


@dataclass(frozen=True)
class Gate:
    """One gated metric: a dotted path into a report, an op, a threshold."""

    report: str          # "serving" | "training"
    path: str            # dotted path, e.g. "engine_trace.speedup_vs_sequential"
    op: str              # ">=", "<=", "=="
    threshold: float

    def describe(self) -> str:
        """Human-readable one-liner for the gate table."""
        return f"{self.report}:{self.path} {self.op} {self.threshold}"


#: The gate table.  Thresholds are deliberately looser than the committed
#: values — they catch regressions of *kind* (a ratio collapsing, an
#: invariant breaking), not single-digit-percent noise.
GATES: List[Gate] = [
    # serving: the engine must stay clearly ahead of the sequential path
    # on the Zipf trace, and not pathologically behind on all-distinct
    Gate("serving", "engine_trace.speedup_vs_sequential", ">=", 2.0),
    Gate("serving", "all_distinct_cold.speedup_vs_sequential", ">=", 0.3),
    # clause gating: compute actually saved, verdicts never drift
    Gate("serving", "clause_gating.clause_request_reduction", ">=", 0.25),
    Gate("serving", "clause_gating.verdict_mismatches", "==", 0),
    # hot reload under load: the operability invariants
    Gate("serving", "reload_under_load.failed_requests", "==", 0),
    Gate("serving", "reload_under_load.stale_predictions_after_swap", "==", 0),
    # the reload trace is cache-heavy by design; hits vanishing means the
    # version-prefixed key scheme broke
    Gate("serving", "reload_under_load.cache_hits", ">=", 1),
    # canary rollout under load: zero dropped requests, zero canary-arm
    # errors, the canary slice actually served, and post-promote verdicts
    # provably from the promoted weights
    Gate("serving", "canary_rollout.failed_requests", "==", 0),
    Gate("serving", "canary_rollout.canary_arm_errors", "==", 0),
    Gate("serving", "canary_rollout.canary_requests", ">=", 1),
    Gate("serving", "canary_rollout.stale_after_promote", "==", 0),
    # fault injection: a killed shard loses nothing — every request
    # answered (fraction 1.0), the supervisor respawned the slot, no
    # degraded stubs while healthy shards remain, and the worst faulted
    # round stays bounded relative to the request deadline (the "no
    # silent hang" invariant, as a dimensionless ratio)
    Gate("serving", "fault_injection.lost_requests", "==", 0),
    Gate("serving", "fault_injection.answered_fraction", ">=", 1.0),
    Gate("serving", "fault_injection.restarts", ">=", 1),
    Gate("serving", "fault_injection.degraded_answers", "==", 0),
    Gate("serving", "fault_injection.p99_vs_deadline", "<=", 3.0),
    # admission under overload: every request answered definitively and
    # the overload actually shed (429) rather than queueing into a hang
    Gate("serving", "fault_injection.admission.unanswered", "==", 0),
    Gate("serving", "fault_injection.admission.shed_429", ">=", 1),
    # ipc over the worker queues (pinned fleets, so every point pays real
    # IPC): the sharding *tax* must stay bounded — pinned 2-shard
    # throughput within 20% of pinned 1-shard — with the measured
    # crossover point at most 2 shards
    Gate("serving", "ipc.queue_2shard_scaling", ">=", 0.8),
    Gate("serving", "ipc.crossover_shards", "<=", 2),
    # dirty trace: hostile input never crashes or stalls the serving
    # path — zero exceptions escape the engine, every snippet answered,
    # >= 90% of the mixed clean/dirty trace gets a real model verdict
    # (error-recovered lexing counts as real; only byte-cap/budget
    # rejections degrade), and the recovery machinery visibly engaged
    Gate("serving", "dirty_trace.engine_exceptions", "==", 0),
    Gate("serving", "dirty_trace.unanswered", "==", 0),
    Gate("serving", "dirty_trace.advice_yield", ">=", 0.9),
    Gate("serving", "dirty_trace.recovered_snippets", ">=", 1),
    Gate("serving", "dirty_trace.rejected_oversize", ">=", 1),
    # one-copy weights: page accounting, not wall-clock, so it gates.
    # Fleet-wide Pss of the weight segment at 8 shards must stay well
    # under 8x the 1-shard cost (a private-copy fleet sits at 1.0), each
    # resident page must actually be shared by several processes, and the
    # swap invariants hold — shared and private fleets agree verdict-for-
    # verdict after a reload, nothing stale survives a reload or a canary
    # promote, and faulted workers leak no /dev/shm segments past close()
    Gate("serving", "weight_sharing.sublinearity_ratio_8", "<=", 0.5),
    Gate("serving", "weight_sharing.sharing_factor_8", ">=", 4.0),
    Gate("serving", "weight_sharing.reload_parity_mismatches", "==", 0),
    Gate("serving", "weight_sharing.stale_hits_after_swap", "==", 0),
    Gate("serving", "weight_sharing.canary_flip.stale_after_promote",
         "==", 0),
    Gate("serving", "weight_sharing.leaked_segments_after_faults", "==", 0),
    # training: the fused path's speedups are the PR 3 contract
    Gate("training", "pretrain.speedup_steps_per_s", ">=", 2.0),
    Gate("training", "optimizer_microbench.speedup", ">=", 1.2),
    Gate("training", "finetune.small.speedup_steps_per_s", ">=", 0.9),
    # data-parallel training (PR 9): N-worker runs must be bit-identical
    # to single-process (zero parity mismatches across losses, arena
    # bytes, optimizer moments), the all-reduce must stay a single
    # vectorized sum per step, and the per-rank work split must halve at
    # 2 workers.  Wall-clock steps/s never gate — the bench host is one
    # core, so scaling is asserted on the algorithmic counters (total
    # examples / max per-rank examples), which are machine-independent.
    Gate("training", "ddp.parity_mismatches", "==", 0),
    Gate("training", "ddp.reduce_ops_per_step", "==", 1),
    Gate("training", "ddp.workers_2.counter_speedup", ">=", 1.5),
]

#: Report-only wall-time/throughput metrics, printed for trend reading.
REPORT_ONLY: List[Tuple[str, str]] = [
    ("serving", "engine_trace.snippets_per_s"),
    ("serving", "sequential_trace.snippets_per_s"),
    ("serving", "reload_under_load.reload_s"),
    ("serving", "canary_rollout.promote_s"),
    ("serving", "fault_injection.recovery_s"),
    ("serving", "fault_injection.round_latency.p99_ms"),
    ("serving", "ipc.queue.2.snippets_per_s"),
    ("serving", "dirty_trace.snippets_per_s"),
    ("serving", "weight_sharing.reload_s"),
    ("serving", "weight_sharing.fleet.1.cold_start_s"),
    ("serving", "weight_sharing.fleet.8.cold_start_s"),
    ("serving", "weight_sharing.canary_flip.promote_s"),
    ("training", "pretrain.fused.steps_per_s"),
    ("training", "finetune.small.fused.steps_per_s"),
    ("training", "ddp.workers_1.steps_per_s"),
    ("training", "ddp.workers_2.steps_per_s"),
    ("training", "ddp.workers_4.steps_per_s"),
]


def lookup(report: Dict, path: str):
    """Resolve a dotted ``path`` in ``report``; ``None`` when absent."""
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_gates(reports: Dict[str, Dict],
                gates: Optional[List[Gate]] = None) -> List[str]:
    """Evaluate ``gates`` against loaded ``reports``; returns failures.

    Each failure is a one-line human-readable message; an empty list means
    the gate is green.  Missing reports or metrics fail loudly.
    """
    failures = []
    for gate in (GATES if gates is None else gates):
        report = reports.get(gate.report)
        if report is None:
            failures.append(f"FAIL {gate.describe()}: report not loaded")
            continue
        value = lookup(report, gate.path)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            failures.append(
                f"FAIL {gate.describe()}: metric missing from report")
            continue
        if not _OPS[gate.op](value, gate.threshold):
            failures.append(
                f"FAIL {gate.describe()}: got {value}")
    return failures


def _load(path: Path) -> Optional[Dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(
        description="fail on bench-report regressions (ratios/counters only)")
    parser.add_argument("--serving", type=Path,
                        default=DEFAULT_REPORTS["serving"],
                        help="path to BENCH_serving.json")
    parser.add_argument("--training", type=Path,
                        default=DEFAULT_REPORTS["training"],
                        help="path to BENCH_training.json")
    parser.add_argument("--list", action="store_true",
                        help="print the gate table and exit")
    args = parser.parse_args(argv)
    if args.list:
        for gate in GATES:
            print(gate.describe())
        return 0
    reports = {}
    for key, path in (("serving", args.serving), ("training", args.training)):
        loaded = _load(path)
        if loaded is None:
            print(f"FAIL cannot read {key} report at {path}")
        else:
            reports[key] = loaded
    failures = check_gates(reports)
    for gate in GATES:
        if not any(gate.describe() in failure for failure in failures):
            value = lookup(reports.get(gate.report, {}), gate.path)
            print(f"PASS {gate.describe()} (got {value})")
    for failure in failures:
        print(failure)
    print("-- report-only (wall-clock; single noisy core, never gated) --")
    for key, path in REPORT_ONLY:
        value = lookup(reports.get(key, {}), path)
        if value is not None:
            print(f"     {key}:{path} = {value}")
    if failures or len(reports) < len(DEFAULT_REPORTS):
        print(f"bench_gate: {len(failures)} gate(s) failed", file=sys.stderr)
        return 1
    print(f"bench_gate: all {len(GATES)} gates green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
