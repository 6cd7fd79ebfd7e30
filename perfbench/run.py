"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cold_advise --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--workload all`` runs every workload in turn and prints a table of the
named metrics of each, then one JSON object of all the results.

Runs ``workloads.py`` in a child process from the checkout's ``src/``
tree, with any caller ``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS``
override removed so the program is measured as shipped.  After the child
exits, the run is checked for hygiene: a leaked ``/dev/shm/repro-*``
segment or a surviving process of the child's session counts as one
failed operation each, and is cleaned up so the next run starts clean.
The last line printed is the JSON result; a child that fails prints no
result and the exit code is non-zero.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import WORKLOADS  # noqa: E402

#: environment variables that would override the program's BLAS threading
THREAD_OVERRIDES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "GOTO_NUM_THREADS")
CHILD_TIMEOUT_S = 160.0  # leaves room to reap the session within 180 s
SHM_GLOB = "/dev/shm/repro-*"


def child_env() -> dict:
    """The caller's environment minus thread overrides, with ``src`` on
    the import path."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_OVERRIDES}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def session_processes(sid: int) -> list:
    """Live pids whose session id is ``sid`` (zombies excluded)."""
    pids = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(stat.split("/")[2]))
    return pids


def reap_session(sid: int, grace_s: float = 3.0) -> int:
    """Kill whatever is left of the child's session after ``grace_s``
    (helpers such as multiprocessing's resource tracker exit on their
    own shortly after their parent); returns how many were still alive."""
    deadline = time.monotonic() + grace_s
    while session_processes(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = session_processes(sid)
    for pid in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while session_processes(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return len(survivors)


def run_one(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a child process; returns ``(lines, result)``
    where ``result`` is ``None`` when the child failed."""
    shm_before = set(glob.glob(SHM_GLOB))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
        print(f"workload timed out after {CHILD_TIMEOUT_S:.0f}s",
              file=sys.stderr)
        child.returncode = 124
    survivors = reap_session(child.pid)
    leaked = sorted(set(glob.glob(SHM_GLOB)) - shm_before)
    for path in leaked:
        try:
            os.unlink(path)
        except OSError:
            pass
    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        print(f"{workload} exited with code {child.returncode}",
              file=sys.stderr)
        return lines, None
    result = json.loads(lines.pop())
    hygiene = survivors + len(leaked)
    lines.append(json.dumps({"hygiene": {"surviving_processes": survivors,
                                         "leaked_segments": leaked}}))
    result["failed"] += hygiene
    result["correct"] = result["correct"] and hygiene == 0
    lines.append(json.dumps({"error_rate": {
        "value": result["failed"] / result["attempted"], "unit": "ratio",
        "samples": result["attempted"]}}))
    return lines, result


def summary(workload: str, lines, result) -> str:
    """Human-readable table of one run's named metrics."""
    named = {}
    for line in lines:
        obj = json.loads(line)
        named.update(obj.get("named", {}))
        if "error_rate" in obj:
            named["error_rate"] = obj["error_rate"]
    rows = [f"{workload}  (correct={result['correct']}, "
            f"attempted={result['attempted']}, failed={result['failed']})"]
    for name, m in named.items():
        rows.append(f"  {name:24s} {m['value']:>14.4f} {m['unit']:<6s} "
                    f"n={m['samples']}")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a caller that starts the benchmark in the background may leave SIGINT
    # ignored, and exec keeps it ignored down the tree; the fleet's server
    # is stopped with SIGINT, so the children get the default back
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.workload != "all":
        lines, result = run_one(args.workload, args.seed, args.seconds,
                                args.trace)
        for line in lines:
            print(line)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    results = {}
    for workload in WORKLOADS:
        lines, result = run_one(workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(summary(workload, lines, result), flush=True)
        results[workload] = result
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
