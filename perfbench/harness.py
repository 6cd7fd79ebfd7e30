"""Measurement helpers shared by the benchmark workloads.

Nothing here imports the program under test: percentiles, input digests,
the environment header, process-tree memory and the open-loop arrival
driver are plain stdlib/NumPy code, so ``selftest.py`` can exercise them
without building a model.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: the benchmark's workloads, in the order ``--workload all`` runs them
WORKLOADS = ("cold_advise", "http_fleet", "open_loop_mixed", "train_ddp")
#: percentiles a tail may be reported at, lowest first
PERCENTILE_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is supported when at least this many samples lie beyond it
MIN_BEYOND = 10


# -- percentiles ---------------------------------------------------------------

def supported_percentile(n: int, cap: float = 99.9) -> Optional[float]:
    """Highest grid percentile <= ``cap`` with >= ``MIN_BEYOND`` of ``n``
    samples beyond it, or ``None`` when even the median is unsupported."""
    best = None
    for q in PERCENTILE_GRID:
        if q <= cap and n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = q
    return best


def tail(samples: Sequence[float], cap: float) -> Tuple[float, float]:
    """``(percentile, value)`` of the tail of ``samples``.

    The percentile is the highest one (up to ``cap``) that the sample
    supports; a sample too small to support any falls back to the median,
    so the reported tail never pretends to more than the data holds."""
    q = supported_percentile(len(samples), cap) or 50.0
    return q, float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def median(samples: Sequence[float]) -> float:
    """Median of ``samples`` as a float."""
    return float(np.median(np.asarray(samples, dtype=np.float64)))


# -- inputs ---------------------------------------------------------------------

def digest(obj) -> str:
    """Stable hex digest of a JSON-serialisable input description."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# -- environment header ----------------------------------------------------------

def openblas_threads() -> Optional[int]:
    """Thread count of numpy's bundled OpenBLAS, read through ctypes.

    Wheels bundle the library under ``numpy.libs``; its symbols carry a
    ``scipy_`` prefix and a ``64_`` suffix on ILP64 builds.  ``None``
    when no bundled OpenBLAS is found (a distro numpy, another BLAS)."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout at ``root``, or ``None`` outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment(root: str, seed: int, input_digest: str,
                calibration: Dict[str, object]) -> Dict[str, object]:
    """The header printed with every result."""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "seed": seed,
        "input_digest": input_digest,
        "calibration": calibration,
    }


# -- host speed calibration ---------------------------------------------------------

#: a typical calibration pass on the 2-vCPU Xeon VM the benchmark was
#: defined on; normalised timings read as if measured where a pass takes
#: this long
CALIB_REF_MS = 2.8
#: seconds of measured work between calibration passes
CALIB_EVERY_S = 0.2
_CAL_PY_N = 20_000
_CAL_MAT = np.random.default_rng(0).standard_normal((64, 64))
_CAL_MAT_REPS = 100


def _py_kernel() -> int:
    total = 0
    for i in range(_CAL_PY_N):
        total += i * i
    return total


def _blas_kernel() -> None:
    # 64 x 64 stays under OpenBLAS's threading threshold, so the pass
    # times one core whatever the library's thread count
    x = _CAL_MAT
    for _ in range(_CAL_MAT_REPS):
        x = _CAL_MAT @ x
        x *= 0.125  # keeps the entries bounded


def _kernel_ms(py_s: Sequence[float], blas_s: Sequence[float]) -> float:
    """Twice the geometric mean of the two kernels' median times (their
    sum when they are equal), so one slow kernel cannot dominate it."""
    return 2e3 * math.sqrt(median(py_s) * median(blas_s))


class Calibrator:
    """Times a fixed CPU kernel (a pure-Python loop and a small BLAS
    matmul) beside the measured work, and scales the work's timings to a
    host where one pass takes :data:`CALIB_REF_MS`.

    The host's CPU speed drifts by tens of percent over seconds to
    minutes; a timing divided by the kernel's time measured just before
    it does not.  Each :meth:`sample` is a calibration point: its passes
    set :attr:`scale` for the work that follows, until the next point.
    :meth:`tick` takes a point when :data:`CALIB_EVERY_S` has gone by,
    and both return the seconds the passes took, for the caller to take
    out of its timed phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.py_s: List[float] = []
        self.blas_s: List[float] = []
        self.point_ms = CALIB_REF_MS
        self.norm_s = 0.0  # work since the first point, at reference speed
        self._work_from: Optional[float] = None
        self._next = 0.0

    def _close(self, now: float) -> None:
        if self._work_from is not None:
            self.norm_s += (now - self._work_from) * self.scale
            self._work_from = None

    def sample(self, passes: int = 1) -> float:
        """Take a calibration point of ``passes`` passes; returns their
        wall time in seconds."""
        start = self.clock()
        self._close(start)
        py, blas = [], []
        for _ in range(passes):
            t0 = self.clock()
            _py_kernel()
            t1 = self.clock()
            _blas_kernel()
            t2 = self.clock()
            py.append(t1 - t0)
            blas.append(t2 - t1)
        self.py_s += py
        self.blas_s += blas
        self.point_ms = _kernel_ms(py, blas)
        self._work_from = self._next = self.clock()
        self._next += CALIB_EVERY_S
        return self._work_from - start

    def tick(self) -> float:
        """:meth:`sample` if a point is due, else 0."""
        return self.sample() if self.clock() >= self._next else 0.0

    @property
    def scale(self) -> float:
        """Factor taking a duration measured since the latest point to
        the reference host (a rate is divided by it)."""
        return CALIB_REF_MS / self.point_ms

    def normalised_s(self) -> float:
        """Seconds of work since the first point, passes excluded, at
        reference speed; ends the count."""
        self._close(self.clock())
        return self.norm_s

    def report(self) -> Dict[str, object]:
        return {"kernel_ms": _kernel_ms(self.py_s, self.blas_s),
                "py_ms": 1e3 * median(self.py_s),
                "blas_ms": 1e3 * median(self.blas_s),
                "passes": len(self.py_s), "ref_ms": CALIB_REF_MS}


# -- memory ----------------------------------------------------------------------

def process_tree(root_pid: int) -> List[int]:
    """``root_pid`` and all of its live descendants (from ``/proc``)."""
    children: Dict[int, List[int]] = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        pid = int(stat.split("/")[2])
        children.setdefault(int(fields[1]), []).append(pid)
    tree, stack = [], [root_pid]
    while stack:
        pid = stack.pop()
        tree.append(pid)
        stack.extend(children.get(pid, ()))
    return tree


def tree_pss_mb(root_pid: int) -> float:
    """Summed proportional set size of the process tree, in MB."""
    total_kb = 0
    for pid in process_tree(root_pid):
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited between listing and reading
    return total_kb / 1024.0


class PeakPss:
    """Samples a process tree's PSS when the block ends and, with an
    ``interval``, every ``interval`` seconds on a background thread
    before that; :attr:`peak_mb` is the largest sample taken.  Without
    an interval nothing runs beside the measured work."""

    def __init__(self, root_pid: int,
                 interval: Optional[float] = None) -> None:
        self.root_pid = root_pid
        self.interval = interval
        self.peak_mb = 0.0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="pss-sampler")

    def _sample(self) -> None:
        self.peak_mb = max(self.peak_mb, tree_pss_mb(self.root_pid))
        self.samples += 1

    def _loop(self) -> None:
        while True:
            self._sample()
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakPss":
        if self.interval is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.interval is not None:
            self._stop.set()
            self._thread.join()
        self._sample()


# -- open-loop arrivals ------------------------------------------------------------

def arrival_times(rng: np.random.Generator, rate: float,
                  duration: float) -> np.ndarray:
    """Seeded Poisson arrival offsets (seconds) in ``[0, duration)``."""
    n = int(rate * duration * 1.5) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return due[due < duration]


class OpenLoopResult:
    """Per-request timings of one open-loop phase.

    ``latency_s[i]`` runs from request ``i``'s *due* time to its
    completion, so a stall that delays later sends is charged to those
    requests; ``lag_s[i]`` is how late the generator actually sent it.
    ``errors`` counts requests that raised or never completed."""

    def __init__(self) -> None:
        self.latency_s: List[float] = []
        self.lag_s: List[float] = []
        self.results: List[object] = []
        self.errors = 0
        self.elapsed_s = 0.0


def run_open_loop(submit: Callable[[object], Future], payloads: Sequence,
                  due_s: Sequence[float], timeout_s: float = 30.0,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep
                  ) -> OpenLoopResult:
    """Send ``payloads[i]`` at ``due_s[i]`` seconds after start, whatever
    happened to earlier requests, and time each from its due time."""
    out = OpenLoopResult()
    done_at: List[Optional[float]] = [None] * len(payloads)
    futures: List[Optional[Future]] = [None] * len(payloads)

    def finisher(i: int):
        def _done(_fut: Future) -> None:
            done_at[i] = clock()
        return _done

    start = clock()
    for i, (payload, due) in enumerate(zip(payloads, due_s)):
        wait = start + due - clock()
        if wait > 0:
            sleep(wait)
        out.lag_s.append(max(0.0, clock() - (start + due)))
        try:
            fut = submit(payload)
        except Exception:  # noqa: BLE001 - a failed send is a failed request
            out.errors += 1
            continue
        futures[i] = fut
        fut.add_done_callback(finisher(i))
    deadline = clock() + timeout_s
    for i, fut in enumerate(futures):
        if fut is None:
            out.results.append(None)
            continue
        try:
            out.results.append(fut.result(timeout=max(0.0, deadline - clock())))
        except Exception:  # noqa: BLE001 - timeout or engine error
            out.errors += 1
            out.results.append(None)
            continue
        # set_result() wakes result() before it runs the callbacks, so a
        # request this loop was blocked on may not be stamped yet; the
        # clock read now is then late by that race only
        finished = done_at[i] if done_at[i] is not None else clock()
        out.latency_s.append(finished - (start + due_s[i]))
    out.elapsed_s = clock() - start
    return out


# -- results ------------------------------------------------------------------------

def metric(value: float, unit: str) -> Dict[str, object]:
    """One entry of the result's ``metrics`` object."""
    return {"value": float(value), "unit": unit}


def emit(obj: Dict[str, object], stream=None) -> None:
    """Print one compact JSON line and flush."""
    stream = stream or sys.stdout
    stream.write(json.dumps(obj, sort_keys=False) + "\n")
    stream.flush()


def chunks(items: Sequence, size: int) -> Iterable[Sequence]:
    """Consecutive slices of ``items`` of length ``size``."""
    for start in range(0, len(items), size):
        yield items[start:start + size]
