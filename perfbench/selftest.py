"""Tests of the benchmark's own machinery (not of the program).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test
collection: they exercise the benchmark, which the tier-1 suite does not.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from concurrent.futures import Future

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402


# -- input digests ----------------------------------------------------------------

@pytest.mark.parametrize("workload", ["train_ddp", "open_loop_mixed"])
def test_same_seed_same_digest_other_seed_other_digest(workload):
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        make = lambda seed, sub: workloads.make_inputs(  # noqa: E731
            workload, seed, os.path.join(tmp, sub), seconds=2.0)
        first, again, other = make(7, "a"), make(7, "b"), make(8, "c")
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_digest_is_order_and_type_sensitive():
    assert harness.digest({"a": [1, 2]}) == harness.digest({"a": [1, 2]})
    assert harness.digest({"a": [1, 2]}) != harness.digest({"a": [2, 1]})
    assert harness.digest({"a": 1}) != harness.digest({"a": "1"})


# -- percentiles ------------------------------------------------------------------

@pytest.mark.parametrize("n, cap, expected", [
    (19, 99.9, None),    # even the median has fewer than 10 beyond it
    (20, 99.9, 50.0),
    (99, 99.9, 75.0),    # p90 would leave 9.9 samples beyond
    (100, 99.9, 90.0),
    (999, 99.9, 95.0),
    (1000, 99.9, 99.0),
    (10000, 99.9, 99.9),
    (10000, 90.0, 90.0),  # the workload's cap wins
])
def test_highest_percentile_with_ten_samples_beyond(n, cap, expected):
    assert harness.supported_percentile(n, cap) == expected


def test_tail_falls_back_to_the_median_on_small_samples():
    q, value = harness.tail([1.0, 2.0, 3.0], cap=99.0)
    assert (q, value) == (50.0, 2.0)
    q, value = harness.tail(list(range(1, 101)), cap=99.0)
    assert q == 90.0 and value == pytest.approx(90.1)


# -- open loop ----------------------------------------------------------------------

class FakeTime:
    """A clock that only moves when the code under test sleeps or works."""

    def __init__(self) -> None:
        self.now = 100.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_counts_latency_from_the_due_time():
    t = FakeTime()
    stall = {0: 0.050}  # the first send blocks the generator for 50 ms

    def submit(payload):
        t.now += stall.get(payload, 0.0)
        fut = Future()
        t.now += 0.002  # each request takes 2 ms to answer
        fut.set_result(payload)
        return fut

    res = harness.run_open_loop(submit, [0, 1, 2], [0.0, 0.010, 0.020],
                                clock=t.clock, sleep=t.sleep)
    # request 1 was due at 10 ms but could only be sent at 52 ms
    assert res.lag_s[0] == pytest.approx(0.0)
    assert res.lag_s[1] == pytest.approx(0.042)
    assert res.lag_s[2] == pytest.approx(0.034)
    # latency runs from the due time, so the stall is charged to it
    assert res.latency_s[1] == pytest.approx(0.042 + 0.002)
    assert res.latency_s[2] == pytest.approx(0.034 + 0.002)
    assert res.errors == 0 and res.results == [0, 1, 2]


def test_open_loop_counts_failed_and_unanswered_requests():
    t = FakeTime()

    def submit(payload):
        if payload == "boom":
            raise RuntimeError("send failed")
        fut = Future()
        if payload == "ok":
            fut.set_result(payload)
        return fut  # "lost" never completes

    res = harness.run_open_loop(submit, ["ok", "boom", "lost"],
                                [0.0, 0.001, 0.002], timeout_s=0.0,
                                clock=t.clock, sleep=t.sleep)
    assert res.errors == 2
    assert len(res.latency_s) == 1


# -- output checks ------------------------------------------------------------------

def test_fleet_check_counts_error_rows_as_failed():
    import workloads

    # /v1/advise/batch answers a bad item with {"id", "error"} in a 200
    rows = [(0, {"id": 0, "error": "snippet too large"}),
            (1, {"id": 1, "needs_directive": True})]
    assert workloads._check_fleet(rows, ["int x;", "int y;"], []) == 2


# -- calibration ----------------------------------------------------------------------

def fake_kernels(monkeypatch, t, part_ms):
    """Kernels that take ``part_ms[0]`` milliseconds each on clock ``t``."""
    step = lambda: t.sleep(part_ms[0] / 1e3)  # noqa: E731
    monkeypatch.setattr(harness, "_py_kernel", step)
    monkeypatch.setattr(harness, "_blas_kernel", step)


def test_calibration_scales_work_by_the_point_before_it(monkeypatch):
    t, part_ms = FakeTime(), [harness.CALIB_REF_MS / 2]
    fake_kernels(monkeypatch, t, part_ms)
    cal = harness.Calibrator(clock=t.clock)
    assert cal.sample() == pytest.approx(harness.CALIB_REF_MS / 1e3)
    assert cal.scale == pytest.approx(1.0)  # a reference-speed host
    t.sleep(1.0)                             # one second of work
    part_ms[0] *= 2                          # the host halves its speed
    cal.sample()
    assert cal.scale == pytest.approx(0.5)
    t.sleep(2.0)                             # the same work takes twice as long
    assert cal.normalised_s() == pytest.approx(2.0)
    assert cal.report()["passes"] == 2


def test_calibration_ticks_only_when_due(monkeypatch):
    t = FakeTime()
    fake_kernels(monkeypatch, t, [1.0])
    cal = harness.Calibrator(clock=t.clock)
    assert cal.tick() > 0                    # the first point is always due
    assert cal.tick() == 0.0
    t.sleep(harness.CALIB_EVERY_S)
    assert cal.tick() > 0


# -- result contract ---------------------------------------------------------------

def test_benchmark_json_names_what_the_workloads_report():
    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == workloads.PER_LAYER


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
