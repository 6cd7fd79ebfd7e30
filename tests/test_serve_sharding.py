"""Tests for the multi-process sharded serving engine."""

import functools
import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.models.persistence import WEIGHTS_NAME_PREFIX
from repro.serve import (
    AdviceResult,
    AutoscaleConfig,
    EngineConfig,
    ModelRegistry,
    MultiModelEngine,
    RollingMean,
    ShardedEngine,
    SupervisorConfig,
    shard_of,
)
from repro.tokenize import Vocab, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 1; i < n; i++) a[i] = a[i-1];",
    'for (i = 0; i < n; i++) printf("%d", a[i]);',
    "for (i = 0; i < n; i++) for (j = 0; j < m; j++) x[i][j] = i * j;",
    "while (k < n) { total += buf[k]; k++; }",
    "for (p = head; p; p = p->next) count++;",
    "for (i = 0; i < rows; i++) out[i] = dot(m[i], v, cols);",
]


@pytest.fixture(scope="module")
def model_and_vocab():
    vocab = Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)
    return PragFormer(len(vocab), TINY), vocab


def _directive_engine(model, vocab, config=None):
    """A directive-only MultiModelEngine — the smallest fleet worker."""
    registry = ModelRegistry()
    registry.register("directive", model, vocab, max_len=TINY.max_len)
    return MultiModelEngine(registry, config=config)


def _probs(results):
    """Directive P(+) column of a list of AdviceResults."""
    return np.array([res.probability for res in results])


@pytest.fixture(scope="module")
def factory(model_and_vocab):
    model, vocab = model_and_vocab
    return functools.partial(_directive_engine, model, vocab,
                             EngineConfig(max_batch_size=8))


class TestRouting:
    def test_deterministic_across_calls_and_instances(self):
        for n in (1, 2, 4, 7):
            first = [shard_of(code, n) for code in SNIPPETS]
            second = [shard_of(code, n) for code in SNIPPETS]
            assert first == second
            assert all(0 <= s < n for s in first)

    def test_single_shard_routes_everything_to_zero(self):
        assert {shard_of(code, 1) for code in SNIPPETS} == {0}

    def test_engine_shard_of_matches_module_fn(self, factory):
        with ShardedEngine(factory, n_shards=4) as sharded:
            for code in SNIPPETS:
                assert sharded.shard_of(code) == shard_of(code, 4)

    def test_duplicates_land_on_one_shard(self, factory):
        code = SNIPPETS[0]
        with ShardedEngine(factory, n_shards=4) as sharded:
            sharded.advise_v1([code] * 6)
            routed = sharded.routed
        target = shard_of(code, 4)
        assert routed[target] == 6
        assert sum(routed) == 6


class TestFallbackSingleShard:
    def test_no_worker_processes(self, factory):
        sharded = ShardedEngine(factory, n_shards=1)
        try:
            assert sharded._workers == []
            assert sharded._local is not None
        finally:
            sharded.close()

    def test_matches_unsharded_engine(self, factory):
        expected = _probs(factory().advise_v1(SNIPPETS))
        with ShardedEngine(factory, n_shards=1) as sharded:
            np.testing.assert_allclose(_probs(sharded.advise_v1(SNIPPETS)),
                                       expected, atol=1e-5)

    def test_rejects_nonpositive_shards(self, factory):
        with pytest.raises(ValueError):
            ShardedEngine(factory, n_shards=0)


class TestMultiProcess:
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_predictions_match_unsharded(self, factory, n_shards):
        expected = _probs(factory().advise_v1(SNIPPETS))
        with ShardedEngine(factory, n_shards=n_shards) as sharded:
            got = _probs(sharded.advise_v1(SNIPPETS))
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_advise_many_order_preserved(self, factory):
        expected = factory().advise_v1(SNIPPETS)
        with ShardedEngine(factory, n_shards=2) as sharded:
            got = sharded.advise_v1(SNIPPETS)
        assert all(isinstance(a, AdviceResult) for a in got)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a.probability, b.probability, atol=1e-5)
            assert a.verdict == b.verdict

    def test_empty_batch(self, factory):
        with ShardedEngine(factory, n_shards=2) as sharded:
            assert sharded.advise_v1([]) == []
            assert sum(sharded.routed) == 0

    def test_stats_aggregation(self, factory):
        with ShardedEngine(factory, n_shards=2) as sharded:
            sharded.advise_v1(SNIPPETS)
            sharded.advise_v1(SNIPPETS)  # warm pass: all LRU hits
            stats = sharded.stats()
        assert stats["n_shards"] == 2
        assert sum(stats["routed"]) == 2 * len(SNIPPETS)
        assert stats["queue_depth"] == [0, 0]
        combined = stats["combined"]
        assert combined["requests"] == 2 * len(SNIPPETS)
        assert combined["cache_hits"] == len(SNIPPETS)
        assert len(stats["shards"]) == 2

    def test_worker_error_is_surfaced(self, model_and_vocab):
        model, vocab = model_and_vocab

        def broken_factory():
            engine = _directive_engine(model, vocab)
            # not callable -> worker-side error
            engine.directive_engine.predict_proba = None
            return engine

        with ShardedEngine(broken_factory, n_shards=2) as sharded:
            with pytest.raises(RuntimeError, match="shard"):
                sharded.advise_v1(SNIPPETS)

    def test_no_stale_responses_after_one_shard_fails(self, model_and_vocab,
                                                      factory):
        """A failed shard must not leave other shards' replies queued —
        the next call would silently collect the previous call's results."""
        model, vocab = model_and_vocab
        # healthy snippets live on one shard; pick a BOOM marker that
        # provably hashes to the other one
        other = [c for c in SNIPPETS if shard_of(c, 2) == shard_of(SNIPPETS[0], 2)]
        assert len(other) >= 2, "need snippets on the non-failing shard"
        boom = next(f"BOOM {i}" for i in range(64)
                    if shard_of(f"BOOM {i}", 2) != shard_of(other[0], 2))

        def selective_factory():
            engine = _directive_engine(model, vocab)
            real = engine.advise_v1

            def advise_v1(codes):
                if any("BOOM" in c for c in codes):
                    raise ValueError("boom")
                return real(codes)

            engine.advise_v1 = advise_v1
            return engine

        expected = factory().advise_v1(other)
        lookup = dict(zip(other, expected))
        with ShardedEngine(selective_factory, n_shards=2) as sharded:
            with pytest.raises(RuntimeError, match="shard"):
                sharded.advise_v1([boom, other[0]])
            # the healthy shard's reply for other[0] must have been drained:
            # a fresh call must return advice for its own snippet
            got = sharded.advise_v1([other[1]])[0]
            np.testing.assert_allclose(got.probability,
                                       lookup[other[1]].probability, atol=1e-5)

    def test_concurrent_bulk_calls_do_not_cross_talk(self, factory):
        import threading

        expected = _probs(factory().advise_v1(SNIPPETS))
        errors = []
        with ShardedEngine(factory, n_shards=2) as sharded:
            def hammer():
                try:
                    for _ in range(5):
                        got = _probs(sharded.advise_v1(SNIPPETS))
                        np.testing.assert_allclose(got, expected, atol=1e-5)
                except Exception as exc:  # noqa: BLE001 — collected for assert
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors, errors

    def test_dead_worker_degrades_instead_of_hanging(self):
        """A factory that crashes at worker startup must not wedge or
        fail the caller: with no live shard to retry on and a fallback
        that cannot build either, every snippet gets the explicit
        degraded neutral verdict (p = 0.5) instead of an exception."""

        def crashing_factory():
            raise RuntimeError("no model for you")

        cfg = SupervisorConfig(request_timeout_s=10.0,
                               heartbeat_interval_s=0)
        with ShardedEngine(crashing_factory, n_shards=2,
                           supervisor=cfg) as sharded:
            proba = _probs(sharded.advise_v1(SNIPPETS))
            np.testing.assert_allclose(proba, 0.5)
            advice = sharded.advise_v1(SNIPPETS[:2])
            assert all(a.degraded for a in advice)
            assert all(not a.verdict and not a.clauses for a in advice)
            sup = sharded.stats()["supervisor"]
            assert sup["degraded_answers"] == len(SNIPPETS) + 2
            assert sup["faults"] >= 2

    def test_head_names_through_workers(self, model_and_vocab):
        from repro.serve import ModelRegistry, MultiModelEngine

        model, vocab = model_and_vocab

        def multi_factory():
            registry = ModelRegistry()
            for name in ("directive", "private"):
                registry.register(name, model, vocab, max_len=TINY.max_len)
            return MultiModelEngine(registry)

        with ShardedEngine(multi_factory, n_shards=2) as sharded:
            assert sharded.head_names() == ["directive", "private"]
        with ShardedEngine(multi_factory, n_shards=1) as local:
            assert local.head_names() == ["directive", "private"]

    def test_close_idempotent_and_rejects_use(self, factory):
        sharded = ShardedEngine(factory, n_shards=2)
        sharded.advise_v1(SNIPPETS[:2])
        sharded.close()
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.advise_v1(SNIPPETS[:2])
        with pytest.raises(RuntimeError, match="closed"):
            sharded.stats()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.head_names()


class TestRollingMean:
    def test_mean_over_window(self):
        window = RollingMean(3)
        assert window.mean() == 0.0 and not window.full
        for v in (1.0, 2.0, 3.0):
            window.push(v)
        assert window.full and window.mean() == pytest.approx(2.0)
        window.push(6.0)  # evicts the 1.0
        assert window.mean() == pytest.approx(11.0 / 3)
        window.clear()
        assert len(window) == 0 and window.mean() == 0.0

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            RollingMean(0)


class TestAutoscaleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(min_shards=0)
        with pytest.raises(ValueError):
            AutoscaleConfig(min_shards=3, max_shards=2)
        with pytest.raises(ValueError):
            AutoscaleConfig(low_watermark=2.0, high_watermark=1.0)
        with pytest.raises(ValueError):
            AutoscaleConfig(window=0)
        with pytest.raises(ValueError):
            AutoscaleConfig(cooldown_s=-1)

    def test_clamp(self):
        cfg = AutoscaleConfig(min_shards=2, max_shards=4)
        assert cfg.clamp(1) == 2
        assert cfg.clamp(3) == 3
        assert cfg.clamp(9) == 4


class TestAutoscaling:
    """Queue-depth shard autoscaling: grow under bursts, shrink when idle,
    stay correct across every resize."""

    def _burst_cfg(self, max_shards=3):
        # tiny window + zero cooldown so tests converge in a few calls; a
        # microscopic high watermark makes any observed backlog a grow
        # signal, and the low watermark only fires on a truly idle window
        return AutoscaleConfig(min_shards=1, max_shards=max_shards,
                               high_watermark=0.01, low_watermark=0.005,
                               window=3, cooldown_s=0.0)

    def _hammer_until(self, sharded, predicate, n_threads=4, timeout=45.0):
        """Concurrent bulk calls until ``predicate()`` (or timeout)."""
        stop = threading.Event()
        errors = []

        def client():
            while not stop.is_set():
                try:
                    sharded.advise_v1(SNIPPETS)
                except Exception as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=client) for _ in range(n_threads)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        while not predicate() and time.monotonic() < deadline:
            time.sleep(0.05)
        stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        return predicate()

    def test_grows_under_burst_and_shrinks_when_idle(self, factory):
        """The acceptance gate: a bursty trace resizes the fleet between
        the configured bounds, with correct predictions throughout."""
        expected = _probs(factory().advise_v1(SNIPPETS))
        with ShardedEngine(factory, n_shards=1,
                           autoscale=self._burst_cfg()) as sharded:
            assert sharded.n_shards == 1
            grew = self._hammer_until(sharded,
                                      lambda: sharded.n_shards == 3)
            assert grew, "burst load must grow the fleet to max_shards"
            # predictions remain correct on the re-routed fleet
            np.testing.assert_allclose(_probs(sharded.advise_v1(SNIPPETS)),
                                       expected, atol=1e-5)
            # sequential traffic samples an empty backlog -> shrink to min
            deadline = time.monotonic() + 45.0
            while sharded.n_shards > 1 and time.monotonic() < deadline:
                np.testing.assert_allclose(
                    _probs(sharded.advise_v1(SNIPPETS)), expected, atol=1e-5)
            assert sharded.n_shards == 1, "idle fleet must shrink to min"
            stats = sharded.stats()
            scaler = stats["autoscaler"]
            assert scaler["min_shards"] == 1 and scaler["max_shards"] == 3
            assert scaler["current_shards"] == 1
            assert scaler["resizes"] >= 4  # 1->2->3 then 3->2->1
            assert "low watermark" in scaler["last_resize"]["reason"]
            assert scaler["last_resize"]["from"] == 2
            assert scaler["last_resize"]["to"] == 1

    def test_respects_min_shards_floor(self, factory):
        cfg = AutoscaleConfig(min_shards=2, max_shards=3,
                              high_watermark=10.0, low_watermark=0.01,
                              window=2, cooldown_s=0.0)
        with ShardedEngine(factory, n_shards=1, autoscale=cfg) as sharded:
            assert sharded.n_shards == 2  # clamped up at construction
            for _ in range(10):  # idle traffic: would shrink if allowed
                sharded.advise_v1(SNIPPETS[:2])
            assert sharded.n_shards == 2

    def test_autoscale_forces_multiprocess_mode(self, factory):
        with ShardedEngine(factory, n_shards=1,
                           autoscale=self._burst_cfg()) as sharded:
            assert sharded._local is None
            assert len(sharded._workers) == 1

    def test_cooldown_blocks_consecutive_resizes(self, factory):
        cfg = AutoscaleConfig(min_shards=1, max_shards=4,
                              high_watermark=0.01, low_watermark=0.005,
                              window=1, cooldown_s=3600.0)
        with ShardedEngine(factory, n_shards=1, autoscale=cfg) as sharded:
            self._hammer_until(sharded, lambda: False, timeout=1.0)
            assert sharded.n_shards == 1  # construction-time cooldown holds

    def test_fixed_engine_reports_no_autoscaler(self, factory):
        with ShardedEngine(factory, n_shards=2) as sharded:
            sharded.advise_v1(SNIPPETS)
            assert "autoscaler" not in sharded.stats()


# -- the one data plane: every call rides the worker queues --------------------

HEAD_NAMES = ("directive", "private", "reduction")

#: lexes only through error recovery (stray ``@#$`` emits ERROR_TOKEN)
DIRTY = [
    "for (i = 0; i < n; i++) { a[i] = @#$ b[i]; }",
    "for (i = 0; i < n; i++) s += a[i] `` ;",
    "while (k < n) { total += buf[k]; k++; \x01",
]

#: over the byte cap set below: rejected by the worker engine, degraded
OVERSIZE = "for (i = 0; i < n; i++) a[i] = b[i];" * 40


def _build_multi(path, config=None):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path),
                            config=config)


def _save_registry(vocab, path, seed0):
    registry = ModelRegistry()
    for k, name in enumerate(HEAD_NAMES):
        registry.register(name,
                          PragFormer(len(vocab), replace(TINY, seed=seed0 + k),
                                     rng=seed0 + k),
                          vocab, max_len=TINY.max_len)
    registry.save(path)
    return path


@pytest.fixture(scope="module")
def checkpoints(model_and_vocab, tmp_path_factory):
    _, vocab = model_and_vocab
    root = tmp_path_factory.mktemp("fleet")
    return (_save_registry(vocab, root / "ckpt_a", 0),
            _save_registry(vocab, root / "ckpt_b", 80))


class TestQueueDataPlane:
    def test_multi_producer_stress_no_lost_dup_or_corrupt(self, factory):
        """4 producer threads x 4 shards x 2000 total requests: every
        reply present, in order, and matching the reference engine."""
        trace = [f"for (i = 0; i < n; i++) a[i] = b[i] * {k} + c[i % {k + 2}];"
                 for k in range(100)]
        expected = _probs(factory().advise_v1(trace))
        errors = []
        with ShardedEngine(factory, n_shards=4) as sharded:
            def producer():
                try:
                    for _ in range(5):  # 5 x 100 snippets per producer
                        got = _probs(sharded.advise_v1(trace))
                        assert got.shape == expected.shape
                        np.testing.assert_allclose(got, expected, atol=1e-5)
                except Exception as exc:  # noqa: BLE001 — assert below
                    errors.append(exc)

            threads = [threading.Thread(target=producer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stats = sharded.stats()
        assert not errors, errors
        assert stats["supervisor"]["degraded_answers"] == 0
        assert sum(stats["routed"]) == 4 * 5 * len(trace)
        assert stats["ipc"]["active"] == "queue"
        assert stats["ipc"]["queue_serving_sends"] >= 4 * 5
        assert stats["ipc"]["ring_sends"] == stats["ipc"]["ring_overflows"] == 0

    def test_reload_is_fifo_with_serving_calls(self, checkpoints):
        """A reload queued behind serving calls never overtakes them, and
        every call sent after it is scored on the new weights."""
        a, b = checkpoints
        trace = SNIPPETS * 4
        with MultiModelEngine(ModelRegistry.from_checkpoint(a)) as ref_a:
            before = ref_a.advise_v1(trace)
        with MultiModelEngine(ModelRegistry.from_checkpoint(b)) as ref_b:
            after = ref_b.advise_v1(trace)
        with ShardedEngine(functools.partial(_build_multi, str(a)),
                           n_shards=2) as sharded:
            got_before = sharded.advise_v1(trace)
            version = sharded.reload(b)
            got_after = sharded.advise_v1(trace)
            assert sharded.stats()["model_version"] == version
        for got, want in ((got_before, before), (got_after, after)):
            for g, w in zip(got, want):
                assert g.probability == w.probability
                assert g.clauses == w.clauses

    def test_gating_counters_match_in_process_engine(self, checkpoints):
        """On a clean+dirty trace the fleet's clause-gating counters sum
        to the in-process engine's: one fan-out, no encoded twin to drift
        (degraded oversize rows stay out of both counters)."""
        a, _ = checkpoints
        config = EngineConfig(gate_margin=0.0, max_snippet_bytes=512)
        trace = SNIPPETS + DIRTY + [OVERSIZE]
        with _build_multi(str(a), config) as local:
            expected = local.advise_v1(trace)
            gating = local.stats()["clause_gating"]
        with ShardedEngine(functools.partial(_build_multi, str(a), config),
                           n_shards=2) as sharded:
            got = sharded.advise_v1(trace)
            shards = sharded.stats()["shards"]
        fleet = {key: sum(s["clause_gating"][key] for s in shards)
                 for key in ("gated_snippets", "fanned_out")}
        assert (fleet["gated_snippets"] + fleet["fanned_out"]
                == gating["gated_snippets"] + gating["fanned_out"]
                == len(trace) - 1)
        assert fleet == {key: gating[key] for key in fleet}
        assert got[-1].degraded and expected[-1].degraded
        for g, e in zip(got, expected):
            # batch composition differs per shard: float32 rounding only
            assert g.probability == pytest.approx(
                e.probability, abs=1e-6)
            assert g.recovered == e.recovered
            assert g.clauses.keys() == e.clauses.keys()
            for name, clause in g.clauses.items():
                assert clause.probability == pytest.approx(
                    e.clauses[name].probability, abs=1e-6)
        assert any(e.recovered for e in expected)


# -- fleet process lifetime ------------------------------------------------------

#: Runs a 2-shard shared-weights fleet in its own interpreter: serve,
#: reload (workers attach the published weight segment), serve again,
#: then either close cleanly or report its pids/segments and wait to be
#: killed.
_FLEET_SCRIPT = """
import functools, json, sys, time
from repro.serve import ModelRegistry, MultiModelEngine, ShardedEngine

first, second, mode = sys.argv[1:4]
registry, shared = ModelRegistry.from_checkpoint(first, share=True)
fleet = ShardedEngine(functools.partial(MultiModelEngine, registry),
                      n_shards=2, shared_weights=shared)
snippets = ["for (i = 0; i < n; i++) s += a[i];",
            "for (i = 1; i < n; i++) a[i] = a[i-1];"]
fleet.advise_v1(snippets)
fleet.reload(second)
fleet.advise_v1(snippets)
if mode == "close":
    fleet.close()
else:
    print(json.dumps({"workers": [p.pid for p in fleet._workers],
                      "segments": [w.name for w in fleet._all_weights]}),
          flush=True)
    time.sleep(600)
"""


def _fleet_process(checkpoints, mode):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    args = [sys.executable, "-c", _FLEET_SCRIPT,
            *(str(c) for c in checkpoints), mode]
    return args, env


def _alive(pid):
    """Whether ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestFleetLifetime:
    def test_shared_weights_fleet_shuts_down_without_traceback(
            self, checkpoints):
        """Workers attach weight segments without touching the resource
        tracker they share with the parent, so the parent's unlinks at
        close() raise no tracker ``KeyError`` tracebacks."""
        args, env = _fleet_process(checkpoints, "close")
        done = subprocess.run(args, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr, done.stderr

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_workers_exit_when_parent_is_sigkilled(self, checkpoints):
        """A SIGKILLed server cannot send _STOP: its idle workers notice
        the parent is gone and exit, and the resource tracker then
        reclaims every weight segment the dead parent created."""
        args, env = _fleet_process(checkpoints, "wait")
        proc = subprocess.Popen(args, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        try:
            report = json.loads(proc.stdout.readline())
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            proc.stdout.close()
        assert len(report["workers"]) == 2
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in report["workers"]):
                break
            time.sleep(0.1)
        assert not any(_alive(pid) for pid in report["workers"])
        created = f"/dev/shm/repro-*-{proc.pid}-*"
        while time.monotonic() < deadline and glob.glob(created):
            time.sleep(0.1)
        assert not glob.glob(created)
        assert all(name.startswith(f"{WEIGHTS_NAME_PREFIX}-{proc.pid}-")
                   for name in report["segments"])
