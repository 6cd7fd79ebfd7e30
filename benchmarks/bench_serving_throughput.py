"""Serving throughput: batched InferenceEngine vs sequential advise calls.

The ROADMAP north-star is serving heavy snippet traffic "as fast as the
hardware allows".  This bench replays a 512-request serving trace of
mixed-length snippets through (a) the legacy path — tokenize, pad to
max_len, one forward per snippet, exactly what ``repro advise`` used to do
per file — and (b) the :class:`repro.serve.InferenceEngine`.

The trace is Zipf-distributed over the corpus, as production snippet
traffic is: a hot set of snippets accounts for most requests.  That shape
is what the engine is built for — repeated requests hit the token-digest
LRU and the tokenize-once memo, duplicates inside a batch are coalesced to
a single forward row, and the remaining unique rows run in length-sorted
homogeneous buckets.  The engine must clear >= 5x the sequential
snippets/sec on the trace; an all-distinct cold pass is also recorded.
On the cold pass, batching historically bought ~1.2-1.5x — almost all of
it per-call dispatch overhead that the training hot-path overhaul then
removed from the *sequential* path too, so on a single core the two now
sit near parity (the work is compute-bound either way, and GC pressure
from whatever ran earlier in the process can push the ratio a little
either side of 1.0).  The cold assertion is therefore a loose
not-pathological floor; the trace speedup is the gate that matters.
Results go to ``BENCH_serving.json`` as the first entry in the perf
trajectory.

Five further sections exercise the serving stack's newer layers: a
**shard-count sweep** replays the trace through
:class:`repro.serve.ShardedEngine` at {1, 2, 4} worker processes
(digest-hash routing keeps each shard's LRU hot; 1 shard is the in-process
fallback); an **IPC** pass re-runs that sweep with *pinned* fleets
(``min_shards == max_shards``, so every point pays real cross-process
traffic over the worker queues, including n=1) — interleaved reps with
medians, recording the 2-shard/1-shard throughput ratio and the
sharding crossover point (smallest fleet within the noise tolerance of
the sweep's best) on a 1k-snippet trace; an **eviction-pressure** pass runs the trace against a
deliberately undersized prediction cache to record the eviction counters
and batch-size histogram end to end; a **clause-gating** pass replays a
majority-negative trace through gated and ungated multi-model engines
(the gate must cut clause-head requests by about the negative fraction
while leaving every fanned-out verdict bit-identical); a
**reload-under-load** pass hot-swaps an advisor checkpoint while client
threads hammer the engine (zero failed requests, zero stale cache hits,
post-swap verdicts provably from the new weights); a **canary rollout**
pass starts a second checkpoint on a digest slice of traffic while client
threads hammer the engine, reads the per-arm counters, and promotes it
live (zero failed requests, zero canary-arm errors, zero stale verdicts
after the promote — the invariants ``scripts/bench_gate.py`` holds CI
to); an **autoscale burst** drives a queue-depth-autoscaled sharded
engine through a bursty then idle phase and records the resize trail;
and a **fault injection** pass kills one of four shards mid-trace with
the deterministic :mod:`repro.serve.chaos` schedule — every request must
still be answered (answered fraction 1.0, zero lost), the supervisor
must respawn the slot, and the recovery time plus supervisor counters go
into the report — then overloads the HTTP front-end past its in-flight
cap to record the shed (429) count (more invariants
``scripts/bench_gate.py`` gates CI on); and a **dirty trace** replays the
committed dirty-snippet corpus (``tests/data/dirty``) plus seeded fuzz
mutants and an oversize snippet through the engine — no exception may
escape, every snippet must be answered, >= 90% of the trace must get a
real (possibly recovered) model verdict, and the ``recovered``/
``rejected_*`` counters land in the report for the bench gate.  On a single-core host the
sweep and autoscale sections measure routing/IPC overhead rather than
scaling — multi-shard numbers sitting below the in-process fallback is
expected there, and the recorded values exist for cross-run comparison,
not as a speedup claim.  The same caveat applies to the IPC pass: what
its gated ratios assert is that the *sharding tax* stays bounded —
pinned 2-shard throughput within tolerance of 1-shard.  On a multi-core
host the crossover counter records where scaling genuinely begins.

Predictions are weight-independent in cost, so an untrained PragFormer at
the default (paper-shaped) size keeps the bench self-contained and fast.
"""

import functools
import json
import statistics
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from conftest import timed, write_bench_report

from repro.clang.fuzz import fuzz_corpus
from repro.corpus import CorpusConfig, build_corpus
from repro.data.encoding import encode_batch
from repro.models import PragFormer
from repro.serve import (
    AdmissionConfig,
    AutoscaleConfig,
    ChaosConfig,
    EngineConfig,
    InferenceEngine,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
    SupervisorConfig,
    canary_routes,
    make_server,
)
from repro.tokenize import Vocab, text_tokens

pytestmark = pytest.mark.perf

N_REQUESTS = 512
ZIPF_EXPONENT = 1.35  # ~110 distinct snippets across the 512 requests
SHARD_COUNTS = (1, 2, 4)
IPC_REPS = 3              # interleaved reps per pinned shard count
IPC_WARM_PASSES = 2       # warm passes per fleet; best-of is recorded
IPC_CROSSOVER_TOL = 0.9   # "within noise of best" for the crossover point
PRESSURE_CACHE = 48  # smaller than the trace's distinct set -> forced evictions
GATING_REQUESTS = 256     # gating trace length (3 heads -> keep it lean)
GATING_NEGATIVE_FRAC = 0.75  # majority-negative, as real traffic skews
GATE_MARGIN = 0.05
RELOAD_CLIENTS = 4        # threads hammering during the hot swap
CANARY_FRACTION = 0.3     # digest slice the canary rollout serves
FAULT_ROUNDS = 10         # trace rounds through the chaos-faulted fleet
FAULT_KILL_SLOT = 1       # which of the 4 shards the chaos schedule kills
FAULT_KILL_CALL = 3       # the slot's serving-call index that dies
OVERLOAD_CLIENTS = 6      # simultaneous requests against max_inflight=1
DIRTY_CLEAN_REQUESTS = 128  # clean prefix of the dirty trace
DIRTY_MUTANTS = 64          # seeded fuzz mutants appended to the trace
DIRTY_FUZZ_SEED = 5


def _workload():
    corpus = build_corpus(CorpusConfig(n_records=N_REQUESTS, seed=11))
    codes = [record.code for record in corpus.records]
    vocab = Vocab.build([text_tokens(code) for code in codes], min_freq=1)
    rng = np.random.default_rng(0)
    ranks = np.minimum(rng.zipf(ZIPF_EXPONENT, size=N_REQUESTS) - 1, len(codes) - 1)
    trace = [codes[rank] for rank in ranks]
    return codes, trace, vocab


def _sequential_advise(model, vocab, codes, max_len):
    """The legacy per-snippet path: lex, encode, pad to max_len, one
    forward — no caching of any kind, as ``repro advise`` behaved."""
    probs = np.empty(len(codes))
    latencies = []
    for i, code in enumerate(codes):
        start = time.perf_counter()
        split = encode_batch([text_tokens(code)], vocab, max_len, width=max_len)
        probs[i] = model.predict_proba(split)[0, 1]
        latencies.append(time.perf_counter() - start)
    return probs, latencies


def _shard_worker_engine(model, vocab, max_len):
    """Worker-side engine builder for the shard sweep: a directive-only
    :class:`MultiModelEngine` (module-level so it pickles under the
    'spawn' start method)."""
    registry = ModelRegistry()
    registry.register("directive", model, vocab, max_len=max_len)
    return MultiModelEngine(registry,
                            config=EngineConfig(max_batch_size=128))


def _percentiles(latencies_s):
    lat = np.asarray(latencies_s) * 1e3
    return {f"p{q}_ms": round(float(np.percentile(lat, q)), 3) for q in (50, 95, 99)}


def _advisor_registry(directive_model, vocab, max_len, clause_seed=21):
    """Three-head advisor registry (directive + private + reduction) over
    the bench vocabulary; clause heads are fresh untrained models."""
    registry = ModelRegistry()
    registry.register("directive", directive_model, vocab, max_len=max_len)
    for k, name in enumerate(("private", "reduction"), start=1):
        registry.register(name, PragFormer(len(vocab), rng=clause_seed + k),
                          vocab, max_len=max_len)
    return registry


def _balanced_directive_head(vocab, sample, max_len, min_each=16):
    """An untrained directive head whose verdicts split both ways.

    Untrained heads are often heavily one-sided (their bias is luck of the
    init), and the gating section needs real directive-negative traffic to
    gate.  Scan seeds until one yields at least ``min_each`` snippets of
    each verdict class on ``sample`` — deterministic, and independent of
    how a future default init shifts the bias.
    """
    for seed in range(64):
        candidate = PragFormer(len(vocab), rng=1000 + seed)
        verdicts = InferenceEngine(candidate, vocab,
                                   max_len=max_len).advise_many(sample)
        negative = sum(not a.needs_directive for a in verdicts)
        if min_each <= negative <= len(sample) - min_each:
            return candidate
    raise AssertionError("no seed yields a two-sided directive head")


def _clause_requests(stats):
    """Total clause-head requests in a MultiModelEngine stats snapshot."""
    return sum(stats["heads"][name]["requests"]
               for name in ("private", "reduction"))


def _clause_batches(stats):
    """Total clause-head forward batches in a stats snapshot."""
    return sum(stats["heads"][name]["batches"]
               for name in ("private", "reduction"))


class _SlowAdvisor:
    """Wrap an advisor with a fixed per-call delay so the overload pass
    deterministically holds the admission slot long enough for the
    simultaneous clients to be shed (429) rather than racing through."""

    def __init__(self, inner, delay_s):
        self.inner = inner
        self.delay_s = delay_s

    def advise_v1(self, requests):
        time.sleep(self.delay_s)
        return self.inner.advise_v1(requests)

    def stats(self):
        return self.inner.stats()


def test_serving_throughput(benchmark):
    codes, trace, vocab = _workload()
    model = PragFormer(len(vocab))
    max_len = model.config.max_len
    lengths = [len(text_tokens(code)) for code in codes]
    # warm the BLAS/allocator paths once before timing anything
    model.predict_proba(encode_batch([text_tokens(codes[0])], vocab, max_len))

    # -- all-distinct cold pass: batching alone, no cache reuse ------------
    (seq_probs, _), seq_distinct_elapsed = timed(
        _sequential_advise, model, vocab, codes, max_len)
    cold_engine = InferenceEngine(model, vocab, max_len=max_len)
    batched, cold_elapsed = timed(cold_engine.predict_proba, codes)
    # batching must not change the answers
    np.testing.assert_allclose(batched[:, 1], seq_probs, atol=1e-4)
    distinct_speedup = seq_distinct_elapsed / cold_elapsed

    # -- the serving trace: what the engine is designed for ----------------
    (_, seq_lat), seq_elapsed = timed(
        _sequential_advise, model, vocab, trace, max_len)
    seq_throughput = len(trace) / seq_elapsed

    engine = InferenceEngine(model, vocab, max_len=max_len,
                             config=EngineConfig(max_batch_size=128))
    _, trace_elapsed = timed(engine.predict_proba, trace)
    trace_throughput = len(trace) / trace_elapsed
    benchmark.pedantic(engine.predict_proba, args=(trace,), rounds=1, iterations=1)

    # fully warm pass: every request hits the prediction LRU
    _, warm_elapsed = timed(engine.predict_proba, trace)

    # async queue: per-request latency under a full-load burst
    async_engine = InferenceEngine(model, vocab, max_len=max_len)
    with async_engine:
        done_at = [0.0] * len(trace)
        submitted, futures = [], []

        def _stamp(i):
            return lambda fut: done_at.__setitem__(i, time.perf_counter())

        burst_start = time.perf_counter()
        for i, code in enumerate(trace):
            submitted.append(time.perf_counter())
            future = async_engine.submit(code)
            future.add_done_callback(_stamp(i))
            futures.append(future)
        for future in futures:
            future.result(timeout=120)
        async_elapsed = time.perf_counter() - burst_start
        async_lat = [done - t0 for done, t0 in zip(done_at, submitted)]

    # -- shard-count sweep: the trace through 1/2/4 worker processes -------
    # functools.partial of a module-level builder stays picklable under the
    # 'spawn' start method (a local closure would not)
    engine_factory = functools.partial(_shard_worker_engine, model, vocab,
                                       max_len)
    shard_sweep = {}
    for n_shards in SHARD_COUNTS:
        with ShardedEngine(engine_factory, n_shards=n_shards) as sharded:
            _, cold = timed(sharded.advise_v1, trace)
            _, warm = timed(sharded.advise_v1, trace)
            stats = sharded.stats()
        combined = stats["combined"]
        shard_sweep[str(n_shards)] = {
            "snippets_per_s": round(len(trace) / cold, 1),
            "warm_snippets_per_s": round(len(trace) / warm, 1),
            "routed": stats["routed"],
            "cache_hits": combined.get("cache_hits", 0),
            "cache_misses": combined.get("cache_misses", 0),
            "evictions": combined.get("evictions", 0),
            "batches": combined.get("batches", 0),
            "batch_size_hist": combined.get("batch_size_hist", {}),
        }

    # -- ipc: the worker-queue data plane at pinned fleet sizes -----------
    # the sweep above keeps the default autoscaler, whose 1-shard point is
    # the in-process fallback (no IPC at all).  Here min_shards is pinned
    # to max_shards so every point pays real cross-process traffic.  Reps
    # are interleaved across fleet sizes and medianed because
    # process-spawn noise swamps any single run.
    ipc_trace = trace * 2  # 1024 requests
    ipc_runs = {n: {"cold": [], "warm": []} for n in SHARD_COUNTS}
    for _ in range(IPC_REPS):
        for n_shards in SHARD_COUNTS:
            pinned = AutoscaleConfig(min_shards=n_shards,
                                     max_shards=n_shards)
            with ShardedEngine(engine_factory, n_shards=n_shards,
                               autoscale=pinned) as fleet:
                _, cold = timed(fleet.advise_v1, ipc_trace)
                warms = [timed(fleet.advise_v1, ipc_trace)[1]
                         for _ in range(IPC_WARM_PASSES)]
            ipc_runs[n_shards]["cold"].append(cold)
            ipc_runs[n_shards]["warm"].append(min(warms))

    def _ipc_tput(n_shards, kind="cold"):
        return len(ipc_trace) / statistics.median(ipc_runs[n_shards][kind])

    ipc_best = max(_ipc_tput(n) for n in SHARD_COUNTS)
    ipc_transport = {
        "transport": "queue",
        "trace_requests": len(ipc_trace),
        "reps": IPC_REPS,
        "pinned_autoscale": True,
        "queue": {str(n): {
            "snippets_per_s": round(_ipc_tput(n), 1),
            "warm_snippets_per_s": round(_ipc_tput(n, "warm"), 1),
        } for n in SHARD_COUNTS},
        # the sharding tax: pinned 2-shard vs pinned 1-shard throughput
        "queue_2shard_scaling": round(_ipc_tput(2) / _ipc_tput(1), 3),
        "crossover_tolerance": IPC_CROSSOVER_TOL,
        # smallest fleet within the noise tolerance of the best one
        "crossover_shards": min(
            n for n in SHARD_COUNTS
            if _ipc_tput(n) >= IPC_CROSSOVER_TOL * ipc_best),
    }

    # -- eviction pressure: undersized LRU on the same trace ---------------
    pressured = InferenceEngine(
        model, vocab, max_len=max_len,
        config=EngineConfig(max_batch_size=128, cache_capacity=PRESSURE_CACHE))
    _, pressure_elapsed = timed(pressured.predict_proba, trace)
    pressured.predict_proba(trace)  # second pass: hits compete with evictions
    pstats = pressured.stats.as_dict()
    eviction_pressure = {
        "cache_capacity": PRESSURE_CACHE,
        "snippets_per_s": round(len(trace) / pressure_elapsed, 1),
        "cache_hits": pstats["cache_hits"],
        "cache_misses": pstats["cache_misses"],
        "evictions": pstats["evictions"],
        "encode_evictions": pstats["encode_evictions"],
        "batch_size_hist": pstats["batch_size_hist"],
    }

    # -- clause gating on a majority-negative trace ------------------------
    # realistic advisor traffic is mostly directive-negative; the gate must
    # cut clause-head requests by roughly the negative fraction while the
    # fanned-out snippets keep bit-identical verdicts
    gating_model = _balanced_directive_head(vocab, codes[:128], max_len)
    registry = _advisor_registry(gating_model, vocab, max_len)
    directive_verdicts = InferenceEngine(
        gating_model, vocab, max_len=max_len).advise_many(codes)
    neg_pool = [c for c, a in zip(codes, directive_verdicts)
                if not a.needs_directive]
    pos_pool = [c for c, a in zip(codes, directive_verdicts)
                if a.needs_directive]
    assert len(neg_pool) >= 8 and len(pos_pool) >= 8, (
        "gating trace needs both verdict classes "
        f"(got {len(neg_pool)} negative / {len(pos_pool)} positive)")
    gating_rng = np.random.default_rng(7)
    gating_trace = []
    for _ in range(GATING_REQUESTS):
        pool = (neg_pool if gating_rng.random() < GATING_NEGATIVE_FRAC
                else pos_pool)
        gating_trace.append(pool[gating_rng.integers(len(pool))])
    neg_set = set(neg_pool)
    negative_frac = sum(c in neg_set for c in gating_trace) / len(gating_trace)
    with MultiModelEngine(registry, config=EngineConfig(
            max_batch_size=128)) as ungated_engine:
        ungated_full, ungated_elapsed = timed(
            ungated_engine.advise_v1, gating_trace)
        ungated_stats = ungated_engine.stats()
    with MultiModelEngine(registry, config=EngineConfig(
            max_batch_size=128, gate_margin=GATE_MARGIN)) as gated_engine:
        gated_full, gated_elapsed = timed(
            gated_engine.advise_v1, gating_trace)
        gated_stats = gated_engine.stats()
    # parity: directive verdicts always agree; fanned-out snippets carry
    # identical clause probabilities
    gating_mismatches = 0
    for u, g in zip(ungated_full, gated_full):
        if (g.verdict, g.probability) != (u.verdict, u.probability):
            gating_mismatches += 1
        elif g.clauses and any(
                abs(g.clauses[n].probability - u.clauses[n].probability) > 1e-6
                for n in u.clauses):
            gating_mismatches += 1
    clause_gating = {
        "trace_requests": len(gating_trace),
        "negative_frac": round(negative_frac, 3),
        "gate_margin": GATE_MARGIN,
        "ungated": {
            "snippets_per_s": round(len(gating_trace) / ungated_elapsed, 1),
            "clause_requests": _clause_requests(ungated_stats),
            "clause_batches": _clause_batches(ungated_stats),
        },
        "gated": {
            "snippets_per_s": round(len(gating_trace) / gated_elapsed, 1),
            "clause_requests": _clause_requests(gated_stats),
            "clause_batches": _clause_batches(gated_stats),
            "gated_snippets": gated_stats["clause_gating"]["gated_snippets"],
            "fanned_out": gated_stats["clause_gating"]["fanned_out"],
        },
        "clause_request_reduction": round(
            1.0 - _clause_requests(gated_stats)
            / max(1, _clause_requests(ungated_stats)), 3),
        "verdict_mismatches": gating_mismatches,
    }

    # -- hot reload under concurrent load ----------------------------------
    # swap an advisor checkpoint while client threads hammer the engine:
    # zero failed requests, zero stale predictions served afterwards
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_a = Path(tmp) / "advisor_a"
        ckpt_b = Path(tmp) / "advisor_b"
        registry.save(ckpt_a)
        _advisor_registry(PragFormer(len(vocab), rng=31), vocab, max_len,
                          clause_seed=40).save(ckpt_b)
        probe = codes[:48]
        live = MultiModelEngine(ModelRegistry.from_checkpoint(ckpt_a),
                                config=EngineConfig(max_batch_size=128))
        live.advise_v1(probe)  # caches populated under version "0"
        failures: list = []
        # per-thread counters, summed after join — a shared += would lose
        # updates across thread switches and understate the served count
        served = [0] * RELOAD_CLIENTS
        stop = threading.Event()

        def reload_client(slot):
            while not stop.is_set():
                try:
                    served[slot] += len(live.advise_v1(probe))
                except Exception as exc:  # noqa: BLE001 — counted below
                    failures.append(exc)
                    return

        clients = [threading.Thread(target=reload_client, args=(k,))
                   for k in range(RELOAD_CLIENTS)]
        for t in clients:
            t.start()
        time.sleep(0.2)  # get real load in flight before the swap
        _, reload_elapsed = timed(live.reload, ckpt_b)
        time.sleep(0.2)  # keep serving across the swap boundary
        stop.set()
        for t in clients:
            t.join(timeout=60)
        with MultiModelEngine(ModelRegistry.from_checkpoint(ckpt_b)) as fresh:
            expected_new = fresh.advise_v1(probe)
        post_swap = live.advise_v1(probe)
        stale = sum(
            1 for got, exp in zip(post_swap, expected_new)
            if abs(got.probability - exp.probability) > 1e-5
            or any(abs(got.clauses[n].probability - exp.clauses[n].probability)
                   > 1e-5 for n in exp.clauses))
        reload_stats = live.stats()
        reload_under_load = {
            "clients": RELOAD_CLIENTS,
            "requests_served": sum(served),
            "failed_requests": len(failures),
            "reload_s": round(reload_elapsed, 4),
            "model_version": reload_stats["model_version"],
            "stale_predictions_after_swap": stale,
            "cache_hits": reload_stats["combined"]["cache_hits"],
        }
        live.close()

    # -- canary rollout under concurrent load ------------------------------
    # serve checkpoint B to a digest slice next to primary A while client
    # threads hammer the engine, then promote B live: zero failed
    # requests, zero canary-arm errors, post-promote verdicts provably
    # from B — the invariants scripts/bench_gate.py gates CI on
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_a = Path(tmp) / "advisor_a"
        ckpt_b = Path(tmp) / "advisor_b"
        registry.save(ckpt_a)
        _advisor_registry(PragFormer(len(vocab), rng=53), vocab, max_len,
                          clause_seed=60).save(ckpt_b)
        probe = codes[:48]
        canary_slice = sum(canary_routes(c, CANARY_FRACTION) for c in probe)
        assert canary_slice >= 1, "probe must intersect the canary slice"
        live = MultiModelEngine(ModelRegistry.from_checkpoint(ckpt_a),
                                config=EngineConfig(max_batch_size=128))
        failures = []
        served = [0] * RELOAD_CLIENTS
        stop = threading.Event()

        def canary_client(slot):
            while not stop.is_set():
                try:
                    served[slot] += len(live.advise_v1(probe))
                except Exception as exc:  # noqa: BLE001 — counted below
                    failures.append(exc)
                    return

        clients = [threading.Thread(target=canary_client, args=(k,))
                   for k in range(RELOAD_CLIENTS)]
        for t in clients:
            t.start()
        time.sleep(0.2)  # real load in flight before the rollout
        canary_version, start_s = timed(live.start_canary, ckpt_b,
                                        CANARY_FRACTION)
        time.sleep(0.3)  # accumulate per-arm counters under load
        # one foreground pass guarantees completed canary-arm batches are
        # in the counters before the mid-rollout snapshot (the concurrent
        # clients may all be inside the still-cold canary forward)
        live.advise_v1(probe)
        mid_stats = live.stats()["canary"]
        _, promote_s = timed(live.promote)
        time.sleep(0.2)  # keep serving across the promote boundary
        stop.set()
        for t in clients:
            t.join(timeout=60)
        with MultiModelEngine(ModelRegistry.from_checkpoint(ckpt_b)) as fresh:
            expected_new = fresh.advise_v1(probe)
        post_promote = live.advise_v1(probe)
        canary_stale = sum(
            1 for got, exp in zip(post_promote, expected_new)
            if abs(got.probability - exp.probability) > 1e-5
            or any(abs(got.clauses[n].probability - exp.clauses[n].probability)
                   > 1e-5 for n in exp.clauses))
        final_stats = live.stats()
        arms = mid_stats["arms"]
        canary_rollout = {
            "clients": RELOAD_CLIENTS,
            "fraction": CANARY_FRACTION,
            "probe_canary_slice": canary_slice,
            "version": canary_version,
            "requests_served": sum(served),
            "failed_requests": len(failures),
            "canary_requests": arms["canary"]["requests"],
            "canary_arm_errors": arms["canary"]["errors"],
            "primary_requests": arms["primary"]["requests"],
            "disagreement_rate": arms["canary"]["disagreement_rate"],
            "canary_latency_mean_ms": arms["canary"]["latency_mean_ms"],
            "primary_latency_mean_ms": arms["primary"]["latency_mean_ms"],
            "start_s": round(start_s, 4),
            "promote_s": round(promote_s, 4),
            "model_version": final_stats["model_version"],
            "outcome": final_stats["last_canary"]["outcome"],
            "stale_after_promote": canary_stale,
        }
        live.close()

    # -- autoscale burst: queue-depth resize between min and max shards ----
    autoscale_cfg = AutoscaleConfig(min_shards=1, max_shards=2,
                                    high_watermark=0.25, low_watermark=0.05,
                                    window=4, cooldown_s=0.5)
    with ShardedEngine(engine_factory, n_shards=1,
                       autoscale=autoscale_cfg) as scaled:
        stop = threading.Event()
        burst_errors: list = []

        def burst_client():
            while not stop.is_set():
                try:
                    scaled.advise_v1(trace[:64])
                except Exception as exc:  # noqa: BLE001 — counted below
                    burst_errors.append(exc)
                    return

        burst = [threading.Thread(target=burst_client) for _ in range(4)]
        burst_start = time.monotonic()
        for t in burst:
            t.start()
        while scaled.n_shards < 2 and time.monotonic() - burst_start < 30:
            time.sleep(0.05)
        grew_to = scaled.n_shards
        grow_s = time.monotonic() - burst_start
        stop.set()
        for t in burst:
            t.join(timeout=60)
        assert not burst_errors, burst_errors
        idle_start = time.monotonic()
        while scaled.n_shards > 1 and time.monotonic() - idle_start < 30:
            scaled.advise_v1(trace[:8])
        shrank_to = scaled.n_shards
        scaler_state = scaled.stats()["autoscaler"]
    autoscale_burst = {
        "config": {"min_shards": 1, "max_shards": 2,
                   "high_watermark": 0.25, "low_watermark": 0.05,
                   "window": 4, "cooldown_s": 0.5},
        "grew_to": grew_to,
        "grow_s": round(grow_s, 2),
        "shrank_to": shrank_to,
        "resizes": scaler_state["resizes"],
        "last_resize": scaler_state["last_resize"],
    }

    # -- fault injection: kill one of four shards mid-trace ----------------
    # the chaos schedule kills shard FAULT_KILL_SLOT on its 4th serving
    # call; every request must still be answered (retried on a healthy
    # shard — real verdicts, not degraded stubs), the supervisor must
    # respawn the slot, and nothing may hang or be lost
    fault_cfg = SupervisorConfig(request_timeout_s=5.0,
                                 heartbeat_interval_s=0.05,
                                 heartbeat_timeout_s=0.5,
                                 restart_backoff_s=0.01,
                                 restart_backoff_max_s=0.1)
    fault_chaos = ChaosConfig(kill_at=(FAULT_KILL_CALL,),
                              slots=(FAULT_KILL_SLOT,))
    fault_trace = trace[:64]
    fault_lat = []
    answered = 0
    lost_requests = 0
    recovery_s = None
    with ShardedEngine(engine_factory, n_shards=4, chaos=fault_chaos,
                       supervisor=fault_cfg) as faulted:
        for _ in range(FAULT_ROUNDS):
            round_start = time.perf_counter()
            try:
                got = faulted.advise_v1(fault_trace)
                answered += len(got)
                lost_requests += len(fault_trace) - len(got)
            except Exception:  # noqa: BLE001 — a lost round IS the regression
                lost_requests += len(fault_trace)
            fault_lat.append(time.perf_counter() - round_start)
            if recovery_s is None and (
                    faulted.stats()["supervisor"]["faults"] > 0):
                heal_start = time.monotonic()
                while time.monotonic() - heal_start < 30:
                    snap = faulted.stats()
                    if (snap["supervisor"]["restarts"] >= 1 and all(
                            "error" not in shard
                            for shard in snap["shards"])):
                        break
                    time.sleep(0.01)
                recovery_s = time.monotonic() - heal_start
        fault_sup = faulted.stats()["supervisor"]

    # -- admission under overload: shed with 429, never hang ---------------
    # OVERLOAD_CLIENTS simultaneous requests against max_inflight=1 and a
    # deliberately slow advisor: exactly the situation load shedding
    # exists for.  Every client must get a definitive answer — 200 or an
    # explicit 429 — and the shed counter must account for the rejects.
    overload_advisor = _SlowAdvisor(
        MultiModelEngine(registry, config=EngineConfig(max_batch_size=128)),
        delay_s=0.05)
    server = make_server(overload_advisor, port=0,
                         admission=AdmissionConfig(max_inflight=1,
                                                   retry_after_s=1.0))
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    host, port = server.server_address[:2]
    statuses: list = []
    status_lock = threading.Lock()
    start_line = threading.Barrier(OVERLOAD_CLIENTS)

    def overload_client(code):
        start_line.wait()
        request = urllib.request.Request(
            f"http://{host}:{port}/advise",
            data=json.dumps({"code": code}).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                status = resp.status
                resp.read()
        except urllib.error.HTTPError as err:
            status = err.code
            err.read()
        with status_lock:
            statuses.append(status)

    overload = [threading.Thread(target=overload_client, args=(codes[k],))
                for k in range(OVERLOAD_CLIENTS)]
    for t in overload:
        t.start()
    for t in overload:
        t.join(timeout=60)
    shed_counter = server.counters()["shed"]
    server.shutdown()
    server.server_close()
    server_thread.join(timeout=10)
    overload_advisor.inner.close()

    fault_injection = {
        "config": {"n_shards": 4, "kill_slot": FAULT_KILL_SLOT,
                   "kill_call_index": FAULT_KILL_CALL,
                   "request_timeout_s": fault_cfg.request_timeout_s},
        "rounds": FAULT_ROUNDS,
        "requests": FAULT_ROUNDS * len(fault_trace),
        "answered": answered,
        "answered_fraction": round(
            answered / (FAULT_ROUNDS * len(fault_trace)), 4),
        "lost_requests": lost_requests,
        "recovery_s": None if recovery_s is None else round(recovery_s, 3),
        "restarts": fault_sup["restarts"],
        "faults": fault_sup["faults"],
        "retries": fault_sup["retries"],
        "deadline_exceeded": fault_sup["deadline_exceeded"],
        "degraded_answers": fault_sup["degraded_answers"],
        "round_latency": _percentiles(fault_lat),
        # dimensionless: worst round (which eats the dead-worker detection
        # plus the retry) relative to the configured request deadline —
        # bounded means "no hang", which is gateable across machines
        "p99_vs_deadline": round(
            float(np.percentile(np.asarray(fault_lat), 99))
            / fault_cfg.request_timeout_s, 3),
        "admission": {
            "max_inflight": 1,
            "concurrent_clients": OVERLOAD_CLIENTS,
            "requests": OVERLOAD_CLIENTS,
            "ok_200": statuses.count(200),
            "shed_429": statuses.count(429),
            "shed_counter": shed_counter,
            "unanswered": OVERLOAD_CLIENTS - len(statuses),
        },
    }

    # -- dirty trace: hostile input through the full engine path -----------
    # the committed dirty corpus (tests/data/dirty) plus seeded fuzz
    # mutants ride along with clean traffic and an oversize snippet.
    # Contract: the engine never raises, answers every snippet, serves a
    # real model verdict for >= 90% of the trace (recovered lexing counts
    # as real), and only the snippets it *rejects* (byte cap) degrade —
    # all of it visible in the recovered/rejected counters bench_gate
    # holds CI to
    dirty_dir = (Path(__file__).resolve().parent.parent
                 / "tests" / "data" / "dirty")
    dirty_fixtures = [p.read_bytes().decode("utf-8", errors="replace")
                      for p in sorted(dirty_dir.glob("*.c"))]
    assert len(dirty_fixtures) >= 50, "dirty corpus fixtures missing"
    mutants = fuzz_corpus(trace[:32], n=DIRTY_MUTANTS, seed=DIRTY_FUZZ_SEED)
    oversize_snippet = "int big = 1; // " + "x" * 300_000  # > 256 KiB cap
    dirty_codes = (trace[:DIRTY_CLEAN_REQUESTS] + dirty_fixtures
                   + mutants + [oversize_snippet])
    dirty_engine = InferenceEngine(model, vocab, max_len=max_len,
                                   config=EngineConfig(max_batch_size=128))
    engine_exceptions = 0
    try:
        dirty_advices, dirty_elapsed = timed(dirty_engine.advise_many,
                                             dirty_codes)
    except Exception:  # noqa: BLE001 — an escape IS the regression
        engine_exceptions += 1
        dirty_advices, dirty_elapsed = [], float("nan")
    dirty_degraded = sum(1 for a in dirty_advices if a.degraded)
    dirty_stats = dirty_engine.stats.as_dict()
    dirty_trace_section = {
        "requests": len(dirty_codes),
        "clean_requests": DIRTY_CLEAN_REQUESTS,
        "corpus_fixtures": len(dirty_fixtures),
        "fuzz_mutants": len(mutants),
        "fuzz_seed": DIRTY_FUZZ_SEED,
        "snippets_per_s": round(len(dirty_codes) / dirty_elapsed, 1),
        "answered": len(dirty_advices),
        "unanswered": len(dirty_codes) - len(dirty_advices),
        "engine_exceptions": engine_exceptions,
        "degraded_answers": dirty_degraded,
        "advice_yield": round(
            1.0 - dirty_degraded / len(dirty_codes), 4),
        "recovered_snippets": dirty_stats["recovered"],
        "rejected": dirty_stats["rejected"],
        "rejected_oversize": dirty_stats["rejected_oversize"],
        "rejected_budget": dirty_stats["rejected_budget"],
        "rejected_error": dirty_stats["rejected_error"],
    }

    speedup = trace_throughput / seq_throughput
    report = {
        "workload": {
            "requests": len(trace),
            "distinct_snippets": len(set(trace)),
            "zipf_exponent": ZIPF_EXPONENT,
            "token_len_min": int(min(lengths)),
            "token_len_mean": round(float(np.mean(lengths)), 1),
            "token_len_max": int(max(lengths)),
        },
        "sequential_trace": {
            "snippets_per_s": round(seq_throughput, 1),
            "latency": _percentiles(seq_lat),
        },
        "engine_trace": {
            "snippets_per_s": round(trace_throughput, 1),
            "speedup_vs_sequential": round(speedup, 2),
        },
        "engine_trace_warm": {"snippets_per_s": round(len(trace) / warm_elapsed, 1)},
        "engine_async_trace": {
            "snippets_per_s": round(len(trace) / async_elapsed, 1),
            "latency": _percentiles(async_lat),
        },
        "all_distinct_cold": {
            "sequential_snippets_per_s": round(len(codes) / seq_distinct_elapsed, 1),
            "engine_snippets_per_s": round(len(codes) / cold_elapsed, 1),
            "speedup_vs_sequential": round(distinct_speedup, 2),
        },
        "shard_sweep": shard_sweep,
        "ipc": ipc_transport,
        "eviction_pressure": eviction_pressure,
        "clause_gating": clause_gating,
        "reload_under_load": reload_under_load,
        "canary_rollout": canary_rollout,
        "autoscale_burst": autoscale_burst,
        "fault_injection": fault_injection,
        "dirty_trace": dirty_trace_section,
        "stats": engine.stats.as_dict(),
    }
    # merge: bench_weight_sharing.py owns the report's weight_sharing
    # section; rerunning this file must refresh only its own sections
    path = write_bench_report("serving", report, merge=True)
    sweep_txt = ", ".join(f"{n}sh {shard_sweep[str(n)]['snippets_per_s']:.0f}/s"
                          for n in SHARD_COUNTS)
    print(f"\nengine on trace: {trace_throughput:.0f} snippets/s "
          f"({speedup:.1f}x sequential; distinct-cold {distinct_speedup:.2f}x); "
          f"shard sweep: {sweep_txt}; "
          f"ipc 2sh/1sh scaling {ipc_transport['queue_2shard_scaling']:.2f} "
          f"(crossover {ipc_transport['crossover_shards']}sh); "
          f"gating -{clause_gating['clause_request_reduction']:.0%} clause "
          f"requests on a {negative_frac:.0%}-negative trace; reload under "
          f"load {reload_under_load['reload_s'] * 1e3:.0f}ms with "
          f"{reload_under_load['failed_requests']} failures; canary "
          f"{canary_rollout['canary_requests']} req at "
          f"{CANARY_FRACTION:.0%} promoted in "
          f"{canary_rollout['promote_s'] * 1e3:.0f}ms with "
          f"{canary_rollout['failed_requests']} failures; autoscale "
          f"{grew_to}->{shrank_to} shards; chaos kill: "
          f"{fault_injection['answered']}/{fault_injection['requests']} "
          f"answered, {fault_injection['lost_requests']} lost, recovered in "
          f"{fault_injection['recovery_s']}s, "
          f"{fault_injection['admission']['shed_429']} shed under overload; "
          f"dirty trace {dirty_trace_section['advice_yield']:.0%} yield "
          f"({dirty_trace_section['recovered_snippets']} recovered, "
          f"{dirty_trace_section['rejected']} rejected); "
          f"report: {path}")

    assert speedup >= 5.0, f"engine only {speedup:.2f}x sequential on the trace"
    # near-parity expected on one core now that the sequential path shares
    # the fused hot path (see module docstring).  The floor only catches
    # pathologies: standalone the ratio measures ~1.0, but mid-suite runs
    # (heap/GC churn from earlier model training) have been observed as low
    # as ~0.4, so a tighter bound would flake there — absolute snippets/s
    # are recorded in the report for trajectory tracking instead
    assert distinct_speedup >= 0.3, "batching pathologically slower than sequential"
    assert engine.stats.cache_hits >= len(trace)  # warm pass served from LRU
    assert set(shard_sweep) == {str(n) for n in SHARD_COUNTS}
    # ipc: the 2-shard sharding tax within noise of flat (the committed
    # report is gated tighter by scripts/bench_gate.py; the in-run floor
    # only catches collapses, not single-run spawn noise)
    assert ipc_transport["queue_2shard_scaling"] >= 0.5
    assert eviction_pressure["evictions"] > 0, "pressure pass must evict"
    # clause gating: fewer clause-head requests AND batches on the
    # majority-negative trace, with zero verdict drift on fanned snippets
    assert (clause_gating["gated"]["clause_requests"]
            < clause_gating["ungated"]["clause_requests"])
    assert (clause_gating["gated"]["clause_batches"]
            <= clause_gating["ungated"]["clause_batches"])
    assert clause_gating["clause_request_reduction"] >= 0.3, (
        "gating saved too little on a majority-negative trace")
    assert clause_gating["verdict_mismatches"] == 0
    # hot reload: nothing dropped, nothing stale
    assert reload_under_load["failed_requests"] == 0
    assert reload_under_load["stale_predictions_after_swap"] == 0
    assert reload_under_load["model_version"].startswith("v1:")
    assert reload_under_load["requests_served"] > 0
    # canary rollout: nothing dropped, the canary slice actually served,
    # no canary-arm errors, and post-promote verdicts from the new weights
    assert canary_rollout["failed_requests"] == 0
    assert canary_rollout["canary_arm_errors"] == 0
    assert canary_rollout["canary_requests"] >= 1
    assert canary_rollout["stale_after_promote"] == 0
    assert canary_rollout["outcome"] == "promoted"
    assert canary_rollout["model_version"] == canary_rollout["version"]
    # autoscaler: the burst grew the fleet, idleness shrank it back
    assert autoscale_burst["grew_to"] == 2, "burst must reach max_shards"
    assert autoscale_burst["shrank_to"] == 1, "idle fleet must shrink to min"
    assert autoscale_burst["resizes"] >= 2
    # fault injection: a killed shard loses nothing — every request
    # answered for real, the slot respawned, latency bounded by deadlines
    assert fault_injection["lost_requests"] == 0
    assert fault_injection["answered_fraction"] == 1.0
    assert fault_injection["faults"] >= 1, "the chaos kill must be observed"
    assert fault_injection["restarts"] >= 1, "the slot must be respawned"
    assert fault_injection["degraded_answers"] == 0, (
        "three healthy shards remain; answers must be real, not degraded")
    assert fault_injection["recovery_s"] is not None
    assert fault_injection["recovery_s"] < 30
    # overload: every client answered definitively — 200 or explicit 429 —
    # and the server's shed counter accounts for the rejects
    admission = fault_injection["admission"]
    assert admission["unanswered"] == 0
    assert admission["ok_200"] >= 1
    assert admission["shed_429"] >= 1, "overload must actually shed"
    assert admission["shed_counter"] >= admission["shed_429"]
    # dirty trace: nothing escapes, everything answered, real verdicts for
    # at least 90% of the trace, the recovery counters visibly engaged
    assert dirty_trace_section["engine_exceptions"] == 0
    assert dirty_trace_section["unanswered"] == 0
    assert dirty_trace_section["advice_yield"] >= 0.9
    assert dirty_trace_section["recovered_snippets"] >= 1
    assert dirty_trace_section["rejected_oversize"] >= 1
