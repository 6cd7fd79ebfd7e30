"""The four benchmark workloads, run in one child process per invocation.

``run.py`` starts this file with a clean environment and hygiene checks
around it; run it directly only for debugging::

    PYTHONPATH=src python3 perfbench/workloads.py --workload cold_advise \\
        --seed 1 --seconds 10 --trace 0

Every workload builds its inputs from ``--seed`` (see :func:`make_inputs`),
starts its system up several times in fresh processes (``setup_s`` is the
median), builds it once more to measure for ``--seconds``, checks the
outputs, and prints one JSON result line.  With
``--trace 1`` it instead runs the workload twice for half the time each,
untraced then traced, and reports the per-layer metrics (README.md has
the definitions and the layer -> metric -> workload map).
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import math
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    WORKLOADS,
    Calibrator,
    OpenLoopResult,
    PeakPss,
    arrival_times,
    chunks,
    digest,
    emit,
    environment,
    median,
    metric,
    run_open_loop,
    tail,
)
from tracer import Tracer  # noqa: E402

from repro.clang.fuzz import fuzz_corpus  # noqa: E402
from repro.clang.lexer import KEYWORDS  # noqa: E402
from repro.clang.parser import TYPE_NAMES  # noqa: E402
from repro.corpus import CorpusConfig, build_corpus  # noqa: E402
from repro.data.encoding import encode_batch, pad_encoded  # noqa: E402
from repro.models import PragFormer, PragFormerConfig  # noqa: E402
from repro.serve import (  # noqa: E402
    EngineConfig,
    InferenceEngine,
    ModelRegistry,
    MultiModelEngine,
)
from repro.tokenize import ERROR_TOKEN, Vocab, robust_text_tokens, \
    text_tokens  # noqa: E402

HEADS = ("directive", "private", "reduction")

#: end-to-end metrics, every one reported by every workload (README.md
#: says what each means per workload)
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "pss_mb": "MB",
}
#: per-layer metrics of the traced run; 0 where a layer does not run
PER_LAYER = {
    "clang.lex_ms": "ms",
    "clang.lex_calls": "count",
    "clang.recovered_frac": "ratio",
    "tokenize.encode_ms": "ms",
    "tokenize.real_tokens": "count",
    "engine.forward_ms": "ms",
    "engine.pad_ratio": "ratio",
    "engine.rows_per_forward": "count",
    "engine.queue_wait_ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "nn.attention_ms": "ms",
    "nn.ffn_ms": "ms",
    "nn.norm_ms": "ms",
    "nn.embed_ms": "ms",
    "nn.head_ms": "ms",
    "nn.fwd_ms": "ms",
    "nn.bwd_ms": "ms",
    "optim.step_ms": "ms",
    "optim.clip_ms": "ms",
    "ddp.reduce_ops_per_step": "count",
    "ddp.grad_mb_per_step": "MB",
    "ddp.rank_imbalance": "ratio",
    "ddp.wait_ms": "ms",
    "registry.clause_rows_frac": "ratio",
    "registry.reload_ms": "ms",
    "sharding.route_imbalance": "ratio",
    "sharding.ring_sends": "count",
    "sharding.ring_overflows": "count",
    "sharding.queue_sends": "count",
    "sharding.degraded_answers": "count",
    "sharding.restarts": "count",
    "http.shed": "count",
    "http.req_kb": "kB",
    "http.resp_kb": "kB",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

# -- workload constants (fixed once; changing one redefines the benchmark) --
TOL = 1e-6                 # probability agreement for the output checks
CHECK_SAMPLE = 64          # seeded results re-derived per in-process check
SETUP_REPS = 5             # fresh-process start-ups per run (median reported)
SETUP_CAL_PASSES = 8       # calibration passes before each start-up
COLD_CORPUS = 1500         # corpus records behind the cold stream
COLD_STREAM_PER_S = 1500   # distinct snippets per second of run (~3x seed)
COLD_BATCH = 8             # snippets per advise_v1 call
COLD_WARM = 64             # snippets of the untimed process warm-up
HTTP_CORPUS = 600          # corpus records behind the Zipf trace
HTTP_BATCH = 16            # snippets per /v1/advise/batch call
HTTP_WARM_CALLS = 16       # untimed calls before the timed phase
HTTP_CONN_S = 2.0          # seconds one connection serves before the next opens
HTTP_ZIPF = 1.35
HTTP_GATE = 0.05
HTTP_RELOADS = 2           # at 1/3 and 2/3 of the run: to checkpoint b, back
HTTP_ROWS_PER_S = 20000    # Zipf draws per second of run (~70x seed)
OPEN_CORPUS = 1500         # corpus records behind the open-loop mix
OPEN_HOT = 64              # hot snippets (warmed before timing)
OPEN_WARM = (200.0, 0.05)  # (rate, share of the phase) discarded warm-up
#: (rate req/s, share of the phase); chosen once from the seed commit's
#: capacity on a 2-vCPU VM (p99 ~65 ms at 1600 req/s) and never
#: recomputed: the middle rung passes with room, the top one cannot
OPEN_LADDER = ((200.0, 0.25), (400.0, 0.65), (4000.0, 0.05))
OPEN_MIDDLE = 1            # ladder index whose latencies are reported
OPEN_SLO_MS = 100.0        # p99 limit behind the highest passing rung
OPEN_SEGMENT_S = 1.0       # a rung runs in segments this long ...
OPEN_CAL_PASSES = 4        # ... with this many calibration passes before each
OPEN_MIX = (0.50, 0.35, 0.15)  # hot, fresh clean, fresh dirty
TRAIN_CORPUS = 700
TRAIN_EXAMPLES = 256       # examples per fit() call (one epoch)
TRAIN_WORKERS = 2
TRAIN_CYCLE = ("ddp", "1proc", "1proc")  # fits per round of the timed loop
TRAIN_CAL_PASSES = 4       # calibration passes before each fit


# -- inputs ------------------------------------------------------------------------

def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _corpus(rng: np.random.Generator, n_records: int):
    """Distinct clean snippets (by token sequence) with their labels."""
    corpus = build_corpus(CorpusConfig(n_records=n_records,
                                       seed=int(rng.integers(2**31))))
    seen, codes, labels, tokens = set(), [], [], []
    for record in corpus.records:
        toks = tuple(text_tokens(record.code))
        if toks in seen:
            continue
        seen.add(toks)
        codes.append(record.code)
        labels.append(int(record.directive is not None))
        tokens.append(toks)
    return codes, labels, tokens


_IDENT = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")


def _variants(codes: List[str], n: int,
              rng: np.random.Generator) -> List[str]:
    """``n`` new snippets, each a corpus snippet with its identifiers
    consistently renamed to other identifiers of the corpus.

    Variants keep the corpus' shapes and vocabulary (every name is a
    known token) while differing in text and token ids, so a stream of
    them stays cold for every cache without generating a corpus per
    snippet.  Variants equal to an earlier snippet are dropped."""
    names = ({m.group(0) for code in codes for m in _IDENT.finditer(code)}
             - set(KEYWORDS) - set(TYPE_NAMES))
    pool = sorted(names)
    seen = set(codes)
    out: List[str] = []
    while len(out) < n:
        code = codes[int(rng.integers(len(codes)))]
        own = sorted({m.group(0) for m in _IDENT.finditer(code)} & names)
        picks = rng.integers(len(pool), size=len(own))
        mapping = {name: pool[k] for name, k in zip(own, picks)}
        variant = _IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)),
                             code)
        if variant not in seen:
            seen.add(variant)
            out.append(variant)
    return out


def _head_split(model: PragFormer, vocab: Vocab, tokens) -> Tuple[float, float]:
    """(positive share, gated share) of a head's verdicts on ``tokens``."""
    split = encode_batch(tokens, vocab, model.config.max_len)
    p = model.predict_proba(split)[:, 1]
    return float((p > 0.5).mean()), float((p <= 0.5 - HTTP_GATE).mean())


def _save_checkpoint(path: str, vocab: Vocab, seed_base: int,
                     sample=None) -> List[int]:
    """Save a three-head advisor of untrained seeded models to ``path``.

    With ``sample`` the directive head's seed is scanned upward from
    ``seed_base`` until its verdicts split both ways and at least a tenth
    of the sample falls under the clause gate, so gating does real work.
    Returns the head seeds used."""
    directive_seed = seed_base
    if sample is not None:
        for directive_seed in range(seed_base, seed_base + 200):
            positive, gated = _head_split(
                PragFormer(len(vocab), rng=directive_seed), vocab, sample)
            if 0.25 <= positive <= 0.75 and gated >= 0.10:
                break
        else:
            raise RuntimeError("no directive head seed splits the sample")
    seeds = [directive_seed, seed_base + 1001, seed_base + 2002]
    registry = ModelRegistry()
    for name, head_seed in zip(HEADS, seeds):
        registry.register(name, PragFormer(len(vocab), rng=head_seed), vocab)
    registry.save(path)
    return seeds


def make_inputs(workload: str, seed: int, work_dir: str,
                seconds: float) -> Dict[str, object]:
    """Everything a workload feeds the program, derived from ``seed``.

    ``seconds`` sizes the streams, with room for a program several times
    faster than the seed commit.  The returned ``digest`` covers every
    generated input, so equal digests mean the program saw equal inputs."""
    rng = _rng(seed, workload)
    inp: Dict[str, object] = {"workload": workload, "seed": seed}
    described: Dict[str, object] = {"workload": workload}
    os.makedirs(work_dir, exist_ok=True)
    if workload == "cold_advise":
        base, _, tokens = _corpus(rng, COLD_CORPUS)
        vocab = Vocab.build(tokens)
        ckpt = os.path.join(work_dir, "ckpt_a")
        seeds = _save_checkpoint(ckpt, vocab, int(rng.integers(1, 2**20)))
        stream = int(COLD_STREAM_PER_S * seconds) + COLD_WARM
        codes = base + _variants(base, max(0, stream - len(base)), rng)
        codes = [codes[i] for i in rng.permutation(len(codes))]
        warm, codes = codes[:COLD_WARM], codes[COLD_WARM:]
        # checked results come from the stream's head, which every run
        # reaches, so the check never depends on how fast the run was
        check_idx = sorted(rng.choice(min(len(codes), 8 * CHECK_SAMPLE),
                                      size=CHECK_SAMPLE, replace=False))
        inp.update(codes=codes, warm=warm, ckpt=ckpt,
                   check_idx=[int(i) for i in check_idx])
        described.update(codes=codes, warm=warm, seeds=seeds,
                         check_idx=inp["check_idx"])
    elif workload == "http_fleet":
        codes, _, tokens = _corpus(rng, HTTP_CORPUS)
        vocab = Vocab.build(tokens)
        sample = tokens[:128]
        ckpts, seeds = [], []
        for tag in ("a", "b"):
            path = os.path.join(work_dir, f"ckpt_{tag}")
            seeds.append(_save_checkpoint(path, vocab,
                                          int(rng.integers(1, 2**20)),
                                          sample=sample))
            ckpts.append(path)
        n_rows = int(HTTP_ROWS_PER_S * seconds) + HTTP_WARM_CALLS * HTTP_BATCH
        ranks = np.minimum(rng.zipf(HTTP_ZIPF, size=n_rows) - 1,
                           len(codes) - 1)
        inp.update(codes=codes, ckpts=ckpts, ranks=ranks)
        described.update(codes=codes, seeds=seeds,
                         ranks=digest(ranks.tolist()))
    elif workload == "open_loop_mixed":
        phases_s = [(rate, share * seconds)
                    for rate, share in (OPEN_WARM,) + OPEN_LADDER]
        need = sum(rate * dur for rate, dur in phases_s)
        codes, _, tokens = _corpus(rng, OPEN_CORPUS)
        vocab = Vocab.build(tokens)
        ckpt = os.path.join(work_dir, "ckpt_a")
        seeds = _save_checkpoint(ckpt, vocab, int(rng.integers(1, 2**20)))
        hot, base, fresh = codes[:OPEN_HOT], codes[-200:], codes[OPEN_HOT:-200]
        n_fresh = int(1.3 * OPEN_MIX[1] * need) + 64
        fresh += _variants(fresh, max(0, n_fresh - len(fresh)), rng)
        dirty = iter(fuzz_corpus(base, int(1.3 * OPEN_MIX[2] * need) + 64,
                                 seed=int(rng.integers(2**31))))
        fresh_it = iter(fresh)
        phases = []
        for rate, duration in phases_s:
            due = arrival_times(rng, rate, duration)
            kinds = rng.choice(3, size=len(due), p=OPEN_MIX)
            picks = rng.integers(len(hot), size=len(due))
            payloads = [hot[pick] if kind == 0
                        else next(fresh_it) if kind == 1 else next(dirty)
                        for kind, pick in zip(kinds, picks)]
            phases.append({"rate": rate, "due": due, "kinds": kinds,
                           "codes": payloads})
        inp.update(hot=hot, ckpt=ckpt, phases=phases,
                   check_rng=int(rng.integers(2**31)))
        described.update(hot=hot, seeds=seeds, phases=[
            [p["rate"], p["due"].round(9).tolist(), p["kinds"].tolist(),
             p["codes"]] for p in phases])
    elif workload == "train_ddp":
        codes, labels, tokens = _corpus(rng, TRAIN_CORPUS)
        n = min(TRAIN_EXAMPLES, len(codes))
        pick = rng.permutation(len(codes))[:n]
        codes = [codes[i] for i in pick]
        labels = [labels[i] for i in pick]
        vocab = Vocab.build([tokens[i] for i in pick])
        model_seed = int(rng.integers(1, 2**20))
        spec = os.path.join(work_dir, "train.json")
        with open(spec, "w") as fh:
            json.dump({"codes": codes, "labels": labels,
                       "vocab": [vocab.id_to_token(i)
                                 for i in range(len(vocab))],
                       "model_seed": model_seed}, fh)
        inp.update(codes=codes, labels=labels, vocab=vocab,
                   model_seed=model_seed, spec=spec)
        described.update(codes=codes, labels=labels, model_seed=model_seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inp["digest"] = digest(described)
    return inp


# -- instrumentation ------------------------------------------------------------------

class Instrumented:
    """The traced run's view of the program: spans from ``tracer`` plus
    the few values read from wrapped calls' arguments."""

    def __init__(self, tracer: Tracer) -> None:
        import repro.serve.engine as engine_mod
        import repro.serve.registry as registry_mod
        from repro.nn.attention import MultiHeadSelfAttention
        from repro.nn.heads import ClassificationHead
        from repro.nn.layers import Embedding, LayerNorm, ResidualLayerNorm
        from repro.nn.optim import FusedAdamW
        from repro.nn.transformer import FeedForward, TransformerEncoder
        from repro.train.ddp import DataParallelTrainer

        self.tracer = tracer
        self.submitted: Dict[int, float] = {}
        self.queue_waits: List[float] = []
        wrap = tracer.wrap

        def note_lex(span, args, kwargs, result):
            span.args = {"recovered": ERROR_TOKEN in result}

        def note_encode(span, args, kwargs, result):
            span.args = {"tokens": int(len(result))}

        def note_rows(span, args, kwargs, result):
            span.args = {"rows": int(len(result))}

        def note_encoder(span, args, kwargs, result):
            ids = args[1]
            mask = args[2] if len(args) > 2 else kwargs.get("mask")
            real = int(mask.sum()) if mask is not None else int(ids.size)
            span.args = {"cells": int(ids.size), "real": real}

        def note_submit(span, args, kwargs, result):
            self.submitted[id(result)] = span.end

        def note_flush(span, args, kwargs, result):
            for item in args[1]:
                sent = self.submitted.pop(id(item[-1]), None)
                if sent is not None:
                    self.queue_waits.append(span.start - sent)

        # the engine and registry each resolve the lexer from their own
        # module globals when an engine is built
        wrap(registry_mod, "robust_text_tokens", "clang.lex", note_lex)
        wrap(engine_mod, "robust_text_tokens", "clang.lex", note_lex)
        wrap(Vocab, "encode", "tokenize.encode", note_encode)
        wrap(PragFormer, "predict_proba", "engine.forward", note_rows)
        wrap(InferenceEngine, "submit", "engine.submit", note_submit)
        wrap(InferenceEngine, "_flush", "engine.flush", note_flush)
        wrap(TransformerEncoder, "forward", "nn.encoder", note_encoder)
        wrap(TransformerEncoder, "backward", "nn.encoder_bwd")
        wrap(MultiHeadSelfAttention, "forward", "nn.attention")
        wrap(FeedForward, "forward", "nn.ffn")
        wrap(LayerNorm, "forward", "nn.norm")
        wrap(ResidualLayerNorm, "forward", "nn.norm")
        wrap(Embedding, "forward", "nn.embed")
        wrap(ClassificationHead, "forward", "nn.head")
        wrap(ClassificationHead, "backward", "nn.head_bwd")
        wrap(FusedAdamW, "step", "optim.step")
        wrap(FusedAdamW, "clip_grad_norm", "optim.clip")
        wrap(DataParallelTrainer, "run_epoch", "ddp.epoch")

    def close(self) -> None:
        self.tracer.restore()

    # -- per-layer figures ----------------------------------------------------------

    def _mean_ms(self, name: str) -> float:
        spans = self.tracer.select(name)
        return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0

    def layer_metrics(self, steps: int = 0,
                      ddp_roots: Optional[set] = None) -> Dict[str, float]:
        """Figures computed from spans; ``steps`` is the number of
        optimizer steps taken by the fits under ``ddp_roots``."""
        t = self.tracer
        out: Dict[str, float] = {}
        lex = t.select("clang.lex")
        out["clang.lex_ms"] = self._mean_ms("clang.lex")
        out["clang.lex_calls"] = float(len(lex))
        out["clang.recovered_frac"] = (
            sum(s.args["recovered"] for s in lex) / len(lex) if lex else 0.0)
        enc = t.select("tokenize.encode")
        out["tokenize.encode_ms"] = self._mean_ms("tokenize.encode")
        out["tokenize.real_tokens"] = (
            sum(s.args["tokens"] for s in enc) / len(enc) if enc else 0.0)
        fwd = t.select("engine.forward")
        out["engine.forward_ms"] = self._mean_ms("engine.forward")
        out["engine.rows_per_forward"] = (
            sum(s.args["rows"] for s in fwd) / len(fwd) if fwd else 0.0)
        encoders = t.select("nn.encoder")
        real = sum(s.args["real"] for s in encoders)
        out["engine.pad_ratio"] = (
            sum(s.args["cells"] for s in encoders) / real if real else 0.0)
        out["engine.queue_wait_ms"] = (
            1e3 * float(np.mean(self.queue_waits)) if self.queue_waits else 0.0)
        n_fwd = len(encoders)
        for layer in ("attention", "ffn", "norm", "embed", "head"):
            total = t.total(f"nn.{layer}", self_time=True)
            out[f"nn.{layer}_ms"] = 1e3 * total / n_fwd if n_fwd else 0.0
        if steps and ddp_roots:
            per_step = lambda names: 1e3 * sum(  # noqa: E731
                t.total(n, ddp_roots) for n in names) / steps
            out["nn.fwd_ms"] = per_step(("nn.encoder", "nn.head"))
            out["nn.bwd_ms"] = per_step(("nn.encoder_bwd", "nn.head_bwd"))
            out["optim.step_ms"] = per_step(("optim.step",))
            out["optim.clip_ms"] = per_step(("optim.clip",))
            epochs = t.select("ddp.epoch", ddp_roots)
            own = sum(t.total(n, ddp_roots) for n in (
                "nn.encoder", "nn.head", "nn.encoder_bwd", "nn.head_bwd",
                "optim.step", "optim.clip"))
            out["ddp.wait_ms"] = 1e3 * (sum(s.duration for s in epochs)
                                        - own) / steps
        out["trace.coverage_frac"] = t.coverage()
        return out


def _finish_layers(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, 0 where the workload never ran the layer."""
    return {name: metric(values.get(name, 0.0), unit)
            for name, unit in PER_LAYER.items()}


def _engine_layer_stats(stats: Dict[str, object]) -> Dict[str, float]:
    """Cache and clause-fan-out ratios from a ``MultiModelEngine.stats()``
    (or a per-shard sum of them)."""
    heads = stats["heads"]
    combined = stats["combined"]
    lookups = combined["cache_hits"] + combined["cache_misses"]
    clause = [h for h in heads if h != "directive"]
    directive_rows = heads["directive"]["requests"]
    clause_rows = sum(heads[h]["requests"] for h in clause)
    return {
        "engine.cache_hit_ratio": combined["cache_hits"] / lookups
        if lookups else 0.0,
        "registry.clause_rows_frac": clause_rows / (directive_rows * len(clause))
        if directive_rows and clause else 0.0,
    }


# -- reference checks -------------------------------------------------------------------

def _reference_probs(model: PragFormer, vocab: Vocab, max_len: int,
                     codes: List[str]) -> np.ndarray:
    """P(+) straight from ``PragFormer.predict_proba`` on encoded rows."""
    rows = [vocab.encode(robust_text_tokens(code), max_len=max_len)
            for code in codes]
    return model.predict_proba(pad_encoded(rows, vocab.pad_id))[:, 1]


def _mismatches(results, codes: List[str], ckpt: str) -> int:
    """Results whose head probabilities differ from ``predict_proba`` on
    the checkpoint by more than ``TOL``."""
    registry = ModelRegistry.from_checkpoint(ckpt)
    bad = np.zeros(len(codes), dtype=bool)
    for name in HEADS:
        head = registry.get(name)
        ref = _reference_probs(head.model, head.vocab, head.max_len, codes)
        got = np.array([r.probability if name == "directive"
                        else r.clauses[name].probability for r in results])
        bad |= np.abs(got - ref) > TOL
    bad |= np.array([r.degraded for r in results])
    return int(bad.sum())


# -- shared runner plumbing -------------------------------------------------------------

def _start_up(kind: str, path: str) -> float:
    """Seconds from spawning a fresh interpreter until it has built the
    ``kind`` system from ``path`` and says so: the imports, the checkpoint
    load and the construction a user waits for when the advisor starts."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--ready", kind, path],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError(f"{kind} start-up failed")
    return elapsed


def _ready(kind: str, path: str) -> None:
    """The fresh interpreter's side of :func:`_start_up`."""
    system = None
    if kind == "cold":
        system = _build_cold_engine(path)
    elif kind == "open":
        system = _build_open_engine(path)
    else:
        with open(path) as fh:
            spec = json.load(fh)
        vocab = Vocab(spec["vocab"])
        _encode_split(spec["codes"], spec["labels"], vocab)
        PragFormer(len(vocab), rng=spec["model_seed"])
    print("ready", flush=True)
    if system is not None:
        system.close()


def _setups(start_up: Callable[[], float]) -> Dict[str, object]:
    """Median of ``SETUP_REPS`` start-ups, as measured and normalised by
    a calibration point taken just before each."""
    cal, times, norm = Calibrator(), [], []
    for _ in range(SETUP_REPS):
        cal.sample(SETUP_CAL_PASSES)
        times.append(start_up())
        norm.append(times[-1] * cal.scale)
    return {"s": median(times), "norm_s": median(norm), "reps": len(times),
            "calibration": cal.report()}


def _recording(tracer: Optional[Tracer]):
    """The tracer's recording window, or nothing on an untraced run."""
    return tracer.recording() if tracer else contextlib.nullcontext()


def _nospan(name: str):
    return contextlib.nullcontext()


def _spanner(tracer: Optional[Tracer]) -> Callable:
    """``span(name)`` context manager: the tracer's, or one doing nothing."""
    return tracer.span if tracer else _nospan


def _named(value: float, unit: str, samples: int) -> Dict[str, object]:
    """One named figure with the sample count behind it."""
    return {"value": value, "unit": unit, "samples": samples}


def _outcome(attempted: int, failed: int, setup: Dict[str, object],
             cal: Calibrator, measured: Dict[str, float],
             normalised: Dict[str, float], pss: PeakPss,
             named: Dict[str, object], layers: Dict[str, float],
             **extra) -> Dict[str, object]:
    """What every runner returns: counts, the end-to-end metrics as
    measured, the ones the workload reports normalised by the calibration
    kernel (README.md says which and why), the named figures with sample
    counts, and per-layer inputs."""
    measured = {"setup_s": setup["s"], **measured, "pss_mb": pss.peak_mb}
    named = {"setup_s": _named(setup["s"], "s", setup["reps"]), **named,
             "pss_mb": _named(pss.peak_mb, "MB", pss.samples)}
    return {"attempted": attempted, "failed": failed,
            "measured": measured, "normalised": normalised,
            "reported": {**measured, **normalised},
            "calibration": {"setup": setup["calibration"],
                            "timed": cal.report()},
            "named": named, "layers": layers, **extra}


# -- cold_advise ------------------------------------------------------------------------

def _build_cold_engine(ckpt: str) -> MultiModelEngine:
    return MultiModelEngine(ModelRegistry.from_checkpoint(ckpt))


def cold_advise(inp, seconds: float, inst: Optional[Instrumented]):
    codes, ckpt = inp["codes"], inp["ckpt"]
    # process warm-up on snippets outside the pool: first-touch page
    # faults and allocator growth are not what a cold request costs
    with _build_cold_engine(ckpt) as warm:
        for batch in chunks(inp["warm"], COLD_BATCH):
            warm.advise_v1(batch)
    setup = _setups(lambda: _start_up("cold", ckpt))
    engine = _build_cold_engine(ckpt)
    check = set(inp["check_idx"])
    checked: Dict[int, object] = {}
    latencies, norm_latencies, answered, failed = [], [], 0, 0
    tracer = inst.tracer if inst else None
    span = _spanner(tracer)
    cal, paused = Calibrator(), 0.0
    try:
        with _recording(tracer), PeakPss(os.getpid()) as pss:
            start = time.perf_counter()
            for k, batch in enumerate(chunks(codes, COLD_BATCH)):
                paused += cal.tick()
                if time.perf_counter() - start - paused >= seconds:
                    break
                t0 = time.perf_counter()
                try:
                    with span("cold.call"):
                        results = engine.advise_v1(batch)
                except Exception:  # noqa: BLE001 - counted, run goes on
                    failed += len(batch)
                    continue
                latencies.append(time.perf_counter() - t0)
                norm_latencies.append(latencies[-1] * cal.scale)
                answered += len(results)
                for j, res in enumerate(results, start=k * COLD_BATCH):
                    if j in check:
                        checked[j] = res
            else:
                failed += 1  # the stream ran out before the time did
            elapsed = time.perf_counter() - start - paused
            norm_elapsed = cal.normalised_s()
        stats = engine.stats()
    finally:
        engine.close()
    attempted = answered + failed
    idx = sorted(checked)
    failed += _mismatches([checked[i] for i in idx], [codes[i] for i in idx],
                          ckpt)
    rate = answered / elapsed
    q, tail_s = tail(latencies, cap=90.0)
    return _outcome(
        attempted, failed, setup, cal,
        measured={"throughput_per_s": rate,
                  "latency_p50_ms": 1e3 * median(latencies),
                  "latency_tail_ms": 1e3 * tail_s},
        normalised={"setup_s": setup["norm_s"],
                    "throughput_per_s": answered / norm_elapsed,
                    "latency_p50_ms": 1e3 * median(norm_latencies),
                    "latency_tail_ms": 1e3 * tail(norm_latencies, q)[1]},
        pss=pss,
        named={"snippets_per_s": _named(rate, "1/s", answered),
               "call_p50_ms": _named(1e3 * median(latencies), "ms",
                                     len(latencies)),
               f"call_p{q:g}_ms": _named(1e3 * tail_s, "ms", len(latencies))},
        layers=_engine_layer_stats(stats))


# -- http_fleet -------------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``repro serve --http`` in its own process, pinned to two shards."""

    def __init__(self, ckpt: str, log_path: str) -> None:
        self.port = _free_port()
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--http", str(self.port), "--watch", ckpt,
             "--shards", "2", "--min-shards", "2", "--max-shards", "2",
             "--gate-margin", str(HTTP_GATE)],
            cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=10)
                conn.request("GET", "/v1/healthz")
                resp = conn.getresponse()
                body = json.loads(resp.read())
                conn.close()
                if resp.status == 200 and body.get("heads"):
                    return
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("server did not become healthy")
            time.sleep(0.01)

    def close(self) -> bool:
        """Stop with SIGINT (the CLI's clean shutdown); ``False`` when it
        had to be killed."""
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return clean


def _connect(port: int) -> http.client.HTTPConnection:
    """Keep-alive client connection with Nagle's algorithm off, as curl
    and urllib3 set it by default."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _post(conn, path: str, payload, span=_nospan) -> Tuple[int, bytes, int]:
    """``(status, response body, request bytes)`` of one POST."""
    with span("http.encode"):
        body = json.dumps(payload).encode("utf-8")
    with span("http.roundtrip"):
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
    return resp.status, raw, len(body)


def _get_stats(conn) -> Dict[str, object]:
    conn.request("GET", "/v1/stats")
    resp = conn.getresponse()
    return json.loads(resp.read())


def _fleet_delta(before, after) -> Dict[str, float]:
    """Per-layer figures from two ``/v1/stats`` snapshots."""
    eb, ea = before["engine"], after["engine"]
    routed = np.array(ea["routed"][:2]) - np.array(eb["routed"][:2])

    def summed(stats):
        heads: Dict[str, Dict[str, int]] = {}
        for shard in stats["shards"]:
            for name, h in shard["heads"].items():
                acc = heads.setdefault(name, {"requests": 0})
                acc["requests"] += h["requests"]
        return {"heads": heads, "combined": stats["combined"]}

    sb, sa = summed(eb), summed(ea)
    delta = {
        "heads": {name: {"requests": sa["heads"][name]["requests"]
                         - sb["heads"][name]["requests"]}
                  for name in sa["heads"]},
        "combined": {k: sa["combined"][k] - sb["combined"][k]
                     for k in ("cache_hits", "cache_misses")},
    }
    out = _engine_layer_stats(delta)
    diff = lambda block, key: float(ea[block][key] - eb[block][key])  # noqa: E731
    out.update({
        "sharding.route_imbalance": float(routed.max() / routed.mean())
        if routed.mean() > 0 else 0.0,
        "sharding.ring_sends": diff("ipc", "ring_sends"),
        "sharding.ring_overflows": diff("ipc", "ring_overflows"),
        "sharding.queue_sends": diff("ipc", "queue_serving_sends"),
        "sharding.degraded_answers": diff("supervisor", "degraded_answers"),
        "sharding.restarts": diff("supervisor", "restarts"),
        "http.shed": float(after["http"]["shed"] - before["http"]["shed"]),
    })
    return out


def _is_answer(body) -> bool:
    """A row that answers its snippet: ``/v1/advise/batch`` reports a bad
    item as ``{"id", "error"}`` inside a 200 reply, with no model_version."""
    return "error" not in body and "model_version" in body


def _check_fleet(rows, codes: List[str], ckpts: List[str]) -> int:
    """Rows whose answer differs from an in-process engine on the
    checkpoint its ``model_version`` names.  Responses carry probabilities
    rounded to 6 decimals, so they are compared with the reference's
    unrounded values: rounding moves them by at most 5e-7 of ``TOL``."""
    by_name = {os.path.basename(p): p for p in ckpts}
    answered = [(idx, body) for idx, body in rows if _is_answer(body)]
    bad = len(rows) - len(answered)
    wanted: Dict[str, set] = {}
    for idx, body in answered:
        wanted.setdefault(body["model_version"], set()).add(idx)
    refs = {}
    for version, idxs in wanted.items():
        name = version.split(":", 1)[1] if ":" in version else "ckpt_a"
        path = by_name.get(name)
        if path is None:
            continue
        idxs = sorted(idxs)
        with MultiModelEngine(ModelRegistry.from_checkpoint(path),
                              EngineConfig(gate_margin=HTTP_GATE)) as ref:
            for idx, res in zip(idxs, ref.advise_v1([codes[i] for i in idxs])):
                refs[(version, idx)] = res
    for idx, body in answered:
        ref = refs.get((body["model_version"], idx))
        if (ref is None or body.get("degraded")
                or body["needs_directive"] != ref.verdict
                or abs(body["p_directive"] - ref.probability) > TOL
                or set(body["clauses"]) != set(ref.clauses)
                or any(abs(c["probability"] - ref.clauses[n].probability) > TOL
                       for n, c in body["clauses"].items())):
            bad += 1
    return bad


def http_fleet(inp, seconds: float, inst: Optional[Instrumented]):
    codes, ranks, ckpts = inp["codes"], inp["ranks"], inp["ckpts"]
    log = os.path.join(OUT, "server.log")  # this run's servers only
    open(log, "wb").close()
    servers: List[Server] = []

    def start_up() -> float:
        if servers:
            servers.pop().close()
        t0 = time.perf_counter()
        servers.append(Server(ckpts[0], log))
        return time.perf_counter() - t0

    setup = _setups(start_up)
    server = servers[0]
    tracer = inst.tracer if inst else None
    span = _spanner(tracer)
    conn = _connect(server.port)
    rows, latencies, req_bytes, resp_bytes, reload_s = [], [], [], [], []
    attempted = failed = 0
    batches = chunks(ranks, HTTP_BATCH)
    cal, paused = Calibrator(), 0.0
    try:
        for _ in range(HTTP_WARM_CALLS):  # untimed: caches start warm
            _post(conn, "/v1/advise/batch",
                  {"codes": [codes[int(r)] for r in next(batches)]})
        before = _get_stats(conn)
        reload_at = [seconds * (k + 1) / (HTTP_RELOADS + 1)
                     for k in range(HTTP_RELOADS)]
        with _recording(tracer), PeakPss(server.proc.pid) as pss:
            start, opened = time.perf_counter(), 0.0
            for batch in batches:
                paused += cal.tick()
                now = time.perf_counter() - start - paused
                if now >= seconds:
                    break
                # a fresh connection every HTTP_CONN_S, so the TCP state of
                # one connection cannot decide a whole run (README.md)
                if now - opened >= HTTP_CONN_S:
                    conn.close()
                    conn, opened = _connect(server.port), now
                if reload_at and now >= reload_at[0]:
                    reload_at.pop(0)
                    target = ckpts[(HTTP_RELOADS - len(reload_at)) % 2]
                    attempted += 1
                    t0 = time.perf_counter()
                    status, _, _ = _post(conn, "/v1/reload", {"path": target})
                    reload_s.append(time.perf_counter() - t0)
                    failed += status != 200
                payload = {"requests": [{"id": j, "code": codes[int(r)]}
                                        for j, r in enumerate(batch)]}
                attempted += len(batch)
                t0 = time.perf_counter()
                try:
                    with span("http.call"):
                        status, raw, size = _post(conn, "/v1/advise/batch",
                                                  payload, span)
                        with span("http.decode"):
                            results = json.loads(raw)["results"]
                except (OSError, ValueError, KeyError,
                        http.client.HTTPException):
                    failed += len(batch)
                    conn.close()
                    continue
                latencies.append(time.perf_counter() - t0)
                req_bytes.append(size)
                resp_bytes.append(len(raw))
                if status != 200 or len(results) != len(batch):
                    failed += len(batch)
                    continue
                rows.extend((int(r), row) for r, row in zip(batch, results))
            else:
                failed += 1  # the Zipf draws ran out before the time did
            elapsed = time.perf_counter() - start - paused
        after = _get_stats(conn)
    finally:
        conn.close()
        clean = server.close()
    failed += not clean
    failed += _check_fleet(rows, codes, ckpts)
    rows = [body for _, body in rows if _is_answer(body)]
    layers = _fleet_delta(before, after)
    layers.update({
        "registry.reload_ms": 1e3 * float(np.mean(reload_s)) if reload_s else 0.0,
        "http.req_kb": float(np.mean(req_bytes)) / 1024 if req_bytes else 0.0,
        "http.resp_kb": float(np.mean(resp_bytes)) / 1024 if resp_bytes else 0.0,
    })
    rate = len(rows) / elapsed
    # the bounded tail is p75: the slowest 5-15 % of calls (right after a
    # reload, and stragglers) vary by run in number, and p90 lands inside
    # or outside them; p90 is still reported
    q, tail_s = tail(latencies, cap=75.0)
    q90, p90_s = tail(latencies, cap=90.0)
    # calls as measured: a fixed per-call stall and the fleet's own
    # processes govern them, not this process's CPU time (README.md)
    return _outcome(
        attempted, failed, setup, cal,
        measured={"throughput_per_s": rate,
                  "latency_p50_ms": 1e3 * median(latencies),
                  "latency_tail_ms": 1e3 * tail_s},
        normalised={"setup_s": setup["norm_s"]}, pss=pss,
        named={"snippets_per_s": _named(rate, "1/s", len(rows)),
               "call_p50_ms": _named(1e3 * median(latencies), "ms",
                                     len(latencies)),
               f"call_p{q:g}_ms": _named(1e3 * tail_s, "ms", len(latencies)),
               f"call_p{q90:g}_ms": _named(1e3 * p90_s, "ms",
                                           len(latencies)),
               "reload_ms": _named(1e3 * median(reload_s) if reload_s else 0.0,
                                   "ms", len(reload_s))},
        layers=layers)


# -- open_loop_mixed --------------------------------------------------------------------

def _open_schedule(inp, seconds: float):
    """Per phase: (rate, due offsets, kinds, snippets) for the arrivals
    that fall inside this run's ``seconds`` (a traced run uses the first
    half of every phase)."""
    out = []
    for phase, (_, share) in zip(inp["phases"], (OPEN_WARM,) + OPEN_LADDER):
        n = int(np.searchsorted(phase["due"], share * seconds))
        out.append((phase["rate"], phase["due"][:n], phase["kinds"][:n],
                    phase["codes"][:n]))
    return out


def _run_rung(submit, due: np.ndarray, codes: List[str],
              cal: Calibrator) -> Tuple[OpenLoopResult, List[float]]:
    """One rung, run in ``OPEN_SEGMENT_S`` segments with a calibration
    point before each: a pause inside a segment would break its arrival
    schedule, and between segments it only lets the queue drain.  Returns
    the merged result and each answered request's latency in ms at
    reference speed."""
    out, norm_ms = OpenLoopResult(), []
    n_segments = int(due[-1] // OPEN_SEGMENT_S) + 1 if len(due) else 0
    for seg in range(n_segments):
        offset = seg * OPEN_SEGMENT_S
        lo, hi = np.searchsorted(due, [offset, offset + OPEN_SEGMENT_S])
        cal.sample(OPEN_CAL_PASSES)
        res = run_open_loop(submit, codes[lo:hi], due[lo:hi] - offset)
        out.latency_s += res.latency_s
        out.lag_s += res.lag_s
        out.results += res.results
        out.errors += res.errors
        out.elapsed_s += res.elapsed_s
        norm_ms += [1e3 * lat * cal.scale for lat in res.latency_s]
    return out, norm_ms


def _build_open_engine(ckpt: str) -> InferenceEngine:
    head = ModelRegistry.from_checkpoint(ckpt).get("directive")
    engine = InferenceEngine(head.model, head.vocab, max_len=head.max_len)
    engine.submit("int x;").result()  # start the batching worker
    return engine


def open_loop_mixed(inp, seconds: float, inst: Optional[Instrumented]):
    schedule = _open_schedule(inp, seconds)
    setup = _setups(lambda: _start_up("open", inp["ckpt"]))
    engine = _build_open_engine(inp["ckpt"])
    span = _spanner(inst.tracer if inst else None)

    def submit(code):
        with span("openloop.send"):
            return engine.submit(code)

    rungs, sample = [], []
    attempted = failed = 0
    cal = Calibrator()
    try:
        for code in inp["hot"]:  # the hot set is what repeats hit
            engine.submit(code).result()
        with PeakPss(os.getpid()) as pss:
            for k, (rate, due, kinds, codes) in enumerate(schedule):
                # the traced run records the rung whose latency is reported
                with _recording(inst.tracer if inst and k == 1 + OPEN_MIDDLE
                                else None):
                    res, norm_ms = _run_rung(submit, due, codes, cal)
                if k == 0:
                    continue  # warm-up phase, discarded
                attempted += len(codes)
                failed += res.errors
                lat_ms = 1e3 * np.asarray(res.latency_s)
                q90, p90 = tail(lat_ms, cap=90.0)
                norm_p90 = tail(norm_ms, q90)[1]
                q99, p99 = tail(lat_ms, cap=99.0)
                rungs.append({
                    "rate": rate, "requests": len(codes),
                    "answered": len(res.latency_s),
                    "p50_ms": median(lat_ms), "q90": q90, "p90_ms": p90,
                    "norm_p90_ms": norm_p90,
                    "q99": q99, "p99_ms": p99,
                    "lag_p99_ms": 1e3 * float(np.percentile(res.lag_s, 99)),
                    "lag_max_ms": 1e3 * max(res.lag_s),
                    "served_per_s": len(res.latency_s) / res.elapsed_s,
                    "passes": res.errors == 0 and p99 <= OPEN_SLO_MS,
                })
                sample.extend((c, r) for c, kind, r
                              in zip(codes, kinds, res.results)
                              if kind != 0 and r is not None)
        stats = engine.stats
    finally:
        engine.close()
    pick = np.random.default_rng(inp["check_rng"]).choice(
        len(sample), size=min(CHECK_SAMPLE, len(sample)), replace=False)
    head = ModelRegistry.from_checkpoint(inp["ckpt"]).get("directive")
    ref = _reference_probs(head.model, head.vocab, head.max_len,
                           [sample[i][0] for i in pick])
    got = np.array([float(sample[i][1][1]) for i in pick])
    failed += int((np.abs(got - ref) > TOL).sum())
    # the highest rung meeting the SLO, provided every rung below it did
    passing = []
    for rung in rungs:
        if not rung["passes"]:
            break
        passing.append(rung)
    max_rate = passing[-1]["served_per_s"] if passing else 0.0
    mid = rungs[OPEN_MIDDLE]
    lookups = stats.cache_hits + stats.cache_misses
    # the bounded tail is p90: p99 at this rung sits among the rare slow
    # dirty snippets, whose share varies by seed (README.md); it still
    # decides the SLO and is reported
    # the tail is CPU time of slow (fresh and dirty) requests and follows
    # the host's speed; the rate is the schedule's and the median mostly
    # the flush timer, so those stay as measured (README.md)
    return _outcome(
        attempted, failed, setup, cal,
        measured={"throughput_per_s": max_rate,
                  "latency_p50_ms": mid["p50_ms"],
                  "latency_tail_ms": mid["p90_ms"]},
        normalised={"setup_s": setup["norm_s"],
                    "latency_tail_ms": mid["norm_p90_ms"]}, pss=pss,
        named={"max_rate_slo": _named(max_rate, "1/s",
                                      passing[-1]["answered"] if passing else 0),
               "req_p50_ms": _named(mid["p50_ms"], "ms", mid["answered"]),
               f"req_p{mid['q90']:g}_ms": _named(mid["p90_ms"], "ms",
                                                 mid["answered"]),
               f"req_p{mid['q99']:g}_ms": _named(mid["p99_ms"], "ms",
                                                 mid["answered"]),
               "lag_p99_ms": _named(mid["lag_p99_ms"], "ms", mid["requests"]),
               "lag_max_ms": _named(mid["lag_max_ms"], "ms", mid["requests"])},
        layers={"engine.cache_hit_ratio":
                stats.cache_hits / lookups if lookups else 0.0},
        rungs=rungs)


# -- train_ddp ---------------------------------------------------------------------------

def _encode_split(codes, labels, vocab):
    tokens = [robust_text_tokens(code) for code in codes]
    return encode_batch(tokens, vocab, PragFormerConfig().max_len,
                        labels=labels)


def _fit(split, vocab, seed, workers, span=_nospan, mode=""):
    model = PragFormer(len(vocab), rng=seed)
    with span(f"fit.{mode}"):
        history = model.fit(split, epochs=1, n_workers=workers)
    return model, history.train_loss[-1]


def train_ddp(inp, seconds: float, inst: Optional[Instrumented]):
    vocab, seed = inp["vocab"], inp["model_seed"]
    # warm-up pair on a slice: the first fit of a process pays one-off
    # page faults and pool growth that later retraining does not
    warm = _encode_split(inp["codes"][:64], inp["labels"][:64], vocab)
    for workers in (TRAIN_WORKERS, None):
        _fit(warm, vocab, seed, workers)
    setup = _setups(lambda: _start_up("train", inp["spec"]))
    split = _encode_split(inp["codes"], inp["labels"], vocab)
    tracer = inst.tracer if inst else None
    span = _spanner(tracer)
    fits = {"ddp": [], "1proc": []}
    norm_fits = {"ddp": [], "1proc": []}
    losses = {"ddp": [], "1proc": []}
    counters = []
    failed = attempted = 0
    cal, paused = Calibrator(), 0.0
    # sampled during the fits too: the forked rank exists only inside them
    with _recording(tracer), PeakPss(os.getpid(), interval=0.25) as pss:
        start = time.perf_counter()
        while (time.perf_counter() - start - paused < seconds
               or not fits["1proc"]):
            for mode in TRAIN_CYCLE:
                workers = TRAIN_WORKERS if mode == "ddp" else None
                attempted += 1
                paused += cal.sample(TRAIN_CAL_PASSES)
                t0 = time.perf_counter()
                try:
                    model, loss = _fit(split, vocab, seed, workers, span, mode)
                except Exception:  # noqa: BLE001 - counted, run goes on
                    failed += 1
                    continue
                fits[mode].append(time.perf_counter() - t0)
                norm_fits[mode].append(fits[mode][-1] * cal.scale)
                losses[mode].append(loss)
                # same seed, same data: every fit must land on the same loss
                ok = math.isfinite(loss) and loss == losses[mode][0]
                if mode == "ddp":
                    c = model.ddp_stats["counters"]
                    counters.append(c)
                    ok = ok and c["reduce_ops"] == c["steps"] > 0
                failed += not ok
    # rates from the median fit: a 2-worker fit now and then takes twice
    # as long (four BLAS threads and two ranks share two cores)
    n = len(split)
    ddp_rate = n / median(fits["ddp"]) if fits["ddp"] else 0.0
    one_rate = n / median(fits["1proc"]) if fits["1proc"] else 0.0
    # a run holds a few dozen fits: too few for a tail that stays put, so
    # the median stands in for it at every fit count
    q, tail_s = tail(fits["1proc"], cap=50.0)
    steps = sum(c["steps"] for c in counters)
    per_rank = np.sum([c["per_rank_examples"] for c in counters], axis=0)
    layers = {
        "ddp.reduce_ops_per_step": sum(c["reduce_ops"] for c in counters)
        / steps if steps else 0.0,
        "ddp.grad_mb_per_step": sum(c["grad_bytes_reduced"] for c in counters)
        / steps / 1e6 if steps else 0.0,
        "ddp.rank_imbalance": float(per_rank.max() / per_rank.mean())
        if steps else 0.0,
    }
    # the bounded metrics follow the single-process loop: 2-worker fit
    # times spread too widely from run to run to hold any bound (see
    # README.md); they are reported beside it, as measured
    norm_fit = median(norm_fits["1proc"])
    return _outcome(
        attempted, failed, setup, cal,
        measured={"throughput_per_s": one_rate,
                  "latency_p50_ms": 1e3 * median(fits["1proc"]),
                  "latency_tail_ms": 1e3 * tail_s},
        normalised={"setup_s": setup["norm_s"],
                    "throughput_per_s": n / norm_fit,
                    "latency_p50_ms": 1e3 * norm_fit,
                    "latency_tail_ms": 1e3 * norm_fit},
        pss=pss,
        named={"examples_per_s": _named(ddp_rate, "1/s", len(fits["ddp"])),
               "examples_per_s_1proc": _named(one_rate, "1/s",
                                              len(fits["1proc"])),
               "train_loss": _named(losses["ddp"][0] if losses["ddp"]
                                    else float("nan"), "nats", n),
               "train_loss_1proc": _named(losses["1proc"][0] if losses["1proc"]
                                          else float("nan"), "nats", n),
               "fit_ddp_p50_ms": _named(1e3 * median(fits["ddp"]), "ms",
                                        len(fits["ddp"])),
               "fit_1proc_p50_ms": _named(1e3 * median(fits["1proc"]), "ms",
                                          len(fits["1proc"])),
               f"fit_1proc_p{q:g}_ms": _named(1e3 * tail_s, "ms",
                                              len(fits["1proc"]))},
        layers=layers, steps=steps)


RUNNERS = {"cold_advise": cold_advise, "http_fleet": http_fleet,
           "open_loop_mixed": open_loop_mixed, "train_ddp": train_ddp}


# -- entry point ------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """One benchmark invocation: inputs, measurement, checks, result."""
    work_dir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    try:
        inp = make_inputs(workload, seed, work_dir, seconds)
        runner = RUNNERS[workload]
        if not trace:
            res = runner(inp, seconds, None)
            emit({"env": environment(ROOT, seed, inp["digest"],
                                     res["calibration"])})
            emit({"named": res["named"], "measured": res["measured"],
                  "normalised": res["normalised"],
                  **({"rungs": res["rungs"]} if "rungs" in res else {})})
            metrics = {name: metric(res["reported"][name], unit)
                       for name, unit in END_TO_END.items()}
            attempted, failed = res["attempted"], res["failed"]
        else:
            plain = runner(inp, seconds / 2, None)
            inst = Instrumented(Tracer())
            try:
                traced = runner(inp, seconds / 2, inst)
            finally:
                inst.close()
            emit({"env": environment(ROOT, seed, inp["digest"],
                                     traced["calibration"])})
            layers = inst.layer_metrics(
                steps=traced.get("steps", 0),
                ddp_roots=inst.tracer.root_ids("fit.ddp"))
            layers.update(traced["layers"])
            rate = plain["reported"]["throughput_per_s"]
            traced_rate = traced["reported"]["throughput_per_s"]
            layers["trace.overhead_frac"] = (
                rate / traced_rate - 1.0 if traced_rate else 0.0)
            spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
            inst.tracer.write(spans_path)
            emit({"named": traced["named"], "spans": spans_path})
            metrics = _finish_layers(layers)
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--ready"]:  # a start-up probe, see _start_up
        _ready(argv[1], argv[2])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    emit(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
