"""Multi-model registry: every advisor head behind one serving engine.

The paper's advisor is really three classifiers asked in sequence — the
directive model ("should this loop get a ``#pragma omp parallel for``?",
§4.1) and the ``private`` / ``reduction`` clause models ("with which
clauses?", §5.2).  After PR 1 only the directive model sat behind
:class:`~repro.serve.engine.InferenceEngine`; this module hosts all of them
behind a single front door:

* :class:`ModelHead` / :class:`ModelRegistry` — named (model, vocab,
  max_len) triples.  ``ModelRegistry.from_context`` pulls the trained
  directive + clause models out of an experiment context;
  ``ModelRegistry.from_checkpoint`` reloads a directory written by
  :func:`repro.models.save_advisor`.
* :class:`MultiModelEngine` — one :class:`InferenceEngine` per head, all
  sharing a single lexing memo so a snippet is tokenized **once** no matter
  how many heads look at it.  Because every head truncates to the same
  ``max_len``, the encoded row *lengths* — and therefore the
  length-homogeneous bucket structure — are identical across heads, so the
  fan-out re-buckets nothing.
* :meth:`MultiModelEngine.advise_v1` — the one advice pipeline: admit
  and encode once, split by canary arm, gate, one batched forward per
  head, and assemble :class:`~repro.serve.api.AdviceResult` (directive
  verdict plus one :class:`ClauseAdvice` per clause head);
  :meth:`~MultiModelEngine.advise_v1_async` runs the same pipeline
  through the heads' async queues.

Three operability layers ride on top (see ``docs/operations.md``):

* **Hot reload** — :meth:`MultiModelEngine.reload` swaps every head to a
  new advisor checkpoint under live traffic; in-flight requests finish on
  the old weights and version-tagged cache keys guarantee no stale
  predictions survive the swap.  :class:`CheckpointWatcher` polls a
  checkpoint directory's manifest mtime and reloads automatically
  (``repro serve --watch DIR``).
* **Clause gating** — with ``EngineConfig.gate_margin`` set, the directive
  head is consulted first and clause heads only see snippets whose
  directive probability clears ``0.5 - gate_margin``, cutting clause-head
  compute on majority-negative traffic.
* **Canary rollout** — :meth:`MultiModelEngine.start_canary` serves a new
  checkpoint to a deterministic digest-hash slice of traffic
  (:func:`canary_routes`) next to the current primary, accumulating
  per-arm latency / error / verdict-agreement counters
  (:class:`~repro.serve.metrics.ArmStats`);
  :meth:`~MultiModelEngine.promote` atomically makes the canary primary
  through the same versioned-slot machinery as :meth:`reload` (so no
  stale cache entry survives), :meth:`~MultiModelEngine.rollback` drops
  it, and an optional :class:`CanaryPolicy` auto-promotes or
  auto-rolls-back once enough canary traffic has been judged.

``repro serve --http`` and ``repro advise`` are the CLI front-ends; see
``docs/serving.md`` for the architecture walk-through.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.models.pragformer import PragFormer
from repro.serve.api import AdviceRequest, AdviceResult
from repro.serve.engine import (
    EngineConfig,
    InferenceEngine,
    LRUCache,
    source_digest,
)
from repro.serve.metrics import ArmStats, merge_engine_stats
from repro.tokenize import Vocab, robust_text_tokens

__all__ = [
    "DEFAULT_CLAUSES",
    "DIRECTIVE",
    "CanaryActive",
    "CanaryPolicy",
    "CheckpointWatcher",
    "ClauseAdvice",
    "ModelHead",
    "ModelRegistry",
    "MultiModelEngine",
    "canary_routes",
    "checkpoint_mtime",
]


def checkpoint_mtime(path) -> Optional[int]:
    """Manifest mtime (ns) of an advisor checkpoint, or ``None`` if absent.

    The ``advisor.json`` manifest is written *last* by
    :func:`repro.models.save_advisor`, so its mtime identifies a complete
    checkpoint.  One definition shared by :class:`CheckpointWatcher` and
    the CLI's ``--watch`` startup (which captures a baseline *before*
    loading the checkpoint, so a rollout landing mid-load is still seen).
    """
    from repro.models.persistence import _ADVISOR_MANIFEST

    try:
        return (Path(path) / _ADVISOR_MANIFEST).stat().st_mtime_ns
    except OSError:
        return None

#: Registry name of the mandatory directive head; all other heads are
#: treated as clause models.
DIRECTIVE = "directive"

#: The clause heads the paper trains (§5.2) — what ``from_context`` loads.
DEFAULT_CLAUSES = ("private", "reduction")


@dataclass(frozen=True)
class ModelHead:
    """One named classifier: model + the vocabulary it was trained with."""

    name: str
    model: PragFormer
    vocab: Vocab
    max_len: int


@dataclass(frozen=True)
class ClauseAdvice:
    """One clause head's verdict: probability plus the >0.5 suggestion."""

    probability: float
    suggested: bool


def _clause_advice(p: float) -> ClauseAdvice:
    """The §4.1 decision rule for one clause head (positive iff > 0.5)."""
    return ClauseAdvice(float(p), bool(float(p) > 0.5))


#: A pipeline forward stage: ``(engine, codes)`` jobs in, one P(+)
#: sequence per job out.
_Forward = Callable[[List[Tuple[InferenceEngine, List[str]]]],
                    List[Sequence[float]]]


def _forward_sync(jobs) -> List[Sequence[float]]:
    """Forward stage of :meth:`MultiModelEngine.advise_v1`: one batched
    ``predict_proba`` per job."""
    return [engine.predict_proba(codes)[:, 1] for engine, codes in jobs]


def _forward_async(jobs, timeout: Optional[float]) -> List[List[float]]:
    """Forward stage of :meth:`MultiModelEngine.advise_v1_async`: enqueue
    every job's rows through ``submit()`` before waiting on any, so the
    heads' micro-batching workers overlap and concurrent callers share
    forwards."""
    futures = [[engine.submit(code) for code in codes]
               for engine, codes in jobs]
    return [[float(f.result(timeout=timeout)[1]) for f in fs]
            for fs in futures]


class CanaryActive(RuntimeError):
    """Refusal: a canary rollout is active.  Raised by ``reload`` (and by
    ``start_canary`` when another canary is live) until the rollout is
    promoted or rolled back; :class:`CheckpointWatcher` retries a reload
    refused with it."""


class ModelRegistry:
    """Ordered mapping of head name -> :class:`ModelHead`.

    The ``directive`` head is mandatory for serving (the advisor's primary
    question); clause heads are optional and fan out alongside it.
    """

    def __init__(self) -> None:
        self._heads: "OrderedDict[str, ModelHead]" = OrderedDict()

    def register(self, name: str, model: PragFormer, vocab: Vocab,
                 max_len: Optional[int] = None) -> ModelHead:
        """Add (or replace) a head; ``max_len`` defaults to the model's.

        Names must be filesystem-safe (``validate_head_name``, the same
        rule ``save_advisor`` enforces), so a serving registry can always
        be checkpointed."""
        from repro.models.persistence import validate_head_name

        validate_head_name(name)
        head = ModelHead(name, model, vocab, max_len or model.config.max_len)
        self._heads[name] = head
        return head

    def get(self, name: str) -> ModelHead:
        """Look up a head by name (KeyError with the known names if absent)."""
        try:
            return self._heads[name]
        except KeyError:
            raise KeyError(
                f"no head {name!r}; registered: {sorted(self._heads)}") from None

    def names(self) -> List[str]:
        """Head names in registration order."""
        return list(self._heads)

    def clause_names(self) -> List[str]:
        """All non-directive head names, in registration order."""
        return [n for n in self._heads if n != DIRECTIVE]

    def __contains__(self, name: str) -> bool:
        return name in self._heads

    def __len__(self) -> int:
        return len(self._heads)

    def __iter__(self) -> Iterator[ModelHead]:
        return iter(self._heads.values())

    # -- construction / persistence ---------------------------------------

    @classmethod
    def from_context(cls, ctx, clauses: Sequence[str] = DEFAULT_CLAUSES
                     ) -> "ModelRegistry":
        """Registry over an experiment context's trained advisor models.

        Pulls the TEXT-representation directive classifier plus one clause
        model per name in ``clauses`` (training each on first use, memoized
        by the context).
        """
        registry = cls()
        enc = ctx.encoded()
        registry.register(DIRECTIVE, ctx.pragformer, enc.vocab,
                          max_len=ctx.scale.pragformer.max_len)
        for clause in clauses:
            cenc = ctx.clause_encoded(clause)
            registry.register(clause, ctx.clause_model(clause), cenc.vocab,
                              max_len=cenc.max_len)
        return registry

    @classmethod
    def from_checkpoint(cls, path, share: bool = False):
        """Reload a registry saved by :meth:`save` / ``save_advisor``,
        including each head's serving ``max_len``.

        With ``share=True`` the heads are additionally published into a
        fresh shared weights segment (``load_advisor(share=True)``) and
        the return value becomes ``(registry, handle)`` where ``handle``
        is the owning :class:`~repro.models.persistence.SharedWeights`
        (``None`` for a legacy checkpoint without a blob).  Under a
        ``fork``-started shard fleet this is what makes the *initial*
        weights one-copy too, not just reloads.
        """
        from repro.models.persistence import load_advisor

        registry = cls()
        if share:
            heads, handle = load_advisor(path, share=True)
            for name, (model, vocab, max_len) in heads.items():
                registry.register(name, model, vocab, max_len=max_len)
            return registry, handle
        for name, (model, vocab, max_len) in load_advisor(path).items():
            registry.register(name, model, vocab, max_len=max_len)
        return registry

    def save(self, path) -> None:
        """Write every head to ``path`` via :func:`repro.models.save_advisor`."""
        from repro.models.persistence import save_advisor

        save_advisor({h.name: (h.model, h.vocab, h.max_len) for h in self},
                     path)


class _SharedLexMemo:
    """Thread-safe bounded memo of ``code -> token list``, shared by every
    head's engine so one snippet is lexed once for the whole fan-out.
    Storage is a lock-wrapped :class:`~repro.serve.engine.LRUCache`, the
    same eviction implementation the engines use."""

    def __init__(self, tokenize: Callable[[str], List[str]], capacity: int) -> None:
        self._tokenize = tokenize
        self._lock = threading.Lock()
        self._memo = LRUCache(capacity)
        self.lexed = 0  # distinct snippets actually lexed

    def __call__(self, code: str) -> List[str]:
        key = source_digest(code)
        with self._lock:
            hit = self._memo.get(key)
        if hit is not None:
            return hit
        tokens = self._tokenize(code)
        with self._lock:
            self.lexed += 1
            self._memo.put(key, tokens)
        return tokens


def canary_routes(code: str, fraction: float) -> bool:
    """Deterministic canary-arm assignment for one snippet.

    A snippet goes to the canary iff ``digest % 100 < fraction * 100``
    over a blake2b digest of the source text, so the assignment is stable
    across calls, processes, and sharded workers (every worker of a fleet
    splits traffic identically), and a given snippet never flaps between
    arms mid-rollout.  The 16-byte digest is deliberately *not* the
    8-byte one shard routing reduces — blake2b output depends on the
    digest size, so the two hashes are independent; reusing the routing
    integer would correlate ``% 100`` with ``% n_shards`` and starve some
    shards of canary traffic whenever ``n_shards`` shares a factor with
    100 (e.g. 10 shards at fraction 0.05 would put every canary snippet
    on shards 0-4).  ``fraction`` is quantized to whole percent —
    ``start_canary`` rejects fractions that would quantize to zero.
    """
    digest = source_digest(code, size=16)
    return int.from_bytes(digest, "big") % 100 < round(fraction * 100)


@dataclass(frozen=True)
class CanaryPolicy:
    """Auto-promotion rule for a canary rollout.

    Once the canary arm has judged ``min_samples`` outcomes (served +
    errored snippets), the policy fires exactly once: **roll back** when
    the arm's error rate exceeds ``max_error_rate`` or its directive
    verdicts disagree with the primary arm's on more than
    ``max_disagreement`` of the compared snippets; otherwise **promote**
    (with ``auto_promote=False`` the policy only ever rolls back — the
    operator promotes manually after reading ``/stats``).
    """

    min_samples: int = 200
    max_disagreement: float = 0.02
    max_error_rate: float = 0.0
    auto_promote: bool = True

    def __post_init__(self) -> None:
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if not 0.0 <= self.max_disagreement <= 1.0:
            raise ValueError("max_disagreement must be in [0, 1]")
        if not 0.0 <= self.max_error_rate <= 1.0:
            raise ValueError("max_error_rate must be in [0, 1]")

    def judge(self, canary: ArmStats) -> Optional[Tuple[str, str]]:
        """``("promote"|"rollback", reason)`` once the sample floor is met,
        else ``None`` (keep serving both arms)."""
        if canary.samples < self.min_samples:
            return None
        if canary.error_rate() > self.max_error_rate:
            return ("rollback",
                    f"error rate {canary.error_rate():.4f} > "
                    f"max_error_rate {self.max_error_rate} "
                    f"after {canary.samples} samples")
        if canary.disagreement_rate() > self.max_disagreement:
            return ("rollback",
                    f"disagreement rate {canary.disagreement_rate():.4f} > "
                    f"max_disagreement {self.max_disagreement} "
                    f"after {canary.samples} samples")
        if self.auto_promote:
            return ("promote",
                    f"{canary.samples} samples within policy bounds "
                    f"(disagreement {canary.disagreement_rate():.4f}, "
                    f"errors {canary.error_rate():.4f})")
        return None


class _CanaryState:
    """Everything one live canary rollout owns, behind one lock.

    ``engines`` is the canary's own per-head :class:`InferenceEngine` set
    (sharing the parent's lex memo); ``primary``/``canary`` are the
    per-arm counters.  ``finished`` flips exactly once — whichever of
    promote / rollback / policy decision claims the state first wins, and
    requests that raced the finish fall back to the primary arm without
    polluting the counters.
    """

    def __init__(self, version: str, fraction: float,
                 registry: ModelRegistry,
                 engines: Dict[str, InferenceEngine],
                 policy: Optional[CanaryPolicy],
                 started_at: float) -> None:
        self.version = version
        self.fraction = fraction
        self.registry = registry
        self.engines = engines
        self.policy = policy
        self.started_at = started_at
        self.primary = ArmStats()
        self.canary = ArmStats()
        self._lock = threading.Lock()
        self._decided = False   # the policy fired (promote/rollback queued)
        self.finished = False   # promote()/rollback() claimed the state

    def note_primary(self, n: int, elapsed_s: float) -> None:
        """Account ``n`` primary-arm snippets served in ``elapsed_s``."""
        with self._lock:
            self.primary.record_served(n, elapsed_s)

    def note_primary_errors(self, n: int) -> None:
        """Account ``n`` primary-arm failures (the exception propagates)."""
        with self._lock:
            self.primary.errors += n

    def note_canary(self, n: int, elapsed_s: float,
                    agreed: Sequence[bool]) -> Optional[Tuple[str, str]]:
        """Account served canary traffic; returns a policy decision at most
        once over the state's lifetime."""
        with self._lock:
            self.canary.record_served(n, elapsed_s)
            self.canary.record_agreements(agreed)
            return self._judge_locked()

    def note_canary_errors(self, n: int) -> Optional[Tuple[str, str]]:
        """Account failed canary traffic (served by primary fallback)."""
        with self._lock:
            if self.finished:
                # the promote/rollback race itself closed the canary
                # engines under this request; that is not a model failure
                return None
            self.canary.errors += n
            return self._judge_locked()

    def _judge_locked(self) -> Optional[Tuple[str, str]]:
        if self.policy is None or self._decided or self.finished:
            return None
        decision = self.policy.judge(self.canary)
        if decision is not None:
            self._decided = True
        return decision

    def arms_dict(self) -> Dict[str, object]:
        """JSON-ready per-arm counter snapshot."""
        with self._lock:
            return {"primary": self.primary.as_dict(),
                    "canary": self.canary.as_dict()}


class MultiModelEngine:
    """All registry heads served through one batched, cached front door.

    One :class:`InferenceEngine` (own prediction LRU, own counters) per
    head; a shared :class:`_SharedLexMemo` so the expensive pure-Python lex
    runs once per distinct snippet regardless of head count.
    :meth:`advise_v1` (bulk) and :meth:`advise_v1_async` (one request,
    through the async queues) are the way in; both run one pipeline that
    fans a snippet out to the directive head and every clause head and
    folds the verdicts into one :class:`~repro.serve.api.AdviceResult`.

    With ``config.gate_margin`` set, the directive head is consulted first
    and clause work only fans out for snippets whose directive probability
    exceeds ``0.5 - gate_margin`` — gated-out snippets come back with an
    empty ``clauses`` dict (their recommendation list is empty either way).

    :meth:`start_canary` deploys a second checkpoint to a deterministic
    digest slice of traffic alongside the primary, with per-arm counters
    and :meth:`promote` / :meth:`rollback` (or a :class:`CanaryPolicy`)
    to finish the rollout — see ``docs/operations.md``.

    Thread-safe to the same degree as :class:`InferenceEngine`.  Use as a
    context manager (or call :meth:`close`) to stop the per-head async
    workers.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[EngineConfig] = None,
        tokenizer: Optional[Callable[[str], List[str]]] = None,
    ) -> None:
        if DIRECTIVE not in registry:
            raise ValueError(f"registry must contain a {DIRECTIVE!r} head")
        self.registry = registry
        self.config = config or EngineConfig()
        self.model_version = "0"
        # recovering lexer by default, matching InferenceEngine: clean
        # input tokenizes identically to the strict lexer, dirty input
        # yields ERROR_TOKEN instead of an exception
        self.lex_memo = _SharedLexMemo(tokenizer or robust_text_tokens,
                                       self.config.cache_capacity)
        self.engines: Dict[str, InferenceEngine] = {
            head.name: InferenceEngine(head.model, head.vocab,
                                       max_len=head.max_len,
                                       config=self.config,
                                       tokenizer=self.lex_memo)
            for head in registry
        }
        self._reload_lock = threading.Lock()
        self._reload_count = 0
        self._gate_lock = threading.Lock()
        self.gated_snippets = 0    # snippets whose clause fan-out was skipped
        self.fanned_snippets = 0   # snippets that did reach the clause heads
        self._canary: Optional[_CanaryState] = None
        self._last_canary: Optional[Dict[str, object]] = None
        # shared-weights attachments this engine's models are bound onto
        # (``reload(segment=)`` / ``start_canary(segment=)``); mappings are
        # closed at engine close, unlink stays with the segment's creator
        self._weights_handles: List[object] = []
        self._weights_mode = "private"

    @property
    def directive_engine(self) -> InferenceEngine:
        """The engine behind the mandatory ``directive`` head."""
        return self.engines[DIRECTIVE]

    # -- the advice pipeline ------------------------------------------------

    def advise_v1(self, requests: Sequence) -> List[AdviceResult]:
        """Bulk advice: one :class:`~repro.serve.api.AdviceResult` per
        request, in order.

        ``requests`` is a sequence of :class:`~repro.serve.api
        .AdviceRequest` (bare strings are wrapped as ``code``).  Each
        stage of :meth:`_run_arm` runs one batched ``predict_proba`` per
        head, so a bulk call costs one forward pass per head.  Results
        carry ``model_version``, ``arm``, ``degraded`` and ``recovered``
        as first-class fields; the arm/version labels are advisory
        snapshots — a promote racing the call can relabel, never change
        a verdict.
        """
        reqs = [AdviceRequest.of(r) for r in requests]
        return self._advise(reqs, _forward_sync) if reqs else []

    def advise_v1_async(self, request,
                        timeout: Optional[float] = None) -> AdviceResult:
        """One request through the heads' async ``submit()`` queues.

        The same pipeline as :meth:`advise_v1`, except that each stage
        enqueues the snippet on every one of its heads before waiting on
        any, so *concurrent* callers (e.g. the HTTP server's handler
        threads) coalesce into shared forward passes instead of each
        running a batch-of-1.  A single-threaded caller pays at most one
        ``flush_interval`` per stage; ``timeout`` bounds each wait.
        """
        forward = functools.partial(_forward_async, timeout=timeout)
        return self._advise([AdviceRequest.of(request)], forward)[0]

    def _advise(self, reqs: List[AdviceRequest],
                forward: "_Forward") -> List[AdviceResult]:
        """The one advice pipeline behind both call modes.

        Rows are split by canary arm (:func:`canary_routes`), each arm
        runs :meth:`_run_arm`, and results come back in request order.
        Canary rows also get a shadow primary directive verdict, forwarded
        in the same stage, for the agreement counters.  A canary arm that
        fails is served by the primary and counted as an arm error — a
        bad canary checkpoint degrades metrics, never availability.
        """
        state = self._canary
        c_rows = [] if state is None else [
            i for i, req in enumerate(reqs)
            if canary_routes(req.code, state.fraction)]
        c_set = set(c_rows)
        p_rows = [i for i in range(len(reqs)) if i not in c_set]
        out: List[Optional[AdviceResult]] = [None] * len(reqs)
        if p_rows:
            start = time.perf_counter()
            try:
                got, _ = self._run_arm(self.engines, [reqs[i] for i in p_rows],
                                       forward, self.model_version, "primary")
            except Exception:
                if state is not None:
                    state.note_primary_errors(len(p_rows))
                raise
            if state is not None:
                state.note_primary(len(p_rows), time.perf_counter() - start)
            for i, res in zip(p_rows, got):
                out[i] = res
        if c_rows:
            c_reqs = [reqs[i] for i in c_rows]
            start = time.perf_counter()
            try:
                got, shadow = self._run_arm(
                    state.engines, c_reqs, forward, state.version, "canary",
                    shadow=self.directive_engine)
            except Exception:
                self._apply_decision(state.note_canary_errors(len(c_rows)))
                got, _ = self._run_arm(self.engines, c_reqs, forward,
                                       self.model_version, "primary")
            else:
                elapsed = time.perf_counter() - start
                agreed = [res.verdict == (p > 0.5)
                          for res, p in zip(got, shadow)]
                self._apply_decision(
                    state.note_canary(len(c_rows), elapsed, agreed))
            for i, res in zip(c_rows, got):
                out[i] = res
        return out

    def _run_arm(self, engines: Dict[str, InferenceEngine],
                 reqs: List[AdviceRequest], forward: "_Forward",
                 version: str, arm: str,
                 shadow: Optional[InferenceEngine] = None
                 ) -> Tuple[List[AdviceResult], List[float]]:
        """One arm's stages: admit, gate, forward, assemble.

        Admission runs once, through the directive engine; lexing goes
        through the shared lex memo, so the other heads reuse it.  A
        rejected snippet becomes a degraded neutral result and reaches no
        head.  Without gating one stage forwards every head; with
        ``gate_margin`` set the directive stage runs first and a second
        stage forwards the clause heads over the rows that fan out
        (:meth:`_fans_out`) — gating changes which rows run, never their
        values.  ``shadow`` (the primary directive engine, for a canary
        arm) rides the first stage.  Returns the results and one shadow
        P(+) per request (0.5 for a rejected row, which is neutral on
        both arms).
        """
        recovered = engines[DIRECTIVE].admit([req.code for req in reqs])
        live = [i for i, rec in enumerate(recovered) if rec is not None]
        codes = [reqs[i].code for i in live]
        clause_names = [name for name in engines if name != DIRECTIVE]
        gated = self.config.gate_margin is not None
        first = [DIRECTIVE] + ([] if gated else clause_names)
        jobs = [(engines[name], codes) for name in first]
        if shadow is not None:
            jobs.append((shadow, codes))
        stage = forward(jobs)
        probs = dict(zip(first, stage))
        fan = list(range(len(live)))
        if gated:
            fan = [j for j, p in enumerate(probs[DIRECTIVE])
                   if self._fans_out(p)]
            self._count_gated(len(live) - len(fan), len(fan))
            fan_codes = [codes[j] for j in fan]
            probs.update(zip(clause_names, forward(
                [(engines[name], fan_codes) for name in clause_names])))
        fan_row = {j: k for k, j in enumerate(fan)}
        results = [AdviceResult(verdict=False, probability=0.5,
                                degraded=True, model_version=version,
                                arm=arm, id=req.id) for req in reqs]
        p_shadow = [0.5] * len(reqs)
        for j, i in enumerate(live):
            p = float(probs[DIRECTIVE][j])
            k = fan_row.get(j)
            clauses = {} if k is None else {
                name: _clause_advice(probs[name][k]) for name in clause_names}
            results[i] = AdviceResult(
                verdict=p > 0.5, probability=p, clauses=clauses,
                recovered=recovered[i], model_version=version, arm=arm,
                id=reqs[i].id)
            if shadow is not None:
                p_shadow[i] = float(stage[-1][j])
        return results, p_shadow

    def _fans_out(self, probability: float) -> bool:
        """Gating rule: does a snippet with this directive probability reach
        the clause heads?  Always true with gating disabled; with a margin,
        true for positives and for negatives within ``gate_margin`` of the
        0.5 decision boundary (so near-threshold verdicts still carry
        clause probabilities)."""
        margin = self.config.gate_margin
        return margin is None or float(probability) > 0.5 - margin

    def _count_gated(self, gated: int, fanned: int) -> None:
        """Accumulate gating counters (no-op when gating is disabled)."""
        if self.config.gate_margin is None:
            return
        with self._gate_lock:
            self.gated_snippets += gated
            self.fanned_snippets += fanned

    # -- hot reload ----------------------------------------------------------

    def reload(self, advisor_dir, version: Optional[str] = None,
               segment: Optional[str] = None) -> str:
        """Swap every head to the checkpoint in ``advisor_dir``, live.

        Loads the checkpoint (slow I/O, outside any lock), then swaps each
        head's engine to its new (model, vocab, max_len) under one fresh
        version tag.  Per head the swap is atomic — in-flight requests
        finish on the weights they started with, and version-tagged cache
        keys mean no prediction computed by the old model is ever served
        for the new one.  A request fanning out *during* the reload may
        combine old-directive with new-clause verdicts for one transient
        call; each verdict is still internally consistent.

        The checkpoint must provide every currently served head (extra
        heads in the checkpoint are ignored — the head set is fixed at
        construction).  Raises without touching the engines when the
        checkpoint is missing, malformed, or incomplete, so a failed
        reload leaves the old model serving.  ``version`` overrides the
        default ``v<n>:<dir>`` tag — :class:`~repro.serve.sharding
        .ShardedEngine` passes one tag to every worker so a fleet always
        agrees on its deployed version.  Returns the tag deployed (also
        reported by :meth:`stats` as ``model_version``).

        Raises :class:`CanaryActive` while a canary is active — finish the
        rollout (:meth:`promote` / :meth:`rollback`) first, so the canary's
        agreement counters always compare against one fixed primary.

        ``segment`` names an already-published shared weights segment
        (see :func:`repro.models.share_weights`): the new heads then map
        the fleet's one read-only weight copy instead of deserializing
        the checkpoint here, and the swap is just a slot-pointer flip.
        An unreachable segment silently falls back to the eager load.
        """
        heads, shared = self._load_checkpoint_heads(advisor_dir,
                                                    segment=segment)
        with self._reload_lock:
            # checked under the lock: a start_canary racing this reload
            # either installed its state first (we refuse) or will see the
            # reloaded primary as its comparison baseline
            if self._canary is not None:
                if shared is not None:
                    shared.close()
                raise CanaryActive(
                    "a canary rollout is active; promote() or rollback() "
                    "it before reloading the primary")
            self._reload_count += 1
            if version is None:
                version = f"v{self._reload_count}:{Path(advisor_dir).name}"
            registry = ModelRegistry()
            for name in self.registry.names():
                model, vocab, max_len = heads[name]
                registry.register(name, model, vocab, max_len=max_len)
                self.engines[name].swap_model(model, vocab, max_len,
                                              version=version)
            self.registry = registry
            self.model_version = version
            if shared is not None:
                self._weights_handles.append(shared)
            self._weights_mode = "shared" if shared is not None else "private"
        return version

    def _load_checkpoint_heads(self, advisor_dir, segment=None):
        """Load an advisor checkpoint and require it to cover every served
        head (shared by :meth:`reload` and :meth:`start_canary`; raises
        without touching any engine on a missing/incomplete checkpoint).

        With ``segment`` set, binds the heads onto that already-published
        shared weights segment (zero weight bytes deserialized here); an
        unreachable or invalid segment falls back to the eager per-process
        load — availability beats sharing.  Returns ``(heads, handle)``
        where ``handle`` is the :class:`~repro.models.persistence
        .SharedWeights` attachment or ``None``.
        """
        from repro.models.persistence import load_advisor

        shared = None
        if segment is not None:
            try:
                heads, shared = load_advisor(advisor_dir, segment=segment)
            except (ValueError, FileNotFoundError, OSError):
                heads = load_advisor(advisor_dir)
        else:
            heads = load_advisor(advisor_dir)
        missing = [name for name in self.engines if name not in heads]
        if missing:
            if shared is not None:
                shared.close()
            raise ValueError(
                f"checkpoint {advisor_dir} lacks served heads {missing}; "
                f"it provides {sorted(heads)}")
        return heads, shared

    # -- canary rollout ------------------------------------------------------

    def start_canary(self, advisor_dir, fraction: float,
                     policy: Optional[CanaryPolicy] = None,
                     version: Optional[str] = None,
                     segment: Optional[str] = None) -> str:
        """Serve the checkpoint in ``advisor_dir`` to a canary slice of
        traffic next to the current primary.

        ``fraction`` of the digest space (``canary_routes``) is served by a
        second versioned engine set loaded from the checkpoint; the rest
        keeps hitting the primary.  Both arms accumulate
        :class:`~repro.serve.metrics.ArmStats` (visible under ``canary``
        in :meth:`stats`), and canary-routed snippets additionally get a
        shadow primary directive verdict for the agreement counters.  A
        canary-arm failure is served by the primary and counted as an arm
        error — a broken canary checkpoint can never fail requests.

        ``policy`` auto-promotes or auto-rolls-back once its sample floor
        is met; without one the operator calls :meth:`promote` /
        :meth:`rollback`.  ``version`` overrides the default
        ``v<n>:<dir>`` tag (:class:`~repro.serve.sharding.ShardedEngine`
        passes one tag fleet-wide).  Raises :class:`CanaryActive` if a
        canary is already active; a missing/incomplete checkpoint raises without
        disturbing the primary.  Returns the canary's version tag.

        ``segment`` names an already-published shared weights segment,
        exactly as in :meth:`reload` — the canary arm then maps the same
        one-copy blob the rest of the fleet's canary arms map.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if round(fraction * 100) < 1:
            raise ValueError(
                f"fraction {fraction} quantizes to zero canary traffic "
                "(canary_routes works in whole percent; use >= 0.005)")
        heads, shared = self._load_checkpoint_heads(advisor_dir,
                                                    segment=segment)
        with self._reload_lock:
            if self._canary is not None:
                if shared is not None:
                    shared.close()
                raise CanaryActive(
                    f"canary {self._canary.version} already active; "
                    "promote() or rollback() it first")
            self._reload_count += 1
            if version is None:
                version = f"v{self._reload_count}:{Path(advisor_dir).name}"
            registry = ModelRegistry()
            engines: Dict[str, InferenceEngine] = {}
            for name in self.registry.names():
                model, vocab, max_len = heads[name]
                registry.register(name, model, vocab, max_len=max_len)
                engines[name] = InferenceEngine(
                    model, vocab, max_len=max_len, config=self.config,
                    tokenizer=self.lex_memo, version=version)
            self._canary = _CanaryState(version, fraction, registry, engines,
                                        policy, time.time())
            if shared is not None:
                self._weights_handles.append(shared)
        return version

    def promote(self, reason: Optional[str] = None) -> str:
        """Atomically make the canary the new primary; returns its tag.

        Reuses the hot-reload machinery: each primary head's slot is
        swapped to the canary's (model, vocab, max_len) under the canary's
        version tag, so in-flight primary requests finish on the weights
        they started with and every version-prefixed cache key written
        under the old primary misses by construction afterwards.  The
        canary engine set is closed (queued async work drains first); a
        request racing the promote falls back to the just-promoted
        primary.  Raises ``RuntimeError`` with no canary active.
        """
        with self._reload_lock:
            state = self._canary
            if state is None:
                raise RuntimeError("no canary active")
            state.finished = True
            self._canary = None
            for name in state.registry.names():
                head = state.registry.get(name)
                self.engines[name].swap_model(head.model, head.vocab,
                                              head.max_len,
                                              version=state.version)
            self.registry = state.registry
            self.model_version = state.version
            self._finish_canary(state, "promoted", reason)
        for engine in state.engines.values():
            engine.close()
        return state.version

    def rollback(self, reason: Optional[str] = None) -> str:
        """Drop the canary; the primary keeps serving untouched.

        Returns the primary's (still-deployed) version tag.  Raises
        ``RuntimeError`` with no canary active.
        """
        with self._reload_lock:
            state = self._canary
            if state is None:
                raise RuntimeError("no canary active")
            state.finished = True
            self._canary = None
            self._finish_canary(state, "rolled_back", reason)
        for engine in state.engines.values():
            engine.close()
        return self.model_version

    def _finish_canary(self, state: "_CanaryState", outcome: str,
                       reason: Optional[str]) -> None:
        """Record the rollout's outcome + final counters (``last_canary``
        in :meth:`stats`).  Caller holds ``_reload_lock``."""
        self._last_canary = {
            "version": state.version,
            "fraction": state.fraction,
            "outcome": outcome,
            "reason": reason,
            "duration_s": round(time.time() - state.started_at, 3),
            "arms": state.arms_dict(),
        }

    def _apply_decision(self, decision: Optional[Tuple[str, str]]) -> None:
        """Act on a :class:`CanaryPolicy` verdict from a request thread.

        Promote/rollback may race a concurrent explicit call — the loser's
        ``RuntimeError`` ("no canary active") is deliberately swallowed;
        exactly one finish wins.
        """
        if decision is None:
            return
        action, reason = decision
        try:
            if action == "promote":
                self.promote(reason=f"policy: {reason}")
            else:
                self.rollback(reason=f"policy: {reason}")
        except RuntimeError:
            pass

    # -- observability ------------------------------------------------------

    def head_names(self) -> List[str]:
        """Hosted head names, in registration order (``/healthz`` surface)."""
        return self.registry.names()

    def stats(self) -> Dict[str, object]:
        """Nested per-head counters plus a combined roll-up.

        Shape: ``{"heads": {name: EngineStats.as_dict()}, "combined":
        merged counters, "snippets_lexed": distinct snippets lexed by the
        shared memo, "model_version": deployed checkpoint tag, "reloads":
        completed hot reloads, "clause_gating": gate config + skip
        counters, "canary": live rollout (version, fraction, per-arm
        counters) or ``None``, "last_canary": how the previous rollout
        ended, or ``None``, "weights": whether the served weights map a
        shared segment and how many attachments are held}`` — JSON-ready
        for the ``/stats`` endpoint.
        """
        per_head = {name: eng.stats.as_dict() for name, eng in self.engines.items()}
        with self._gate_lock:
            gating = {
                "enabled": self.config.gate_margin is not None,
                "gate_margin": self.config.gate_margin,
                "gated_snippets": self.gated_snippets,
                "fanned_out": self.fanned_snippets,
            }
        state = self._canary
        canary = None if state is None else {
            "version": state.version,
            "fraction": state.fraction,
            "policy": None if state.policy is None else {
                "min_samples": state.policy.min_samples,
                "max_disagreement": state.policy.max_disagreement,
                "max_error_rate": state.policy.max_error_rate,
                "auto_promote": state.policy.auto_promote,
            },
            "arms": state.arms_dict(),
        }
        return {
            "heads": per_head,
            "combined": merge_engine_stats(
                eng.stats for eng in self.engines.values()),
            "snippets_lexed": self.lex_memo.lexed,
            "model_version": self.model_version,
            "reloads": self._reload_count,
            "clause_gating": gating,
            "canary": canary,
            "last_canary": self._last_canary,
            "weights": {"mode": self._weights_mode,
                        "attached_segments": len(self._weights_handles)},
        }

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close every per-head engine, canary set included (idempotent).

        Shared-weights attachments are closed best-effort afterwards —
        model parameter views may keep a mapping exported until the
        models are collected, which is fine: unlinking (the creator's
        job) does not wait on it, and the pages free with the process.
        """
        state = self._canary
        if state is not None:
            for engine in state.engines.values():
                engine.close()
        for engine in self.engines.values():
            engine.close()
        for handle in self._weights_handles:
            handle.close()

    def __enter__(self) -> "MultiModelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Sentinel default for ``CheckpointWatcher(baseline_mtime=...)``: stat the
#: manifest at construction time.
_STAT_AT_INIT = object()


class CheckpointWatcher:
    """Poll an advisor checkpoint directory and hot-reload on change.

    Backs ``repro serve --watch DIR``: a daemon thread stats the
    checkpoint's ``advisor.json`` manifest every ``interval`` seconds and
    calls ``advisor.reload(path)`` when its mtime moves.  The manifest is
    the right sentinel because :func:`repro.models.save_advisor` writes it
    *last* — a new mtime means every head's ``.npz`` is already on disk,
    so the watcher never loads a half-written checkpoint.

    A failed reload (corrupt or incomplete checkpoint) is recorded in
    ``last_error`` and polling continues — the advisor keeps serving the
    old weights.  ``advisor`` is anything exposing ``reload(path)``: a
    :class:`MultiModelEngine` or a
    :class:`~repro.serve.sharding.ShardedEngine` wrapping one per worker.

    ``baseline_mtime`` is the manifest mtime the advisor's *current*
    weights correspond to; by default the watcher stats the manifest at
    construction.  Callers that load the checkpoint *before* building the
    watcher (the CLI) should capture :func:`checkpoint_mtime` before
    loading and pass it here — otherwise a rollout landing during the
    load window is absorbed into the baseline and never served.
    """

    def __init__(self, advisor, path, interval: float = 2.0,
                 baseline_mtime=_STAT_AT_INIT) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.advisor = advisor
        self.path = Path(path)
        self.interval = interval
        self.reloads = 0          # successful reloads triggered by the watch
        self.poll_errors = 0      # poll bodies that raised (and were survived)
        self.last_error: Optional[str] = None
        self._last_mtime = (checkpoint_mtime(self.path)
                            if baseline_mtime is _STAT_AT_INIT
                            else baseline_mtime)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _manifest_mtime(self) -> Optional[int]:
        """The manifest's mtime in ns, or ``None`` while it doesn't exist."""
        return checkpoint_mtime(self.path)

    def poll_once(self) -> bool:
        """One poll step: reload if the manifest mtime moved.

        Returns True when a reload was performed (successfully or not —
        check ``last_error``); False when nothing changed.  Exposed so
        tests and manual operators can drive the watch loop themselves.
        """
        mtime = self._manifest_mtime()
        if mtime is None or mtime == self._last_mtime:
            return False
        # record the mtime before reloading: a *broken* checkpoint must not
        # be retried every interval, only when it changes again
        previous_mtime, self._last_mtime = self._last_mtime, mtime
        try:
            self.advisor.reload(self.path)
        except CanaryActive as exc:
            # a canary-blocked reload is *retryable*, not broken: keep the
            # old baseline so the rollout is retried every poll and lands
            # as soon as the canary is promoted or rolled back (otherwise
            # a checkpoint written mid-canary would be dropped forever)
            self.last_error = f"{type(exc).__name__}: {exc}"
            self._last_mtime = previous_mtime
        except Exception as exc:  # noqa: BLE001 — keep serving old weights
            self.last_error = f"{type(exc).__name__}: {exc}"
        else:
            self.reloads += 1
            self.last_error = None
        return True

    def start(self) -> "CheckpointWatcher":
        """Start the polling daemon thread (idempotent); returns self."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="checkpoint-watcher", daemon=True)
            self._thread.start()
        return self

    def _loop(self) -> None:
        # the poll body is exception-proofed: a transient unreadable or
        # partially-written checkpoint dir (an unpacking rollout, an NFS
        # blip) must log-and-retry, not silently kill the watcher thread
        # and leave the fleet never reloading again
        while not self._stop.wait(self.interval):
            try:
                self.poll_once()
            except Exception as exc:  # noqa: BLE001 — watcher must survive
                self.poll_errors += 1
                self.last_error = f"{type(exc).__name__}: {exc}"

    def stop(self) -> None:
        """Stop the polling thread (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)

    def __enter__(self) -> "CheckpointWatcher":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
