"""High-throughput batched inference engine for the PragFormer advisor.

The paper's end goal (§2.1) is an advisor that classifies arbitrary incoming
code snippets; this module turns the one-snippet-at-a-time ``advise`` path
into serving infrastructure:

* **Tokenize once** — snippets go through :func:`repro.tokenize.text_tokens`
  (or a :class:`~repro.data.encoding.TokenCache` for corpus records) and
  :class:`~repro.tokenize.Vocab` exactly as in training, with results
  memoized by source digest so repeated traffic never re-lexes.
* **Micro-batching** — pending snippets are sorted by encoded length and
  packed greedily into length-homogeneous buckets (at most
  ``max_batch_size`` rows, padding waste bounded by ``bucket_waste``), each
  padded only to its own longest row, so ``trim_batch``'s
  quadratic-attention savings actually bite on mixed-length traffic.
* **Result caching** — predictions are memoized in a bounded LRU keyed by a
  digest of the token ids; identical snippets (the common case under heavy
  traffic) skip the model entirely, and duplicates *within* one batch are
  coalesced into a single forward row.
* **Sync and async APIs** — :meth:`InferenceEngine.predict_proba` /
  :meth:`~InferenceEngine.advise_many` for bulk calls;
  :meth:`~InferenceEngine.submit` enqueues a request and returns a
  :class:`concurrent.futures.Future`, with a background worker that flushes
  a batch when it is full or ``flush_interval`` elapses.
* **Hot model swap** — the model, vocabulary, serving length, and a
  *version tag* live together in one immutable slot;
  :meth:`~InferenceEngine.swap_model` replaces the slot atomically.  Every
  cache key (prediction LRU *and* tokenize/encode memo) is prefixed with
  the version tag, so entries written under an old model can never be
  served for the new one, and requests that started before a swap finish
  on the weights they started with.

Knobs live on :class:`EngineConfig`; counters on
:class:`~repro.serve.metrics.EngineStats`.  The engine is the bottom layer
of the serving stack: :mod:`repro.serve.registry` hosts several model heads
(directive + clause models) each behind one of these engines,
:mod:`repro.serve.sharding` partitions traffic across worker processes that
each run a private engine, and :mod:`repro.serve.http_api` exposes the whole
stack over HTTP.  ``docs/serving.md`` walks the architecture end to end.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.data.encoding import TokenCache, pad_encoded
from repro.models.pragformer import PragFormer
from repro.nn.dtype import get_dtype
from repro.serve.metrics import EngineStats
from repro.tokenize import ERROR_TOKEN, Representation, Vocab, \
    robust_text_tokens

__all__ = ["EngineConfig", "EngineStats", "LRUCache", "Advice",
           "InferenceEngine", "ModelSlot", "source_digest"]


def source_digest(code: str, size: int = 16) -> bytes:
    """Digest of snippet source text — the serving stack's shared key.

    One definition on purpose: the tokenize-once memo (here), the
    cross-head lex memo (:mod:`repro.serve.registry`), and shard routing
    (:mod:`repro.serve.sharding`) must all key on the same bytes, or a
    future normalization tweak would silently split them apart.  Lone
    surrogates (JSON ``"\\ud800"`` escapes survive :func:`json.loads`) are
    replace-encoded rather than allowed to raise — dirty bytes must never
    crash the keying layer.
    """
    return hashlib.blake2b(code.encode("utf-8", errors="replace"),
                           digest_size=size).digest()


@dataclass(frozen=True)
class EngineConfig:
    """Serving knobs.

    ``max_batch_size`` bounds one forward pass; ``cache_capacity`` bounds
    both the prediction LRU and the tokenize/encode memo (0 disables them);
    ``flush_interval`` is how long the async worker waits for a batch to
    fill before running a partial one.  ``bucket_waste`` bounds how ragged a
    length bucket may be: a bucket is closed early once padding it to the
    next row's length would exceed ``bucket_waste`` x the real token cells,
    keeping buckets length-homogeneous so short snippets never pay a long
    snippet's quadratic attention cost.

    ``gate_margin`` enables cross-request clause gating in
    :class:`~repro.serve.registry.MultiModelEngine`: when set, clause heads
    only see snippets whose directive probability exceeds
    ``0.5 - gate_margin`` (``None``, the default, disables gating and every
    head sees every snippet).  A small positive margin keeps near-threshold
    snippets fanning out so borderline verdicts still carry clause
    probabilities; see ``docs/operations.md`` for the accuracy caveats.

    The dirty-input caps: ``max_snippet_bytes`` bounds one snippet's UTF-8
    size (0 disables the cap) and ``lex_budget_s`` bounds one snippet's
    tokenize wall-time.  A snippet over either limit is *rejected* — it
    gets a neutral degraded verdict and a ``rejected_*`` counter tick
    instead of stalling a worker; see ``docs/serving.md`` ("Dirty input").
    """

    max_batch_size: int = 128
    cache_capacity: int = 4096
    flush_interval: float = 0.005
    bucket_waste: float = 1.35
    gate_margin: Optional[float] = None
    max_snippet_bytes: int = 262144
    lex_budget_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.flush_interval < 0:
            raise ValueError("flush_interval must be >= 0")
        if self.bucket_waste < 1.0:
            raise ValueError("bucket_waste must be >= 1.0")
        if self.gate_margin is not None and not 0.0 <= self.gate_margin <= 0.5:
            raise ValueError("gate_margin must be in [0, 0.5] (or None)")
        if self.max_snippet_bytes < 0:
            raise ValueError("max_snippet_bytes must be >= 0")
        if self.lex_budget_s <= 0:
            raise ValueError("lex_budget_s must be > 0")


class LRUCache:
    """Bounded least-recently-used mapping (capacity 0 = disabled).

    ``evictions`` counts entries dropped to respect ``capacity`` over the
    cache's lifetime; :meth:`put` additionally returns how many entries the
    one call evicted so callers can feed per-engine counters
    (:attr:`EngineStats.evictions`) without re-reading the total.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.evictions = 0
        self._data: "OrderedDict[bytes, np.ndarray]" = OrderedDict()

    def get(self, key: bytes) -> Optional[np.ndarray]:
        """Return the cached value (refreshing recency) or ``None``."""
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: bytes, value: np.ndarray) -> int:
        """Insert ``key``; return the number of entries evicted (0 or 1)."""
        if self.capacity <= 0:
            return 0
        self._data[key] = value
        self._data.move_to_end(key)
        evicted = 0
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: bytes) -> bool:
        return key in self._data


@dataclass(frozen=True)
class Advice:
    """One advisor verdict: directive probability plus the §4.1 decision.

    ``degraded`` marks a verdict the fleet could not actually compute (a
    worker died or missed its deadline and every fallback failed too):
    the serving layer answers a neutral ``p = 0.5`` placeholder instead
    of raising, and this flag is how callers tell it apart from a real
    model prediction.

    ``recovered`` marks a verdict computed from error-recovered lexing:
    the snippet did not tokenize cleanly, the resilient lexer patched
    over the damage (``ERROR_TOKEN`` in the stream), and the model still
    answered.  Advisory only — the probability is real, but callers that
    care about input hygiene can tell these answers apart."""

    probability: float
    needs_directive: bool
    degraded: bool = False
    recovered: bool = False


@dataclass(frozen=True)
class ModelSlot:
    """Everything one prediction depends on, swapped as a unit.

    ``version`` tags the deployed checkpoint; ``version_bytes`` (its UTF-8
    encoding) prefixes every cache key derived while this slot is current,
    so predictions and encodings from different model versions can never
    collide.  Slots are immutable: a request snapshots the engine's slot
    once and uses it for its whole lifetime, which is what lets
    :meth:`InferenceEngine.swap_model` run under live traffic — in-flight
    requests finish on the weights they started with.
    """

    model: PragFormer
    vocab: Vocab
    max_len: int
    version: str

    @property
    def version_bytes(self) -> bytes:
        """The version tag as the byte prefix used in cache keys."""
        return self.version.encode("utf-8")


_SHUTDOWN = object()


class InferenceEngine:
    """Batched, cached serving front-end for a trained :class:`PragFormer`.

    Thread-safe: the prediction cache is lock-protected and model forwards
    are serialized (the NumPy modules keep per-forward state), so the sync
    bulk API and the async queue can be used concurrently.  The model,
    vocabulary, serving length, and version tag live in one immutable
    :class:`ModelSlot` that :meth:`swap_model` replaces atomically; every
    request snapshots the slot once, so a swap under load never mixes
    weights within a request and never serves a stale cache entry (keys are
    version-prefixed).
    """

    def __init__(
        self,
        model: PragFormer,
        vocab: Vocab,
        max_len: Optional[int] = None,
        config: Optional[EngineConfig] = None,
        tokenizer: Optional[Callable[[str], List[str]]] = None,
        version: str = "0",
    ) -> None:
        self._slot = ModelSlot(model, vocab, max_len or model.config.max_len,
                               version)
        self.config = config or EngineConfig()
        # error-recovering lexer by default: on clean input it tokenizes
        # identically to the strict lexer (same cache keys, same verdicts),
        # on dirty input it emits ERROR_TOKEN instead of raising
        self.tokenizer = tokenizer or robust_text_tokens
        self.cache = LRUCache(self.config.cache_capacity)
        self._encode_memo = LRUCache(self.config.cache_capacity)
        # version-prefixed digests of snippets whose lexing needed error
        # recovery — how advise_many stamps Advice.recovered even when
        # the encoding itself is a memo hit
        self._recovered_memo = LRUCache(self.config.cache_capacity)
        self.stats = EngineStats()
        self._swap_count = 0
        self._cache_lock = threading.Lock()
        self._model_lock = threading.Lock()
        self._queue: "queue.Queue" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._worker_lock = threading.Lock()
        self._closed = False

    # -- the live model slot -----------------------------------------------

    @property
    def model(self) -> PragFormer:
        """The currently deployed model (see :meth:`swap_model`)."""
        return self._slot.model

    @property
    def vocab(self) -> Vocab:
        """The currently deployed vocabulary."""
        return self._slot.vocab

    @property
    def max_len(self) -> int:
        """The current serving truncation length."""
        return self._slot.max_len

    @property
    def model_version(self) -> str:
        """Version tag of the deployed slot (prefixes every cache key)."""
        return self._slot.version

    def swap_model(
        self,
        model: PragFormer,
        vocab: Vocab,
        max_len: Optional[int] = None,
        version: Optional[str] = None,
    ) -> str:
        """Atomically deploy a new (model, vocab, max_len) under ``version``.

        Requests already in flight keep the slot they snapshotted and
        finish on the old weights; every later request sees the new slot.
        Because cache keys are version-prefixed, entries written under the
        old version can never satisfy a new-version lookup — they age out
        of the LRUs naturally.  ``version`` defaults to a per-engine
        ``swap-N`` counter tag; returns the tag actually deployed.
        """
        with self._cache_lock:
            self._swap_count += 1
            if version is None:
                version = f"swap-{self._swap_count}"
            self._slot = ModelSlot(model, vocab,
                                   max_len or model.config.max_len, version)
        return version

    # -- encoding ----------------------------------------------------------

    def encode(self, code: str) -> np.ndarray:
        """Snippet text -> CLS-prefixed, truncated token-id row.

        Tokenize-once: results are memoized by source digest (pure-Python
        lexing costs about as much as a small-model forward pass, so
        repeated traffic must not re-lex).  Raises :class:`ValueError` for
        a snippet the engine rejects (byte cap / lex budget); the batched
        advise paths answer those with a neutral degraded verdict instead.
        """
        ids = self._encode(self._slot, code)
        if ids is None:
            raise ValueError(
                "snippet rejected by dirty-input limits "
                f"(max_snippet_bytes={self.config.max_snippet_bytes}, "
                f"lex_budget_s={self.config.lex_budget_s})")
        return ids

    def reject_reason(self, code: str) -> Optional[str]:
        """Pre-tokenize admission check: why ``code`` must be rejected.

        Returns ``"oversize"`` when the snippet exceeds
        ``max_snippet_bytes``, else ``None``.  Cheap (one UTF-8 encode), so
        routers and registries call it before spending lex time; the
        budget/error causes only materialize during :meth:`encode` itself.
        """
        limit = self.config.max_snippet_bytes
        if limit and len(code.encode("utf-8", errors="replace")) > limit:
            return "oversize"
        return None

    def _count_rejected(self, reason: str) -> None:
        """Bump the rejected counters under the cache lock."""
        with self._cache_lock:
            self.stats.rejected += 1
            if reason == "oversize":
                self.stats.rejected_oversize += 1
            elif reason == "budget":
                self.stats.rejected_budget += 1
            else:
                self.stats.rejected_error += 1

    def _encode(self, slot: ModelSlot, code: str,
                key: Optional[bytes] = None) -> Optional[np.ndarray]:
        """Encode ``code`` under ``slot``, or ``None`` when rejected.

        Memo keys carry slot.version so a row encoded with an old
        vocabulary is never reused after a swap.  Rejections are memoized
        too (as the reason string) so a repeated poison snippet pays its
        lex budget once, not per request; every rejected answer still
        ticks the ``rejected``/``rejected_*`` counters.  Callers that
        already computed the version-prefixed digest pass it as ``key``
        to skip the second hash.
        """
        if key is None:
            key = slot.version_bytes + source_digest(code)
        with self._cache_lock:
            hit = self._encode_memo.get(key)
        if hit is not None:
            if isinstance(hit, str):  # memoized rejection reason
                self._count_rejected(hit)
                return None
            return hit
        reason = self.reject_reason(code)
        recovered = False
        tokens: List[str] = []
        if reason is None:
            start = time.monotonic()
            try:
                tokens = self.tokenizer(code)
            except Exception:  # a custom strict tokenizer may still raise
                reason = "error"
            else:
                if time.monotonic() - start > self.config.lex_budget_s:
                    reason = "budget"
                else:
                    recovered = ERROR_TOKEN in tokens
        if reason is not None:
            with self._cache_lock:
                self._encode_memo.put(key, reason)
            self._count_rejected(reason)
            return None
        ids = slot.vocab.encode(tokens, max_len=slot.max_len)
        with self._cache_lock:
            self.stats.tokenized += 1
            if recovered:
                self.stats.recovered += 1
                self._recovered_memo.put(key, True)
            self.stats.encode_evictions += self._encode_memo.put(key, ids)
        return ids

    def admit(self, codes: Sequence[str]) -> List[Optional[bool]]:
        """Admission for a batch: per snippet, ``None`` when it is
        rejected (byte cap / lex budget / lexer error), else whether its
        lexing needed error recovery.

        Encodings land in the memo, so the forward that follows re-lexes
        nothing.  A rejected snippet counts as a served request, exactly
        like the neutral rows of :meth:`predict_proba`."""
        slot = self._slot
        admitted: List[Optional[bool]] = []
        for code in codes:
            key = slot.version_bytes + source_digest(code)
            if self._encode(slot, code, key=key) is None:
                admitted.append(None)
                continue
            with self._cache_lock:
                admitted.append(self._recovered_memo.get(key) is not None)
        n_rejected = admitted.count(None)
        if n_rejected:
            with self._cache_lock:
                self.stats.requests += n_rejected
        return admitted

    @staticmethod
    def _digest(slot: ModelSlot, ids: np.ndarray) -> bytes:
        """Prediction-cache key: model version tag + token-id digest."""
        return slot.version_bytes + hashlib.blake2b(
            ids.tobytes(), digest_size=16).digest()

    # -- sync bulk API -----------------------------------------------------

    def predict_proba(self, codes: Sequence[str]) -> np.ndarray:
        """(N, 2) class probabilities for ``codes``, batched and cached.

        Rejected snippets (byte cap / lex budget) contribute a neutral
        ``[0.5, 0.5]`` row instead of raising."""
        slot = self._slot
        probs, _ = self._predict_maybe_rejected(
            [self._encode(slot, code) for code in codes], slot)
        return probs

    def _predict_maybe_rejected(self, encoded: List[Optional[np.ndarray]],
                                slot: ModelSlot):
        """Run the rows that encoded; give the rest neutral 0.5 verdicts.

        Returns ``(probs, rejected)`` where ``rejected[i]`` is True for a
        row that was answered with the neutral placeholder.  One bad
        snippet in a batch never fails or stalls its neighbours — they
        still take the normal batched path.
        """
        rejected = [ids is None for ids in encoded]
        ok_rows = [ids for ids in encoded if ids is not None]
        ok_probs = self._predict_encoded(ok_rows, slot)
        n_rejected = len(encoded) - len(ok_rows)
        if not n_rejected:
            return ok_probs, rejected
        with self._cache_lock:
            self.stats.requests += n_rejected
        probs = np.full((len(encoded), 2), 0.5, dtype=get_dtype())
        it = iter(ok_probs)
        for i, bad in enumerate(rejected):
            if not bad:
                probs[i] = next(it)
        return probs, rejected

    def advise(self, code: str) -> Advice:
        """One snippet -> :class:`Advice` (batched path, cache included)."""
        return self.advise_many([code])[0]

    def advise_many(self, codes: Sequence[str]) -> List[Advice]:
        """Bulk :class:`Advice` for ``codes``; positive iff P(+) > 0.5.

        A rejected snippet yields ``Advice(0.5, False, degraded=True)`` —
        the same neutral-verdict contract the fleet uses for a dead worker,
        so callers need exactly one degraded-handling path.  Verdicts
        computed from error-recovered lexing carry ``recovered=True``
        (stamped from the recovered-digest memo, so memo-hit encodings
        keep the flag too)."""
        slot = self._slot
        keys = [slot.version_bytes + source_digest(code) for code in codes]
        encoded = [self._encode(slot, code, key=key)
                   for code, key in zip(codes, keys)]
        with self._cache_lock:
            recovered = [self._recovered_memo.get(key) is not None
                         for key in keys]
        probs, rejected = self._predict_maybe_rejected(encoded, slot)
        return [Advice(float(p), bool(p > 0.5), degraded=bad, recovered=rec)
                for p, bad, rec in zip(probs[:, 1], rejected, recovered)]

    def predict_records(self, records: Sequence, cache: TokenCache,
                        rep: Representation = Representation.TEXT) -> np.ndarray:
        """Bulk probabilities for corpus :class:`Record` objects, with
        tokenization memoized through the shared :class:`TokenCache`."""
        slot = self._slot
        encoded = [slot.vocab.encode(cache.tokens(rec, rep), max_len=slot.max_len)
                   for rec in records]
        return self._predict_encoded(encoded, slot)

    # -- core batching path ------------------------------------------------

    def _predict_encoded(self, encoded: List[np.ndarray],
                         slot: ModelSlot) -> np.ndarray:
        n = len(encoded)
        # compute dtype, not np.empty's float64 default — cached rows and
        # HTTP responses stay float32-pure
        out = np.empty((n, 2), dtype=get_dtype())
        if n == 0:
            return out
        keys = [self._digest(slot, ids) for ids in encoded]

        # resolve cache hits and coalesce duplicate misses per digest
        pending: "OrderedDict[bytes, List[int]]" = OrderedDict()
        hits = 0
        with self._cache_lock:
            self.stats.requests += n
            for i, key in enumerate(keys):
                value = self.cache.get(key)
                if value is not None:
                    out[i] = value
                    hits += 1
                else:
                    pending.setdefault(key, []).append(i)
            self.stats.cache_hits += hits
            self.stats.cache_misses += n - hits
            self.stats.coalesced += (n - hits) - len(pending)

        if not pending:
            return out

        # length-sorted bucketing: each bucket pads only to its own longest
        # row, so short-snippet buckets run quadratic attention on short L.
        # Longest bucket first: the model's grow-only scratch pools then
        # allocate once for the pass instead of reallocating per bucket
        # (ascending order made every bucket outgrow the previous buffers,
        # extending the heap with freshly-faulted pages on each step)
        unique = sorted(pending.items(), key=lambda kv: len(encoded[kv[1][0]]),
                        reverse=True)
        for bucket in self._buckets(unique, [len(encoded[rows[0]]) for _, rows in unique]):
            split = pad_encoded([encoded[rows[0]] for _, rows in bucket],
                                slot.vocab.pad_id)
            with self._model_lock:
                probs = slot.model.predict_proba(split, batch_size=len(bucket))
            with self._cache_lock:
                self.stats.record_batch(len(bucket))
                for (key, rows), p in zip(bucket, probs):
                    self.stats.evictions += self.cache.put(key, p)
                    for i in rows:
                        out[i] = p
        return out

    def _buckets(self, unique: List, lengths: List[int]):
        """Greedy length-homogeneous buckets over descending-length rows.

        A bucket pads to its first (longest) row; it closes when it is full
        or when admitting the next (shorter) row would pad the bucket
        beyond ``bucket_waste`` x its real cells."""
        max_rows = self.config.max_batch_size
        waste = self.config.bucket_waste
        bucket: List = []
        real_cells = 0
        bucket_max = 0
        for item, length in zip(unique, lengths):
            if bucket and (
                len(bucket) == max_rows
                or (len(bucket) + 1) * bucket_max > waste * (real_cells + length)
            ):
                yield bucket
                bucket, real_cells = [], 0
            if not bucket:
                bucket_max = length
            bucket.append(item)
            real_cells += length
        if bucket:
            yield bucket

    # -- async queue API ---------------------------------------------------

    def submit(self, code: str) -> Future:
        """Enqueue one snippet; the returned future resolves to its (2,)
        probability vector once a micro-batch containing it has run.

        The request snapshots the current :class:`ModelSlot`, so a
        :meth:`swap_model` racing the queue cannot run an old-vocabulary
        row through the new model.  A rejected snippet (byte cap / lex
        budget) resolves immediately to the neutral ``[0.5, 0.5]``
        placeholder rather than entering the batch queue."""
        if self._closed:
            raise RuntimeError("engine is closed")
        self._ensure_worker()
        future: Future = Future()
        slot = self._slot
        ids = self._encode(slot, code)
        if ids is None:
            future.set_result(np.full(2, 0.5, dtype=get_dtype()))
            return future
        self._queue.put((slot, ids, future))
        return future

    def _ensure_worker(self) -> None:
        with self._worker_lock:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._worker_loop, name="inference-engine", daemon=True)
                self._worker.start()

    def _worker_loop(self) -> None:
        cfg = self.config
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch = [item]
            deadline = time.monotonic() + cfg.flush_interval
            while len(batch) < cfg.max_batch_size:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    break
                try:
                    nxt = self._queue.get(timeout=timeout)
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    self._flush(batch)
                    return
                batch.append(nxt)
            self._flush(batch)

    def _flush(self, batch: List) -> None:
        # group by model slot: a swap_model racing the queue may leave rows
        # from two versions in one flush, and each must run on (and cache
        # under) the weights it snapshotted at submit time
        groups: "OrderedDict[int, List]" = OrderedDict()
        for item in batch:
            groups.setdefault(id(item[0]), []).append(item)
        for items in groups.values():
            slot = items[0][0]
            try:
                probs = self._predict_encoded([ids for _, ids, _ in items],
                                              slot)
            except BaseException as exc:  # surface errors to every waiter
                for _, _, future in items:
                    if not future.done():
                        future.set_exception(exc)
                continue
            for (_, _, future), p in zip(items, probs):
                if not future.done():
                    future.set_result(p)

    def close(self) -> None:
        """Stop the async worker (idempotent); sync APIs keep working."""
        self._closed = True
        with self._worker_lock:
            worker = self._worker
            self._worker = None
        if worker is not None and worker.is_alive():
            self._queue.put(_SHUTDOWN)
            worker.join(timeout=5.0)
        # a submit() racing close() may have enqueued behind the shutdown
        # sentinel; fail those futures instead of leaving waiters hanging
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                future = item[-1]
                if not future.done():
                    future.set_exception(RuntimeError("engine is closed"))

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
