"""Multi-worker sharding: partition bulk advisor traffic across processes.

The NumPy engine is single-process compute-bound, so past one core the only
way to scale throughput is more processes.  :class:`ShardedEngine` runs N
worker processes (stdlib :mod:`multiprocessing`, no extra deps), each
hosting its own engine built by a caller-supplied zero-argument factory:

* **Digest-hash routing** — a snippet is routed by
  ``blake2b(code) % n_shards``, so the *same* snippet always lands on the
  *same* worker and that worker's prediction LRU and tokenize memo stay hot
  (random routing would cut every cache's effective hit rate by 1/N).
* **Bulk fan-out** — one :meth:`advise_v1` call splits its snippets by
  shard, sends each worker one sub-batch, and the workers run
  concurrently; results are scattered back into request order.
* **One data plane** — every call, serving or control, travels as a
  pickled ``(rid, method, payload)`` tuple on the worker's request queue
  and comes back on its reply queue.  The one serving request is
  ``advise_v1``: snippet texts in, the worker
  :class:`~repro.serve.registry.MultiModelEngine`'s own
  :class:`~repro.serve.api.AdviceResult` list out, so a fleet's
  verdicts, ``recovered`` flags, arms, model versions and gating
  counters are exactly those of the engine it hosts.  The
  queue won the data-plane choice against shared-memory request rings
  on measurement (``docs/performance.md``).
* **Concurrent callers** — replies are tagged with request ids, so multiple
  threads (e.g. HTTP handler threads) can have calls in flight at once;
  calls touching disjoint shards proceed fully in parallel.
* **Graceful fallback** — ``n_shards=1`` (without autoscaling) builds the
  engine in-process and skips multiprocessing entirely (same API, zero IPC
  overhead), so callers can treat the shard count as a pure tuning knob.
* **Load-signal autoscaling** — with an :class:`AutoscaleConfig`, the
  engine samples the in-flight backlog each call into a rolling window and
  grows/shrinks the active worker count between ``min_shards`` and
  ``max_shards``.  With ``latency_high_ms`` set, a second rolling window
  over per-snippet round-trip latency also triggers growth — a slow model
  saturates its workers long before the queue deepens, and latency is the
  signal that sees it.  Routing stays consistent on resize (always
  ``digest % n_shards`` over the *active* count), growth replays the last
  hot-reload (and any live canary) so new workers never serve stale
  weights, and hysteresis (full-window gate + cooldown) keeps the fleet
  from flapping.
* **Hot reload** — :meth:`reload` broadcasts an advisor-checkpoint swap to
  every active worker (workers must host an engine exposing
  ``reload(path)``, e.g. :class:`~repro.serve.registry.MultiModelEngine`).
* **Canary rollout** — :meth:`start_canary` / :meth:`promote` /
  :meth:`rollback` broadcast the registry-level canary deployment to
  every worker under one parent-issued version tag; because arm
  assignment is a pure digest hash, every worker splits traffic
  identically, and workers the autoscaler grows mid-rollout replay the
  canary at spawn.
* **Fault tolerance** — a worker supervisor (see
  :class:`SupervisorConfig`) heartbeats every active worker over the
  reply-token plumbing, detects crashed or wedged processes, and
  respawns the slot with the same replay-at-spawn path the autoscaler
  uses, under an exponential-backoff restart budget; every serving
  request carries a deadline, and a request that times out or lands on a
  dead worker is retried once on a healthy shard (then the in-process
  fallback engine) before being answered with an explicit *degraded*
  neutral verdict instead of an exception.  Deterministic fault
  injection for all of this lives in :mod:`repro.serve.chaos`.
* **Observability** — :meth:`stats` aggregates every worker's engine
  counters and reports per-shard routed-request counts, live queue depths
  (requests sent but not yet answered), the deployed model version, the
  autoscaler's state (current shards, last resize and its reason), and
  the supervisor's fault counters (``restarts``, ``faults``,
  ``deadline_exceeded``, ``degraded_answers``).

Workers are started with the ``fork`` start method when the platform
offers it (the factory may close over live models — fork shares their
memory copy-on-write); otherwise ``spawn`` is used and the factory must be
picklable (a module-level function or :func:`functools.partial` of one).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.serve.chaos import ChaosConfig, inject_fault
from repro.serve.api import AdviceRequest, AdviceResult
from repro.serve.engine import source_digest
from repro.serve.metrics import RollingMean, merge_arm_stats, merge_stat_dicts
from repro.serve.registry import CanaryActive

__all__ = ["AutoscaleConfig", "DeadlineExceeded", "ShardedEngine",
           "SupervisorConfig", "shard_of"]

_STOP = "stop"

#: The serving method: the only call that carries a request deadline, may
#: be answered with degraded verdicts, and advances the chaos call counter.
_SERVING_METHODS = frozenset({"advise_v1"})

#: How long an idle worker blocks on its request queue before checking
#: that the process that spawned it is still alive.  A worker holds its
#: own queue's write end, so a SIGKILLed parent never produces EOF there.
_ORPHAN_POLL_S = 1.0


class DeadlineExceeded(RuntimeError):
    """A worker request missed its deadline (see
    ``SupervisorConfig.request_timeout_s``).  Internal to the serving
    path — callers of the bulk APIs see a degraded verdict, never this."""


def _route_key(code: str) -> int:
    """Shard-count-independent routing hash for a snippet (blake2b-based,
    stable across processes and runs, unlike the per-process-salted
    ``hash()``).  ``_route_key(code) % n_shards`` is the shard index —
    split out so bulk callers can hash outside the routing lock."""
    return int.from_bytes(source_digest(code)[:8], "big")


def shard_of(code: str, n_shards: int) -> int:
    """Deterministic shard index for a snippet.

    Keyed on a blake2b digest of the source text, so a given snippet
    always hits the same shard's warm caches.
    """
    return _route_key(code) % n_shards


@dataclass(frozen=True)
class AutoscaleConfig:
    """Queue-depth autoscaling knobs for :class:`ShardedEngine`.

    Each serving call samples the mean per-shard backlog (requests sent
    but unanswered, over active shards) into a rolling window of
    ``window`` samples.  Once the window is full and ``cooldown_s`` has
    passed since the last resize, a mean above ``high_watermark`` grows
    the fleet by one worker and a mean below ``low_watermark`` shrinks it
    by one, always staying within ``[min_shards, max_shards]``.  The
    window is cleared after every resize, so the next decision is based
    entirely on post-resize load — together with the cooldown this is the
    hysteresis that prevents flapping.

    ``latency_high_ms`` (optional) adds a second grow signal: a rolling
    window over the per-snippet round-trip latency of each worker
    sub-batch (send to reply, forward pass included).  When its mean
    exceeds the watermark the fleet grows even with shallow queues —
    sequential callers never build a backlog, but a slow (e.g. just
    reloaded, bigger) model still saturates the workers — and while it is
    above the watermark the fleet refuses to shrink.  ``None`` (default)
    keeps autoscaling purely queue-depth driven.  Tuning guidance lives
    in ``docs/operations.md``.
    """

    min_shards: int = 1
    max_shards: int = 4
    high_watermark: float = 2.0
    low_watermark: float = 0.25
    window: int = 16
    cooldown_s: float = 5.0
    latency_high_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError("min_shards must be >= 1")
        if self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if not 0.0 <= self.low_watermark < self.high_watermark:
            raise ValueError(
                "need 0 <= low_watermark < high_watermark")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.latency_high_ms is not None and self.latency_high_ms <= 0:
            raise ValueError("latency_high_ms must be > 0 (or None)")

    def clamp(self, n_shards: int) -> int:
        """``n_shards`` clamped into ``[min_shards, max_shards]``."""
        return max(self.min_shards, min(self.max_shards, n_shards))


@dataclass(frozen=True)
class SupervisorConfig:
    """Fault-tolerance knobs for :class:`ShardedEngine`.

    **Deadlines** — every bulk serving request is sent with a deadline of
    ``request_timeout_s`` seconds (``None`` disables).  A request that
    misses it is retried once on a healthy shard, then on the in-process
    fallback engine, and finally answered with a *degraded* neutral
    verdict (``p = 0.5``, ``needs_directive = False``, ``degraded=True``)
    — callers always get an answer, never a hang or an exception.

    **Supervision** — a daemon thread wakes every
    ``heartbeat_interval_s`` seconds (``0`` disables supervision), reaps
    workers whose process died, and pings live workers over the normal
    reply plumbing; a worker that cannot answer a ping within
    ``heartbeat_timeout_s`` is wedged (stuck in a forward pass or a
    deadlock) and is terminated so its slot can be respawned.

    **Restart budget** — respawns of one slot back off exponentially
    (``restart_backoff_s`` doubling per consecutive failure, capped at
    ``restart_backoff_max_s``).  After ``restart_budget`` consecutive
    failures the slot is *degraded*: the supervisor stops fast-respawning
    (retrying only at the capped backoff) and traffic that cannot be
    served by the remaining shards falls through to an in-process engine
    built from the factory — a crash-looping checkpoint serves degraded
    instead of flapping the fleet.  A worker that answers a heartbeat
    resets its slot's budget.
    """

    request_timeout_s: Optional[float] = 30.0
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 10.0
    restart_backoff_s: float = 0.1
    restart_backoff_max_s: float = 30.0
    restart_budget: int = 3

    def __post_init__(self) -> None:
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0 (or None)")
        if self.heartbeat_interval_s < 0:
            raise ValueError("heartbeat_interval_s must be >= 0 (0 disables)")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.restart_backoff_s <= 0:
            raise ValueError("restart_backoff_s must be > 0")
        if self.restart_backoff_max_s < self.restart_backoff_s:
            raise ValueError(
                "restart_backoff_max_s must be >= restart_backoff_s")
        if self.restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")

    def backoff(self, consecutive_failures: int) -> float:
        """Restart delay after ``consecutive_failures`` failed respawns."""
        return min(self.restart_backoff_max_s,
                   self.restart_backoff_s * (2.0 ** consecutive_failures))


def _well_formed(result, expected: int) -> bool:
    """Whether a worker's ``ok`` reply can answer an ``expected``-snippet
    sub-batch: a non-string sequence of exactly that length.  A garbled
    IPC payload (chaos ``malformed``, a corrupted pipe) must be treated
    as a fault and retried, never scattered back to callers — a str is
    rejected explicitly because ``zip`` would happily pair its characters
    with request rows."""
    if isinstance(result, (str, bytes)):
        return False
    try:
        return len(result) == expected
    except TypeError:
        return False


def _dispatch(engine, method: str, payload):
    """Run one control/serving method against the worker's engine (a
    :class:`~repro.serve.registry.MultiModelEngine`)."""
    if method == "advise_v1":
        return engine.advise_v1(payload)
    if method == "ping":
        return "pong"
    if method == "stats":
        return engine.stats()
    if method == "heads":
        return engine.head_names()
    if method == "reload":
        path, version, segment = payload
        return engine.reload(path, version=version, segment=segment)
    if method == "start_canary":
        path, fraction, version, segment = payload
        return engine.start_canary(path, fraction, version=version,
                                   segment=segment)
    if method == "canary_promote":
        return engine.promote()
    if method == "canary_rollback":
        return engine.rollback()
    raise ValueError(f"unknown worker method {method!r}")


def _worker_main(factory, requests, responses, parent_pid: int,
                 reload_spec=None, canary_spec=None, chaos=None,
                 slot=0) -> None:
    """Worker loop: build the engine once, then serve method calls.

    ``reload_spec`` — a ``(checkpoint_path, version_tag, segment)``
    triple — replays the parent's last *successful* hot reload on a
    worker spawned after it (the autoscaler growing the fleet): the
    factory closes over the registry the parent started with, so without
    the replay a grown worker would serve pre-reload weights.  The
    parent-issued tag keeps every worker's ``model_version`` identical;
    ``segment``, when set, names the parent-owned shared weights segment
    the rollout published, so the replayed reload maps the fleet's one
    weight copy instead of re-deserializing the checkpoint.
    ``canary_spec`` — ``(path, fraction, version_tag, segment)`` —
    likewise replays a canary rollout that was live when the grow was
    scheduled, so a grown worker splits traffic exactly like its
    siblings.  A failed replay (the checkpoint vanished since) falls
    back to the weights already loaded and keeps serving — a live worker
    with a divergent ``model_version`` in ``/stats`` beats a dead slot.

    Messages are ``(rid, method, payload)`` tuples on the ``requests``
    queue, served in FIFO order — so a request sent before a reload is
    scored on the weights it was sent for; replies are
    ``(rid, "ok", result)`` or ``(rid, "error", repr)`` — the echoed
    request id lets concurrent parent threads pair replies with their
    own requests, and a worker-side exception surfaces in the caller
    instead of hanging the shard.  ``ping`` answers ``"pong"`` without
    touching the engine — the supervisor's heartbeat; because the loop
    is single-threaded, a worker wedged inside a serving call cannot
    answer and the missed heartbeat is what exposes it.  ``chaos`` (a
    :class:`~repro.serve.chaos.ChaosConfig`, tests/benches only) injects
    scheduled faults for worker ``slot`` before dispatching each serving
    call.

    ``parent_pid`` is the pid of the process that owns the fleet.  An
    idle worker wakes every ``_ORPHAN_POLL_S`` seconds and exits once
    its parent has changed — the parent was killed without a chance to
    send ``_STOP`` — so no worker outlives the server it served.
    """
    engine = factory()
    if reload_spec is not None:
        try:
            _dispatch(engine, "reload", reload_spec)
        except Exception:  # noqa: BLE001 — factory weights keep serving
            pass
    if canary_spec is not None:
        try:
            _dispatch(engine, "start_canary", canary_spec)
        except Exception:  # noqa: BLE001 — primary-only worker keeps serving
            pass
    serving_calls = 0
    try:
        while True:
            try:
                msg = requests.get(timeout=_ORPHAN_POLL_S)
            except queue_mod.Empty:
                if os.getppid() != parent_pid:
                    return  # orphaned: the fleet's owner is gone
                continue
            if msg == _STOP:
                return
            rid, method, payload = msg
            if method in _SERVING_METHODS:
                call_index, serving_calls = serving_calls, serving_calls + 1
                if chaos is not None and inject_fault(chaos, slot, call_index,
                                                     responses, rid):
                    continue
            try:
                responses.put((rid, "ok", _dispatch(engine, method, payload)))
            except Exception as exc:  # noqa: BLE001 — relayed to the caller
                responses.put((rid, "error", f"{type(exc).__name__}: {exc}"))
    finally:
        engine.close()


class _Token(NamedTuple):
    """Handle for one in-flight worker request.

    Captures the response queue and process object *at send time*: if the
    autoscaler later retires this slot and respawns it with fresh queues,
    the caller still collects its reply from the queue the retired worker
    writes to.  ``sent_at`` (monotonic seconds) is the round-trip
    latency reference for the autoscaler's latency signal.  ``deadline``
    (monotonic seconds, ``None`` = wait forever) bounds the collect;
    ``tracked`` is whether the request counts toward the shard's queue
    depth (supervisor heartbeats do not — they would pollute the
    autoscaler's backlog signal).
    """

    rid: int
    shard: int
    responses: object
    worker: object
    sent_at: float
    deadline: Optional[float] = None
    tracked: bool = True


class ShardedEngine:
    """Bulk advisor traffic partitioned across N single-engine workers.

    ``factory`` builds one :class:`~repro.serve.registry.MultiModelEngine`
    per worker (a directive-only registry is fine).  :meth:`advise_v1`
    routes per snippet by :func:`shard_of` over the *active* shard count
    and preserves request order in the returned results.

    Passing ``autoscale=AutoscaleConfig(...)`` turns on load-signal
    autoscaling: the worker fleet grows and shrinks between the
    configured bounds as the rolling backlog — and, with
    ``latency_high_ms``, per-snippet latency — signals demand (see
    :class:`AutoscaleConfig`).  Autoscaling always runs in
    multiprocessing mode — the in-process ``n_shards=1`` fallback cannot
    grow.

    Thread-safe: replies carry request ids, so concurrent bulk calls (e.g.
    HTTP handler threads) run in parallel — per shard, whichever caller is
    reading parks any reply that is not its own for the thread it belongs
    to; calls on disjoint shards never contend.
    """

    def __init__(
        self,
        factory: Callable[[], object],
        n_shards: int = 1,
        mp_context: Optional[str] = None,
        autoscale: Optional[AutoscaleConfig] = None,
        supervisor: Optional[SupervisorConfig] = None,
        chaos: Optional[ChaosConfig] = None,
        share_weights: bool = True,
        shared_weights: Optional[object] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if autoscale is not None:
            n_shards = autoscale.clamp(n_shards)
        self.n_shards = n_shards
        self.autoscale = autoscale
        #: fault-tolerance knobs; defaults apply when not given
        self.supervisor = (supervisor if supervisor is not None
                           else SupervisorConfig())
        self._chaos = chaos
        self.routed: List[int] = []       # requests routed per slot, ever
        self._depth: List[int] = []       # sub-batches in flight per slot
        self._meta_lock = threading.Lock()   # routed/_depth/request ids
        self._route_lock = threading.RLock()  # active shard count + resizes
        self._rids = itertools.count()
        self._factory = factory
        self._reload_spec: Optional[Tuple[str, str, Optional[str]]] = None
        self._canary_spec: Optional[
            Tuple[str, float, str, Optional[str]]] = None
        self._reload_count = 0
        # one-copy weights: rollouts publish the checkpoint blob into a
        # parent-owned shared segment and broadcast its name instead of
        # having every worker re-deserialize the checkpoint.  The parent
        # keeps every handle it ever created so close() unlinks them all
        # even when workers died mid-mapping; the *current* primary/canary
        # segments stay linked while live — respawned workers attach them
        # by name at replay.
        self._share_weights = bool(share_weights)
        self._all_weights: List[object] = []
        self._weights_primary = shared_weights
        self._weights_canary = None
        if shared_weights is not None:
            self._all_weights.append(shared_weights)
        self._model_version = "0"
        self._local = None
        self._workers: List[mp.Process] = []
        self._requests: List[mp.queues.Queue] = []
        self._responses: List[mp.queues.Queue] = []
        self._closed = False
        self._queue_serving_sends = 0   # serving sub-batches sent to workers
        # autoscaler state
        self._window = (RollingMean(autoscale.window)
                        if autoscale is not None else None)
        self._lat_window = (RollingMean(autoscale.window)
                            if autoscale is not None
                            and autoscale.latency_high_ms is not None
                            else None)
        self._last_resize_at = time.monotonic()
        self._resizes = 0
        self._resizing = False    # a grow is preparing outside _route_lock
        self._last_resize: Optional[Dict[str, object]] = None
        # fault-tolerance state (counters under _meta_lock)
        self._restarts = 0            # successful worker respawns
        self._faults = 0              # fault observations (dead/hung/garbled)
        self._deadline_exceeded = 0   # requests that missed their deadline
        self._retries = 0             # sub-batches retried after a fault
        self._degraded_answers = 0    # snippets answered with the neutral verdict
        self._fallback_answers = 0    # snippets served by the in-process fallback
        self._slot_restarts: List[int] = []   # consecutive failed respawns
        self._slot_next_retry: List[float] = []
        self._slot_degraded: List[bool] = []
        self._slot_spawns: List[int] = []     # spawn generation per slot
        self._abandoned: List[set] = []       # rids whose caller gave up
        self._fallback_lock = threading.Lock()
        self._fallback_engine = None
        self._fallback_failed = False
        self._stop_supervisor = threading.Event()
        self._supervisor_thread: Optional[threading.Thread] = None
        if n_shards == 1 and autoscale is None:
            # in-process fallback: same API, no IPC, no extra processes
            self.routed.append(0)
            self._depth.append(0)
            self._local = factory()
            return
        # reply plumbing: one reader at a time per shard; replies that
        # belong to another thread's request are parked in _pending
        self._recv_locks: List[threading.Lock] = []
        self._pending_locks: List[threading.Lock] = []
        self._pending: List[Dict[int, Tuple[str, object]]] = []
        if mp_context is None:
            mp_context = ("fork" if "fork" in mp.get_all_start_methods()
                          else "spawn")
        self._mp_ctx = mp.get_context(mp_context)
        for shard in range(n_shards):
            self._install_worker(shard, self._start_worker(shard, None, None))
        if self.supervisor.heartbeat_interval_s > 0:
            self._supervisor_thread = threading.Thread(
                target=self._supervise_loop, name="advisor-supervisor",
                daemon=True)
            self._supervisor_thread.start()

    # -- worker lifecycle --------------------------------------------------

    def _start_worker(self, index: int,
                      reload_spec: Optional[Tuple[str, str]],
                      canary_spec: Optional[Tuple[str, float, str]]
                      ) -> Optional[Tuple]:
        """Spawn a worker process for slot ``index`` (no routing changes).

        Deliberately runs *without* ``_route_lock``: process start can
        take a while and the slot is not routable until
        :meth:`_install_worker` publishes it.  ``reload_spec`` /
        ``canary_spec`` (the caller's snapshots of the last successful
        reload and any live canary) are replayed in the worker at startup
        so a grown worker never serves pre-rollout weights and splits
        canary traffic like its siblings.  Returns ``None`` — grow
        aborted, retry later — when the slot's retired worker is still
        draining in-flight requests: terminating it would fail the
        callers waiting on those replies.
        """
        if index < len(self._workers):
            old = self._workers[index]
            if old.is_alive():  # retired worker still draining
                old.join(timeout=1.0)
                if old.is_alive():
                    return None  # don't kill its in-flight work; retry
        req: "mp.queues.Queue" = self._mp_ctx.Queue()
        resp: "mp.queues.Queue" = self._mp_ctx.Queue()
        # a respawned worker is only re-armed with the chaos schedule when
        # the schedule says so — by default the replacement is healthy
        spawned = (self._slot_spawns[index]
                   if index < len(self._slot_spawns) else 0)
        chaos = (self._chaos if self._chaos is not None
                 and (spawned == 0 or self._chaos.rearm) else None)
        proc = self._mp_ctx.Process(
            target=_worker_main,
            args=(self._factory, req, resp, os.getpid(), reload_spec,
                  canary_spec, chaos, index),
            name=f"advisor-shard-{index}", daemon=True)
        proc.start()
        return proc, req, resp

    def _install_worker(self, index: int, started: Tuple) -> None:
        """Publish a started worker into slot ``index``.

        Appends a new slot or replaces a retired one (the autoscaler
        growing back into it).  Per-slot locks and pending-reply parking
        are created once and never replaced — late replies from a retired
        worker drain through the queue objects their callers captured in
        their :class:`_Token`.  Callers resizing a live engine hold
        ``_route_lock``.
        """
        proc, req, resp = started
        if index == len(self._workers):
            self._workers.append(proc)
            self._requests.append(req)
            self._responses.append(resp)
            self._recv_locks.append(threading.Lock())
            self._pending_locks.append(threading.Lock())
            self._pending.append({})
            self._abandoned.append(set())
            self.routed.append(0)
            self._depth.append(0)
            self._slot_restarts.append(0)
            self._slot_next_retry.append(0.0)
            self._slot_degraded.append(False)
            self._slot_spawns.append(1)
        else:
            self._workers[index] = proc
            self._requests[index] = req
            self._responses[index] = resp
            self._slot_spawns[index] += 1

    # -- routing -----------------------------------------------------------

    def shard_of(self, code: str) -> int:
        """Shard index this engine routes ``code`` to (active count)."""
        return shard_of(code, self.n_shards)

    # -- worker IPC --------------------------------------------------------

    def _send(self, shard: int, method: str, payload,
              deadline: Optional[float] = None,
              tracked: bool = True) -> _Token:
        """Enqueue one request on ``shard``; returns its reply token.

        ``deadline`` (monotonic) bounds the later :meth:`_collect`;
        ``tracked=False`` (supervisor heartbeats) skips the queue-depth
        accounting so liveness probes never look like backlog."""
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        with self._route_lock:
            token = _Token(next(self._rids), shard,
                           self._responses[shard], self._workers[shard],
                           time.monotonic(), deadline, tracked)
            if tracked:
                with self._meta_lock:
                    self._depth[shard] += 1
            self._requests[shard].put((token.rid, method, payload))
        return token

    def _send_serving(self, shard: int, sub: List[str]) -> _Token:
        """Send one ``advise_v1`` sub-batch to ``shard`` under the request
        deadline (``SupervisorConfig.request_timeout_s``)."""
        with self._meta_lock:
            self._queue_serving_sends += 1
        return self._send(shard, "advise_v1", sub,
                          deadline=self._request_deadline())

    def _abandon(self, token: _Token) -> None:
        """Mark ``token``'s reply as unwanted (its caller timed out).

        A late reply that does arrive is dropped at parking time instead
        of sitting in ``_pending`` forever; a reply that was parked in
        the race window is dropped here."""
        shard = token.shard
        with self._pending_locks[shard]:
            if self._pending[shard].pop(token.rid, None) is None:
                self._abandoned[shard].add(token.rid)

    def _collect(self, token: _Token) -> Tuple[str, object]:
        """Wait for the reply to ``token``, parking other threads' replies.

        Raises ``RuntimeError`` if the worker dies before answering, and
        :class:`DeadlineExceeded` once ``token.deadline`` passes — the
        serving path turns both into a retry and, failing that, a
        degraded verdict."""
        shard = token.shard
        recv_lock = self._recv_locks[shard]
        try:
            while True:
                with self._pending_locks[shard]:
                    if token.rid in self._pending[shard]:
                        return self._pending[shard].pop(token.rid)
                if token.deadline is None:
                    recv_lock.acquire()
                else:
                    remaining = token.deadline - time.monotonic()
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            f"shard {shard} request missed its deadline")
                    # bounded acquire: the thread holding the lock may be
                    # waiting out its own (later) deadline
                    if not recv_lock.acquire(timeout=min(0.25, remaining)):
                        continue
                try:
                    # ours may have been parked while we waited for the lock
                    with self._pending_locks[shard]:
                        if token.rid in self._pending[shard]:
                            return self._pending[shard].pop(token.rid)
                    got_rid, status, result = self._reply(token)
                    if got_rid == token.rid:
                        return status, result
                    with self._pending_locks[shard]:
                        if got_rid in self._abandoned[shard]:
                            self._abandoned[shard].discard(got_rid)
                        else:
                            self._pending[shard][got_rid] = (status, result)
                finally:
                    recv_lock.release()
        except DeadlineExceeded:
            self._abandon(token)
            raise
        finally:
            if token.tracked:
                with self._meta_lock:
                    self._depth[shard] -= 1

    def _reply(self, token: _Token):
        """Next raw reply on ``token``'s queue, without hanging on a dead
        worker.

        Polls with a short timeout and, between polls, checks the worker is
        still alive — a factory that crashes at startup or a worker killed
        mid-request must surface as an error, not wedge callers forever —
        and whether ``token.deadline`` has passed (a *hung* worker is
        still alive; only the deadline unblocks its callers).  Queue and
        process come from the token, so a slot respawned by the
        autoscaler cannot redirect a caller onto the wrong queue."""
        while True:
            timeout = 1.0
            if token.deadline is not None:
                timeout = min(1.0, token.deadline - time.monotonic())
                if timeout <= 0:
                    raise DeadlineExceeded(
                        f"shard {token.shard} request missed its deadline")
            try:
                return token.responses.get(timeout=timeout)
            except queue_mod.Empty:
                if (token.deadline is not None
                        and time.monotonic() >= token.deadline):
                    raise DeadlineExceeded(
                        f"shard {token.shard} request missed its "
                        "deadline") from None
                if not token.worker.is_alive():
                    try:  # a final reply may still be in the queue's pipe
                        return token.responses.get(timeout=1.0)
                    except queue_mod.Empty:
                        raise RuntimeError(
                            f"shard {token.shard} worker died (exitcode "
                            f"{token.worker.exitcode})") from None

    def _scatter(self, codes: Sequence[str]) -> List[AdviceResult]:
        """Fan ``codes`` out by shard, run ``advise_v1`` on each worker's
        sub-batch concurrently, and gather results back in request order.

        Each sub-batch carries a deadline
        (``SupervisorConfig.request_timeout_s``).  A sub-batch whose
        worker died, whose reply was lost or garbled, or whose deadline
        passed is *not* an exception: it is retried once on a healthy
        shard, then on the in-process fallback engine, and finally
        answered with degraded neutral verdicts — every snippet always
        gets an answer.  Worker-side application errors (the engine
        itself raised) still raise, as before: they are deterministic
        and re-running them elsewhere would fail the same way."""
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        if self._local is not None:
            with self._meta_lock:  # routed[] is read-modify-write
                self.routed[0] += len(codes)
            return self._local.advise_v1(codes)
        self._observe_load()
        # hash outside the lock (the routing key is shard-count
        # independent); bucket + send under it so a concurrent resize
        # cannot strand a sub-batch on a retiring worker.  Collection
        # happens outside the lock.
        keys = [_route_key(code) for code in codes]
        with self._route_lock:
            n = self.n_shards
            by_shard: Dict[int, List[int]] = {}
            for i, key in enumerate(keys):
                by_shard.setdefault(key % n, []).append(i)
            # send every sub-batch before collecting: workers overlap
            tokens: Dict[int, _Token] = {}
            for shard, rows in by_shard.items():
                with self._meta_lock:
                    self.routed[shard] += len(rows)
                tokens[shard] = self._send_serving(
                    shard, [codes[i] for i in rows])
        out: List = [None] * len(codes)
        failures: List[str] = []
        faulted: List[Tuple[int, List[int]]] = []
        for shard, rows in by_shard.items():
            try:
                status, result = self._collect(tokens[shard])
            except DeadlineExceeded:
                with self._meta_lock:
                    self._deadline_exceeded += 1
                faulted.append((shard, rows))
                continue
            except RuntimeError:
                with self._meta_lock:
                    self._faults += 1
                faulted.append((shard, rows))
                continue
            if status != "ok":
                failures.append(f"shard {shard} failed: {result}")
                continue
            if not _well_formed(result, len(rows)):
                with self._meta_lock:  # garbled IPC payload, not an answer
                    self._faults += 1
                faulted.append((shard, rows))
                continue
            if self._lat_window is not None:
                # per-snippet round-trip latency of this sub-batch (queue
                # wait + forward pass) — the autoscaler's slow-model signal
                elapsed = time.monotonic() - tokens[shard].sent_at
                self._lat_window.push(elapsed * 1e3 / max(1, len(rows)))
            for i, value in zip(rows, result):
                out[i] = value
        if failures:
            raise RuntimeError("; ".join(failures))
        for shard, rows in faulted:
            sub = [codes[i] for i in rows]
            result = self._retry_subbatch(sub, exclude=shard)
            if result is None:
                result = self._degraded_result(len(rows))
            for i, value in zip(rows, result):
                out[i] = value
        return out

    # -- fault handling ----------------------------------------------------

    def _request_deadline(self) -> Optional[float]:
        """Absolute (monotonic) deadline for a serving request sent now."""
        timeout = self.supervisor.request_timeout_s
        return None if timeout is None else time.monotonic() + timeout

    def _retry_subbatch(self, sub: List[str],
                        exclude: int) -> Optional[List[AdviceResult]]:
        """One retry of a faulted sub-batch: a live shard other than
        ``exclude`` first, the in-process fallback engine second.

        Returns the results, or ``None`` when nothing could answer (the
        caller falls back to degraded verdicts)."""
        with self._meta_lock:
            self._retries += 1
        token = None
        with self._route_lock:
            if not self._closed:
                n = self.n_shards
                target = next(
                    (s for s in ((exclude + k) % n for k in range(1, n))
                     if self._workers[s].is_alive()), None)
                if target is not None:
                    token = self._send_serving(target, sub)
        if token is not None:
            try:
                status, result = self._collect(token)
                if status == "ok" and _well_formed(result, len(sub)):
                    return list(result)
            except DeadlineExceeded:
                with self._meta_lock:
                    self._deadline_exceeded += 1
            except RuntimeError:
                with self._meta_lock:
                    self._faults += 1
        fallback = self._fallback()
        if fallback is not None:
            try:
                result = fallback.advise_v1(sub)
                with self._meta_lock:
                    self._fallback_answers += len(sub)
                return result
            except Exception:  # noqa: BLE001 — fall through to degraded
                pass
        return None

    def _fallback(self):
        """The lazily built in-process last-resort engine (or ``None``).

        Built from the same factory as the workers, in the parent, the
        first time a faulted sub-batch cannot be retried on any live
        shard.  A factory that itself raises (the crash-looping
        checkpoint being the reason the fleet is down) is remembered and
        not retried — callers then get degraded verdicts."""
        with self._fallback_lock:
            if self._fallback_engine is None and not self._fallback_failed:
                try:
                    self._fallback_engine = self._factory()
                except Exception:  # noqa: BLE001 — degraded verdicts instead
                    self._fallback_failed = True
            return self._fallback_engine

    def _degraded_result(self, count: int) -> List[AdviceResult]:
        """Explicit neutral verdicts for ``count`` unanswerable snippets.

        ``p = 0.5`` / ``verdict = False`` with ``degraded=True`` set —
        visibly *not* a model prediction, but a well-formed answer the
        HTTP layer can serialize, so a fleet-wide outage sheds accuracy
        instead of availability."""
        with self._meta_lock:
            self._degraded_answers += count
        return [AdviceResult(verdict=False, probability=0.5, degraded=True,
                             model_version=self._model_version)
                for _ in range(count)]

    # -- supervision -------------------------------------------------------

    def _supervise_loop(self) -> None:
        """Daemon supervisor: one :meth:`_check_fleet` pass per
        ``heartbeat_interval_s`` tick until the engine closes.  The pass
        is exception-proofed — the supervisor surviving is the whole
        point of having one."""
        interval = self.supervisor.heartbeat_interval_s
        while not self._stop_supervisor.wait(interval):
            try:
                self._check_fleet()
            except Exception:  # noqa: BLE001 — supervision must survive
                pass

    def _check_fleet(self) -> None:
        """One supervision pass over the active slots.

        A slot whose process died is revived (subject to its backoff
        schedule).  A live slot is pinged over the normal reply plumbing
        with a ``heartbeat_timeout_s`` deadline; because the worker loop
        is single-threaded, a worker wedged inside a serving call cannot
        answer — a missed ping means *hung*, and the only recovery is to
        terminate the process and revive the slot.  A slot that answers
        its ping is healthy: its restart budget and degraded flag reset.
        """
        cfg = self.supervisor
        for index in range(self.n_shards):
            with self._route_lock:
                if self._closed or index >= self.n_shards:
                    return
                proc = self._workers[index]
            if not proc.is_alive():
                self._revive(index)
                continue
            try:
                token = self._send(
                    index, "ping", None,
                    deadline=time.monotonic() + cfg.heartbeat_timeout_s,
                    tracked=False)
            except RuntimeError:  # closed mid-pass
                return
            try:
                status, _ = self._collect(token)
            except DeadlineExceeded:
                # alive but wedged — stuck forward pass, deadlock, chaos
                # hang; terminating it is the only way to free the slot
                proc.terminate()
                proc.join(timeout=1.0)
                self._revive(index)
            except RuntimeError:  # died while we waited
                self._revive(index)
            else:
                if status == "ok":
                    self._slot_restarts[index] = 0
                    self._slot_degraded[index] = False

    def _revive(self, index: int) -> None:
        """Respawn the dead worker in slot ``index``.

        Serialized against autoscaler grows via ``_resizing`` and paced
        by the slot's exponential-backoff schedule.  The respawn replays
        the remembered reload spec and any live canary — identical to the
        autoscaler's replay-at-spawn path — so a revived worker serves
        the fleet's current weights, not the factory's.  Once
        ``restart_budget`` consecutive revives have failed the slot is
        marked *degraded*: retries slow to the capped backoff and the
        in-process fallback engine is warmed so traffic the dead slot
        owned still gets real answers.
        """
        cfg = self.supervisor
        now = time.monotonic()
        with self._route_lock:
            if (self._closed or self._resizing or index >= self.n_shards
                    or self._workers[index].is_alive()
                    or now < self._slot_next_retry[index]):
                return
            self._resizing = True
            reload_spec = self._reload_spec
            canary_spec = self._canary_spec
        try:
            with self._meta_lock:
                self._faults += 1
            attempt = self._slot_restarts[index]
            self._slot_restarts[index] = attempt + 1
            self._slot_next_retry[index] = now + cfg.backoff(attempt)
            if attempt >= cfg.restart_budget:
                # crash loop: degrade the slot instead of flapping, and
                # make sure the fallback engine is ready to answer for it
                self._slot_degraded[index] = True
                self._slot_next_retry[index] = (
                    now + cfg.restart_backoff_max_s)
                self._fallback()
            started = self._start_worker(index, reload_spec, canary_spec)
            if started is None:  # pragma: no cover — retired, draining
                return
            with self._route_lock:
                if self._closed:  # closed while spawning: stop the orphan
                    started[1].put(_STOP)
                    return
                self._install_worker(index, started)
            with self._meta_lock:
                self._restarts += 1
        finally:
            self._resizing = False

    # -- autoscaling -------------------------------------------------------

    def _observe_load(self) -> None:
        """Sample the backlog this call arrives into, then maybe resize.

        The sample is taken *before* this call's own sends, so it measures
        contention from other in-flight callers: sequential traffic
        samples zero (scale down), concurrent bursts sample the queue the
        burst is building (scale up)."""
        if self._window is None:
            return
        with self._meta_lock:
            n = self.n_shards
            backlog = sum(self._depth[:n])
        self._window.push(backlog / n)
        self._maybe_autoscale()

    def _latency_signal(self) -> Tuple[float, bool]:
        """``(mean per-snippet ms, above-watermark?)`` of the latency
        window; ``(0.0, False)`` when the signal is disabled or not yet
        full."""
        cfg = self.autoscale
        if (self._lat_window is None or cfg is None
                or cfg.latency_high_ms is None):
            return 0.0, False
        mean = self._lat_window.mean()
        return mean, self._lat_window.full and mean > cfg.latency_high_ms

    def _maybe_autoscale(self) -> None:
        """Apply the resize rule when the window is full and cooled down.

        Growth fires on either signal — deep queues (concurrent burst) or
        high per-snippet latency (slow model, see
        ``AutoscaleConfig.latency_high_ms``); shrinking requires an idle
        queue *and* a latency window below the watermark.

        Shrinking is cheap (retire the top slot) and completes under
        ``_route_lock`` on the calling thread.  Growing spawns a process,
        which can take seconds — exactly when the fleet is backlogged —
        so it is handed to a short-lived background thread (``_resizing``
        serializes grows) and the sampling request continues unstalled;
        only the final publish of the new slot takes the lock.
        """
        cfg = self.autoscale
        if cfg is None or self._closed or not self._window.full:
            return
        if time.monotonic() - self._last_resize_at < cfg.cooldown_s:
            return
        with self._route_lock:
            # re-check under the lock: another caller may just have resized
            # (clearing the window) or the cooldown may have restarted
            if (self._closed or self._resizing or not self._window.full
                    or time.monotonic() - self._last_resize_at < cfg.cooldown_s):
                return
            mean = self._window.mean()
            lat_mean, lat_slow = self._latency_signal()
            if ((mean > cfg.high_watermark or lat_slow)
                    and self.n_shards < cfg.max_shards):
                if mean > cfg.high_watermark:
                    reason = (f"mean queue depth {mean:.2f} > "
                              f"high watermark {cfg.high_watermark}")
                else:
                    reason = (f"mean per-snippet latency {lat_mean:.2f} ms > "
                              f"latency watermark {cfg.latency_high_ms} ms")
                self._resizing = True
                threading.Thread(
                    target=self._grow,
                    args=(self.n_shards, self._reload_spec,
                          self._canary_spec, reason),
                    name="advisor-autoscale-grow", daemon=True).start()
            elif (mean < cfg.low_watermark and not lat_slow
                  and self.n_shards > cfg.min_shards):
                # shrink: the retiring slot leaves the routing set first,
                # then receives _STOP — queue FIFO ordering means
                # sub-batches already sent are answered before it exits
                retiring = self.n_shards - 1
                self._requests[retiring].put(_STOP)
                self.n_shards = retiring
                self._note_resize(retiring + 1, retiring,
                                  f"mean queue depth {mean:.2f} < "
                                  f"low watermark {cfg.low_watermark}")

    def _grow(self, index: int, reload_spec: Optional[Tuple[str, str]],
              canary_spec: Optional[Tuple[str, float, str]],
              reason: str) -> None:
        """Background grow: spawn, publish, catch up on racing rollouts.

        ``reload_spec`` / ``canary_spec`` were snapshotted under
        ``_route_lock`` when this grow was scheduled; a reload or canary
        broadcast landing between then and the publish only reaches the
        *published* slots, so after installing we re-check both specs and
        send the new worker catch-up messages — in rollout order: drop a
        canary that ended (its promote, if any, shows up as a changed
        reload spec), replay the reload, then start a canary that began.
        A catch-up failure leaves the worker serving its spawn-time
        weights — alive but with a divergent ``model_version`` visible in
        :meth:`stats`.
        """
        catchups: List[_Token] = []
        try:
            started = self._start_worker(index, reload_spec, canary_spec)
            if started is None:
                return  # retired slot still draining; a later tick retries
            with self._route_lock:
                if self._closed:  # closed while preparing: stop the orphan
                    started[1].put(_STOP)
                    return
                self._install_worker(index, started)
                self.n_shards = index + 1
                self._note_resize(index, index + 1, reason)
                msgs: List[Tuple[str, object]] = []
                canary_changed = self._canary_spec != canary_spec
                if canary_changed and canary_spec is not None:
                    msgs.append(("canary_rollback", None))
                if (self._reload_spec is not None
                        and self._reload_spec != reload_spec):
                    msgs.append(("reload", self._reload_spec))
                if canary_changed and self._canary_spec is not None:
                    msgs.append(("start_canary", self._canary_spec))
                catchups = [self._send(index, method, payload)
                            for method, payload in msgs]
        finally:
            self._resizing = False
        for catchup in catchups:
            try:
                self._collect(catchup)
            except RuntimeError:  # pragma: no cover — worker died at start
                pass

    def _note_resize(self, old: int, new: int, reason: str) -> None:
        """Record one resize and restart the hysteresis clocks."""
        self._resizes += 1
        self._last_resize = {"from": old, "to": new, "reason": reason,
                             "at": round(time.time(), 3)}
        self._last_resize_at = time.monotonic()
        self._window.clear()
        if self._lat_window is not None:
            self._lat_window.clear()

    # -- the advice surface ------------------------------------------------

    def advise_v1(self, requests: Sequence) -> List[AdviceResult]:
        """The v1 advice surface over the fleet: a batch of
        :class:`~repro.serve.api.AdviceRequest` (or bare snippet strings)
        in, :class:`~repro.serve.api.AdviceResult` out.  Workers receive
        the snippet texts and answer with their own engine's results —
        verdicts, ``recovered``, ``arm`` and ``model_version`` included;
        the router only restores each request's ``id``."""
        reqs = [AdviceRequest.of(r) for r in requests]
        if not reqs:
            return []
        results = self._scatter([r.code for r in reqs])
        return [res if req.id is None else replace(res, id=req.id)
                for req, res in zip(reqs, results)]

    # -- one-copy weight segments ------------------------------------------

    def _publish_weights(self, path: str):
        """Map ``path``'s weight blob into a fresh parent-owned shared
        segment for a rollout; ``None`` when sharing is off, the
        checkpoint predates blob manifests, or mapping fails — workers
        then fall back to eager per-process deserialization, trading
        memory for availability."""
        if not self._share_weights or self._local is not None:
            return None
        try:
            from repro.models.persistence import share_weights
            shared = share_weights(path)
        except (ValueError, OSError):
            return None
        if shared is not None:
            with self._route_lock:
                self._all_weights.append(shared)
        return shared

    def _retire_segment(self, shared) -> None:
        """Unlink a segment that is no longer current.  POSIX drain
        semantics do the rest: workers still holding a mapping keep
        their pages until they close or die, but nothing can attach the
        retired name again — exactly what a superseded model version
        needs."""
        if shared is None:
            return
        try:
            shared.close()
        except Exception:  # noqa: BLE001 — exported views pin the buffer
            pass
        try:
            shared.unlink()
        except Exception:  # noqa: BLE001 — already unlinked
            pass

    def _unlink_weights(self) -> None:
        """Close-and-unlink every weight segment this engine ever
        created, current or retired — the parent owns them all precisely
        so /dev/shm ends clean even when workers died holding a
        mapping."""
        for shared in self._all_weights:
            try:
                shared.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        for shared in self._all_weights:
            try:
                shared.unlink()
            except Exception:  # noqa: BLE001 — already unlinked
                pass

    # -- hot reload --------------------------------------------------------

    def reload(self, path) -> Optional[str]:
        """Broadcast a checkpoint reload to every active worker.

        Workers must host an engine exposing ``reload(path, version=...)``
        (a :class:`~repro.serve.registry.MultiModelEngine`); each swaps
        its heads atomically as described there, all under **one**
        parent-issued version tag so the whole fleet — including workers
        the autoscaler spawns later, which replay the reload at startup —
        reports the same ``model_version``.  Raises if any worker fails —
        the error names the shards, shards that did reload keep the new
        weights (re-issue the reload after fixing the checkpoint), and
        the remembered replay spec reverts to the last *fully successful*
        reload so future grown workers never start from a known-bad
        checkpoint.  Returns the new version tag.
        """
        path = str(path)
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        if self._canary_spec is not None:
            raise CanaryActive(
                f"canary {self._canary_spec[2]} is active; promote() or "
                "rollback() it before reloading the primary")
        if self._local is not None:
            version = self._local.reload(path)
            self._reload_spec = (path, version, None)
            return version
        # publish the checkpoint blob into one shared segment *before*
        # broadcasting, so every worker maps the same copy instead of
        # re-deserializing the checkpoint N times
        shared = self._publish_weights(path)
        segment = None if shared is None else shared.name
        with self._route_lock:
            self._reload_count += 1
            version = f"v{self._reload_count}:{Path(path).name}"
            tokens = [self._send(shard, "reload", (path, version, segment))
                      for shard in range(self.n_shards)]
            # remembered under the lock: a grow racing this reload either
            # sees the spec (and replays it) or got a broadcast token
            previous_spec = self._reload_spec
            self._reload_spec = (path, version, segment)
        failures: List[str] = []
        for shard, token in enumerate(tokens):
            try:
                status, result = self._collect(token)
            except RuntimeError as exc:
                failures.append(str(exc))
                continue
            if status != "ok":
                failures.append(f"shard {shard} failed: {result}")
        if failures:
            with self._route_lock:
                # don't poison future grown workers with a bad checkpoint
                if self._reload_spec == (path, version, segment):
                    self._reload_spec = previous_spec
            # shards that did reload keep their mapping (POSIX drain);
            # nobody new should attach a known-bad rollout's segment
            self._retire_segment(shared)
            raise RuntimeError("; ".join(failures))
        with self._route_lock:
            old, self._weights_primary = self._weights_primary, shared
            self._model_version = version
        if old is not shared:
            # the retired primary: unlinked now, freed when the last
            # worker snapshot holding it drains
            self._retire_segment(old)
        return version

    # -- canary rollout ----------------------------------------------------

    def _broadcast(self, method: str, payload) -> List[str]:
        """Send ``method`` to every active shard and collect the failures
        (caller holds no locks; sends happen under ``_route_lock``)."""
        with self._route_lock:
            tokens = [self._send(shard, method, payload)
                      for shard in range(self.n_shards)]
        failures: List[str] = []
        for shard, token in enumerate(tokens):
            try:
                status, result = self._collect(token)
            except RuntimeError as exc:
                failures.append(str(exc))
                continue
            if status != "ok":
                failures.append(f"shard {shard} failed: {result}")
        return failures

    def start_canary(self, path, fraction: float,
                     version: Optional[str] = None) -> str:
        """Broadcast a canary rollout to every active worker.

        Workers must host an engine exposing ``start_canary`` (a
        :class:`~repro.serve.registry.MultiModelEngine`); the parent
        issues **one** version tag so the whole fleet — including workers
        the autoscaler grows mid-rollout, which replay the canary at
        spawn — agrees on the rollout's identity, and the digest-based
        arm split is identical on every worker by construction.  If any
        worker fails to start, the rollout is rolled back everywhere and
        the error raised — a traffic split only some shards honour is
        never left serving.  Returns the canary version tag.

        Promotion policies stay engine-level: in a fleet the operator (or
        an external controller watching ``/stats``) decides, then calls
        :meth:`promote` / :meth:`rollback` to move every worker at once.
        """
        path = str(path)
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        if self._local is not None:
            version = self._local.start_canary(path, fraction,
                                               version=version)
            self._canary_spec = (path, fraction, version, None)
            return version
        shared = self._publish_weights(path)
        segment = None if shared is None else shared.name
        try:
            with self._route_lock:
                if self._canary_spec is not None:
                    raise CanaryActive(
                        f"canary {self._canary_spec[2]} already active; "
                        "promote() or rollback() it first")
                self._reload_count += 1
                if version is None:
                    version = f"v{self._reload_count}:{Path(path).name}"
                spec = (path, float(fraction), version, segment)
                tokens = [self._send(shard, "start_canary", spec)
                          for shard in range(self.n_shards)]
                self._canary_spec = spec
                self._weights_canary = shared
        except BaseException:
            # refused (canary already active) or the broadcast itself
            # blew up before the spec was remembered: drop the segment
            self._retire_segment(shared)
            raise
        failures: List[str] = []
        for shard, token in enumerate(tokens):
            try:
                status, result = self._collect(token)
            except RuntimeError as exc:
                failures.append(str(exc))
                continue
            if status != "ok":
                failures.append(f"shard {shard} failed: {result}")
        if failures:
            try:  # drop the partial rollout everywhere, then report
                self.rollback()
            except RuntimeError:  # pragma: no cover — rollback best-effort
                pass
            raise RuntimeError("; ".join(failures))
        return version

    def promote(self) -> str:
        """Broadcast canary promotion: every worker atomically makes the
        canary its primary (see ``MultiModelEngine.promote``), and the
        remembered reload spec moves to the promoted checkpoint so
        workers grown later replay it.  Raises with no canary active, or
        naming the shards that failed.  On a partial failure the canary
        spec is *kept*: shards that promoted hold the new weights, and
        re-issuing ``promote()`` converges the rest (already-promoted
        workers answer "no canary active", which is tolerated — the
        rollout is never left wedged with no API path to finish it).
        Returns the promoted version tag."""
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        with self._route_lock:
            if self._canary_spec is None:
                raise RuntimeError("no canary active")
            path, _, version, segment = self._canary_spec
        if self._local is not None:
            result = self._local.promote()
            with self._route_lock:
                self._reload_spec = (path, version, segment)
                self._canary_spec = None
            return result
        failures = [f for f in self._broadcast("canary_promote", None)
                    if "no canary active" not in f]
        if failures:
            raise RuntimeError("; ".join(failures))
        with self._route_lock:
            self._reload_spec = (path, version, segment)
            self._canary_spec = None
            # the canary segment *is* the new primary: promotion is just
            # a pointer flip, no new mapping anywhere in the fleet
            old = self._weights_primary
            self._weights_primary = self._weights_canary
            self._weights_canary = None
            self._model_version = version
        if old is not self._weights_primary:
            self._retire_segment(old)
        return version

    def rollback(self) -> None:
        """Broadcast canary rollback: every worker drops its canary arm
        and keeps serving the primary untouched.  Idempotent per shard —
        a worker that never started (or already dropped) its canary is
        not an error, so a partially started rollout can always be
        cleaned up.  Like :meth:`promote`, a partial failure keeps the
        canary spec so the rollback can simply be re-issued."""
        if self._closed:
            raise RuntimeError("sharded engine is closed")
        with self._route_lock:
            if self._canary_spec is None and self._local is None:
                raise RuntimeError("no canary active")
        if self._local is not None:
            self._local.rollback()
            with self._route_lock:
                self._canary_spec = None
            return
        failures = [f for f in self._broadcast("canary_rollback", None)
                    if "no canary active" not in f]
        if failures:
            raise RuntimeError("; ".join(failures))
        with self._route_lock:
            self._canary_spec = None
            old, self._weights_canary = self._weights_canary, None
        self._retire_segment(old)

    # -- observability -----------------------------------------------------

    def head_names(self) -> List[str]:
        """Model heads hosted by the workers (asked of shard 0 — every
        worker is built by the same factory)."""
        if self._local is not None:
            return self._local.head_names()
        status, result = self._collect(
            self._send(0, "heads", None, deadline=self._request_deadline()))
        if status != "ok":
            raise RuntimeError(f"shard 0 failed: {result}")
        return result

    def queue_depth(self) -> List[int]:
        """Per-active-shard count of requests sent but not yet answered."""
        with self._meta_lock:
            return list(self._depth[:self.n_shards])

    def stats(self) -> Dict[str, object]:
        """Aggregate + per-shard serving metrics.

        Shape: ``{"n_shards", "routed": [per-slot request counts],
        "queue_depth": [in-flight requests per active shard], "shards":
        [per-worker engine snapshots], "combined": merged counters}`` —
        plus ``"model_version"`` when the workers report one, a
        ``"canary"`` block (version, fraction, per-arm counters summed
        across workers, and ``shards_live`` — how many workers host the
        canary) when one is rolling out, and an ``"autoscaler"`` block
        (bounds, current shards, resize count, last resize with its
        reason, latency watermark + window mean when the latency signal
        is on) when autoscaling is on, and always a ``"supervisor"``
        block with the fault-tolerance counters (``restarts``, ``faults``,
        ``deadline_exceeded``, ``retries``, ``degraded_answers``,
        ``fallback_answers``, ``degraded_shards``), an ``"ipc"`` block
        counting serving sub-batches sent to workers, and a
        ``"weights"`` block describing the shared weight segments.
        A dead or wedged
        shard contributes an ``{"error": ...}`` placeholder instead of
        failing the whole snapshot — /stats is the tool for diagnosing a
        broken fleet and must keep working while the fleet is broken.
        JSON-ready.
        """
        if self._local is not None:
            shards = [self._local.stats()]
        else:
            shards = self._scatter_stats()
        # error placeholders carry no counters: aggregate over healthy only
        healthy = [s for s in shards if "error" not in s]
        with self._meta_lock:
            routed = list(self.routed)
        out: Dict[str, object] = {
            "n_shards": self.n_shards,
            "routed": routed,
            "queue_depth": self.queue_depth(),
            "shards": shards,
            "combined": merge_stat_dicts(s["combined"] for s in healthy),
        }
        if healthy:
            out["model_version"] = healthy[0]["model_version"]
            live = [s["canary"] for s in healthy if s.get("canary")]
            out["canary"] = None if not live else {
                "version": live[0]["version"],
                "fraction": live[0]["fraction"],
                "shards_live": len(live),
                "arms": {
                    arm: merge_arm_stats(c["arms"][arm] for c in live)
                    for arm in ("primary", "canary")
                },
            }
            out["last_canary"] = next(
                (s["last_canary"] for s in healthy if s.get("last_canary")),
                None)
        if self.autoscale is not None:
            out["autoscaler"] = {
                "min_shards": self.autoscale.min_shards,
                "max_shards": self.autoscale.max_shards,
                "current_shards": self.n_shards,
                "resizes": self._resizes,
                "last_resize": self._last_resize,
                "window_mean": round(self._window.mean(), 3),
            }
            if self._lat_window is not None:
                out["autoscaler"]["latency_high_ms"] = (
                    self.autoscale.latency_high_ms)
                out["autoscaler"]["window_latency_mean_ms"] = round(
                    self._lat_window.mean(), 3)
        with self._meta_lock:
            out["supervisor"] = {
                "request_timeout_s": self.supervisor.request_timeout_s,
                "restarts": self._restarts,
                "faults": self._faults,
                "deadline_exceeded": self._deadline_exceeded,
                "retries": self._retries,
                "degraded_answers": self._degraded_answers,
                "fallback_answers": self._fallback_answers,
                "degraded_shards": int(
                    sum(self._slot_degraded[:self.n_shards])),
            }
            # ring_* stay at 0: the worker queue is the only data plane,
            # and the keys keep existing /stats readers parsing
            out["ipc"] = {
                "active": "local" if self._local is not None else "queue",
                "queue_serving_sends": self._queue_serving_sends,
                "ring_sends": 0,
                "ring_overflows": 0,
            }
        with self._route_lock:
            out["weights"] = {
                "sharing": self._share_weights and self._local is None,
                "mode": ("shared" if self._weights_primary is not None
                         else "private"),
                "primary_segment": (None if self._weights_primary is None
                                    else self._weights_primary.name),
                "canary_segment": (None if self._weights_canary is None
                                   else self._weights_canary.name),
                "segments_created": len(self._all_weights),
            }
        return out

    def _scatter_stats(self) -> List[Dict[str, object]]:
        """Per-worker stats snapshots, fault-tolerantly: a shard that is
        dead, wedged past the request deadline, or erroring contributes
        an ``{"error": ...}`` placeholder so the rest of the fleet still
        reports."""
        with self._route_lock:
            tokens = [self._send(shard, "stats", None,
                                 deadline=self._request_deadline())
                      for shard in range(self.n_shards)]
        snapshots: List[Dict[str, object]] = []
        for shard, token in enumerate(tokens):
            try:  # collect every live shard even if one died
                status, result = self._collect(token)
            except RuntimeError as exc:  # includes DeadlineExceeded
                snapshots.append({"error": str(exc)})
                continue
            if status != "ok" or not isinstance(result, dict):
                snapshots.append({"error": f"shard {shard}: {result}"})
            else:
                snapshots.append(result)
        return snapshots

    # -- lifecycle ---------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Stop all workers (idempotent); the engine is unusable after.

        Fault-tolerant by design: already-dead workers are reaped without
        raising, all joins share one ``timeout`` budget (a fleet of stuck
        workers cannot multiply it), workers that refuse to exit are
        terminated, and the queues are always released — close() must
        succeed on exactly the broken fleets the chaos tests create.
        """
        if self._closed:
            return
        self._closed = True
        self._stop_supervisor.set()
        if self._supervisor_thread is not None:
            self._supervisor_thread.join(timeout=1.0)
        with self._fallback_lock:
            fallback, self._fallback_engine = self._fallback_engine, None
        if fallback is not None:
            try:
                fallback.close()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
        if self._local is not None:
            self._local.close()
            self._unlink_weights()
            return
        with self._route_lock:
            workers = list(self._workers)
            requests = list(self._requests)
            responses = list(self._responses)
        for req in requests:
            try:  # a dead worker's full pipe must not wedge close()
                req.put_nowait(_STOP)
            except Exception:  # noqa: BLE001 — queue broken or full
                pass
        deadline = time.monotonic() + timeout
        for proc in workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # stuck worker: the budget is spent
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (*requests, *responses):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # noqa: BLE001 — already closed
                pass
        # the parent owns every weight segment, so workers that died
        # holding a mapping cannot leak /dev/shm bytes past close()
        self._unlink_weights()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
