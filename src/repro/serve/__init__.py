"""Serving layer: the advisor as a multi-model, sharded, observable service.

Six modules build on each other:

* :mod:`repro.serve.api` — the v1 advice surface:
  :class:`AdviceRequest` / :class:`AdviceResult`, the one
  request/response dataclass pair every serving layer speaks;
  ``SCHEMA_VERSION`` names the wire schema.  ``advise_v1`` is the only
  way in: on :class:`MultiModelEngine` (plus ``advise_v1_async``, the
  same pipeline through the async queues), on :class:`ShardedEngine`,
  and as ``/v1/*`` over HTTP.
* :mod:`repro.serve.engine` — :class:`InferenceEngine`: length-bucketed
  micro-batching, token-digest prediction LRU, tokenize-once memo, sync
  bulk + async queue APIs for one model.
* :mod:`repro.serve.registry` — :class:`ModelRegistry` /
  :class:`MultiModelEngine`: the directive model plus the ``private`` /
  ``reduction`` clause models behind one advice pipeline (admit once,
  split by canary arm, gate, one batched forward per head), hot
  checkpoint reload
  (:meth:`~MultiModelEngine.reload`, :class:`CheckpointWatcher`),
  directive-gated clause fan-out (``EngineConfig.gate_margin``), and
  digest-sliced canary rollouts
  (:meth:`~MultiModelEngine.start_canary` /
  :meth:`~MultiModelEngine.promote` /
  :meth:`~MultiModelEngine.rollback`, :class:`CanaryPolicy`); a reload
  refused while a canary is live raises :class:`CanaryActive`.
* :mod:`repro.serve.sharding` — :class:`ShardedEngine`: bulk traffic
  partitioned across worker processes by source digest, per-shard caches
  kept hot, queue-depth autoscaling between :class:`AutoscaleConfig`
  bounds, and fault tolerance (:class:`SupervisorConfig`): worker
  supervision with heartbeats and respawn budgets, per-request
  deadlines, and degraded verdicts instead of hangs or exceptions.
  Every call to a worker rides its pickled request queue.
* :mod:`repro.serve.chaos` — :class:`ChaosConfig`: deterministic
  worker-fault injection (kill / hang / drop / malformed / slow) that
  the fault-tolerance tests and benches drive.
* :mod:`repro.serve.http_api` — stdlib HTTP front-end (``/advise``,
  ``/advise/batch``, ``/reload``, ``/healthz``, ``/stats``, all also
  mounted under ``/v1/``) with admission control
  (:class:`AdmissionConfig`): body/batch caps, queue-depth load
  shedding, and a circuit breaker.

Counters live in :mod:`repro.serve.metrics`.  CLI front-ends: ``repro
serve`` (JSON-lines on stdin, or ``--http PORT``), ``repro advise``.
The full walk-through is in ``docs/serving.md``; the operator's guide
(deploy, probe, reload, autoscale) is ``docs/operations.md``.
"""

from repro.serve.api import SCHEMA_VERSION, AdviceRequest, AdviceResult
from repro.serve.chaos import ChaosConfig, inject_fault
from repro.serve.engine import (
    Advice,
    EngineConfig,
    EngineStats,
    InferenceEngine,
    LRUCache,
    ModelSlot,
)
from repro.serve.http_api import (
    AdmissionConfig,
    AdvisorHTTPServer,
    make_server,
    serve_forever,
)
from repro.serve.metrics import (
    ArmStats,
    RollingMean,
    batch_hist_bucket,
    merge_arm_stats,
    merge_stat_dicts,
)
from repro.serve.registry import (
    CanaryActive,
    CanaryPolicy,
    CheckpointWatcher,
    ClauseAdvice,
    ModelHead,
    ModelRegistry,
    MultiModelEngine,
    canary_routes,
    checkpoint_mtime,
)
from repro.serve.sharding import (
    AutoscaleConfig,
    DeadlineExceeded,
    ShardedEngine,
    SupervisorConfig,
    shard_of,
)

__all__ = [
    "SCHEMA_VERSION",
    "AdmissionConfig",
    "Advice",
    "AdviceRequest",
    "AdviceResult",
    "AdvisorHTTPServer",
    "ArmStats",
    "AutoscaleConfig",
    "CanaryActive",
    "CanaryPolicy",
    "ChaosConfig",
    "CheckpointWatcher",
    "ClauseAdvice",
    "DeadlineExceeded",
    "EngineConfig",
    "EngineStats",
    "InferenceEngine",
    "LRUCache",
    "ModelHead",
    "ModelRegistry",
    "ModelSlot",
    "MultiModelEngine",
    "RollingMean",
    "ShardedEngine",
    "SupervisorConfig",
    "batch_hist_bucket",
    "canary_routes",
    "checkpoint_mtime",
    "inject_fault",
    "make_server",
    "merge_arm_stats",
    "merge_stat_dicts",
    "serve_forever",
    "shard_of",
]
