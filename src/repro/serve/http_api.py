"""Dependency-free HTTP front-end for the advisor service.

Built on stdlib :mod:`http.server` (``ThreadingHTTPServer``) so the repo
stays free of web-framework dependencies.  The server fronts any *advisor*
object exposing ``advise_v1(requests)`` and ``stats()`` — in practice a
:class:`~repro.serve.registry.MultiModelEngine` or a
:class:`~repro.serve.sharding.ShardedEngine` wrapping one per worker.

Endpoints (all JSON; schemas and ``curl`` examples in ``docs/serving.md``):

* ``POST /advise`` — body ``{"code": "..."}``; replies with the combined
  directive + clause verdict (the legacy keys of
  :meth:`~repro.serve.api.AdviceResult.as_dict`).
* ``POST /advise/batch`` — body ``{"codes": [...]}`` or
  ``{"requests": [{"id": ..., "code": "..."}]}``; replies
  ``{"results": [...]}`` in request order, echoing ids when given.
  Invalid *items* (missing/empty/non-string code) get a per-item
  ``{"id", "error"}`` entry in the 200 reply instead of failing the
  whole batch; only body-structure problems answer 400.
* ``GET /healthz`` — liveness probe: ``{"status": "ok", "heads": [...]}``;
  answers ``503 {"status": "unhealthy"}`` when the advisor cannot list its
  heads (for a sharded advisor this round-trips a worker process).
* ``GET /stats`` — the advisor's live metrics snapshot plus HTTP-level
  request counters.
* ``POST /reload`` — hot-swap the advisor to a new checkpoint directory:
  body ``{"path": "advisor_ckpt/"}``, or an empty body to reload the
  server's default checkpoint directory (set by ``repro serve --watch`` /
  :func:`make_server`'s ``reload_dir``).  Replies with the new
  ``model_version``; ``501`` when the advisor cannot hot-reload, ``500``
  (old weights keep serving) when the checkpoint is bad.
* ``POST /canary`` — start a canary rollout: body
  ``{"path": "ckpt_v2/", "fraction": 0.1}`` routes the digest slice to
  the new checkpoint (``fraction`` defaults to 0.1).  Replies with the
  canary ``version``; ``409`` when a canary is already active, ``501``
  when the advisor cannot canary, ``500`` (primary untouched) when the
  checkpoint is bad.  Watch the per-arm counters under ``canary`` in
  ``GET /stats``, then finish with ``POST /canary/promote`` (replies
  with the promoted ``model_version``) or ``POST /canary/rollback`` —
  both take no body and answer ``409`` with no canary active.

Every endpoint is also mounted under the ``/v1/`` prefix (``/v1/advise``,
``/v1/advise/batch``, ``/v1/reload``, ``/v1/canary*``, ``/v1/healthz``,
``/v1/stats``); the bare paths above are the legacy aliases.  ``POST
/v1/advise`` and ``/advise/batch`` (both spellings) answer the v1 result
schema — :meth:`repro.serve.api.AdviceResult.as_dict`, a strict superset
of the legacy shape that adds ``degraded`` / ``recovered`` /
``model_version`` / ``arm`` — while legacy ``POST /advise`` keeps the
legacy shape.  ``GET /stats`` reports ``schema_version`` (see
:data:`repro.serve.api.SCHEMA_VERSION`) so clients can detect the
surface.

Malformed requests get ``400`` with ``{"error": ...}``; unknown paths
``404``; the serving loop never dies on a bad request.  Bodies that are
not valid UTF-8 are re-decoded with replacement characters when the bad
bytes sit inside JSON string values (the robust lexer downstream treats
U+FFFD like any other dirty byte) and answered with a structured ``400``
when they corrupt the JSON framing — either way the ``invalid_body``
counter in the ``/stats`` admission block ticks.  **Admission
control** (:class:`AdmissionConfig`) protects the advisor behind the
endpoints: oversized bodies are rejected with ``413`` before they are
read, batches above the snippet cap with ``400``, traffic beyond the
in-flight limit is shed with ``429`` + ``Retry-After``, and a circuit
breaker answers ``503`` while the fleet is rebuilding after consecutive
inference failures (half-open probes after the cooldown re-close it).
``/healthz`` and ``/stats`` bypass admission — observability must keep
working exactly when the service is shedding.  Routes that take no body
discard whatever body a client sends, so the keep-alive connection stays
in sync (a body over ``max_body_bytes`` closes the connection instead).
Start the server from the CLI with ``repro serve --http PORT`` or
programmatically via :func:`make_server` / :func:`serve_forever`.  The operator's guide to the
lifecycle (probing, reload, autoscaling, failure modes) is
``docs/operations.md``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.serve.api import SCHEMA_VERSION, AdviceRequest

__all__ = ["AdmissionConfig", "AdvisorHTTPServer", "make_server",
           "serve_forever"]

#: Largest accepted request body (bytes) — snippets are loop nests, not
#: whole programs; an oversized body gets a 413 instead of an allocation.
MAX_BODY_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control knobs for :class:`AdvisorHTTPServer`.

    Requests are refused *before* they cost inference capacity:

    * ``max_body_bytes`` — request bodies above this are answered ``413``
      without being read.
    * ``max_batch_snippets`` — ``/advise/batch`` requests with more
      snippets are answered ``400``; one batch must not monopolize the
      fleet.
    * ``max_inflight`` — serving requests (``/advise``,
      ``/advise/batch``) already being processed; beyond it new ones are
      *shed* with ``429`` and a ``Retry-After: retry_after_s`` header
      instead of queueing into a latency collapse.
    * ``breaker_threshold`` — consecutive inference failures that open
      the circuit breaker; while open, serving requests are answered
      ``503`` immediately.  After ``breaker_cooldown_s`` the breaker
      goes *half-open*: requests flow again, the first success closes it
      and the next failure re-opens it — probing the fleet without
      stampeding it mid-rebuild.
    """

    max_body_bytes: int = MAX_BODY_BYTES
    max_batch_snippets: int = 400
    max_inflight: int = 64
    retry_after_s: float = 1.0
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.max_batch_snippets < 1:
            raise ValueError("max_batch_snippets must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be > 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be > 0")


class AdvisorHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning the advisor, request counters, and the
    admission-control state (in-flight gauge + circuit breaker)."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], advisor,
                 reload_dir: Optional[str] = None,
                 admission: Optional[AdmissionConfig] = None) -> None:
        super().__init__(address, _AdvisorHandler)
        self.advisor = advisor
        #: default checkpoint directory for body-less ``POST /reload``
        self.reload_dir = str(reload_dir) if reload_dir is not None else None
        #: admission-control knobs; defaults apply when not given
        self.admission = (admission if admission is not None
                          else AdmissionConfig())
        self._counter_lock = threading.Lock()
        self._inflight = 0
        self._invalid_body = 0
        self._breaker_failures = 0
        self._breaker_open_until = 0.0
        self.http_requests: Dict[str, int] = {
            "advise": 0, "advise_batch": 0, "healthz": 0, "stats": 0,
            "reload": 0, "canary": 0, "canary_promote": 0,
            "canary_rollback": 0, "errors": 0, "shed": 0,
            "breaker_rejected": 0,
        }

    def bump(self, key: str) -> None:
        """Increment one request counter (handler threads run concurrently,
        and ``dict[k] += 1`` is a lost-update race without the lock)."""
        with self._counter_lock:
            self.http_requests[key] += 1

    def counters(self) -> Dict[str, int]:
        """Consistent snapshot of the request counters."""
        with self._counter_lock:
            return dict(self.http_requests)

    # -- admission control -------------------------------------------------

    def try_acquire(self) -> bool:
        """Claim one in-flight serving slot; ``False`` means shed (429).
        Every ``True`` must be paired with a :meth:`release`."""
        with self._counter_lock:
            if self._inflight >= self.admission.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        """Return an in-flight serving slot claimed by :meth:`try_acquire`."""
        with self._counter_lock:
            self._inflight -= 1

    def record_invalid_body(self) -> None:
        """Count one request body that failed strict UTF-8 decoding —
        whether it was salvaged with replacement characters or rejected."""
        with self._counter_lock:
            self._invalid_body += 1

    def breaker_allows(self) -> bool:
        """Whether the circuit breaker admits serving traffic right now
        (closed, or half-open after the cooldown)."""
        with self._counter_lock:
            return time.monotonic() >= self._breaker_open_until

    def record_outcome(self, ok: bool) -> None:
        """Feed one inference outcome to the circuit breaker: a success
        closes it, ``breaker_threshold`` consecutive failures open it for
        ``breaker_cooldown_s``."""
        with self._counter_lock:
            if ok:
                self._breaker_failures = 0
                self._breaker_open_until = 0.0
            else:
                self._breaker_failures += 1
                if self._breaker_failures >= self.admission.breaker_threshold:
                    self._breaker_open_until = (
                        time.monotonic() + self.admission.breaker_cooldown_s)

    def admission_stats(self) -> Dict[str, object]:
        """JSON-ready admission snapshot for ``/stats``."""
        with self._counter_lock:
            return {
                "max_inflight": self.admission.max_inflight,
                "inflight": self._inflight,
                "max_batch_snippets": self.admission.max_batch_snippets,
                "max_body_bytes": self.admission.max_body_bytes,
                "invalid_body": self._invalid_body,
                "breaker_failures": self._breaker_failures,
                "breaker_open": time.monotonic() < self._breaker_open_until,
            }


class _AdvisorHandler(BaseHTTPRequestHandler):
    """Request handler: routes the four endpoints, JSON in/out."""

    server_version = "repro-advisor/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence per-request stderr chatter; /stats is the observability
        surface."""

    def _send_json(self, status: int, payload: Dict,
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> None:
        self.server.bump("errors")
        # error paths may leave an unread request body on the keep-alive
        # socket; closing the connection stops it being parsed as the next
        # request line
        self.close_connection = True
        self._send_json(status, {"error": message}, headers=headers)

    def _admit(self) -> bool:
        """Admission gate for the serving endpoints (``/advise``,
        ``/advise/batch``): circuit breaker first (503 while the fleet is
        rebuilding), then the in-flight cap (429 + ``Retry-After``, the
        request is *shed*).  ``True`` claims an in-flight slot the caller
        must :meth:`AdvisorHTTPServer.release` when done."""
        server = self.server
        retry_after = {"Retry-After":
                       str(max(1, round(server.admission.retry_after_s)))}
        if not server.breaker_allows():
            server.bump("breaker_rejected")
            self._error(503, "circuit breaker open after consecutive "
                             "inference failures; retry shortly",
                        headers=retry_after)
            return False
        if not server.try_acquire():
            server.bump("shed")
            self._error(429, "server at capacity; request shed, retry "
                             "shortly", headers=retry_after)
            return False
        return True

    def _read_body(self) -> Optional[Dict]:
        """Parse the JSON request body; replies with the right 4xx and
        returns ``None`` on any malformation.

        Undecodable bytes are tolerated when they are confined to JSON
        string values: the body is re-decoded with ``errors="replace"``
        and the snippet reaches the (error-recovering) lexer with U+FFFD
        where the bad bytes were.  Bytes that corrupt the JSON framing
        itself get a structured ``400``, never a stack trace.  Either way
        the ``invalid_body`` admission counter ticks."""
        limit = self.server.admission.max_body_bytes
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._error(400, "invalid Content-Length")
            return None
        if length <= 0:
            self._error(400, "request body required")
            return None
        if length > limit:
            self._error(413, f"body exceeds {limit} bytes")
            return None
        raw = self.rfile.read(length)
        try:
            text = raw.decode("utf-8")
            undecodable = False
        except UnicodeDecodeError:
            self.server.record_invalid_body()
            text = raw.decode("utf-8", errors="replace")
            undecodable = True
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            if undecodable:
                self._error(400, "request body is not valid UTF-8")
            else:
                self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(payload, dict):
            self._error(400, "JSON body must be an object")
            return None
        return payload

    def _discard_unread_body(self) -> None:
        """The one place unread request bodies are dealt with: for a route
        that never reads its body (:data:`_BODYLESS`), the declared
        ``Content-Length`` is discarded before the handler runs, so the
        leftover bytes are never parsed as the next request on a
        keep-alive connection.  A length over ``max_body_bytes`` (or one
        that does not parse) is not read; the connection closes after
        the reply instead."""
        if _strip_v1(self.path) not in _BODYLESS:
            return
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = -1
        if length < 0 or length > self.server.admission.max_body_bytes:
            self.close_connection = True
        elif length:
            self.rfile.read(length)

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        """Route ``/healthz`` and ``/stats`` (bare or ``/v1/``-prefixed —
        the GET surface is identical on both)."""
        self._discard_unread_body()
        path = _strip_v1(self.path)
        if path == "/healthz":
            self.server.bump("healthz")
            heads = []
            names = getattr(self.server.advisor, "head_names", None)
            if callable(names):
                try:  # works for MultiModelEngine and ShardedEngine alike;
                    # for a sharded advisor this round-trips a worker, so a
                    # dead fleet fails the probe instead of looking healthy
                    heads = list(names())
                except Exception as exc:  # noqa: BLE001 — report unhealthy
                    self._send_json(503, {"status": "unhealthy",
                                          "error": str(exc)})
                    return
            self._send_json(200, {"status": "ok", "heads": heads})
        elif path == "/stats":
            self.server.bump("stats")
            try:
                stats = self.server.advisor.stats()
            except Exception as exc:  # noqa: BLE001 — report, don't die
                self._error(500, f"stats failed: {exc}")
                return
            self._send_json(200, {"schema_version": SCHEMA_VERSION,
                                  "http": self.server.counters(),
                                  "admission": self.server.admission_stats(),
                                  "engine": stats})
        else:
            self._error(404, f"unknown path {self.path!r}")

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        """Route ``/advise``, ``/advise/batch``, ``/reload``, and the
        ``/canary`` lifecycle — bare (legacy) or ``/v1/``-prefixed.  Only
        single-snippet advice differs between the two: ``/v1/advise``
        answers the v1 result schema, the legacy alias keeps the legacy
        shape (batch answers the v1 schema on both spellings — it is a
        strict superset, so legacy clients keep parsing)."""
        self._discard_unread_body()
        v1 = self.path != _strip_v1(self.path)
        path = _strip_v1(self.path)
        if path == "/advise":
            self._handle_advise(v1=v1)
        elif path == "/advise/batch":
            self._handle_advise_batch()
        elif path == "/reload":
            self._handle_reload()
        elif path == "/canary":
            self._handle_canary_start()
        elif path == "/canary/promote":
            self._handle_canary_finish("promote", "canary_promote")
        elif path == "/canary/rollback":
            self._handle_canary_finish("rollback", "canary_rollback")
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _handle_advise(self, v1: bool = False) -> None:
        if not self._admit():
            return
        try:
            payload = self._read_body()
            if payload is None:
                return
            code = payload.get("code")
            if not isinstance(code, str) or not code.strip():
                self._error(400,
                            "request needs a non-empty string 'code' field")
                return
            self.server.bump("advise")
            try:
                # the legacy path prefers async micro-batching: concurrent
                # handler threads enqueue on the per-head submit() queues
                # and their snippets coalesce into shared forward passes,
                # instead of each request running its own batch-of-1
                # (advisors without the async surface, e.g.
                # ShardedEngine, answer through advise_v1)
                advise_async = getattr(self.server.advisor,
                                       "advise_v1_async", None)
                if v1 or advise_async is None:
                    body = _advise_v1(self.server.advisor, [code],
                                      [payload.get("id")])[0].as_dict()
                else:
                    body = advise_async(code).as_dict()
                if not v1:  # the legacy shape lacks the v1 fields
                    for key in _V1_ONLY_KEYS:
                        body.pop(key, None)
            except Exception as exc:  # noqa: BLE001 — report, don't die
                self.server.record_outcome(False)
                self._error(500, f"inference failed: {exc}")
                return
            self.server.record_outcome(True)
            self._send_json(200, body)
        finally:
            self.server.release()

    def _handle_reload(self) -> None:
        """Hot-swap the advisor's checkpoint (``POST /reload``).

        ``{"path": ...}`` selects the checkpoint directory; an empty body
        falls back to the server's ``reload_dir``.  On success the reply
        carries the new ``model_version``; on failure the advisor keeps
        serving the old weights and the error says why.
        """
        path = self.server.reload_dir
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            self._error(400, "invalid Content-Length")
            return
        if length > 0:
            payload = self._read_body()
            if payload is None:
                return
            path = payload.get("path", path)
        if not isinstance(path, str) or not path:
            self._error(400, "no checkpoint: POST {\"path\": ...} or start "
                             "the server with a reload/watch directory")
            return
        reload_fn = getattr(self.server.advisor, "reload", None)
        if reload_fn is None:
            self._error(501, "advisor does not support hot reload")
            return
        self.server.bump("reload")
        try:
            version = reload_fn(path)
        except Exception as exc:  # noqa: BLE001 — old weights keep serving
            self._error(500, f"reload failed: {exc}")
            return
        self._send_json(200, {"status": "reloaded", "path": path,
                              "model_version": version})

    def _handle_canary_start(self) -> None:
        """Start a canary rollout (``POST /canary``).

        Body: ``{"path": "ckpt/", "fraction": 0.1}`` — ``path`` is
        required, ``fraction`` defaults to 0.1 and must be in (0, 1].
        ``409`` when a canary is already active; on a bad checkpoint the
        primary keeps serving all traffic and the reply is ``500``.
        """
        payload = self._read_body()
        if payload is None:
            return
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            self._error(400, "request needs a non-empty string 'path' field")
            return
        fraction = payload.get("fraction", 0.1)
        if (isinstance(fraction, bool) or not isinstance(fraction, (int, float))
                or not 0.0 < float(fraction) <= 1.0):
            self._error(400, "'fraction' must be a number in (0, 1]")
            return
        start = getattr(self.server.advisor, "start_canary", None)
        if start is None:
            self._error(501, "advisor does not support canary rollouts")
            return
        self.server.bump("canary")
        try:
            version = start(path, float(fraction))
        except RuntimeError as exc:  # a canary is already rolling out
            self._error(409, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — primary keeps serving
            self._error(500, f"canary failed to start: {exc}")
            return
        self._send_json(200, {"status": "canary-started", "path": path,
                              "fraction": float(fraction),
                              "version": version})

    def _handle_canary_finish(self, action: str, counter: str) -> None:
        """Finish a canary rollout (``POST /canary/promote|rollback``).

        No body required.  ``409`` with no canary active; ``501`` when
        the advisor has no canary surface.
        """
        fn = getattr(self.server.advisor, action, None)
        if fn is None:
            self._error(501, "advisor does not support canary rollouts")
            return
        self.server.bump(counter)
        try:
            result = fn()
        except RuntimeError as exc:  # no canary active / partial fleet
            self._error(409, str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — report, don't die
            self._error(500, f"canary {action} failed: {exc}")
            return
        if action == "promote":
            self._send_json(200, {"status": "promoted",
                                  "model_version": result})
        else:
            self._send_json(200, {"status": "rolled-back"})

    def _handle_advise_batch(self) -> None:
        if not self._admit():
            return
        try:
            payload = self._read_body()
            if payload is None:
                return
            items = self._parse_batch(payload)
            if items is None:
                return
            cap = self.server.admission.max_batch_snippets
            if len(items) > cap:
                self._error(400, f"batch of {len(items)} snippets exceeds "
                                 f"the {cap}-snippet cap; split the request")
                return
            self.server.bump("advise_batch")
            good = [(i, code) for i, (_, code, err) in enumerate(items)
                    if err is None]
            advices: List = []
            if good:
                try:
                    # batch answers the v1 result schema on both the
                    # legacy and the /v1/ spelling: it is a strict
                    # superset of the legacy shape
                    advices = _advise_v1(
                        self.server.advisor,
                        [code for _, code in good],
                        [items[i][0] for i, _ in good])
                except Exception as exc:  # noqa: BLE001 — report, don't die
                    self.server.record_outcome(False)
                    self._error(500, f"inference failed: {exc}")
                    return
                self.server.record_outcome(True)
            advice_at = {i: adv for (i, _), adv in zip(good, advices)}
            results = []
            for i, (rid, _, err) in enumerate(items):
                if err is not None:
                    results.append({"id": rid, "error": err})
                else:
                    body = advice_at[i].as_dict()
                    body["id"] = rid
                    results.append(body)
            self._send_json(200, {"results": results})
        finally:
            self.server.release()

    def _parse_batch(self, payload: Dict):
        """``{"codes": [...]}`` or ``{"requests": [{"id","code"}]}`` ->
        list of ``(id, code, error)`` triples, one per requested snippet,
        with exactly one of ``code``/``error`` set.

        Body-*structure* problems (missing list, wrong container types)
        reply 400 and return ``None``; per-*item* problems (missing,
        empty, or non-string code) become error triples, so one dirty
        snippet costs itself an ``{"id", "error"}`` entry in the 200
        reply instead of rejecting its whole batch."""
        item_error = "needs a non-empty string 'code'"
        if "codes" in payload:
            codes = payload["codes"]
            if not isinstance(codes, list):
                self._error(400, "'codes' must be a list of strings")
                return None
            return [(i, code, None)
                    if isinstance(code, str) and code.strip()
                    else (i, None, item_error)
                    for i, code in enumerate(codes)]
        requests = payload.get("requests")
        if not isinstance(requests, list):
            self._error(400, "body needs a 'codes' or 'requests' list")
            return None
        items: List = []
        for i, req in enumerate(requests):
            if not isinstance(req, dict):
                self._error(400, f"requests[{i}] must be an object")
                return None
            code = req.get("code")
            if isinstance(code, str) and code.strip():
                items.append((req.get("id", i), code, None))
            else:
                items.append((req.get("id", i), None, item_error))
        return items


def _strip_v1(path: str) -> str:
    """Normalize a ``/v1/``-prefixed path to its legacy spelling (the
    router matches on legacy paths; the prefix only selects the v1
    response schema where the two differ)."""
    if path == "/v1" or path.startswith("/v1/"):
        return path[len("/v1"):] or "/"
    return path


#: Routes whose handlers never read the request body (legacy spelling).
_BODYLESS = frozenset({"/healthz", "/stats", "/canary/promote",
                       "/canary/rollback"})

#: ``AdviceResult.as_dict`` keys the legacy ``POST /advise`` body lacks.
_V1_ONLY_KEYS = ("recovered", "model_version", "arm", "id")


def _advise_v1(advisor, codes: List[str], ids: List) -> List:
    """v1 results for ``codes`` from the advisor, tagged with ``ids``."""
    return advisor.advise_v1([AdviceRequest(code=code, id=rid)
                              for code, rid in zip(codes, ids)])


def make_server(advisor, host: str = "127.0.0.1", port: int = 0,
                reload_dir: Optional[str] = None,
                admission: Optional[AdmissionConfig] = None,
                ) -> AdvisorHTTPServer:
    """Bind an :class:`AdvisorHTTPServer` (``port=0`` = ephemeral) without
    starting it — callers drive ``serve_forever``/``shutdown`` themselves
    (tests run it on a thread).  ``reload_dir`` is the default checkpoint
    directory a body-less ``POST /reload`` falls back to; ``admission``
    overrides the default :class:`AdmissionConfig`."""
    return AdvisorHTTPServer((host, port), advisor, reload_dir=reload_dir,
                             admission=admission)


#: Sentinel for ``serve_forever(watch_baseline=...)``: let the watcher
#: stat the manifest itself at construction time.
_BASELINE_UNSET = object()


def serve_forever(advisor, host: str, port: int, banner: bool = True,
                  watch_dir: Optional[str] = None,
                  watch_interval: float = 2.0,
                  watch_baseline=_BASELINE_UNSET,
                  admission: Optional[AdmissionConfig] = None) -> None:
    """Blocking convenience loop for the CLI: bind, announce, serve until
    interrupted, then close the advisor.

    With ``watch_dir`` set, a
    :class:`~repro.serve.registry.CheckpointWatcher` polls that advisor
    checkpoint directory every ``watch_interval`` seconds and hot-reloads
    the advisor when a new checkpoint lands; the directory also becomes
    the default for body-less ``POST /reload``.  ``watch_baseline`` is
    the manifest mtime the advisor was loaded from (capture it *before*
    loading, see :func:`repro.serve.registry.checkpoint_mtime`) so a
    checkpoint landing during the load window is still reloaded; by
    default the watcher baselines at construction.  ``admission``
    overrides the default :class:`AdmissionConfig` (the CLI's
    ``--max-body-bytes`` plumbs through here).
    """
    from repro.serve.registry import CheckpointWatcher

    server = make_server(advisor, host, port, reload_dir=watch_dir,
                         admission=admission)
    watcher = None
    if watch_dir is not None:
        kwargs = ({} if watch_baseline is _BASELINE_UNSET
                  else {"baseline_mtime": watch_baseline})
        watcher = CheckpointWatcher(advisor, watch_dir,
                                    interval=watch_interval, **kwargs).start()
    bound_host, bound_port = server.server_address[:2]
    if banner:
        watching = f", watching {watch_dir}" if watch_dir is not None else ""
        print(f"advisor listening on http://{bound_host}:{bound_port} "
              f"(POST /advise, POST /advise/batch, POST /reload, "
              f"POST /canary[/promote|/rollback], "
              f"GET /healthz, GET /stats — all also under /v1/"
              f"{watching})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover — interactive exit
        pass
    finally:
        if watcher is not None:
            watcher.stop()
        server.server_close()
        close = getattr(advisor, "close", None)
        if close is not None:
            close()
