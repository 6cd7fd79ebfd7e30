"""Round-trip tests for the stdlib HTTP advisor front-end."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import ModelRegistry, MultiModelEngine, make_server
from repro.tokenize import Vocab, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 1; i < n; i++) a[i] = a[i-1];",
]


@pytest.fixture(scope="module")
def server_url():
    vocab = Vocab.build([text_tokens(code) for code in SNIPPETS], min_freq=1)
    registry = ModelRegistry()
    for name in ("directive", "private", "reduction"):
        registry.register(name, PragFormer(len(vocab), TINY), vocab,
                          max_len=TINY.max_len)
    advisor = MultiModelEngine(registry)
    server = make_server(advisor, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    advisor.close()
    thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(url, payload):
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class TestEndpoints:
    def test_healthz_lists_heads(self, server_url):
        status, body = _get(server_url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["heads"] == ["directive", "private", "reduction"]

    def test_advise_single(self, server_url):
        status, body = _post(server_url + "/advise", {"code": SNIPPETS[0]})
        assert status == 200
        assert isinstance(body["needs_directive"], bool)
        assert 0.0 <= body["p_directive"] <= 1.0
        assert set(body["clauses"]) == {"private", "reduction"}
        for clause in body["clauses"].values():
            assert 0.0 <= clause["probability"] <= 1.0
            assert isinstance(clause["suggested"], bool)

    def test_advise_batch_codes_form(self, server_url):
        status, body = _post(server_url + "/advise/batch",
                             {"codes": SNIPPETS})
        assert status == 200
        assert [r["id"] for r in body["results"]] == [0, 1, 2]
        single = _post(server_url + "/advise", {"code": SNIPPETS[1]})[1]
        assert body["results"][1]["p_directive"] == single["p_directive"]

    def test_advise_batch_requests_form(self, server_url):
        status, body = _post(server_url + "/advise/batch", {"requests": [
            {"id": "loop-a", "code": SNIPPETS[0]},
            {"id": "loop-b", "code": SNIPPETS[2]},
        ]})
        assert status == 200
        assert [r["id"] for r in body["results"]] == ["loop-a", "loop-b"]

    def test_stats_reports_cache_and_batch_metrics(self, server_url):
        # repeat a snippet so the prediction LRU provably hits
        _post(server_url + "/advise", {"code": SNIPPETS[0]})
        _post(server_url + "/advise", {"code": SNIPPETS[0]})
        status, body = _get(server_url + "/stats")
        assert status == 200
        assert body["http"]["advise"] >= 2
        combined = body["engine"]["combined"]
        assert combined["requests"] > 0
        assert combined["cache_hits"] > 0
        assert combined["batches"] > 0
        assert sum(combined["batch_size_hist"].values()) == combined["batches"]


class TestConcurrentMicroBatching:
    def test_concurrent_advise_coalesces_into_shared_batches(self):
        """N handler threads hitting POST /advise simultaneously must ride
        the engines' async submit() queues and share forward passes —
        the pre-overhaul behaviour was one batch-of-1 forward per request.
        """
        from repro.serve import EngineConfig

        n_clients = 8
        codes = [f"for (i = 0; i < n; i++) a{k}[i] = b{k}[i] * {k};"
                 for k in range(n_clients)]
        vocab = Vocab.build([text_tokens(code) for code in codes], min_freq=1)
        registry = ModelRegistry()
        for name in ("directive", "private"):
            registry.register(name, PragFormer(len(vocab), TINY), vocab,
                              max_len=TINY.max_len)
        # a generous flush window so requests posted together provably land
        # in one micro-batch (cache disabled: every request must hit the
        # model for the batch accounting to be observable)
        advisor = MultiModelEngine(registry, config=EngineConfig(
            flush_interval=0.25, cache_capacity=0))
        server = make_server(advisor, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}/advise"
        barrier = threading.Barrier(n_clients)
        results, errors = [None] * n_clients, []

        def client(i):
            try:
                barrier.wait(timeout=10)
                results[i] = _post(url, {"code": codes[i]})
            except Exception as exc:  # noqa: BLE001 — surface in main thread
                errors.append(exc)

        try:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            for status, body in results:
                assert status == 200
                assert set(body["clauses"]) == {"private"}
            stats = advisor.stats()["heads"]["directive"]
            assert stats["requests"] == n_clients
            # coalesced: strictly fewer forward batches than requests, and
            # at least one batch carried multiple snippets (histogram keys
            # are batch_hist_bucket labels: "1", "2", "3-4", ...)
            assert stats["batches"] < n_clients
            assert any(size != "1" and count > 0
                       for size, count in stats["batch_size_hist"].items())
        finally:
            server.shutdown()
            server.server_close()
            advisor.close()
            thread.join(timeout=5)


class TestReloadEndpoint:
    """POST /reload: hot checkpoint swap through the HTTP front door."""

    @pytest.fixture()
    def reload_setup(self, tmp_path):
        vocab = Vocab.build([text_tokens(code) for code in SNIPPETS],
                            min_freq=1)

        def registry(seed0):
            reg = ModelRegistry()
            for k, name in enumerate(("directive", "private")):
                reg.register(name, PragFormer(len(vocab), TINY, rng=seed0 + k),
                             vocab, max_len=TINY.max_len)
            return reg

        ckpt_a, ckpt_b = tmp_path / "ckpt_a", tmp_path / "ckpt_b"
        registry(0).save(ckpt_a)
        registry(50).save(ckpt_b)
        advisor = MultiModelEngine(ModelRegistry.from_checkpoint(ckpt_a))
        server = make_server(advisor, port=0, reload_dir=str(ckpt_a))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", advisor, ckpt_b
        server.shutdown()
        server.server_close()
        advisor.close()
        thread.join(timeout=5)

    def test_reload_with_explicit_path(self, reload_setup):
        url, advisor, ckpt_b = reload_setup
        before = _post(url + "/advise", {"code": SNIPPETS[0]})[1]
        status, body = _post(url + "/reload", {"path": str(ckpt_b)})
        assert status == 200
        assert body["status"] == "reloaded"
        assert body["model_version"] == f"v1:{ckpt_b.name}"
        after = _post(url + "/advise", {"code": SNIPPETS[0]})[1]
        assert after["p_directive"] != before["p_directive"]
        # /stats must reflect the swap so operators can verify it happened
        stats = _get(url + "/stats")[1]
        assert stats["engine"]["model_version"] == body["model_version"]
        assert stats["engine"]["reloads"] == 1
        assert stats["http"]["reload"] == 1

    def test_reload_empty_body_uses_server_default(self, reload_setup):
        url, advisor, _ = reload_setup
        req = urllib.request.Request(url + "/reload", method="POST")
        with urllib.request.urlopen(req, timeout=10) as resp:
            body = json.loads(resp.read().decode("utf-8"))
        assert body["status"] == "reloaded"
        assert body["model_version"].endswith("ckpt_a")

    def test_reload_bad_checkpoint_500_keeps_serving(self, reload_setup):
        url, advisor, _ = reload_setup
        version = advisor.model_version
        req = urllib.request.Request(
            url + "/reload",
            data=json.dumps({"path": "/nonexistent/ckpt"}).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 500
        assert advisor.model_version == version
        assert _post(url + "/advise", {"code": SNIPPETS[0]})[0] == 200

    def test_reload_unsupported_advisor_501(self):
        class Plain:
            """Advisor without a reload surface."""

            def advise_v1(self, requests):
                raise NotImplementedError

            def stats(self):
                return {}

        server = make_server(Plain(), port=0, reload_dir="somewhere")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            req = urllib.request.Request(f"http://{host}:{port}/reload",
                                         method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 501
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_reload_no_path_no_default_400(self, tmp_path):
        vocab = Vocab.build([text_tokens(SNIPPETS[0])], min_freq=1)
        registry = ModelRegistry()
        registry.register("directive", PragFormer(len(vocab), TINY), vocab,
                          max_len=TINY.max_len)
        advisor = MultiModelEngine(registry)
        server = make_server(advisor, port=0)  # no reload_dir
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            req = urllib.request.Request(f"http://{host}:{port}/reload",
                                         method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400
        finally:
            server.shutdown()
            server.server_close()
            advisor.close()
            thread.join(timeout=5)


class TestErrorHandling:
    def _post_error(self, url, data):
        req = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        return err.value.code, json.loads(err.value.read().decode("utf-8"))

    def test_unknown_path_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server_url + "/nope", timeout=10)
        assert err.value.code == 404

    def test_invalid_json_400(self, server_url):
        code, body = self._post_error(server_url + "/advise", b"not json")
        assert code == 400
        assert "invalid JSON" in body["error"]

    def test_missing_code_field_400(self, server_url):
        code, body = self._post_error(server_url + "/advise",
                                      json.dumps({"snippet": "x"}).encode())
        assert code == 400
        assert "code" in body["error"]

    def test_bad_batch_structure_400(self, server_url):
        """Body-structure problems still reject the whole batch."""
        code, _ = self._post_error(server_url + "/advise/batch",
                                   json.dumps({"codes": "x"}).encode())
        assert code == 400
        code, _ = self._post_error(server_url + "/advise/batch",
                                   json.dumps({"requests": ["x"]}).encode())
        assert code == 400

    def test_empty_code_rejected_on_advise(self, server_url):
        code, _ = self._post_error(server_url + "/advise",
                                   json.dumps({"code": "  "}).encode())
        assert code == 400

    def test_batch_reports_bad_items_per_item(self, server_url):
        """One dirty snippet gets an {"id","error"} entry; the rest of
        the batch is still answered — a 200, not a batch-wide 400."""
        status, body = _post(server_url + "/advise/batch", {"requests": [
            {"id": "ok", "code": "for (i = 0; i < n; i++) a[i] = i;"},
            {"id": "empty", "code": " "},
            {"id": "notstr", "code": 7},
        ]})
        assert status == 200
        results = body["results"]
        assert [r["id"] for r in results] == ["ok", "empty", "notstr"]
        assert "p_directive" in results[0] and "error" not in results[0]
        assert "error" in results[1] and "error" in results[2]
        # codes form: non-strings and empties also answer per item
        status, body = _post(server_url + "/advise/batch",
                             {"codes": [1, "int x = 1;"]})
        assert status == 200
        assert "error" in body["results"][0]
        assert "p_directive" in body["results"][1]

    def test_non_utf8_body_handled(self, server_url):
        """Bad bytes inside a JSON string are replaced and served; bad
        bytes that corrupt the framing answer a structured 400.  Both
        tick the invalid_body admission counter."""
        import urllib.request

        # \xff inside the string value: replace-decode keeps valid JSON
        dirty = b'{"code": "int x = 1; // \xff\xfe"}'
        req = urllib.request.Request(
            server_url + "/advise", data=dirty,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200
        # \xff replacing the opening brace: not salvageable
        code, body = self._post_error(server_url + "/advise",
                                      b'\xff"code": "int x = 1;"}')
        assert code == 400
        assert "UTF-8" in body["error"]
        with urllib.request.urlopen(server_url + "/stats",
                                    timeout=10) as resp:
            stats = json.loads(resp.read().decode("utf-8"))
        assert stats["admission"]["invalid_body"] >= 2

    def test_oversized_body_413_closes_connection(self, server_url):
        """The 413 path answers from the Content-Length header alone and
        must tell the client the connection is done (the unread body would
        otherwise be parsed as the next request)."""
        import http.client

        from repro.serve.http_api import MAX_BODY_BYTES

        host, port = server_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/advise")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            body = json.loads(resp.read().decode("utf-8"))
            assert "exceeds" in body["error"]
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_get_with_body_keeps_the_connection_in_sync(self, server_url):
        """A body sent with a route that does not read it is discarded:
        the next request on the keep-alive connection parses cleanly."""
        import http.client

        host, port = server_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request("GET", "/v1/healthz", body=b'{"probe": true}')
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"
            conn.request("GET", "/v1/stats")
            resp = conn.getresponse()
            assert resp.status == 200
            assert "engine" in json.loads(resp.read())
        finally:
            conn.close()

    def test_oversized_unread_body_closes_connection(self, server_url):
        """A declared body above max_body_bytes on a body-less route is
        not read; the reply closes the connection instead."""
        import http.client

        from repro.serve.http_api import MAX_BODY_BYTES

        host, port = server_url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("GET", "/healthz")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.getheader("Connection") == "close"
            resp.read()
        finally:
            conn.close()

    def test_healthz_unhealthy_when_workers_dead(self):
        """A sharded advisor whose workers all crashed must fail the
        liveness probe, not answer 200 with an empty head list."""
        from repro.serve import ShardedEngine

        def crashing_factory():
            raise RuntimeError("no model for you")

        advisor = ShardedEngine(crashing_factory, n_shards=2)
        server = make_server(advisor, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://{host}:{port}/healthz",
                                       timeout=30)
            assert err.value.code == 503
            body = json.loads(err.value.read().decode("utf-8"))
            assert body["status"] == "unhealthy"
        finally:
            server.shutdown()
            server.server_close()
            advisor.close()
            thread.join(timeout=5)

    def test_server_survives_errors(self, server_url):
        status, _ = _post(server_url + "/advise", {"code": SNIPPETS[0]})
        assert status == 200


class TestCanaryEndpoints:
    """POST /canary + /canary/promote + /canary/rollback lifecycle."""

    @pytest.fixture()
    def canary_setup(self, tmp_path):
        vocab = Vocab.build([text_tokens(code) for code in SNIPPETS],
                            min_freq=1)

        def registry(seed0):
            reg = ModelRegistry()
            for k, name in enumerate(("directive", "private")):
                reg.register(name, PragFormer(len(vocab), TINY, rng=seed0 + k),
                             vocab, max_len=TINY.max_len)
            return reg

        ckpt_a, ckpt_b = tmp_path / "ckpt_a", tmp_path / "ckpt_b"
        registry(0).save(ckpt_a)
        registry(50).save(ckpt_b)
        advisor = MultiModelEngine(ModelRegistry.from_checkpoint(ckpt_a))
        server = make_server(advisor, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", advisor, ckpt_b
        server.shutdown()
        server.server_close()
        advisor.close()
        thread.join(timeout=5)

    def _post_status(self, url, payload=None):
        """POST returning (status, body) without raising on 4xx/5xx."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        req = urllib.request.Request(url, data=body)
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode("utf-8"))

    def test_full_lifecycle_start_stats_promote(self, canary_setup):
        url, advisor, ckpt_b = canary_setup
        status, body = self._post_status(
            url + "/canary", {"path": str(ckpt_b), "fraction": 0.5})
        assert status == 200
        assert body["status"] == "canary-started"
        assert body["fraction"] == 0.5
        version = body["version"]
        # per-arm counters are live in /stats while the rollout runs
        self._post_status(url + "/advise", {"code": SNIPPETS[0]})
        stats = _get(url + "/stats")[1]
        assert stats["engine"]["canary"]["version"] == version
        assert set(stats["engine"]["canary"]["arms"]) == {"primary", "canary"}
        status, body = self._post_status(url + "/canary/promote")
        assert status == 200
        assert body == {"status": "promoted", "model_version": version}
        stats = _get(url + "/stats")[1]
        assert stats["engine"]["model_version"] == version
        assert stats["engine"]["canary"] is None
        assert stats["engine"]["last_canary"]["outcome"] == "promoted"
        assert stats["http"]["canary"] == 1
        assert stats["http"]["canary_promote"] == 1

    def test_promote_with_body_keeps_the_connection_in_sync(
            self, canary_setup):
        """``/v1/canary/promote`` takes no body; one sent anyway must not
        be parsed as the next request on the keep-alive connection."""
        import http.client

        url, _, ckpt_b = canary_setup
        assert self._post_status(
            url + "/canary", {"path": str(ckpt_b), "fraction": 0.5})[0] == 200
        host, port = url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request("POST", "/v1/canary/promote",
                         body=json.dumps({"reason": "looks good"}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "promoted"
            conn.request("POST", "/v1/advise",
                         body=json.dumps({"code": SNIPPETS[0]}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 200
            assert "needs_directive" in json.loads(resp.read())
        finally:
            conn.close()

    def test_rollback_and_conflict_statuses(self, canary_setup):
        url, advisor, ckpt_b = canary_setup
        # finishing with no canary active is a 409, not a 500
        assert self._post_status(url + "/canary/promote")[0] == 409
        assert self._post_status(url + "/canary/rollback")[0] == 409
        assert self._post_status(
            url + "/canary", {"path": str(ckpt_b)})[0] == 200
        # a second rollout while one is active is a 409 too
        assert self._post_status(
            url + "/canary", {"path": str(ckpt_b)})[0] == 409
        status, body = self._post_status(url + "/canary/rollback")
        assert status == 200 and body == {"status": "rolled-back"}
        assert _get(url + "/stats")[1]["engine"]["model_version"] == "0"

    def test_bad_requests(self, canary_setup):
        url, advisor, ckpt_b = canary_setup
        # missing path, bad fraction, bad checkpoint
        assert self._post_status(url + "/canary", {})[0] == 400
        assert self._post_status(
            url + "/canary", {"path": str(ckpt_b), "fraction": 0})[0] == 400
        assert self._post_status(
            url + "/canary", {"path": str(ckpt_b), "fraction": "lots"})[0] == 400
        status, body = self._post_status(
            url + "/canary", {"path": str(ckpt_b / "nope")})
        assert status == 500
        # primary untouched after the failed start
        assert _get(url + "/healthz")[0] == 200
        assert _get(url + "/stats")[1]["engine"]["canary"] is None

    def test_advisor_without_canary_surface_501(self):
        class Plain:
            def advise_v1(self, requests):
                raise NotImplementedError

            def stats(self):
                return {}

        server = make_server(Plain(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            assert self._post_status(
                url + "/canary", {"path": "x"})[0] == 501
            assert self._post_status(url + "/canary/promote")[0] == 501
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
