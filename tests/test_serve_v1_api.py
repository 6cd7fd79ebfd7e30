"""The unified v1 advice API: AdviceRequest/AdviceResult everywhere.

Three contracts:

* **one verdict everywhere** — the same trace (clean snippets, the dirty
  corpus, an oversize snippet) gets the same verdict, probability,
  clauses, ``degraded`` and ``recovered`` from every surface: the
  engine with and without gating, the async path, the fleet at 1 and 2
  shards, and HTTP batch, ``/v1/advise`` and legacy ``/advise``;
* **context** — ``model_version`` / ``arm`` / ``recovered`` /
  ``degraded`` ride first-class on every result (engine, fleet, HTTP);
* **wire** — ``/v1/*`` endpoints serve the new schema,
  ``schema_version`` appears in ``/stats``, and the legacy aliases keep
  answering (the v1 body is a strict superset of the legacy body).
"""

import functools
import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    SCHEMA_VERSION,
    AdviceRequest,
    EngineConfig,
    ModelRegistry,
    MultiModelEngine,
    ShardedEngine,
    make_server,
)
from repro.tokenize import Vocab, robust_text_tokens, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 1; i < n; i++) a[i] = a[i-1];",
    "while (k < n) { total += buf[k]; k++; }",
]

#: lexes only through error recovery (stray ``@#$`` emits ERROR_TOKEN)
DIRTY = "for (i = 0; i < n; i++) { a[i] = @#$ b[i]; }"

HEAD_NAMES = ("directive", "private", "reduction")


@pytest.fixture(scope="module")
def vocab():
    return Vocab.build([text_tokens(code) for code in SNIPPETS]
                       + [robust_text_tokens(DIRTY)], min_freq=1)


def _registry(vocab, seed0=0):
    registry = ModelRegistry()
    for k, name in enumerate(HEAD_NAMES):
        registry.register(name,
                          PragFormer(len(vocab), replace(TINY, seed=seed0 + k),
                                     rng=seed0 + k),
                          vocab, max_len=TINY.max_len)
    return registry


@pytest.fixture()
def engine(vocab):
    with MultiModelEngine(_registry(vocab)) as engine:
        yield engine


class TestAdviceRequest:
    def test_needs_exactly_one_input_form(self):
        """Source text is the one input form."""
        with pytest.raises(ValueError, match="code="):
            AdviceRequest()
        with pytest.raises(ValueError, match="code="):
            AdviceRequest(code=b"int x;")

    def test_of_coerces_bare_strings(self):
        req = AdviceRequest.of("int x;")
        assert req.code == "int x;" and req.id is None
        same = AdviceRequest(code="y", id="r1")
        assert AdviceRequest.of(same) is same
        with pytest.raises(TypeError):
            AdviceRequest.of(42)


class TestOperationalContext:
    def test_id_is_echoed(self, engine):
        results = engine.advise_v1([AdviceRequest(code=SNIPPETS[0], id="r7")])
        assert results[0].id == "r7"
        assert results[0].as_dict()["id"] == "r7"
        anonymous = engine.advise_v1(SNIPPETS)[0]
        assert "id" not in anonymous.as_dict()

    def test_recovered_rides_on_the_result(self, engine):
        clean, dirty = engine.advise_v1([SNIPPETS[0], DIRTY])
        assert clean.recovered is False
        assert dirty.recovered is True

    def test_model_version_tracks_reload(self, engine, vocab, tmp_path):
        assert engine.advise_v1(SNIPPETS)[0].model_version == "0"
        ckpt = tmp_path / "ckpt"
        _registry(vocab, 50).save(ckpt)
        version = engine.reload(ckpt)
        assert engine.advise_v1(SNIPPETS)[0].model_version == version

    def test_canary_arm_is_stamped(self, engine, vocab, tmp_path):
        ckpt = tmp_path / "ckpt_canary"
        _registry(vocab, 70).save(ckpt)
        version = engine.start_canary(ckpt, 1.0)  # whole digest space
        for res in engine.advise_v1(SNIPPETS):
            assert res.arm == "canary"
            assert res.model_version == version
        engine.rollback()
        for res in engine.advise_v1(SNIPPETS):
            assert res.arm == "primary"


class TestShardedV1:
    @pytest.fixture()
    def checkpoints(self, vocab, tmp_path):
        a, b = tmp_path / "ckpt_a", tmp_path / "ckpt_b"
        _registry(vocab, 0).save(a)
        _registry(vocab, 100).save(b)
        return a, b

    def _fleet(self, path, n_shards=2):
        import functools

        return ShardedEngine(
            functools.partial(_build_multi, str(path)), n_shards=n_shards)

    def test_fleet_recovered_from_worker_lexing(self, checkpoints):
        """Workers lex the source text, so ``recovered`` comes back from
        them on the result — no router-side bookkeeping."""
        a, _ = checkpoints
        with self._fleet(a) as sharded:
            clean, dirty = sharded.advise_v1([SNIPPETS[0], DIRTY])
            assert clean.recovered is False
            assert dirty.recovered is True

    def test_fleet_canary_arm_and_version(self, checkpoints):
        a, b = checkpoints
        with self._fleet(a) as sharded:
            version = sharded.start_canary(b, 1.0)
            for res in sharded.advise_v1(SNIPPETS):
                assert res.arm == "canary"
                assert res.model_version == version
            promoted = sharded.promote()
            for res in sharded.advise_v1(SNIPPETS):
                assert res.arm == "primary"
                assert res.model_version == promoted

def _build_multi(path, config=None):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path), config)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(url, payload):
    body = json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


@pytest.fixture(scope="module")
def server_url(vocab):
    advisor = MultiModelEngine(_registry(vocab))
    server = make_server(advisor, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    advisor.close()
    thread.join(timeout=5)


class TestHTTPv1:
    def test_v1_advise_answers_v1_schema(self, server_url):
        status, body = _post(server_url + "/v1/advise",
                             {"code": SNIPPETS[0], "id": "req-1"})
        assert status == 200
        for key in ("needs_directive", "p_directive", "clauses",
                    "recommended_clauses", "degraded", "recovered",
                    "model_version", "arm"):
            assert key in body, key
        assert body["arm"] == "primary"
        assert body["id"] == "req-1"

    def test_legacy_advise_keeps_legacy_shape(self, server_url):
        status, body = _post(server_url + "/advise", {"code": SNIPPETS[0]})
        assert status == 200
        assert "model_version" not in body
        v1 = _post(server_url + "/v1/advise", {"code": SNIPPETS[0]})[1]
        assert v1["p_directive"] == body["p_directive"]

    def test_batch_answers_v1_schema_on_both_spellings(self, server_url):
        for prefix in ("", "/v1"):
            status, body = _post(server_url + prefix + "/advise/batch",
                                 {"codes": SNIPPETS[:2]})
            assert status == 200
            for result in body["results"]:
                assert "model_version" in result
                assert "arm" in result
            assert [r["id"] for r in body["results"]] == [0, 1]

    def test_stats_reports_schema_version(self, server_url):
        status, body = _get(server_url + "/stats")
        assert status == 200
        assert body["schema_version"] == SCHEMA_VERSION
        status, v1_body = _get(server_url + "/v1/stats")
        assert status == 200
        assert v1_body["schema_version"] == SCHEMA_VERSION

    def test_v1_healthz_alias(self, server_url):
        status, body = _get(server_url + "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_v1_canary_lifecycle_routes(self, server_url):
        """/v1/canary* reach the same handlers as the legacy paths —
        with no canary active promote/rollback answer 409."""
        for endpoint in ("/v1/canary/promote", "/v1/canary/rollback"):
            req = urllib.request.Request(server_url + endpoint, data=b"",
                                         method="POST")
            try:
                urllib.request.urlopen(req, timeout=10)
                raise AssertionError("expected 409")
            except urllib.error.HTTPError as exc:
                assert exc.code == 409

    def test_unknown_v1_path_is_404(self, server_url):
        req = urllib.request.Request(server_url + "/v1/nope", data=b"{}",
                                     method="POST")
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("expected 404")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404


DIRTY_DIR = Path(__file__).parent / "data" / "dirty"

#: a byte cap small enough that one snippet of the trace is rejected
LIMITS = EngineConfig(max_snippet_bytes=16384)
OVERSIZE = "for (i = 0; i < n; i++) a[i] = b[i];\n" * 600

#: the keys legacy ``POST /advise`` answers with
LEGACY_KEYS = {"needs_directive", "p_directive", "clauses",
               "recommended_clauses", "degraded"}


class TestCrossSurfaceVerdicts:
    """One trace through every advice surface; each must answer what
    the ungated in-process engine answers."""

    @pytest.fixture(scope="class")
    def trace(self):
        dirty = [path.read_bytes().decode("utf-8", errors="replace")
                 for path in sorted(DIRTY_DIR.glob("*.c"))]
        assert len(dirty) >= 50
        return SNIPPETS + [DIRTY] + dirty + [OVERSIZE]

    @pytest.fixture(scope="class")
    def ckpt(self, vocab, tmp_path_factory):
        path = tmp_path_factory.mktemp("cross") / "ckpt"
        _registry(vocab).save(path)
        return str(path)

    @pytest.fixture(scope="class")
    def reference(self, ckpt, trace):
        with _build_multi(ckpt, LIMITS) as engine:
            ref = [res.as_dict() for res in engine.advise_v1(trace)]
        # the trace must exercise every flag the surfaces have to agree on
        assert sum(r["degraded"] for r in ref) == 1
        assert any(r["recovered"] for r in ref)
        assert any(r["needs_directive"] for r in ref)
        assert any(not r["needs_directive"] for r in ref)
        return ref

    @staticmethod
    def _assert_same(reference, bodies, legacy=False):
        assert len(bodies) == len(reference)
        for ref, body in zip(reference, bodies):
            if legacy:
                assert set(body) == LEGACY_KEYS
            else:
                assert body["recovered"] == ref["recovered"]
            assert body["needs_directive"] == ref["needs_directive"]
            assert body["p_directive"] == pytest.approx(ref["p_directive"],
                                                        abs=1e-5)
            assert body["degraded"] == ref["degraded"]
            assert set(body["clauses"]) == set(ref["clauses"])
            for name, clause in body["clauses"].items():
                expected = ref["clauses"][name]
                assert clause["suggested"] == expected["suggested"]
                assert clause["probability"] == pytest.approx(
                    expected["probability"], abs=1e-5)
            assert body["recommended_clauses"] == ref["recommended_clauses"]

    def test_gated_engine(self, ckpt, trace, reference):
        """The two-stage gated pipeline; a margin of 0.5 fans every row
        out, so the clause sets match the ungated reference."""
        with _build_multi(ckpt, replace(LIMITS, gate_margin=0.5)) as engine:
            results = engine.advise_v1(trace)
            assert engine.stats()["clause_gating"]["fanned_out"] == \
                len(trace) - 1
        self._assert_same(reference, [r.as_dict() for r in results])

    def test_async_engine(self, ckpt, trace, reference):
        with _build_multi(ckpt, LIMITS) as engine:
            results = [engine.advise_v1_async(code, timeout=30)
                       for code in trace]
        self._assert_same(reference, [r.as_dict() for r in results])

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_sharded_engine(self, ckpt, trace, reference, n_shards):
        with ShardedEngine(functools.partial(_build_multi, ckpt, LIMITS),
                           n_shards=n_shards) as fleet:
            results = fleet.advise_v1(trace)
        self._assert_same(reference, [r.as_dict() for r in results])

    @pytest.fixture()
    def url(self, ckpt):
        advisor = _build_multi(ckpt, LIMITS)
        server = make_server(advisor, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        advisor.close()
        thread.join(timeout=5)

    def test_http_batch(self, url, trace, reference):
        status, body = _post(url + "/v1/advise/batch", {"codes": trace})
        assert status == 200
        self._assert_same(reference, body["results"])

    def test_http_v1_advise(self, url, trace, reference):
        bodies = [_post(url + "/v1/advise", {"code": code})[1]
                  for code in trace]
        self._assert_same(reference, bodies)

    def test_http_legacy_advise(self, url, trace, reference):
        bodies = [_post(url + "/advise", {"code": code})[1]
                  for code in trace]
        self._assert_same(reference, bodies, legacy=True)
