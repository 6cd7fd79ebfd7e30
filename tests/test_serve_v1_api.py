"""The unified v1 advice API: AdviceRequest/AdviceResult everywhere.

Three contracts:

* **parity** — the legacy ``advise*`` sprawl and the v1 surface answer
  bit-identically, field by field: the old methods are thin shims now
  and must never drift from ``advise_v1``;
* **context** — ``model_version`` / ``arm`` / ``recovered`` /
  ``degraded`` ride first-class on every result (engine, fleet, HTTP);
* **wire** — ``/v1/*`` endpoints serve the new schema,
  ``schema_version`` appears in ``/stats``, and the legacy aliases keep
  answering (the v1 body is a strict superset of the legacy body).
"""

import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.models import PragFormer
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    SCHEMA_VERSION,
    AdviceRequest,
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


class TestEngineParity:
    """The legacy shims and advise_v1 must answer identically."""

    def test_v1_dict_is_strict_superset_of_legacy(self, engine):
        for code in SNIPPETS:
            legacy = engine.advise_full(code).as_dict()
            v1 = engine.advise_v1([code])[0].as_dict()
            for key, value in legacy.items():
                assert v1[key] == value, key
            assert set(v1) - set(legacy) == {"recovered", "model_version",
                                             "arm"}

    def test_single_and_bulk_shims_match_v1(self, engine):
        results = engine.advise_v1(SNIPPETS)
        advices = engine.advise_many(SNIPPETS)
        fulls = engine.advise_full_many(SNIPPETS)
        for code, res, adv, full in zip(SNIPPETS, results, advices, fulls):
            assert res.verdict == adv.needs_directive
            assert res.probability == pytest.approx(adv.probability)
            assert res.clauses == full.clauses
            assert engine.advise(code).probability == pytest.approx(
                res.probability)

    def test_shims_are_marked_deprecated(self):
        for name in ("advise", "advise_many", "advise_full",
                     "advise_full_many"):
            doc = getattr(MultiModelEngine, name).__doc__
            assert "deprecated" in doc, name


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

    def test_fleet_parity_with_legacy_bulk(self, checkpoints):
        a, _ = checkpoints
        with self._fleet(a) as sharded:
            fulls = sharded.advise_full_many(SNIPPETS)
            results = sharded.advise_v1(SNIPPETS)
            for full, res in zip(fulls, results):
                assert res.probability == pytest.approx(
                    full.directive.probability)
                assert res.verdict == full.directive.needs_directive
                assert res.arm == "primary"

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

def _build_multi(path):
    """Module-level worker factory (picklable under 'spawn')."""
    return MultiModelEngine(ModelRegistry.from_checkpoint(path))


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
