"""Tests for the multi-model registry and its advise_v1 pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.encoding import encode_batch
from repro.models import PragFormer, load_advisor, save_advisor
from repro.models.pragformer import PragFormerConfig
from repro.serve import (
    AdviceResult,
    EngineConfig,
    ModelRegistry,
    MultiModelEngine,
)
from repro.tokenize import Vocab, text_tokens

TINY = PragFormerConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                        d_head_hidden=16, max_len=24, batch_size=8, seed=0)

SNIPPETS = [
    "for (i = 0; i < n; i++) a[i] = b[i] + c[i];",
    "for (i = 0; i < n; i++) s += a[i];",
    "for (i = 1; i < n; i++) a[i] = a[i-1];",
    "for (i = 0; i < n; i++) for (j = 0; j < m; j++) x[i][j] = i * j;",
    "while (k < n) { total += buf[k]; k++; }",
]


def _head(seed, snippets=SNIPPETS):
    """A tiny (model, vocab) pair; different seeds give different heads."""
    vocab = Vocab.build([text_tokens(code) for code in snippets], min_freq=1)
    return PragFormer(len(vocab), replace(TINY, seed=seed), rng=seed), vocab


@pytest.fixture(scope="module")
def registry():
    reg = ModelRegistry()
    for seed, name in enumerate(("directive", "private", "reduction")):
        model, vocab = _head(seed)
        reg.register(name, model, vocab, max_len=TINY.max_len)
    return reg


@pytest.fixture()
def advisor(registry):
    return MultiModelEngine(registry, config=EngineConfig(max_batch_size=8))


class TestModelRegistry:
    def test_names_and_clauses(self, registry):
        assert registry.names() == ["directive", "private", "reduction"]
        assert registry.clause_names() == ["private", "reduction"]
        assert "private" in registry
        assert len(registry) == 3

    def test_get_unknown_head(self, registry):
        with pytest.raises(KeyError, match="no head 'shared'"):
            registry.get("shared")

    def test_invalid_head_name_rejected(self, registry):
        model, vocab = _head(9)
        # same filesystem-safety rule save_advisor enforces, so a serving
        # registry can always be checkpointed
        for bad in ("bad/name", "bad\\name", "up..dir", " padded", ""):
            with pytest.raises(ValueError):
                ModelRegistry().register(bad, model, vocab)

    def test_engine_requires_directive_head(self):
        reg = ModelRegistry()
        model, vocab = _head(1)
        reg.register("private", model, vocab)
        with pytest.raises(ValueError, match="directive"):
            MultiModelEngine(reg)


class TestAdviseFull:
    def test_shape_and_types(self, advisor):
        full = advisor.advise_v1([SNIPPETS[0]])[0]
        assert isinstance(full, AdviceResult)
        assert set(full.clauses) == {"private", "reduction"}
        body = full.as_dict()
        assert set(body) == {"needs_directive", "p_directive", "clauses",
                             "recommended_clauses", "degraded", "recovered",
                             "model_version", "arm"}
        assert body["degraded"] is False  # a real prediction, not a stub
        for clause in body["clauses"].values():
            assert set(clause) == {"probability", "suggested"}

    def test_clause_head_parity_with_direct_predict(self, advisor, registry):
        """Engine output must equal the clause model's own predict_proba."""
        full = advisor.advise_v1(SNIPPETS)
        for name in ("private", "reduction"):
            head = registry.get(name)
            split = encode_batch([text_tokens(c) for c in SNIPPETS],
                                 head.vocab, head.max_len)
            direct = head.model.predict_proba(split)[:, 1]
            engine_probs = [f.clauses[name].probability for f in full]
            np.testing.assert_allclose(engine_probs, direct, atol=1e-5)

    def test_clauses_only_recommended_when_directive_positive(self, advisor):
        for full in advisor.advise_v1(SNIPPETS):
            if not full.verdict:
                assert full.recommended_clauses() == []
            else:
                assert full.recommended_clauses() == [
                    n for n, c in full.clauses.items() if c.suggested]

    def test_snippets_lexed_once_across_heads(self, registry):
        calls = []

        def counting_tokenizer(code):
            calls.append(code)
            return text_tokens(code)

        with MultiModelEngine(registry, tokenizer=counting_tokenizer) as eng:
            eng.advise_v1(SNIPPETS * 2)
            eng.advise_v1(SNIPPETS)
        # three heads, repeated traffic: each distinct snippet lexed once
        assert len(calls) == len(SNIPPETS)
        assert eng.lex_memo.lexed == len(SNIPPETS)

    def test_stats_structure(self, advisor):
        advisor.advise_v1(SNIPPETS)
        stats = advisor.stats()
        assert set(stats["heads"]) == {"directive", "private", "reduction"}
        combined = stats["combined"]
        assert combined["requests"] == 3 * len(SNIPPETS)
        assert stats["snippets_lexed"] == len(SNIPPETS)
        assert sum(combined["batch_size_hist"].values()) == combined["batches"]


class TestClauseGating:
    """Cross-request clause gating: directive-negative traffic skips the
    clause heads; snippets that fan out get identical verdicts."""

    def _gated(self, registry, margin):
        return MultiModelEngine(registry, config=EngineConfig(
            max_batch_size=8, gate_margin=margin))

    def test_gated_and_ungated_agree_on_fanned_snippets(self, registry,
                                                        advisor):
        ungated = advisor.advise_v1(SNIPPETS)
        with self._gated(registry, 0.0) as gated_engine:
            gated = gated_engine.advise_v1(SNIPPETS)
        for u, g in zip(ungated, gated):
            assert (g.verdict, g.probability) == (u.verdict, u.probability)
            if g.clauses:  # fanned out: clause verdicts must be identical
                for name in u.clauses:
                    np.testing.assert_allclose(
                        g.clauses[name].probability,
                        u.clauses[name].probability, atol=1e-6)
            else:          # gated out: only directive-negative snippets
                assert not g.verdict
            assert g.recommended_clauses() == u.recommended_clauses()

    def test_negative_snippets_skip_clause_heads(self, registry, advisor):
        directive = advisor.advise_v1(SNIPPETS)
        n_negative = sum(not a.verdict for a in directive)
        n_positive = len(SNIPPETS) - n_negative
        assert n_negative, "workload must contain directive-negative snippets"
        with self._gated(registry, 0.0) as engine:
            engine.advise_v1(SNIPPETS)
            stats = engine.stats()
            for name in ("private", "reduction"):
                assert stats["heads"][name]["requests"] == n_positive
            gating = stats["clause_gating"]
            assert gating["enabled"] is True
            assert gating["gated_snippets"] == n_negative
            assert gating["fanned_out"] == n_positive

    def test_margin_keeps_near_threshold_snippets(self, registry, advisor):
        """With a margin spanning the whole [0, 1] range every snippet
        fans out, however negative its directive verdict."""
        with self._gated(registry, 0.5) as engine:
            full = engine.advise_v1(SNIPPETS)
            assert all(set(f.clauses) == {"private", "reduction"}
                       for f in full)
            assert engine.stats()["clause_gating"]["gated_snippets"] == 0

    def test_async_path_gates_identically(self, registry, advisor):
        expected = advisor.advise_v1(SNIPPETS)
        with self._gated(registry, 0.0) as engine:
            for code, exp in zip(SNIPPETS, expected):
                got = engine.advise_v1_async(code, timeout=30)
                np.testing.assert_allclose(got.probability, exp.probability,
                                           atol=1e-6)
                if exp.verdict:
                    assert set(got.clauses) == set(exp.clauses)
                    for name in exp.clauses:
                        np.testing.assert_allclose(
                            got.clauses[name].probability,
                            exp.clauses[name].probability, atol=1e-6)
                else:
                    assert got.clauses == {}

    def test_gating_disabled_by_default(self, advisor):
        advisor.advise_v1(SNIPPETS)
        gating = advisor.stats()["clause_gating"]
        assert gating["enabled"] is False
        assert gating["gated_snippets"] == 0

    def test_gate_margin_validation(self):
        with pytest.raises(ValueError, match="gate_margin"):
            EngineConfig(gate_margin=-0.1)
        with pytest.raises(ValueError, match="gate_margin"):
            EngineConfig(gate_margin=0.6)


class TestFromContext:
    def test_builds_all_three_heads_from_trained_context(self):
        """The CLI path: registry over a (tiny) trained experiment context."""
        from repro.pipeline.config import ScaleConfig
        from repro.pipeline.context import ExperimentContext

        scale = ScaleConfig(
            name="tiny-serve-test", corpus_records=80, epochs=1, mlm_epochs=1,
            pragformer=replace(TINY, max_len=64, batch_size=16), min_freq=1)
        registry = ModelRegistry.from_context(ExperimentContext(scale))
        assert registry.names() == ["directive", "private", "reduction"]
        with MultiModelEngine(registry) as advisor:
            full = advisor.advise_v1(["for (i = 0; i < n; i++) s += a[i];"])[0]
        body = full.as_dict()
        assert set(body["clauses"]) == {"private", "reduction"}
        assert 0.0 <= body["p_directive"] <= 1.0


class TestAdvisorCheckpoint:
    def test_save_load_roundtrip(self, registry, advisor, tmp_path):
        expected = advisor.advise_v1(SNIPPETS)
        registry.save(tmp_path / "advisor")
        reloaded = ModelRegistry.from_checkpoint(tmp_path / "advisor")
        assert reloaded.names() == registry.names()
        with MultiModelEngine(reloaded) as eng:
            got = eng.advise_v1(SNIPPETS)
        for a, b in zip(expected, got):
            assert a.verdict == b.verdict
            np.testing.assert_allclose(a.probability, b.probability,
                                       atol=1e-5)
            for name in a.clauses:
                np.testing.assert_allclose(a.clauses[name].probability,
                                           b.clauses[name].probability,
                                           atol=1e-5)

    def test_roundtrip_preserves_serving_max_len(self, tmp_path):
        """A serving max_len different from the model's own config.max_len
        must survive save -> from_checkpoint."""
        model, vocab = _head(5)
        registry = ModelRegistry()
        assert model.config.max_len != 20
        registry.register("directive", model, vocab, max_len=20)
        registry.save(tmp_path / "ckpt")
        reloaded = ModelRegistry.from_checkpoint(tmp_path / "ckpt")
        assert reloaded.get("directive").max_len == 20

    def test_load_advisor_rejects_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_advisor(tmp_path)

    def test_save_advisor_rejects_unsafe_names(self, tmp_path):
        model, vocab = _head(3)
        with pytest.raises(ValueError):
            save_advisor({"../escape": (model, vocab)}, tmp_path)
