import pytest

import semsurf.providers as providers
from semsurf.corpus import Dataset, Transcript
from semsurf.providers import ProviderClient, ProviderConfig, ResponseCache
from semsurf.transform import (
    DEFAULT_PROMPTS,
    KIND_ORDER,
    PipelineConfig,
    STEPS,
    TransformationKind,
    TransformedCorpus,
    TransformError,
    apply_step,
    original_corpus,
    run_pipeline,
)

K = TransformationKind


def dataset(language="pt", n=4):
    rows = tuple(
        Transcript(
            id=f"d{i}",
            text=f"o menino viu um cachorrinho na rua. ele ficou feliz numero {i}.",
            group="AD" if i % 4 == 0 else "C",
            language=language,
        )
        for i in range(n)
    )
    return Dataset("mini", rows, language)


def cfgs():
    return dict(
        chat=ProviderConfig(kind="chat", endpoint="mock:chat", model="m"),
        translate=ProviderConfig(kind="translate", endpoint="mock:tr", model="m"),
        text_to_image=ProviderConfig(kind="text_to_image", endpoint="mock:t2i", model="m"),
        image_to_text=ProviderConfig(kind="image_to_text", endpoint="mock:i2t", model="m"),
    )


def step(kind):
    return next(s for s in STEPS if s.kind is kind)


def apply(kind, source, client, language="pt"):
    """One step in strict mode; the corpus it produces."""
    corpus, failures = apply_step(step(kind), source, client, PipelineConfig(**cfgs()), language)
    assert failures == []
    return corpus


def failing_chat(monkeypatch, fails):
    """Make the mock chat provider raise for the (system prompt kind, source text) pairs `fails` accepts."""
    real = providers.mock_chat
    prompt_kind = {prompt: kind for kind, prompt in DEFAULT_PROMPTS.items()}

    def chat(system_prompt, user_text):
        if fails(prompt_kind[system_prompt], user_text):
            raise RuntimeError("provider exploded")
        return real(system_prompt, user_text)

    monkeypatch.setattr(providers, "mock_chat", chat)


@pytest.fixture
def client(tmp_path):
    return ProviderClient(ResponseCache(tmp_path / "cache"))


class TestPrompts:
    def test_default_prompt_texts(self):
        # frozen wording contract: any drift here changes provider behavior
        assert DEFAULT_PROMPTS[K.SHORT_SUMMARY] == (
            "Summarise the following text into a one sentence summary. "
            "Just output the summary and no other information."
        )
        assert DEFAULT_PROMPTS[K.MEDIUM_SUMMARY] == (
            "Summarise the following text into a concise summary. "
            "Just output the summary and no other information."
        )
        assert DEFAULT_PROMPTS[K.LONG_SUMMARY] == (
            "Summarise the following text into a long summary containing as much "
            "information as possible. Just output the summary and no other information."
        )
        assert DEFAULT_PROMPTS[K.STORYBOARD] == (
            "Transform any text you are given into key story scenes. Focus on the "
            "most important story moments. Break down complex actions into separate "
            "scenes if needed. Just output the storyboard and no other information."
        )
        assert DEFAULT_PROMPTS[K.IMAGE_DESCRIPTION] == (
            "Describe in detail what is happening in the image."
        )


class TestSingleTransforms:
    def test_original_corpus(self):
        ds = dataset()
        orig = original_corpus(ds)
        assert orig.kind is K.ORIGINAL
        assert orig.ids() == ds.ids()
        assert orig.provenance == {}

    def test_translate_ids_and_provenance(self, client):
        ds = dataset()
        out = apply(K.TRANSLATED, original_corpus(ds), client)
        assert out.kind is K.TRANSLATED
        assert out.ids() == ds.ids()
        for i in ds.ids():
            assert len(out.provenance[i]) == 1
            assert len(out.provenance[i][0]) == 64
        assert "[pt→en]" in out.texts_by_id()["d0"]

    def test_translate_refuses_same_language(self, client):
        with pytest.raises(TransformError, match="both 'en'"):
            apply(K.TRANSLATED, original_corpus(dataset("en")), client, "en")

    def test_summarize_rejects_empty(self, client):
        source = TransformedCorpus(K.ORIGINAL, (("a", "  "),))
        with pytest.raises(TransformError, match="ShortSummary a: empty"):
            apply(K.SHORT_SUMMARY, source, client, "en")

    def test_summary_chain_appends_provenance(self, client):
        ds = dataset()
        translated = apply(K.TRANSLATED, original_corpus(ds), client)
        summaries = apply(K.SHORT_SUMMARY, translated, client)
        assert summaries.kind is K.SHORT_SUMMARY
        for i in ds.ids():
            assert len(summaries.provenance[i]) == 2
            assert summaries.provenance[i][0] == translated.provenance[i][0]

    def test_image_description_two_keys(self, client):
        ds = dataset("en")
        boards = apply(K.STORYBOARD, original_corpus(ds), client, "en")
        captions = apply(K.IMAGE_DESCRIPTION, boards, client, "en")
        assert captions.kind is K.IMAGE_DESCRIPTION
        for i in ds.ids():
            # storyboard key + image key + caption key
            assert len(captions.provenance[i]) == 3

    def test_step_sources_precede_their_steps(self):
        produced = {K.ORIGINAL}
        for s in STEPS:
            assert s.source in produced, s.kind
            produced.add(s.kind)
        assert [K.ORIGINAL] + [s.kind for s in STEPS] == KIND_ORDER

    def test_provenance_required_for_derived(self):
        with pytest.raises(ValueError, match="provenance"):
            TransformedCorpus(K.SHORT_SUMMARY, (("a", "text"),), {})


class TestSaveLoad:
    def test_roundtrip(self, tmp_path, client):
        ds = dataset()
        out = apply(K.TRANSLATED, original_corpus(ds), client)
        p = tmp_path / "translated.jsonl"
        out.save(p)
        back = TransformedCorpus.load(p)
        assert back == out

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            TransformedCorpus.load(p)


class TestPipeline:
    def test_all_eight_kinds_for_non_english(self, client):
        ds = dataset("pt")
        out, failures = run_pipeline(ds, PipelineConfig(**cfgs()), client)
        assert set(out) == set(KIND_ORDER)
        assert failures == {}
        for corpus in out.values():
            assert corpus.ids() == ds.ids()

    def test_english_skips_translation(self, client):
        ds = dataset("en")
        out, _ = run_pipeline(ds, PipelineConfig(**cfgs()), client)
        assert K.TRANSLATED not in out
        assert K.BACK_TRANSLATED not in out
        assert K.SHORT_SUMMARY in out and K.IMAGE_DESCRIPTION in out

    def test_enabled_subset(self, client):
        ds = dataset("en")
        cfg = PipelineConfig(**cfgs(), enabled={K.ORIGINAL, K.MEDIUM_SUMMARY})
        out, _ = run_pipeline(ds, cfg, client)
        assert set(out) == {K.ORIGINAL, K.MEDIUM_SUMMARY}

    def test_missing_translate_provider(self, client):
        c = cfgs()
        c["translate"] = None
        with pytest.raises(TransformError, match="translate provider"):
            run_pipeline(dataset("pt"), PipelineConfig(**c), client)

    def test_missing_image_providers(self, client):
        c = cfgs()
        c["text_to_image"] = None
        with pytest.raises(TransformError, match="t2i and i2t"):
            run_pipeline(dataset("en"), PipelineConfig(**c), client)

    @pytest.mark.parametrize("language, missing, enabled, message", [
        # ShortSummary is made from the English text, so it needs Translated
        ("pt", ["translate"], {K.ORIGINAL, K.SHORT_SUMMARY}, "non-English dataset requires a translate provider"),
        ("pt", ["image_to_text"], {K.ORIGINAL, K.IMAGE_DESCRIPTION}, "ImageDescription requires t2i and i2t providers"),
        ("en", ["text_to_image", "image_to_text"], {K.IMAGE_DESCRIPTION},
         "ImageDescription requires t2i and i2t providers"),
    ], ids=["translate for a kind made from the English text", "i2t", "t2i and i2t"])
    def test_a_needed_provider_missing_fails_before_any_step(self, client, monkeypatch, language, missing, enabled,
                                                             message):
        failing_chat(monkeypatch, lambda kind, text: True)  # a step that ran would fail with its own message
        c = cfgs()
        for name in missing:
            c[name] = None
        with pytest.raises(TransformError) as err:
            run_pipeline(dataset(language), PipelineConfig(**c, enabled=enabled), client)
        assert str(err.value) == message

    @pytest.mark.parametrize("language, missing, enabled, produced", [
        ("en", ["translate"], set(KIND_ORDER), set(KIND_ORDER) - {K.TRANSLATED, K.BACK_TRANSLATED}),
        ("pt", ["translate"], {K.ORIGINAL}, {K.ORIGINAL}),
        ("pt", ["text_to_image", "image_to_text"], {K.ORIGINAL, K.STORYBOARD}, {K.ORIGINAL, K.STORYBOARD}),
    ], ids=["English needs no translate", "Original alone", "no ImageDescription"])
    def test_a_provider_no_enabled_kind_needs_may_be_missing(self, client, language, missing, enabled, produced):
        c = cfgs()
        for name in missing:
            c[name] = None
        out, _ = run_pipeline(dataset(language), PipelineConfig(**c, enabled=enabled), client)
        assert set(out) == produced

    def test_deterministic_given_same_cache(self, tmp_path):
        ds = dataset("pt")
        runs = []
        for sub in ("a", "b"):
            client = ProviderClient(ResponseCache(tmp_path / sub))
            out, _ = run_pipeline(ds, PipelineConfig(**cfgs()), client)
            runs.append({k.value: v.items for k, v in out.items()})
        assert runs[0] == runs[1]

    def test_strict_mode_aborts_on_failure(self, client, monkeypatch):
        failing_chat(monkeypatch, lambda kind, text: True)
        cfg = PipelineConfig(**cfgs(), enabled={K.ORIGINAL, K.SHORT_SUMMARY})
        with pytest.raises(TransformError):
            run_pipeline(dataset("en"), cfg, client)

    def test_lenient_mode_records_failures_below_threshold(self, client, monkeypatch):
        failing_chat(monkeypatch, lambda kind, text: "numero 3" in text)
        cfg = PipelineConfig(
            **cfgs(), enabled={K.ORIGINAL, K.SHORT_SUMMARY},
            strict=False, lenient_threshold=0.5,
        )
        out, failures = run_pipeline(dataset("en"), cfg, client)
        assert len(out[K.SHORT_SUMMARY].items) == 3
        assert [i for i, _ in failures["ShortSummary"]] == ["d3"]
        assert out[K.ORIGINAL].ids() == ["d0", "d1", "d2"]

    def test_lenient_steps_run_over_the_ids_kept_so_far(self, client, monkeypatch):
        # d1 fails its short summary, so the storyboard step never sees it
        failing_chat(monkeypatch, lambda kind, text: (
            "numero 1" in text or (kind is K.STORYBOARD and "numero 2" in text)
        ))
        cfg = PipelineConfig(**cfgs(), strict=False, lenient_threshold=0.5)
        out, failures = run_pipeline(dataset("pt"), cfg, client)
        assert {kind: [i for i, _ in f] for kind, f in failures.items()} == {
            "ShortSummary": ["d1"], "Storyboard": ["d2"]
        }
        assert set(out) == set(KIND_ORDER)
        for corpus in out.values():
            assert corpus.ids() == ["d0", "d3"], corpus.kind

    def test_lenient_mode_still_aborts_below_threshold(self, client, monkeypatch):
        failing_chat(monkeypatch, lambda kind, text: True)
        cfg = PipelineConfig(
            **cfgs(), enabled={K.ORIGINAL, K.SHORT_SUMMARY},
            strict=False, lenient_threshold=0.8,
        )
        with pytest.raises(TransformError, match="threshold"):
            run_pipeline(dataset("en"), cfg, client)
