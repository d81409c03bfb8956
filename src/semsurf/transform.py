"""Corpus transformations: translation, summaries, storyboards, the
storyboard -> image -> caption round-trip, and back-translation.

Each transformation produces a TransformedCorpus keyed by the source
transcript ids, with per-item provenance (the cache keys of every provider
call that contributed to the item).
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .corpus import Dataset
from .providers import ProviderClient, ProviderConfig


class TransformationKind(str, Enum):
    ORIGINAL = "Original"
    TRANSLATED = "Translated"
    SHORT_SUMMARY = "ShortSummary"
    MEDIUM_SUMMARY = "MediumSummary"
    LONG_SUMMARY = "LongSummary"
    STORYBOARD = "Storyboard"
    IMAGE_DESCRIPTION = "ImageDescription"
    BACK_TRANSLATED = "BackTranslated"


# report row order follows the pipeline's step order, as the members are declared
KIND_ORDER = list(TransformationKind)

DEFAULT_PROMPTS: dict[TransformationKind, str] = {
    TransformationKind.SHORT_SUMMARY: (
        "Summarise the following text into a one sentence summary. "
        "Just output the summary and no other information."
    ),
    TransformationKind.MEDIUM_SUMMARY: (
        "Summarise the following text into a concise summary. "
        "Just output the summary and no other information."
    ),
    TransformationKind.LONG_SUMMARY: (
        "Summarise the following text into a long summary containing as much "
        "information as possible. Just output the summary and no other information."
    ),
    TransformationKind.STORYBOARD: (
        "Transform any text you are given into key story scenes. Focus on the "
        "most important story moments. Break down complex actions into separate "
        "scenes if needed. Just output the storyboard and no other information."
    ),
    TransformationKind.IMAGE_DESCRIPTION: "Describe in detail what is happening in the image.",
}

_SUMMARY_KINDS = {
    "short": TransformationKind.SHORT_SUMMARY,
    "medium": TransformationKind.MEDIUM_SUMMARY,
    "long": TransformationKind.LONG_SUMMARY,
}


class TransformError(RuntimeError):
    def __init__(self, message: str, item_id: str | None = None, stage: str | None = None):
        super().__init__(message)
        self.item_id = item_id
        self.stage = stage


@dataclass
class PromptSet:
    """System prompts per transformation kind; defaults match the shipped set."""

    prompts: dict[TransformationKind, str] = field(
        default_factory=lambda: dict(DEFAULT_PROMPTS)
    )
    overridden: set[TransformationKind] = field(default_factory=set)

    def get(self, kind: TransformationKind) -> str:
        return self.prompts[kind]

    def override(self, kind: TransformationKind, prompt: str) -> None:
        self.prompts[kind] = prompt
        self.overridden.add(kind)


@dataclass(frozen=True)
class TransformedCorpus:
    kind: TransformationKind
    dataset_name: str
    items: tuple[tuple[str, str], ...]  # (source_id, text), source order
    provenance: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind != TransformationKind.ORIGINAL:
            missing = [i for i, _ in self.items if not self.provenance.get(i)]
            if missing:
                raise ValueError(f"{self.kind.value}: items without provenance: {missing}")

    def ids(self) -> list[str]:
        return [i for i, _ in self.items]

    def texts_by_id(self) -> dict[str, str]:
        return dict(self.items)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for item_id, text in self.items:
                obj = {
                    "id": item_id,
                    "text": text,
                    "kind": self.kind.value,
                    "provenance": list(self.provenance.get(item_id, ())),
                }
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")

    @classmethod
    def load(cls, path: str | Path, dataset_name: str) -> "TransformedCorpus":
        items = []
        provenance = {}
        kind = None
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                obj = json.loads(line)
                kind = TransformationKind(obj["kind"])
                items.append((obj["id"], obj["text"]))
                provenance[obj["id"]] = tuple(obj.get("provenance", ()))
        if kind is None:
            raise ValueError(f"empty transformed corpus file: {path}")
        return cls(kind, dataset_name, tuple(items), provenance)


def original_corpus(dataset: Dataset) -> TransformedCorpus:
    return TransformedCorpus(
        TransformationKind.ORIGINAL,
        dataset.name,
        tuple((t.id, t.text) for t in dataset.transcripts),
    )


def _map_items(
    items: list[tuple[str, str]],
    fn,
    max_workers: int,
    stage: str,
    failures: list[tuple[str, str]] | None = None,
) -> list[tuple[str, str, tuple[str, ...]]]:
    """Apply fn(id, text) -> (text, provenance) concurrently, output in input order.

    With a failures list supplied (lenient mode), per-item errors are recorded
    and the item dropped instead of aborting the whole transformation.
    """

    def run(pair):
        item_id, text = pair
        try:
            out_text, prov = fn(item_id, text)
        except Exception as exc:
            if failures is None:
                if isinstance(exc, TransformError):
                    raise
                raise TransformError(str(exc), item_id=item_id, stage=stage) from exc
            failures.append((item_id, str(exc)))
            return None
        return item_id, out_text, prov

    if max_workers <= 1:
        results = [run(p) for p in items]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run, items))
    return [r for r in results if r is not None]


def translate_corpus(
    dataset: Dataset,
    target: str,
    client: ProviderClient,
    cfg: ProviderConfig,
    max_workers: int = 4,
    failures: list[tuple[str, str]] | None = None,
) -> TransformedCorpus:
    if dataset.source_language == target:
        raise TransformError(
            f"dataset is already in {target!r}; skip the translation step", stage="translate"
        )

    def fn(item_id, text):
        out, key = client.translate(cfg, text, dataset.source_language, target)
        return out, (key,)

    results = _map_items(
        [(t.id, t.text) for t in dataset.transcripts], fn, max_workers, "translate", failures
    )
    return TransformedCorpus(
        TransformationKind.TRANSLATED,
        dataset.name,
        tuple((i, t) for i, t, _ in results),
        {i: p for i, _, p in results},
    )


def summarize(
    text: str,
    length: str,
    client: ProviderClient,
    cfg: ProviderConfig,
    prompts: PromptSet | None = None,
) -> tuple[str, str]:
    """One summary at the given length ('short' | 'medium' | 'long')."""
    if length not in _SUMMARY_KINDS:
        raise ValueError(f"unknown summary length {length!r}")
    if not text.strip():
        raise ValueError("cannot summarize empty text")
    prompts = prompts or PromptSet()
    return client.chat_generate(cfg, prompts.get(_SUMMARY_KINDS[length]), text)


def storyboard(
    text: str,
    client: ProviderClient,
    cfg: ProviderConfig,
    prompts: PromptSet | None = None,
) -> tuple[str, str]:
    if not text.strip():
        raise ValueError("cannot build a storyboard from empty text")
    prompts = prompts or PromptSet()
    return client.chat_generate(cfg, prompts.get(TransformationKind.STORYBOARD), text)


def image_roundtrip(
    storyboard_text: str,
    client: ProviderClient,
    t2i_cfg: ProviderConfig,
    i2t_cfg: ProviderConfig,
    prompts: PromptSet | None = None,
) -> tuple[str, tuple[str, str]]:
    """Storyboard -> image -> caption; returns (caption, (image key, caption key))."""
    if not storyboard_text.strip():
        raise ValueError("cannot render an empty storyboard")
    prompts = prompts or PromptSet()
    try:
        image, image_key = client.text_to_image(t2i_cfg, storyboard_text)
    except Exception as exc:
        raise TransformError(str(exc), stage="text_to_image") from exc
    try:
        caption, caption_key = client.image_to_text(
            i2t_cfg, image, prompts.get(TransformationKind.IMAGE_DESCRIPTION)
        )
    except Exception as exc:
        raise TransformError(str(exc), stage="image_to_text") from exc
    return caption, (image_key, caption_key)


def summarize_corpus(
    source: TransformedCorpus,
    length: str,
    client: ProviderClient,
    cfg: ProviderConfig,
    prompts: PromptSet | None = None,
    max_workers: int = 4,
    failures: list[tuple[str, str]] | None = None,
) -> TransformedCorpus:
    prompts = prompts or PromptSet()

    def fn(item_id, text):
        out, key = summarize(text, length, client, cfg, prompts)
        return out, source.provenance.get(item_id, ()) + (key,)

    results = _map_items(list(source.items), fn, max_workers, f"{length}_summary", failures)
    return TransformedCorpus(
        _SUMMARY_KINDS[length],
        source.dataset_name,
        tuple((i, t) for i, t, _ in results),
        {i: p for i, _, p in results},
    )


def storyboard_corpus(
    source: TransformedCorpus,
    client: ProviderClient,
    cfg: ProviderConfig,
    prompts: PromptSet | None = None,
    max_workers: int = 4,
    failures: list[tuple[str, str]] | None = None,
) -> TransformedCorpus:
    prompts = prompts or PromptSet()

    def fn(item_id, text):
        out, key = storyboard(text, client, cfg, prompts)
        return out, source.provenance.get(item_id, ()) + (key,)

    results = _map_items(list(source.items), fn, max_workers, "storyboard", failures)
    return TransformedCorpus(
        TransformationKind.STORYBOARD,
        source.dataset_name,
        tuple((i, t) for i, t, _ in results),
        {i: p for i, _, p in results},
    )


def image_description_corpus(
    storyboards: TransformedCorpus,
    client: ProviderClient,
    t2i_cfg: ProviderConfig,
    i2t_cfg: ProviderConfig,
    prompts: PromptSet | None = None,
    max_workers: int = 4,
    failures: list[tuple[str, str]] | None = None,
) -> TransformedCorpus:
    if storyboards.kind != TransformationKind.STORYBOARD:
        raise TransformError(
            f"image round-trip consumes storyboards, got {storyboards.kind.value}"
        )
    prompts = prompts or PromptSet()

    def fn(item_id, text):
        caption, keys = image_roundtrip(text, client, t2i_cfg, i2t_cfg, prompts)
        return caption, storyboards.provenance.get(item_id, ()) + keys

    results = _map_items(list(storyboards.items), fn, max_workers, "image_roundtrip", failures)
    return TransformedCorpus(
        TransformationKind.IMAGE_DESCRIPTION,
        storyboards.dataset_name,
        tuple((i, t) for i, t, _ in results),
        {i: p for i, _, p in results},
    )


def back_translate(
    translated: TransformedCorpus,
    target: str,
    client: ProviderClient,
    cfg: ProviderConfig,
    source_language: str = "en",
    max_workers: int = 4,
    failures: list[tuple[str, str]] | None = None,
) -> TransformedCorpus:
    if translated.kind != TransformationKind.TRANSLATED:
        raise TransformError(
            f"back-translation consumes a Translated corpus, got {translated.kind.value}"
        )

    def fn(item_id, text):
        out, key = client.translate(cfg, text, source_language, target)
        return out, translated.provenance.get(item_id, ()) + (key,)

    results = _map_items(list(translated.items), fn, max_workers, "back_translate", failures)
    return TransformedCorpus(
        TransformationKind.BACK_TRANSLATED,
        translated.dataset_name,
        tuple((i, t) for i, t, _ in results),
        {i: p for i, _, p in results},
    )


@dataclass
class PipelineConfig:
    chat: ProviderConfig
    translate: ProviderConfig | None = None
    text_to_image: ProviderConfig | None = None
    image_to_text: ProviderConfig | None = None
    prompts: PromptSet = field(default_factory=PromptSet)
    enabled: set[TransformationKind] = field(default_factory=lambda: set(KIND_ORDER))
    pivot_language: str = "en"
    max_workers: int = 4
    strict: bool = True
    lenient_threshold: float = 0.8


def run_pipeline(
    dataset: Dataset, config: PipelineConfig, client: ProviderClient
) -> tuple[dict[TransformationKind, TransformedCorpus], dict[str, list[tuple[str, str]]]]:
    """Run every enabled transformation in dependency order.

    Translation (and back-translation) only applies to non-English sources;
    summaries and storyboards consume the English text, i.e. the translated
    corpus when the source language differs from the pivot. Returns the
    corpora plus per-stage item failures (always empty in strict mode, where
    any failure aborts the run).
    """
    needs_translation = dataset.source_language != config.pivot_language
    out: dict[TransformationKind, TransformedCorpus] = {}
    all_failures: dict[str, list[tuple[str, str]]] = {}
    n_items = len(dataset)

    def fail_list(stage: str) -> list[tuple[str, str]] | None:
        if config.strict:
            return None
        return all_failures.setdefault(stage, [])

    def check_completion(stage: str, corpus: TransformedCorpus) -> None:
        done = len(corpus.items)
        if done < n_items and done / n_items < config.lenient_threshold:
            raise TransformError(
                f"{stage}: only {done}/{n_items} items completed "
                f"(threshold {config.lenient_threshold})",
                stage=stage,
            )

    if TransformationKind.ORIGINAL in config.enabled:
        out[TransformationKind.ORIGINAL] = original_corpus(dataset)

    if needs_translation:
        if config.translate is None:
            raise TransformError("non-English dataset requires a translate provider")
        translated = translate_corpus(
            dataset, config.pivot_language, client, config.translate,
            config.max_workers, fail_list("translate"),
        )
        check_completion("translate", translated)
        if TransformationKind.TRANSLATED in config.enabled:
            out[TransformationKind.TRANSLATED] = translated
        english = translated
        if TransformationKind.BACK_TRANSLATED in config.enabled:
            back = back_translate(
                translated,
                dataset.source_language,
                client,
                config.translate,
                config.pivot_language,
                config.max_workers,
                fail_list("back_translate"),
            )
            check_completion("back_translate", back)
            out[TransformationKind.BACK_TRANSLATED] = back
    else:
        english = original_corpus(dataset)

    for length in ("short", "medium", "long"):
        kind = _SUMMARY_KINDS[length]
        if kind in config.enabled:
            summaries = summarize_corpus(
                english, length, client, config.chat, config.prompts,
                config.max_workers, fail_list(f"{length}_summary"),
            )
            check_completion(f"{length}_summary", summaries)
            out[kind] = summaries

    need_storyboard = (
        TransformationKind.STORYBOARD in config.enabled
        or TransformationKind.IMAGE_DESCRIPTION in config.enabled
    )
    if need_storyboard:
        boards = storyboard_corpus(
            english, client, config.chat, config.prompts,
            config.max_workers, fail_list("storyboard"),
        )
        check_completion("storyboard", boards)
        if TransformationKind.STORYBOARD in config.enabled:
            out[TransformationKind.STORYBOARD] = boards
        if TransformationKind.IMAGE_DESCRIPTION in config.enabled:
            if config.text_to_image is None or config.image_to_text is None:
                raise TransformError("ImageDescription requires t2i and i2t providers")
            captions = image_description_corpus(
                boards,
                client,
                config.text_to_image,
                config.image_to_text,
                config.prompts,
                config.max_workers,
                fail_list("image_roundtrip"),
            )
            check_completion("image_roundtrip", captions)
            out[TransformationKind.IMAGE_DESCRIPTION] = captions

    # id preservation across every fully completed corpus
    source_ids = dataset.ids()
    for kind, corpus in out.items():
        ids = corpus.ids()
        if len(ids) == len(source_ids) and ids != source_ids:
            raise TransformError(f"{kind.value}: id set diverged from the source dataset")
    return out, {k: v for k, v in all_failures.items() if v}
