"""Corpus transformations: translation, summaries, storyboards, the
storyboard -> image -> caption round-trip, and back-translation.

Each transformation is one row of STEPS: a provider call that maps the
texts of an earlier step's corpus, as one batch, to their outcomes. It
produces a TransformedCorpus keyed by the source transcript ids, with
per-item provenance (the cache keys of every provider call that contributed
to the item).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

from .corpus import Dataset
from .providers import OfflineViolation, ProviderClient, ProviderConfig


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

# the language the summaries, storyboards and image round-trip work in
PIVOT_LANGUAGE = "en"


class TransformError(RuntimeError):
    pass


@dataclass(frozen=True)
class TransformedCorpus:
    kind: TransformationKind
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

    def restricted(self, ids: set[str]) -> "TransformedCorpus":
        """The items whose id is in `ids`, in this corpus's order."""
        items = tuple((i, t) for i, t in self.items if i in ids)
        provenance = {i: self.provenance[i] for i, _ in items if i in self.provenance}
        return replace(self, items=items, provenance=provenance)

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
    def load(cls, path: str | Path) -> "TransformedCorpus":
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
        return cls(kind, tuple(items), provenance)


def original_corpus(dataset: Dataset) -> TransformedCorpus:
    return TransformedCorpus(
        TransformationKind.ORIGINAL,
        tuple((t.id, t.text) for t in dataset.transcripts),
    )


@dataclass
class PipelineConfig:
    chat: ProviderConfig
    translate: ProviderConfig | None = None
    text_to_image: ProviderConfig | None = None
    image_to_text: ProviderConfig | None = None
    prompts: dict[TransformationKind, str] = field(default_factory=DEFAULT_PROMPTS.copy)
    enabled: set[TransformationKind] = field(default_factory=lambda: set(KIND_ORDER))
    strict: bool = True
    lenient_threshold: float = 0.8


# an item's outcome: (text, cache keys), or the exception that failed it
Outcome = tuple[str, tuple[str, ...]] | Exception

# a step's call: (client, config, source texts, corpus language) -> each text's outcome, in order
BatchCall = Callable[[ProviderClient, PipelineConfig, list[str], str], list[Outcome]]


class Step(NamedTuple):
    kind: TransformationKind
    source: TransformationKind
    call: BatchCall


def _keyed(outcomes: list[tuple[str, str] | Exception]) -> list[Outcome]:
    """A provider operation's (result, key) outcomes as items' (result, (key,))."""
    return [out if isinstance(out, Exception) else (out[0], (out[1],)) for out in outcomes]


def _chat(kind: TransformationKind) -> BatchCall:
    def call(client, config, texts, language):
        return _keyed(client.chat_generate(config.chat, config.prompts[kind], texts))

    return call


def _translate(client, config, texts, language):
    return _keyed(client.translate(config.translate, texts, language, PIVOT_LANGUAGE))


def _back_translate(client, config, texts, language):
    return _keyed(client.translate(config.translate, texts, PIVOT_LANGUAGE, language))


def _image_roundtrip(client, config, texts, language):
    """Storyboard -> image -> caption: one t2i batch, then one i2t batch over
    the images that succeeded; the keys are (image key, caption key)."""
    images = client.text_to_image(config.text_to_image, texts)
    drawn = [image[0] for image in images if not isinstance(image, Exception)]
    prompt = config.prompts[TransformationKind.IMAGE_DESCRIPTION]
    captions = iter(client.image_to_text(config.image_to_text, drawn, prompt))
    outcomes = []
    for image in images:
        caption = image if isinstance(image, Exception) else next(captions)
        outcomes.append(caption if isinstance(caption, Exception) else (caption[0], (image[1], caption[1])))
    return outcomes


K = TransformationKind

# The pipeline, in run order; each step reads the corpus of an earlier one.
# Translated stands for the English text: a corpus already in PIVOT_LANGUAGE
# has no Translated or BackTranslated step, and its Original is read instead.
STEPS: tuple[Step, ...] = (
    Step(K.TRANSLATED, K.ORIGINAL, _translate),
    Step(K.SHORT_SUMMARY, K.TRANSLATED, _chat(K.SHORT_SUMMARY)),
    Step(K.MEDIUM_SUMMARY, K.TRANSLATED, _chat(K.MEDIUM_SUMMARY)),
    Step(K.LONG_SUMMARY, K.TRANSLATED, _chat(K.LONG_SUMMARY)),
    Step(K.STORYBOARD, K.TRANSLATED, _chat(K.STORYBOARD)),
    Step(K.IMAGE_DESCRIPTION, K.STORYBOARD, _image_roundtrip),
    Step(K.BACK_TRANSLATED, K.TRANSLATED, _back_translate),
)


def apply_step(
    step: Step,
    source: TransformedCorpus,
    client: ProviderClient,
    config: PipelineConfig,
    language: str,
) -> tuple[TransformedCorpus, list[tuple[str, str]]]:
    """Map step's call over the non-empty texts of `source` as one batch, keeping source order.

    `language` is the dataset's. Each item's provenance is its source cache
    keys followed by the step's. An empty text fails as "empty source text".
    In strict mode the first failure in source order aborts the step; in
    lenient mode a failed item is left out and returned as (id, message)
    among the failures, in source order, unless it failed on an offline cache
    miss, which aborts in either mode. A call refused as a whole aborts too.
    """
    texts = [text for _, text in source.items if text.strip()]
    try:
        outcomes = iter(step.call(client, config, texts, language))
    except ValueError as exc:  # refused whatever the texts, such as a translation from en to en
        raise TransformError(f"{step.kind.value}: {exc}") from exc
    done, failures = [], []
    for item_id, text in source.items:
        outcome = next(outcomes) if text.strip() else ValueError("empty source text")
        if not isinstance(outcome, Exception):
            done.append((item_id, outcome))
        # a cache miss while offline is the run's fault, not the item's
        elif config.strict or isinstance(outcome, OfflineViolation):
            raise TransformError(f"{step.kind.value} {item_id}: {outcome}") from outcome
        else:
            failures.append((item_id, str(outcome)))
    corpus = TransformedCorpus(
        step.kind,
        tuple((i, text) for i, (text, _) in done),
        {i: source.provenance.get(i, ()) + keys for i, (_, keys) in done},
    )
    return corpus, failures


def run_pipeline(
    dataset: Dataset, config: PipelineConfig, client: ProviderClient
) -> tuple[dict[TransformationKind, TransformedCorpus], dict[str, list[tuple[str, str]]]]:
    """Run the steps that the enabled kinds need, in table order.

    Each step runs over the ids that every earlier step produced, so all the
    corpora returned share one id set, in source order: the dataset ids minus
    those in the failures. Failures map a kind value to its (id, message)
    pairs in source order; strict mode has none, as any failure aborts.
    """
    translating = dataset.source_language != PIVOT_LANGUAGE
    english = K.TRANSLATED if translating else K.ORIGINAL
    steps = [
        step._replace(source=english) if step.source is K.TRANSLATED else step
        for step in STEPS
        if translating or step.kind not in (K.TRANSLATED, K.BACK_TRANSLATED)
    ]
    needed = set(config.enabled)
    for step in reversed(steps):
        if step.kind in needed:
            needed.add(step.source)
    if translating and K.TRANSLATED in needed and config.translate is None:
        raise TransformError("non-English dataset requires a translate provider")
    if K.IMAGE_DESCRIPTION in needed and (config.text_to_image is None or config.image_to_text is None):
        raise TransformError("ImageDescription requires t2i and i2t providers")

    corpora = {K.ORIGINAL: original_corpus(dataset)}
    all_failures: dict[str, list[tuple[str, str]]] = {}
    kept = set(dataset.ids())
    for step in steps:
        if step.kind not in needed:
            continue
        source = corpora[step.source].restricted(kept)
        corpora[step.kind], failures = apply_step(step, source, client, config, dataset.source_language)
        if failures:
            all_failures[step.kind.value] = failures
            kept -= {i for i, _ in failures}
            if len(kept) / len(dataset) < config.lenient_threshold:
                raise TransformError(
                    f"{step.kind.value}: only {len(kept)}/{len(dataset)} items completed "
                    f"(threshold {config.lenient_threshold})"
                )
    produced = [kind for kind in KIND_ORDER if kind in corpora and kind in config.enabled]
    return {kind: corpora[kind].restricted(kept) for kind in produced}, all_failures
