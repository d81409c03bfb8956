"""Lexical and part-of-speech diagnostics for transcript corpora.

Covers tokenization, type-token ratio, average Zipf frequency against a
TSV frequency table, and a lexicon + suffix-rule baseline POS tagger. The
`report` stage compares the per-document measures between groups.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

_DATA = Path(__file__).parent / "data"

# word = letters/digits/underscore runs, apostrophes internal to words kept
_WORD_RE = re.compile(r"\w+(?:['’]\w+)*", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased Unicode word tokens; punctuation dropped."""
    return [t.lower() for t in _WORD_RE.findall(text)]


def ttr(tokens: list[str]) -> float:
    """Type-token ratio: unique words / all words."""
    if not tokens:
        raise ValueError("ttr of an empty token list is undefined")
    return len(set(tokens)) / len(tokens)


@dataclass(frozen=True)
class FrequencyTable:
    """Word -> relative frequency, loaded from a 'word<TAB>prob' TSV."""

    probs: dict[str, float]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("frequency table is empty")
        for w, p in self.probs.items():
            if not (0.0 < p <= 1.0):
                raise ValueError(f"probability out of (0,1] for {w!r}: {p}")

    @classmethod
    def load(cls, path: str | Path | None = None) -> "FrequencyTable":
        """Load a TSV table; the shipped English table when path is None."""
        path = Path(path) if path is not None else _DATA / "zipf_en.tsv"
        probs: dict[str, float] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    word, prob = line.split("\t")
                    probs[word] = float(prob)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad frequency row {line!r}") from exc
        return cls(probs)

    def zipf(self, word: str, oov_floor: float = 0.0) -> float:
        p = self.probs.get(word)
        if p is None:
            return oov_floor
        return math.log10(p * 1e9)


def avg_zipf(tokens: list[str], table: FrequencyTable, oov_floor: float = 0.0) -> float:
    """Mean Zipf frequency (log10 of occurrences per billion words) over tokens.

    Out-of-vocabulary tokens contribute the configurable floor value.
    """
    if not tokens:
        raise ValueError("avg_zipf of an empty token list is undefined")
    return sum(table.zipf(t, oov_floor) for t in tokens) / len(tokens)


class PosTag(str, Enum):
    NOUN = "NOUN"
    PRON = "PRON"
    VERB = "VERB"
    VERB_PART = "VERB_PART"
    ADV = "ADV"
    ADJ = "ADJ"
    DET = "DET"
    ADP = "ADP"
    CONJ = "CONJ"
    NUM = "NUM"
    PRT = "PRT"
    X = "X"


# (suffix, tag) tried in order; a lexicon hit always wins
_SUFFIX_RULES: list[tuple[str, PosTag]] = [
    ("ing", PosTag.VERB_PART),
    ("ed", PosTag.VERB_PART),
    ("ly", PosTag.ADV),
    ("ness", PosTag.NOUN),
    ("ment", PosTag.NOUN),
    ("tion", PosTag.NOUN),
    ("ity", PosTag.NOUN),
    ("ous", PosTag.ADJ),
    ("ful", PosTag.ADJ),
    ("able", PosTag.ADJ),
    ("s", PosTag.NOUN),
]

_DEFAULT_LEXICON = _DATA / "pos_lexicon.tsv"


@dataclass(frozen=True)
class BaselineTagger:
    """Deterministic lexicon + suffix-rule tagger.

    Absolute tag accuracy is not the point; the group-comparison machinery
    downstream works with any consistent tagger. A token's tag depends only
    on the token and the lexicon, so `tag` memoizes it; the tagger is frozen
    and holds a read-only copy of its lexicon, so the memo cannot outlive it.
    """

    lexicon: Mapping[str, PosTag] = field(default_factory=dict)
    _memo: dict[str, PosTag] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lexicon", MappingProxyType(dict(self.lexicon)))

    @classmethod
    def load(cls, path: str | Path | None = None) -> "BaselineTagger":
        path = Path(path) if path is not None else _DEFAULT_LEXICON
        lexicon: dict[str, PosTag] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    word, tag = line.split("\t")
                    lexicon[word] = PosTag(tag)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad lexicon row {line!r}") from exc
        return cls(lexicon)

    def tag(self, tokens: list[str]) -> list[PosTag]:
        memo = self._memo
        return [memo.get(tok) or self._tag_new(tok) for tok in tokens]

    def _tag_new(self, tok: str) -> PosTag:
        """The tag of a token not yet in the memo, which keeps it."""
        tag = self.lexicon.get(tok)
        if tag is None:
            if tok.isdigit():
                tag = PosTag.NUM
            else:
                for suffix, rule_tag in _SUFFIX_RULES:
                    if len(tok) > len(suffix) + 1 and tok.endswith(suffix):
                        tag = rule_tag
                        break
                else:
                    tag = PosTag.X
        self._memo[tok] = tag
        return tag


MEASURES = ("ttr", "zipf", "pnr", "adv", "part")


def measures(text: str, table: FrequencyTable, tagger: BaselineTagger, oov_floor: float) -> dict[str, float | None]:
    """lexical.json's MEASURES of one text: type-token ratio, average Zipf
    frequency, pronouns per noun, and adverbs and participles per token. A
    measure undefined for the text (every one without tokens, pnr without
    nouns) is None, so group means exclude the text rather than impute a value."""
    tokens = tokenize(text)
    if not tokens:
        return dict.fromkeys(MEASURES)
    tags = tagger.tag(tokens)
    n_noun = tags.count(PosTag.NOUN)
    return dict(zip(MEASURES, (
        ttr(tokens),
        avg_zipf(tokens, table, oov_floor),
        tags.count(PosTag.PRON) / n_noun if n_noun else None,
        tags.count(PosTag.ADV) / len(tags),
        tags.count(PosTag.VERB_PART) / len(tags),
    )))
