"""Lexical and part-of-speech diagnostics for transcript corpora.

Covers tokenization, type-token ratio, average Zipf frequency against a
TSV frequency table, a lexicon + suffix-rule baseline POS tagger, and
Welch-based group comparison of any per-document measure.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path

from .stattests import StatTestResult, welch_t

_DATA = Path(__file__).parent / "data"

# word = letters/digits/underscore runs, apostrophes internal to words kept
_WORD_RE = re.compile(r"\w+(?:['’]\w+)*", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased Unicode word tokens; punctuation dropped."""
    return [m.group(0).lower() for m in _WORD_RE.finditer(text)]


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


@dataclass
class BaselineTagger:
    """Deterministic lexicon + suffix-rule tagger.

    Absolute tag accuracy is not the point; the group-comparison machinery
    downstream works with any consistent tagger.
    """

    lexicon: dict[str, PosTag] = field(default_factory=dict)

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
        out = []
        for tok in tokens:
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
            out.append(tag)
        return out


@dataclass(frozen=True)
class PosRatios:
    pnr: float | None  # pronouns per noun; None when the text has no nouns
    adv_ratio: float
    part_ratio: float


def pos_ratios(tags: list[PosTag]) -> PosRatios:
    """Pronoun-to-noun, adverb, and participle ratios.

    pnr is per-noun; the other two are per-token. Zero-noun documents get
    pnr=None and are excluded from group means rather than imputed.
    """
    if not tags:
        raise ValueError("pos_ratios of an empty tag list is undefined")
    n_noun = sum(1 for t in tags if t == PosTag.NOUN)
    n_pron = sum(1 for t in tags if t == PosTag.PRON)
    n_adv = sum(1 for t in tags if t == PosTag.ADV)
    n_part = sum(1 for t in tags if t == PosTag.VERB_PART)
    pnr = n_pron / n_noun if n_noun else None
    return PosRatios(pnr, n_adv / len(tags), n_part / len(tags))


@dataclass(frozen=True)
class GroupComparison:
    mean_control: float
    mean_ad: float
    p_value: float
    test: str
    n_control: int
    n_ad: int
    excluded: int = 0  # documents with undefined measure, dropped from both means

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GroupComparison":
        return cls(**d)


def group_compare(values_control: list[float | None], values_ad: list[float | None]) -> GroupComparison:
    """Welch's t comparison of a per-document measure between C and AD groups.

    None entries (undefined measures) are excluded and counted.
    """
    c = [v for v in values_control if v is not None]
    a = [v for v in values_ad if v is not None]
    excluded = (len(values_control) - len(c)) + (len(values_ad) - len(a))
    if len(c) < 2 or len(a) < 2:
        raise ValueError("group_compare requires >= 2 defined values per group")
    res: StatTestResult = welch_t(c, a)
    return GroupComparison(
        mean_control=sum(c) / len(c),
        mean_ad=sum(a) / len(a),
        p_value=res.p_value,
        test=res.method,
        n_control=len(c),
        n_ad=len(a),
        excluded=excluded,
    )
