"""Surface-form similarity (sentence-level BLEU, chrF) and semantic similarity
(embedding cosine), and the pairwise matrices of their means over id-paired
items across transformations.

Every score is computed from a profile of each side: its length and n-gram
counts, or its embedding and norm. `pairwise_matrices` builds the profile of
each text once and scores every pair of them, where the public `bleu`, `chrf`
and `cosine` profile their two arguments per call.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .lexstats import tokenize
from .providers import EmbeddingVector, ProviderClient, ProviderConfig
from .transform import TransformedCorpus

METRICS = ("bleu", "chrf", "cosine")

DEFAULT_BLEU_MAX_N = 4
DEFAULT_CHRF_MAX_N = 6
DEFAULT_CHRF_BETA = 2.0


def _ngram_profile(seq: str | tuple[str, ...], max_n: int) -> tuple[int, list[Counter]]:
    """len(seq) and the counts of its n-grams (slices of seq) for n = 1..min(max_n, len(seq))."""
    size = len(seq)
    return size, [Counter(seq[i : i + n] for i in range(size - n + 1)) for n in range(1, min(max_n, size) + 1)]


def _word_profile(text: str, max_n: int) -> tuple[int, list[Counter]]:
    tokens = tuple(tokenize(text))
    if not tokens:
        raise ValueError("BLEU requires non-empty tokenizations on both sides")
    return _ngram_profile(tokens, max_n)


def _char_profile(text: str, max_n: int) -> tuple[int, list[Counter]]:
    # whitespace runs removed entirely before character n-gram extraction
    chars = "".join(text.split())
    if not chars:
        raise ValueError("chrF requires non-empty inputs after whitespace removal")
    return _ngram_profile(chars, max_n)


def _matches(a: list[Counter], b: list[Counter]) -> list[int]:
    """Clipped match counts of two n-gram profiles, order 1 first; the same for (a, b) and (b, a).

    Counting stops at the first order with no match, or where either side has
    no n-grams: every higher order then matches nothing either, as the prefix
    of a shared n-gram is a shared (n-1)-gram.
    """
    counts = []
    for x, y in zip(a, b):
        if len(x) > len(y):
            x, y = y, x
        counts.append(sum(min(c, y.get(g, 0)) for g, c in x.items()))
        if not counts[-1]:
            break
    return counts


def _bleu(cand_len: int, ref_len: int, matches: list[int], max_n: int, smooth_eps: float) -> float:
    log_sum = 0.0
    orders = 0
    for n in range(1, max_n + 1):
        total = cand_len - n + 1
        if total <= 0:
            break  # candidate too short for this and higher orders
        matched = matches[n - 1] if n <= len(matches) else 0
        if matched == 0:
            if smooth_eps <= 0.0:
                return 0.0
            matched = smooth_eps
        log_sum += math.log(matched / total)
        orders += 1
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum / orders)


def _chrf(cand_len: int, ref_len: int, matches: list[int], max_n: int, beta: float) -> float:
    precisions = []
    recalls = []
    for n in range(1, max_n + 1):
        n_cand = max(cand_len - n + 1, 0)
        n_ref = max(ref_len - n + 1, 0)
        if n_cand == 0 and n_ref == 0:
            continue
        matched = matches[n - 1] if n <= len(matches) else 0
        precisions.append(matched / n_cand if n_cand else 0.0)
        recalls.append(matched / n_ref if n_ref else 0.0)
    avg_p = sum(precisions) / len(precisions)
    avg_r = sum(recalls) / len(recalls)
    if avg_p == 0.0 and avg_r == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * avg_p * avg_r / (b2 * avg_p + avg_r)


def _norm(v: EmbeddingVector) -> float:
    return math.sqrt(sum(x * x for x in v.values))


def _cosine(a: EmbeddingVector, norm_a: float, b: EmbeddingVector, norm_b: float) -> float:
    """Symmetric to the last bit: the products and the norm product commute exactly."""
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return sum(x * y for x, y in zip(a.values, b.values)) / (norm_a * norm_b)


def bleu(candidate: str, reference: str, max_n: int = DEFAULT_BLEU_MAX_N, smooth_eps: float = 0.0) -> float:
    """Sentence-level BLEU: geometric mean of modified n-gram precisions over
    the orders the candidate actually has, times the brevity penalty.

    Without smoothing (the default), any included order with zero matches
    makes the score 0. smooth_eps > 0 replaces zero match counts for
    diagnostics only.
    """
    cand_len, cand = _word_profile(candidate, max_n)
    ref_len, ref = _word_profile(reference, max_n)
    return _bleu(cand_len, ref_len, _matches(cand, ref), max_n, smooth_eps)


def chrf(
    candidate: str,
    reference: str,
    max_n: int = DEFAULT_CHRF_MAX_N,
    beta: float = DEFAULT_CHRF_BETA,
) -> float:
    """chrF: F-beta over character n-gram precision/recall averaged across
    orders 1..max_n (orders where neither side has n-grams are skipped)."""
    cand_len, cand = _char_profile(candidate, max_n)
    ref_len, ref = _char_profile(reference, max_n)
    return _chrf(cand_len, ref_len, _matches(cand, ref), max_n, beta)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    return _cosine(a, _norm(a), b, _norm(b))


@dataclass(frozen=True)
class PairwiseMatrix:
    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]  # values[i][j] = mean(metric(corpus_i, corpus_j))
    metric: str

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + list(self.labels))
        for label, row in zip(self.labels, self.values):
            writer.writerow([label] + [repr(v) for v in row])
        return buf.getvalue()


class _Profile(NamedTuple):
    words: int
    word_ngrams: list[Counter]
    chars: int
    char_ngrams: list[Counter]
    vector: EmbeddingVector
    norm: float


def pairwise_matrices(
    corpora: list[TransformedCorpus],
    client: ProviderClient | None,
    embed_cfg: ProviderConfig | None,
) -> dict[str, PairwiseMatrix]:
    """The BLEU, chrF and cosine matrices (keyed as in METRICS) of every ordered corpus pair.

    values[i][j] is the mean over ids of the metric with corpus i's text as
    the candidate and corpus j's as the reference, summed in the first
    corpus's id order. One pass over the ids profiles and embeds each text
    once and scores every pair of an id's texts from the profiles.
    """
    if client is None or embed_cfg is None:
        raise ValueError("cosine needs an embedding provider")
    texts = [c.texts_by_id() for c in corpora]
    ids = corpora[0].ids() if corpora else []
    unpaired = sorted(set().union(*texts) - set(ids).intersection(*texts))
    if unpaired:
        raise ValueError(f"corpora id sets differ; unpaired ids: {unpaired}")

    size = len(corpora)
    cells = {m: [[[] for _ in range(size)] for _ in range(size)] for m in METRICS}
    bleu_cells, chrf_cells, cosine_cells = (cells[m] for m in METRICS)
    for item_id in ids:
        profiles = []
        for by_id in texts:
            text = by_id[item_id]
            words = _word_profile(text, DEFAULT_BLEU_MAX_N)
            chars = _char_profile(text, DEFAULT_CHRF_MAX_N)
            vector = client.embed(embed_cfg, text)
            profiles.append(_Profile(*words, *chars, vector, _norm(vector)))
        for i, a in enumerate(profiles):
            for j in range(i, size):
                b = profiles[j]
                word_matches = _matches(a.word_ngrams, b.word_ngrams)
                char_matches = _matches(a.char_ngrams, b.char_ngrams)
                cos = _cosine(a.vector, a.norm, b.vector, b.norm)
                for row, col, cand, ref in [(i, j, a, b)] if i == j else [(i, j, a, b), (j, i, b, a)]:
                    bleu_cells[row][col].append(_bleu(cand.words, ref.words, word_matches, DEFAULT_BLEU_MAX_N, 0.0))
                    chrf_cells[row][col].append(
                        _chrf(cand.chars, ref.chars, char_matches, DEFAULT_CHRF_MAX_N, DEFAULT_CHRF_BETA)
                    )
                    cosine_cells[row][col].append(cos)

    labels = tuple(c.kind.value for c in corpora)
    return {
        metric: PairwiseMatrix(
            labels, tuple(tuple(sum(scores) / len(scores) for scores in row) for row in cells[metric]), metric
        )
        for metric in METRICS
    }
