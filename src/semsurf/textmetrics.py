"""Surface-form similarity (sentence-level BLEU, chrF) and semantic similarity
(embedding cosine), with corpus means over id-paired items and full pairwise
matrices across transformations.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass

from .lexstats import tokenize
from .providers import EmbeddingVector, ProviderClient, ProviderConfig
from .transform import TransformedCorpus

METRICS = ("bleu", "chrf", "cosine")

DEFAULT_BLEU_MAX_N = 4
DEFAULT_CHRF_MAX_N = 6
DEFAULT_CHRF_BETA = 2.0


def _ngrams(seq, n: int) -> Counter:
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def bleu(candidate: str, reference: str, max_n: int = DEFAULT_BLEU_MAX_N, smooth_eps: float = 0.0) -> float:
    """Sentence-level BLEU: geometric mean of modified n-gram precisions over
    the orders the candidate actually has, times the brevity penalty.

    Without smoothing (the default), any included order with zero matches
    makes the score 0. smooth_eps > 0 replaces zero match counts for
    diagnostics only.
    """
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        raise ValueError("BLEU requires non-empty tokenizations on both sides")

    log_sum = 0.0
    orders = 0
    for n in range(1, max_n + 1):
        cand_ngrams = _ngrams(cand, n)
        total = sum(cand_ngrams.values())
        if total == 0:
            break  # candidate too short for this and higher orders
        ref_ngrams = _ngrams(ref, n)
        matched = sum(min(c, ref_ngrams.get(g, 0)) for g, c in cand_ngrams.items())
        if matched == 0:
            if smooth_eps <= 0.0:
                return 0.0
            matched = smooth_eps
        log_sum += math.log(matched / total)
        orders += 1
    c, r = len(cand), len(ref)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum / orders)


def _char_seq(text: str) -> str:
    # whitespace runs removed entirely before character n-gram extraction
    return "".join(text.split())


def chrf(
    candidate: str,
    reference: str,
    max_n: int = DEFAULT_CHRF_MAX_N,
    beta: float = DEFAULT_CHRF_BETA,
) -> float:
    """chrF: F-beta over character n-gram precision/recall averaged across
    orders 1..max_n (orders where neither side has n-grams are skipped)."""
    cand = _char_seq(candidate)
    ref = _char_seq(reference)
    if not cand or not ref:
        raise ValueError("chrF requires non-empty inputs after whitespace removal")

    precisions = []
    recalls = []
    for n in range(1, max_n + 1):
        cand_ngrams = _ngrams(cand, n)
        ref_ngrams = _ngrams(ref, n)
        n_cand = sum(cand_ngrams.values())
        n_ref = sum(ref_ngrams.values())
        if n_cand == 0 and n_ref == 0:
            continue
        matched = sum(min(c, ref_ngrams.get(g, 0)) for g, c in cand_ngrams.items())
        precisions.append(matched / n_cand if n_cand else 0.0)
        recalls.append(matched / n_ref if n_ref else 0.0)
    avg_p = sum(precisions) / len(precisions)
    avg_r = sum(recalls) / len(recalls)
    if avg_p == 0.0 and avg_r == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * avg_p * avg_r / (b2 * avg_p + avg_r)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    dot = sum(x * y for x, y in zip(a.values, b.values))
    na = math.sqrt(sum(x * x for x in a.values))
    nb = math.sqrt(sum(y * y for y in b.values))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return dot / (na * nb)


def _paired_texts(a: TransformedCorpus, b: TransformedCorpus) -> list[tuple[str, str, str]]:
    ta, tb = a.texts_by_id(), b.texts_by_id()
    missing = sorted(set(ta) ^ set(tb))
    if missing:
        raise ValueError(f"corpora id sets differ; unpaired ids: {missing}")
    return [(i, ta[i], tb[i]) for i in a.ids()]


def mean_similarity(
    a: TransformedCorpus,
    b: TransformedCorpus,
    metric: str,
    client: ProviderClient | None = None,
    embed_cfg: ProviderConfig | None = None,
) -> float:
    """Mean per-pair score over source-id-paired items (a as candidate)."""
    pairs = _paired_texts(a, b)
    if metric == "bleu":
        scores = [bleu(x, y) for _, x, y in pairs]
    elif metric == "chrf":
        scores = [chrf(x, y) for _, x, y in pairs]
    elif metric == "cosine":
        if client is None or embed_cfg is None:
            raise ValueError("cosine needs an embedding provider")
        scores = [
            cosine(client.embed(embed_cfg, x), client.embed(embed_cfg, y))
            for _, x, y in pairs
        ]
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return sum(scores) / len(scores)


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


def pairwise_matrix(
    corpora: list[TransformedCorpus],
    metric: str,
    client: ProviderClient | None = None,
    embed_cfg: ProviderConfig | None = None,
) -> PairwiseMatrix:
    """Matrix of mean similarities for every ordered corpus pair."""
    labels = tuple(c.kind.value for c in corpora)
    values = tuple(
        tuple(mean_similarity(a, b, metric, client, embed_cfg) for b in corpora)
        for a in corpora
    )
    return PairwiseMatrix(labels, values, metric)
