"""Surface-form similarity (sentence-level BLEU, chrF) and semantic similarity
(embedding cosine), and the pairwise matrices of their means over id-paired
items across transformations, each a list of rows of floats; the similarity
stage writes them out as CSV tables.

BLEU and chrF are computed from each side's length and the clipped n-gram
matches of the pair, which one counter, `_overlaps`, gives for every pair of
a list of token or character sequences at once: `pairwise_matrices` passes it
the texts of one id across all kinds, and the public `bleu` and `chrf` their
two arguments. The cosine is computed from the embeddings and their norms.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .lexstats import tokenize
from .transform import TransformedCorpus

METRICS = ("bleu", "chrf", "cosine")

# the fixed metric settings that the similarity table's footer states
BLEU_MAX_N = 4
CHRF_MAX_N = 6
CHRF_BETA = 2.0


def _words(text: str) -> list[str]:
    tokens = tokenize(text)
    if not tokens:
        raise ValueError("BLEU requires non-empty tokenizations on both sides")
    return tokens


def _chars(text: str) -> str:
    # whitespace runs removed entirely before character n-gram extraction
    chars = "".join(text.split())
    if not chars:
        raise ValueError("chrF requires non-empty inputs after whitespace removal")
    return chars


def _overlaps(seqs: Sequence[Sequence[str]], max_n: int) -> list[list[list[int]]]:
    """Clipped n-gram match counts of every pair of seqs: [i][j][n - 1] for i <= j and n = 1..max_n.

    Symbols, in order of first appearance, then each order's n-grams are
    ranked into small integers, and one count array per order holds a row per
    sequence. An n-gram is an (n-1)-gram's rank and its last symbol, ranked
    again, so no two n-grams share a code.
    """
    import numpy as np

    size = len(seqs)
    seq_of = np.repeat(np.arange(size), [len(s) for s in seqs])  # the sequence each symbol is in
    starts = np.arange(len(seq_of))
    # the symbols from each start to the end of its sequence: the highest order of an n-gram starting there
    left = np.concatenate([np.arange(len(s), 0, -1) for s in seqs])
    rank: dict[str, int] = {}
    symbols = np.array([rank.setdefault(x, len(rank)) for s in seqs for x in s], dtype=np.int64)
    codes, alphabet = symbols, len(rank)
    vocabulary = alphabet  # the distinct n-grams of the order
    matches = np.zeros((size, size, max_n), dtype=np.int64)
    for n in range(1, max_n + 1):
        if n > 1:
            keep = left >= n
            starts, left = starts[keep], left[keep]
            distinct, codes = np.unique(codes[keep] * alphabet + symbols[starts + n - 1], return_inverse=True)
            vocabulary = len(distinct)
        counts = np.bincount(seq_of[starts] * vocabulary + codes, minlength=size * vocabulary)
        counts = counts.reshape(size, vocabulary)
        for i, row in enumerate(counts):
            matches[i, i:, n - 1] = np.minimum(row, counts[i:]).sum(axis=1)
    return matches.tolist()


def _bleu(cand_len: int, ref_len: int, matches: list[int]) -> float:
    log_sum = 0.0
    orders = 0
    for n in range(1, BLEU_MAX_N + 1):
        total = cand_len - n + 1
        if total <= 0:
            break  # candidate too short for this and higher orders
        matched = matches[n - 1]
        if matched == 0:
            return 0.0
        log_sum += math.log(matched / total)
        orders += 1
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum / orders)


def _chrf(cand_len: int, ref_len: int, matches: list[int]) -> float:
    precisions = []
    recalls = []
    for n in range(1, CHRF_MAX_N + 1):
        n_cand = max(cand_len - n + 1, 0)
        n_ref = max(ref_len - n + 1, 0)
        if n_cand == 0 and n_ref == 0:
            continue
        matched = matches[n - 1]
        precisions.append(matched / n_cand if n_cand else 0.0)
        recalls.append(matched / n_ref if n_ref else 0.0)
    avg_p = sum(precisions) / len(precisions)
    avg_r = sum(recalls) / len(recalls)
    if avg_p == 0.0 and avg_r == 0.0:
        return 0.0
    b2 = CHRF_BETA * CHRF_BETA
    return (1 + b2) * avg_p * avg_r / (b2 * avg_p + avg_r)


def _norm(v: Sequence[float]) -> float:
    return math.sqrt(sum(map(operator.mul, v, v)))


def _cosine(a: Sequence[float], norm_a: float, b: Sequence[float], norm_b: float) -> float:
    """Symmetric to the last bit: the products and the norm product commute exactly."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return sum(map(operator.mul, a, b)) / (norm_a * norm_b)


def bleu(candidate: str, reference: str) -> float:
    """Sentence-level BLEU: geometric mean of modified n-gram precisions over
    the orders 1..BLEU_MAX_N the candidate actually has, times the brevity
    penalty.

    Unsmoothed: any included order with zero matches makes the score 0.
    """
    cand, ref = _words(candidate), _words(reference)
    return _bleu(len(cand), len(ref), _overlaps([cand, ref], BLEU_MAX_N)[0][1])


def chrf(candidate: str, reference: str) -> float:
    """chrF: F-beta (beta = CHRF_BETA) over character n-gram precision/recall
    averaged across orders 1..CHRF_MAX_N (orders where neither side has
    n-grams are skipped)."""
    cand, ref = _chars(candidate), _chars(reference)
    return _chrf(len(cand), len(ref), _overlaps([cand, ref], CHRF_MAX_N)[0][1])


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    return _cosine(a, _norm(a), b, _norm(b))


def pairwise_matrices(corpora: list[TransformedCorpus], vectors: list) -> dict[str, list[list[float]]]:
    """The BLEU, chrF and cosine matrices (keyed as in METRICS) of every ordered corpus pair, as rows.

    vectors[i] is corpus i's embedding array, one numpy row per item in its order;
    matrix[i][j] is the mean over ids of the metric with corpus i's text as
    the candidate and corpus j's as the reference, summed in the first
    corpus's id order. Each id's texts share one n-gram count array per order.
    """
    texts = [c.texts_by_id() for c in corpora]
    rows = [dict(zip(c.ids(), v)) for c, v in zip(corpora, vectors)]
    ids = corpora[0].ids() if corpora else []
    unpaired = sorted(set().union(*texts) - set(ids).intersection(*texts))
    if unpaired:
        raise ValueError(f"corpora id sets differ; unpaired ids: {unpaired}")

    size = len(corpora)
    cells = {m: [[[] for _ in range(size)] for _ in range(size)] for m in METRICS}
    bleu_cells, chrf_cells, cosine_cells = (cells[m] for m in METRICS)
    for item_id in ids:
        words = [_words(by_id[item_id]) for by_id in texts]
        chars = [_chars(by_id[item_id]) for by_id in texts]
        word_matches = _overlaps(words, BLEU_MAX_N)
        char_matches = _overlaps(chars, CHRF_MAX_N)
        embeddings = [vector_by_id[item_id].tolist() for vector_by_id in rows]  # Python floats sum as `cosine` does
        norms = [_norm(v) for v in embeddings]
        for i in range(size):
            for j in range(i, size):
                cos = _cosine(embeddings[i], norms[i], embeddings[j], norms[j])
                for row, col in [(i, j)] if i == j else [(i, j), (j, i)]:
                    bleu_cells[row][col].append(_bleu(len(words[row]), len(words[col]), word_matches[i][j]))
                    chrf_cells[row][col].append(_chrf(len(chars[row]), len(chars[col]), char_matches[i][j]))
                    cosine_cells[row][col].append(cos)

    return {metric: [[sum(scores) / len(scores) for scores in row] for row in cells[metric]] for metric in METRICS}
