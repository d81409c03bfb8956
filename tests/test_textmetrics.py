import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semsurf.lexstats import tokenize
from semsurf.providers import mock_embed
from semsurf.textmetrics import BLEU_MAX_N, CHRF_MAX_N, METRICS, _overlaps, bleu, chrf, cosine, pairwise_matrices
from semsurf.transform import KIND_ORDER, TransformationKind, TransformedCorpus

WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "fast", "home"]


def oracle_bleu(candidate, reference, max_n=4):
    """Independent BLEU: literal n-gram counting, no shared helpers."""
    cand, ref = tokenize(candidate), tokenize(reference)
    logs = []
    for n in range(1, max_n + 1):
        cgrams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
        if not cgrams:
            break
        rgrams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        clipped = 0
        for g, c in Counter(cgrams).items():
            clipped += min(c, rgrams.get(g, 0))
        if clipped == 0:
            return 0.0
        logs.append(math.log(clipped / len(cgrams)))
    bp = 1.0 if len(cand) >= len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return bp * math.exp(sum(logs) / len(logs))


def oracle_chrf(candidate, reference, max_n=6, beta=2.0):
    cand = "".join(candidate.split())
    ref = "".join(reference.split())
    ps, rs = [], []
    for n in range(1, max_n + 1):
        cgrams = Counter(cand[i : i + n] for i in range(len(cand) - n + 1))
        rgrams = Counter(ref[i : i + n] for i in range(len(ref) - n + 1))
        nc, nr = sum(cgrams.values()), sum(rgrams.values())
        if nc == 0 and nr == 0:
            continue
        clipped = sum(min(c, rgrams.get(g, 0)) for g, c in cgrams.items())
        ps.append(clipped / nc if nc else 0.0)
        rs.append(clipped / nr if nr else 0.0)
    p = sum(ps) / len(ps)
    r = sum(rs) / len(rs)
    if p == 0.0 and r == 0.0:
        return 0.0
    return (1 + beta**2) * p * r / (beta**2 * p + r)


def random_sentence(rng, lo=1, hi=12):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


class TestBleu:
    def test_identity(self):
        s = "the cat sat on the mat"
        assert bleu(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert bleu("cat dog", "mouse bird") == 0.0

    def test_morphological_mismatch(self):
        # near-identical surface forms still score zero at the token level
        assert bleu("quick", "quickly") == 0.0
        assert chrf("quick", "quickly") > 0.0

    def test_short_candidate_orders(self):
        # a 2-token candidate uses only orders 1 and 2
        score = bleu("the cat", "the cat sat on the mat")
        p1 = 2 / 2
        p2 = 1 / 1
        bp = math.exp(1.0 - 6 / 2)
        assert score == pytest.approx(bp * math.sqrt(p1 * p2), abs=1e-12)

    def test_brevity_penalty_only_when_shorter(self):
        # candidate longer than reference: no penalty
        assert bleu("the cat sat", "the cat") == pytest.approx(
            oracle_bleu("the cat sat", "the cat"), abs=1e-12
        )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bleu("", "the cat")
        with pytest.raises(ValueError):
            bleu("the cat", "...")

    def test_order_without_matches_scores_zero(self):
        # unsmoothed: "cat dog" and "cat bird" share a unigram and no bigram
        assert bleu("cat dog", "cat bird") == 0.0

    def test_fuzz_against_oracle(self):
        rng = random.Random(123)
        for _ in range(100):
            c = random_sentence(rng)
            r = random_sentence(rng)
            assert bleu(c, r) == pytest.approx(oracle_bleu(c, r), abs=1e-9), (c, r)


class TestChrf:
    def test_identity(self):
        assert chrf("the cat sat", "the cat sat") == pytest.approx(1.0, abs=1e-12)

    def test_whitespace_insensitive(self):
        assert chrf("the  cat\n sat", "thecatsat") == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_alphabets(self):
        assert chrf("aaaa", "bbbb") == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            chrf("   ", "cat")

    def test_fuzz_against_oracle(self):
        rng = random.Random(321)
        for _ in range(100):
            c = random_sentence(rng)
            r = random_sentence(rng)
            assert chrf(c, r) == pytest.approx(oracle_chrf(c, r), abs=1e-9), (c, r)

    @given(st.text(alphabet="abcde ", min_size=1), st.text(alphabet="abcde ", min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_symmetric_identity(self, c, r):
        if not c.strip() or not r.strip():
            return
        v = chrf(c, r)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert chrf(c, c) == pytest.approx(1.0, abs=1e-12)


class TestCosine:
    def test_parallel(self):
        assert cosine((1.0, 2.0, 3.0), (2.0, 4.0, 6.0)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_opposite(self):
        assert cosine((1.0, 1.0), (-1.0, -1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine((1.0,), (1.0, 2.0))

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            cosine((0.0, 0.0), (1.0, 2.0))


class TestOverlaps:
    """Hand-worked clipped n-gram match counts: [i][j][n - 1] for every pair i <= j."""

    @staticmethod
    def upper(matches):
        return {(i, j): row[j] for i, row in enumerate(matches) for j in range(i, len(matches))}

    def test_three_sequences(self):
        # ab: a b / ab; ba: a b / ba; aba: a a b / ab ba / aba
        assert self.upper(_overlaps(["ab", "ba", "aba"], 3)) == {
            (0, 0): [2, 1, 0], (0, 1): [2, 0, 0], (0, 2): [2, 1, 0],
            (1, 1): [2, 1, 0], (1, 2): [2, 1, 0],
            (2, 2): [3, 2, 1],
        }

    def test_one_character_sequences(self):
        assert self.upper(_overlaps(["a", "b", "a"], CHRF_MAX_N)) == {
            (0, 0): [1, 0, 0, 0, 0, 0], (0, 1): [0] * 6, (0, 2): [1, 0, 0, 0, 0, 0],
            (1, 1): [1, 0, 0, 0, 0, 0], (1, 2): [0] * 6,
            (2, 2): [1, 0, 0, 0, 0, 0],
        }

    def test_every_sequence_shorter_than_every_order_above_one(self):
        # no sequence has a bigram: orders 2..6 count over an empty vocabulary
        assert all(m == [1, 0, 0, 0, 0, 0] for m in self.upper(_overlaps(["a"] * 4, CHRF_MAX_N)).values())

    def test_repeats_are_clipped(self):
        assert self.upper(_overlaps(["aaaa", "aa"], CHRF_MAX_N)) == {
            (0, 0): [4, 3, 2, 1, 0, 0], (0, 1): [2, 1, 0, 0, 0, 0], (1, 1): [2, 1, 0, 0, 0, 0],
        }
        words = [["the"] * 4, ["the", "cat", "the"]]
        assert _overlaps(words, BLEU_MAX_N)[0][1] == [2, 0, 0, 0]

    def test_symbols_are_exact(self):
        # NULs are symbols like any other, trailing ones included; "e" + a combining acute is not "é"
        assert _overlaps(["a\x00", "\x00a"], 2)[0][1] == [2, 0]
        assert _overlaps([["a\x00", "b"], ["a", "b"]], 2)[0][1] == [1, 0]
        assert _overlaps(["e\u0301", "é"], 2)[0][1] == [0, 0]
        assert _overlaps(["😀😀x", "😀x"], 3)[0][1] == [2, 1, 0]


class TestShortTexts:
    """Scores of texts with fewer symbols than BLEU_MAX_N/CHRF_MAX_N, in the public scores and the matrices."""

    def scores(self, cand, ref):
        corpora = [_corpus(TransformationKind.ORIGINAL, [cand]), _corpus(TransformationKind.SHORT_SUMMARY, [ref])]
        matrices = matrices_of(corpora)
        return {m: (matrices[m][0][1], score(cand, ref)) for m, score in (("bleu", bleu), ("chrf", chrf))}

    @pytest.mark.parametrize(
        "cand, ref, expected",
        [
            # order 1 p 1, r 1/2; order 2 p 0, r 0: F2 of p 1/2, r 1/4
            ("a", "ab", {"bleu": 0.0, "chrf": 5 / 18}),
            ("ab", "a", {"bleu": 0.0, "chrf": 5 / 12}),
            # BLEU over order 1 only, with the brevity penalty of 1 token against 2
            ("a", "a b", {"bleu": math.exp(-1.0), "chrf": 5 / 18}),
            # chrF orders 1..3 each p = r: 2/3, 1/2, 0
            ("abc", "abd", {"bleu": 0.0, "chrf": 7 / 18}),
            # BLEU orders 1..3 all match, 4 is skipped; chrF p 1, 1, 1, 0 and r 3/4, 2/3, 1/2, 0
            ("a b c", "a b c d", {"bleu": math.exp(1.0 - 4 / 3), "chrf": 345 / 668}),
            # clipped: 2 of 4 a's, 1 of 3 aa's; orders 3, 4 unmatched, 5, 6 skipped
            ("aaaa", "aa", {"bleu": 0.0, "chrf": 25 / 64}),
        ],
    )
    def test_hand_worked(self, cand, ref, expected):
        for metric, (cell, public) in self.scores(cand, ref).items():
            assert cell == public, metric
            assert cell == pytest.approx(expected[metric], abs=1e-12), metric

    def test_every_text_of_an_id_is_one_character(self):
        corpora = [_corpus(kind, ["a", "a b"]) for kind in KIND_ORDER[:3]]
        matrices = matrices_of(corpora)
        for metric in ("bleu", "chrf"):
            assert all(v == 1.0 for row in matrices[metric] for v in row), metric


def _corpus(kind, texts, ids=None):
    ids = ids or [f"t{i}" for i in range(len(texts))]
    items = tuple(zip(ids, texts))
    prov = {} if kind is TransformationKind.ORIGINAL else {i: ("0" * 64,) for i in ids}
    return TransformedCorpus(kind=kind, items=items, provenance=prov)


def matrices_of(corpora, vectors=None):
    """pairwise_matrices over the mock embeddings, or the rows `vectors` gives the texts it names."""
    vectors = vectors or {}
    return pairwise_matrices(
        corpora, [[np.array(vectors.get(text) or mock_embed(text)) for _, text in c.items] for c in corpora]
    )


def bleu_of(a, b):
    return matrices_of([a, b])["bleu"][0][1]


class TestCorpusLevel:
    def test_mean_similarity_pairs_by_id(self):
        a = _corpus(TransformationKind.ORIGINAL, ["the cat sat", "a dog ran"])
        b = _corpus(TransformationKind.SHORT_SUMMARY, ["a dog ran", "the cat sat"], ids=["t1", "t0"])
        assert bleu_of(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_mean_similarity_rejects_unpaired(self):
        a = _corpus(TransformationKind.ORIGINAL, ["x y z"])
        b = _corpus(TransformationKind.SHORT_SUMMARY, ["x y z"], ids=["other"])
        with pytest.raises(ValueError, match=r"unpaired ids: \['other', 't0'\]"):
            bleu_of(a, b)
        c = _corpus(TransformationKind.LONG_SUMMARY, ["x y z", "x"], ids=["t0", "extra"])
        with pytest.raises(ValueError, match=r"unpaired ids: \['extra'\]"):
            matrices_of([a, a, c])

    @pytest.mark.parametrize(
        "text, vector, message",
        [
            ("   ", None, "non-empty tokenizations"),
            ("... !", None, "non-empty tokenizations"),
            ("the cat", (0.0,) * 256, "zero vector"),
            ("the cat", (1.0, 2.0), "dimension mismatch: 256 vs 2"),
        ],
    )
    def test_errors_of_one_text(self, text, vector, message):
        a = _corpus(TransformationKind.ORIGINAL, ["a dog ran", "the dog"])
        b = _corpus(TransformationKind.SHORT_SUMMARY, ["a dog", text])
        with pytest.raises(ValueError, match=message):
            matrices_of([a, b], {text: vector})

    def test_pairwise_matrix_diagonal(self):
        corpora = [
            _corpus(TransformationKind.ORIGINAL, ["the cat sat on the mat", "a dog ran home"]),
            _corpus(TransformationKind.SHORT_SUMMARY, ["the cat sat", "a dog ran"]),
        ]
        matrices = matrices_of(corpora)
        assert list(matrices) == list(METRICS)
        for m in matrices.values():
            assert [len(row) for row in m] == [2, 2]
            for i in range(2):
                assert m[i][i] == pytest.approx(1.0, abs=1e-9)

    def test_mean_cosine_self_is_one(self):
        a = _corpus(TransformationKind.ORIGINAL, ["the quick brown fox", "jumps over the dog"])
        cos = matrices_of([a, a])["cosine"]
        assert all(v == pytest.approx(1.0, abs=1e-9) for row in cos for v in row)


WORD = st.sampled_from(["a", "b", "ab", "ba", "aab", "cat", "the"])
TEXT = st.lists(WORD, min_size=1, max_size=7).map(" ".join)


@st.composite
def id_paired_corpora(draw):
    n_ids = draw(st.integers(1, 4))
    ids = [f"t{i}" for i in range(n_ids)]
    return [
        _corpus(kind, draw(st.lists(TEXT, min_size=n_ids, max_size=n_ids)), ids)
        for kind in KIND_ORDER[: draw(st.integers(2, 4))]
    ]


@given(id_paired_corpora())
@settings(max_examples=150, deadline=None)
def test_matrices_equal_the_mean_of_the_public_scores(corpora):
    """Each cell is exactly the mean over ids of the public metric of that pair."""
    matrices = matrices_of(corpora)
    score = {
        "bleu": bleu,
        "chrf": chrf,
        "cosine": lambda x, y: cosine(mock_embed(x), mock_embed(y)),
    }
    for metric, m in matrices.items():
        for i, a in enumerate(corpora):
            for j, b in enumerate(corpora):
                scores = [score[metric](x, y) for (_, x), (_, y) in zip(a.items, b.items)]
                assert m[i][j] == sum(scores) / len(scores), (metric, i, j)


FRAGMENT = st.sampled_from(
    ["a", "b", "é", "ç", "ãã", "e\u0301", "\u0301", "𝔘", "😀", "😀😀", "\x00", "aaa", "ab", " ", " ", "  "]
)
UNICODE_TEXT = st.lists(FRAGMENT, min_size=1, max_size=12).map("".join).filter(lambda t: tokenize(t))


@given(st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(UNICODE_TEXT, min_size=n, max_size=n), min_size=2,
                                                      max_size=4)))
@settings(max_examples=150, deadline=None)
def test_unicode_matrices_equal_the_mean_of_the_oracles(texts):
    """Accented Latin, combining marks, non-BMP characters and repeated runs: each cell is the mean of the oracles."""
    corpora = [_corpus(kind, kind_texts) for kind, kind_texts in zip(KIND_ORDER, texts)]
    matrices = matrices_of(corpora)
    for metric, oracle in (("bleu", oracle_bleu), ("chrf", oracle_chrf)):
        for i, a in enumerate(texts):
            for j, b in enumerate(texts):
                scores = [oracle(x, y) for x, y in zip(a, b)]
                assert matrices[metric][i][j] == pytest.approx(sum(scores) / len(scores), abs=1e-12), (
                    metric, i, j,
                )
