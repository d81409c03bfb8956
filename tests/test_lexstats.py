import math

import pytest

from semsurf.lexstats import (
    BaselineTagger,
    FrequencyTable,
    PosTag,
    avg_zipf,
    group_compare,
    pos_ratios,
    tokenize,
    ttr,
)


class TestTokenize:
    def test_basic(self):
        assert tokenize("The cat, sat!") == ["the", "cat", "sat"]

    def test_apostrophes_internal(self):
        assert tokenize("don't it's the boy's") == ["don't", "it's", "the", "boy's"]

    def test_unicode(self):
        assert tokenize("o menino está feliz") == ["o", "menino", "está", "feliz"]

    def test_empty(self):
        assert tokenize("...!?") == []


class TestTtr:
    def test_all_unique(self):
        assert ttr(["a", "b", "c"]) == 1.0

    def test_repetition(self):
        assert ttr(["a", "a", "b", "a"]) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ttr([])


class TestZipf:
    def test_zipf_formula(self):
        table = FrequencyTable({"the": 0.05})
        # zipf = log10(p * 1e9)
        assert table.zipf("the") == pytest.approx(math.log10(0.05e9), abs=1e-12)

    def test_oov_floor(self):
        table = FrequencyTable({"the": 0.05})
        assert table.zipf("xylophone") == 0.0
        assert table.zipf("xylophone", oov_floor=1.5) == 1.5

    def test_avg_zipf(self):
        table = FrequencyTable({"the": 0.05, "cat": 0.001})
        got = avg_zipf(["the", "cat", "zzz"], table)
        expected = (math.log10(0.05e9) + math.log10(0.001e9) + 0.0) / 3
        assert got == pytest.approx(expected, abs=1e-12)

    def test_load_and_validate(self, tmp_path):
        p = tmp_path / "freq.tsv"
        p.write_text("the\t0.05\ncat\t0.001\n")
        table = FrequencyTable.load(p)
        assert table.zipf("cat") == pytest.approx(6.0, abs=1e-12)
        bad = tmp_path / "bad.tsv"
        bad.write_text("the 0.05\n")
        with pytest.raises(ValueError, match="bad frequency row"):
            FrequencyTable.load(bad)

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            FrequencyTable({"the": 1.5})

    def test_shipped_table_loads(self):
        from semsurf import lexstats

        table = FrequencyTable.load(
            lexstats._DEFAULT_LEXICON.parent / "zipf_en.tsv"
        )
        assert table.zipf("the") > 6.0  # very common word


class TestTagging:
    def test_lexicon_hits(self):
        tags = BaselineTagger.load().tag(tokenize("the boy is running quickly"))
        assert tags[0] == PosTag.DET
        assert tags[1] == PosTag.NOUN

    def test_suffix_rules(self):
        tagger = BaselineTagger(lexicon={})
        assert tagger.tag(["jumping"]) == [PosTag.VERB_PART]
        assert tagger.tag(["painted"]) == [PosTag.VERB_PART]
        assert tagger.tag(["slowly"]) == [PosTag.ADV]
        assert tagger.tag(["happiness"]) == [PosTag.NOUN]
        assert tagger.tag(["7"]) == [PosTag.NUM]
        assert tagger.tag(["qq"]) == [PosTag.X]

    def test_lexicon_beats_suffix(self):
        tagger = BaselineTagger(lexicon={"running": PosTag.NOUN})
        assert tagger.tag(["running"]) == [PosTag.NOUN]


class TestRatios:
    def test_counts(self):
        tags = [PosTag.PRON, PosTag.PRON, PosTag.NOUN, PosTag.ADV, PosTag.VERB_PART]
        r = pos_ratios(tags)
        assert r.pnr == 2.0
        assert r.adv_ratio == pytest.approx(0.2)
        assert r.part_ratio == pytest.approx(0.2)

    def test_no_nouns_gives_none(self):
        r = pos_ratios([PosTag.PRON, PosTag.VERB])
        assert r.pnr is None

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pos_ratios([])


class TestGroupCompare:
    def test_means_and_p(self):
        res = group_compare([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert res.mean_control == 2.0
        assert res.mean_ad == 5.0
        assert res.test == "welch"
        assert 0.0 < res.p_value < 0.05
        assert res.significant

    def test_none_exclusion(self):
        res = group_compare([1.0, None, 2.0, 3.0], [None, 4.0, 5.0])
        assert res.n_control == 3 and res.n_ad == 2
        assert res.excluded == 2

    def test_too_few_defined(self):
        with pytest.raises(ValueError, match=">= 2"):
            group_compare([1.0, None], [2.0, 3.0])

    def test_not_significant_identical(self):
        res = group_compare([1.0, 2.0], [1.0, 2.0])
        assert res.p_value == 1.0
        assert not res.significant
