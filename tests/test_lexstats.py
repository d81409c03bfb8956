import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semsurf.lexstats import (
    _WORD_RE,
    _SUFFIX_RULES,
    MEASURES,
    BaselineTagger,
    FrequencyTable,
    PosTag,
    avg_zipf,
    measures,
    tokenize,
    ttr,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestTokenize:
    def test_basic(self):
        assert tokenize("The cat, sat!") == ["the", "cat", "sat"]

    def test_apostrophes_internal(self):
        assert tokenize("don't it's the boy's") == ["don't", "it's", "the", "boy's"]

    def test_unicode(self):
        assert tokenize("o menino está feliz") == ["o", "menino", "está", "feliz"]

    def test_empty(self):
        assert tokenize("...!?") == []

    @given(st.text(st.one_of(st.sampled_from("İẞςﬁ'’ .-"), st.characters())))
    def test_is_the_lowercase_of_each_match(self, text):
        """Lowercasing can lengthen a token (İ, ﬁ) or change its letters (ẞ, ς); it still follows the match."""
        assert tokenize(text) == [m.group(0).lower() for m in _WORD_RE.finditer(text)]


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

    def test_memoized_tags_equal_the_unmemoized_rules(self):
        def reference(tagger, tok):
            tag = tagger.lexicon.get(tok)
            if tag is not None:
                return tag
            if tok.isdigit():
                return PosTag.NUM
            for suffix, rule_tag in _SUFFIX_RULES:
                if len(tok) > len(suffix) + 1 and tok.endswith(suffix):
                    return rule_tag
            return PosTag.X

        tagger = BaselineTagger.load()
        lines = [line for path in sorted(FIXTURES.glob("*.jsonl")) for line in path.read_text().splitlines()]
        token_lists = [tokenize(json.loads(line)["text"]) for line in lines]
        for _ in range(2):  # the second pass is served from the memo
            for tokens in token_lists:
                assert tagger.tag(tokens) == [reference(tagger, tok) for tok in tokens]
        assert len(tagger._memo) == len({tok for tokens in token_lists for tok in tokens})

    def test_lexicon_cannot_change_under_the_memo(self):
        lexicon = {"running": PosTag.NOUN}
        tagger = BaselineTagger(lexicon=lexicon)
        assert tagger.tag(["running"]) == [PosTag.NOUN]
        lexicon["running"] = PosTag.VERB  # the tagger holds a copy
        with pytest.raises(TypeError):
            tagger.lexicon["running"] = PosTag.VERB
        with pytest.raises(dataclasses.FrozenInstanceError):
            tagger.lexicon = {}
        assert tagger.tag(["running"]) == [PosTag.NOUN]


class TestRatios:
    tagger = BaselineTagger(lexicon={
        "she": PosTag.PRON, "he": PosTag.PRON, "dog": PosTag.NOUN, "quickly": PosTag.ADV,
        "running": PosTag.VERB_PART, "ran": PosTag.VERB,
    })
    table = FrequencyTable({"dog": 1e-4})

    def test_counts(self):
        # tags PRON, PRON, NOUN, ADV, VERB_PART
        m = measures("She, he: dog quickly running.", self.table, self.tagger, 0.0)
        assert tuple(m) == MEASURES
        assert m["pnr"] == 2.0
        assert m["adv"] == pytest.approx(0.2)
        assert m["part"] == pytest.approx(0.2)

    def test_no_nouns_gives_none(self):
        m = measures("she ran", self.table, self.tagger, 0.0)
        assert m["pnr"] is None
        assert m["ttr"] == 1.0

    def test_no_tokens_gives_all_none(self):
        assert measures(" ?! ", self.table, self.tagger, 0.0) == dict.fromkeys(MEASURES)
