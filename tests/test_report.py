import json

import pytest

from semsurf.classifier import ClassificationRun, FoldResult
from semsurf.corpus import DatasetStats, GroupStats
from semsurf.lexstats import GroupComparison
from semsurf.report import (
    Cell,
    ReportTable,
    classification_table,
    dataset_table,
    emit,
    group_measure_table,
    similarity_table,
)
from semsurf.transform import TransformationKind

K = TransformationKind


class TestCell:
    def test_none_is_dash(self):
        assert Cell(None).display() == "—"

    def test_precision(self):
        assert Cell(0.123456, precision=3).display() == "0.123"

    def test_bold_and_stars(self):
        assert Cell(0.5, stars="*", precision=1).display() == "0.5*"
        assert Cell(0.5, bold=True, precision=1).display() == "**0.5**"

    def test_string_passthrough(self):
        assert Cell("12(±3)").display() == "12(±3)"


class TestEmit:
    def table(self):
        return ReportTable(
            "Demo",
            ["a", "b"],
            [("row1", [Cell(0.5, precision=2), Cell(None)])],
            ["note"],
        )

    def test_rectangularity_enforced(self):
        with pytest.raises(ValueError, match="cells"):
            ReportTable("T", ["a", "b"], [("r", [Cell(1.0)])])

    def test_md(self):
        md = emit(self.table(), "md")
        assert md.startswith("## Demo\n")
        assert "| row1 | 0.50 | — |" in md
        assert "*note*" in md

    def test_csv_full_precision(self):
        t = ReportTable("T", ["a"], [("r", [Cell(0.1234567890123)])])
        csv_text = emit(t, "csv")
        assert "0.1234567890123" in csv_text

    def test_json_roundtrip(self):
        t = self.table()
        back = json.loads(emit(t, "json"))
        assert back["title"] == t.title
        assert back["columns"] == t.columns
        assert back["rows"][0]["label"] == "row1"
        assert back["rows"][0]["cells"][0]["value"] == 0.5
        assert back["footer"] == ["note"]

    def test_deterministic(self):
        for fmt in ("md", "csv", "json"):
            assert emit(self.table(), fmt) == emit(self.table(), fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(self.table(), "html")


class TestDatasetTable:
    def test_counts_and_lengths(self):
        stats = DatasetStats(
            {
                "AD": GroupStats(23, 78.2, 30.1),
                "C": GroupStats(116, 103.7, 41.9),
            }
        )
        t = dataset_table("dogstory", stats)
        cells = t.rows[0][1]
        assert [c.value for c in cells[:3]] == [23, 116, 139]
        assert cells[3].value == "78(±30)"
        assert cells[4].value == "104(±42)"

    def test_degenerate_marked(self):
        stats = DatasetStats({"AD": GroupStats(1, 50.0, 0.0, degenerate=True), "C": GroupStats(2, 60.0, 5.0)})
        t = dataset_table("tiny", stats)
        assert "(degenerate)" in t.rows[0][1][3].value


class TestSimilarityTable:
    def test_row_order_and_precision(self):
        scores = {
            K.STORYBOARD: {"bleu": 0.1234, "chrf": 0.5678, "cosine": 0.9},
            K.SHORT_SUMMARY: {"bleu": 0.2, "chrf": 0.3, "cosine": 0.4},
        }
        t = similarity_table(scores, K.TRANSLATED)
        assert [label for label, _ in t.rows] == ["ShortSummary", "Storyboard"]
        assert t.rows[1][1][0].display() == "0.57"  # chrF first column
        assert any("Translated" in note for note in t.footer)


def runs_with_f1(values, acc=0.5):
    return [
        ClassificationRun(seed=i, folds=[FoldResult(0, v, acc, acc)])
        for i, v in enumerate(values)
    ]


class TestClassificationTable:
    def test_bold_maximum_and_stars(self):
        base = runs_with_f1([0.50, 0.51, 0.49, 0.50, 0.52, 0.50])
        better = runs_with_f1([0.60, 0.61, 0.59, 0.60, 0.62, 0.60])
        # all six paired diffs positive: exact Wilcoxon p = 2/64 < 0.05
        t = classification_table(
            {K.ORIGINAL: base, K.SHORT_SUMMARY: better}, K.ORIGINAL, {K.SHORT_SUMMARY: 2 / 64}
        )
        by_label = dict(t.rows)
        assert by_label["ShortSummary"][0].bold  # column maximum
        assert not by_label["Original"][0].bold
        assert by_label["ShortSummary"][0].stars == "*"
        assert by_label["Original"][0].stars == ""
        t = classification_table(
            {K.ORIGINAL: base, K.SHORT_SUMMARY: better}, K.ORIGINAL, {K.SHORT_SUMMARY: 0.009}
        )
        assert dict(t.rows)["ShortSummary"][0].stars == "**"

    def test_no_stars_for_worse(self):
        base = runs_with_f1([0.60, 0.61, 0.59, 0.60, 0.62, 0.60])
        worse = runs_with_f1([0.30, 0.31, 0.29, 0.30, 0.32, 0.30])
        t = classification_table({K.ORIGINAL: base, K.STORYBOARD: worse}, K.ORIGINAL, {K.STORYBOARD: 2 / 64})
        assert dict(t.rows)["Storyboard"][0].stars == ""

    def test_ties_all_bold(self):
        a = runs_with_f1([0.5, 0.5, 0.5])
        b = runs_with_f1([0.5, 0.5, 0.5])
        # identical paired values: stats.json records no p-value
        t = classification_table({K.ORIGINAL: a, K.SHORT_SUMMARY: b}, K.ORIGINAL, {})
        assert all(row[1][0].bold for row in t.rows)
        assert all(row[1][0].stars == "" for row in t.rows)

    def test_unpaired_counts_rejected(self):
        with pytest.raises(ValueError, match="unpaired"):
            classification_table(
                {K.ORIGINAL: runs_with_f1([0.5, 0.5]), K.SHORT_SUMMARY: runs_with_f1([0.5])},
                K.ORIGINAL,
                {},
            )

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            classification_table({K.SHORT_SUMMARY: runs_with_f1([0.5])}, K.ORIGINAL, {})


class TestGroupMeasureTable:
    def comp(self, p, excluded=0):
        return GroupComparison(0.6, 0.4, p, "welch", 10, 10, excluded)

    def test_bold_triple_on_significance(self):
        t = group_measure_table(
            "Lexical",
            ["ttr"],
            {K.ORIGINAL: {"ttr": self.comp(0.01)}, K.SHORT_SUMMARY: {"ttr": self.comp(0.2)}},
        )
        by_label = dict(t.rows)
        assert all(c.bold for c in by_label["Original"])
        assert not any(c.bold for c in by_label["ShortSummary"])

    def test_boundary_p_not_bold(self):
        t = group_measure_table("L", ["ttr"], {K.ORIGINAL: {"ttr": self.comp(0.05)}})
        assert not any(c.bold for c in t.rows[0][1])

    def test_excluded_footnote(self):
        t = group_measure_table("L", ["pnr"], {K.ORIGINAL: {"pnr": self.comp(0.5, excluded=3)}})
        assert any("3 document(s) excluded" in n for n in t.footer)

    def test_undefined_measure_dashes(self):
        t = group_measure_table("L", ["pnr"], {K.ORIGINAL: {"pnr": None}})
        assert all(c.value is None for c in t.rows[0][1])
        assert any("undefined" in n for n in t.footer)
