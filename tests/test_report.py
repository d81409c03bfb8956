import json

import pytest

from semsurf.report import (
    Cell,
    ReportTable,
    classification_table,
    dataset_table,
    emit,
    group_measure_table,
    similarity_table,
)


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
    def group(self, count, mean, std, degenerate=False):
        """A group's entry of dataset_stats.json."""
        return {"count": count, "mean_tokens": mean, "std_tokens": std, "degenerate": degenerate}

    def test_counts_and_lengths(self):
        t = dataset_table("dogstory", {"AD": self.group(23, 78.2, 30.1), "C": self.group(116, 103.7, 41.9)})
        cells = t.rows[0][1]
        assert [c.value for c in cells[:3]] == [23, 116, 139]
        assert cells[3].value == "78(±30)"
        assert cells[4].value == "104(±42)"

    def test_degenerate_marked(self):
        t = dataset_table("tiny", {"AD": self.group(1, 50.0, 0.0, degenerate=True), "C": self.group(2, 60.0, 5.0)})
        assert "(degenerate)" in t.rows[0][1][3].value

    def test_lenient_failures_named_in_the_footer(self):
        per_group = {"AD": self.group(2, 50.0, 1.0), "C": self.group(2, 60.0, 5.0)}
        assert dataset_table("tiny", per_group, {}).footer == dataset_table("tiny", per_group).footer
        failures = {"Storyboard": [["d2", "boom"]], "ShortSummary": [["d0", "boom"], ["d3", "boom"]]}
        t = dataset_table("tiny", per_group, failures)
        assert t.footer[1:] == [
            "Counted above but left out of every analysis (mode = lenient): d0, d3 failed ShortSummary; "
            "d2 failed Storyboard."
        ]


class TestSimilarityTable:
    def test_row_order_and_precision(self):
        scores = {
            "Storyboard": {"bleu": 0.1234, "chrf": 0.5678, "cosine": 0.9},
            "ShortSummary": {"bleu": 0.2, "chrf": 0.3, "cosine": 0.4},
        }
        t = similarity_table(scores, "Translated")
        assert [label for label, _ in t.rows] == ["ShortSummary", "Storyboard"]
        assert t.rows[1][1][0].display() == "0.57"  # chrF first column
        assert any("Translated" in note for note in t.footer)

    def test_no_scores_no_table(self):
        # a run of Original and Translated only: no kind is derived from the reference
        assert similarity_table({}, "Translated") is None


def means(macro_f1, acc=0.5):
    """A kind's classification means, as in stats.json."""
    return {"macro_f1": macro_f1, "acc_ad": acc, "acc_c": acc}


def stats(kind_means, p_values, n_runs):
    """The entries of stats.json that the classification tables read, with Original as the baseline."""
    return {
        "baseline": "Original",
        "classification": {"n_runs": n_runs, "means": kind_means},
        "wilcoxon_vs_baseline": {
            kind: {"p_value": p_values[kind]} if kind in p_values else {"error": "all differences are zero"}
            for kind in kind_means if kind != "Original"
        },
    }


class TestClassificationTable:
    def test_bold_maximum_and_stars(self):
        kinds = {"Original": means(0.505), "ShortSummary": means(0.605)}
        t = classification_table(stats(kinds, {"ShortSummary": 2 / 64}, 6))
        by_label = dict(t.rows)
        assert by_label["ShortSummary"][0].bold  # column maximum
        assert not by_label["Original"][0].bold
        assert by_label["ShortSummary"][0].stars == "*"
        assert by_label["Original"][0].stars == ""
        assert t.footer[0].startswith("Mean metrics across 6 paired runs. Baseline: Original.")
        t = classification_table(stats(kinds, {"ShortSummary": 0.009}, 6))
        assert dict(t.rows)["ShortSummary"][0].stars == "**"

    def test_no_stars_for_worse(self):
        kinds = {"Original": means(0.605), "Storyboard": means(0.305)}
        t = classification_table(stats(kinds, {"Storyboard": 2 / 64}, 6))
        assert dict(t.rows)["Storyboard"][0].stars == ""

    def test_ties_all_bold(self):
        # identical paired values: stats.json records no p-value
        t = classification_table(stats({"Original": means(0.5), "ShortSummary": means(0.5)}, {}, 3))
        assert all(row[1][0].bold for row in t.rows)
        assert all(row[1][0].stars == "" for row in t.rows)

    def test_kinds_select_rows_and_maxima(self):
        kinds = {"Original": means(0.5), "ShortSummary": means(0.9), "Translated": means(0.6, acc=0.7)}
        t = classification_table(stats(kinds, {}, 3), ["Original", "Translated"])
        by_label = dict(t.rows)
        assert list(by_label) == ["Original", "Translated"]
        assert by_label["Translated"][0].bold  # the maximum of the selected kinds
        assert classification_table(stats(kinds, {}, 3), ["Original", "BackTranslated"]) is None


class TestGroupMeasureTable:
    def comp(self, p, excluded=0):
        """A measure's Welch entry of stats.json."""
        return {
            "mean_control": 0.6, "mean_ad": 0.4, "n_control": 10, "n_ad": 10, "excluded": excluded,
            "statistic": 1.0, "df": 18.0, "p_value": p,
        }

    def test_bold_triple_on_significance(self):
        t = group_measure_table(
            "Lexical",
            ["ttr"],
            {"Original": {"ttr": self.comp(0.01)}, "ShortSummary": {"ttr": self.comp(0.2)}},
        )
        by_label = dict(t.rows)
        assert all(c.bold for c in by_label["Original"])
        assert not any(c.bold for c in by_label["ShortSummary"])

    def test_boundary_p_not_bold(self):
        t = group_measure_table("L", ["ttr"], {"Original": {"ttr": self.comp(0.05)}})
        assert not any(c.bold for c in t.rows[0][1])

    def test_excluded_footnote(self):
        t = group_measure_table("L", ["pnr"], {"Original": {"pnr": self.comp(0.5, excluded=3)}})
        assert any("3 document(s) excluded" in n for n in t.footer)

    def test_undefined_measure_dashes(self):
        t = group_measure_table("L", ["pnr"], {"Original": {"pnr": {"error": "both samples have zero variance"}}})
        assert all(c.value is None for c in t.rows[0][1])
        assert any("undefined" in n for n in t.footer)
