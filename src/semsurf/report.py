"""Report tables: dataset statistics, similarity, classification, lexical and
POS group comparisons, and back-translation summaries, emitted as Markdown,
CSV, or JSON with significance marks and provenance footers.

`tables` is the one list of the tables: the report stage writes each in
FORMATS as reports/table_<name>.<fmt>, and deletes the files of one that is
None. They format the numbers of dataset_stats.json, similarity.json and
stattests.summarize, which the report stage also writes to stats.json, read
as parsed, kinds by name. The one number they derive is the dataset table's
total, the sum of the two group counts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .stattests import CLASSIFICATION_MEASURES
from .transform import KIND_ORDER, TransformationKind as K


@dataclass(frozen=True)
class Cell:
    value: float | str | None
    bold: bool = False
    stars: str = ""  # "*" p<0.05, "**" p<0.01
    precision: int | None = None

    def display(self) -> str:
        if self.value is None:
            return "—"
        if isinstance(self.value, str):
            text = self.value
        elif self.precision is not None:
            text = f"{self.value:.{self.precision}f}"
        else:
            text = repr(self.value)
        text += self.stars
        return f"**{text}**" if self.bold else text


@dataclass
class ReportTable:
    title: str
    columns: list[str]
    rows: list[tuple[str, list[Cell]]]
    footer: list[str] = field(default_factory=list)

    def __post_init__(self):
        for label, cells in self.rows:
            if len(cells) != len(self.columns):
                raise ValueError(f"row {label!r} has {len(cells)} cells, expected {len(self.columns)}")


FORMATS = ("md", "csv", "json")  # those that emit renders


def emit(table: ReportTable, fmt: str) -> str:
    """Render deterministic bytes; CSV keeps full precision, Markdown the
    display precision."""
    if fmt == "md":
        lines = [f"## {table.title}", ""]
        lines.append("| | " + " | ".join(table.columns) + " |")
        lines.append("|" + "---|" * (len(table.columns) + 1))
        for label, cells in table.rows:
            lines.append("| " + label + " | " + " | ".join(c.display() for c in cells) + " |")
        if table.footer:
            lines.append("")
            for note in table.footer:
                lines.append(f"*{note}*")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + table.columns)
        for label, cells in table.rows:
            writer.writerow([label] + ["" if c.value is None else c.value for c in cells])
        return buf.getvalue()
    if fmt == "json":
        obj = {
            "title": table.title,
            "columns": table.columns,
            "rows": [
                {
                    "label": label,
                    "cells": [
                        {"value": c.value, "bold": c.bold, "stars": c.stars} for c in cells
                    ],
                }
                for label, cells in table.rows
            ],
            "footer": table.footer,
        }
        return json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def _ordered(kinds) -> list[str]:
    """The kind names among `kinds`, in KIND_ORDER."""
    return [k.value for k in KIND_ORDER if k.value in kinds]


DATASET_FOOTER = "Token lengths: lowercased Unicode word tokenizer; sample (n-1) std."


def dataset_table(name: str, per_group: dict[str, dict], failures: dict[str, list] | None = None) -> ReportTable:
    """The row of `name` from the per-group entries of dataset_stats.json. `failures`, those of
    transformed/manifest.json, adds a line naming the ids that lenient mode dropped from every analysis."""
    groups = [per_group[g] for g in ("AD", "C")]
    lengths = [
        f"{s['mean_tokens']:.0f}(±{s['std_tokens']:.0f})" + (" (degenerate)" if s["degenerate"] else "")
        for s in groups
    ]
    counts = [s["count"] for s in groups]
    cells = [Cell(n) for n in counts] + [Cell(sum(counts))] + [Cell(text) for text in lengths]
    footer = [DATASET_FOOTER]
    if failures:
        dropped = "; ".join(f"{', '.join(i for i, _ in failures[kind])} failed {kind}" for kind in _ordered(failures))
        footer.append(f"Counted above but left out of every analysis (mode = lenient): {dropped}.")
    columns = ["AD", "Control", "Total", "Length AD", "Length Control"]
    return ReportTable("Dataset statistics", columns, [(name, cells)], footer)


SIMILARITY_FOOTER = (
    "BLEU: orders 1-4, no smoothing, lowercased word tokens. "
    "chrF: orders 1-6, beta=2, whitespace stripped. Cosine reported raw in [-1,1]."
)


def similarity_table(scores: dict[str, dict[str, float]], reference: str) -> ReportTable | None:
    """Per-transformation mean chrF/BLEU/cosine against the reference corpus, as in similarity.json;
    None without scores."""
    if not scores:
        return None
    rows = [
        (kind, [Cell(scores[kind][m], precision=2) for m in ("chrf", "bleu", "cosine")])
        for kind in _ordered(scores)
    ]
    footer = [f"Reference corpus: {reference}.", SIMILARITY_FOOTER]
    return ReportTable("Similarity scores", ["chrF", "BLEU", "Cosine"], rows, footer)


CLASSIFIER_FOOTER = (
    "Classifier: linear head over provider embeddings (not a fine-tuned BERT); "
    "class-weighted logistic loss, early stopping."
)


def classification_table(stats: dict, kinds: list[str] | None = None) -> ReportTable | None:
    """Mean macro-F1 and per-class accuracies of `kinds`, by default every kind with runs, across
    paired runs, from stats.json's dict, with significance stars and per-column bold maxima; None
    unless every one of `kinds` has runs. A kind without a Wilcoxon p-value gets no stars."""
    means, baseline = stats["classification"]["means"], stats["baseline"]
    if kinds is not None:
        if not all(kind in means for kind in kinds):
            return None
        means = {kind: means[kind] for kind in kinds}
    p_values = {kind: r["p_value"] for kind, r in stats["wilcoxon_vs_baseline"].items() if "p_value" in r}
    maxima = {m: max(kind_means[m] for kind_means in means.values()) for m in CLASSIFICATION_MEASURES}

    rows = []
    for kind in _ordered(means):
        stars = ""
        if kind in p_values and means[kind]["macro_f1"] > means[baseline]["macro_f1"]:
            stars = "**" if p_values[kind] < 0.01 else "*" if p_values[kind] < 0.05 else ""
        # stars mark the macro-F1 column only
        cells = [
            Cell(means[kind][m], bold=means[kind][m] == maxima[m], stars=stars if i == 0 else "", precision=3)
            for i, m in enumerate(CLASSIFICATION_MEASURES)
        ]
        rows.append((kind, cells))
    footer = [
        f"Mean metrics across {stats['classification']['n_runs']} paired runs. Baseline: {baseline}. "
        "Stars: Wilcoxon signed-rank improvement over baseline (* p<0.05, ** p<0.01).",
        CLASSIFIER_FOOTER,
    ]
    return ReportTable("Classification results", ["macro-F1", "Accuracy (AD)", "Accuracy (C)"], rows, footer)


def group_measure_table(
    title: str,
    measures: list[str],
    welch: dict[str, dict[str, dict]],
    footer_notes: list[str] | None = None,
) -> ReportTable:
    """C mean / AD mean / p per measure, from stats.json's Welch entries of each kind; the triple is
    bold when p < 0.05."""
    columns = []
    for m in measures:
        columns += [f"{m}_C", f"{m}_AD", f"{m}_p"]
    rows = []
    excluded_notes = []
    for kind in _ordered(welch):
        cells = []
        for m in measures:
            comp = welch[kind][m]
            if "error" in comp:
                cells += [Cell(None)] * 3
                excluded_notes.append(f"{kind}/{m}: undefined for this corpus.")
                continue
            bold = comp["p_value"] < 0.05
            cells += [
                Cell(comp[key], bold=bold, precision=3) for key in ("mean_control", "mean_ad", "p_value")
            ]
            if comp["excluded"]:
                excluded_notes.append(
                    f"{kind}/{m}: {comp['excluded']} document(s) excluded (undefined measure)."
                )
        rows.append((kind, cells))
    footer = ["Welch's t-test, two-sided; bold marks p < 0.05 (strict)."]
    footer += excluded_notes
    footer += footer_notes or []
    return ReportTable(title, columns, rows, footer)


def tables(per_group: dict, similarity: dict, stats: dict, name: str, failures: dict) -> dict[str, ReportTable | None]:
    """Every table of the report, by the name of its files table_<name>.<fmt>, from the parsed
    dataset_stats.json and similarity.json, stats.json's dict, the dataset's name and the manifest's
    failures; None for a table whose kinds the run lacks."""
    welch = stats["welch"]
    return {
        "dataset": dataset_table(name, per_group, failures),
        "similarity": similarity_table(similarity["scores"], similarity["reference"]),
        "classification": classification_table(stats),
        "backtranslation": classification_table(stats, [K.ORIGINAL.value, K.TRANSLATED.value, K.BACK_TRANSLATED.value]),
        "lexical": group_measure_table("Lexical measures", ["ttr", "zipf"], welch,
                                       ["zipf: mean log10 frequency per billion words; OOV floor applies."]),
        "pos": group_measure_table("Part-of-speech measures", ["pnr", "adv", "part"], welch,
                                   ["Baseline lexicon+suffix tagger; pnr per noun, adv/part per token."]),
    }
