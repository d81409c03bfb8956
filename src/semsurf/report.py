"""Report tables: dataset statistics, similarity, classification, lexical and
POS group comparisons, and back-translation summaries, emitted as Markdown,
CSV, or JSON with significance marks and provenance footers.

The tables format the numbers of dataset_stats.json, similarity.json and
stattests.summarize, which the report stage also writes to stats.json. The
one number they derive is the dataset table's total, the sum of the two group
counts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .stattests import CLASSIFICATION_MEASURES
from .transform import KIND_ORDER, TransformationKind


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


def _ordered(kinds) -> list[TransformationKind]:
    return [k for k in KIND_ORDER if k in kinds]


DATASET_FOOTER = "Token lengths: lowercased Unicode word tokenizer; sample (n-1) std."


def dataset_table(name: str, per_group: dict[str, dict]) -> ReportTable:
    """The row of `name` from the per-group entries of dataset_stats.json."""
    groups = [per_group[g] for g in ("AD", "C")]
    lengths = [
        f"{s['mean_tokens']:.0f}(±{s['std_tokens']:.0f})" + (" (degenerate)" if s["degenerate"] else "")
        for s in groups
    ]
    counts = [s["count"] for s in groups]
    cells = [Cell(n) for n in counts] + [Cell(sum(counts))] + [Cell(text) for text in lengths]
    return ReportTable(
        title="Dataset statistics",
        columns=["AD", "Control", "Total", "Length AD", "Length Control"],
        rows=[(name, cells)],
        footer=[DATASET_FOOTER],
    )


SIMILARITY_FOOTER = (
    "BLEU: orders 1-4, no smoothing, lowercased word tokens. "
    "chrF: orders 1-6, beta=2, whitespace stripped. Cosine reported raw in [-1,1]."
)


def similarity_table(
    scores: dict[TransformationKind, dict[str, float]],
    reference: TransformationKind,
) -> ReportTable:
    """Per-transformation mean chrF/BLEU/cosine against the reference corpus."""
    rows = [
        (kind.value, [Cell(scores[kind][m], precision=2) for m in ("chrf", "bleu", "cosine")])
        for kind in _ordered(scores)
    ]
    footer = [f"Reference corpus: {reference.value}.", SIMILARITY_FOOTER]
    return ReportTable("Similarity scores", ["chrF", "BLEU", "Cosine"], rows, footer)


CLASSIFIER_FOOTER = (
    "Classifier: linear head over provider embeddings (not a fine-tuned BERT); "
    "class-weighted logistic loss, early stopping."
)


def classification_table(
    means: dict[TransformationKind, dict[str, float]],
    baseline: TransformationKind,
    p_values: dict[TransformationKind, float],
    n_runs: int,
) -> ReportTable:
    """Mean macro-F1 and per-class accuracies across paired runs, with
    significance stars and per-column bold maxima.

    `means` holds each kind's means over its `n_runs` runs and `p_values`
    each kind's Wilcoxon signed-rank p-value vs. the baseline, both as in
    stats.json; a kind without a p-value gets no stars.
    """
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
        rows.append((kind.value, cells))
    footer = [
        f"Mean metrics across {n_runs} paired runs. Baseline: {baseline.value}. "
        "Stars: Wilcoxon signed-rank improvement over baseline (* p<0.05, ** p<0.01).",
        CLASSIFIER_FOOTER,
    ]
    return ReportTable(
        "Classification results",
        ["macro-F1", "Accuracy (AD)", "Accuracy (C)"],
        rows,
        footer,
    )


def group_measure_table(
    title: str,
    measures: list[str],
    comparisons: dict[TransformationKind, dict[str, dict]],
    footer_notes: list[str] | None = None,
) -> ReportTable:
    """C mean / AD mean / p per measure; the triple is bold when p < 0.05.

    `comparisons` holds each kind's Welch entries of stats.json, by measure.
    """
    columns = []
    for m in measures:
        columns += [f"{m}_C", f"{m}_AD", f"{m}_p"]
    rows = []
    excluded_notes = []
    for kind in _ordered(comparisons):
        cells = []
        for m in measures:
            comp = comparisons[kind][m]
            if "error" in comp:
                cells += [Cell(None)] * 3
                excluded_notes.append(f"{kind.value}/{m}: undefined for this corpus.")
                continue
            bold = comp["p_value"] < 0.05
            cells += [
                Cell(comp[key], bold=bold, precision=3) for key in ("mean_control", "mean_ad", "p_value")
            ]
            if comp["excluded"]:
                excluded_notes.append(
                    f"{kind.value}/{m}: {comp['excluded']} document(s) excluded (undefined measure)."
                )
        rows.append((kind.value, cells))
    footer = ["Welch's t-test, two-sided; bold marks p < 0.05 (strict)."]
    footer += excluded_notes
    footer += footer_notes or []
    return ReportTable(title, columns, rows, footer)
