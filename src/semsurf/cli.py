"""Command-line front door.

Each subcommand runs one pipeline stage against a run directory; `run`
executes them all in order. Stage artifacts are plain files in the run
directory, so stages are independently re-runnable, and with a warm cache
(or mock providers) every stage is network-free and byte-deterministic.

Exit codes: 0 ok, 1 usage error (any config error, reported before a stage
runs), 2 data error, 3 provider/transport error.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import classifier, lexstats, report, stattests, textmetrics
from .config import Config, StageError, config_digest
from .corpus import DataError, Dataset, dataset_stats, load_dataset, save_dataset
from .providers import OfflineViolation, ProviderClient, ProviderError, ResponseCache, TransportError
from .transform import KIND_ORDER, TransformationKind, TransformedCorpus, TransformError, run_pipeline

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3

K = TransformationKind
# the five kinds the pipeline derives from the reference text
SIMILARITY_TABLE_KINDS = [K.SHORT_SUMMARY, K.MEDIUM_SUMMARY, K.LONG_SUMMARY, K.STORYBOARD, K.IMAGE_DESCRIPTION]


class RunContext:
    def __init__(self, config_path: Path, run_dir: Path, offline: bool):
        self.config = Config(config_path)
        self.run_dir = run_dir
        self.reports_dir = run_dir / "reports"
        self.offline = offline
        for key in ("frequency_table", "pos_lexicon"):
            if self.config[key] is not None and not self.resolve(self.config[key]).is_file():
                raise self.config.error(key, "no such file")
        self.run_dir.mkdir(parents=True, exist_ok=True)

    @cached_property  # built on first use, so a stage that calls no provider never opens the cache
    def client(self) -> ProviderClient:
        return ProviderClient(ResponseCache(self.resolve(self.config["cache_root"])), offline=self.offline)

    def resolve(self, p: str | None) -> Path | None:
        """A config path, relative to the run directory unless absolute; None stays None."""
        if p is None:
            return None
        path = Path(p)
        return path if path.is_absolute() else self.run_dir / path

    def need(self, artifact: str) -> Path:
        path = self.run_dir / artifact
        if not path.exists():
            raise StageError(
                f"missing artifact {artifact}; run `semsurf {PRODUCER[artifact.split('/')[0]]}` first", EXIT_DATA
            )
        return path

    def write_json(self, artifact: str, obj) -> None:
        (self.run_dir / artifact).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def load_ingested(self) -> Dataset:
        return load_dataset(self.need("dataset.jsonl"), "jsonl", name=self.config["dataset_name"])

    def load_transformed(self) -> dict[TransformationKind, TransformedCorpus]:
        """The corpora of the kinds that the last `transform` listed in its manifest."""
        kinds = json.loads(self.need("transformed/manifest.json").read_text())["kinds"]
        return {K(k): TransformedCorpus.load(self.need(f"transformed/{k}.jsonl")) for k in kinds}

    def load_vectors(self, kind: TransformationKind, corpus: TransformedCorpus) -> np.ndarray:
        """The embeddings that `transform` stored for `corpus`, one row per item in its order."""
        artifact = f"transformed/{kind.value}.npy"
        manifest = json.loads(self.need("transformed/manifest.json").read_text())
        if manifest.get("embed") != self.config.providers["embed"].summary():
            raise StageError(f"embed.* changed since {artifact} was written; run `semsurf transform`", EXIT_DATA)
        vectors = np.load(self.need(artifact))
        if vectors.ndim != 2 or len(vectors) != len(corpus.items):
            raise StageError(f"{artifact} does not match {kind.value}.jsonl; run `semsurf transform`", EXIT_DATA)
        return vectors


# ---------------------------------------------------------------------------
# the stage table

STAGES: list[tuple[str, Callable[[RunContext], None]]] = []  # (name, stage function), in run order
PRODUCER: dict[str, str] = {}  # file or directory in the run directory -> stage writing it


def stage(*artifacts: str):
    """Append the decorated `stage_<name>` to STAGES as the producer of `artifacts`."""

    def register(fn):
        name = fn.__name__.removeprefix("stage_")
        STAGES.append((name, fn))
        PRODUCER.update(dict.fromkeys(artifacts, name))
        return fn

    return register


@stage("dataset.jsonl", "dataset_stats.json")
def stage_ingest(ctx: RunContext) -> None:
    cfg = ctx.config
    dataset = load_dataset(ctx.resolve(cfg["dataset"]), cfg["format"], name=cfg["dataset_name"])
    cfg.check_language(dataset.source_language)
    save_dataset(dataset, ctx.run_dir / "dataset.jsonl")
    ctx.write_json("dataset_stats.json", dataset_stats(dataset).to_dict())
    click.echo(f"ingested {len(dataset)} transcripts -> {ctx.run_dir / 'dataset.jsonl'}")


@stage("transformed")
def stage_transform(ctx: RunContext) -> None:
    dataset = ctx.load_ingested()
    config = ctx.config.pipeline(dataset.source_language)
    corpora, failures = run_pipeline(dataset, config, ctx.client)
    out_dir = ctx.run_dir / "transformed"
    out_dir.mkdir(exist_ok=True)
    embed_cfg = ctx.config.providers["embed"]
    for kind, corpus in corpora.items():
        corpus.save(out_dir / f"{kind.value}.jsonl")
        # the pipeline's only embed calls; one array per row, as a kind's Python floats take 4x the memory
        rows = [np.array(ctx.client.embed(embed_cfg, text).values) for _, text in corpus.items]
        np.save(out_dir / f"{kind.value}.npy", np.array(rows, dtype=np.float64))
    manifest = {
        "dataset_name": dataset.name,
        "config_digest": config_digest(ctx.config.raw),
        "prompts": {k.value: v for k, v in config.prompts.prompts.items()},
        "prompt_overrides": sorted(k.value for k in config.prompts.overridden),
        "kinds": sorted(k.value for k in corpora),
        "embed": embed_cfg.summary(),
        "item_cache_keys": {
            kind.value: {i: list(p) for i, p in corpus.provenance.items()}
            for kind, corpus in corpora.items()
        },
        "failures": failures,
    }
    ctx.write_json("transformed/manifest.json", manifest)
    click.echo(f"transformed -> {sorted(k.value for k in corpora)}")


@stage("similarity.json")
def stage_similarity(ctx: RunContext) -> None:
    corpora = ctx.load_transformed()
    reference = K.TRANSLATED if K.TRANSLATED in corpora else K.ORIGINAL
    if reference not in corpora:
        raise StageError(f"similarity needs the {reference.value} corpus; add it to `enabled`", EXIT_USAGE)
    ordered = [k for k in KIND_ORDER if k in corpora]
    # the scores against the reference are the matrix's reference column
    ref_col = ordered.index(reference)
    scores: dict[str, dict[str, float]] = {
        k.value: {} for k in SIMILARITY_TABLE_KINDS if k in corpora
    }
    ctx.reports_dir.mkdir(exist_ok=True)
    vectors = [ctx.load_vectors(k, corpora[k]) for k in ordered]
    matrices = textmetrics.pairwise_matrices([corpora[k] for k in ordered], vectors)
    for metric, matrix in matrices.items():
        (ctx.reports_dir / f"matrix_{metric}.csv").write_text(matrix.to_csv())
        for kind, row in zip(ordered, matrix.values):
            if kind.value in scores:
                scores[kind.value][metric] = row[ref_col]
    ctx.write_json("similarity.json", {"reference": reference.value, "scores": scores})
    click.echo(f"similarity vs {reference.value}: {len(scores)} transformations")


@stage("lexical.json")
def stage_lexical(ctx: RunContext) -> None:
    dataset = ctx.load_ingested()
    corpora = ctx.load_transformed()
    groups = {t.id: t.group for t in dataset.transcripts}
    freq = lexstats.FrequencyTable.load(ctx.resolve(ctx.config["frequency_table"]))
    tagger = lexstats.BaselineTagger.load(ctx.resolve(ctx.config["pos_lexicon"]))
    oov_floor = ctx.config["zipf_oov_floor"]

    results: dict[str, dict[str, dict]] = {}
    for kind, corpus in corpora.items():
        per_measure: dict[str, dict[str, list[float | None]]] = {
            m: {"C": [], "AD": []} for m in ("ttr", "zipf", "pnr", "adv", "part")
        }
        for item_id, text in corpus.items:
            tokens = lexstats.tokenize(text)
            group = groups[item_id]
            if not tokens:
                for m in per_measure:
                    per_measure[m][group].append(None)
                continue
            ratios = lexstats.pos_ratios(tagger.tag(tokens))
            per_measure["ttr"][group].append(lexstats.ttr(tokens))
            per_measure["zipf"][group].append(lexstats.avg_zipf(tokens, freq, oov_floor))
            per_measure["pnr"][group].append(ratios.pnr)
            per_measure["adv"][group].append(ratios.adv_ratio)
            per_measure["part"][group].append(ratios.part_ratio)
        results[kind.value] = {}
        for measure, by_group in per_measure.items():
            try:
                comp = lexstats.group_compare(by_group["C"], by_group["AD"])
            except (ValueError, stattests.DegenerateDataError) as exc:
                results[kind.value][measure] = {"error": str(exc)}
                continue
            results[kind.value][measure] = comp.to_dict()
    ctx.write_json("lexical.json", results)
    click.echo(f"lexical measures for {len(results)} corpora")


@stage("classification.json")
def stage_classify(ctx: RunContext) -> None:
    dataset = ctx.load_ingested()
    corpora = ctx.load_transformed()
    cfg = ctx.config.train
    seeds = classifier.run_seeds(ctx.config["master_seed"], ctx.config["runs"])
    k = ctx.config["k"]
    use_fixed = all(t.split is not None for t in dataset.transcripts)

    results = {}
    for kind, corpus in corpora.items():
        vectors = ctx.load_vectors(kind, corpus)
        if use_fixed:
            runs = classifier.fixed_split_evaluate(corpus, dataset, seeds, vectors, cfg)
        else:
            runs = classifier.cross_validate(corpus, dataset, k, seeds, vectors, cfg)
        results[kind.value] = [r.to_dict() for r in runs]
    payload = {
        "protocol": "fixed_split" if use_fixed else f"cv{k}",
        "seeds": seeds,
        "runs": results,
    }
    ctx.write_json("classification.json", payload)
    click.echo(f"classified {len(results)} corpora ({payload['protocol']}, {len(seeds)} seeds)")


@stage("stats.json")
def stage_stats(ctx: RunContext) -> None:
    sim = json.loads(ctx.need("similarity.json").read_text())
    cls = json.loads(ctx.need("classification.json").read_text())

    baseline = K.ORIGINAL.value  # the baseline the classification tables name
    out: dict = {"baseline": baseline, "wilcoxon_vs_baseline": {}, "pearson": None}
    base_runs = cls["runs"].get(baseline)
    if base_runs:
        base_f1 = [r["macro_f1"] for r in base_runs]
        for kind, runs in sorted(cls["runs"].items()):
            if kind == baseline:
                continue
            f1 = [r["macro_f1"] for r in runs]
            try:
                res = stattests.wilcoxon_signed_rank(f1, base_f1)
            except stattests.DegenerateDataError as exc:
                out["wilcoxon_vs_baseline"][kind] = {"error": str(exc)}
                continue
            out["wilcoxon_vs_baseline"][kind] = {
                "statistic": res.statistic, "p_value": res.p_value, "method": res.method
            }

    # semantic similarity vs classification performance across transformations
    kinds = [k for k in sim["scores"] if k in cls["runs"]]
    if len(kinds) >= 3:
        cosines = [sim["scores"][k]["cosine"] for k in kinds]
        f1s = [sum(r["macro_f1"] for r in cls["runs"][k]) / len(cls["runs"][k]) for k in kinds]
        try:
            res = stattests.pearson(cosines, f1s)
            out["pearson"] = {"kinds": kinds, "r": res.statistic, "df": res.df, "p_value": res.p_value}
        except stattests.DegenerateDataError as exc:
            out["pearson"] = {"error": str(exc)}
    ctx.write_json("stats.json", out)
    click.echo("stats written")


@stage()
def stage_report(ctx: RunContext) -> None:
    dataset = ctx.load_ingested()
    ctx.reports_dir.mkdir(exist_ok=True)

    def write(table: report.ReportTable, name: str) -> None:
        for fmt in ("md", "csv", "json"):
            (ctx.reports_dir / f"table_{name}.{fmt}").write_text(report.emit(table, fmt))

    write(report.dataset_table(dataset.name, dataset_stats(dataset)), "dataset")

    sim_path = ctx.run_dir / "similarity.json"
    if sim_path.exists():
        sim = json.loads(sim_path.read_text())
        scores = {K(k): v for k, v in sim["scores"].items()}
        write(report.similarity_table(scores, K(sim["reference"])), "similarity")

    cls_path = ctx.run_dir / "classification.json"
    if cls_path.exists():
        cls = json.loads(cls_path.read_text())
        stats = json.loads(ctx.need("stats.json").read_text())
        runs = {
            K(kind): [classifier.ClassificationRun.from_dict(d) for d in run_dicts]
            for kind, run_dicts in cls["runs"].items()
        }
        baseline = K(stats["baseline"])
        p_values = {
            K(kind): r["p_value"] for kind, r in stats["wilcoxon_vs_baseline"].items() if "p_value" in r
        }
        write(report.classification_table(runs, baseline, p_values), "classification")
        back_kinds = [K.ORIGINAL, K.TRANSLATED, K.BACK_TRANSLATED]
        if all(k in runs for k in back_kinds):
            back_runs = {k: runs[k] for k in back_kinds}
            write(report.classification_table(back_runs, baseline, p_values), "backtranslation")

    lex_path = ctx.run_dir / "lexical.json"
    if lex_path.exists():
        lex = json.loads(lex_path.read_text())
        comparisons = {
            K(kind): {
                m: None if "error" in d else lexstats.GroupComparison.from_dict(d)
                for m, d in measures.items()
            }
            for kind, measures in lex.items()
        }
        write(
            report.group_measure_table(
                "Lexical measures", ["ttr", "zipf"], comparisons,
                ["zipf: mean log10 frequency per billion words; OOV floor applies."],
            ),
            "lexical",
        )
        write(
            report.group_measure_table(
                "Part-of-speech measures", ["pnr", "adv", "part"], comparisons,
                ["Baseline lexicon+suffix tagger; pnr per noun, adv/part per token."],
            ),
            "pos",
        )
    click.echo(f"reports -> {ctx.reports_dir}")


def _run_stage(fn, config: str, run_dir: str, offline: bool) -> int:
    try:
        ctx = RunContext(Path(config), Path(run_dir), offline)
        fn(ctx)
        return EXIT_OK
    except StageError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except (DataError, classifier.TrainingError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except (TransportError, ProviderError, OfflineViolation) as exc:
        click.echo(f"provider error: {exc}", err=True)
        return EXIT_PROVIDER
    except TransformError as exc:
        click.echo(f"transform error: {exc}", err=True)
        return EXIT_PROVIDER
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_DATA


def _common_options(fn):
    fn = click.option("--config", required=True, type=click.Path(), help="Flat key=value config file.")(fn)
    fn = click.option("--run-dir", required=True, type=click.Path(), help="Run directory for stage artifacts.")(fn)
    fn = click.option("--offline", is_flag=True, help="Forbid network; the cache must satisfy all calls.")(fn)
    return fn


@click.group()
def main():
    """Transcript transformation and surface-form/semantics analysis pipeline."""


def _register(name: str, fn):
    @main.command(name=name, help=f"Run the {name} stage.")
    @_common_options
    def _cmd(config, run_dir, offline, _fn=fn):
        sys.exit(_run_stage(_fn, config, run_dir, offline))


for _name, _fn in STAGES:
    _register(_name, _fn)


@main.command(name="run", help="Run all stages end to end and write a run manifest.")
@_common_options
def cmd_run(config, run_dir, offline):
    def all_stages(ctx: RunContext) -> None:
        for name, fn in STAGES:
            fn(ctx)
        ctx.write_json("run_manifest.json", {
            "config": ctx.config.raw,
            "config_digest": config_digest(ctx.config.raw),
            "stages": [name for name, _ in STAGES],
            "network_calls": ctx.client.network_calls,
        })

    sys.exit(_run_stage(all_stages, config, run_dir, offline))


if __name__ == "__main__":
    main()
