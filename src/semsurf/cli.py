"""Command-line front door.

Each subcommand runs one pipeline stage against a run directory; `run`
executes them all. Stage artifacts are plain files in the run directory, so
stages are independently re-runnable, and with a warm cache (or mock
providers) every stage is network-free and byte-deterministic. `report` writes
stats.json, `stattests.summarize` of what it reads, and every table of
`report.tables` from that one dict, deleting the files of a table that is
None; no stage reads stats.json.

Each stage declares the artifacts it writes and those it reads, and SHAPES
declares the shape of each JSON artifact that a stage reads: one that does not
fit it exits 2, naming the stage that writes it. `run` groups the stages, in
order, into waves: a stage joins the current wave unless it reads what a stage
already in that wave writes. A one-stage wave runs in the `run` process; the
stages of a larger wave run at once, in up to `max_workers` worker processes,
which take them in stage order, so the table lists a wave's cheapest stage
last. Their output is written in stage order, and the first of them, in stage
order, that fails decides the exit code; the others in its wave still finish
and may write their own artifacts. A worker that ends abruptly, killed say,
loses the results it had not returned, and where the first of them would be
written, `run` exits 2 naming the stages whose results were lost.

Exit codes: 0 ok, 1 usage error (any config error, reported before a stage
runs), 2 data error (also an OSError, such as a run directory that cannot be
written), 3 provider/transport error.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import struct
import sys
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

import click

from . import lexstats, report, stattests, textmetrics
from .config import Config, StageError, config_digest
from .corpus import GROUPS, DataError, Dataset, dataset_stats, load_dataset, partitions, protocol, save_dataset
from .providers import OfflineViolation, ProviderClient, ProviderError, ResponseCache, TransportError
from .transform import KIND_ORDER, TransformationKind, TransformedCorpus, TransformError, run_pipeline

# numpy, and classifier, which needs it, load inside the stages that read embeddings, and hashlib where transform
# computes cache keys and mock digests (providers.py), so the other stages, and `run`'s own process, which runs
# no stage that reads embeddings, start faster and smaller
if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3

K = TransformationKind
# the five kinds the pipeline derives from the reference text
SIMILARITY_TABLE_KINDS = [K.SHORT_SUMMARY, K.MEDIUM_SUMMARY, K.LONG_SUMMARY, K.STORYBOARD, K.IMAGE_DESCRIPTION]
T = TypeVar("T")


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
        cache = ResponseCache(self.resolve(self.config["cache_root"]))
        return ProviderClient(cache, offline=self.offline, max_workers=self.config["max_workers"])

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

    def read_json(self, artifact: str) -> dict:
        """The artifact's JSON object, which must have the shape that SHAPES declares for it."""
        try:
            obj = json.loads(self.need(artifact).read_text())
        except json.JSONDecodeError as exc:
            raise unusable(artifact, f"is not JSON ({exc})") from None
        check(artifact, obj)
        return obj

    def write_json(self, artifact: str, obj) -> None:
        (self.run_dir / artifact).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def load_ingested(self) -> Dataset:
        return load_dataset(self.need("dataset.jsonl"), "jsonl", name=self.config["dataset_name"])

    def read_transformed(self, embedded: bool = False) -> Iterator[tuple[TransformationKind, TransformedCorpus]]:
        """Each corpus that the last `transform` listed in its manifest, Original among them, in manifest order and
        each with the first one's ids in its order: the ids every stage pairs. `embedded` also requires them
        embedded as configured. Errors are found in manifest order: the manifest, embed and Original checks come
        before any corpus is read, and each corpus is read and checked against the first one's ids before it is
        yielded, so a later corpus that cannot be read or does not match exits 2 after the earlier ones came out.
        The reader keeps no corpus it yielded, so a caller that keeps none holds one at a time."""
        manifest = self.read_json("transformed/manifest.json")
        if embedded and manifest["embed"] != self.config.providers["embed"].summary():
            raise unusable("transformed/*.npy", "was embedded before embed.* changed")
        if K.ORIGINAL.value not in manifest["kinds"]:
            raise unusable("transformed/manifest.json", f"does not list {K.ORIGINAL.value}")
        ids = None
        for name in manifest["kinds"]:
            corpus = self._read(f"transformed/{name}.jsonl", TransformedCorpus.load)
            if ids is None:
                ids = corpus.ids()
            elif corpus.ids() != ids:
                raise unusable(f"transformed/{name}.jsonl", f"does not match the ids of {manifest['kinds'][0]}.jsonl")
            yield K(name), corpus
            del corpus  # before the next one is read

    def load_vectors(self, kind: TransformationKind, rows: int, columns: int | None = None) -> np.ndarray:
        """The embeddings that `transform` stored for the kind's corpus, one of
        read_transformed(embedded=True) with `rows` items, one row per item in
        its order, and `columns` columns where given."""
        import numpy as np

        artifact = f"transformed/{kind.value}.npy"
        vectors = self._read(artifact, np.load)
        if vectors.ndim != 2 or len(vectors) != rows:
            raise unusable(artifact, f"does not match {kind.value}.jsonl")
        if columns is not None and vectors.shape[1] != columns:
            raise unusable(artifact, f"has {vectors.shape[1]} columns where the other kinds' arrays have {columns}")
        return vectors

    def _read(self, artifact: str, load: Callable[[Path], T]) -> T:
        """load(path) of the artifact; one it cannot read exits 2 as `unusable`."""
        try:
            return load(self.need(artifact))
        except (OSError, EOFError, ValueError, KeyError, TypeError) as exc:
            raise unusable(artifact, f"cannot be read ({type(exc).__name__}: {exc})") from None


def unusable(artifact: str, problem: str) -> StageError:
    """The exit-2 error for an artifact a stage cannot read, naming the stage that writes it."""
    return StageError(f"{artifact} {problem}; run `semsurf {PRODUCER[artifact.split('/')[0]]}`", EXIT_DATA)


# ---------------------------------------------------------------------------
# the shape of each JSON artifact that a stage reads; `_check` lists what a shape may be

JSON_VALUES: dict[str, Callable[[object], bool]] = {
    "a number": lambda v: type(v) in (int, float),
    "an array of numbers and nulls": lambda v: type(v) is list and all(x is None or type(x) in (int, float) for x in v),
    "a boolean": lambda v: type(v) is bool,
    "a JSON object": lambda v: type(v) is dict,
    "a JSON array": lambda v: type(v) is list,
    "a non-empty JSON array": lambda v: type(v) is list and v != [],
    "an [id, message] pair": lambda v: type(v) is list and len(v) == 2 and all(type(x) is str for x in v),
}
RUN_FIELDS = sorted({"seed", *stattests.CLASSIFICATION_MEASURES})


SHAPES = {
    "dataset_stats.json": dict.fromkeys(GROUPS, (
        "an object of numbers count, mean_tokens, std_tokens and a boolean degenerate",
        {**dict.fromkeys(("count", "mean_tokens", "std_tokens"), "a number"), "degenerate": "a boolean"},
    )),
    "transformed/manifest.json": {
        "kinds": [K], "embed": "a JSON object", "failures": {K: ["an [id, message] pair"]},
    },
    "similarity.json": {"reference": K, "scores": {K: (
        f"an object of numbers {', '.join(textmetrics.METRICS)}", dict.fromkeys(textmetrics.METRICS, "a number"),
    )}},
    "lexical.json": {K: dict.fromkeys(lexstats.MEASURES, (
        '{"AD": [...], "C": [...]}', dict.fromkeys(GROUPS, "an array of numbers and nulls"),
    ))},
    "classification.json": {
        "runs": {K: (f"a list of objects of numbers {', '.join(RUN_FIELDS)}", [dict.fromkeys(RUN_FIELDS, "a number")])},
        "seeds": "a non-empty JSON array",
    },
}


def check(artifact: str, value) -> None:
    """Exit 2 as `unusable` unless `value`, the artifact's JSON, has the shape that SHAPES declares for it."""
    _check(artifact, SHAPES[artifact], value)


def _check(artifact: str, shape, value, path: tuple = (), whole: tuple | None = None) -> None:
    """Exit 2 as `unusable` on the first part of `value`, the JSON at `path` in the artifact, that does
    not have its `shape`, one of: a phrase of JSON_VALUES; K, a kind's name; [shape], an array of it;
    {K: shape}, an object whose keys are kind names; {key: shape, ...}, an object holding each key, whose
    missing key, below the top level, fails as its value; (phrase, shape), the shape, with `phrase` naming
    a failure inside it. `whole` is the (path, phrase) of the innermost one around `path`."""
    if isinstance(shape, str):
        if not JSON_VALUES[shape](value):
            at, phrase = whole or (path, shape)
            where = "" if not at else f"key {at[0]} " if len(at) == 1 else f"entry {'/'.join(map(str, at))} "
            raise unusable(artifact, f"{where}is not {phrase}")
    elif shape is K:
        if value not in [kind.value for kind in K]:
            where = "lists" if path and type(path[-1]) is int else f"key {'/'.join(path)} holds" if path else "holds"
            raise unusable(artifact, f"{where} {value!r}, which is not a transformation kind")
    elif isinstance(shape, list):
        _check(artifact, "a JSON array", value, path, whole)
        for i, item in enumerate(value):
            _check(artifact, shape[0], item, (*path, i), whole)
    elif isinstance(shape, tuple):
        phrase, inner = shape
        _check(artifact, inner, value, path, (path, phrase))
    elif K in shape:
        _check(artifact, "a JSON object", value, path, whole)
        for name in value:  # every key, before any value
            _check(artifact, K, name, path)
        for name, item in value.items():
            _check(artifact, shape[K], item, (*path, name), whole)
    else:
        if not path and not (type(value) is dict and value.keys() >= shape.keys()):
            raise unusable(artifact, f"is not a JSON object with keys {', '.join(shape)}")
        for key, item in shape.items():
            _check(artifact, item, value.get(key) if type(value) is dict else None, (*path, key), whole)


# ---------------------------------------------------------------------------
# the stage table

STAGES: list[tuple[str, Callable[[RunContext], None]]] = []  # (name, stage function), in run order
PRODUCER: dict[str, str] = {}  # file or directory in the run directory -> stage writing it
READS: dict[str, tuple[str, ...]] = {}  # stage -> the files and directories of earlier stages it reads


def stage(*artifacts: str, reads: tuple[str, ...] = ()):
    """Append the decorated `stage_<name>` to STAGES as the producer of
    `artifacts` and a reader of `reads`, artifacts that earlier stages write."""

    def register(fn):
        name = fn.__name__.removeprefix("stage_")
        STAGES.append((name, fn))
        PRODUCER.update(dict.fromkeys(artifacts, name))
        READS[name] = reads
        return fn

    return register


def waves() -> list[list[str]]:
    """The names of STAGES, in order, in groups that may run at once: each
    stage joins the last group unless it reads what a stage in it writes."""
    groups: list[list[str]] = []
    for name, _ in STAGES:
        if not groups or any(PRODUCER[artifact] in groups[-1] for artifact in READS[name]):
            groups.append([])
        groups[-1].append(name)
    return groups


@stage("dataset.jsonl", "dataset_stats.json")
def stage_ingest(ctx: RunContext) -> None:
    cfg = ctx.config
    dataset = load_dataset(ctx.resolve(cfg["dataset"]), cfg["format"], name=cfg["dataset_name"])
    cfg.check_language(dataset.source_language)
    save_dataset(dataset, ctx.run_dir / "dataset.jsonl")
    ctx.write_json("dataset_stats.json", dataset_stats(dataset))
    click.echo(f"ingested {len(dataset)} transcripts -> {ctx.run_dir / 'dataset.jsonl'}")


def npy_bytes(rows: list[bytes]) -> bytes:
    """The .npy file that np.save writes for the float64 array of `rows`, each
    a vector packed as little-endian float64: a format 1.0 header, then the
    rows. No rows make an array of shape (0,); rows of unequal length exit 2."""
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise DataError(f"embeddings of unequal dimensions {sorted(w // 8 for w in widths)}")
    shape = (len(rows), widths.pop() // 8) if rows else (0,)
    # np.save leaves room for the first axis to grow to 21 digits in place
    header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape!r}, }}" + " " * (21 - len(str(shape[0])))
    # magic, version and length, then the header, padded with spaces and a newline to a multiple of 64 bytes
    pad = 64 - (10 + len(header) + 1) % 64
    length = struct.pack("<H", len(header) + pad + 1)
    return b"\x93NUMPY\x01\x00" + length + header.encode("latin1") + b" " * pad + b"\n" + b"".join(rows)


@stage("transformed", reads=("dataset.jsonl",))
def stage_transform(ctx: RunContext) -> None:
    dataset = ctx.load_ingested()
    config = ctx.config.pipeline(dataset.source_language)
    corpora, failures = run_pipeline(dataset, config, ctx.client)
    out_dir = ctx.run_dir / "transformed"
    out_dir.mkdir(exist_ok=True)
    embed_cfg = ctx.config.providers["embed"]
    for kind, corpus in corpora.items():
        corpus.save(out_dir / f"{kind.value}.jsonl")
        # the pipeline's only embed call, one per kind; each row is packed little-endian float64
        rows = ctx.client.embed_batch(embed_cfg, [text for _, text in corpus.items])
        try:
            (out_dir / f"{kind.value}.npy").write_bytes(npy_bytes(rows))
        except DataError as exc:
            raise DataError(f"{kind.value}: {exc}") from None
    manifest = {
        "dataset_name": dataset.name,
        "prompts": {k.value: v for k, v in config.prompts.items()},
        "prompt_overrides": sorted(k.value for k in config.prompts if f"prompt.{k.value}" in ctx.config.raw),
        "kinds": sorted(k.value for k in corpora),
        "embed": embed_cfg.summary(),
        "failures": failures,
    }
    ctx.write_json("transformed/manifest.json", manifest)
    click.echo(f"transformed -> {sorted(k.value for k in corpora)}")


@stage("similarity.json", reads=("transformed",))
def stage_similarity(ctx: RunContext) -> None:
    corpora = dict(ctx.read_transformed(embedded=True))
    reference = K.TRANSLATED if K.TRANSLATED in corpora else K.ORIGINAL
    ordered = [k for k in KIND_ORDER if k in corpora]
    # the scores against the reference are the matrix's reference column
    ref_col = ordered.index(reference)
    scores: dict[str, dict[str, float]] = {k.value: {} for k in SIMILARITY_TABLE_KINDS if k in corpora}
    ctx.reports_dir.mkdir(exist_ok=True)
    # every kind's array has the first one's columns, as load_vectors checks
    rows = len(corpora[ordered[0]].items)
    vectors = [ctx.load_vectors(ordered[0], rows)]
    vectors += [ctx.load_vectors(k, rows, vectors[0].shape[1]) for k in ordered[1:]]
    matrices = textmetrics.pairwise_matrices([corpora[k] for k in ordered], vectors)
    labels = [k.value for k in ordered]
    for metric, matrix in matrices.items():
        rows = [(label, [report.Cell(v) for v in row]) for label, row in zip(labels, matrix)]
        table = report.ReportTable(metric, labels, rows)
        (ctx.reports_dir / f"matrix_{metric}.csv").write_text(report.emit(table, "csv"))
        for kind, row in zip(ordered, matrix):
            if kind.value in scores:
                scores[kind.value][metric] = row[ref_col]
    ctx.write_json("similarity.json", {"reference": reference.value, "scores": scores})
    click.echo(f"similarity vs {reference.value}: {len(scores)} transformations")


@stage("classification.json", reads=("dataset.jsonl", "transformed"))
def stage_classify(ctx: RunContext) -> None:
    from . import classifier

    dataset = ctx.load_ingested()
    # a head trains on stored embeddings, so of the corpora classify keeps only their kinds and the ids they all list
    # in one order, the rows of each kind's array; it reads them one at a time and drops each before the next
    kinds = []
    for kind, corpus in ctx.read_transformed(embedded=True):
        kinds.append(kind)
        ids = corpus.ids()
        del corpus
    seeds = classifier.run_seeds(ctx.config["master_seed"], ctx.config["runs"])
    k, cfg = ctx.config["k"], ctx.config.train
    labels = {t.id: t.group for t in dataset.transcripts}
    # one draw per seed over those ids, prepared once, trains and tests every kind
    splits = [(seed, partitions(dataset, k, seed, set(ids))) for seed in seeds]
    folds = classifier.prepare(ids, labels, splits, cfg)
    # every kind's array has the first one's shape: a row per id, and its columns, as load_vectors checks
    rows, columns = ctx.load_vectors(kinds[0], len(ids)).shape
    # the kinds train in chunks of small arrays, each chunk's heads of a fold at once, and each chunk's arrays are
    # loaded in its turn, so classify holds one chunk at a time. A kind's heads are the same bits in any chunk.
    runs = {}
    for chunk in classifier.chunks(kinds, rows, columns):
        vectors = (ctx.load_vectors(kind, rows, columns) for kind in chunk)
        try:
            chunk_runs = classifier.evaluate_stack(vectors, folds, cfg)
        except classifier.TrainingError as exc:
            raise classifier.TrainingError(f"{chunk[exc.kind].value}: {exc}") from exc
        runs.update((kind.value, kind_runs) for kind, kind_runs in zip(chunk, chunk_runs))
    name = protocol(dataset, k)
    ctx.write_json("classification.json", {"protocol": name, "seeds": seeds, "runs": runs})
    click.echo(f"classified {len(runs)} corpora ({name}, {len(seeds)} seeds)")


# below classify: `run` hands the stages of a wave to its workers in table order, so on two workers
# similarity and classify start at once and lexical, the cheapest, waits for the first to finish
@stage("lexical.json", reads=("dataset.jsonl", "transformed"))
def stage_lexical(ctx: RunContext) -> None:
    dataset = ctx.load_ingested()
    corpora = dict(ctx.read_transformed())
    groups = {t.id: t.group for t in dataset.transcripts}
    freq = lexstats.FrequencyTable.load(ctx.resolve(ctx.config["frequency_table"]))
    tagger = lexstats.BaselineTagger.load(ctx.resolve(ctx.config["pos_lexicon"]))
    oov_floor = ctx.config["zipf_oov_floor"]

    results: dict[str, dict[str, dict[str, list[float | None]]]] = {}
    for kind, corpus in corpora.items():
        per_measure: dict[str, dict[str, list[float | None]]] = {m: {"C": [], "AD": []} for m in lexstats.MEASURES}
        for item_id, text in corpus.items:
            for m, value in lexstats.measures(text, freq, tagger, oov_floor).items():
                per_measure[m][groups[item_id]].append(value)
        results[kind.value] = per_measure
    ctx.write_json("lexical.json", results)
    click.echo(f"lexical measures for {len(results)} corpora")


@stage("stats.json", reads=(
    "dataset_stats.json", "similarity.json", "classification.json", "lexical.json", "transformed",
))
def stage_report(ctx: RunContext) -> None:
    per_group, sim, cls, lex = (ctx.read_json(name) for name in READS["report"][:-1])
    failures = ctx.read_json("transformed/manifest.json")["failures"]
    # Original is the baseline that the classification tables name
    stats = stattests.summarize(sim, cls, lex, baseline=K.ORIGINAL.value)
    ctx.reports_dir.mkdir(exist_ok=True)
    ctx.write_json("stats.json", stats)
    # a table that the run lacks the kinds of has no files, so a rerun drops an earlier run's; other files stay
    for name, table in report.tables(per_group, sim, stats, ctx.config["dataset_name"], failures).items():
        for fmt in report.FORMATS:
            path = ctx.reports_dir / f"table_{name}.{fmt}"
            if table is None:
                path.unlink(missing_ok=True)
            else:
                path.write_text(report.emit(table, fmt))
    click.echo(f"reports -> {ctx.reports_dir}")


def _run_stage(fn: Callable[[RunContext], int | None], config: str, run_dir: str, offline: bool) -> int:
    """fn(ctx) on a new RunContext, as an exit code: what fn returns, 0 for None, or that of the error it raised."""
    ctx = None
    try:
        ctx = RunContext(Path(config), Path(run_dir), offline)
        return fn(ctx) or EXIT_OK
    except StageError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except (TransportError, ProviderError, OfflineViolation) as exc:
        click.echo(f"provider error: {exc}", err=True)
        return EXIT_PROVIDER
    except TransformError as exc:
        click.echo(f"transform error: {exc}", err=True)
        return EXIT_PROVIDER
    except (ValueError, OSError) as exc:  # OSError: a run directory that cannot be made or written, say
        click.echo(f"error: {exc}", err=True)
        return EXIT_DATA
    finally:
        if ctx is not None and "client" in vars(ctx):  # the stage opened the cache
            ctx.client.cache.close()


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


def _run_captured(name: str, config: str, run_dir: str, offline: bool) -> tuple[int, str, str]:
    """_run_stage of the stage `name`, in a worker process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _run_stage(dict(STAGES)[name], config, run_dir, offline)
    return code, out.getvalue(), err.getvalue()


def _run_wave(ctx: RunContext, names: list[str], config: str, run_dir: str, offline: bool) -> int:
    """Run the stages `names` at once on min(max_workers, len(names)) worker processes.
    Their output is written in the order of `names`, up to the first that failed, whose exit
    code is returned; 0 when none failed. A worker that ends abruptly loses the results of the
    stages it had not returned: in their place the first of them writes one error line, naming
    them all, and returns 2."""
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    if "client" in vars(ctx):
        ctx.client.cache.close()  # an SQLite connection must not cross a fork; no later stage of `run` calls a provider
    # a fork copies only the thread that calls it, so a lock that another thread holds would stay held in the worker
    fork = "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
    mp_context = multiprocessing.get_context("fork" if fork else "spawn")
    results: list[tuple[int, str, str] | None] = []
    with ProcessPoolExecutor(min(ctx.config["max_workers"], len(names)), mp_context=mp_context) as pool:
        for future in [pool.submit(_run_captured, name, config, run_dir, offline) for name in names]:
            try:
                results.append(future.result())
            except BrokenProcessPool:
                results.append(None)
    lost = [name for name, result in zip(names, results) if result is None]
    for result in results:
        if result is None:
            click.echo(f"error: a worker process ended abruptly; the results of {', '.join(lost)} were lost", err=True)
            return EXIT_DATA
        code, out, err = result
        click.echo(out, nl=False)
        click.echo(err, nl=False, err=True)
        if code != EXIT_OK:
            return code
    return EXIT_OK


@main.command(name="run", help="Run all stages end to end and write a run manifest.")
@_common_options
def cmd_run(config, run_dir, offline):
    def all_stages(ctx: RunContext) -> int | None:
        stage_fn = dict(STAGES)
        for wave in waves():
            if len(wave) == 1:
                stage_fn[wave[0]](ctx)
            elif code := _run_wave(ctx, wave, config, run_dir, offline):
                return code
        ctx.write_json("run_manifest.json", {
            "config": ctx.config.raw,
            "config_digest": config_digest(ctx.config.raw),
            "stages": [name for name, _ in STAGES],
            "network_calls": ctx.client.network_calls,
        })

    sys.exit(_run_stage(all_stages, config, run_dir, offline))


def entry():
    """main() as a program: the console script and `python -m semsurf.cli`. On its way out it
    freezes the heap, so the interpreter's exit does not collect the objects it is about to free."""
    # numpy's OpenBLAS starts a pool of threads at import, which semsurf's small products never use; one thread
    # makes numpy's import cheaper. A value the user set wins, and the workers of `run`, which import numpy
    # themselves where their stage reads embeddings, inherit it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
