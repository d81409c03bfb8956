#!/usr/bin/env python3
"""Span tracer for one semsurf CLI process, installed from outside ``src/``.

Run as a program, it imports the semsurf modules, wraps their public
functions and methods, runs the CLI with the arguments after ``--`` and
writes every span and counter as JSON when the CLI returns:

    PYTHONPATH=src python3 perfbench/tracer.py --out trace.json -- \\
        classify --config my.conf --run-dir runs/x --offline

A function is wrapped under the name of the module that defines it, and
every module-level name that refers to it is rebound to the wrapper, so a
call through ``textmetrics.tokenize`` or ``cli.load_dataset`` is traced like
one through ``lexstats.tokenize`` or ``corpus.load_dataset``. ``aggregate``
and ``per_layer_metrics`` turn the files into per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from enum import Enum
from pathlib import Path

MODULES = (
    "cli", "corpus", "transform", "providers", "textmetrics",
    "lexstats", "classifier", "stattests", "report",
)
STAGES = ("ingest", "transform", "similarity", "lexical", "classify", "stats", "report")

# Called once per token: a span each would cost more than the work it wraps.
UNWRAPPED = frozenset({"lexstats.FrequencyTable.zipf"})

# The only method that reaches the network; private, so wrapped by name.
NETWORK_SPAN = "providers.ProviderClient._http_call"


class Tracer:
    """Spans and counters of one process; safe to call from worker threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.local = threading.local()  # per-thread span stack, and state for the counters below
        self._last_id = 0
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent (0 = none), name, start, end
        self.counts: Counter[str] = Counter()
        self.distinct: defaultdict[str, set[str]] = defaultdict(set)

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def adopt(self, parent: int, fn, *args, **kwargs):
        """Run fn on this thread as a child of span `parent` of another thread."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn recording a span per call; after(tracer, args, result) runs on success."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            with self._lock:
                self._last_id += 1
                span_id = self._last_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(f"{name}.raised")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def see(self, key: str, item: str) -> None:
        """Record item as one of the distinct values behind counter `key`."""
        digest = hashlib.blake2b(item.encode("utf-8"), digest_size=8).hexdigest()
        with self._lock:
            self.distinct[key].add(digest)

    def to_json(self) -> dict:
        with self._lock:
            return {
                "spans": list(self.spans),
                "counts": dict(self.counts),
                "distinct": {k: sorted(v) for k, v in self.distinct.items()},
            }


# -- counters taken where the work happens --------------------------------


def _after_lookup(tracer, args, record):
    # ProviderClient reads each record back right after storing it, on the same thread
    if getattr(tracer.local, "stored", None) == args[1]:
        tracer.local.stored = None
        tracer.count("providers.cache.readbacks")
    elif record is not None:
        tracer.count("providers.cache.hits")


def _after_store(tracer, args, _):
    cache, record = args
    tracer.local.stored = record.cache_key
    written = sum(p.stat().st_size for p in cache._paths(record.cache_key) if p.exists())
    tracer.count("providers.cache.bytes_written", written)


def _after_embed(tracer, args, _):
    tracer.see("providers.embed.texts", args[2])


def _after_text_metric(metric):
    def after(tracer, args, _):
        tracer.see("textmetrics.pairs", f"{metric}\0{args[0]}\0{args[1]}")

    return after


def _after_cosine(tracer, args, _):
    tracer.see("textmetrics.pairs", f"cosine\0{hash(args[0].values)}\0{hash(args[1].values)}")


def _after_pipeline(tracer, args, result):
    corpora, failures = result
    tracer.count("transform.items", sum(len(c.items) for c in corpora.values()))
    tracer.count("transform.failures", sum(len(f) for f in failures.values()))


AFTER = {
    "providers.ResponseCache.lookup": _after_lookup,
    "providers.ResponseCache.store": _after_store,
    "providers.ProviderClient.embed": _after_embed,
    "textmetrics.bleu": _after_text_metric("bleu"),
    "textmetrics.chrf": _after_text_metric("chrf"),
    "textmetrics.cosine": _after_cosine,
    "transform.run_pipeline": _after_pipeline,
}


# -- installation ----------------------------------------------------------


def _wrap_methods(cls, prefix: str, wrap) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(value, (classmethod, staticmethod)):
            setattr(cls, attr, type(value)(wrap(name, value.__func__)))
        elif inspect.isfunction(value):
            setattr(cls, attr, wrap(name, value))


def install(tracer: Tracer) -> dict:
    """Wrap the public functions and methods of every semsurf module in place."""
    modules = {name: importlib.import_module(f"semsurf.{name}") for name in MODULES}
    wrappers = {}  # original function -> its wrapper

    def wrap(name, fn):
        if name in UNWRAPPED:
            return fn
        wrappers[fn] = tracer.wrap(name, fn, AFTER.get(name))
        return wrappers[fn]

    for short, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                setattr(module, attr, wrap(f"{short}.{attr}", value))
            elif inspect.isclass(value) and not issubclass(value, (Enum, BaseException)):
                _wrap_methods(value, f"{short}.{attr}", wrap)
    client = modules["providers"].ProviderClient
    client._http_call = wrap(NETWORK_SPAN, client._http_call)

    # Rebind each name a caller looks up: imported names in other modules,
    # the stage table, and the stage bound into each subcommand's defaults.
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    cli = modules["cli"]
    cli.STAGES[:] = [(name, wrappers.get(fn, fn)) for name, fn in cli.STAGES]
    for command in cli.main.commands.values():
        defaults = command.callback.__defaults__
        if defaults:
            command.callback.__defaults__ = tuple(
                wrappers.get(d, d) if inspect.isfunction(d) else d for d in defaults
            )

    class SpanExecutor(ThreadPoolExecutor):
        """Thread pool whose tasks are children of the span that submitted them."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

    modules["transform"].ThreadPoolExecutor = SpanExecutor
    return modules


# -- aggregation -----------------------------------------------------------


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of intervals."""
    covered = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def aggregate(traces: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s and self_s, summed over trace files.

    Self time is a span's duration minus the part of it that child spans
    cover; children running in parallel threads are counted once.
    """
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for trace in traces:
        children = defaultdict(list)
        for _, parent, _, start, end in trace["spans"]:
            if parent:
                children[parent].append((start, end))
        for span_id, _, name, start, end in trace["spans"]:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - _covered(start, end, children.get(span_id, []))
    return out


# metric prefix -> span name; each gives <prefix>.calls and <prefix>.self_s
FUNCTIONS = {
    "corpus.load_dataset": "corpus.load_dataset",
    "corpus.split_folds": "corpus.split_folds",
    "transform.run_pipeline": "transform.run_pipeline",
    "providers.embed": "providers.ProviderClient.embed",
    "providers.cache.lookup": "providers.ResponseCache.lookup",
    "providers.cache.store": "providers.ResponseCache.store",
    "textmetrics.bleu": "textmetrics.bleu",
    "textmetrics.chrf": "textmetrics.chrf",
    "textmetrics.cosine": "textmetrics.cosine",
    "textmetrics.mean_similarity": "textmetrics.mean_similarity",
    "textmetrics.pairwise_matrix": "textmetrics.pairwise_matrix",
    "lexstats.tokenize": "lexstats.tokenize",
    "lexstats.BaselineTagger.tag": "lexstats.BaselineTagger.tag",
    "lexstats.group_compare": "lexstats.group_compare",
    "classifier.train": "classifier.train",
    "classifier.predict": "classifier.predict",
    "classifier.weighted_loss_and_grad": "classifier.weighted_loss_and_grad",
    "stattests.wilcoxon_signed_rank": "stattests.wilcoxon_signed_rank",
    "stattests.welch_t": "stattests.welch_t",
    "stattests.pearson": "stattests.pearson",
    "report.emit": "report.emit",
}

PROVIDER_OPS = {
    "chat": "chat_generate",
    "translate": "translate",
    "text_to_image": "text_to_image",
    "image_to_text": "image_to_text",
}

MOCKS = tuple(f"providers.mock_{op}" for op in ("chat", "translate", "embed", "text_to_image", "image_to_text"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traces: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), of the CLI processes traced."""
    agg = aggregate(traces)
    counts: Counter[str] = Counter()
    distinct: defaultdict[str, set[str]] = defaultdict(set)
    for trace in traces:
        counts.update(trace["counts"])
        for key, items in trace["distinct"].items():
            distinct[key].update(items)

    def calls(span):
        return agg[span]["calls"] if span in agg else 0

    def self_s(span):
        return agg[span]["self_s"] if span in agg else 0.0

    m: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        span = f"cli.stage_{stage}"
        m[f"cli.stage.{stage}.s"] = (agg[span]["total_s"] if span in agg else 0.0, "s")
    for module in MODULES:
        m[f"{module}.self_s"] = (sum((r["self_s"] for n, r in agg.items() if n.startswith(module + ".")), 0.0), "s")
    for prefix, span in FUNCTIONS.items():
        m[f"{prefix}.calls"] = (calls(span), "count")
        m[f"{prefix}.self_s"] = (self_s(span), "s")
    for op, method in PROVIDER_OPS.items():
        m[f"providers.{op}.calls"] = (calls(f"providers.ProviderClient.{method}"), "count")
    m["providers.mock.calls"] = (sum(calls(s) for s in MOCKS), "count")
    m["providers.mock.self_s"] = (sum(self_s(s) for s in MOCKS), "s")
    m["providers.network_calls"] = (calls(NETWORK_SPAN), "count")
    m["providers.embed.useful_ratio"] = (
        _ratio(len(distinct["providers.embed.texts"]), calls("providers.ProviderClient.embed")), "ratio")
    readbacks = counts["providers.cache.readbacks"]
    m["providers.cache.readbacks"] = (readbacks, "count")
    m["providers.cache.hit_ratio"] = (
        _ratio(counts["providers.cache.hits"], calls("providers.ResponseCache.lookup") - readbacks), "ratio")
    m["providers.cache.bytes_written"] = (counts["providers.cache.bytes_written"], "bytes")
    m["transform.items"] = (counts["transform.items"], "count")
    m["transform.failures"] = (counts["transform.failures"], "count")
    metric_calls = sum(calls(f"textmetrics.{f}") for f in ("bleu", "chrf", "cosine"))
    m["textmetrics.pair_useful_ratio"] = (_ratio(len(distinct["textmetrics.pairs"]), metric_calls), "ratio")
    # every epoch evaluates the loss twice: once on the training rows, once on the validation rows
    m["classifier.epochs_per_train"] = (
        _ratio(calls("classifier.weighted_loss_and_grad") / 2, calls("classifier.train")), "count")
    m["trace.spans"] = (sum(len(t["spans"]) for t in traces), "count")
    return m


# -- traced CLI process ----------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="Where to write the trace JSON.")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the semsurf CLI arguments.")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    modules = install(tracer)
    run_cli = tracer.wrap("cli.main", modules["cli"].main.main)
    try:
        run_cli(args=cli_args, prog_name="semsurf", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    trace = tracer.to_json()
    trace["exit_code"] = code
    args.out.write_text(json.dumps(trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
