#!/usr/bin/env python3
"""Benchmark of the semsurf pipeline CLI on seed-generated corpora.

    python3 perfbench/run.py --workload warm-full --seed 11 --seconds 40 --trace 0

Each run generates its corpus from --seed with scripts/make_fixtures.py, sets
the workload up (timed as setup_s), then repeats the workload's timed stages
as child `python3 -m semsurf.cli` processes until --seconds have passed. Every
repetition's outputs are checked. With --trace 1 one more repetition runs
under perfbench/tracer.py and the per-layer metrics are reported instead of
the end-to-end ones. The last line of stdout is the result as JSON; the run
exits 1 when an output check fails and 2 when the repository is missing.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAKE_FIXTURES = ROOT / "scripts" / "make_fixtures.py"
GOLDEN = ROOT / "tests" / "golden"
DOGSTORY40 = ROOT / "fixtures" / "dogstory40.jsonl"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (sibling module of this script)

DEFAULT_SEED = 11  # the seed scripts/make_fixtures.py gives dogstory40
SETUP_REPEATS = 3
MAX_WORKERS = 2  # one per core of the two-core machine the bounds were set on
CHILD_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # stop starting repetitions after this, to end within 180 s

KINDS = (
    "Original", "Translated", "ShortSummary", "MediumSummary",
    "LongSummary", "Storyboard", "ImageDescription", "BackTranslated",
)
SIMILARITY_KINDS = ("ShortSummary", "MediumSummary", "LongSummary", "Storyboard", "ImageDescription")

# The shipped fixtures/run_mock_pt.conf (which the golden reports come from)
# plus max_workers. Every provider is a mock, so with --offline no stage can
# reach the network.
CONFIG = """\
dataset = {dataset}
dataset_name = {dataset_name}
format = jsonl
k = {folds}
runs = {seeds}
master_seed = 42
mode = strict
max_workers = {max_workers}
chat.endpoint = mock:chat
chat.model = mock-chat
translate.endpoint = mock:translate
translate.model = mock-nllb
embed.endpoint = mock:embed
embed.model = mock-embed
t2i.endpoint = mock:t2i
t2i.model = mock-diffusion
i2t.endpoint = mock:i2t
i2t.model = mock-captioner
train.learning_rate = 5.0
"""
FOLDS, SEEDS = 5, 10  # k and runs of run_mock_pt.conf


@dataclass(frozen=True)
class Workload:
    name: str
    n_ad: int
    n_c: int
    dataset_name: str
    warm_stages: tuple[str, ...]  # run during setup, from an empty cache
    timed_stages: tuple[str, ...]  # one child process each, per repetition
    cold: bool  # each repetition starts from an empty run directory and cache
    digested: tuple[str, ...]  # artifact globs that must not change between repetitions


WORKLOADS = {
    w.name: w
    for w in (
        # The researcher's re-analysis loop; dominated by the similarity stage.
        Workload(
            "warm-full", 10, 30, "dogstory40", ("ingest", "transform", "classify"), ("run",), False,
            ("reports/*", "similarity.json", "classification.json", "lexical.json", "stats.json",
             "run_manifest.json"),
        ),
        # First pass over a new corpus: every provider call misses the cache.
        Workload(
            "cold-linear", 80, 320, "dogstory400", (), ("ingest", "transform", "lexical", "classify"), True,
            ("dataset.jsonl", "dataset_stats.json", "transformed/*", "lexical.json", "classification.json"),
        ),
    )
}


# -- inputs ------------------------------------------------------------------


def _make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures", MAKE_FIXTURES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_corpus(w: Workload, seed: int, path: Path) -> bytes:
    """The Portuguese corpus of w's shape for seed, written as make_fixtures writes it."""
    mf = _make_fixtures()
    rows = mf.make_corpus("pt", "pt", w.n_ad, w.n_c, mf.PT_OPENERS, mf.PT_MIDDLES, mf.PT_FILLERS, seed=seed)
    with contextlib.redirect_stdout(io.StringIO()):
        mf.write_jsonl(path, rows)
    return path.read_bytes()


def check_corpus(w: Workload, seed: int, data: bytes, tmp_dir: Path) -> list[str]:
    rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    problems = []
    if [r["group"] for r in rows] != ["AD"] * w.n_ad + ["C"] * w.n_c:
        problems.append(f"corpus shape is not {w.n_ad} AD / {w.n_c} C")
    if w.name == "warm-full" and seed == DEFAULT_SEED and data != DOGSTORY40.read_bytes():
        problems.append(f"seed {seed} does not reproduce {DOGSTORY40.name}")
    if seed != DEFAULT_SEED and data == write_corpus(w, DEFAULT_SEED, tmp_dir / "default_seed.jsonl"):
        problems.append(f"seed {seed} gives the same corpus as seed {DEFAULT_SEED}")
    return problems


# -- child processes ---------------------------------------------------------


@dataclass
class Child:
    code: int
    start: float  # time.perf_counter() at spawn; CLOCK_MONOTONIC, shared with the child
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: list[str], log: Path) -> Child:
    """Run argv to completion; time, CPU and peak memory come from os.wait4 on its pid."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return Child(proc.returncode, start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cli_argv(stage: str, config: Path, run_dir: Path, trace_out: Path | None = None) -> list[str]:
    args = [stage, "--config", str(config), "--run-dir", str(run_dir), "--offline"]
    if trace_out is None:
        return [sys.executable, "-m", "semsurf.cli", *args]
    return [sys.executable, str(HERE / "tracer.py"), "--out", str(trace_out), "--", *args]


@dataclass
class Rep:
    children: list[Child] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


def run_stages(stages, config: Path, run_dir: Path, log: Path, trace_dir: Path | None = None) -> Rep:
    rep = Rep()
    for stage in stages:
        trace_out = trace_dir / f"{len(rep.children)}-{stage}.json" if trace_dir else None
        child = run_child(cli_argv(stage, config, run_dir, trace_out), log)
        rep.children.append(child)
        if child.code != 0:
            rep.problems.append(f"`semsurf {stage}` exited {child.code} (log: {log})")
            break
    return rep


# -- output checks -----------------------------------------------------------


def digest_artifacts(run_dir: Path, globs) -> tuple[dict[str, str], list[str]]:
    digests, problems = {}, []
    for pattern in globs:
        paths = sorted(p for p in run_dir.glob(pattern) if p.is_file())
        if not paths:
            problems.append(f"no artifact matches {pattern}")
        for p in paths:
            digests[str(p.relative_to(run_dir))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests, problems


def cache_snapshot(run_dir: Path) -> dict[str, tuple[int, int, int]]:
    """Inode, mtime and size of every cache file; any store changes one."""
    snap = {}
    for p in (run_dir / "cache").rglob("*"):
        st = p.stat()
        snap[str(p)] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return snap


def check_outputs(w: Workload, seed: int, run_dir: Path) -> list[str]:
    """What every repetition must produce, whatever the seed."""
    problems = []
    cls = json.loads((run_dir / "classification.json").read_text())
    if cls["protocol"] != f"cv{FOLDS}" or len(cls["seeds"]) != SEEDS:
        problems.append(f"classification protocol {cls['protocol']} with {len(cls['seeds'])} seeds")
    if sorted(cls["runs"]) != sorted(KINDS) or any(len(r) != SEEDS for r in cls["runs"].values()):
        problems.append("classification.json lacks a kind or a seed")
    if "transform" in w.timed_stages:
        n = w.n_ad + w.n_c
        ids = [f"pt{i:03d}" for i in range(1, n + 1)]
        for kind in KINDS:
            lines = (run_dir / "transformed" / f"{kind}.jsonl").read_text().splitlines()
            if [json.loads(line)["id"] for line in lines] != ids:
                problems.append(f"transformed/{kind}.jsonl does not keep the {n} source ids in order")
    if "lexical" in w.timed_stages or "run" in w.timed_stages:
        if sorted(json.loads((run_dir / "lexical.json").read_text())) != sorted(KINDS):
            problems.append("lexical.json lacks a kind")
    if "run" in w.timed_stages:
        sim = json.loads((run_dir / "similarity.json").read_text())
        scores = sim["scores"]
        if sim["reference"] != "Translated" or sorted(scores) != sorted(SIMILARITY_KINDS):
            problems.append("similarity.json has the wrong reference or kinds")
        if any(not 0.0 <= s[m] <= 1.0 + 1e-12 for s in scores.values() for m in ("bleu", "chrf", "cosine")):
            problems.append("similarity score out of [0, 1]")
        if json.loads((run_dir / "run_manifest.json").read_text())["network_calls"] != 0:
            problems.append("run_manifest.json records network calls")
        if seed == DEFAULT_SEED:
            produced = sorted((run_dir / "reports").glob("table_*.md"))
            if [p.name for p in produced] != sorted(p.name for p in GOLDEN.glob("*.md")):
                problems.append("report tables differ in name from tests/golden")
            problems += [
                f"reports/{p.name} differs from tests/golden" for p in produced
                if (GOLDEN / p.name).exists() and p.read_bytes() != (GOLDEN / p.name).read_bytes()
            ]
    return problems


def check_rep(w: Workload, seed: int, rep: Rep, run_dir: Path, reference: dict | None, cache_before) -> None:
    """Add to rep.problems everything wrong with the repetition just run."""
    if rep.problems:
        return
    rep.digests, missing = digest_artifacts(run_dir, w.digested)
    rep.problems += missing
    if missing:
        return
    rep.problems += check_outputs(w, seed, run_dir)
    if reference is not None and rep.digests != reference:
        changed = sorted(k for k in rep.digests.keys() | reference.keys() if rep.digests.get(k) != reference.get(k))
        rep.problems.append(f"artifacts differ from the first repetition: {changed}")
    if cache_before is not None and cache_snapshot(run_dir) != cache_before:
        rep.problems.append("a warm repetition stored to the provider cache")


# -- one benchmark run -------------------------------------------------------


def context(w: Workload) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "corpus": {"ad": w.n_ad, "c": w.n_c, "items": w.n_ad + w.n_c, "kinds": len(KINDS)},
        "max_workers": MAX_WORKERS,
    }


def setup(w: Workload, seed: int, run_dir: Path, log: Path) -> tuple[Path, list[str]]:
    """Corpus, config, an import of the CLI, and the warm stages; returns the config."""
    run_dir.mkdir(parents=True)
    corpus = run_dir / "corpus.jsonl"
    problems = check_corpus(w, seed, write_corpus(w, seed, corpus), run_dir)
    config = run_dir / "bench.conf"
    config.write_text(CONFIG.format(
        dataset=corpus, dataset_name=w.dataset_name, folds=FOLDS, seeds=SEEDS, max_workers=MAX_WORKERS))
    # first import compiles the bytecode, so no timed repetition pays for it
    warmup = run_child([sys.executable, "-m", "semsurf.cli", "--help"], log)
    if warmup.code != 0:
        problems.append(f"`semsurf --help` exited {warmup.code} (log: {log})")
    problems += run_stages(w.warm_stages, config, run_dir, log).problems
    return config, problems


def bench(w: Workload, seed: int, seconds: float, trace: bool, work: Path, log: Path) -> dict:
    """Set up, repeat the timed stages, check each repetition; the run's record."""
    began = time.perf_counter()
    problems: list[str] = []

    setup_s = []
    for i in range(SETUP_REPEATS):
        run_dir = work / f"setup{i}"
        start = time.perf_counter()
        config, setup_problems = setup(w, seed, run_dir, log)
        setup_s.append(time.perf_counter() - start)
        problems += setup_problems
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(run_dir)

    def repetition(name: str, trace_dir: Path | None = None) -> Rep:
        rep_dir = work / name if w.cold else run_dir
        before = None if w.cold else cache_snapshot(rep_dir)
        rep = run_stages(w.timed_stages, config, rep_dir, log, trace_dir)
        check_rep(w, seed, rep, rep_dir, reps[0].digests if reps else None, before)
        if w.cold:
            shutil.rmtree(rep_dir)
        return rep

    reps: list[Rep] = []
    start = time.perf_counter()
    while not problems and (not reps or time.perf_counter() - start < seconds):
        if time.perf_counter() - began > RUN_BUDGET_S:
            break
        reps.append(repetition(f"rep{len(reps)}"))
        if reps[-1].problems:
            break

    traced = None
    if trace and not problems and not reps[0].problems:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced = repetition("traced", trace_dir)
        traced.problems = [f"traced: {p}" for p in traced.problems]
        traces = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]

    attempted = reps + ([traced] if traced else [])
    for i, rep in enumerate(attempted):
        problems += [f"repetition {i}: {p}" for p in rep.problems]
    ok = [r for r in reps if not r.problems]
    result = {
        "context": context(w),
        "workload": w.name,
        "seed": seed,
        "problems": problems,
        "attempted": len(attempted),
        "failed": sum(1 for r in attempted if r.problems),
        "samples": {
            "setup_s": setup_s,
            "run_s": [r.wall_s for r in ok],
            "cpu_s": [r.cpu_s for r in ok],
            "peak_rss_mb": [r.rss_mb for r in ok],
        },
    }
    if not ok:
        result["problems"].append("no repetition succeeded")
        return result
    run_s = statistics.median(result["samples"]["run_s"])
    result["metrics"] = {
        "run_s": (run_s, "s"),
        "cpu_s": (statistics.median(result["samples"]["cpu_s"]), "s"),
        "peak_rss_mb": (statistics.median(result["samples"]["peak_rss_mb"]), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    if traced is not None and not traced.problems:
        layers = tracer.per_layer_metrics(traces)
        main_spans = [next(s for s in t["spans"] if s[2] == "cli.main") for t in traces]
        layers["cli.startup_s"] = (sum(s[3] - c.start for s, c in zip(main_spans, traced.children)), "s")
        layers["trace.run_s"] = (traced.wall_s, "s")
        layers["trace.overhead_s"] = (traced.wall_s - run_s, "s")
        result["per_layer"] = layers
        result["trace"] = {"aggregate": tracer.aggregate(traces), "processes": traces}
    return result


def declared_metrics(mode: str) -> dict[str, str]:
    """Metric name -> unit that BENCHMARK.json declares for mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="semsurf pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "semsurf" / "cli.py", MAKE_FIXTURES, DOGSTORY40, GOLDEN) if not p.exists()]
    if missing:
        print(f"perfbench: run from a semsurf checkout; missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / "runs" / f"{stem}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    log = results / f"{stem}.log"  # output of every child process of the run
    log.unlink(missing_ok=True)
    work.mkdir(parents=True)
    try:
        result = bench(w, args.seed, args.seconds, bool(args.trace), work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mode = "per_layer" if args.trace else "end_to_end"
    metrics = result.get("per_layer" if args.trace else "metrics", {})
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    declared = declared_metrics(mode)
    if metrics and emitted != declared:
        diff = sorted(set(emitted.items()) ^ set(declared.items()))
        result["problems"].append(f"metrics differ from BENCHMARK.json {mode}: {diff}")

    if "trace" in result:
        (results / f"trace-{w.name}-seed{args.seed}.json").write_text(json.dumps(result.pop("trace")))
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"# {w.name} seed={args.seed} {json.dumps(result['context'], sort_keys=True)}")
    for p in result["problems"]:
        print(f"# FAILED: {p}")
    samples = result["samples"]
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"# failed_frac {failed_frac:g} ({result['failed']} of {result['attempted']} repetitions)")
    for name, (value, unit) in metrics.items():
        n = len(samples.get(name, [])) or 1
        print(f"# {name:<40} {value:>14.6g} {unit:<6} n={n}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"] if correct else max(1, result["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
