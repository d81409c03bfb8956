#!/usr/bin/env python3
"""Self-test of the benchmark.

Checks that BENCHMARK.json is well formed and names exactly the workloads of
perfbench/run.py, that every metric it names is emitted with its unit on
every workload in both trace modes, and that the benchmark exits non-zero
without printing a result when the repository around it is missing.

    python3 perfbench/selftest.py                 # every workload, a few minutes
    python3 perfbench/selftest.py classify-rerun  # only the workloads named
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (sibling module of this script)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def spec_problems(spec: dict) -> list[str]:
    """Where BENCHMARK.json breaks the benchmark's declared format."""
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        return [f"BENCHMARK.json has keys {sorted(spec)}"]
    for p in spec["paths"]:
        if not PATH.fullmatch(p) or p.startswith("/") or ".." in p.split("/") or not (ROOT / p).is_dir():
            problems.append(f"bad path {p!r}")
    if not 1 <= len(spec["paths"]) <= 16:
        problems.append("paths must list 1 to 16 directories")
    command = spec["command"]
    if not 1 <= len(command) <= 32 or any(not isinstance(a, str) or len(a) > 200 for a in command):
        problems.append("command must be at most 32 strings of at most 200 characters")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("there must be 2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        names.append(w.get("name", ""))
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            problems.append(f"workload {w} needs exactly a name and a one-line why")
    if sorted(names) != sorted(run.WORKLOADS):
        problems.append(f"workloads {sorted(names)} are not those of run.py {sorted(run.WORKLOADS)}")
    for key, limit, fields in (("end_to_end", 16, {"name", "unit", "better", "bound"}),
                               ("per_layer", 128, {"name", "unit", "better"})):
        if not 1 <= len(spec[key]) <= limit:
            problems.append(f"{key} must hold 1 to {limit} metrics")
        for m in spec[key]:
            names.append(m.get("name", ""))
            if set(m) != fields or not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
                problems.append(f"{key} metric {m} is malformed")
            if key == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']} must be in (0, 0.25]")
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"name {n!r} is used twice" for n in sorted(set(names)) if names.count(n) > 1]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should have the largest bound")
    return problems


def last_json(stdout: str):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def result_problems(stdout: str, declared: dict[str, str]) -> list[str]:
    """Where the last stdout line breaks the result format or the declared metrics."""
    result = last_json(stdout)
    if not isinstance(result, dict):
        return ["the last line of stdout is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result has keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True:
        problems.append("result is not correct")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    emitted = result["metrics"]
    problems += [f"{n} is not emitted" for n in declared if n not in emitted]
    problems += [f"{n} is emitted but not declared" for n in emitted if n not in declared]
    for name, unit in declared.items():
        m = emitted.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"{name} is emitted as {m}, declared in {unit}")
        elif isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            problems.append(f"{name} has a value that is not a number: {m['value']!r}")
    return problems


def bare_directory_problems(spec: dict, bare: Path) -> list[str]:
    """The benchmark, alone in a directory, must fail without printing a result."""
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        proc = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["the benchmark exits 0 without the repository"]
    if last_json(proc.stdout) is not None:
        return ["the benchmark prints a result without the repository"]
    return []


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = spec_problems(spec)
    if len((ROOT / "BENCHMARK.json").read_bytes()) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    problems += bare_directory_problems(spec, run.WORK / f"bare-{os.getpid()}")
    declared = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    for workload in argv or sorted(run.WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            found = result_problems(proc.stdout, declared[key])
            if proc.returncode != 0:
                found.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
    for p in problems:
        print(f"FAILED: {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
