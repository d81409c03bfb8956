"""Loading, validation, statistics, and splitting of labeled transcript datasets."""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from .lexstats import tokenize

GROUP_AD = "AD"
GROUP_CONTROL = "C"
GROUPS = (GROUP_AD, GROUP_CONTROL)

_GROUP_ALIASES = {
    "ad": GROUP_AD,
    "c": GROUP_CONTROL,
    "control": GROUP_CONTROL,
}

SPLIT_TRAIN = "train"
SPLIT_TEST = "test"

# loose BCP-47 shape: primary subtag plus optional alnum subtags
_LANG_OK = re.compile(r"^[A-Za-z]{2,8}(-[A-Za-z0-9]{1,8})*$")


class DataError(ValueError):
    """Raised for malformed or inconsistent dataset inputs."""


@dataclass(frozen=True)
class Transcript:
    id: str
    text: str
    group: str
    language: str
    split: str | None = None

    def __post_init__(self):
        if not self.id:
            raise DataError("transcript id must be non-empty")
        if not self.text.strip():
            raise DataError(f"transcript {self.id!r}: text is empty")
        if self.group not in GROUPS:
            raise DataError(f"transcript {self.id!r}: unknown group {self.group!r}")
        if not _LANG_OK.match(self.language):
            raise DataError(f"transcript {self.id!r}: bad language tag {self.language!r}")
        if self.split not in (None, SPLIT_TRAIN, SPLIT_TEST):
            raise DataError(f"transcript {self.id!r}: bad split tag {self.split!r}")


@dataclass(frozen=True)
class Dataset:
    name: str
    transcripts: tuple[Transcript, ...]
    source_language: str

    def __post_init__(self):
        seen = set()
        for t in self.transcripts:
            if t.id in seen:
                raise DataError(f"duplicate transcript id {t.id!r}")
            seen.add(t.id)

    def __len__(self) -> int:
        return len(self.transcripts)

    def ids(self) -> list[str]:
        return [t.id for t in self.transcripts]

    def by_group(self, group: str) -> list[Transcript]:
        return [t for t in self.transcripts if t.group == group]


@dataclass(frozen=True)
class GroupStats:
    count: int
    mean_tokens: float
    std_tokens: float
    degenerate: bool = False  # single-member group; std reported as 0


@dataclass(frozen=True)
class DatasetStats:
    per_group: dict[str, GroupStats]

    @property
    def total(self) -> int:
        return sum(g.count for g in self.per_group.values())

    def to_dict(self) -> dict:
        return {g: asdict(s) for g, s in self.per_group.items()}


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    assignments: dict[str, int]  # id -> fold index in [0, k)

    def fold_ids(self, fold: int) -> list[str]:
        return [i for i, f in self.assignments.items() if f == fold]

    def fold_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for f in self.assignments.values():
            sizes[f] += 1
        return sizes


def _canonical_group(raw: str, where: str) -> str:
    g = _GROUP_ALIASES.get(str(raw).strip().lower())
    if g is None:
        raise DataError(f"{where}: unknown group label {raw!r} (expected AD or C)")
    return g


def _row_to_transcript(row: dict, where: str) -> Transcript:
    for key in ("id", "text", "group", "language"):
        if key not in row or row[key] in (None, ""):
            raise DataError(f"{where}: missing required field {key!r}")
    split = row.get("split") or None
    if split is not None:
        split = str(split).strip().lower()
    try:
        return Transcript(
            id=str(row["id"]),
            text=str(row["text"]),
            group=_canonical_group(row["group"], where),
            language=str(row["language"]),
            split=split,
        )
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def load_dataset(path: str | Path, fmt: str | None = None, name: str | None = None) -> Dataset:
    """Load a dataset from JSONL (canonical) or CSV; row order preserved."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise DataError(f"unknown dataset format {fmt!r}")

    rows: list[Transcript] = []
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from None
                rows.append(_row_to_transcript(obj, f"{path}:{lineno}"))
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, obj in enumerate(csv.DictReader(fh), 2):
                rows.append(_row_to_transcript(obj, f"{path}:{lineno}"))

    if not rows:
        raise DataError(f"dataset file is empty: {path}")
    languages = {t.language for t in rows}
    if len(languages) > 1:
        raise DataError(f"mixed source languages in one dataset: {sorted(languages)}")
    return Dataset(name=name or path.stem, transcripts=tuple(rows), source_language=rows[0].language)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write the canonical JSONL form (stable field order)."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in dataset.transcripts:
            obj = {"id": t.id, "text": t.text, "group": t.group, "language": t.language}
            if t.split is not None:
                obj["split"] = t.split
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def dataset_stats(dataset: Dataset) -> DatasetStats:
    """Per-group transcript count and token-length mean/std (sample std, n-1)."""
    if not dataset.transcripts:
        raise DataError("cannot compute stats of an empty dataset")
    per_group = {}
    for group in GROUPS:
        lengths = [len(tokenize(t.text)) for t in dataset.by_group(group)]
        if not lengths:
            per_group[group] = GroupStats(0, 0.0, 0.0, degenerate=True)
            continue
        n = len(lengths)
        mean = sum(lengths) / n
        if n == 1:
            per_group[group] = GroupStats(1, mean, 0.0, degenerate=True)
        else:
            var = sum((x - mean) ** 2 for x in lengths) / (n - 1)
            per_group[group] = GroupStats(n, mean, math.sqrt(var))
    return DatasetStats(per_group)


def _seeded_shuffle(items: list[str], seed: int) -> list[str]:
    rng = random.Random(seed)
    out = list(items)
    rng.shuffle(out)
    return out


def split_folds(dataset: Dataset, k: int, seed: int) -> FoldAssignment:
    """Stratified k-fold assignment, deterministic per seed.

    Per-group items are shuffled and dealt so each fold gets floor or ceil of
    n_group/k members; leftover items go to the folds with the smallest running
    totals, keeping overall fold sizes within 1 of each other.
    """
    if k < 2:
        raise DataError(f"k must be >= 2, got {k}")
    group_ids = {g: [t.id for t in dataset.by_group(g)] for g in GROUPS}
    for g, ids in group_ids.items():
        if 0 < len(ids) < k:
            raise DataError(f"group {g} has {len(ids)} members, fewer than k={k}")

    assignments: dict[str, int] = {}
    totals = [0] * k
    # larger groups first so small-group extras can balance the totals
    for gi, g in enumerate(sorted(GROUPS, key=lambda g: -len(group_ids[g]))):
        ids = _seeded_shuffle(group_ids[g], seed * 1000003 + gi)
        base, extra = divmod(len(ids), k)
        counts = [base] * k
        for fold in sorted(range(k), key=lambda f: (totals[f], f))[:extra]:
            counts[fold] += 1
        pos = 0
        for fold in range(k):
            for _ in range(counts[fold]):
                assignments[ids[pos]] = fold
                pos += 1
            totals[fold] += counts[fold]
    return FoldAssignment(k=k, assignments=assignments)


def fixed_split(dataset: Dataset) -> tuple[Dataset, Dataset]:
    """Partition by the ready-defined train/test tags, order preserved."""
    untagged = [t.id for t in dataset.transcripts if t.split is None]
    if untagged:
        raise DataError(f"transcripts missing split tag: {untagged}")
    train = tuple(t for t in dataset.transcripts if t.split == SPLIT_TRAIN)
    test = tuple(t for t in dataset.transcripts if t.split == SPLIT_TEST)
    if not test:
        raise DataError("fixed split has an empty test set")
    if not train:
        raise DataError("fixed split has an empty train set")
    return (
        Dataset(f"{dataset.name}-train", train, dataset.source_language),
        Dataset(f"{dataset.name}-test", test, dataset.source_language),
    )
