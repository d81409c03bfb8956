import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semsurf.corpus import (
    GROUP_AD,
    GROUP_CONTROL,
    DataError,
    Dataset,
    Transcript,
    dataset_stats,
    load_dataset,
    partitions,
    protocol,
    save_dataset,
    split_folds,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_dataset(n_ad, n_c, language="en", split_frac=None):
    rows = []
    for i in range(n_ad + n_c):
        group = GROUP_AD if i < n_ad else GROUP_CONTROL
        split = None
        if split_frac is not None:
            idx = i if group == GROUP_AD else i - n_ad
            limit = round((n_ad if group == GROUP_AD else n_c) * split_frac)
            split = "train" if idx < limit else "test"
        rows.append(
            Transcript(
                id=f"x{i:03d}",
                text=f"sample text number {i} with a few words",
                group=group,
                language=language,
                split=split,
            )
        )
    return Dataset("synthetic", tuple(rows), language)


class TestValidation:
    def test_empty_text_rejected(self):
        with pytest.raises(DataError, match="empty"):
            Transcript("a", "   ", GROUP_AD, "en")

    def test_unknown_group_rejected(self):
        with pytest.raises(DataError, match="group"):
            Transcript("a", "hello", "MCI", "en")

    def test_bad_language_rejected(self):
        with pytest.raises(DataError, match="language"):
            Transcript("a", "hello", GROUP_AD, "e n")

    def test_bad_split_rejected(self):
        with pytest.raises(DataError, match="split"):
            Transcript("a", "hello", GROUP_AD, "en", split="dev")

    def test_duplicate_ids_rejected(self):
        t = Transcript("a", "hello", GROUP_AD, "en")
        with pytest.raises(DataError, match="duplicate"):
            Dataset("d", (t, t), "en")

    def test_partial_split_tags_rejected(self):
        """Some tagged transcripts would silently switch the fixed split to CV."""
        rows = make_dataset(3, 3, split_frac=2 / 3).transcripts
        rows = rows[:1] + (replace(rows[1], split=None),) + rows[2:]
        with pytest.raises(DataError, match=r"these do not: \['x001'\]"):
            Dataset("d", rows, "en")


class TestLoading:
    def test_jsonl_roundtrip(self, tmp_path):
        ds = make_dataset(3, 5, split_frac=0.5)
        out = tmp_path / "ds.jsonl"
        save_dataset(ds, out)
        back = load_dataset(out, name="synthetic")
        assert back == ds
        # byte-stable rewrite
        out2 = tmp_path / "ds2.jsonl"
        save_dataset(back, out2)
        assert out.read_bytes() == out2.read_bytes()

    def test_csv_load(self, tmp_path):
        p = tmp_path / "ds.csv"
        p.write_text(
            "id,text,group,language\n"
            "a1,the cat sat,AD,en\n"
            "c1,a dog ran home,Control,en\n"
        )
        ds = load_dataset(p)
        assert len(ds) == 2
        assert ds.transcripts[1].group == GROUP_CONTROL  # alias canonicalized

    def test_group_alias_case_insensitive(self, tmp_path):
        p = tmp_path / "ds.jsonl"
        p.write_text(
            json.dumps({"id": "a", "text": "hi there", "group": "ad", "language": "en"}) + "\n"
        )
        assert load_dataset(p).transcripts[0].group == GROUP_AD

    def test_error_names_row(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(
            json.dumps({"id": "a", "text": "ok text", "group": "AD", "language": "en"})
            + "\n"
            + json.dumps({"id": "b", "text": "", "group": "AD", "language": "en"})
            + "\n"
        )
        with pytest.raises(DataError, match=r":2"):
            load_dataset(p)

    def test_invalid_json_names_row(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a"\n')
        with pytest.raises(DataError, match=r":1.*invalid JSON"):
            load_dataset(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope.jsonl")

    def test_mixed_languages_rejected(self, tmp_path):
        p = tmp_path / "mix.jsonl"
        rows = [
            {"id": "a", "text": "hello world", "group": "AD", "language": "en"},
            {"id": "b", "text": "ola mundo", "group": "C", "language": "pt"},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(DataError, match="mixed"):
            load_dataset(p)

    def test_fixture_group_counts(self):
        counts = {
            "dogstory139.jsonl": (23, 116),
            "balanced156.jsonl": (78, 78),
            "dogstory40.jsonl": (10, 30),
            "adress24.jsonl": (12, 12),
        }
        for fname, (n_ad, n_c) in counts.items():
            ds = load_dataset(FIXTURES / fname)
            assert len(ds.by_group(GROUP_AD)) == n_ad, fname
            assert len(ds.by_group(GROUP_CONTROL)) == n_c, fname


class TestStats:
    def test_mean_and_sample_std(self):
        ds = Dataset(
            "d",
            (
                Transcript("a", "one two three", GROUP_AD, "en"),
                Transcript("b", "one two three four five", GROUP_AD, "en"),
                Transcript("c", "just four tokens here", GROUP_CONTROL, "en"),
            ),
            "en",
        )
        stats = dataset_stats(ds)
        ad = stats[GROUP_AD]
        assert ad["count"] == 2
        assert ad["mean_tokens"] == 4.0
        assert ad["std_tokens"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert not ad["degenerate"]
        c = stats[GROUP_CONTROL]
        assert c["count"] == 1 and c["std_tokens"] == 0.0 and c["degenerate"]


class TestFolds:
    def test_reference_fold_sizes(self):
        # 23 + 116 items over k=5: overall sizes differ by at most 1,
        # minority spread 4-5 per fold
        ds = make_dataset(23, 116)
        fold_of = split_folds(ds.transcripts, k=5, seed=0)
        assert sorted(Counter(fold_of.values()).values()) == [27, 28, 28, 28, 28]
        by_id = {t.id: t.group for t in ds.transcripts}
        ad = Counter(f for i, f in fold_of.items() if by_id[i] == GROUP_AD)
        assert sorted(ad) == list(range(5))
        assert set(ad.values()) <= {4, 5}

    def test_every_item_assigned_once(self):
        ds = make_dataset(10, 30)
        fold_of = split_folds(ds.transcripts, k=5, seed=3)
        assert sorted(fold_of) == sorted(ds.ids())
        assert all(0 <= f < 5 for f in fold_of.values())

    def test_deterministic_per_seed(self):
        ds = make_dataset(10, 30)
        assert split_folds(ds.transcripts, 5, seed=7) == split_folds(ds.transcripts, 5, seed=7)
        assert split_folds(ds.transcripts, 5, seed=7) != split_folds(ds.transcripts, 5, seed=8)

    def test_group_smaller_than_k_rejected(self):
        ds = make_dataset(3, 30)
        with pytest.raises(DataError, match="fewer than k"):
            split_folds(ds.transcripts, 5, seed=0)

    def test_k_too_small(self):
        with pytest.raises(DataError):
            split_folds(make_dataset(5, 5).transcripts, 1, seed=0)

    def test_balanced_group_exact_stratification(self):
        ds = make_dataset(20, 20)
        fold_of = split_folds(ds.transcripts, 4, seed=1)
        by_id = {t.id: t.group for t in ds.transcripts}
        assert Counter(fold_of.values()) == {fold: 10 for fold in range(4)}
        assert Counter(f for i, f in fold_of.items() if by_id[i] == GROUP_AD) == {fold: 5 for fold in range(4)}


class TestPartitions:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_cv_partitions_are_stratified_folds_of_the_kept_ids(self, data):
        k = data.draw(st.integers(2, 6), label="k")
        kept_counts = {g: data.draw(st.integers(k, 3 * k + 2), label=f"kept {g}") for g in (GROUP_AD, GROUP_CONTROL)}
        dropped_counts = {g: data.draw(st.integers(0, 4), label=f"dropped {g}") for g in (GROUP_AD, GROUP_CONTROL)}
        ds = make_dataset(*(kept_counts[g] + dropped_counts[g] for g in (GROUP_AD, GROUP_CONTROL)))
        # groups interleaved in dataset order; of each group a random subset of ids is kept
        ds = replace(ds, transcripts=tuple(data.draw(st.permutations(ds.transcripts), label="order")))
        ids = set()
        for g, n in kept_counts.items():
            ids |= set(data.draw(st.permutations([t.id for t in ds.by_group(g)]), label=f"{g} ids")[:n])
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")

        parts = partitions(ds, k, seed, ids)
        kept = [i for i in ds.ids() if i in ids]
        group = {t.id: t.group for t in ds.transcripts}
        assert len(parts) == k
        assert sorted(i for _, test in parts for i in test) == sorted(kept)  # each kept id tested exactly once
        for train, test in parts:
            assert test == [i for i in kept if i in set(test)]  # dataset order
            assert train == [i for i in kept if i not in set(test)]
        sizes = [len(test) for _, test in parts]
        assert max(sizes) - min(sizes) <= 1
        for g in (GROUP_AD, GROUP_CONTROL):
            per_fold = [sum(1 for i in test if group[i] == g) for _, test in parts]
            assert max(per_fold) - min(per_fold) <= 1
        assert partitions(ds, k, seed, ids) == parts


class TestFixedSplit:
    def test_partition(self):
        ds = make_dataset(6, 6, split_frac=2 / 3)
        assert protocol(ds, 5) == "fixed_split"
        [(train, test)] = partitions(ds, 5, 0, set(ds.ids()))
        assert len(train) == 8 and len(test) == 4
        assert set(train) | set(test) == set(ds.ids())
        assert not set(train) & set(test)
        assert train == [t.id for t in ds.transcripts if t.split == "train"]
        assert test == [t.id for t in ds.transcripts if t.split == "test"]

    def test_empty_side_rejected(self):
        for split, message in (("train", "empty test"), ("test", "empty train")):
            rows = tuple(
                Transcript(f"i{i}", "some words here", GROUP_AD if i < 2 else GROUP_CONTROL, "en", split=split)
                for i in range(4)
            )
            with pytest.raises(DataError, match=message):
                partitions(Dataset("d", rows, "en"), 5, 0, {f"i{i}" for i in range(4)})

    def test_one_class_test_set_rejected(self):
        # no macro-F1 can be scored on a test set of one group
        for missing, test_group in ((GROUP_AD, GROUP_CONTROL), (GROUP_CONTROL, GROUP_AD)):
            groups = [GROUP_AD] * 4 + [GROUP_CONTROL] * 4
            splits = ["test" if group == test_group and i % 2 else "train" for i, group in enumerate(groups)]
            rows = tuple(
                Transcript(f"i{i}", "some words here", group, "en", split=split)
                for i, (group, split) in enumerate(zip(groups, splits))
            )
            with pytest.raises(DataError, match=f"^fixed split test set has no {missing} transcripts$"):
                partitions(Dataset("d", rows, "en"), 5, 0, {f"i{i}" for i in range(8)})
        # the check reads the kept ids: dropping the only AD test transcript empties the AD side
        rows = tuple(
            Transcript(f"i{i}", "some words here", GROUP_AD if i < 4 else GROUP_CONTROL, "en", split=split)
            for i, split in enumerate(["train"] * 3 + ["test"] + ["train"] * 3 + ["test"])
        )
        ds = Dataset("d", rows, "en")
        assert partitions(ds, 5, 0, {f"i{i}" for i in range(8)}) == [
            ([f"i{i}" for i in (0, 1, 2, 4, 5, 6)], ["i3", "i7"])
        ]
        with pytest.raises(DataError, match="no AD transcripts"):
            partitions(ds, 5, 0, {f"i{i}" for i in range(8) if i != 3})
