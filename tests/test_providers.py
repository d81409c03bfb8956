import base64
import hashlib
import json
import math
import os
import sqlite3
import struct
import subprocess
import sys
import threading
import time
import zlib
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import semsurf
import semsurf.providers as providers
from semsurf.providers import (
    CACHE_VERSION,
    MOCK_EMBED_DIM,
    GenerationRecord,
    OfflineViolation,
    ProviderClient,
    ProviderConfig,
    ProviderError,
    ResponseCache,
    TransportError,
    _vector_row,
    cache_key_for,
    canonical_request,
    mock_chat,
    mock_embed,
    mock_text_to_image,
    mock_translate,
)
from semsurf.textmetrics import cosine
from semsurf.transform import STEPS, PipelineConfig, TransformationKind, TransformedCorpus, apply_step


def chat_cfg(endpoint="mock:chat"):
    return ProviderConfig(kind="chat", endpoint=endpoint, model="m")


def make_client(tmp_path, **kw):
    return ProviderClient(ResponseCache(tmp_path / "cache"), **kw)


def lookup(cache, key):
    """The cache's record of one key, or None."""
    return cache.lookup_many([key]).get(key)


def only(outcomes):
    """The outcome of a one-input operation, raised if it is an exception."""
    [outcome] = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def packed(text):
    """The mock embedding of `text` as an embedding record holds it."""
    return struct.pack(f"<{MOCK_EMBED_DIM}d", *mock_embed(text))


def mock_cfg(kind):
    return ProviderConfig(kind=kind, endpoint=f"mock:{kind}", model="m")


# provider kind -> (a call of its operation on one input, the mock that computes a miss)
OPERATIONS = {
    "chat": (lambda client, cfg: only(client.chat_generate(cfg, "sys", ["the boy sees a dog"])), "mock_chat"),
    "translate": (
        lambda client, cfg: only(client.translate(cfg, ["o menino viu o cachorro."], "pt", "en")), "mock_translate"
    ),
    "embed": (lambda client, cfg: client.embed_batch(cfg, ["the boy sees a dog"]), "mock_embed"),
    "text_to_image": (lambda client, cfg: only(client.text_to_image(cfg, ["a dog in a garden"])), "mock_text_to_image"),
    "image_to_text": (
        lambda client, cfg: only(client.image_to_text(cfg, [mock_text_to_image("a dog")], "Describe the image.")),
        "mock_image_to_text",
    ),
}


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="speech", endpoint="mock:x", model="m")

    def test_malformed_endpoint(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="chat", endpoint="not-a-url", model="m")

    def test_is_mock(self):
        assert chat_cfg().is_mock
        assert not chat_cfg("https://api.example.com/v1/chat").is_mock


class TestCanonicalization:
    def test_key_order_irrelevant(self):
        a = canonical_request({"b": 1, "a": [2, 3]})
        b = canonical_request({"a": [2, 3], "b": 1})
        assert a == b
        assert cache_key_for(a) == cache_key_for(b)

    def test_value_changes_key(self):
        k1 = cache_key_for(canonical_request({"x": 1}))
        k2 = cache_key_for(canonical_request({"x": 2}))
        assert k1 != k2
        assert len(k1) == 64

    def test_key_is_pinned(self):
        """The sha256 hex digest of the canonical UTF-8 JSON: a change here makes every stored record miss."""
        canonical = canonical_request({"op": "embed", "model": "mock-embed", "input": "O cão ladrou."})
        assert canonical == '{"input":"O cão ladrou.","model":"mock-embed","op":"embed"}'
        assert cache_key_for(canonical) == "df53b15b7e5bc823d007b053caa04d5838cb8c93a6a0c3478f75733e7d39409c"


class TestCache:
    def record(self, key=None, text="hello", image=None):
        canonical = canonical_request({"op": "chat", "text": text})
        return GenerationRecord(
            cache_key=key or cache_key_for(canonical),
            request=canonical,
            response_text=text if image is None else None,
            response_image=image,
            created_at=time.time(),
            provider={"kind": "chat"},
        )

    def test_roundtrip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        rec = self.record()
        cache.store_many([rec])
        back = lookup(cache, rec.cache_key)
        assert back == rec
        cache.close()
        # one database per cache root, one row per key, read back by a new connection
        with closing(sqlite3.connect(tmp_path / "responses.sqlite3")) as db:
            assert db.execute("SELECT key FROM responses").fetchall() == [(rec.cache_key,)]
        reopened = ResponseCache(tmp_path)
        assert lookup(reopened, rec.cache_key) == rec
        reopened.close()

    def test_miss(self, tmp_path):
        assert ResponseCache(tmp_path).lookup_many(["0" * 64]) == {}

    def test_bad_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResponseCache(tmp_path).lookup_many(["short"])
        with pytest.raises(ValueError):
            GenerationRecord("xyz", "{}", "t", None, 0.0, {})

    @pytest.mark.parametrize(
        "key", ["A" * 64, "0" * 63, "0" * 65, "0" * 64 + "\n", "0" * 63 + "\n", "٣" * 64, "0" * 63 + "g", ""]
    )
    def test_record_key_is_exactly_64_lowercase_hex_digits(self, key):
        with pytest.raises(ValueError, match="64 hex chars"):
            GenerationRecord(key, "{}", "t", None, 0.0, {})
        GenerationRecord("0123456789abcdef" * 4, "{}", "t", None, 0.0, {})

    def test_corrupt_record_is_miss(self, tmp_path):
        cache = ResponseCache(tmp_path)
        rec = self.record()
        cache.store_many([rec])
        with closing(sqlite3.connect(tmp_path / "responses.sqlite3")) as db:
            db.execute("UPDATE responses SET provider = '{not json' WHERE key = ?", (rec.cache_key,))
            db.commit()
        assert lookup(cache, rec.cache_key) is None
        # the store after that miss replaces the corrupted row
        cache.store_many([rec])
        assert lookup(cache, rec.cache_key) == rec
        cache.close()

    def test_image_roundtrip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        png = mock_text_to_image("a dog")
        rec = self.record(text="img", image=png)
        cache.store_many([rec])
        assert lookup(cache, rec.cache_key) == rec
        with closing(sqlite3.connect(tmp_path / "responses.sqlite3")) as db:
            assert db.execute("SELECT response_image FROM responses").fetchall() == [(png,)]
        cache.close()

    def test_no_temp_files_left(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.store_many([self.record()])
        cache.store_many([self.record(text="img", image=mock_text_to_image("a dog"))])
        cache.close()
        assert [p.name for p in tmp_path.iterdir()] == ["responses.sqlite3"]

    def test_threads_share_the_connection(self, tmp_path):
        cache = ResponseCache(tmp_path)
        records = [[self.record(text=f"thread {t} record {i}") for i in range(25)] for t in range(8)]

        def store_and_read(t):
            return [cache.store_many([rec]) or lookup(cache, rec.cache_key) for rec in records[t]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_together([lambda t=t: store_and_read(t) for t in range(8)])
        finally:
            sys.setswitchinterval(interval)
        assert results == records
        cache.close()
        reopened = ResponseCache(tmp_path)
        assert [[lookup(reopened, rec.cache_key) for rec in recs] for recs in records] == records
        reopened.close()

    def test_a_cache_created_meanwhile_is_opened(self, tmp_path):
        """An opener that found the database empty opens it as it is when another opener created it
        before the first one's transaction began."""

        class Late(ResponseCache):
            def _empty(self, db):
                empty = ResponseCache._empty(db)
                if empty:  # the check before the transaction: another opener creates the cache now
                    ResponseCache(self.root).close()
                return empty

        rec = self.record()
        cache = Late(tmp_path)
        cache.store_many([rec])
        assert lookup(cache, rec.cache_key) == rec
        cache.close()
        with closing(sqlite3.connect(tmp_path / "responses.sqlite3")) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (CACHE_VERSION,)
            assert db.execute("SELECT name FROM sqlite_master WHERE type = 'table'").fetchall() == [("responses",)]

    def test_a_new_cache_opens_once_another_connection_releases_its_write_lock(self, tmp_path):
        """The switch to WAL waits, as the other statements do, for a write lock that another connection
        holds on the new database, here for about 0.3 s."""
        database = tmp_path / "responses.sqlite3"
        other = sqlite3.connect(database, check_same_thread=False, isolation_level=None)
        other.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.3, other.commit)
        release.start()
        try:
            ResponseCache(tmp_path).close()
        finally:
            release.join()
            other.close()
        with closing(sqlite3.connect(database)) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (CACHE_VERSION,)
            assert db.execute("SELECT name FROM sqlite_master WHERE type = 'table'").fetchall() == [("responses",)]

    @pytest.mark.parametrize("version", [0, 2])
    def test_a_database_of_another_format_is_refused(self, tmp_path, version):
        """A database with a table at user_version 0, as semsurf wrote before the version, or at
        any version but CACHE_VERSION is refused, and left as it was."""
        rec = self.record()
        write_database(tmp_path, [rec], version)
        database = tmp_path / "responses.sqlite3"
        before = database.read_bytes()
        with pytest.raises(ValueError) as err:
            ResponseCache(tmp_path)
        assert str(err.value) == (
            f"cannot open the provider cache {database}: it is of format {version}, not 1;"
            " move it aside to start a new cache"
        )
        assert database.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["responses.sqlite3"]

    def test_files_of_the_layout_before_the_database_are_ignored(self, tmp_path):
        """Record files <first 2 hex>/<key>.json beside no database are never read: the cache is
        created empty, at CACHE_VERSION, and the files are left as they are."""
        rec = self.record()
        old = tmp_path / rec.cache_key[:2] / f"{rec.cache_key}.json"
        old.parent.mkdir()
        old.write_text(json.dumps({"cache_key": rec.cache_key, "response_text": rec.response_text}))
        before = old.read_bytes(), old.stat().st_mtime_ns
        cache = ResponseCache(tmp_path)
        assert cache.lookup_many([rec.cache_key]) == {}
        cache.close()
        assert (old.read_bytes(), old.stat().st_mtime_ns) == before
        with closing(sqlite3.connect(tmp_path / "responses.sqlite3")) as db:
            assert db.execute("PRAGMA user_version").fetchone() == (CACHE_VERSION,)
            assert db.execute("SELECT COUNT(*) FROM responses").fetchone() == (0,)

    def test_not_a_database(self, tmp_path):
        (tmp_path / "responses.sqlite3").write_text("not a database\n")
        with pytest.raises(ValueError, match="responses.sqlite3: file is not a database"):
            ResponseCache(tmp_path)


class TestMocks:
    def test_chat_deterministic(self):
        assert mock_chat("sys", "the boy sees a dog") == mock_chat("sys", "the boy sees a dog")
        assert mock_chat("sys a", "text") != mock_chat("sys b", "text")

    def test_chat_tagged(self):
        assert "[mock:" in mock_chat("sys", "some words here")

    def test_translate_marks_sentences(self):
        out = mock_translate("Ola mundo. Tudo bem?", "pt", "en")
        assert out.count("[pt→en]") == 2

    def test_embed_unit_norm(self):
        v = mock_embed("the quick brown fox")
        assert len(v) == MOCK_EMBED_DIM
        assert sum(x * x for x in v) == pytest.approx(1.0, abs=1e-12)

    def test_embed_similarity_ordering(self):
        a = mock_embed("the boy is reaching for the cookie jar")
        b = mock_embed("the boy reaches for the cookie jar")
        c = mock_embed("zzzz qqqq xxxx wwww")
        assert cosine(a, b) > cosine(a, c)

    def test_png_valid(self):
        png = mock_text_to_image("a scene")
        assert png.startswith(b"\x89PNG\r\n\x1a\n")
        # IDAT decompresses to one filtered RGB scanline
        idat_start = png.index(b"IDAT") + 4
        idat_len = int.from_bytes(png[idat_start - 8 : idat_start - 4], "big")
        raw = zlib.decompress(png[idat_start : idat_start + idat_len])
        assert len(raw) == 4  # filter byte + RGB

    def test_vector_validation(self):
        non_finite = "^embedding contains non-finite entries$"
        cases = {  # (BLOB, declared dimension) -> the message of the ProviderError _vector_row raises
            (b"", None): "^embedding must be non-empty$",
            (None, None): "^embedding must be non-empty$",
            (struct.pack("<d", float("nan")), None): non_finite,
            (struct.pack("<2d", 0.5, float("-inf")), None): non_finite,
            (struct.pack("<2d", float("inf"), float("-inf")), None): non_finite,
            (struct.pack("<2d", 0.5, 0.25)[:15], None): "^15 bytes are not packed float64$",
            (struct.pack("<3d", 0.1, 0.2, 0.3), 4): "^embedding dimension 3 != declared 4$",
        }
        for (blob, dimension), message in cases.items():
            record = GenerationRecord("0" * 64, "{}", None, blob, 1.5, mock_cfg("embed").summary())
            with pytest.raises(ProviderError, match=message):
                _vector_row(record, dimension)
        # finite entries whose sum overflows
        blob = struct.pack("<2d", 1e308, 1e308)
        for dimension in (None, 2):
            assert _vector_row(GenerationRecord("0" * 64, "{}", None, blob, 1.5, {}), dimension) == blob

    @given(st.one_of(st.text(max_size=40), st.text(alphabet="aAbB zZçÇİıßẞΣσς", max_size=12)))
    @settings(max_examples=200, deadline=None)
    def test_embed_is_the_trigram_formula(self, text):
        # the formula, one blake2b digest per trigram occurrence
        counts = [0.0] * MOCK_EMBED_DIM
        padded = f"  {text.lower()}  "
        for i in range(len(padded) - 2):
            tri = padded[i : i + 3]
            idx = int.from_bytes(hashlib.blake2b(tri.encode("utf-8"), digest_size=4).digest(), "big")
            counts[idx % MOCK_EMBED_DIM] += 1.0
        norm = math.sqrt(sum(c * c for c in counts))
        assert mock_embed(text) == [c / norm for c in counts]


class TestClientMockPath:
    def test_chat_caches(self, tmp_path):
        client = make_client(tmp_path)
        text1, key1 = only(client.chat_generate(chat_cfg(), "sys", ["hello world"]))
        text2, key2 = only(client.chat_generate(chat_cfg(), "sys", ["hello world"]))
        assert (text1, key1) == (text2, key2)
        assert client.network_calls == 0

    def test_offline_mock_ok(self, tmp_path):
        client = make_client(tmp_path, offline=True)
        text, _ = only(client.chat_generate(chat_cfg(), "sys", ["hello world"]))
        assert text

    def test_offline_http_miss_raises(self, tmp_path):
        client = make_client(tmp_path, offline=True)
        cfg = chat_cfg("https://api.example.com/v1/chat")
        with pytest.raises(OfflineViolation):
            only(client.chat_generate(cfg, "sys", ["hello world"]))

    def test_offline_http_hit_served(self, tmp_path):
        # warm the cache via the mock, then replay the exact record offline
        warm = make_client(tmp_path)
        cfg = chat_cfg()
        _, key = only(warm.chat_generate(cfg, "sys", ["hello world"]))
        cold = ProviderClient(warm.cache, offline=True)
        text, key2 = only(cold.chat_generate(cfg, "sys", ["hello world"]))
        assert key2 == key and text

    @pytest.mark.parametrize("op", OPERATIONS)
    def test_kind_mismatch(self, tmp_path, op):
        cache = CountingCache(tmp_path)
        other = "embed" if op == "chat" else "chat"
        with pytest.raises(ValueError, match=f"{op} requires a {op} provider, got '{other}'"):
            OPERATIONS[op][0](ProviderClient(cache), mock_cfg(other))
        assert (cache.lookups.total(), cache.stores.total()) == (0, 0)

    def test_translate_same_language(self, tmp_path):
        client = make_client(tmp_path)
        cfg = ProviderConfig(kind="translate", endpoint="mock:t", model="m")
        with pytest.raises(ValueError):
            client.translate(cfg, ["text"], "en", "en")

    def test_embed_empty(self, tmp_path):
        client = make_client(tmp_path)
        cfg = ProviderConfig(kind="embed", endpoint="mock:e", model="m")
        with pytest.raises(ValueError, match="empty text"):
            client.embed_batch(cfg, ["some text", "   "])

    def test_embed_cache_traffic(self, tmp_path):
        cache = CountingCache(tmp_path)
        cfg = ProviderConfig(kind="embed", endpoint="mock:e", model="m")
        cold = ProviderClient(cache).embed_batch(cfg, ["the boy sees a dog"])
        # a miss is read once
        assert (cache.lookups.total(), cache.stores.total()) == (1, 1)
        cache.lookups.clear()
        cache.stores.clear()
        warm = ProviderClient(cache).embed_batch(cfg, ["the boy sees a dog"])
        assert (cache.lookups.total(), cache.stores.total()) == (1, 0)
        assert warm == cold == [packed("the boy sees a dog")]

    def test_duplicate_texts_are_computed_and_stored_once(self, tmp_path, monkeypatch):
        computed = Counter()

        def counting_mock_embed(text):
            computed[text] += 1
            return mock_embed(text)

        monkeypatch.setattr(providers, "mock_embed", counting_mock_embed)
        cache = CountingCache(tmp_path)
        cfg = ProviderConfig(kind="embed", endpoint="mock:e", model="m")
        texts = ["a dog", "a cat", "a dog", "a bird", "a cat", "a dog"]
        rows = ProviderClient(cache).embed_batch(cfg, texts)
        assert rows == [packed(text) for text in texts]
        assert computed == {"a dog": 1, "a cat": 1, "a bird": 1}
        assert sorted(cache.stores.values()) == [1, 1, 1]
        assert cache.store_transactions == 1

    def test_vector_records_are_packed_float64(self, tmp_path):
        client = make_client(tmp_path)
        cfg = ProviderConfig(kind="embed", endpoint="mock:e", model="m")
        client.embed_batch(cfg, ["a dog in a garden"])
        client.cache.close()
        with closing(sqlite3.connect(tmp_path / "cache" / "responses.sqlite3")) as db:
            [(text, blob)] = db.execute("SELECT response_text, response_image FROM responses").fetchall()
        assert text is None
        assert blob == struct.pack(f"<{MOCK_EMBED_DIM}d", *mock_embed("a dog in a garden"))
        assert list(struct.unpack(f"<{MOCK_EMBED_DIM}d", blob)) == mock_embed("a dog in a garden")

    def test_a_record_without_a_vector_fails_its_embedding(self, tmp_path):
        cfg = ProviderConfig(kind="embed", endpoint="mock:e", model="m")
        canonical = canonical_request({"op": "embed", "model": "m", "input": "a dog"})
        cache = ResponseCache(tmp_path)
        cache.store_many([GenerationRecord(cache_key_for(canonical), canonical, "[1.0]", None, 1.5, cfg.summary())])
        with pytest.raises(ProviderError, match="embedding must be non-empty"):
            ProviderClient(cache).embed_batch(cfg, ["a dog"])
        cache.close()

    def test_image_roundtrip_types(self, tmp_path):
        client = make_client(tmp_path)
        t2i = ProviderConfig(kind="text_to_image", endpoint="mock:t2i", model="m")
        i2t = ProviderConfig(kind="image_to_text", endpoint="mock:i2t", model="m")
        img, _ = only(client.text_to_image(t2i, ["a dog in a garden"]))
        caption, _ = only(client.image_to_text(i2t, [img], "Describe the image."))
        assert caption
        with pytest.raises(ValueError, match="not a PNG"):
            only(client.image_to_text(i2t, [b"JPEG?"], "Describe the image."))


def count_computations(monkeypatch, mock_name):
    """Counts the calls of the named mock."""
    computed = Counter()
    mock = getattr(providers, mock_name)

    def counting(*args):
        computed[args] += 1
        return mock(*args)

    monkeypatch.setattr(providers, mock_name, counting)
    return computed


class TestOneCachePath:
    """Every operation reads each key once, computes each miss once and stores it once."""

    @pytest.mark.parametrize("op", OPERATIONS)
    def test_cold_then_warm(self, tmp_path, monkeypatch, op):
        call, mock_name = OPERATIONS[op]
        computed = count_computations(monkeypatch, mock_name)
        cache = CountingCache(tmp_path)
        cold = call(ProviderClient(cache), mock_cfg(op))
        assert (cache.lookups.total(), computed.total(), cache.stores.total()) == (1, 1, 1)
        [key] = cache.lookups
        assert cache.stores == {key: 1}
        cache.lookups.clear()
        cache.stores.clear()
        warm = call(ProviderClient(cache), mock_cfg(op))
        assert warm == cold
        assert cache.lookups == {key: 1}
        assert (computed.total(), cache.stores.total()) == (1, 0)

    def test_mixed_batch_reads_each_distinct_key_once(self, tmp_path, monkeypatch):
        computed = count_computations(monkeypatch, "mock_embed")
        cache = CountingCache(tmp_path)
        client = ProviderClient(cache)
        cfg = mock_cfg("embed")
        client.embed_batch(cfg, ["a dog", "a cat"])
        cache.lookups.clear()
        cache.stores.clear()
        texts = ["a cat", "a bird", "a dog", "a bird", "a fish", "a cat"]
        rows = client.embed_batch(cfg, texts)
        assert rows == [packed(text) for text in texts]
        assert sorted(cache.lookups.values()) == [1, 1, 1, 1]
        assert computed == {("a dog",): 1, ("a cat",): 1, ("a bird",): 1, ("a fish",): 1}
        assert sorted(cache.stores.values()) == [1, 1]
        assert cache.lookups.keys() > cache.stores.keys()


class CountingCache(ResponseCache):
    """Counts lookups and stores per key, and the transactions of store_many."""

    def __init__(self, root):
        super().__init__(root)
        self._count_lock = threading.Lock()
        self.lookups = Counter()
        self.stores = Counter()
        self.store_transactions = 0

    def lookup_many(self, keys):
        with self._count_lock:
            self.lookups.update(keys)
        return super().lookup_many(keys)

    def store_many(self, records):
        records = list(records)
        with self._count_lock:
            self.stores.update(record.cache_key for record in records)
            self.store_transactions += 1
        super().store_many(records)


class FakeResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class FakeSession:
    """Scripted responses; raises requests exceptions when an entry is one."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def chat_body(content):
    return {"choices": [{"message": {"content": content}}]}


HTTP_CFG = ProviderConfig(kind="chat", endpoint="https://api.example.com/v1", model="m")
EMBED_HTTP_CFG = ProviderConfig(kind="embed", endpoint="https://api.example.com/v1", model="m")


class TestHttpPath:
    def test_success(self, tmp_path):
        session = FakeSession([FakeResponse(200, chat_body("hi there"))])
        client = make_client(tmp_path, session=session)
        text, _ = only(client.chat_generate(HTTP_CFG, "sys", ["input"]))
        assert text == "hi there"
        assert client.network_calls == 1

    def test_second_call_served_from_cache(self, tmp_path):
        session = FakeSession([FakeResponse(200, chat_body("hi"))])
        client = make_client(tmp_path, session=session)
        only(client.chat_generate(HTTP_CFG, "sys", ["input"]))
        only(client.chat_generate(HTTP_CFG, "sys", ["input"]))  # would IndexError on refetch
        assert client.network_calls == 1

    def test_retry_on_5xx_then_success(self, tmp_path):
        sleeps = []
        session = FakeSession(
            [FakeResponse(503), FakeResponse(502), FakeResponse(200, chat_body("ok"))]
        )
        client = make_client(tmp_path, session=session, sleep=sleeps.append)
        text, _ = only(client.chat_generate(HTTP_CFG, "sys", ["input"]))
        assert text == "ok"
        assert sleeps == [1.0, 2.0]  # exponential backoff
        assert client.network_calls == 3

    def test_retries_exhausted(self, tmp_path):
        session = FakeSession([FakeResponse(500)] * 3)
        client = make_client(tmp_path, session=session, sleep=lambda s: None)
        with pytest.raises(TransportError) as err:
            only(client.chat_generate(HTTP_CFG, "sys", ["input"]))
        assert err.value.attempts == 3

    def test_4xx_fails_fast(self, tmp_path):
        session = FakeSession([FakeResponse(401, text="bad key")])
        client = make_client(tmp_path, session=session, sleep=lambda s: None)
        with pytest.raises(ProviderError, match="401"):
            only(client.chat_generate(HTTP_CFG, "sys", ["input"]))
        assert session.script == []  # exactly one request, no retries

    def test_transport_exception_retried(self, tmp_path):
        session = FakeSession(
            [requests.ConnectionError("down"), FakeResponse(200, chat_body("ok"))]
        )
        client = make_client(tmp_path, session=session, sleep=lambda s: None)
        text, _ = only(client.chat_generate(HTTP_CFG, "sys", ["input"]))
        assert text == "ok"
        assert client.network_calls == 2

    def test_credential_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TEST_API_KEY", "sk-secret")
        cfg = ProviderConfig(
            kind="chat", endpoint="https://api.example.com/v1", model="m",
            credential_env="TEST_API_KEY",
        )
        session = FakeSession([FakeResponse(200, chat_body("ok"))])
        client = make_client(tmp_path, session=session)
        only(client.chat_generate(cfg, "sys", ["input"]))
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-secret"
        # the credential never lands in the cache on disk
        client.cache.close()
        on_disk = b"".join(p.read_bytes() for p in tmp_path.rglob("*") if p.is_file())
        assert b"Bearer" not in on_disk and b"input" in on_disk
        assert b"sk-secret" not in on_disk

    def test_missing_credential(self, tmp_path):
        cfg = ProviderConfig(
            kind="chat", endpoint="https://api.example.com/v1", model="m",
            credential_env="UNSET_VAR_XYZ",
        )
        client = make_client(tmp_path, session=FakeSession([]))
        with pytest.raises(ProviderError, match="UNSET_VAR_XYZ"):
            only(client.chat_generate(cfg, "sys", ["input"]))

    def test_embed_dimension_check(self, tmp_path):
        body = {"data": [{"embedding": [0.1, 0.2, 0.3]}]}
        session = FakeSession([FakeResponse(200, body)])
        cfg = ProviderConfig(
            kind="embed", endpoint="https://api.example.com/v1", model="m",
            dimension=4,
        )
        client = make_client(tmp_path, session=session)
        with pytest.raises(ProviderError, match="dimension"):
            client.embed_batch(cfg, ["text"])

    @pytest.mark.parametrize(
        "entry", ["0.3", None, [0.3], True, 10**400], ids=["string", "null", "list", "bool", "beyond float64"]
    )
    def test_embed_entry_not_a_number(self, tmp_path, entry):
        session = FakeSession([FakeResponse(200, {"data": [{"embedding": [0.1, 0.2, entry]}]})])
        client = make_client(tmp_path, session=session)
        with pytest.raises(ProviderError, match="embedding"):
            client.embed_batch(EMBED_HTTP_CFG, ["text"])
        client.cache.close()
        with closing(sqlite3.connect(tmp_path / "cache" / "responses.sqlite3")) as db:
            assert db.execute("SELECT COUNT(*) FROM responses").fetchone() == (0,)

    def test_embed_stores_each_response_as_it_arrives(self, tmp_path):
        ok = {"data": [{"embedding": [0.6, 0.8]}]}
        session = FakeSession([FakeResponse(200, ok), FakeResponse(401, text="bad key")])
        client = make_client(tmp_path, session=session, max_workers=1)  # one request at a time, in order
        with pytest.raises(ProviderError, match="401"):
            client.embed_batch(EMBED_HTTP_CFG, ["one", "two"])
        # the first response is in the cache although the batch failed after it
        assert client.embed_batch(EMBED_HTTP_CFG, ["one"]) == [struct.pack("<2d", 0.6, 0.8)]
        assert [call["json"]["input"] for call in session.calls] == ["one", "two"]
        assert client.network_calls == 2

    def test_image_to_text_sends_the_image(self, tmp_path):
        png = mock_text_to_image("a dog")
        cfg = ProviderConfig(kind="image_to_text", endpoint="https://api.example.com/v1", model="m")
        session = FakeSession([FakeResponse(200, chat_body("a dog on the grass"))])
        client = make_client(tmp_path / "http", session=session)
        caption, key = only(client.image_to_text(cfg, [png], "Describe the image."))
        assert caption == "a dog on the grass"
        url = "data:image/png;base64," + base64.b64encode(png).decode()
        assert [call["json"] for call in session.calls] == [{"model": "m", "messages": [{"role": "user", "content": [
            {"type": "text", "text": "Describe the image."}, {"type": "image_url", "image_url": {"url": url}},
        ]}]}]
        # the cache key names the image by its sha256, as on the mock path
        mock_client = make_client(tmp_path / "mock")
        assert only(mock_client.image_to_text(mock_cfg("image_to_text"), [png], "Describe the image."))[1] == key


# name -> (provider kind, body of a 200 response)
MALFORMED = {
    "embed without data": ("embed", {"data": []}),
    "embed not JSON": ("embed", json.JSONDecodeError("Expecting value", "<html>", 0)),
    "chat without choices": ("chat", {"choices": []}),
    "chat without message": ("chat", {"choices": [{}]}),
    "chat as a list": ("chat", []),
    "chat text a list": ("chat", chat_body(["a", "summary"])),
    "translation a number": ("translate", {"translation": 7}),
    "translate without translation": ("translate", {"text": "hello"}),
    "image not base64 text": ("text_to_image", {"data": [{"b64_json": 5}]}),
    "caption without content": ("image_to_text", {"choices": [{"message": {}}]}),
}


@pytest.mark.parametrize("kind, body", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_response_is_a_provider_error_and_not_cached(tmp_path, kind, body):
    cfg = ProviderConfig(kind=kind, endpoint="https://api.example.com/v1", model="m")
    client = make_client(tmp_path, session=FakeSession([FakeResponse(200, body)]))
    with pytest.raises(ProviderError, match=f"^malformed {kind} response: "):
        OPERATIONS[kind][0](client, cfg)
    assert client.network_calls == 1
    client.cache.close()
    with closing(sqlite3.connect(tmp_path / "cache" / "responses.sqlite3")) as db:
        assert db.execute("SELECT COUNT(*) FROM responses").fetchone() == (0,)


class TestRejectedResponses:
    """A response its operation rejects fails its input and is not stored, so the next call asks again."""

    @staticmethod
    def retried(tmp_path, call, rejected, accepted):
        session = FakeSession([FakeResponse(200, rejected), FakeResponse(200, accepted)])
        client = make_client(tmp_path, session=session)
        with pytest.raises(ProviderError) as err:
            call(client)
        assert client.network_calls == 1
        result = call(client)
        assert client.network_calls == 2
        client.cache.close()
        with closing(sqlite3.connect(tmp_path / "cache" / "responses.sqlite3")) as db:
            rows = db.execute("SELECT response_text, response_image FROM responses").fetchall()
        return str(err.value), result, rows

    def test_empty_completion(self, tmp_path):
        error, (text, _), rows = self.retried(
            tmp_path, lambda client: only(client.chat_generate(HTTP_CFG, "sys", ["input"])),
            chat_body(""), chat_body("a summary"),
        )
        assert error == "empty completion"
        assert text == "a summary"
        assert rows == [("a summary", None)]

    def test_embedding_of_another_dimension(self, tmp_path):
        cfg = ProviderConfig(kind="embed", endpoint="https://api.example.com/v1", model="m", dimension=4)
        error, rows_out, rows = self.retried(
            tmp_path, lambda client: client.embed_batch(cfg, ["text"]),
            {"data": [{"embedding": [0.1, 0.2, 0.3]}]}, {"data": [{"embedding": [0.1, 0.2, 0.3, 0.4]}]},
        )
        assert error == "embedding dimension 3 != declared 4"
        packed = struct.pack("<4d", 0.1, 0.2, 0.3, 0.4)
        assert rows_out == [packed]
        assert rows == [(None, packed)]

    def test_image_that_is_not_a_png(self, tmp_path):
        cfg = ProviderConfig(kind="text_to_image", endpoint="https://api.example.com/v1", model="m")
        png = mock_text_to_image("a dog")
        error, (image, _), rows = self.retried(
            tmp_path, lambda client: only(client.text_to_image(cfg, ["a dog"])),
            {"data": [{"b64_json": base64.b64encode(b"GIF89a").decode()}]},
            {"data": [{"b64_json": base64.b64encode(png).decode()}]},
        )
        assert error == "provider returned no PNG image"
        assert image == png
        assert rows == [(None, png)]


class TestHttpConcurrency:
    """A batch's HTTP misses are sent max_workers at a time; one at a time when it is 1."""

    CASES = {  # max_workers -> (barrier parties, barrier wait, requests that met the others)
        3: (3, 10, 6),
        1: (2, 0.2, 0),
    }

    @pytest.mark.parametrize("max_workers", CASES)
    def test_transform_step(self, tmp_path, max_workers):
        parties, wait_s, together = self.CASES[max_workers]
        session = GatedSession(parties, wait_s)
        client = make_client(tmp_path, session=session, max_workers=max_workers)
        source = TransformedCorpus(TransformationKind.ORIGINAL, tuple((f"d{i}", f"text {i}") for i in range(6)))
        step = next(s for s in STEPS if s.kind is TransformationKind.SHORT_SUMMARY)
        corpus, failures = apply_step(step, source, client, PipelineConfig(chat=HTTP_CFG), "en")
        assert failures == []
        assert corpus.items == source.items
        assert (len(session.together), session.peak, client.network_calls) == (together, max_workers, 6)

    @pytest.mark.parametrize("max_workers", CASES)
    def test_embed_batch(self, tmp_path, max_workers):
        parties, wait_s, together = self.CASES[max_workers]
        session = GatedSession(parties, wait_s)
        client = make_client(tmp_path, session=session, max_workers=max_workers)
        texts = [f"text {i}" * (i + 1) for i in range(6)]
        rows = client.embed_batch(EMBED_HTTP_CFG, texts)
        assert rows == [struct.pack("<2d", 1.0, len(text)) for text in texts]
        assert (len(session.together), session.peak, client.network_calls) == (together, max_workers, 6)


class GatedSession:
    """Answers each chat request with its user text, and each embed request with
    [1, len(text)], once `parties` requests are in flight together, or after
    `wait_s` if they never are. `peak` is the most requests it held at once."""

    def __init__(self, parties, wait_s):
        self.barrier = threading.Barrier(parties)
        self.wait_s = wait_s
        self.together = []  # texts of the requests that met all the others in flight
        self._lock = threading.Lock()
        self.in_flight = self.peak = 0

    def post(self, url, json=None, headers=None, timeout=None):
        text = json["input"] if "input" in json else json["messages"][1]["content"]
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            self.barrier.wait(timeout=self.wait_s)
            self.together.append(text)
        except threading.BrokenBarrierError:
            pass
        finally:
            with self._lock:
                self.in_flight -= 1
        if "input" in json:
            return FakeResponse(200, {"data": [{"embedding": [1.0, float(len(text))]}]})
        return FakeResponse(200, chat_body(text))


def run_together(calls):
    """Runs each call on its own thread, all started at once; their results in order."""
    results = [None] * len(calls)
    errors = []
    start = threading.Barrier(len(calls))

    def body(i):
        try:
            start.wait(timeout=10)
            results[i] = calls[i]()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(len(calls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    return results


class TestConcurrentCalls:
    """Callers on several threads may share one client and its cache."""

    def test_different_keys_are_in_flight_together(self, tmp_path):
        session = GatedSession(parties=2, wait_s=10)
        client = make_client(tmp_path, session=session)
        results = run_together(
            [lambda: only(client.chat_generate(HTTP_CFG, "sys", ["one"])),
             lambda: only(client.chat_generate(HTTP_CFG, "sys", ["two"]))]
        )
        assert sorted(session.together) == ["one", "two"]
        assert [text for text, _ in results] == ["one", "two"]
        assert client.network_calls == 2

    def test_overlapping_embed_batches_on_threads(self, tmp_path):
        cache = ResponseCache(tmp_path)
        client = ProviderClient(cache)
        cfg = ProviderConfig(kind="embed", endpoint="mock:e", model="m")
        texts = [f"text number {i}" for i in range(10)]

        def batches(k):
            # overlapping batches: each thread's windows start at its own offset and share keys with the others
            return [client.embed_batch(cfg, [texts[(k + j + i) % 10] for i in range(4)]) for j in range(0, 30, 3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_together([lambda k=k: batches(k) for k in range(8)])
        finally:
            sys.setswitchinterval(interval)
        for k, rows in enumerate(results):
            expected = [[packed(texts[(k + j + i) % 10]) for i in range(4)] for j in range(0, 30, 3)]
            assert rows == expected
        # the table holds one row per key, and the client no state left by the calls
        keys = sorted(cache_key_for(canonical_request({"op": "embed", "model": "m", "input": t})) for t in texts)
        with cache._lock:
            assert [key for key, in cache._db.execute("SELECT key FROM responses ORDER BY key")] == keys
        fresh = ProviderClient(cache)
        assert {k: v for k, v in vars(client).items() if k != "_lock"} == {
            k: v for k, v in vars(fresh).items() if k != "_lock"
        }
        assert not client._lock.locked()
        cache.close()


def write_database(root, records, user_version):
    """A cache database of `user_version` holding `records`; 0 is how semsurf wrote one before the version."""
    with closing(sqlite3.connect(root / "responses.sqlite3")) as db:
        db.execute(
            "CREATE TABLE responses (key TEXT PRIMARY KEY, request TEXT, response_text TEXT,"
            " response_image BLOB, created_at REAL, provider TEXT)"
        )
        db.executemany("INSERT INTO responses VALUES (?, ?, ?, ?, ?, ?)", map(ResponseCache._row, records))
        db.execute(f"PRAGMA user_version = {user_version}")
        db.commit()

def test_cli_import_leaves_requests_unloaded():
    src = Path(semsurf.__file__).resolve().parent.parent
    code = "import sys, semsurf.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
