import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import zlib
from collections import Counter
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import semsurf
from semsurf.providers import (
    MOCK_EMBED_DIM,
    EmbeddingVector,
    GenerationRecord,
    OfflineViolation,
    ProviderClient,
    ProviderConfig,
    ProviderError,
    ResponseCache,
    TransportError,
    cache_key_for,
    canonical_request,
    mock_chat,
    mock_embed,
    mock_text_to_image,
    mock_translate,
)
from semsurf.textmetrics import cosine


def chat_cfg(endpoint="mock:chat"):
    return ProviderConfig(kind="chat", endpoint=endpoint, model="m")


def make_client(tmp_path, **kw):
    return ProviderClient(ResponseCache(tmp_path / "cache"), **kw)


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
        cache.store(rec)
        back = cache.lookup(rec.cache_key)
        assert back == rec
        # sharded layout: <2 hex>/<key>.json
        assert (tmp_path / rec.cache_key[:2] / f"{rec.cache_key}.json").exists()

    def test_miss(self, tmp_path):
        assert ResponseCache(tmp_path).lookup("0" * 64) is None

    def test_bad_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResponseCache(tmp_path).lookup("short")
        with pytest.raises(ValueError):
            GenerationRecord("xyz", "{}", "t", None, 0.0, {})

    def test_corrupt_record_is_miss(self, tmp_path):
        cache = ResponseCache(tmp_path)
        rec = self.record()
        cache.store(rec)
        path = tmp_path / rec.cache_key[:2] / f"{rec.cache_key}.json"
        path.write_text("{not json")
        assert cache.lookup(rec.cache_key) is None

    def test_image_sidecar(self, tmp_path):
        cache = ResponseCache(tmp_path)
        png = mock_text_to_image("a dog")
        rec = self.record(text="img", image=png)
        cache.store(rec)
        back = cache.lookup(rec.cache_key)
        assert back.response_image == png
        assert (tmp_path / rec.cache_key[:2] / f"{rec.cache_key}.png").exists()

    def test_no_temp_files_left(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.store(self.record())
        leftovers = [p for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []


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
        assert v.dimension == MOCK_EMBED_DIM
        assert sum(x * x for x in v.values) == pytest.approx(1.0, abs=1e-12)

    def test_embed_similarity_ordering(self):
        a = mock_embed("the boy is reaching for the cookie jar").values
        b = mock_embed("the boy reaches for the cookie jar").values
        c = mock_embed("zzzz qqqq xxxx wwww").values
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
        with pytest.raises(ValueError):
            EmbeddingVector(())
        with pytest.raises(ValueError):
            EmbeddingVector((float("nan"),))
        with pytest.raises(ValueError):
            EmbeddingVector((0.5, float("-inf")))

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
        assert mock_embed(text).values == tuple(c / norm for c in counts)


class TestClientMockPath:
    def test_chat_caches(self, tmp_path):
        client = make_client(tmp_path)
        text1, key1 = client.chat_generate(chat_cfg(), "sys", "hello world")
        text2, key2 = client.chat_generate(chat_cfg(), "sys", "hello world")
        assert (text1, key1) == (text2, key2)
        assert client.network_calls == 0

    def test_offline_mock_ok(self, tmp_path):
        client = make_client(tmp_path, offline=True)
        text, _ = client.chat_generate(chat_cfg(), "sys", "hello world")
        assert text

    def test_offline_http_miss_raises(self, tmp_path):
        client = make_client(tmp_path, offline=True)
        cfg = chat_cfg("https://api.example.com/v1/chat")
        with pytest.raises(OfflineViolation):
            client.chat_generate(cfg, "sys", "hello world")

    def test_offline_http_hit_served(self, tmp_path):
        # warm the cache via the mock, then replay the exact record offline
        warm = make_client(tmp_path)
        cfg = chat_cfg()
        _, key = warm.chat_generate(cfg, "sys", "hello world")
        cold = ProviderClient(warm.cache, offline=True)
        text, key2 = cold.chat_generate(cfg, "sys", "hello world")
        assert key2 == key and text

    def test_kind_mismatch(self, tmp_path):
        client = make_client(tmp_path)
        with pytest.raises(ValueError):
            client.embed(chat_cfg(), "text")

    def test_translate_same_language(self, tmp_path):
        client = make_client(tmp_path)
        cfg = ProviderConfig(kind="translate", endpoint="mock:t", model="m")
        with pytest.raises(ValueError):
            client.translate(cfg, "text", "en", "en")

    def test_embed_empty(self, tmp_path):
        client = make_client(tmp_path)
        cfg = ProviderConfig(kind="embed", endpoint="mock:e", model="m")
        with pytest.raises(ValueError):
            client.embed(cfg, "   ")

    def test_embed_cache_traffic(self, tmp_path):
        cache = CountingCache(tmp_path)
        cfg = ProviderConfig(kind="embed", endpoint="mock:e", model="m")
        cold = ProviderClient(cache).embed(cfg, "the boy sees a dog")
        assert (cache.lookups.total(), cache.stores.total()) == (1, 1)
        cache.lookups.clear()
        cache.stores.clear()
        warm = ProviderClient(cache).embed(cfg, "the boy sees a dog")
        assert (cache.lookups.total(), cache.stores.total()) == (1, 0)
        assert warm == cold == mock_embed("the boy sees a dog")

    def test_image_roundtrip_types(self, tmp_path):
        client = make_client(tmp_path)
        t2i = ProviderConfig(kind="text_to_image", endpoint="mock:t2i", model="m")
        i2t = ProviderConfig(kind="image_to_text", endpoint="mock:i2t", model="m")
        img, _ = client.text_to_image(t2i, "a dog in a garden")
        caption, _ = client.image_to_text(i2t, img, "Describe the image.")
        assert caption
        with pytest.raises(ValueError, match="not a PNG"):
            client.image_to_text(i2t, b"JPEG?", "Describe the image.")


class CountingCache(ResponseCache):
    """Counts lookups and stores per key."""

    def __init__(self, root):
        super().__init__(root)
        self._count_lock = threading.Lock()
        self.lookups = Counter()
        self.stores = Counter()

    def lookup(self, key):
        with self._count_lock:
            self.lookups[key] += 1
        return super().lookup(key)

    def store(self, record):
        with self._count_lock:
            self.stores[record.cache_key] += 1
        super().store(record)


class FakeResponse:
    def __init__(self, status_code, body=None, text=""):
        self.status_code = status_code
        self._body = body
        self.text = text

    def json(self):
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


class TestHttpPath:
    def test_success(self, tmp_path):
        session = FakeSession([FakeResponse(200, chat_body("hi there"))])
        client = make_client(tmp_path, session=session)
        text, _ = client.chat_generate(HTTP_CFG, "sys", "input")
        assert text == "hi there"
        assert client.network_calls == 1

    def test_second_call_served_from_cache(self, tmp_path):
        session = FakeSession([FakeResponse(200, chat_body("hi"))])
        client = make_client(tmp_path, session=session)
        client.chat_generate(HTTP_CFG, "sys", "input")
        client.chat_generate(HTTP_CFG, "sys", "input")  # would IndexError on refetch
        assert client.network_calls == 1

    def test_retry_on_5xx_then_success(self, tmp_path):
        sleeps = []
        session = FakeSession(
            [FakeResponse(503), FakeResponse(502), FakeResponse(200, chat_body("ok"))]
        )
        client = make_client(tmp_path, session=session, sleep=sleeps.append)
        text, _ = client.chat_generate(HTTP_CFG, "sys", "input")
        assert text == "ok"
        assert sleeps == [1.0, 2.0]  # exponential backoff
        assert client.network_calls == 3

    def test_retries_exhausted(self, tmp_path):
        session = FakeSession([FakeResponse(500)] * 3)
        client = make_client(tmp_path, session=session, sleep=lambda s: None)
        with pytest.raises(TransportError) as err:
            client.chat_generate(HTTP_CFG, "sys", "input")
        assert err.value.attempts == 3

    def test_4xx_fails_fast(self, tmp_path):
        session = FakeSession([FakeResponse(401, text="bad key")])
        client = make_client(tmp_path, session=session, sleep=lambda s: None)
        with pytest.raises(ProviderError, match="401"):
            client.chat_generate(HTTP_CFG, "sys", "input")
        assert session.script == []  # exactly one request, no retries

    def test_transport_exception_retried(self, tmp_path):
        session = FakeSession(
            [requests.ConnectionError("down"), FakeResponse(200, chat_body("ok"))]
        )
        client = make_client(tmp_path, session=session, sleep=lambda s: None)
        text, _ = client.chat_generate(HTTP_CFG, "sys", "input")
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
        client.chat_generate(cfg, "sys", "input")
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-secret"
        # the credential never lands in the cache on disk
        on_disk = b"".join(p.read_bytes() for p in tmp_path.rglob("*.json"))
        assert b"sk-secret" not in on_disk

    def test_missing_credential(self, tmp_path):
        cfg = ProviderConfig(
            kind="chat", endpoint="https://api.example.com/v1", model="m",
            credential_env="UNSET_VAR_XYZ",
        )
        client = make_client(tmp_path, session=FakeSession([]))
        with pytest.raises(ProviderError, match="UNSET_VAR_XYZ"):
            client.chat_generate(cfg, "sys", "input")

    def test_embed_dimension_check(self, tmp_path):
        body = {"data": [{"embedding": [0.1, 0.2, 0.3]}]}
        session = FakeSession([FakeResponse(200, body)])
        cfg = ProviderConfig(
            kind="embed", endpoint="https://api.example.com/v1", model="m",
            embed_dimension=4,
        )
        client = make_client(tmp_path, session=session)
        with pytest.raises(ProviderError, match="dimension"):
            client.embed(cfg, "text")


class GatedSession:
    """Answers each chat request with its user text once `parties` requests are
    in flight together, or after `wait_s` if they never are."""

    def __init__(self, parties, wait_s):
        self.barrier = threading.Barrier(parties)
        self.wait_s = wait_s
        self.together = []  # user texts of the requests that met all the others in flight

    def post(self, url, json=None, headers=None, timeout=None):
        try:
            self.barrier.wait(timeout=self.wait_s)
            self.together.append(json["messages"][1]["content"])
        except threading.BrokenBarrierError:
            pass
        return FakeResponse(200, chat_body(json["messages"][1]["content"]))


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


class TestSingleFlight:
    def test_duplicate_requests_make_one_call(self, tmp_path):
        n = 6
        session = GatedSession(parties=n, wait_s=0.5)
        client = make_client(tmp_path, session=session)
        results = run_together([lambda: client.chat_generate(HTTP_CFG, "sys", "input")] * n)
        assert client.network_calls == 1
        assert session.together == []
        assert set(results) == {results[0]}
        assert results[0][0] == "input"

    def test_different_keys_are_in_flight_together(self, tmp_path):
        session = GatedSession(parties=2, wait_s=10)
        client = make_client(tmp_path, session=session)
        results = run_together(
            [lambda: client.chat_generate(HTTP_CFG, "sys", "one"),
             lambda: client.chat_generate(HTTP_CFG, "sys", "two")]
        )
        assert sorted(session.together) == ["one", "two"]
        assert [text for text, _ in results] == ["one", "two"]
        assert client.network_calls == 2

    def test_each_key_stored_once_under_contention(self, tmp_path):
        cache = CountingCache(tmp_path)
        client = ProviderClient(cache)
        cfg = ProviderConfig(kind="embed", endpoint="mock:e", model="m")
        texts = [f"text number {i}" for i in range(10)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_together(
                [lambda k=k: [client.embed(cfg, texts[(k + j) % 10]) for j in range(30)] for k in range(8)]
            )
        finally:
            sys.setswitchinterval(interval)
        assert sorted(cache.stores.values()) == [1] * 10
        assert client._inflight == {}
        for k, vectors in enumerate(results):
            assert vectors == [mock_embed(texts[(k + j) % 10]) for j in range(30)]


def test_cli_import_leaves_requests_unloaded():
    src = Path(semsurf.__file__).resolve().parent.parent
    code = "import sys, semsurf.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
