"""Provider access layer: chat, translation, embeddings, text-to-image and
image-to-text over OpenAI-style HTTP endpoints, plus a deterministic offline
mock and a content-addressed response cache in one SQLite database.

Every operation takes a batch of inputs and sends it through one cache path,
ProviderClient._fetch: each canonical request is hashed, one query reads the
cache for the whole batch, and a hit short-circuits all network I/O. Each
response is checked before it is stored, so a rejected one is never cached.
Endpoints whose URL starts with "mock:" are served by pure in-process
functions, computed in order on the calling thread, so the whole pipeline can
run offline; HTTP misses are sent on up to `max_workers` threads at once.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import os
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

# hashlib (and with it OpenSSL's libcrypto) loads where a cache key or a mock digest is computed, sqlite3 where
# the cache opens, concurrent.futures and requests where HTTP misses are sent, so a stage that calls no provider
# loads none of them
if TYPE_CHECKING:
    import sqlite3

    import requests

PROVIDER_KINDS = ("chat", "translate", "embed", "text_to_image", "image_to_text")

MOCK_EMBED_DIM = 256

DEFAULT_MAX_WORKERS = 4  # concurrent HTTP requests of one batch

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 1.0

CACHE_VERSION = 1  # PRAGMA user_version of a cache database in the current format

LOOKUP_CHUNK = 500  # keys per SELECT ... IN (...), well below SQLite's bound on query parameters

BUSY_TIMEOUT_S = 5.0  # how long a cache statement waits for another connection's lock (sqlite3's default)

T = TypeVar("T")


class ProviderError(RuntimeError):
    """Provider returned an unusable response (empty completion, bad shape)."""


class TransportError(RuntimeError):
    """Network-level failure after exhausting retries."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class OfflineViolation(RuntimeError):
    """A network call was attempted while the transport is disabled."""


@dataclass(frozen=True)
class ProviderConfig:
    kind: str
    endpoint: str
    model: str
    temperature: float = 0.0
    max_tokens: int | None = None
    seed: int | None = 0
    credential_env: str | None = None
    dimension: int | None = None  # declared embedding dimension, checked on responses

    def __post_init__(self):
        if self.kind not in PROVIDER_KINDS:
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not (self.endpoint.startswith("mock:") or "://" in self.endpoint):
            raise ValueError(f"malformed endpoint {self.endpoint!r}")

    @property
    def is_mock(self) -> bool:
        return self.endpoint.startswith("mock:")

    def summary(self) -> dict:
        return {"kind": self.kind, "endpoint": self.endpoint, "model": self.model}


_CACHE_KEY_RE = re.compile("[0-9a-f]{64}")  # a SHA-256 hexdigest; not \d, which takes any Unicode digit


@dataclass(frozen=True)
class GenerationRecord:
    cache_key: str
    request: str  # canonical serialized request
    response_text: str | None
    response_image: bytes | None  # an image, or an embedding packed as little-endian float64
    created_at: float
    provider: dict

    def __post_init__(self):
        if not _CACHE_KEY_RE.fullmatch(self.cache_key):
            raise ValueError(f"cache_key must be 64 hex chars, got {self.cache_key!r}")


def _pack_embedding(values) -> bytes:
    """An embedding, which must be a list of numbers, as an embedding record holds it: packed little-endian float64."""
    if not isinstance(values, list) or not {*map(type, values)} <= {int, float}:  # a bool's type is neither
        raise ProviderError("embedding is not a list of numbers")
    try:
        return struct.pack(f"<{len(values)}d", *values)
    except struct.error:  # an integer beyond the float64 range
        raise ProviderError("embedding entry out of the float64 range") from None


def _vector_row(record: GenerationRecord, dimension: int | None) -> bytes:
    """The record's embedding, packed, once it is non-empty, finite and, unless
    `dimension` is None, of that dimension."""
    packed = record.response_image or b""  # a record without a BLOB holds no vector
    if len(packed) % 8:
        raise ProviderError(f"{len(packed)} bytes are not packed float64")
    if not packed:
        raise ProviderError("embedding must be non-empty")
    values = struct.unpack(f"<{len(packed) // 8}d", packed)
    # a finite sum means finite entries; only a sum that overflows needs the check entry by entry
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ProviderError("embedding contains non-finite entries")
    if dimension is not None and len(values) != dimension:
        raise ProviderError(f"embedding dimension {len(values)} != declared {dimension}")
    return packed


def canonical_request(payload: dict) -> str:
    """Stable serialization: sorted keys, no insignificant whitespace drift."""
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def cache_key_for(canonical: str) -> str:
    import hashlib

    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed cache: one SQLite database, <root>/responses.sqlite3,
    holding one row per key, the image or the packed embedding (if any) as a BLOB.

    One connection, guarded by the cache's lock, serves every thread. Each
    store_many commits at once. The database is in WAL mode, so its -wal and
    -shm files sit beside it until close() folds them back in. A database of
    user_version CACHE_VERSION opens as it is, one without tables is created
    at that version in one transaction, and any other is refused.
    """

    def __init__(self, root: str | Path):
        import sqlite3

        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / "responses.sqlite3"
        self._lock = threading.Lock()
        db = None
        try:
            db = sqlite3.connect(path, timeout=BUSY_TIMEOUT_S, check_same_thread=False, isolation_level=None)
            empty = self._empty(db)  # before the switch to WAL, which would write to a database it refuses
            self._switch_to_wal(db)
            db.execute("PRAGMA synchronous=NORMAL")
            db.execute("PRAGMA cache_size=-64")  # KiB; a lookup_many query reads each of its LOOKUP_CHUNK rows once
            if empty:
                with db:  # commits, or rolls back on an error
                    db.execute("BEGIN IMMEDIATE")
                    if self._empty(db):  # unless another connection created it meanwhile
                        db.execute(
                            "CREATE TABLE responses (key TEXT PRIMARY KEY, request TEXT, response_text TEXT,"
                            " response_image BLOB, created_at REAL, provider TEXT)"
                        )
                        db.execute(f"PRAGMA user_version = {CACHE_VERSION}")
        except (sqlite3.Error, ValueError) as exc:
            if db is not None:
                db.close()
            raise ValueError(f"cannot open the provider cache {path}: {exc}") from None
        self._db = db

    @staticmethod
    def _switch_to_wal(db: sqlite3.Connection) -> None:
        """PRAGMA journal_mode=WAL, retried for up to BUSY_TIMEOUT_S while another connection locks the
        database: unlike other statements, the switch fails at once on a lock instead of waiting for it."""
        import sqlite3

        deadline = time.monotonic() + BUSY_TIMEOUT_S
        while True:
            try:
                db.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if str(exc) != "database is locked" or time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    @staticmethod
    def _empty(db: sqlite3.Connection) -> bool:
        """True for a database without tables, False for one of CACHE_VERSION, and
        ValueError for any other."""
        # one statement reads both from one snapshot, whatever another connection commits meanwhile
        version, tables = db.execute(
            "SELECT user_version, (SELECT COUNT(*) FROM sqlite_master) FROM pragma_user_version"
        ).fetchone()
        if version == CACHE_VERSION:
            return False
        if version or tables:
            raise ValueError(f"it is of format {version}, not {CACHE_VERSION}; move it aside to start a new cache")
        return True

    def lookup_many(self, keys: Sequence[str]) -> dict[str, GenerationRecord]:
        """The records the cache holds for `keys`, read with one query per
        LOOKUP_CHUNK keys. A row that cannot be read is a miss."""
        for key in keys:
            if len(key) != 64:
                raise ValueError(f"cache key must be 64 hex chars: {key!r}")
        rows = []
        with self._lock:
            for i in range(0, len(keys), LOOKUP_CHUNK):
                chunk = keys[i : i + LOOKUP_CHUNK]
                rows += self._db.execute(
                    "SELECT key, request, response_text, response_image, created_at, provider FROM responses"
                    f" WHERE key IN ({','.join('?' * len(chunk))})",
                    chunk,
                ).fetchall()
        found = {}
        for key, request, text, image, created_at, provider in rows:
            try:
                found[key] = GenerationRecord(key, request, text, image, created_at, json.loads(provider))
            except (ValueError, TypeError):
                pass  # corrupted record: treat as a miss
        return found

    @staticmethod
    def _row(record: GenerationRecord) -> tuple:
        return (
            record.cache_key, record.request, record.response_text, record.response_image,
            record.created_at, json.dumps(record.provider, ensure_ascii=False),
        )

    def store_many(self, records: Iterable[GenerationRecord]) -> None:
        """Store `records` in one transaction: all of them or, on an error, none.

        A record replaces the row of its key, so a miss on a corrupted row overwrites it.
        """
        rows = [self._row(record) for record in records]
        with self._lock, self._db:  # commits, or rolls back on an error
            self._db.execute("BEGIN")
            self._db.executemany("INSERT OR REPLACE INTO responses VALUES (?, ?, ?, ?, ?, ?)", rows)

    def close(self) -> None:
        """Close the connection; the last one to close removes the -wal and -shm files."""
        with self._lock:
            self._db.close()


# ---------------------------------------------------------------------------
# deterministic mock backends


def _digest(*parts: str) -> bytes:
    import hashlib

    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x00")
    return h.digest()


def mock_chat(system_prompt: str, user_text: str) -> str:
    """Pure function of (system prompt, input): keeps a digest-chosen subset of
    the input's content words so downstream semantic overlap is meaningful."""
    d = _digest(system_prompt, user_text)
    words = user_text.split()
    if not words:
        return f"mock:{d.hex()[:12]}"
    # keep roughly half to three quarters of the words, stride from the digest
    stride = 1 + d[0] % 2
    kept = words[d[1] % max(1, len(words) // 4)::stride]
    if not kept:
        kept = words[:1]
    return " ".join(kept) + f" [mock:{d.hex()[:8]}]"


def mock_translate(text: str, source: str, target: str) -> str:
    marker = f"[{source}→{target}]"
    sentences = [s.strip() for s in text.replace("!", ".").replace("?", ".").split(".") if s.strip()]
    if not sentences:
        return marker
    return " ".join(f"{marker} {s}." for s in sentences)


@functools.lru_cache(maxsize=1 << 15)
def _trigram_bucket(tri: str) -> int:
    import hashlib

    digest = hashlib.blake2b(tri.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big") % MOCK_EMBED_DIM


def mock_embed(text: str) -> list[float]:
    """L2-normalized hashed character-trigram counts (dimension MOCK_EMBED_DIM)."""
    counts = [0.0] * MOCK_EMBED_DIM
    padded = f"  {text.lower()}  "
    for i in range(len(padded) - 2):
        counts[_trigram_bucket(padded[i : i + 3])] += 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    if norm == 0.0:
        counts[0] = 1.0
        norm = 1.0
    return [c / norm for c in counts]


def _png_1x1(rgb: tuple[int, int, int]) -> bytes:
    """Minimal valid 1x1 RGB PNG with the given pixel."""

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0)
    raw = b"\x00" + bytes(rgb)
    return (
        PNG_SIGNATURE
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


def mock_text_to_image(prompt: str) -> bytes:
    d = _digest(prompt)
    return _png_1x1((d[0], d[1], d[2]))


def mock_image_to_text(image: bytes, prompt: str) -> str:
    import hashlib

    d = hashlib.sha256(image).hexdigest()[:16]
    return f"A scene rendered from digest {d}. {prompt.split('.')[0]}."


# ---------------------------------------------------------------------------
# client


def _text(what: str) -> Callable[[GenerationRecord], str]:
    """The check of an operation that returns text: the record's text, which must be non-empty."""

    def check(record: GenerationRecord) -> str:
        if not record.response_text:
            raise ProviderError(f"empty {what}")
        return record.response_text

    return check


def _png(record: GenerationRecord) -> bytes:
    """The check of text_to_image: the record's image, which must be a PNG."""
    if not (record.response_image or b"").startswith(PNG_SIGNATURE):
        raise ProviderError("provider returned no PNG image")
    return record.response_image


class ProviderClient:
    """Cached provider frontend. One instance may serve several configs, and
    callers on several threads; two calls that miss the same key at once both
    compute it, and the cache keeps one row.

    Each operation takes a list of inputs and returns, in order, each input's
    (result, cache key) or the exception that failed it; embed_batch raises
    the first failure instead.
    """

    def __init__(
        self,
        cache: ResponseCache,
        offline: bool = False,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        max_workers: int = DEFAULT_MAX_WORKERS,
    ):
        self.cache = cache
        self.offline = offline
        self._session = session
        self._sleep = sleep
        self.max_workers = max_workers
        self._lock = threading.Lock()  # guards network_calls, counted on the threads of _fetch's pool
        self.network_calls = 0  # HTTP requests sent, retries included

    # -- public operations ------------------------------------------------

    def chat_generate(
        self, cfg: ProviderConfig, system_prompt: str, user_texts: Sequence[str]
    ) -> list[tuple[str, str] | Exception]:
        """The completion of each of `user_texts` under `system_prompt`."""
        payloads = [self._chat_payload(cfg, system_prompt, text) for text in user_texts]
        return self._fetch(cfg, payloads, lambda i: mock_chat(system_prompt, user_texts[i]), _text("completion"))

    def translate(
        self, cfg: ProviderConfig, texts: Sequence[str], source: str, target: str
    ) -> list[tuple[str, str] | Exception]:
        if source == target:
            raise ValueError(f"source and target language are both {source!r}")
        payloads = [
            {"op": "translate", "model": cfg.model, "text": text, "source": source, "target": target}
            for text in texts
        ]
        return self._fetch(cfg, payloads, lambda i: mock_translate(texts[i], source, target), _text("translation"))

    def embed_batch(self, cfg: ProviderConfig, texts: Sequence[str]) -> list[bytes]:
        """The embedding of each of `texts`, in order, packed as little-endian float64.

        Each distinct text is fetched once, all of them in one _fetch; the
        first failure is raised.
        """
        if not all(text.strip() for text in texts):
            raise ValueError("cannot embed empty text")
        payloads = [{"op": "embed", "model": cfg.model, "input": text} for text in texts]
        dimension = cfg.dimension or (MOCK_EMBED_DIM if cfg.is_mock else None)
        outcomes = self._fetch(
            cfg, payloads,
            lambda i: _pack_embedding(mock_embed(texts[i])), lambda record: _vector_row(record, dimension),
        )
        rows = []
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
            rows.append(outcome[0])
        return rows

    def text_to_image(self, cfg: ProviderConfig, prompts: Sequence[str]) -> list[tuple[bytes, str] | Exception]:
        payloads = [
            {"op": "text_to_image", "model": cfg.model, "prompt": prompt}
            if prompt.strip() else ValueError("empty image prompt")
            for prompt in prompts
        ]
        return self._fetch(cfg, payloads, lambda i: mock_text_to_image(prompts[i]), _png)

    def image_to_text(
        self, cfg: ProviderConfig, images: Sequence[bytes], prompt: str
    ) -> list[tuple[str, str] | Exception]:
        """The caption of each of `images`, each a PNG, under `prompt`."""
        import hashlib

        payloads = [
            {"op": "image_to_text", "model": cfg.model, "image_sha256": hashlib.sha256(image).hexdigest(),
             "prompt": prompt}
            if image.startswith(PNG_SIGNATURE) else ValueError("image payload is not a PNG")
            for image in images
        ]
        return self._fetch(
            cfg, payloads, lambda i: mock_image_to_text(images[i], prompt), _text("caption"),
            http_body=lambda i: self._caption_body(cfg, images[i], prompt),
        )

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _chat_payload(cfg: ProviderConfig, system_prompt: str, user_text: str) -> dict:
        payload = {
            "op": "chat",
            "model": cfg.model,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_text},
            ],
            "temperature": cfg.temperature,
        }
        if cfg.max_tokens is not None:
            payload["max_tokens"] = cfg.max_tokens
        if cfg.seed is not None:
            payload["seed"] = cfg.seed
        return payload

    @staticmethod
    def _caption_body(cfg: ProviderConfig, image: bytes, prompt: str) -> dict:
        """The chat request that asks for a caption of `image`, sent inline as a data URL."""
        url = "data:image/png;base64," + base64.b64encode(image).decode("ascii")
        content = [{"type": "text", "text": prompt}, {"type": "image_url", "image_url": {"url": url}}]
        return {"model": cfg.model, "messages": [{"role": "user", "content": content}]}

    def _fetch(
        self,
        cfg: ProviderConfig,
        payloads: Sequence[dict | Exception],
        mock_fn: Callable[[int], str | bytes],
        check: Callable[[GenerationRecord], T],
        http_body: Callable[[int], dict] | None = None,
    ) -> list[tuple[T, str] | Exception]:
        """The outcome of each of `payloads`, in order: (check(record), cache key)
        or the exception that failed it. A payload that is an exception is its
        own outcome.

        One lookup_many reads every distinct key, and each miss is computed
        once. Mock misses, mock_fn(index of the key's first payload) each, are
        computed in order on this thread and stored in one transaction. HTTP
        misses are sent on up to max_workers threads, each stored as soon as
        its response arrives, so a failure elsewhere in the batch loses none
        of them. A miss while offline fails with OfflineViolation. check runs
        on every record, and a miss it rejects is not stored, so the next call
        asks the provider again. A result is the record's text, or its BLOB if
        it is bytes.

        The body of an HTTP request is http_body(index of the key's first
        payload), or by default that payload without its op.
        """
        first: dict[str, tuple[int, str]] = {}  # key -> (index of its first payload, canonical request)
        keys: list[str | None] = []
        for i, payload in enumerate(payloads):
            if isinstance(payload, Exception):
                keys.append(None)
                continue
            if payload["op"] != cfg.kind:
                raise ValueError(f"{payload['op']} requires a {payload['op']} provider, got {cfg.kind!r}")
            canonical = canonical_request(payload)
            keys.append(cache_key_for(canonical))
            first.setdefault(keys[-1], (i, canonical))
        provider = cfg.summary()
        outcomes: dict[str, tuple[T, str] | Exception] = {}

        def checked(key: str, result: str | bytes) -> tuple[GenerationRecord, T]:
            text, blob = (None, result) if isinstance(result, bytes) else (result, None)
            record = GenerationRecord(key, first[key][1], text, blob, time.time(), provider)
            return record, check(record)

        def send(key: str) -> tuple[T, str]:
            i = first[key][0]
            body = http_body(i) if http_body else {k: v for k, v in payloads[i].items() if k != "op"}
            record, value = checked(key, self._http_call(cfg, body))
            self.cache.store_many([record])
            return value, key

        found = self.cache.lookup_many(list(first))
        misses = [key for key in first if key not in found]
        for key, record in found.items():
            try:
                outcomes[key] = check(record), key
            except ProviderError as exc:
                outcomes[key] = exc
        if cfg.is_mock:
            records = []
            for key in misses:
                try:
                    record, value = checked(key, mock_fn(first[key][0]))
                except Exception as exc:  # fails this payload alone, as an HTTP error would
                    outcomes[key] = exc
                else:
                    records.append(record)
                    outcomes[key] = value, key
            if records:
                self.cache.store_many(records)
        elif self.offline:
            for key in misses:
                outcomes[key] = OfflineViolation(f"cache miss for {key} with transport disabled")
        elif misses:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(self.max_workers, len(misses))) as pool:
                futures = {key: pool.submit(send, key) for key in misses}
            for key, future in futures.items():
                outcomes[key] = future.exception() or future.result()
        return [payload if key is None else outcomes[key] for payload, key in zip(payloads, keys)]

    def _http_call(self, cfg: ProviderConfig, body: dict):
        import requests  # deferred: mock and warm runs never send a request

        headers = {"Content-Type": "application/json"}
        if cfg.credential_env:
            key = os.environ.get(cfg.credential_env)
            if not key:
                raise ProviderError(f"credential env var {cfg.credential_env} is not set")
            headers["Authorization"] = f"Bearer {key}"
        session = self._session or requests
        last_err = None
        for attempt in range(1, RETRY_ATTEMPTS + 1):
            with self._lock:
                self.network_calls += 1
            try:
                resp = session.post(cfg.endpoint, json=body, headers=headers, timeout=120)
            except requests.RequestException as exc:
                last_err = str(exc)
            else:
                if resp.status_code < 400:
                    return self._parse_response(cfg, resp)
                if resp.status_code < 500:
                    raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:500]}")
                last_err = f"HTTP {resp.status_code}"
            if attempt < RETRY_ATTEMPTS:
                self._sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
        raise TransportError(f"{cfg.endpoint}: {last_err}", attempts=RETRY_ATTEMPTS)

    @staticmethod
    def _parse_response(cfg: ProviderConfig, resp):
        """The text, image or packed embedding of a response; ProviderError if its envelope is malformed."""
        try:
            obj = resp.json()
            if cfg.kind == "text_to_image":
                return base64.b64decode(obj["data"][0]["b64_json"])
            if cfg.kind == "embed":
                return _pack_embedding(obj["data"][0]["embedding"])
            if cfg.kind == "translate" and "choices" not in obj:
                text = obj["translation"]  # translation servers return either envelope
            else:
                text = obj["choices"][0]["message"]["content"]  # chat, image_to_text and translate
            if text is not None and not isinstance(text, str):  # None is an empty completion
                raise TypeError(f"the text is a {type(text).__name__}")
            return text
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed {cfg.kind} response: {exc!r}") from None
