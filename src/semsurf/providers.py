"""Provider access layer: chat, translation, embeddings, text-to-image and
image-to-text over OpenAI-style HTTP endpoints, plus a deterministic offline
mock and a content-addressed on-disk response cache.

Every call goes through the cache: the canonical request is hashed, and a hit
short-circuits all network I/O. Endpoints whose URL starts with "mock:" are
served by pure in-process functions, so the whole pipeline can run offline.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import struct
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import requests

PROVIDER_KINDS = ("chat", "translate", "embed", "text_to_image", "image_to_text")

MOCK_EMBED_DIM = 256

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 1.0


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
    embed_dimension: int | None = None  # declared dimension, checked on responses

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


@dataclass(frozen=True)
class GenerationRecord:
    cache_key: str
    request: str  # canonical serialized request
    response_text: str | None
    response_image: bytes | None
    created_at: float
    provider: dict

    def __post_init__(self):
        if len(self.cache_key) != 64 or any(c not in "0123456789abcdef" for c in self.cache_key):
            raise ValueError(f"cache_key must be 64 hex chars, got {self.cache_key!r}")


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("embedding must be non-empty")
        if any(not math.isfinite(v) for v in self.values):
            raise ValueError("embedding contains non-finite entries")

    @property
    def dimension(self) -> int:
        return len(self.values)


def canonical_request(payload: dict) -> str:
    """Stable serialization: sorted keys, no insignificant whitespace drift."""
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def cache_key_for(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResponseCache:
    """Content-addressed cache at <root>/<first 2 hex>/<key>.json.

    Writes are atomic (temp file + rename), so concurrent writers of the same
    key are idempotent. Image payloads live in a sibling .png file.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _paths(self, key: str) -> tuple[Path, Path]:
        d = self.root / key[:2]
        return d / f"{key}.json", d / f"{key}.png"

    def lookup(self, key: str) -> GenerationRecord | None:
        if len(key) != 64:
            raise ValueError(f"cache key must be 64 hex chars: {key!r}")
        json_path, png_path = self._paths(key)
        if not json_path.exists():
            return None
        try:
            obj = json.loads(json_path.read_text(encoding="utf-8"))
            image = png_path.read_bytes() if obj.get("has_image") else None
            return GenerationRecord(
                cache_key=obj["cache_key"],
                request=obj["request"],
                response_text=obj.get("response_text"),
                response_image=image,
                created_at=obj["created_at"],
                provider=obj["provider"],
            )
        except (ValueError, KeyError, OSError):
            # corrupted record: treat as a miss
            return None

    def store(self, record: GenerationRecord) -> None:
        json_path, png_path = self._paths(record.cache_key)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        if record.response_image is not None:
            self._atomic_write(png_path, record.response_image)
        obj = {
            "cache_key": record.cache_key,
            "request": record.request,
            "response_text": record.response_text,
            "has_image": record.response_image is not None,
            "created_at": record.created_at,
            "provider": record.provider,
        }
        self._atomic_write(json_path, json.dumps(obj, ensure_ascii=False).encode("utf-8"))

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


# ---------------------------------------------------------------------------
# deterministic mock backends


def _digest(*parts: str) -> bytes:
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


def mock_embed(text: str) -> EmbeddingVector:
    """L2-normalized hashed character-trigram counts (dimension MOCK_EMBED_DIM)."""
    counts = [0.0] * MOCK_EMBED_DIM
    padded = f"  {text.lower()}  "
    for i in range(len(padded) - 2):
        tri = padded[i : i + 3]
        idx = int.from_bytes(hashlib.blake2b(tri.encode("utf-8"), digest_size=4).digest(), "big")
        counts[idx % MOCK_EMBED_DIM] += 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    if norm == 0.0:
        counts[0] = 1.0
        norm = 1.0
    return EmbeddingVector(tuple(c / norm for c in counts))


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
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


def mock_text_to_image(prompt: str) -> bytes:
    d = _digest(prompt)
    return _png_1x1((d[0], d[1], d[2]))


def mock_image_to_text(image: bytes, prompt: str) -> str:
    d = hashlib.sha256(image).hexdigest()[:16]
    return f"A scene rendered from digest {d}. {prompt.split('.')[0]}."


# ---------------------------------------------------------------------------
# client


class ProviderClient:
    """Cached provider frontend. One instance may serve several configs."""

    def __init__(
        self,
        cache: ResponseCache,
        offline: bool = False,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cache = cache
        self.offline = offline
        self._session = session
        self._sleep = sleep
        self._lock = threading.Lock()
        self.network_calls = 0  # HTTP requests sent, retries included

    # -- public operations ------------------------------------------------

    def chat_generate(self, cfg: ProviderConfig, system_prompt: str, user_text: str) -> tuple[str, str]:
        """Returns (completion text, cache key)."""
        if cfg.kind != "chat":
            raise ValueError(f"chat_generate requires a chat provider, got {cfg.kind!r}")
        payload = self._chat_payload(cfg, system_prompt, user_text)
        rec = self._fetch(cfg, payload, lambda: mock_chat(system_prompt, user_text))
        if not rec.response_text:
            raise ProviderError("empty completion")
        return rec.response_text, rec.cache_key

    def translate(self, cfg: ProviderConfig, text: str, source: str, target: str) -> tuple[str, str]:
        if cfg.kind != "translate":
            raise ValueError(f"translate requires a translate provider, got {cfg.kind!r}")
        if source == target:
            raise ValueError(f"source and target language are both {source!r}")
        payload = {
            "op": "translate",
            "model": cfg.model,
            "text": text,
            "source": source,
            "target": target,
        }
        rec = self._fetch(cfg, payload, lambda: mock_translate(text, source, target))
        if not rec.response_text:
            raise ProviderError("empty translation")
        return rec.response_text, rec.cache_key

    def embed(self, cfg: ProviderConfig, text: str) -> EmbeddingVector:
        if cfg.kind != "embed":
            raise ValueError(f"embed requires an embed provider, got {cfg.kind!r}")
        if not text.strip():
            raise ValueError("cannot embed empty text")
        payload = {"op": "embed", "model": cfg.model, "input": text}
        rec = self._fetch(
            cfg, payload, lambda: json.dumps(list(mock_embed(text).values))
        )
        vec = EmbeddingVector(tuple(json.loads(rec.response_text)))
        expected = cfg.embed_dimension or (MOCK_EMBED_DIM if cfg.is_mock else None)
        if expected is not None and vec.dimension != expected:
            raise ProviderError(f"embedding dimension {vec.dimension} != declared {expected}")
        return vec

    def text_to_image(self, cfg: ProviderConfig, prompt: str) -> tuple[bytes, str]:
        if cfg.kind != "text_to_image":
            raise ValueError(f"text_to_image requires a text_to_image provider, got {cfg.kind!r}")
        if not prompt.strip():
            raise ValueError("empty image prompt")
        payload = {"op": "text_to_image", "model": cfg.model, "prompt": prompt}
        rec = self._fetch(cfg, payload, lambda: mock_text_to_image(prompt), image=True)
        if not rec.response_image:
            raise ProviderError("provider returned no image")
        return rec.response_image, rec.cache_key

    def image_to_text(self, cfg: ProviderConfig, image: bytes, prompt: str) -> tuple[str, str]:
        if cfg.kind != "image_to_text":
            raise ValueError(f"image_to_text requires an image_to_text provider, got {cfg.kind!r}")
        if not image.startswith(b"\x89PNG\r\n\x1a\n"):
            raise ValueError("image payload is not a PNG")
        payload = {
            "op": "image_to_text",
            "model": cfg.model,
            "image_sha256": hashlib.sha256(image).hexdigest(),
            "prompt": prompt,
        }
        rec = self._fetch(cfg, payload, lambda: mock_image_to_text(image, prompt))
        if not rec.response_text:
            raise ProviderError("empty caption")
        return rec.response_text, rec.cache_key

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

    def _fetch(self, cfg, payload, mock_fn, image: bool = False) -> GenerationRecord:
        canonical = canonical_request(payload)
        key = cache_key_for(canonical)
        hit = self.cache.lookup(key)
        if hit is not None:
            return hit
        if cfg.is_mock:
            result = mock_fn()
        elif self.offline:
            raise OfflineViolation(f"cache miss for {key} with transport disabled")
        else:
            result = self._http_call(cfg, payload, image=image)
        record = GenerationRecord(
            cache_key=key,
            request=canonical,
            response_text=None if image else result,
            response_image=result if image else None,
            created_at=time.time(),
            provider=cfg.summary(),
        )
        self.cache.store(record)
        # read back so concurrent writers agree on the surviving record
        stored = self.cache.lookup(key)
        return stored if stored is not None else record

    def _http_call(self, cfg: ProviderConfig, payload: dict, image: bool):
        headers = {"Content-Type": "application/json"}
        if cfg.credential_env:
            key = os.environ.get(cfg.credential_env)
            if not key:
                raise ProviderError(f"credential env var {cfg.credential_env} is not set")
            headers["Authorization"] = f"Bearer {key}"
        session = self._session or requests
        body = dict(payload)
        body.pop("op", None)
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
                    return self._parse_response(cfg, resp, image)
                if resp.status_code < 500:
                    raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:500]}")
                last_err = f"HTTP {resp.status_code}"
            if attempt < RETRY_ATTEMPTS:
                self._sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
        raise TransportError(f"{cfg.endpoint}: {last_err}", attempts=RETRY_ATTEMPTS)

    @staticmethod
    def _parse_response(cfg: ProviderConfig, resp, image: bool):
        obj = resp.json()
        if image:
            return base64.b64decode(obj["data"][0]["b64_json"])
        if cfg.kind == "embed":
            return json.dumps(obj["data"][0]["embedding"])
        if cfg.kind == "translate" and "choices" not in obj:
            return obj["translation"]  # translation servers return either envelope
        if cfg.kind in ("chat", "image_to_text", "translate"):
            return obj["choices"][0]["message"]["content"]
        raise ProviderError(f"no parser for provider kind {cfg.kind!r}")
