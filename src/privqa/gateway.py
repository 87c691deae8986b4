"""Cached chat-completion gateway with live, replay, and mock modes.

Every request is keyed by a digest of its semantic fields; completions are
persisted to an append-only JSONL cache. Replay mode serves cached
completions only and never touches the network, which is what makes
experiment runs reproducible after the fact. Live calls are deduplicated
in-flight per key, retried with exponential backoff on transient failures,
and bounded by a concurrency limit.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import requests

from privqa.promptkit import STOP_SEQUENCE, PromptText

log = logging.getLogger(__name__)

PROMPT_STYLE = "single-user-message"
DEFAULT_MAX_TOKENS = 1024
DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_MAX_ATTEMPTS = 5
DEFAULT_BACKOFF_START = 1.0
DEFAULT_CREDENTIAL_ENV = "PRIVQA_API_KEY"

MODES = ("live", "replay", "mock")


class GatewayError(Exception):
    """Request construction, transport, or mock lookup failed."""


class ReplayCacheMiss(GatewayError):
    """Replay mode was asked for a request that was never cached."""


class TransportError(GatewayError):
    """The HTTP layer failed in a way that may be retried."""


@dataclass(frozen=True)
class GenerationRequest:
    model_id: str
    prompt: PromptText
    temperature: float = 0.0
    max_tokens: int = DEFAULT_MAX_TOKENS
    stop: tuple[str, ...] = (STOP_SEQUENCE,)

    def validate(self) -> None:
        if self.temperature != 0.0:
            raise GatewayError("generation is greedy; temperature must be 0.0")
        if self.max_tokens <= 0:
            raise GatewayError("max_tokens must be positive")
        if STOP_SEQUENCE not in self.stop:
            raise GatewayError("stop sequences must include the prompt block separator")


@dataclass(frozen=True)
class GenerationRecord:
    cache_key: str
    completion: str
    source: str  # "live" | "replay" | "mock"
    timestamp: float
    truncated: bool = False
    retries: int = 0


def cache_key(request: GenerationRequest) -> str:
    """Collision-resistant digest over the request's semantic fields."""
    payload = json.dumps(
        {
            "model_id": request.model_id,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "stop": list(request.stop),
            "prompt": request.prompt.text,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _request_summary(request: GenerationRequest) -> dict:
    return {
        "model_id": request.model_id,
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "stop": list(request.stop),
        "prompt_chars": len(request.prompt.text),
        "demo_count": request.prompt.demo_count,
        "query_id": request.prompt.query_id,
        "prompt_style": PROMPT_STYLE,
    }


@dataclass
class TransportReply:
    status: int
    body: dict


class HttpTransport:
    """POSTs chat-completion payloads; credential comes from an env var."""

    def __init__(
        self,
        url: str,
        credential_env: str = DEFAULT_CREDENTIAL_ENV,
        timeout: float = 60.0,
    ) -> None:
        self.url = url
        self.credential_env = credential_env
        self.timeout = timeout
        self.calls = 0

    def send(self, payload: dict) -> TransportReply:
        key = os.environ.get(self.credential_env)
        if not key:
            raise GatewayError(f"credential env var {self.credential_env} is not set")
        self.calls += 1
        try:
            resp = requests.post(
                self.url,
                json=payload,
                headers={"Authorization": f"Bearer {key}"},
                timeout=self.timeout,
            )
        except requests.Timeout as exc:
            raise TransportError("request timed out") from exc
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc}") from exc
        try:
            body = resp.json()
        except ValueError:
            body = {}
        return TransportReply(status=resp.status_code, body=body)


class MockTransport:
    """Scripted transport for tests: a list of replies/exceptions, or a callable."""

    def __init__(self, script: list[TransportReply | Exception] | Callable[[dict], TransportReply]):
        self._script = script
        self.calls = 0
        self.payloads: list[dict] = []

    def send(self, payload: dict) -> TransportReply:
        self.calls += 1
        self.payloads.append(payload)
        if callable(self._script):
            return self._script(payload)
        if not self._script:
            raise GatewayError("mock transport script exhausted")
        item = self._script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _chat_payload(request: GenerationRequest) -> dict:
    return {
        "model": request.model_id,
        "messages": [{"role": "user", "content": request.prompt.text}],
        "temperature": request.temperature,
        "max_tokens": request.max_tokens,
        "stop": list(request.stop),
    }


class Gateway:
    """Mode-switched completion service over one JSONL response cache.

    Thread-safe: cache reads/writes are locked, per-key in-flight requests
    are deduplicated so a key hits the upstream at most once per run, and a
    semaphore bounds concurrent upstream calls.
    """

    def __init__(
        self,
        cache_path: str | Path,
        transport: HttpTransport | MockTransport | None = None,
        mock_completions: dict[str, str] | None = None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_start: float = DEFAULT_BACKOFF_START,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.cache_path = Path(cache_path)
        self.transport = transport
        self.mock_completions = mock_completions or {}
        self.max_attempts = max_attempts
        self.backoff_start = backoff_start
        self._sleep = sleep
        self._clock = clock
        self._lock = threading.Lock()
        self._inflight: dict[str, threading.Event] = {}
        self._sem = threading.BoundedSemaphore(max_in_flight)
        self._cache: dict[str, GenerationRecord] = {}
        self._load_cache()

    @property
    def transport_calls(self) -> int:
        return self.transport.calls if self.transport is not None else 0

    def __len__(self) -> int:
        return len(self._cache)

    def _load_cache(self) -> None:
        if not self.cache_path.exists():
            return
        with self.cache_path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    record = GenerationRecord(
                        cache_key=rec["cache_key"],
                        completion=rec["completion"],
                        source=rec.get("source", "live"),
                        timestamp=float(rec.get("timestamp", 0.0)),
                        truncated=bool(rec.get("truncated", False)),
                    )
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    log.warning("skipping corrupt cache line %s:%d", self.cache_path, lineno)
                    continue
                self._cache[record.cache_key] = record

    def _persist(self, record: GenerationRecord, request: GenerationRequest) -> None:
        line = json.dumps(
            {
                "cache_key": record.cache_key,
                "summary": _request_summary(request),
                "completion": record.completion,
                "source": record.source,
                "timestamp": record.timestamp,
                "truncated": record.truncated,
            },
            ensure_ascii=False,
        )
        with self._lock:
            self.cache_path.parent.mkdir(parents=True, exist_ok=True)
            with self.cache_path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            self._cache[record.cache_key] = record

    def _replay_record(self, key: str) -> GenerationRecord:
        cached = self._cache[key]
        return GenerationRecord(
            cache_key=key,
            completion=cached.completion,
            source="replay",
            timestamp=cached.timestamp,
            truncated=cached.truncated,
        )

    def complete(self, request: GenerationRequest, mode: str) -> GenerationRecord:
        """Resolve one request under the given mode.

        Cached keys are served from the cache in every mode, which gives
        at-most-once upstream semantics per key.
        """
        if mode not in MODES:
            raise GatewayError(f"unknown mode {mode!r}; expected one of {MODES}")
        request.validate()
        key = cache_key(request)

        with self._lock:
            hit = key in self._cache
        if hit:
            return self._replay_record(key)

        if mode == "replay":
            raise ReplayCacheMiss(f"no cached completion for key {key}")
        if mode == "mock":
            qid = request.prompt.query_id
            if qid not in self.mock_completions:
                raise GatewayError(f"no canned completion for query id {qid!r}")
            record = GenerationRecord(
                cache_key=key,
                completion=self.mock_completions[qid],
                source="mock",
                timestamp=self._clock(),
            )
            self._persist(record, request)
            return record

        # live
        if self.transport is None:
            raise GatewayError("live mode requires a transport")
        with self._lock:
            waiter = self._inflight.get(key)
            if waiter is None:
                self._inflight[key] = threading.Event()
        if waiter is not None:
            waiter.wait()
            with self._lock:
                if key in self._cache:
                    return self._replay_record(key)
            raise GatewayError(f"in-flight request for key {key} failed")
        try:
            record = self._call_upstream(request, key)
            self._persist(record, request)
            return record
        finally:
            with self._lock:
                self._inflight.pop(key).set()

    def _call_upstream(self, request: GenerationRequest, key: str) -> GenerationRecord:
        payload = _chat_payload(request)
        backoff = self.backoff_start
        last_error = "no attempts made"
        for attempt in range(self.max_attempts):
            if attempt:
                self._sleep(backoff)
                backoff *= 2
            try:
                with self._sem:
                    reply = self.transport.send(payload)
            except TransportError as exc:
                last_error = str(exc)
                continue
            if reply.status == 429 or reply.status >= 500:
                last_error = f"upstream status {reply.status}"
                continue
            if reply.status != 200:
                raise GatewayError(f"upstream status {reply.status}: {reply.body}")
            try:
                choice = reply.body["choices"][0]
                completion = choice["message"]["content"]
                finish = choice.get("finish_reason", "stop")
            except (KeyError, IndexError, TypeError) as exc:
                raise GatewayError(f"malformed upstream response: {reply.body}") from exc
            truncated = finish == "length"
            if truncated:
                log.warning("completion for key %s truncated at max_tokens", key)
            return GenerationRecord(
                cache_key=key,
                completion=completion,
                source="live",
                timestamp=self._clock(),
                truncated=truncated,
                retries=attempt,
            )
        raise GatewayError(
            f"giving up after {self.max_attempts} attempts for key {key}: {last_error}"
        )
