"""Cached chat-completion gateway with live, replay, and mock modes.

Every request is keyed by a digest of its semantic fields; completions are
persisted to an append-only JSONL cache. Replay mode serves cached
completions only and never touches the network, which is what makes
experiment runs reproducible after the fact. A live key goes upstream once
while its call is in flight; calls are retried with exponential backoff on
transient failures, waiting at least as long as a `Retry-After` asks, and
bounded by a concurrency limit. Decoding is fixed:
greedy, at most `DEFAULT_MAX_TOKENS`, stopped at the prompt's block
separator. A completion cut off at that limit is an error, never a cached
success. A stream resolves a lazy iterable of requests in order, sending
each key once: up to twice as many worker threads as send slots pull the
requests (building each as they pull it) and call `Gateway.complete` (a
request that is backing off holds a thread but no slot); a repeated key
waits for the request of its key before it, then gets a cache hit, or a
resend if that request failed. The records come back and the cache lines
are written in request order, so the cache file never depends on which
call finished first. A failed request does not stop
the stream: every other request is still sent and cached before the first
failure is raised, so a rerun pays only for what failed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

from privqa._digest import sha256
from privqa.errors import PrivqaError, field
from privqa.promptkit import STOP_SEQUENCE, PromptText

PROMPT_STYLE = "single-user-message"
TEMPERATURE = 0.0
DEFAULT_MAX_TOKENS = 1024
STOP = (STOP_SEQUENCE,)
DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_MAX_ATTEMPTS = 5
DEFAULT_BACKOFF_START = 1.0
DEFAULT_CREDENTIAL_ENV = "PRIVQA_API_KEY"
HTTP_TIMEOUT_S = 60.0
MAX_RETRY_AFTER_S = 60.0

MODES = ("live", "replay", "mock")


class GatewayError(PrivqaError):
    """Request construction, transport, or mock lookup failed."""


class ReplayCacheMiss(GatewayError):
    """Replay mode was asked for a request that was never cached."""


class TransportError(GatewayError):
    """The HTTP layer failed in a way that may be retried."""


@dataclass(frozen=True)
class GenerationRequest:
    """One completion request; its decoding settings are the module constants."""

    model_id: str
    prompt: PromptText


@dataclass(frozen=True)
class GenerationRecord:
    cache_key: str
    completion: str
    source: str  # "live" | "replay" | "mock" | "synthetic"
    retries: int = 0


def _decoding() -> dict:
    """The fixed decoding settings, as every request is keyed, summarized and sent."""
    return {"temperature": TEMPERATURE, "max_tokens": DEFAULT_MAX_TOKENS, "stop": list(STOP)}


def cache_key(request: GenerationRequest) -> str:
    """Collision-resistant digest over the request's semantic fields."""
    payload = json.dumps(
        {
            "model_id": request.model_id,
            **_decoding(),
            "prompt": request.prompt.text,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return sha256(payload.encode("utf-8")).hexdigest()


def _request_summary(request: GenerationRequest) -> dict:
    return {
        "model_id": request.model_id,
        **_decoding(),
        "prompt_chars": len(request.prompt.text),
        "demo_count": request.prompt.demo_count,
        "query_id": request.prompt.query_id,
        "prompt_style": PROMPT_STYLE,
    }


@dataclass
class TransportReply:
    status: int
    body: dict
    retry_after: float | None = None  # seconds, from a `Retry-After` header


def _retry_after_seconds(value: str | None) -> float | None:
    """A `Retry-After` header in its seconds form; an HTTP-date or anything else is None."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class HttpTransport:
    """POSTs chat-completion payloads; credential comes from an env var.

    One opener, built here and shared by the pool threads, sends every
    request; it honours the `*_proxy` environment variables and follows no
    redirect. An HTTP error status, a 30x included, comes back as a reply,
    with its `Retry-After` seconds. A failure
    to connect, a timeout or a broken response raises `TransportError`.
    """

    def __init__(self, url: str, credential_env: str = DEFAULT_CREDENTIAL_ENV) -> None:
        # imported here, not at module level: only live generation sends, and
        # an HTTP stack loaded on import costs every other command memory
        import http.client
        import urllib.error
        import urllib.parse
        import urllib.request

        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            """A 30x comes back as its status; the credential never follows a `Location`."""

            def redirect_request(self, *args, **kwargs):
                return None

        if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
            raise GatewayError(f"api url {url!r} must start with http:// or https://")
        self.url = url
        self.credential_env = credential_env
        self._opener = urllib.request.build_opener(RefuseRedirects)
        self._request = urllib.request.Request
        self._status_error = urllib.error.HTTPError
        self._failures = (OSError, http.client.HTTPException)
        self._lock = threading.Lock()
        self.calls = 0

    def send(self, payload: dict) -> TransportReply:
        key = os.environ.get(self.credential_env)
        if not key:
            raise GatewayError(f"credential env var {self.credential_env} is not set")
        with self._lock:
            self.calls += 1
        request = self._request(
            self.url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Authorization": f"Bearer {key}", "Content-Type": "application/json"},
            method="POST",
        )
        try:
            try:
                with self._opener.open(request, timeout=HTTP_TIMEOUT_S) as resp:
                    status, raw, retry_after = resp.status, resp.read(), None
            except self._status_error as exc:  # an error status is a reply
                with exc:
                    status, raw = exc.code, exc.read()
                    retry_after = _retry_after_seconds(exc.headers.get("Retry-After"))
        except self._failures as exc:
            raise TransportError(f"request failed: {exc}") from exc
        try:
            body = json.loads(raw)
        except ValueError:
            body = {}
        return TransportReply(status, body, retry_after)


class MockTransport:
    """Scripted transport for tests: a list of replies/exceptions, or a callable.

    Safe to call from several threads; a callable script runs outside the
    lock, so its latency overlaps.
    """

    def __init__(self, script: list[TransportReply | Exception] | Callable[[dict], TransportReply]):
        self._script = script
        self._lock = threading.Lock()
        self.calls = 0
        self.payloads: list[dict] = []

    def send(self, payload: dict) -> TransportReply:
        with self._lock:
            self.calls += 1
            self.payloads.append(payload)
            if not callable(self._script):
                if not self._script:
                    raise GatewayError("mock transport script exhausted")
                item = self._script.pop(0)
        if callable(self._script):
            return self._script(payload)
        if isinstance(item, Exception):
            raise item
        return item


def _chat_payload(request: GenerationRequest) -> dict:
    return {
        "model": request.model_id,
        "messages": [{"role": "user", "content": request.prompt.text}],
        **_decoding(),
    }


def _cache_line(record: GenerationRecord, request: GenerationRequest) -> str:
    """One cache line; it carries no wall-clock time, so identical runs write identical files."""
    return json.dumps(
        {
            "cache_key": record.cache_key,
            "summary": _request_summary(request),
            "completion": record.completion,
            "source": record.source,
            "truncated": False,  # a truncated completion is never cached
            "retries": record.retries,
        },
        ensure_ascii=False,
    ) + "\n"


class Gateway:
    """Mode-switched completion service over one JSONL response cache.

    Thread-safe: cache reads/writes are locked, and a semaphore bounds
    concurrent upstream sends at `max_in_flight`; a request holds its slot
    only while it is being sent, not while it backs off. A live key goes
    upstream once while its call is in flight: concurrent requests for it
    wait and share the result, or the failure. A request that starts after that call
    failed goes upstream again.

    `stream` resolves a lazy iterable of requests in order: worker threads,
    up to `2 * max_in_flight` of them, pull each request as they get to it
    and resolve each through `complete`, so another request can take the
    slot of one that is backing off; a repeat waits for the request of its
    key before it, and the cache lines land in request order. A failure is
    raised only after every other request has been sent and cached.

    `clock` is accepted and ignored: cache lines carry no timestamp.
    """

    def __init__(
        self,
        cache_path: str | Path,
        transport: HttpTransport | MockTransport | None = None,
        mock_completions: dict[str, str] | None = None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        backoff_start: float = DEFAULT_BACKOFF_START,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise GatewayError(f"max_in_flight {max_in_flight} must be at least 1")
        self.cache_path = Path(cache_path)
        self.transport = transport
        self.mock_completions = mock_completions or {}
        self.max_in_flight = max_in_flight
        self.backoff_start = backoff_start
        self._sleep = sleep
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
        # bytes, so a line that is not UTF-8 is skipped like one that is not JSON
        with self.cache_path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line.decode("utf-8"))
                    if field(rec, "truncated", bool, GatewayError, False):
                        raise GatewayError("a truncated completion is never served")
                    record = GenerationRecord(
                        cache_key=field(rec, "cache_key", str, GatewayError),
                        completion=field(rec, "completion", str, GatewayError),
                        source=field(rec, "source", str, GatewayError, "live"),
                        retries=field(rec, "retries", int, GatewayError, 0),
                    )
                except (ValueError, GatewayError) as exc:
                    import logging  # loaded only when there is something to warn about

                    logging.getLogger(__name__).warning(
                        "skipping corrupt cache line %s:%d (%s)", self.cache_path, lineno, exc
                    )
                    continue
                self._cache[record.cache_key] = record

    def _append(self, line: str) -> None:
        with self._lock:
            self.cache_path.parent.mkdir(parents=True, exist_ok=True)
            with self.cache_path.open("a", encoding="utf-8") as fh:
                fh.write(line)

    def _store(self, record: GenerationRecord, request: GenerationRequest, persist: bool) -> None:
        with self._lock:
            self._cache[record.cache_key] = record
        if persist:
            self._append(_cache_line(record, request))

    def complete(
        self, request: GenerationRequest, mode: str, *, persist: bool = True
    ) -> GenerationRecord:
        """Resolve one request under the given mode.

        Cached keys are served from the cache in every mode. In live mode one
        lock section decides: a cache hit, a wait on the key's in-flight call,
        or owning that call. A fresh record enters the in-memory cache at
        once; with `persist=False` its cache line is left to the caller.
        """
        if mode not in MODES:
            raise GatewayError(f"unknown mode {mode!r}; expected one of {MODES}")
        key = cache_key(request)

        with self._lock:
            cached = self._cache.get(key)
            waiter = None
            if cached is None and mode == "live":
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
        if waiter is not None:
            waiter.wait()
            with self._lock:
                cached = self._cache.get(key)
            if cached is None:
                raise GatewayError(f"in-flight request for key {key} failed")
        if cached is not None:
            return replace(cached, source="replay")

        if mode == "replay":
            raise ReplayCacheMiss(f"no cached completion for key {key}")
        if mode == "mock":
            qid = request.prompt.query_id
            if qid not in self.mock_completions:
                raise GatewayError(f"no canned completion for query id {qid!r}")
            record = GenerationRecord(
                cache_key=key, completion=self.mock_completions[qid], source="mock"
            )
            self._store(record, request, persist)
            return record

        # live, and this call owns the key's in-flight Event
        try:
            if self.transport is None:
                raise GatewayError("live mode requires a transport")
            record = self._call_upstream(request, key)
            self._store(record, request, persist)
            return record
        finally:
            with self._lock:
                self._inflight.pop(key).set()

    def stream(
        self, requests: Iterable[GenerationRequest], mode: str
    ) -> Iterator[GenerationRecord]:
        """Resolve a lazy iterable of requests; the records come back in request order.

        Requests are pulled one at a time, on the calling thread until the
        first live cache miss, then by up to `2 * max_in_flight` worker
        threads, each pulling (and so building) its next request as it
        finishes the last. The semaphore alone bounds concurrent sends; the
        spare thread per slot sends while a request sleeps out a 429/5xx
        backoff or a `Retry-After`, which would otherwise idle its slot. At
        most `2 * max_in_flight` requests are pulled but unresolved at once,
        since a worker resolves each request it pulls before it pulls another.
        Each key is sent once: a repeat waits on its worker until the request
        of its key before it has resolved, so it gets a cache hit, or tries
        again if that request failed. Every record that did not come from the
        cache gets its cache line, in request order, as it is yielded. A failure, in a request or in
        building one, is not raised at once: every remaining request is
        still resolved and cached, then the first failure in request order
        is raised. Closing the stream early stops the pulling, resolves
        every request already pulled, repeats included, and writes their
        lines. No worker thread outlives the stream. The workers are daemon
        threads, so an interrupted process need not wait out a hung send.
        """
        if mode not in MODES:
            raise GatewayError(f"unknown mode {mode!r}; expected one of {MODES}")
        return iter(_Stream(self, requests, mode))

    def _call_upstream(self, request: GenerationRequest, key: str) -> GenerationRecord:
        payload = _chat_payload(request)
        backoff = self.backoff_start
        retry_after = 0.0
        last_error = "no attempts made"
        for attempt in range(DEFAULT_MAX_ATTEMPTS):
            if attempt:
                self._sleep(max(backoff, retry_after))
                backoff *= 2
                retry_after = 0.0
            try:
                with self._sem:
                    reply = self.transport.send(payload)
            except TransportError as exc:
                last_error = str(exc)
                continue
            finally:
                # A request waiting for the slot just freed needs the
                # interpreter lock to send; a zero sleep gives it up, so that
                # request sends before this thread reads its reply and builds
                # its next request (else the slot idles meanwhile).
                time.sleep(0)
            if reply.status == 429 or reply.status >= 500:
                last_error = f"upstream status {reply.status}"
                if reply.status in (429, 503) and reply.retry_after is not None:
                    retry_after = min(reply.retry_after, MAX_RETRY_AFTER_S)
                continue
            if reply.status != 200:
                raise GatewayError(f"upstream status {reply.status}: {reply.body}")
            try:
                choice = reply.body["choices"][0]
                completion = field(choice, ("message", "content"), str, TypeError)
                finish = choice.get("finish_reason", "stop")
            except (KeyError, IndexError, TypeError) as exc:
                raise GatewayError(f"malformed upstream response: {reply.body}") from exc
            if finish == "length":
                # greedy decoding would stop at the same token again, so no retry
                raise GatewayError(
                    f"completion for key {key} stopped at max_tokens {DEFAULT_MAX_TOKENS};"
                    " not cached"
                )
            return GenerationRecord(
                cache_key=key, completion=completion, source="live", retries=attempt
            )
        raise GatewayError(
            f"giving up after {DEFAULT_MAX_ATTEMPTS} attempts for key {key}: {last_error}"
        )


class _Stream:
    """One `Gateway.stream`: requests pulled in order, outcomes posted by position.

    An outcome is a resolved `(record, cache line or None)` or an exception.
    Each worker resolves the request it pulled before it pulls another; a
    repeated key first waits until the request of its key before it has
    been posted or taken.
    """

    def __init__(self, gateway: Gateway, requests: Iterable[GenerationRequest], mode: str):
        self.gateway = gateway
        self.mode = mode
        self.width = 2 * gateway.max_in_flight
        self.requests = iter(requests)
        self.pull_lock = threading.Lock()  # guards the requests and the three fields below
        self.pulled = 0
        self.done = False  # the requests ran out, or `close` was called
        self.last: dict[str, int] = {}  # each key's last pulled position
        self.cond = threading.Condition()  # guards `posted` and `taken`
        self.posted: dict[int, object] = {}
        self.taken = 0  # the next position the consumer takes
        self.workers: list[threading.Thread] = []

    def pull(self) -> tuple[int, GenerationRequest | Exception, str, int] | None:
        """The next position, its request, key, and the position of its key before (or -1).

        None once the requests are exhausted or the stream is closing. A
        request that fails to build takes its position as the exception, and
        ends the requests.
        """
        with self.pull_lock:
            if self.done:
                return None
            pos = self.pulled
            try:
                request = next(self.requests)
            except StopIteration:
                self.done = True
                return None
            except Exception as exc:
                self.pulled += 1
                self.done = True
                return pos, exc, "", -1
            self.pulled += 1
            key = cache_key(request)
            before = self.last.get(key, -1)
            self.last[key] = pos
            return pos, request, key, before

    def resolve(self, request: GenerationRequest) -> tuple[GenerationRecord, str | None] | Exception:
        try:
            record = self.gateway.complete(request, self.mode, persist=False)
        except Exception as exc:  # raised by the consumer, in request order
            return exc
        return record, None if record.source == "replay" else _cache_line(record, request)

    def work(self, item: tuple | None) -> None:
        """Resolve and post `item`, then pull and resolve until the requests run out."""
        item = item or self.pull()
        while item is not None:
            pos, request, _, before = item
            with self.cond:  # a repeat: a hit after its key's request, or a resend if that failed
                while before >= self.taken and before not in self.posted:
                    self.cond.wait()
            outcome = request if isinstance(request, Exception) else self.resolve(request)
            with self.cond:
                self.posted[pos] = outcome
                self.cond.notify_all()
            item = self.pull()
        with self.cond:
            self.cond.notify_all()

    def take(self, pos: int) -> tuple[GenerationRecord, str | None] | Exception | None:
        """The resolved outcome at `pos`; None past the last request."""
        if not self.workers:
            item = self.pull()
            if item is None:
                return None
            _, request, key, before = item
            if isinstance(request, Exception):
                return request
            with self.gateway._lock:
                hit = key in self.gateway._cache
            if before >= 0 or hit or self.mode != "live":
                return self.resolve(request)
            self.taken = pos  # every request before it resolved here
            self.workers = [
                threading.Thread(target=self.work, args=(item if i == 0 else None,), daemon=True)
                for i in range(self.width)
            ]
            for worker in self.workers:
                worker.start()
        with self.cond:
            while pos not in self.posted and not (self.done and pos >= self.pulled):
                self.cond.wait()
            self.taken = pos + 1
            return self.posted.pop(pos, None)

    def close(self) -> None:
        """Stop pulling, let the workers resolve what they pulled, cache what was not taken."""
        # not under the pull lock: a worker blocked building its request holds
        # that lock, and every worker waiting on it would pull once more
        self.done = True
        for worker in self.workers:
            worker.join()
        for pos in sorted(self.posted):
            outcome = self.posted.pop(pos)
            if isinstance(outcome, tuple) and outcome[1] is not None:
                self.gateway._append(outcome[1])

    def __iter__(self) -> Iterator[GenerationRecord]:
        failure: Exception | None = None
        pos = 0
        try:
            while (outcome := self.take(pos)) is not None:
                pos += 1
                if isinstance(outcome, Exception):
                    failure = failure or outcome
                    continue
                record, line = outcome
                if line is not None:
                    self.gateway._append(line)
                if failure is None:
                    yield record
        finally:
            self.close()
        if failure is not None:
            raise failure
