import contextlib
import json
import random
import socket
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privqa import cli, gateway
from privqa.corpus import load_augmented, write_dataset
from privqa.gateway import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_MAX_TOKENS,
    Gateway,
    GatewayError,
    GenerationRequest,
    MAX_RETRY_AFTER_S,
    HttpTransport,
    MockTransport,
    ReplayCacheMiss,
    TransportError,
    TransportReply,
    cache_key,
)
from privqa.keywords import save_keyword_sets
from privqa.promptkit import STOP_SEQUENCE, PromptText
from privqa.synthetic import SyntheticContextProvider, SyntheticSpec, build_corpus

PROMPT = PromptText(
    text="Question Keywords: a\nCandidate Answers: (a) x (b) y\nContext:",
    demo_count=1,
    query_id="q1",
)
REQUEST = GenerationRequest(model_id="test-model", prompt=PROMPT)


def ok(text, finish="stop"):
    return TransportReply(
        200, {"choices": [{"message": {"content": text}, "finish_reason": finish}]}
    )


def test_cache_key_frozen():
    assert cache_key(REQUEST) == (
        "f680f196beeea26f7fca08c88f6e2533a3504b60c049b091fbc5c0529b380092"
    )


def test_cache_key_covers_semantic_fields_only():
    other_prompt = GenerationRequest(
        model_id="test-model",
        prompt=PromptText(text=PROMPT.text + " ", demo_count=1, query_id="q1"),
    )
    other_model = GenerationRequest(model_id="other", prompt=PROMPT)
    # query id is bookkeeping, not request content
    other_qid = GenerationRequest(
        model_id="test-model",
        prompt=PromptText(text=PROMPT.text, demo_count=1, query_id="q2"),
    )
    base = cache_key(REQUEST)
    assert cache_key(other_prompt) != base
    assert cache_key(other_model) != base
    assert cache_key(other_qid) == base


def test_unknown_mode(tmp_path):
    gw = Gateway(tmp_path / "cache.jsonl")
    with pytest.raises(GatewayError, match="mode"):
        gw.complete(REQUEST, "yolo")


def test_mock_mode_persists(tmp_path):
    path = tmp_path / "cache.jsonl"
    gw = Gateway(path, mock_completions={"q1": " canned text"})
    rec = gw.complete(REQUEST, "mock")
    assert rec.completion == " canned text"
    assert rec.source == "mock"
    assert len(gw) == 1
    # second call in any mode is a cache hit
    again = gw.complete(REQUEST, "mock")
    assert again.source == "replay"
    assert again.completion == " canned text"
    # a fresh gateway over the same file replays without any transport
    gw2 = Gateway(path)
    rec2 = gw2.complete(REQUEST, "replay")
    assert rec2.completion == " canned text"
    assert gw2.transport_calls == 0


def test_mock_mode_unknown_query(tmp_path):
    gw = Gateway(tmp_path / "cache.jsonl", mock_completions={})
    with pytest.raises(GatewayError, match="q1"):
        gw.complete(REQUEST, "mock")


def test_replay_miss(tmp_path):
    gw = Gateway(tmp_path / "cache.jsonl")
    with pytest.raises(ReplayCacheMiss):
        gw.complete(REQUEST, "replay")


def test_corrupt_cache_lines_skipped(tmp_path):
    path = tmp_path / "cache.jsonl"
    rows = [
        {"cache_key": "k1", "completion": "one", "source": "live", "timestamp": 1.0},
        {"cache_key": "k2", "completion": "two", "source": "live", "timestamp": 2.0},
    ]
    lines = [json.dumps(rows[0]), "{not json", json.dumps({"completion": "no key"})]
    lines.append(json.dumps(rows[1]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gw = Gateway(path)
    assert len(gw) == 2


def test_live_success_and_payload_shape(tmp_path):
    transport = MockTransport([ok("hello")])
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport)
    rec = gw.complete(REQUEST, "live")
    assert rec.completion == "hello"
    assert rec.source == "live"
    assert rec.retries == 0
    assert transport.payloads == [
        {
            "model": "test-model",
            "messages": [{"role": "user", "content": PROMPT.text}],
            "temperature": 0.0,
            "max_tokens": DEFAULT_MAX_TOKENS,
            "stop": [STOP_SEQUENCE],
        }
    ]


def test_live_retries_with_backoff(tmp_path):
    sleeps = []
    transport = MockTransport(
        [
            TransportReply(429, {}),
            TransportReply(503, {}),
            TransportError("boom"),
            ok("eventually"),
        ]
    )
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport, sleep=sleeps.append)
    rec = gw.complete(REQUEST, "live")
    assert rec.completion == "eventually"
    assert rec.retries == 3
    assert transport.calls == 4
    assert sleeps == [1.0, 2.0, 4.0]


def test_live_waits_as_long_as_retry_after_asks(tmp_path):
    sleeps = []
    transport = MockTransport(
        [
            TransportReply(429, {}, 6.0),
            TransportReply(503, {}, 0.5),  # shorter than the backoff
            TransportReply(500, {}, 30.0),  # only a 429 or 503 is honoured
            TransportReply(429, {}, MAX_RETRY_AFTER_S * 100),
            ok("eventually"),
        ]
    )
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport, sleep=sleeps.append)
    rec = gw.complete(REQUEST, "live")
    assert rec.completion == "eventually"
    assert rec.retries == 4
    assert sleeps == [6.0, 2.0, 4.0, MAX_RETRY_AFTER_S]


def test_live_gives_up_after_max_attempts(tmp_path):
    sleeps = []
    transport = MockTransport([TransportReply(500, {})] * 5)
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport, sleep=sleeps.append)
    with pytest.raises(GatewayError, match="5 attempts"):
        gw.complete(REQUEST, "live")
    assert transport.calls == 5
    assert sleeps == [1.0, 2.0, 4.0, 8.0]
    assert len(gw) == 0


def test_live_client_error_fails_fast(tmp_path):
    transport = MockTransport([TransportReply(400, {"error": "bad"})])
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport)
    with pytest.raises(GatewayError, match="400"):
        gw.complete(REQUEST, "live")
    assert transport.calls == 1


def test_live_malformed_body(tmp_path):
    transport = MockTransport([TransportReply(200, {"choices": []})])
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport)
    with pytest.raises(GatewayError, match="malformed"):
        gw.complete(REQUEST, "live")


def test_live_truncation_flag(tmp_path):
    # a completion cut off at max_tokens is an error naming its key, and is not cached
    transport = MockTransport([ok("cut off", finish="length")])
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport)
    with pytest.raises(GatewayError, match=f"key {cache_key(REQUEST)} stopped at max_tokens"):
        gw.complete(REQUEST, "live")
    assert transport.calls == 1
    assert len(gw) == 0
    assert not (tmp_path / "cache.jsonl").exists()


def test_truncated_cache_line_is_skipped(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    line = {"cache_key": cache_key(REQUEST), "completion": "cut off", "truncated": True}
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    gw = Gateway(path)
    assert len(gw) == 0
    assert f"skipping corrupt cache line {path}:1" in caplog.text
    with pytest.raises(ReplayCacheMiss):
        gw.complete(REQUEST, "replay")


def test_live_mode_requires_transport(tmp_path):
    gw = Gateway(tmp_path / "cache.jsonl")
    with pytest.raises(GatewayError, match="transport"):
        gw.complete(REQUEST, "live")


def test_cache_hit_shadows_live(tmp_path):
    path = tmp_path / "cache.jsonl"
    Gateway(path, mock_completions={"q1": "primed"}).complete(REQUEST, "mock")
    transport = MockTransport([TransportError("must not be called")])
    gw = Gateway(path, transport=transport)
    rec = gw.complete(REQUEST, "live")
    assert rec.completion == "primed"
    assert rec.source == "replay"
    assert transport.calls == 0


def test_inflight_dedup(tmp_path):
    gate = threading.Event()

    def scripted(payload):
        gate.wait(5)
        return ok("shared")

    transport = MockTransport(scripted)
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport)
    results = []

    def work():
        results.append(gw.complete(REQUEST, "live"))

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    gate.set()
    for t in threads:
        t.join(timeout=10)
    assert transport.calls == 1
    assert [r.completion for r in results] == ["shared", "shared"]
    assert sorted(r.source for r in results) == ["live", "replay"]


def test_bounded_concurrency(tmp_path):
    lock = threading.Lock()
    active = 0
    peak = 0

    def scripted(payload):
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
        time.sleep(0.02)
        with lock:
            active -= 1
        return ok("r")

    transport = MockTransport(scripted)
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport, max_in_flight=2)
    requests = [
        GenerationRequest(
            model_id="m",
            prompt=PromptText(text=f"p{i}\nContext:", demo_count=1, query_id=f"q{i}"),
        )
        for i in range(6)
    ]
    threads = [
        threading.Thread(target=gw.complete, args=(r, "live")) for r in requests
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert transport.calls == 6
    assert peak <= 2


def test_http_transport_missing_credential(monkeypatch):
    monkeypatch.delenv("PRIVQA_API_KEY", raising=False)
    transport = HttpTransport("http://localhost:9/v1/chat")
    with pytest.raises(GatewayError, match="PRIVQA_API_KEY"):
        transport.send({})
    assert transport.calls == 0


def test_retries_round_trip_through_cache(tmp_path):
    path = tmp_path / "cache.jsonl"
    transport = MockTransport([TransportReply(429, {}), TransportReply(503, {}), ok("late")])
    gw = Gateway(path, transport=transport, sleep=lambda s: None)
    assert gw.complete(REQUEST, "live").retries == 2
    line = json.loads(path.read_text(encoding="utf-8"))
    assert line["retries"] == 2
    assert "timestamp" not in line
    rec = Gateway(path).complete(REQUEST, "replay")
    assert (rec.completion, rec.source, rec.retries) == ("late", "replay", 2)


def test_cache_line_without_retries_loads_as_zero(tmp_path):
    path = tmp_path / "cache.jsonl"
    row = {"cache_key": cache_key(REQUEST), "completion": "old", "timestamp": 5.0}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert Gateway(path).complete(REQUEST, "replay").retries == 0


def test_max_in_flight_must_be_positive(tmp_path):
    with pytest.raises(GatewayError, match="max_in_flight"):
        Gateway(tmp_path / "cache.jsonl", max_in_flight=0)


# ---------------------------------------------------------------------------
# Batches: complete_all


def numbered_requests(n):
    return [
        GenerationRequest(
            model_id="m",
            prompt=PromptText(text=f"p{i}\nContext:", demo_count=1, query_id=f"q{i}"),
        )
        for i in range(n)
    ]


class Upstream:
    """Transport script whose latency varies per request, so calls finish out of order.

    Request i waits `delays[i % len(delays)]` seconds; ids in `fail` get a
    client error naming the id. Keeps the peak number of calls in flight and
    the order in which calls finished.
    """

    def __init__(self, delays=(0.04, 0.01, 0.02), fail=()):
        self.delays = delays
        self.fail = set(fail)
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.finished = []

    def __call__(self, payload):
        i = int(payload["messages"][0]["content"].split("\n")[0][1:])
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(self.delays[i % len(self.delays)])
        with self.lock:
            self.active -= 1
            self.finished.append(i)
        if i in self.fail:
            return TransportReply(400, {"error": f"bad p{i}"})
        return ok(f"answer {i}")


def cache_keys_in(path):
    return [json.loads(line)["cache_key"] for line in path.read_text(encoding="utf-8").splitlines()]


def test_complete_all_fans_out_and_keeps_request_order(tmp_path):
    requests = numbered_requests(9)
    caches = {}
    for width in (1, 3):
        upstream = Upstream()
        transport = MockTransport(upstream)
        caches[width] = tmp_path / f"cache-{width}.jsonl"
        gw = Gateway(caches[width], transport=transport, max_in_flight=width)
        records = gw.complete_all(requests, "live")
        assert [r.completion for r in records] == [f"answer {i}" for i in range(9)]
        assert all(r.source == "live" for r in records)
        assert transport.calls == 9
        assert upstream.peak == width
    assert upstream.finished != sorted(upstream.finished)  # the wide run finished out of order
    assert caches[3].read_bytes() == caches[1].read_bytes()
    assert cache_keys_in(caches[3]) == [cache_key(r) for r in requests]


def test_complete_all_failure_keeps_the_rest_in_order(tmp_path):
    path = tmp_path / "cache.jsonl"
    requests = numbered_requests(9)
    # p4 fails after p6 has failed: the first failure in request order is raised
    upstream = Upstream(delays=(0.01, 0.01, 0.01, 0.01, 0.05, 0.01, 0.01), fail={4, 6})
    gw = Gateway(path, transport=MockTransport(upstream), max_in_flight=3)
    threads = threading.active_count()
    with pytest.raises(GatewayError, match="bad p4"):
        gw.complete_all(requests, "live")
    assert upstream.finished.index(6) < upstream.finished.index(4)
    assert threading.active_count() == threads
    kept = [i for i in range(9) if i not in (4, 6)]
    assert cache_keys_in(path) == [cache_key(requests[i]) for i in kept]

    # a rerun pays only for what is missing, and appends it in request order
    transport = MockTransport(Upstream())
    rerun = Gateway(path, transport=transport, max_in_flight=3)
    records = rerun.complete_all(requests, "live")
    assert [r.completion for r in records] == [f"answer {i}" for i in range(9)]
    assert [p["messages"][0]["content"] for p in transport.payloads] == [
        requests[4].prompt.text,
        requests[6].prompt.text,
    ]
    assert [r.source for r in records] == ["live" if i in (4, 6) else "replay" for i in range(9)]
    assert cache_keys_in(path) == [cache_key(requests[i]) for i in kept + [4, 6]]


def test_complete_all_repeated_key_goes_upstream_once(tmp_path):
    path = tmp_path / "cache.jsonl"
    first, second = numbered_requests(2)
    # same prompt text, other query id: the same cache key
    again = GenerationRequest(
        model_id="m", prompt=PromptText(text=first.prompt.text, demo_count=1, query_id="other")
    )
    transport = MockTransport(Upstream())
    gw = Gateway(path, transport=transport, max_in_flight=2)
    records = gw.complete_all([first, second, again], "live")
    assert transport.calls == 2
    assert [r.source for r in records] == ["live", "live", "replay"]
    assert records[2].completion == records[0].completion
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [line["summary"]["query_id"] for line in lines] == ["q0", "q1"]


def test_complete_all_sends_while_a_request_backs_off(tmp_path):
    # one slot: while p0 sleeps out its 429, p1 takes the slot instead of
    # waiting on a thread behind p0's retry
    requests = numbered_requests(2)
    sent = []
    p0_sent, p1_sent = threading.Event(), threading.Event()

    def scripted(payload):
        i = int(payload["messages"][0]["content"].split("\n")[0][1:])
        sent.append(i)
        (p0_sent, p1_sent)[i].set()
        if sent == [0]:
            return TransportReply(429, {})
        return ok(f"answer {i}")

    sent_during_backoff = []

    def sleep(seconds):
        sent_during_backoff.append(p1_sent.wait(5))

    gw = Gateway(
        tmp_path / "cache.jsonl", transport=MockTransport(scripted), max_in_flight=1, sleep=sleep
    )
    complete = gw.complete

    def p0_sends_first(request, mode, **kwargs):
        if request is requests[1]:
            p0_sent.wait(5)
        return complete(request, mode, **kwargs)

    gw.complete = p0_sends_first
    records = gw.complete_all(requests, "live")
    assert sent_during_backoff == [True]
    assert [r.completion for r in records] == ["answer 0", "answer 1"]
    assert [r.retries for r in records] == [1, 0]
    assert sent == [0, 1, 0]


def test_complete_all_inline_without_live_misses(tmp_path, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("no worker thread without live misses")

    # the gateway starts its workers as `threading.Thread`
    monkeypatch.setattr(gateway.threading, "Thread", no_thread)
    path = tmp_path / "cache.jsonl"
    requests = numbered_requests(4)
    mocks = {f"q{i}": f"canned {i}" for i in range(4)}
    records = Gateway(path, mock_completions=mocks).complete_all(requests, "mock")
    assert [r.source for r in records] == ["mock"] * 4
    assert cache_keys_in(path) == [cache_key(r) for r in requests]
    transport = MockTransport([TransportError("must not be called")])
    live = Gateway(path, transport=transport).complete_all(requests, "live")
    assert [r.completion for r in live] == [f"canned {i}" for i in range(4)]
    assert transport.calls == 0
    with pytest.raises(ReplayCacheMiss):
        Gateway(path).complete_all([*requests, REQUEST], "replay")


def test_complete_all_empty_batch(tmp_path):
    assert Gateway(tmp_path / "cache.jsonl").complete_all([], "live") == []


def test_complete_all_unknown_mode(tmp_path):
    with pytest.raises(GatewayError, match="mode"):
        Gateway(tmp_path / "cache.jsonl").complete_all(numbered_requests(2), "yolo")


def test_corrupt_cache_fields_skipped(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    key = cache_key(REQUEST)
    rows = [
        {"cache_key": key, "completion": None},
        {"cache_key": 7, "completion": "seven"},
        {"cache_key": key, "completion": ["not", "text"]},
        {"cache_key": key, "completion": "one", "retries": float("inf")},
        {"cache_key": key, "completion": "one", "retries": []},
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    gw = Gateway(path)
    assert len(gw) == 0
    assert caplog.text.count("skipping corrupt cache line") == 5
    with pytest.raises(ReplayCacheMiss):
        gw.complete(REQUEST, "replay")


def test_cache_line_not_utf8_is_skipped(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    good = {"cache_key": cache_key(REQUEST), "completion": "one", "source": "live"}
    bad = json.dumps({"cache_key": "k2", "completion": "two"}).encode("utf-8")
    path.write_bytes(bad.replace(b"two", b"tw\xff") + b"\n" + json.dumps(good).encode() + b"\n")
    gw = Gateway(path)
    assert len(gw) == 1
    assert f"skipping corrupt cache line {path}:1" in caplog.text
    assert gw.complete(REQUEST, "replay").completion == "one"


class PausingLock:
    """A lock that runs `pause` once, after its first release on the creating thread."""

    def __init__(self, pause):
        self._lock = threading.Lock()
        self._pause = pause
        self._thread = threading.get_ident()

    def __enter__(self):
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()
        if self._pause is not None and threading.get_ident() == self._thread:
            pause, self._pause = self._pause, None
            pause()


def test_complete_decides_in_one_lock_section(tmp_path):
    # Call A stops right after its first lock section while call B for the same
    # key runs. Had A only seen a cache miss there, B would finish and A would
    # call upstream a second time; owning the key makes B wait for A instead.
    path = tmp_path / "cache.jsonl"
    transport = MockTransport(lambda payload: ok("once"))
    gw = Gateway(path, transport=transport)
    other = []
    b = threading.Thread(target=lambda: other.append(gw.complete(REQUEST, "live")))

    def run_b():
        b.start()
        b.join(timeout=0.5)  # B blocks on A's in-flight call, so this times out

    gw._lock = PausingLock(run_b)
    rec = gw.complete(REQUEST, "live")
    b.join(timeout=10)
    assert not b.is_alive()
    assert transport.calls == 1
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1
    assert (rec.source, other[0].source) == ("live", "replay")
    assert other[0].completion == "once"


def test_complete_all_retries_a_key_after_its_call_failed(tmp_path):
    transport = MockTransport([TransportReply(400, {"error": "bad"}), ok("second try")])
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport, max_in_flight=1)
    with pytest.raises(GatewayError, match="400"):
        gw.complete_all([REQUEST, REQUEST], "live")
    assert transport.calls == 2
    assert gw.complete(REQUEST, "replay").completion == "second try"


def test_complete_all_calls_the_instance_complete_once_per_request(tmp_path):
    # perfbench's tracer wraps `gw.complete` on the instance and times every call
    path = tmp_path / "cache.jsonl"
    first, second, third = numbered_requests(3)
    Gateway(path, mock_completions={"q0": "primed"}).complete(first, "mock")
    gw = Gateway(path, transport=MockTransport(Upstream()), max_in_flight=2)
    seen = []
    original = gw.complete

    def traced(request, mode, **kwargs):
        out = original(request, mode, **kwargs)
        seen.append((request.prompt.query_id, out.source))
        return out

    gw.complete = traced
    batch = [first, second, third, second, first]  # a hit, two misses, two repeats
    records = gw.complete_all(batch, "live")
    assert sorted(seen) == sorted(
        [("q0", "replay"), ("q1", "live"), ("q2", "live"), ("q1", "replay"), ("q0", "replay")]
    )
    assert [r.source for r in records] == ["replay", "live", "live", "replay", "replay"]


def test_complete_all_first_request_of_a_key_owns_it(tmp_path):
    # As in a serial run, the first request gets the fresh record and the cache
    # line; the repeat is resolved after it, from the cache.
    repeat = replace(REQUEST, prompt=replace(PROMPT, query_id="q-repeat"))
    transport = MockTransport(lambda payload: ok("shared"))
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport, max_in_flight=2)
    records = gw.complete_all([REQUEST, repeat], "live")
    assert transport.calls == 1
    assert [r.source for r in records] == ["live", "replay"]
    lines = (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["summary"]["query_id"] for line in lines] == ["q1"]


class WatchedEvent(threading.Event):
    """An in-flight Event that says when someone starts waiting on it."""

    def __init__(self):
        super().__init__()
        self.waited = threading.Event()

    def wait(self, timeout=None):
        self.waited.set()
        return super().wait(timeout)


def test_complete_all_writes_no_line_for_a_key_fetched_outside_it(tmp_path):
    # A caller outside the batch owns the key's upstream call and writes its
    # line; the batch waits for that call and gets a cache hit, not a second line.
    path = tmp_path / "cache.jsonl"
    entered, release = threading.Event(), threading.Event()

    def upstream(payload):
        entered.set()
        release.wait(10)
        return ok("outside")

    transport = MockTransport(upstream)
    gw = Gateway(path, transport=transport, max_in_flight=2)
    outside = threading.Thread(target=gw.complete, args=(REQUEST, "live"))
    outside.start()
    assert entered.wait(10)
    watched = WatchedEvent()
    with gw._lock:
        gw._inflight[cache_key(REQUEST)] = watched
    batch = []
    inside = threading.Thread(target=lambda: batch.extend(gw.complete_all([REQUEST], "live")))
    inside.start()
    assert watched.waited.wait(10)
    release.set()
    outside.join(10)
    inside.join(10)
    assert not outside.is_alive() and not inside.is_alive()
    assert transport.calls == 1
    assert [(r.source, r.completion) for r in batch] == [("replay", "outside")]
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


def run_batch(path, requests, delays, width):
    transport = MockTransport(Upstream(delays=delays))
    records = Gateway(path, transport=transport, max_in_flight=width).complete_all(requests, "live")
    return records, path.read_bytes(), transport.calls


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=12),
    delays=st.lists(st.integers(0, 3), min_size=6, max_size=6),
    width=st.integers(1, 4),
)
def test_complete_all_wide_batch_equals_serial(tmp_path_factory, picks, delays, width):
    prompts = numbered_requests(6)
    # a repeat carries another query id, so its cache line would differ from the first's
    requests = [
        replace(prompts[i], prompt=replace(prompts[i].prompt, query_id=f"q{i}-{n}"))
        for n, i in enumerate(picks)
    ]
    seconds = tuple(d / 1000 for d in delays)
    tmp = tmp_path_factory.mktemp("batch")
    serial = run_batch(tmp / "serial.jsonl", requests, seconds, 1)
    wide = run_batch(tmp / "wide.jsonl", requests, seconds, width)
    assert wide == serial
    assert wide[2] == len(set(picks))



# ---------------------------------------------------------------------------
# Streams: Gateway.stream over a lazy iterable of requests


class Pulls:
    """A lazy iterable of requests that counts pulls against resolved requests.

    `resolved` is bumped by `counting_complete`; `most_open` keeps the peak
    of pulled-but-unresolved requests, taken at each pull.
    """

    def __init__(self, requests):
        self.requests = requests
        self.lock = threading.Lock()
        self.pulled = 0
        self.resolved = 0
        self.most_open = 0
        self.threads = set()

    def __iter__(self):
        for request in self.requests:
            with self.lock:
                self.pulled += 1
                self.most_open = max(self.most_open, self.pulled - self.resolved)
            self.threads.add(threading.get_ident())
            yield request


def counting_complete(gw, pulls):
    complete = gw.complete

    def counted(request, mode, **kwargs):
        try:
            return complete(request, mode, **kwargs)
        finally:
            with pulls.lock:
                pulls.resolved += 1

    gw.complete = counted


def test_stream_pulls_on_workers_and_keeps_request_order(tmp_path):
    requests = numbered_requests(12)
    pulls = Pulls(requests)
    path = tmp_path / "cache.jsonl"
    gw = Gateway(path, transport=MockTransport(Upstream()), max_in_flight=2)
    threads = threading.active_count()
    records = list(gw.stream(pulls, "live"))
    assert [r.completion for r in records] == [f"answer {i}" for i in range(12)]
    assert cache_keys_in(path) == [cache_key(r) for r in requests]
    # the calling thread pulls the first request; workers pull the rest
    assert len(pulls.threads) > 1
    assert threading.active_count() == threads


def test_stream_bounds_requests_pulled_but_unresolved(tmp_path):
    # a slow consumer and many repeats: repeats wait for the consumer, and
    # the workers stop pulling once twice the slots are open
    prompts = numbered_requests(3)
    requests = [prompts[i % 3] for i in range(30)]
    pulls = Pulls(requests)
    gw = Gateway(tmp_path / "cache.jsonl", transport=MockTransport(Upstream()), max_in_flight=2)
    counting_complete(gw, pulls)
    records = []
    for record in gw.stream(pulls, "live"):
        time.sleep(0.002)
        records.append(record)
    assert [r.completion for r in records] == [f"answer {i % 3}" for i in range(30)]
    assert pulls.most_open == 2 * gw.max_in_flight
    assert pulls.resolved == 30


def test_stream_resends_a_repeat_pulled_while_its_first_failed(tmp_path):
    # the repeat is pulled while its first request is still in flight; it
    # waits for the consumer, and goes upstream again once the first failed
    first_sent, repeat_pulled = threading.Event(), threading.Event()
    replies = []

    def upstream(payload):
        first_sent.set()
        if not replies:
            assert repeat_pulled.wait(10)
            replies.append("400")
            return TransportReply(400, {"error": "bad"})
        return ok("second try")

    def requests():
        yield REQUEST
        assert first_sent.wait(10)
        repeat_pulled.set()
        yield REQUEST

    transport = MockTransport(upstream)
    gw = Gateway(tmp_path / "cache.jsonl", transport=transport, max_in_flight=1)
    with pytest.raises(GatewayError, match="400"):
        list(gw.stream(requests(), "live"))
    assert transport.calls == 2
    assert gw.complete(REQUEST, "replay").completion == "second try"
    assert len((tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()) == 1


def test_stream_closed_early_caches_what_resolved(tmp_path):
    path = tmp_path / "cache.jsonl"
    requests = numbered_requests(12)
    closing = threading.Event()

    def gated():
        for i, request in enumerate(requests):
            if i == 6:  # the rest are pulled only once the consumer closes
                assert closing.wait(10)
            yield request

    pulls = Pulls(gated())
    gw = Gateway(path, transport=MockTransport(Upstream()), max_in_flight=2)
    threads = threading.active_count()
    stream = gw.stream(pulls, "live")
    assert [next(stream).completion for _ in range(2)] == ["answer 0", "answer 1"]
    closing.set()
    stream.close()
    assert threading.active_count() == threads
    # the pulling stopped; every request pulled was resolved, and its line
    # written, in request order
    assert 2 <= pulls.pulled <= 7
    assert cache_keys_in(path) == [cache_key(r) for r in requests[: pulls.pulled]]
    rerun = MockTransport(Upstream())
    records = Gateway(path, transport=rerun, max_in_flight=2).complete_all(requests, "live")
    assert rerun.calls == 12 - pulls.pulled
    assert [r.completion for r in records] == [f"answer {i}" for i in range(12)]


def test_stream_raises_failures_in_request_order(tmp_path):
    # a failed send before a request that fails to build: the send's failure
    # is raised, after every other request was sent and cached
    path = tmp_path / "cache.jsonl"
    requests = numbered_requests(6)

    def build():
        yield from requests
        raise ValueError("prompt 6 failed to build")

    gw = Gateway(path, transport=MockTransport(Upstream(fail={2})), max_in_flight=2)
    taken = []
    with pytest.raises(GatewayError, match="bad p2"):
        for record in gw.stream(build(), "live"):
            taken.append(record.completion)
    assert taken == ["answer 0", "answer 1"]
    assert cache_keys_in(path) == [cache_key(requests[i]) for i in (0, 1, 3, 4, 5)]
    # alone, the build failure is raised after the requests before it
    gw = Gateway(tmp_path / "other.jsonl", transport=MockTransport(Upstream()), max_in_flight=2)
    with pytest.raises(ValueError, match="failed to build"):
        for record in gw.stream(build(), "live"):
            taken.append(record.completion)
    assert taken[2:] == [f"answer {i}" for i in range(6)]


def test_stream_stress_with_a_short_switch_interval(tmp_path):
    # more workers than cores, switching threads every few bytecodes: a lost
    # update to the stream's counters or positions breaks one of these
    prompts = numbered_requests(20)
    rng = random.Random(7)
    requests = [prompts[rng.randrange(20)] for _ in range(120)]
    pulls = Pulls(requests)
    path = tmp_path / "cache.jsonl"
    upstream = Upstream(delays=(0.0, 0.001, 0.002, 0.0005))
    transport = MockTransport(upstream)
    gw = Gateway(path, transport=transport, max_in_flight=4)
    counting_complete(gw, pulls)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        records = list(gw.stream(pulls, "live"))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    want = [f"answer {r.prompt.text.split(chr(10))[0][1:]}" for r in requests]
    assert [r.completion for r in records] == want
    firsts = list(dict.fromkeys(cache_key(r) for r in requests))
    assert transport.calls == len(firsts)
    assert cache_keys_in(path) == firsts
    assert pulls.resolved == len(requests)
    assert pulls.most_open <= 2 * gw.max_in_flight


# ---------------------------------------------------------------------------
# HttpTransport against a loopback server


def reply(status, body, headers=None):
    raw = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    return status, raw, headers or {}


def ok_reply(text, finish="stop"):
    return reply(200, ok(text, finish).body)


class ChatServer(ThreadingHTTPServer):
    """Chat-completion endpoint on 127.0.0.1 that answers from a script.

    Each POST takes the next scripted (status, body bytes, headers) reply, or
    `default` once the script runs out, and is kept as (headers, payload).
    """

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"
        self.script = []
        self.default = ok_reply("default")
        self.received = []
        self.lock = threading.Lock()


class ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.received.append((self.headers, payload))
            status, body, headers = self.server.script.pop(0) if self.server.script else self.server.default
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # where a followed 30x would arrive
        with self.server.lock:
            self.server.received.append((self.headers, None))
        self.send_error(405)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving():
    srv = ChatServer()
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def server(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    monkeypatch.setenv("PRIVQA_API_KEY", "sk-loopback")
    monkeypatch.setattr(gateway, "HTTP_TIMEOUT_S", 10.0)
    with serving() as srv:
        yield srv


def http_gateway(tmp_path, url, sleeps):
    return Gateway(tmp_path / "cache.jsonl", transport=HttpTransport(url), sleep=sleeps.append)


def test_http_sends_payload_and_credential(tmp_path, server):
    sleeps = []
    server.script = [ok_reply("hello")]
    rec = http_gateway(tmp_path, server.url, sleeps).complete(REQUEST, "live")
    assert (rec.completion, rec.source, rec.retries) == ("hello", "live", 0)
    assert sleeps == []
    [(headers, payload)] = server.received
    assert headers["Authorization"] == "Bearer sk-loopback"
    assert headers["Content-Type"] == "application/json"
    assert payload == {
        "model": "test-model",
        "messages": [{"role": "user", "content": PROMPT.text}],
        "temperature": 0.0,
        "max_tokens": DEFAULT_MAX_TOKENS,
        "stop": [STOP_SEQUENCE],
    }


@pytest.mark.parametrize(
    "header, wait",
    [
        ("3", 3.0),
        ("0", 1.0),  # shorter than the backoff
        (str(int(MAX_RETRY_AFTER_S) * 10), MAX_RETRY_AFTER_S),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 1.0),  # the HTTP-date form is ignored
        ("soon", 1.0),
    ],
)
def test_http_429_waits_for_retry_after(tmp_path, server, header, wait):
    sleeps = []
    server.script = [reply(429, {"error": "slow down"}, {"Retry-After": header}), ok_reply("late")]
    rec = http_gateway(tmp_path, server.url, sleeps).complete(REQUEST, "live")
    assert (rec.completion, rec.retries) == ("late", 1)
    assert sleeps == [wait]
    assert len(server.received) == 2


def test_http_503_is_retried(tmp_path, server):
    sleeps = []
    server.script = [reply(503, b"unavailable"), ok_reply("second")]
    rec = http_gateway(tmp_path, server.url, sleeps).complete(REQUEST, "live")
    assert (rec.completion, rec.retries) == ("second", 1)
    assert sleeps == [1.0]
    first, second = (payload for _, payload in server.received)
    assert first == second


def test_http_400_is_sent_once(tmp_path, server):
    sleeps = []
    server.script = [reply(400, {"error": "bad model"})]
    gw = http_gateway(tmp_path, server.url, sleeps)
    with pytest.raises(GatewayError, match="upstream status 400: {'error': 'bad model'}"):
        gw.complete(REQUEST, "live")
    assert len(server.received) == 1
    assert sleeps == []
    assert len(gw) == 0


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_http_redirect_is_not_followed(tmp_path, server, status):
    with serving() as elsewhere:
        server.script = [reply(status, {"moved": True}, {"Location": elsewhere.url})]
        gw = http_gateway(tmp_path, server.url, [])
        with pytest.raises(GatewayError, match=f"upstream status {status}"):
            gw.complete(REQUEST, "live")
        assert elsewhere.received == []
    assert len(server.received) == 1
    assert len(gw) == 0


def test_http_body_not_json_is_malformed(tmp_path, server):
    server.script = [reply(200, b"<html>not json</html>")]
    with pytest.raises(GatewayError, match="malformed upstream response: {}"):
        http_gateway(tmp_path, server.url, []).complete(REQUEST, "live")
    assert len(server.received) == 1


def test_http_length_finish_is_truncated(tmp_path, server):
    # one slot, but the pool's spare thread may take it first: the server
    # answers in arrival order, and the second request to arrive is cut off
    requests = numbered_requests(3)
    server.script = [ok_reply("one"), ok_reply("cut off", finish="length"), ok_reply("three")]
    gw = Gateway(tmp_path / "cache.jsonl", transport=HttpTransport(server.url), max_in_flight=1)
    with pytest.raises(GatewayError) as exc:
        gw.complete_all(requests, "live")
    arrived = [int(p["messages"][0]["content"].split("\n")[0][1:]) for _, p in server.received]
    assert sorted(arrived) == [0, 1, 2]
    cut = requests[arrived[1]]
    assert f"key {cache_key(cut)} stopped at max_tokens" in str(exc.value)
    # the rest of the batch is cached in request order; replay serves it and misses the cut-off one
    answered = dict(zip(arrived, ["one", "cut off", "three"]))
    kept = [i for i in range(3) if i != arrived[1]]
    want = [answered[i] for i in kept]
    lines = (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["completion"] for line in lines] == want
    replay = Gateway(tmp_path / "cache.jsonl")
    assert [replay.complete(requests[i], "replay").completion for i in kept] == want
    with pytest.raises(ReplayCacheMiss):
        replay.complete(cut, "replay")


def test_http_refused_connection_gives_up(tmp_path, monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    monkeypatch.setenv("PRIVQA_API_KEY", "sk-loopback")
    with socket.socket() as probe:  # a port that nothing listens on once it is closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    sleeps = []
    gw = http_gateway(tmp_path, f"http://127.0.0.1:{port}/v1/chat/completions", sleeps)
    with pytest.raises(GatewayError, match=f"giving up after {DEFAULT_MAX_ATTEMPTS} attempts"):
        gw.complete(REQUEST, "live")
    assert gw.transport_calls == DEFAULT_MAX_ATTEMPTS
    assert sleeps == [1.0, 2.0, 4.0, 8.0]


def test_http_transport_needs_an_http_url():
    with pytest.raises(GatewayError, match="http:// or https://"):
        HttpTransport("127.0.0.1:8080/v1/chat/completions")


def test_generate_live_through_loopback(tmp_path, server, capsys):
    instances = build_corpus(SyntheticSpec(seed=3, train_size=4, dev_size=3, test_size=3))["dev"]
    provider = SyntheticContextProvider(SyntheticSpec(seed=3))
    write_dataset(instances, tmp_path / "data.jsonl")
    save_keyword_sets(provider.keyword_map(instances, 1.0, seed=0), tmp_path / "kw.jsonl")
    generic = "Context: x\n(a): y.\n(b): z.\n(c): w.\n(d): v.\nTherefore, the answer is (b)."
    server.default = ok_reply(generic)
    argv = [
        "generate",
        "--data", tmp_path / "data.jsonl",
        "--keywords", tmp_path / "kw.jsonl",
        "--demos", "medqa",
        "--cache", tmp_path / "cache.jsonl",
        "--mode", "live",
        "--api-url", server.url,
        "--output", tmp_path / "aug.jsonl",
    ]
    assert cli.main([str(a) for a in argv]) == 0
    assert "generated 3 contexts" in capsys.readouterr().out
    augmented = load_augmented(tmp_path / "aug.jsonl")
    assert [a.instance.id for a in augmented] == [inst.id for inst in instances.instances]
    assert {a.context.decision for a in augmented} == {frozenset("b")}
    lines = [json.loads(line) for line in (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [line["summary"]["query_id"] for line in lines] == [a.instance.id for a in augmented]
    assert {line["source"] for line in lines} == {"live"}
    assert len(server.received) == 3
    assert all(headers["Authorization"] == "Bearer sk-loopback" for headers, _ in server.received)
