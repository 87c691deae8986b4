"""Outside-in spans for the privqa layers.

The tracer replaces public callables at the names their callers look them up
by (a module global, or an attribute of the provider or gateway object),
records one span per call with its parent, and puts the originals back on
`restore`. No privqa source is touched. Spans stay in memory; per-layer
metrics are computed from them after the pass.
"""

from __future__ import annotations

import math
import statistics
import threading
import time

import numpy as np

import privqa.harness
import privqa.scorer
import privqa.synthetic

ROOT = "pass"


class Tracer:
    def __init__(self) -> None:
        # one span is [name, start, end, parent index]; -1 means no parent
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self.prompt_chars: list[int] = []
        self.parse_warnings = 0
        self.hits = 0
        self.steps = 0
        self.support: list[float] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, owner: object, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        own = attr in vars(owner)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self, provider: object, gateway: object | None) -> None:
        h, s, sc = privqa.harness, privqa.synthetic, privqa.scorer
        self.wrap(provider, "provide", "provide")
        self.wrap(provider, "keyword_map", "keyword_map")
        for mod in (h, s):
            self.wrap(mod, "extract_ner", "extract_ner")
            self.wrap(mod, "subsample_keywords", "subsample_keywords")
            self.wrap(mod, "parse_generation", "parse_generation", self._on_parse)
        self.wrap(h, "corpus_budget_report", "corpus_budget_report")
        self.wrap(h, "build_prompt", "build_prompt", self._on_prompt)
        self.wrap(h, "build_inputs", "build_inputs")
        self.wrap(h, "train", "train", self._on_train)
        self.wrap(h, "score_texts", "score_texts")
        self.wrap(h, "write_report", "write_report")
        self.wrap(sc, "featurize", "featurize")
        if gateway is not None:
            self.wrap(gateway, "complete", "complete", self._on_complete)

    def _on_prompt(self, args, kwargs, out) -> None:
        self.prompt_chars.append(len(out.text))

    def _on_parse(self, args, kwargs, out) -> None:
        self.parse_warnings += len(out.warnings)

    def _on_complete(self, args, kwargs, out) -> None:
        self.hits += out.source == "replay"

    def _on_train(self, args, kwargs, out) -> None:
        config, train_items = args[0], args[1]
        model, log = out
        self.steps += len(log.history) * math.ceil(len(train_items) / config.batch_size)
        self.support.append(float(np.count_nonzero(model.weights)) / model.weights.size)


LAYERS = {
    "provide": "harness",
    "build_inputs": "harness",
    "write_report": "harness",
    "keyword_map": "keywords",
    "extract_ner": "keywords",
    "subsample_keywords": "keywords",
    "corpus_budget_report": "keywords",
    "build_prompt": "promptkit",
    "complete": "gateway",
    "parse_generation": "contexts",
    "train": "scorer",
    "featurize": "scorer",
    "score_texts": "scorer",
}


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for a layer that did no work."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def pass_metrics(tr: Tracer, state) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass: (timings, exact counts)."""
    spans = tr.spans
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def durs(name: str, scale: float = 1.0) -> list[float]:
        return [dur[i] * scale for i in by_name.get(name, [])]

    def total(name: str) -> float:
        return sum(durs(name))

    def self_time(name: str) -> float:
        return sum(dur[i] - child[i] for i in by_name.get(name, []))

    def layer_of(i: int) -> str:
        return LAYERS.get(spans[i][0], "harness") if i >= 0 else ""

    keywords_busy = sum(
        dur[i] for i, s in enumerate(spans) if layer_of(i) == "keywords" and layer_of(s[3]) != "keywords"
    )
    # keyword_map outside provide is the report's budget section
    budget = total("corpus_budget_report") + sum(
        dur[i] for i in by_name.get("keyword_map", [])
        if spans[i][3] < 0 or spans[spans[i][3]][0] != "provide"
    )
    train_self = self_time("train")
    calls = len(by_name.get("complete", []))
    transport, sleep = state.transport, state.sleep
    timings = {
        "keywords.extract_us.p50": pct(durs("extract_ner", 1e6), 0.5),
        "keywords.extract_us.p90": pct(durs("extract_ner", 1e6), 0.9),
        "keywords.busy_s": keywords_busy,
        "promptkit.build_prompt_us.p50": pct(durs("build_prompt", 1e6), 0.5),
        "promptkit.build_prompt_us.p90": pct(durs("build_prompt", 1e6), 0.9),
        "gateway.complete_us.p50": pct(durs("complete", 1e6), 0.5),
        "gateway.complete_us.p90": pct(durs("complete", 1e6), 0.9),
        "gateway.upstream_wait_s": transport.wait_s if transport else 0.0,
        "gateway.backoff_s": sleep.total if sleep else 0.0,
        "contexts.parse_us.p50": pct(durs("parse_generation", 1e6), 0.5),
        "contexts.parse_us.p90": pct(durs("parse_generation", 1e6), 0.9),
        "scorer.train_s": total("train"),
        "scorer.step_us": train_self / tr.steps * 1e6 if tr.steps else 0.0,
        "scorer.featurize_us.p50": pct(durs("featurize", 1e6), 0.5),
        "scorer.featurize_us.p90": pct(durs("featurize", 1e6), 0.9),
        "scorer.predict_us.p50": pct(durs("score_texts", 1e6), 0.5),
        "harness.materialize_s": total("provide"),
        "harness.build_inputs_s": total("build_inputs"),
        "harness.predict_s": total("score_texts"),
        "harness.budget_s": budget,
        "harness.report_s": total("write_report"),
        "harness.self_s": self_time(ROOT),
    }
    counts = {
        "keywords.extract_calls": len(by_name.get("extract_ner", [])),
        "promptkit.prompt_chars.mean": statistics.fmean(tr.prompt_chars) if tr.prompt_chars else 0.0,
        "gateway.hit_frac": tr.hits / calls if calls else 0.0,
        "gateway.upstream_calls": transport.calls if transport else 0,
        "gateway.retries": transport.throttled if transport else 0,
        "gateway.in_flight_max": transport.in_flight_max if transport else 0,
        "contexts.parse_warnings": tr.parse_warnings,
        "scorer.steps": tr.steps,
        "scorer.featurize_calls": len(by_name.get("featurize", [])),
        "scorer.support_frac": statistics.fmean(tr.support) if tr.support else 0.0,
    }
    return timings, counts
