"""Workload inputs, set-up and passes for the privqa benchmark.

A workload turns the benchmark seed into inputs (a synthetic corpus, gazetteer
files and, for `replay`, a primed response cache), sets up what a user builds
on every run, and runs one pass through the public privqa API. The program
only ever sees the generated inputs.

Every experiment trains for a fixed number of epochs (patience equals the
epoch cap, so early stopping never fires). At the default patience the epoch
count follows each seed's dev curve (6 to 10 epochs per experiment on the
synthetic corpus), so the work in a pass would change with the seed. Six
epochs is what a default run trains when its best epoch is the first.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from privqa.corpus import Dataset
from privqa.gateway import Gateway, TransportReply
import privqa.harness as harness
from privqa.harness import DEFAULT_SWEEP_RATIOS, ExperimentConfig, PipelineProvider
from privqa.keywords import METHOD_NER, KeywordSet, load_gazetteer
from privqa.promptkit import KEYWORDS_MARKER, render_block
from privqa.synthetic import (
    SyntheticContextProvider,
    SyntheticSpec,
    build_corpus,
    gazetteer_tokens,
)

SWEEP, REPLAY, LIVE = "sweep", "replay", "live"
NAMES = (SWEEP, REPLAY, LIVE)

# Upstream model of the live workload.
LATENCY_S = 0.02
THROTTLE_EVERY = 20
BACKOFF_START_S = 0.02


@dataclass(frozen=True)
class Sizes:
    train: int
    dev: int
    test: int
    dim: int
    epochs: int
    distractors: int = 0


# replay is run by hand only; BENCHMARK.json does not list it. Its passes are
# allocation-bound keyword extraction, which interference from other tenants
# of a shared 2-core host slows by up to half: over sets of runs its run_s
# spread was 10-19 % and its median moved between 5.7 and 7.5 s, where sweep
# stayed within 7-12 % and 12.1-12.8 s.
FULL = {
    SWEEP: Sizes(500, 200, 200, 2**18, 6),
    REPLAY: Sizes(500, 200, 200, 2**14, 6, distractors=5000),
    LIVE: Sizes(200, 100, 100, 2**18, 6),
}
TINY = {
    SWEEP: Sizes(120, 60, 60, 2**12, 3),
    REPLAY: Sizes(60, 30, 30, 2**12, 2, distractors=200),
    LIVE: Sizes(40, 20, 20, 2**12, 2),
}
RATIO = {REPLAY: 0.5, LIVE: 1.0}


def distractor_terms(seed: int, count: int) -> list[str]:
    """Seeded 1-4 word terms built from letters only.

    Synthetic questions are made of `tokNNN` words, so no distractor ever
    matches and extraction results equal those of the plain gazetteer.
    """
    rng = random.Random(f"distractors:{seed}")
    consonants, vowels = "bcdfghjklmnpqrstvwxz", "aeiouy"
    terms: set[str] = set()
    while len(terms) < count:
        words = []
        for _ in range(rng.randint(1, 4)):
            syllables = rng.randint(2, 4)
            words.append("".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(syllables)))
        terms.add(" ".join(words))
    return sorted(terms)


def answers_line(choices: dict[str, str]) -> str:
    """The 'Candidate Answers:' line the prompt carries for these choices."""
    return render_block((), choices).split("\n")[1]


class OracleTransport:
    """Upstream stand-in: fixed latency, oracle completions, seeded 429s.

    A prompt whose digest is 0 modulo THROTTLE_EVERY gets a 429 on its
    first attempt, so the retry count depends on the prompts alone.
    """

    def __init__(self, oracle: SyntheticContextProvider, datasets: dict[str, Dataset]):
        self.oracle = oracle
        self._by_answers = {
            answers_line(inst.choices): inst for ds in datasets.values() for inst in ds.instances
        }
        self._lock = threading.Lock()
        self._seen: set[bytes] = set()
        self.calls = 0
        self.throttled = 0
        self.wait_s = 0.0
        self.in_flight = 0
        self.in_flight_max = 0

    def send(self, payload: dict) -> TransportReply:
        text = payload["messages"][0]["content"]
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.in_flight_max = max(self.in_flight_max, self.in_flight)
            first = digest not in self._seen
            self._seen.add(digest)
        start = time.perf_counter()
        try:
            time.sleep(LATENCY_S)
            if first and int.from_bytes(digest[:8], "little") % THROTTLE_EVERY == 0:
                with self._lock:
                    self.throttled += 1
                return TransportReply(status=429, body={})
            completion = self._answer(text)
        finally:
            with self._lock:
                self.in_flight -= 1
                self.wait_s += time.perf_counter() - start
        return TransportReply(
            status=200,
            body={"choices": [{"message": {"content": completion}, "finish_reason": "stop"}]},
        )

    def _answer(self, prompt: str) -> str:
        query = prompt.rsplit("\n\n", 1)[-1].split("\n")
        if len(query) < 2 or not query[0].startswith(KEYWORDS_MARKER):
            raise ValueError("prompt does not end in a query block")
        keywords = tuple(
            k.strip() for k in query[0][len(KEYWORDS_MARKER):].split(",") if k.strip()
        )
        inst = self._by_answers[query[1]]
        ks = KeywordSet(keywords, METHOD_NER, 1.0, 0, (), sum(len(k.split()) for k in keywords))
        return self.oracle.completion_for(inst, ks)


class RecordingSleep:
    """Gateway `sleep=` hook: sleeps for real and keeps the time slept."""

    def __init__(self) -> None:
        self.total = 0.0

    def __call__(self, seconds: float) -> None:
        start = time.perf_counter()
        time.sleep(seconds)
        self.total += time.perf_counter() - start


def fixed_clock() -> float:
    """Cache timestamps are pinned so two passes write identical caches."""
    return 0.0


@dataclass
class State:
    """What one set-up builds; a pass reads it and never changes its inputs."""

    datasets: dict[str, Dataset]
    oracle: SyntheticContextProvider
    provider: object
    gateway: Gateway | None
    transport: OracleTransport | None
    sleep: RecordingSleep | None
    timings: dict[str, float]


class Workload:
    """One named workload at one seed and size, rooted in a work directory."""

    def __init__(self, name: str, seed: int, sizes: Sizes, workdir: Path, max_in_flight: int):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.spec = SyntheticSpec(
            seed=seed, train_size=sizes.train, dev_size=sizes.dev, test_size=sizes.test
        )
        self.gazetteer_path = workdir / "gazetteer.txt"
        self.cache_path = workdir / "cache.jsonl"
        self.max_in_flight = max_in_flight

    # -- inputs and preparation (untimed) ---------------------------------

    def make_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        terms = gazetteer_tokens(self.spec)
        if self.sizes.distractors:
            terms = sorted(set(terms) | set(distractor_terms(self.seed, self.sizes.distractors)))
        self.gazetteer_path.write_text("\n".join(terms) + "\n", encoding="utf-8")

    def config(self) -> ExperimentConfig:
        base = ExperimentConfig(
            seed=self.seed,
            featurizer_dim=self.sizes.dim,
            max_epochs=self.sizes.epochs,
            early_stop_patience=self.sizes.epochs,
        )
        if self.name == SWEEP:
            return base
        return replace(
            base,
            ratio=RATIO[self.name],
            mode="replay" if self.name == REPLAY else "live",
            cache_path=str(self.cache_path),
            gazetteer_file=str(self.gazetteer_path),
        )

    def requests_per_pass(self) -> int:
        if self.name == SWEEP:
            return 0
        return self.sizes.train + self.sizes.dev + self.sizes.test

    def experiments_per_pass(self) -> int:
        return len(DEFAULT_SWEEP_RATIOS) if self.name == SWEEP else 1

    def prime(self, state: State) -> None:
        """Fill the replay cache through the pipeline in mock mode.

        Priming extracts with the plain gazetteer. Replay extracts with the
        distractor one, so a replay pass that misses the cache has found a
        distractor that changed a disclosed keyword set.
        """
        cfg = self.config()
        canned: dict[str, str] = {}
        for ds in state.datasets.values():
            canned.update(state.oracle.mock_completions(ds, cfg.ratio, cfg.seed))
        self.cache_path.unlink(missing_ok=True)
        mock = PipelineProvider(
            Gateway(self.cache_path, mock_completions=canned, clock=fixed_clock),
            state.oracle.demonstrations(state.datasets["train"]),
            gazetteer=gazetteer_tokens(self.spec),
            model_id=cfg.model_id,
            mode="mock",
        )
        for ds in state.datasets.values():
            mock.provide(ds, cfg.ratio, cfg.seed, cfg.method)

    # -- set-up (timed) ----------------------------------------------------

    def setup(self) -> State:
        if self.name == LIVE:  # live always starts from a cold cache
            self.cache_path.unlink(missing_ok=True)
        t = {}
        start = time.perf_counter()
        datasets = build_corpus(self.spec)
        t["corpus_s"] = time.perf_counter() - start
        oracle = SyntheticContextProvider(self.spec)
        gateway = transport = sleep = None
        if self.name == SWEEP:
            provider: object = oracle
        else:
            gazetteer = load_gazetteer(self.gazetteer_path)
            mark = time.perf_counter()
            gateway, transport, sleep = self._gateway(datasets, oracle)
            t["cache_load_s"] = time.perf_counter() - mark
            cfg = self.config()
            provider = PipelineProvider(
                gateway,
                oracle.demonstrations(datasets["train"]),
                gazetteer=gazetteer,
                model_id=cfg.model_id,
                mode=cfg.mode,
            )
        t["setup_s"] = time.perf_counter() - start
        return State(datasets, oracle, provider, gateway, transport, sleep, t)

    def _gateway(
        self, datasets: dict[str, Dataset], oracle: SyntheticContextProvider
    ) -> tuple[Gateway, OracleTransport, RecordingSleep]:
        # replay gets a transport too, so a call that should never happen is counted
        transport = OracleTransport(oracle, datasets)
        sleep = RecordingSleep()
        gateway = Gateway(
            self.cache_path,
            transport=transport,
            max_in_flight=self.max_in_flight,
            backoff_start=BACKOFF_START_S,
            sleep=sleep,
            clock=fixed_clock,
        )
        return gateway, transport, sleep

    def cold_start(self, state: State) -> None:
        """Live passes start from an empty cache and a fresh gateway (untimed)."""
        if self.name != LIVE:
            return
        self.cache_path.unlink(missing_ok=True)
        state.gateway, state.transport, state.sleep = self._gateway(state.datasets, state.oracle)
        state.provider.gateway = state.gateway

    # -- one pass (timed) --------------------------------------------------

    def run_pass(self, state: State, outdir: Path) -> list:
        """Run the workload once and write its reports under `outdir`."""
        outdir.mkdir(parents=True)
        cfg = self.config()
        if self.name == SWEEP:
            reports = harness.run_budget_sweep(cfg, state.datasets, state.provider)
            for report in reports:
                ratio = report.config["ratio"]
                harness.write_report(report, outdir / f"sweep-ratio{ratio:g}-seed{cfg.seed}.json")
            return reports
        report = harness.run_experiment(cfg, state.datasets, state.provider)
        harness.write_report(report, outdir / f"{self.name}-seed{cfg.seed}.json")
        return [report]
