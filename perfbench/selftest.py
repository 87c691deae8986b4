"""Self-test of the benchmark at tiny sizes; finishes in seconds.

Runs every workload once untraced and once traced, then feeds each output
check an input it must reject, and the compare rule a case for each verdict.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import checks
import compare
import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def contract() -> list[str]:
    """BENCHMARK.json keeps the contract, and the catalogue describes each of its metrics."""
    bench = run.BENCH
    out = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        out.append(f"BENCHMARK.json keys {sorted(bench)}")
    if not {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES):
        out.append("BENCHMARK.json lists a workload the benchmark does not have")
    described = json.loads((run.HERE / "catalogue.json").read_text(encoding="utf-8"))["metrics"]
    listed = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]} | {"failed_frac"}
    if set(described) != listed:
        out.append(f"catalogue.json and BENCHMARK.json differ in {sorted(set(described) ^ listed)}")
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
                out.append(f"bad metric entry {m}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values()) or max(bounds.values()) > 0.25:
        out.append(f"bounds {bounds}: setup_s must have the largest, none above 0.25")
    return out


def tiny_runs() -> list[str]:
    out = []
    for name in workloads.NAMES:
        for trace in (False, True):
            rec = run.measure(name, seed=3, seconds=0, trace=trace, tiny=True)
            print(f"  {name:6s} trace {int(trace)}: correct {rec['correct']}, "
                  f"{len(rec['metrics'])} metrics, {rec['attempted']} attempted")
            out += [f"{name} trace {int(trace)}: {v}" for v in rec["violations"]]
    return out


def rejects() -> list[str]:
    """Each check must flag an input that breaks it."""
    out = []
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        a, b = Path(tmp, "pass0"), Path(tmp, "pass1")
        for d, text in ((a, "x"), (b, "y")):
            d.mkdir()
            (d / "report.json").write_text(text)
        if not checks.identical_reports([a, b]):
            out.append("identical_reports accepted differing reports")

    def report(ratio, budget, acc):
        return {"config": {"ratio": ratio}, "budget": {"budget": budget}, "metrics": {"accuracy": acc}}

    good = [report(0.5, 0.25, 0.6), report(1.0, 0.5, 1.0)]
    if checks.sweep_reports(good):
        out.append("sweep_reports rejected a good sweep")
    for bad, why in (([report(0.5, 0.30, 0.6), report(1.0, 0.5, 1.0)], "budget off the ratio"),
                     ([report(0.5, 0.25, 0.7), report(1.0, 0.5, 0.6)], "falling accuracy"),
                     ([report(0.5, 0.25, 0.6), report(1.0, 0.5, 0.9)], "ratio-1.0 accuracy below 0.95")):
        if not checks.sweep_reports(bad):
            out.append(f"sweep_reports accepted {why}")
    if not checks.replay_transport(1):
        out.append("replay_transport accepted a transport call")
    if not checks.live_transport(calls=11, misses=10, throttled=0, requests=10):
        out.append("live_transport accepted an unexplained call")
    if not checks.live_transport(calls=10, misses=9, throttled=1, requests=10):
        out.append("live_transport accepted a missing cache record")
    counts = {name: 1 for name in checks.EXACT_COUNTS}
    if not checks.exact_counts([counts, {**counts, "scorer.steps": 2}]):
        out.append("exact_counts accepted a count that moved")

    # a distractor that occurs in the questions changes the disclosed keywords
    print("  a replay cache miss is expected next")
    original = workloads.distractor_terms
    workloads.distractor_terms = lambda seed, count: ["tok001", "tok003", "tok005"]
    try:
        rec = run.measure(workloads.REPLAY, seed=3, seconds=0, trace=False, tiny=True)
    finally:
        workloads.distractor_terms = original
    if rec["correct"] or not any("distractor" in v for v in rec["violations"]):
        out.append(f"replay accepted a distractor that matches: {rec['violations']}")
    return out


def verdicts() -> list[str]:
    out = []
    base = [10.0 + 0.1 * i for i in range(10)]
    cases = {
        "improved": [v - 2.0 for v in base],
        "no worse": [v + 0.2 for v in base],
        "worse": [v * 1.5 for v in base],
    }
    for want, change in cases.items():
        got, _ = compare.verdict(base, change, list(zip(base, change)), 0.1, "lower")
        if got != want:
            out.append(f"compare gave {got!r} for a {want!r} case")
    noisy = [5.0, 15.0] * 5
    got, _ = compare.verdict(noisy, noisy, list(zip(noisy, noisy)), 0.1, "lower")
    if got != "unresolved":
        out.append(f"compare gave {got!r} for a base wider than its bound")
    got, _ = compare.verdict([0.5] * 10, [0.6] * 10, [(0.5, 0.6)] * 10, 0.1, "higher")
    if got != "improved":
        out.append(f"compare gave {got!r} for a higher-is-better gain")
    return out


def main() -> int:
    failures = []
    for label, step in (("contract", contract), ("tiny runs", tiny_runs),
                        ("checks reject bad outputs", rejects), ("compare verdicts", verdicts)):
        print(f"selftest: {label}", flush=True)
        found = step()
        failures += found
        for f in found:
            print(f"  FAIL {f}")
    print(f"selftest: {'ok' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0
