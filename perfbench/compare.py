"""Judge a change against a base from two files of `run.py --out` records.

For each workload and end-to-end metric this prints each side's median and
quartiles, how many run pairs the change won (ties count for neither side)
and a verdict:

    improved    the change won at least 9 of 10 pairs, over at least ten
                pairs, and the medians differ by more than the base's
                quartile distance;
    unresolved  the base's own spread (quartile distance over median) is
                wider than the metric's bound and the change does not beat
                every base run;
    worse       the change's median is worse than the base's by more than
                the bound;
    no worse    otherwise.

Runs pair by seed when both sides ran the same seeds, otherwise in file order.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    """End-to-end records (trace 0) grouped by workload, in file order."""
    out: dict[str, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    bs, cs = [r["seed"] for r in base], [r["seed"] for r in change]
    if len(set(bs)) == len(bs) and sorted(bs) == sorted(cs):
        by_seed = {r["seed"]: r for r in change}
        return [(r, by_seed[r["seed"]]) for r in base]
    return list(zip(base, change))


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, better: str) -> tuple[str, int]:
    """Verdict and pair-win count; values are compared with lower as better."""
    sign = 1.0 if better == "lower" else -1.0
    b = [sign * v for v in base]
    c = [sign * v for v in change]
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    mb, mc = statistics.median(b), statistics.median(c)
    q1, _, q3 = quartiles(b)
    scale = abs(mb) or 1.0
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and mb - mc > q3 - q1:
        return "improved", wins
    if (q3 - q1) / scale > bound and not max(c) < min(b):
        return "unresolved", wins
    if (mc - mb) / scale > bound:
        return "worse", wins
    return "no worse", wins


def main(base_path: str, change_path: str, end_to_end: list[dict]) -> int:
    """`end_to_end` is BENCHMARK.json's list: each metric's name, better direction and bound."""
    base, change = load(base_path), load(change_path)
    status = 0
    print(f"{'workload':8s} {'metric':12s} {'base median [q1, q3] n':36s} "
          f"{'change median [q1, q3] n':36s} {'wins':>7s}  verdict")
    for workload in sorted(set(base) & set(change)):
        pairs = pair(base[workload], change[workload])
        for m in end_to_end:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            p = [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in pairs]
            v, wins = verdict(b, c, p, m["bound"], m["better"])
            status |= v == "worse"
            cells = []
            for vals in (b, c):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(vals)}")
            print(f"{workload:8s} {name:12s} {cells[0]:36s} {cells[1]:36s} "
                  f"{wins:>3d}/{len(p):<3d}  {v}")
    for workload in sorted(set(base) ^ set(change)):
        print(f"{workload}: runs on one side only, not compared")
    return status
