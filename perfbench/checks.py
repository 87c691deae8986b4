"""Output checks. Each returns a list of violations; an empty list passes."""

from __future__ import annotations

from pathlib import Path

# Counts that must repeat exactly from pass to pass; later changes may cite them.
EXACT_COUNTS = (
    "keywords.extract_calls",
    "scorer.featurize_calls",
    "scorer.steps",
    "gateway.upstream_calls",
    "gateway.retries",
    "contexts.parse_warnings",
    "promptkit.prompt_chars.mean",
    "scorer.support_frac",
)


def identical_reports(pass_dirs: list[Path]) -> list[str]:
    """Every pass of one workload and seed renders byte-identical reports."""
    if len(pass_dirs) < 2:
        return [f"byte-identity needs two passes, got {len(pass_dirs)}"]
    first = {p.name: p.read_bytes() for p in sorted(pass_dirs[0].iterdir())}
    if not first:
        return [f"{pass_dirs[0].name} wrote no report"]
    out = []
    for other in pass_dirs[1:]:
        files = {p.name: p.read_bytes() for p in sorted(other.iterdir())}
        if files.keys() != first.keys():
            out.append(f"{other.name} wrote {sorted(files)}, {pass_dirs[0].name} wrote {sorted(first)}")
        out += [f"{other.name}/{n} differs from {pass_dirs[0].name}" for n in first
                if n in files and files[n] != first[n]]
    return out


def sweep_reports(reports: list[dict]) -> list[str]:
    """Budgets follow the ratio, accuracy never drops as it rises, ratio 1.0 is learnt."""
    rows = sorted((r["config"]["ratio"], r["budget"]["budget"], r["metrics"]["accuracy"]) for r in reports)
    if not rows or rows[-1][0] != 1.0:
        return ["sweep has no ratio-1.0 report"]
    full = rows[-1][1]
    out = [f"ratio {r:g}: budget {b:.4f} is not within 0.02 of {r * full:.4f}"
           for r, b, _ in rows if abs(b - r * full) > 0.02]
    out += [f"accuracy drops from {a:.4f} at ratio {r:g} to {a2:.4f} at ratio {r2:g}"
            for (r, _, a), (r2, _, a2) in zip(rows, rows[1:]) if a2 < a]
    if rows[-1][2] < 0.95:
        out.append(f"ratio-1.0 accuracy {rows[-1][2]:.4f} is below 0.95")
    return out


def replay_transport(calls: int) -> list[str]:
    return [] if calls == 0 else [f"replay made {calls} transport calls"]


def live_transport(calls: int, misses: int, throttled: int, requests: int) -> list[str]:
    """Upstream calls are the cold-cache misses plus the injected 429s."""
    out = []
    if misses != requests:
        out.append(f"live cached {misses} records for {requests} requests")
    if calls != misses + throttled:
        out.append(f"live made {calls} transport calls for {misses} misses + {throttled} 429s")
    return out


def exact_counts(per_pass: list[dict]) -> list[str]:
    out = []
    for name in EXACT_COUNTS:
        values = [counts[name] for counts in per_pass]
        if any(v != values[0] for v in values):
            out.append(f"{name} differs between passes: {values}")
    return out
