"""privqa benchmark: three workloads through the public API, checked outputs,
end-to-end metrics with tracing off and per-layer spans from outside.

One workload (sweep, replay or live); the last line of stdout is the JSON result:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

All three workloads, each in its own process, with every metric and its unit:

    python3 perfbench/run.py --workload all --seed 1 --seconds 40

BENCHMARK.json lists sweep and live; replay is run by hand (see workloads.py).

`--out FILE` appends the full record of a run (samples, quartiles, counts,
provenance) to a JSONL file; `--compare BASE CHANGE` judges two such files.
`--selftest` runs every workload once at tiny sizes and exercises the checks.

The program is imported from `src/` beside this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}

# nproc before the measuring process pins itself to one CPU
NPROC = len(os.sched_getaffinity(0))
# A set-up takes 0.1-0.3 s, and a shared host runs it up to 1.7x slower for
# stretches of a second or more. So set-ups repeat for a window before the
# first pass and after every pass, and setup_s is the median over all windows.
SETUP_WINDOW_S = 2.0
MIN_SETUPS_PER_WINDOW = 3
MIN_PASSES = 2


def loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def git_revision() -> tuple[str, bool | None]:
    # the ceiling keeps git from reporting an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode != 0:
            return "unknown", None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                                env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    return rev.stdout.strip(), bool(status.stdout.strip())


def provenance(seed: int, load_start: float | None) -> dict:
    import numpy

    rev, dirty = git_revision()
    return {
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": rev,
        "git_dirty": dirty,
        "seeds": {"corpus": seed, "experiment": seed, "distractors": seed},
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": loadavg(),
    }


def pin_cpu() -> int:
    """Keep the single-threaded pipeline on one CPU.

    On a shared 2-core host, one default experiment repeated pinned and
    unpinned in alternation spread by 9 % and 19 % (quartile distance over
    median) at the same median.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup_window(wl, keep: bool, window_s: float) -> tuple[list[dict], object]:
    """Set up repeatedly for `window_s`; the timings, and the last State if `keep`.

    Each State is dropped before the next set-up, so every set-up runs on
    the same heap.
    """
    timings: list[dict] = []
    state = None
    start = time.perf_counter()
    while len(timings) < MIN_SETUPS_PER_WINDOW or time.perf_counter() - start < window_s:
        state = None
        gc.collect()
        state = wl.setup()
        timings.append(state.timings)
    return timings, state if keep else None


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its full record."""
    import checks
    from compare import quartiles
    from privqa.contexts import ParseError
    from privqa.gateway import GatewayError, ReplayCacheMiss
    from privqa.harness import report_to_dict
    from tracer import ROOT as ROOT_SPAN
    from tracer import Tracer, pass_metrics
    from workloads import FULL, LIVE, REPLAY, SWEEP, TINY, Workload

    load_start = loadavg()
    pin_cpu()
    sizes = (TINY if tiny else FULL)[name]
    window_s = 0.0 if tiny else SETUP_WINDOW_S
    workdir = WORK / f"{name}-s{seed}-{os.getpid()}"
    wl = Workload(name, seed, sizes, workdir, max_in_flight=NPROC)
    violations: list[str] = []
    try:
        wl.make_inputs()
        if name == REPLAY:
            wl.prime(wl.setup())

        started = time.perf_counter()
        setups, state = setup_window(wl, keep=True, window_s=window_s)
        run_s = {False: [], True: []}
        layer_samples: list[dict] = []
        count_samples: list[dict] = []
        pass_dirs: list[Path] = []
        reports: list[dict] = []
        experiments = requests = failed = 0
        while True:
            traced = trace and len(pass_dirs) % 2 == 1
            outdir = workdir / f"pass{len(pass_dirs)}"
            wl.cold_start(state)
            cache_before = wl.cache_path.stat().st_size if wl.cache_path.exists() else 0
            tr = Tracer() if traced else None
            experiments += wl.experiments_per_pass()
            requests += wl.requests_per_pass()
            t0 = time.perf_counter()
            try:
                if tr is not None:
                    tr.install(state.provider, state.gateway)
                    root = tr.open(ROOT_SPAN)
                out = wl.run_pass(state, outdir)
                if tr is not None:
                    tr.close(root)
            except Exception as exc:  # a failed pass is counted and ends the run
                traceback.print_exc()
                cause = exc.__cause__ or exc
                failed += wl.experiments_per_pass() + isinstance(cause, (GatewayError, ParseError))
                violations.append(f"pass {len(pass_dirs)} raised {type(exc).__name__}: {exc}")
                if isinstance(exc, ReplayCacheMiss):
                    violations.append("the cache was primed with the plain gazetteer, so the "
                                      "distractor gazetteer changed a disclosed keyword set")
                break
            finally:
                if tr is not None:
                    tr.restore()
            run_s[traced].append(time.perf_counter() - t0)
            pass_dirs.append(outdir)
            if not reports:
                reports = [report_to_dict(r) for r in out]
            written = (wl.cache_path.stat().st_size if wl.cache_path.exists() else 0) - cache_before
            if name == REPLAY:
                violations += checks.replay_transport(state.transport.calls)
            if name == LIVE:
                misses = len(wl.cache_path.read_text(encoding="utf-8").splitlines())
                violations += checks.live_transport(state.transport.calls, misses,
                                                    state.transport.throttled, wl.requests_per_pass())
            if tr is not None:
                timings, counts = pass_metrics(tr, state)
                timings["gateway.cache_bytes_written"] = written
                layer_samples.append(timings)
                count_samples.append(counts)
            setups += setup_window(wl, keep=False, window_s=window_s)[0]
            done = len(run_s[False]) >= MIN_PASSES and (not trace or len(run_s[True]) >= MIN_PASSES)
            if done and time.perf_counter() - started >= seconds:
                break

        if not violations:
            violations += checks.identical_reports(pass_dirs)
            if name == SWEEP:
                violations += checks.sweep_reports(reports)
            if count_samples:
                violations += checks.exact_counts(count_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still has its directory there
            pass

    samples: dict[str, list[float]] = {}
    if not trace:
        samples["setup_s"] = [t["setup_s"] for t in setups]
        samples["run_s"] = run_s[False]
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
        samples["accuracy"] = [statistics.fmean(r["metrics"]["accuracy"] for r in reports)] if reports else []
    else:
        samples["corpus.build_s"] = [t["corpus_s"] for t in setups]
        samples["gateway.cache_load_s"] = [t.get("cache_load_s", 0.0) for t in setups]
        for key in (layer_samples[0] if layer_samples else {}):
            samples[key] = [t[key] for t in layer_samples]
        for key, value in (count_samples[0] if count_samples else {}).items():
            samples[key] = [value]
        if run_s[True] and run_s[False]:
            samples["trace.overhead_frac"] = [
                statistics.median(run_s[True]) / statistics.median(run_s[False]) - 1.0
            ]
    wanted = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    missing = [m for m in wanted if not samples.get(m)]
    violations += [f"metric {m} was not measured" for m in missing]
    metrics = {}
    for m in wanted:
        if m in missing:
            continue
        q1, med, q3 = quartiles(samples[m])
        metrics[m] = {"value": med, "unit": UNITS[m], "q1": q1, "q3": q3, "n": len(samples[m])}
    attempted = experiments + requests
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "tiny": tiny,
        "correct": not violations,
        "violations": violations,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "samples": samples,
        "provenance": provenance(seed, load_start),
    }


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:9s} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})")
    print(f"  {'failed_frac':32s} {rec['failed_frac']:>14.6g} {'fraction':9s} "
          f"({rec['failed']} of {rec['attempted']} experiments and requests)")
    for v in rec["violations"]:
        print(f"  CHECK FAILED: {v}")
    print(f"  checks: {'ok' if rec['correct'] else 'FAILED'}")
    print("provenance " + json.dumps(rec["provenance"], sort_keys=True))


def result_line(rec: dict) -> str:
    return json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in rec["metrics"].items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import NAMES

    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        # the child's summary, without its one-line JSON result
        print("\n".join(ln for ln in proc.stdout.splitlines() if not ln.startswith('{"correct"')),
              flush=True)
        if proc.returncode != 0:
            print(f"workload {name} exited with status {proc.returncode}")
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="sweep, replay, live or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0, help="measure at least this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "privqa" / "__init__.py").is_file():
        print(f"privqa sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.compare:
        import compare

        return compare.main(*args.compare, BENCH["end_to_end"])
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload == "all":
        return run_all(args)
    from workloads import NAMES

    if args.workload not in NAMES:
        p.error(f"--workload must be one of {', '.join(NAMES)} or all")
    rec = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print_record(rec)
    print(result_line(rec), flush=True)
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
