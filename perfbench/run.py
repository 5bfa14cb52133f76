"""scoreplay benchmark: one workload, measured, checked and reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/`` and the reference oracles from ``tests/``.  With ``--trace 0``
the run measures the end-to-end metrics of BENCHMARK.json for at least S
seconds; with ``--trace 1`` it runs one round twice, untraced and traced,
and reports the per-layer metrics.  The last line of stdout is the result
object; the line before it, starting ``info``, records the environment,
sample counts, output digests and wall-clock values.  Reported times are
at reference speed (see clock.py).  Span files go to .perfbench-out/.

Processes run one at a time: this script starts each worker (see
worker.py) only after the previous one has exited.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"

#: Requests per round and the fewest rounds a run makes.  Each round is a
#: fresh process over a fixed number of requests, so memory and cache
#: counts do not depend on how fast the engine is.
ROUNDS = {
    "cmp-default": (250, 4),     # 1,000 requests leave 10 beyond p99
    "template-sweep": (1, 2),    # one sweep of 390,625 grid points
    "build-mix": (20_000, 2),
}
SETUP_RUNS = 5       # extra set-up-only processes per run, for setup_s
RUN_BUDGET_S = 160   # start no round that would end later than this
SCOREPLAY_ENV = ("SCOREPLAY_DEPTH", "SCOREPLAY_WIDTH", "SCOREPLAY_SCORES")


class WorkerError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    # Workers share one bytecode cache under OUT_DIR whatever the caller's
    # settings, so set-up time is always that of an import from cached
    # bytecode (the first worker of a fresh checkout fills the cache).
    env = {k: v for k, v in os.environ.items()
           if k not in SCOREPLAY_ENV and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def _worker(args: list, stdin: str | None, deadline: float) -> str:
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *map(str, args)],
            input=stdin, capture_output=True, text=True,
            env=_env(), cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args[:2]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(
            f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return proc.stdout


def _sub_seed(workload: str, seed: int, rnd: int) -> int:
    return random.Random(f"{workload}/{seed}/{rnd}").getrandbits(32)


def _round(workload, seed, rnd, traced_too, deadline) -> list[dict]:
    """Generate round rnd's inputs, then run them untraced (and traced)."""
    n, _ = ROUNDS[workload]
    sub = _sub_seed(workload, seed, rnd)
    inputs = _worker(["gen", workload, sub, n], None, deadline)
    spans = OUT_DIR / f"spans-{workload}.tsv.gz"
    return [
        json.loads(_worker(["round", workload, sub, t, spans], inputs, deadline))
        for t in ((0, 1) if traced_too else (0,))
    ]


def _percentile(sorted_values: list, p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _summary(rounds: list[dict], suffix: str) -> dict:
    """ops_per_s, p50_ms and p99_ms from latencies_ns or latencies_raw_ns."""
    lat = sorted(ns / 1e6 for r in rounds for ns in r["latencies" + suffix])
    p50, _ = _percentile(lat, 50)
    p99, beyond = _percentile(lat, 99)
    return {
        "ops_per_s": sum(r["ops"] for r in rounds) / (sum(lat) / 1e3),
        "p50_ms": p50,
        "p99_ms": p99,
        "samples": len(lat),
        "beyond_p99": beyond,
    }


def end_to_end(workload, seed, seconds, started) -> tuple[dict, list[dict], dict]:
    """Set-up runs, then rounds until `seconds` have passed (tracing off)."""
    deadline = started + RUN_BUDGET_S
    setups = [
        json.loads(_worker(["setup", workload], None, deadline))
        for _ in range(SETUP_RUNS)
    ]
    _, min_rounds = ROUNDS[workload]
    rounds: list[dict] = []
    t0 = time.monotonic()
    last = 0.0
    while len(rounds) < min_rounds or time.monotonic() - t0 < seconds:
        if time.monotonic() + last > deadline:
            break
        t = time.monotonic()
        rounds += _round(workload, seed, len(rounds), False, deadline)
        last = time.monotonic() - t
    setups += rounds
    ref, raw = _summary(rounds, "_ns"), _summary(rounds, "_raw_ns")
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": ref["ops_per_s"],
        "p50_ms": ref["p50_ms"],
        "p99_ms": ref["p99_ms"],
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
    }
    extra = {
        "samples": ref["samples"],
        "beyond_p99": ref["beyond_p99"],
        "probe_median_ms": statistics.median(r["probe_median_s"] for r in rounds) * 1e3,
        "wall_clock": {
            "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
            **{k: raw[k] for k in ("ops_per_s", "p50_ms", "p99_ms")},
        },
    }
    return metrics, rounds, extra


def per_layer(workload, seed, started) -> tuple[dict, list[dict], dict]:
    """Round 0 untraced, then traced on the same inputs."""
    plain, traced = _round(workload, seed, 0, True, started + RUN_BUDGET_S)
    trace = traced["trace"]
    metrics = {**trace, **traced["counts"]}
    steps, reduce_calls = metrics.get("canonical.steps_applied"), trace.get("canonical.reduce_calls")
    if steps is not None and reduce_calls is not None:
        metrics["canonical.steps_per_reduce_call"] = steps / reduce_calls if reduce_calls else 0.0
    metrics.update({
        "order.universe_build_s": plain["universe_build_s"],
        "runtime.gc_pause_s": plain["gc_pause_s"],
        "runtime.gc_collections": plain["gc_collections"],
        "trace.overhead_ratio": sum(traced["latencies_ns"]) / sum(plain["latencies_ns"]),
    })
    return metrics, [plain, traced], {"spans": traced["spans"]}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scoreplay" / "__init__.py").is_file():
        print(f"error: no scoreplay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    started = time.monotonic()
    try:
        if args.trace:
            measured, rounds, extra = per_layer(args.workload, args.seed, started)
            wanted = spec["per_layer"]
        else:
            measured, rounds, extra = end_to_end(
                args.workload, args.seed, args.seconds, started)
            wanted = spec["end_to_end"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in measured
    }
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "rounds": len(rounds),
        "requests": sum(r["requests"] for r in rounds),
        "error_rate": failed / attempted,
        "digests": [r["digest"] for r in rounds],
        "absent": [m["name"] for m in wanted if m["name"] not in measured],
        "errors": [e for r in rounds for e in r["errors"]][:20],
        "wall_s": time.monotonic() - started,
        **extra,
    }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
