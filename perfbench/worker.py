"""One benchmark process: set-up, input generation, or one measured round.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py gen WORKLOAD SUB_SEED N
    python3 perfbench/worker.py round WORKLOAD SUB_SEED TRACE SPANS_PATH < inputs.json

Each prints one JSON object on stdout.  run.py starts these one at a time
and aggregates them; see README.md.  Times are at reference speed (see
clock.py) except those named ``*_raw*``, which are wall-clock.
"""

from __future__ import annotations

from time import perf_counter_ns

from clock import PROBE_REF_S, Clock, probe_ns

_PROBE0 = probe_ns()
_T0 = perf_counter_ns()  # set-up time starts before the engine is imported

import gc
import json
import random
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

# Module-level dicts whose growth is a per-layer count: (module, attribute).
# A cache a later change removes is reported as absent.
CACHES = {
    "core.terms_interned": ("scoreplay.core", "_interned"),
    "sums.expansions": ("scoreplay.sums", "_add_cache"),
    "score.positions_evaluated": ("scoreplay.score", "_finals"),
    "rulesets.positions_compiled": ("scoreplay.rulesets", "_tf_cache"),
}


def _cache_sizes() -> dict[str, int]:
    sizes = {}
    for metric, (module, attr) in CACHES.items():
        cache = getattr(sys.modules.get(module), attr, None)
        if isinstance(cache, dict):
            sizes[metric] = len(cache)
    return sizes


def _setup(workload_name: str):
    """Import the engine and prepare the workload.

    Returns the workload, the set-up time at reference speed and wall
    time, and the universe build time at reference speed.
    """
    from workloads import WORKLOADS  # imports the engine

    workload = WORKLOADS[workload_name]
    universe_s = workload.setup()
    raw_s = (perf_counter_ns() - _T0) / 1e9
    scale = 2 * PROBE_REF_S * 1e9 / (_PROBE0 + probe_ns())
    return workload, raw_s * scale, raw_s, universe_s * scale


def cmd_setup(name: str) -> dict:
    _, setup_s, setup_raw_s, _ = _setup(name)
    return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}


def cmd_gen(name: str, sub_seed: int, n: int) -> list:
    workload = _setup(name)[0]
    return workload.generate(random.Random(sub_seed), n)


def cmd_round(name: str, sub_seed: int, traced: bool, spans_path: str) -> dict:
    workload, setup_s, setup_raw_s, universe_s = _setup(name)
    requests = json.load(sys.stdin)
    request = workload.request
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
    records: list = []
    intervals: list[tuple[int, int]] = []
    errors: list[str] = []
    clock = Clock()
    before = _cache_sizes()
    gc.callbacks.append(clock)
    if tracer:
        tracer.install()
    clock.probe()
    for req in requests:
        t = perf_counter_ns()
        try:
            rec = tracer.request(request, req) if tracer else request(req)
        except Exception as exc:  # a failed request is counted, not fatal
            rec = None
            errors.append(f"{req!r:.200}: {type(exc).__name__}: {exc}")
        intervals.append((t, perf_counter_ns()))
        records.append(rec)
        clock.maybe_probe()
    clock.probe()
    if tracer:
        tracer.uninstall()
    gc.callbacks.remove(clock)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after = _cache_sizes()

    failed, messages = workload.check(requests, records, random.Random(sub_seed))
    from workloads import OUTPUT_COUNTS

    counts = dict.fromkeys(OUTPUT_COUNTS, 0)
    counts.update(workload.counts(requests, records))
    counts.update({k: after[k] - before[k] for k in after if k in before})
    scale = clock.scale()
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "universe_build_s": universe_s,
        "requests": len(requests),
        "ops": len(requests) * workload.ops_per_request,
        "latencies_ns": [clock.reference_ns(a, b) for a, b in intervals],
        "latencies_raw_ns": [b - a for a, b in intervals],
        "probe_median_s": PROBE_REF_S / scale,
        "peak_rss_kb": peak_rss_kb,
        "failed": failed,
        "errors": (errors + messages)[:20],
        "digest": workload.digest(records),
        "counts": counts,
        "gc_collections": clock.gc_collections,
        "gc_pause_s": clock.gc_pause_ns / 1e9 * scale,
    }
    if tracer:
        result["trace"] = _trace_metrics(tracer, scale)
        result["spans"] = tracer.write_spans(spans_path)
    return result


def _trace_metrics(tracer, scale: float) -> dict:
    """Per-layer metrics of a traced round; self times at reference speed."""
    from tracing import LAYERS

    def self_s(prefix: str) -> float:
        return tracer.self_seconds(prefix) * scale

    evals = tracer.call_count("sums.SumEvaluator.final_scores")
    metrics = {f"{layer}.self_s": self_s(f"{layer}.") for layer in LAYERS}
    metrics.update({
        "sums.eval_self_s": self_s("sums.SumEvaluator.final_scores"),
        "sums.add_self_s": self_s("sums.add"),
        "sums.pair_evals": evals,
        "canonical.reduce_calls": tracer.call_count("canonical.reduce_step"),
    })
    if evals is not None and (tracer.memo_probed or not evals):
        metrics["sums.memo_hit_ratio"] = tracer.memo_hits / evals if evals else 0.0
    # A function a later change removes has no call count: leave it absent.
    return {k: v for k, v in metrics.items() if v is not None}


def main(argv: list[str]) -> int:
    cmd, name = argv[0], argv[1]
    if cmd == "setup":
        out = cmd_setup(name)
    elif cmd == "gen":
        out = cmd_gen(name, int(argv[2]), int(argv[3]))
    elif cmd == "round":
        out = cmd_round(name, int(argv[2]), argv[3] == "1", argv[4])
    else:
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return 2
    print(json.dumps(out, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
