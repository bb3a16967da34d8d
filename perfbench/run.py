"""Wall-clock serving benchmark: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload bao_live --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's seeded rounds are built and served ``--seconds / round_s``
times (``round_s`` is a round's nominal length), set-up is timed
separately, and every round's outputs are checked after it is served.
``--trace 1`` serves the first round three times -- untraced, with spans
around every layer, untraced -- and reports the per-layer metrics; the
difference between the last two passes is the tracing overhead.  Spans
are written to ``.perfbench/spans-<workload>-seed<seed>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is ``digest <sha256>`` over the virtual outputs, identical for two
runs with the same workload, seed and seconds.  The exit code is 1 when
any output check failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

# One BLAS thread: the serving work is single-threaded by design, and a
# second BLAS thread on a 2-core machine only adds run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)
from spans import Patches, SpanRecorder  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: set-up is timed at least this many times per run
MIN_SETUPS = 5
#: how far apart two rounds' seeds are derived from the run's seed
ROUND_SEED_STRIDE = 1000

#: layers recorded as spans: each reports calls, busy_ms and self_ms
SPAN_LAYERS = (
    "serve.runtime.run",
    "serve.deployment.serve",
    "pilotscope.console.execute",
    "sql.parse",
    "e2e.bao.choose",
    "e2e.bao.explore",
    "e2e.bao.score",
    "e2e.bao.feedback",
    "bao.retrain",
    "optimizer.plan",
    "optimizer.plancache.get_or_plan",
    "optimizer.analyze",
    "cardest.estimate",
    "cardest.estimate_batch",
    "engine.simulate",
    "engine.exact_count",
    "storage.append",
    "oracle.audit",
    "serve.telemetry.incr",
    "serve.telemetry.observe",
    "serve.telemetry.trace",
    "serve.fabric.run",
    "serve.fabric.admit",
    "serve.fabric.route",
    "serve.fabric.submit",
)

REJECT_REASONS = (
    "timeout",
    "queue_full",
    "overload",
    "quota",
    "qos_shed",
    "unavailable",
    "shard_open",
    "error",
)

#: per-layer counters: name -> unit
COUNTERS = {
    "trace.served_qps_traced": "1/s",
    "trace.served_qps_untraced": "1/s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "runtime.overhead_ms": "ms",
    "serve.requests": "count",
    "serve.served": "count",
    **{f"serve.rejected.{r}": "count" for r in REJECT_REASONS},
    "optimizer.plan.calls_per_request": "count",
    "optimizer.cardcache.hit_rate": "ratio",
    "optimizer.cardcache.misses": "count",
    "optimizer.plancache.hit_rate": "ratio",
    "optimizer.plancache.misses": "count",
    "optimizer.plancache.invalidations": "count",
    "engine.memo.hit_rate": "ratio",
    "engine.memo.misses": "count",
    "bao.explore.distinct_ratio": "ratio",
    "bao.retrain.max_ms": "ms",
    "bao.retrain.observations_last": "count",
    "storage.append.rows": "count",
    "oracle.audit.audited": "count",
    "oracle.audit.violations": "count",
    "serve.fabric.reroutes": "count",
}

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "served_qps": "1/s",
    "serve_ms_p50": "ms",
    "serve_ms_p95": "ms",
    "virt_response_ms_p50": "ms",
    "virt_response_ms_p95": "ms",
    "served_frac": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_ms"] = "ms"
        units[f"{layer}.self_ms"] = "ms"
    units.update(COUNTERS)
    return units


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def round_seed(seed: int, r: int) -> int:
    return seed * ROUND_SEED_STRIDE + r


def digest_of(result) -> str:
    """sha256 over one round's virtual outputs."""
    h = hashlib.sha256()
    h.update(repr((result.served, sorted(result.rejected.items()))).encode())
    h.update(result.export)
    return h.hexdigest()


def timed_build(workload, seed: int, setup_times: list[float]):
    gc.collect()
    t0 = perf_counter()
    state = workload.build(seed)
    setup_times.append(perf_counter() - t0)
    return state


def measure(workload, seed: int, seconds: int):
    """Untraced rounds: the end-to-end metrics."""
    n_rounds = max(1, round(seconds / workload.round_s))
    setup_times: list[float] = []
    rounds, problems = [], []
    for r in range(n_rounds):
        state = timed_build(workload, round_seed(seed, r), setup_times)
        gc.collect()
        result = workload.serve(state)
        problems += workload.check(state, result)
        # Keep what the metrics need, not every request's outputs.
        rounds.append(
            {
                "served": len(result.served),
                "attempted": result.n_requests,
                "errors": result.rejected.get("error", 0),
                "wall_s": result.wall_s,
                "p50": percentile(result.serve_ns, 50) / 1e6,
                "p95": percentile(result.serve_ns, 95) / 1e6,
                "virt": array("d", (s[3] for s in result.served)),
                "digest": digest_of(result),
            }
        )
        del state, result
    while len(setup_times) < MIN_SETUPS:
        timed_build(workload, round_seed(seed, len(setup_times)), setup_times)
    served = sum(r["served"] for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["errors"] for r in rounds)
    virt_ms = [v for r in rounds for v in r["virt"]]
    # On a shared host the CPU's speed switches between states up to 1.5x
    # apart that last seconds to tens of seconds.  A median over rounds
    # jumps to whichever state held most rounds, so the wall figures are
    # averages, which move smoothly with the share of the run spent in each
    # state: requests served over the run's serving time, and each round's
    # percentile averaged over rounds.  Set-up time is a median of at
    # least MIN_SETUPS builds.  The virtual figures are deterministic and
    # pool every round's requests.
    metrics = {
        "setup_s": statistics.median(setup_times),
        "served_qps": served / sum(r["wall_s"] for r in rounds),
        "serve_ms_p50": statistics.fmean(r["p50"] for r in rounds),
        "serve_ms_p95": statistics.fmean(r["p95"] for r in rounds),
        "virt_response_ms_p50": percentile(virt_ms, 50),
        "virt_response_ms_p95": percentile(virt_ms, 95),
        "served_frac": (served - len(problems)) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    digest = hashlib.sha256("".join(r["digest"] for r in rounds).encode())
    return out, attempted, failed, problems, digest.hexdigest()


def measure_traced(workload, seed: int):
    """The first round untraced, traced, then untraced again.

    The first pass warms the process up; the tracing overhead compares the
    traced pass with the last one.  All three must serve the same outputs.
    """
    rec = SpanRecorder()
    passes, problems = [], []
    for traced in (False, True, False):
        state = timed_build(workload, round_seed(seed, 0), [])
        patches = Patches()
        if traced:
            workload.instrument(state, rec, patches)
        gc.collect()
        try:
            passes.append(workload.serve(state, rec if traced else None))
        finally:
            patches.undo()
        problems += workload.check(state, passes[-1])
        del state
    if len({digest_of(p) for p in passes}) != 1:
        problems.append("tracing changed the virtual outputs")
    traced, plain = passes[1], passes[2]
    attempted = sum(p.n_requests for p in passes)
    failed = sum(p.rejected.get("error", 0) for p in passes)
    reroutes = 0.0
    if getattr(workload, "fabric_pass", False):
        # The same round once more, through the 16-shard fabric: times the
        # fabric's own layers (admission, routing, shard submit) on this
        # traffic.  Only those layers are traced in this pass.
        from workloads import WORKLOADS

        fabric = WORKLOADS["fabric_console"]
        state = timed_build(fabric, round_seed(seed, 0), [])
        patches = Patches()
        fabric.instrument_fabric(state, rec, patches)
        gc.collect()
        try:
            routed = fabric.serve(state, rec)
        finally:
            patches.undo()
        problems += fabric.check(state, routed)
        del state
        attempted += routed.n_requests
        failed += routed.rejected.get("error", 0)
        reroutes = float(routed.counters["serve.fabric.reroutes"])

    metrics = dict.fromkeys(per_layer_units(), 0.0)
    totals = rec.layer_totals()
    for layer in SPAN_LAYERS:
        for key, value in totals.get(layer, {}).items():
            metrics[f"{layer}.{key}"] = value
    metrics.update(
        {k: float(v) for k, v in traced.counters.items() if k in metrics}
    )
    metrics["serve.fabric.reroutes"] = reroutes
    n_served = len(traced.served)
    metrics["trace.served_qps_traced"] = n_served / traced.wall_s
    metrics["trace.served_qps_untraced"] = len(plain.served) / plain.wall_s
    metrics["trace.overhead_pct"] = 100.0 * (
        metrics["trace.served_qps_untraced"] / metrics["trace.served_qps_traced"]
        - 1.0
    )
    metrics["trace.spans"] = float(len(rec))
    metrics["runtime.overhead_ms"] = metrics["serve.runtime.run.self_ms"]
    metrics["serve.requests"] = float(traced.n_requests)
    metrics["serve.served"] = float(n_served)
    for reason in REJECT_REASONS:
        metrics[f"serve.rejected.{reason}"] = float(traced.rejected.get(reason, 0))
    metrics["optimizer.plan.calls_per_request"] = (
        metrics["optimizer.plan.calls"] / traced.n_requests
    )

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    rec.write(out_dir / f"spans-{workload.name}-seed{seed}.npz")
    units = per_layer_units()
    out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return out, attempted, failed, problems, digest_of(traced)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must be in [0, 2**40)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    try:
        if args.trace:
            metrics, attempted, failed, problems, digest = measure_traced(
                workload, args.seed
            )
        else:
            metrics, attempted, failed, problems, digest = measure(
                workload, args.seed, args.seconds
            )
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"digest {digest}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed + len(problems),
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
