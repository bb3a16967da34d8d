"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "render_table",
    "render_cache_stats",
    "render_fault_stats",
    "render_lifecycle_stats",
    "render_shard_stats",
    "render_stats",
]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    note: str | None = None,
) -> str:
    """Render an aligned text table with a title rule.

    Cells may be any value; floats are formatted adaptively.  Used by all
    ``benchmarks/bench_*.py`` experiments so their output is uniform and
    greppable in ``bench_output.txt``.
    """
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = [f"\n=== {title} ===" if title else ""]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        out.append(f"note: {note}")
    return "\n".join(out)


def render_cache_stats(
    stats: dict, *, title: str = "cardinality cache", note: str | None = None
) -> str:
    """Render :meth:`repro.optimizer.cardcache.CardinalityCache.stats`.

    One shared shape for every report that surfaces the planner cache's
    hit/miss/eviction counters (P1/P2 benchmarks, serving summaries).
    """
    return render_table(
        title,
        ["entries", "hits", "misses", "evictions", "hit_rate"],
        [(
            int(stats["entries"]),
            int(stats["hits"]),
            int(stats["misses"]),
            int(stats["evictions"]),
            f"{stats['hit_rate']:.3f}",
        )],
        note=note,
    )


def render_fault_stats(
    counters: dict, *, title: str = "fault injection", note: str | None = None
) -> str:
    """Render per-fault-class counters (``{"target.kind": count}``) from a
    :class:`repro.faults.FaultInjector` or the matching ``faults.*``
    telemetry counters.  Meta keys (``total``, ``clock_ms``) are split out
    into the note line so the table stays one row per fault class.
    """
    meta = {k: v for k, v in counters.items() if "." not in k}
    rows = [
        (k.split(".", 1)[0], k.split(".", 1)[1], int(v))
        for k, v in sorted(counters.items())
        if "." in k
    ]
    if not rows:
        rows = [("-", "-", 0)]
    extras = ", ".join(f"{k}={_fmt(float(v))}" for k, v in sorted(meta.items()))
    return render_table(
        title,
        ["target", "kind", "injected"],
        rows,
        note=", ".join(x for x in (extras, note) if x) or None,
    )


def render_stats(stats: dict, *, title: str, note: str | None = None) -> str:
    """Render a flat ``{stat: value}`` dict as one (stat, value) row per
    key, in the dict's own order -- e.g.
    :meth:`repro.faults.BoundGuard.stats` (check/violation funnel,
    fallback routing, bound/estimate ratio percentiles) or
    :meth:`repro.rewrite.PromotionLeaderboard.stats` (the promotion
    funnel and the learning-side counters)."""
    rows = list(stats.items()) or [("-", 0)]
    return render_table(title, ["stat", "value"], rows, note=note)


def render_lifecycle_stats(
    stats: dict, *, title: str = "model lifecycle", note: str | None = None
) -> str:
    """Render :func:`repro.lifecycle.lifecycle_stats` output: a nested
    ``{"scheduler": {...}, "registry": {...}, "store": {...}}`` block as
    one (component, stat, value) row per counter, in sorted order."""
    rows = [
        (component, key, stats[component][key])
        for component in sorted(stats)
        for key in sorted(stats[component])
    ]
    if not rows:
        rows = [("-", "-", 0)]
    return render_table(title, ["component", "stat", "value"], rows, note=note)


def render_shard_stats(
    fabric, *, title: str = "fabric shards", note: str | None = None
) -> str:
    """Render a :class:`repro.serve.ServingFabric`'s per-shard summary.

    One row per shard -- router assignments, admission funnel (submitted
    -> served, backend errors), virtual span and breaker trips -- plus a
    totals row, so benchmark output shows load balance and failover at a
    glance.  Used by ``benchmarks/bench_p9_fabric.py``.
    """
    router_stats = fabric.router.stats()
    rows = []
    totals = [0, 0, 0, 0, 0.0, 0]
    for shard in fabric.shards:
        st = shard.stats()
        assigned = int(router_stats.get(f"assigned.{shard.name}", 0))
        row = (
            shard.name,
            assigned,
            int(st["submitted"]),
            int(st["served"]),
            int(st["errors"]),
            st["span_ms"],
            int(st["breaker_trips"]),
        )
        rows.append(row)
        totals[0] += assigned
        totals[1] += row[2]
        totals[2] += row[3]
        totals[3] += row[4]
        totals[4] = max(totals[4], row[5])
        totals[5] += row[6]
    rows.append(("total", *totals))
    return render_table(
        title,
        ["shard", "assigned", "submitted", "served", "errors", "span_ms", "trips"],
        rows,
        note=note,
    )
