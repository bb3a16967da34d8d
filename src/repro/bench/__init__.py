"""Benchmark harness support: metrics, report tables, workload recipes.

The runnable experiments live in ``benchmarks/`` (one per table/figure of
EXPERIMENTS.md); this package provides their shared machinery:

- :mod:`repro.bench.report` -- plain-text table rendering in the shape
  benchmark papers print;
- :mod:`repro.bench.workloads` -- canonical train/test workload recipes
  and the data-drift generator used by the dynamic experiments;
- :mod:`repro.bench.suite` -- estimator/optimizer suite builders so every
  experiment constructs methods consistently.
"""

from repro.bench.report import (
    render_cache_stats,
    render_fault_stats,
    render_lifecycle_stats,
    render_shard_stats,
    render_stats,
    render_table,
)
from repro.bench.io import load_workload, save_workload
from repro.bench.workloads import (
    WorkloadSpec,
    adversarial_hot_key_drift,
    apply_drift,
    hot_key_probe_queries,
    hot_key_targets,
    make_workloads,
)
from repro.bench.suite import (
    build_estimator,
    data_driven_estimators,
    estimate_workload,
    fit_estimator,
    hybrid_estimators,
    query_driven_estimators,
    traditional_estimators,
)

__all__ = [
    "render_table",
    "render_cache_stats",
    "render_fault_stats",
    "render_lifecycle_stats",
    "render_shard_stats",
    "render_stats",
    "save_workload",
    "load_workload",
    "WorkloadSpec",
    "adversarial_hot_key_drift",
    "apply_drift",
    "hot_key_probe_queries",
    "hot_key_targets",
    "make_workloads",
    "build_estimator",
    "query_driven_estimators",
    "data_driven_estimators",
    "hybrid_estimators",
    "traditional_estimators",
    "fit_estimator",
    "estimate_workload",
]
