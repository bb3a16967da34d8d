"""Execution engine: exact cardinalities, physical plans, latency simulation.

This package is the stand-in for PostgreSQL's executor.  It provides:

- :func:`repro.engine.executor.execute_cardinality` -- exact COUNT(*) of any
  SPJ query over the real (synthetic) data, via message passing on acyclic
  join graphs and a guarded materializing hash join otherwise;
- :mod:`repro.engine.plans` -- physical plan trees (scans and binary joins
  with hash/nested-loop/merge methods);
- :class:`repro.engine.simulator.ExecutionSimulator` -- a deterministic
  cost-based latency model evaluated on *true* cardinalities.  Running a
  plan through the simulator is this repo's equivalent of executing it on
  the DBMS: plans picked with bad cardinality estimates really do run
  slower, which is the feedback signal every learned optimizer consumes;
- :class:`repro.engine.lru.BoundedLRU` -- the one bounded LRU map every
  cache in the workbench is built on.
"""

from repro.engine.executor import CardinalityExecutor, execute_cardinality
from repro.engine.kernels import GroupIndex, KeyIndexCache
from repro.engine.lru import BoundedLRU
from repro.engine.plans import JoinMethod, JoinNode, Plan, PlanNode, ScanMethod, ScanNode
from repro.engine.simulator import ExecutionResult, ExecutionSimulator, SimulatorConfig

__all__ = [
    "CardinalityExecutor",
    "execute_cardinality",
    "BoundedLRU",
    "GroupIndex",
    "KeyIndexCache",
    "JoinMethod",
    "JoinNode",
    "Plan",
    "PlanNode",
    "ScanMethod",
    "ScanNode",
    "ExecutionResult",
    "ExecutionSimulator",
    "SimulatorConfig",
]
