"""The benchmark's workloads, assembled from the program's public constructors.

Each workload serves one *round*: a fixed, seeded set of requests against
freshly built state.  A round is a pure function of its seed, so its
virtual outputs (cardinality, plan source and virtual response time per
request, plus the fabric's merged export) are identical on every run.

- ``bao_live``: Bao (12 hint-set arms, TreeConv risk model, refit every 25
  feedbacks) LIVE behind a ``DeploymentManager``; ad-hoc 2-4-table
  queries, no template reuse, no plan cache.
- ``console_templates``: SQL text through a driverless
  ``PilotScopeConsole`` with a 4096-entry ``PlanCache``; 100 templates,
  each bound 10 times.
- ``console_writes``: the same stream plus an append of ~1% rows to one
  table (rotating over the 5 tables) every 50 requests, each followed by
  a statistics refresh of that table.
- ``fabric_console``: the ``console_templates`` stream through a
  16-shard x 2-worker ``ServingFabric`` whose shards share one console;
  six tenants cycling through the QoS classes, one above its quota.
- ``fabric_synth``: the same fabric over a ``SyntheticBackend``; 10^5
  requests tiled from 240 templates.  It is not in ``BENCHMARK.json``: its
  ~20 us pure-Python request path follows the host's speed state too
  closely to hold a bound (see README.md).

The three runtime workloads replay a seeded open-loop arrival schedule
(virtual time) through a ``ServingRuntime`` with 2 sessions (2 threads);
the fabric runs its single-threaded event loop.  An ``OnlineAuditor``
re-verifies 1 in 16 served requests on every workload but ``fabric_synth``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

from repro.e2e.bao import BaoOptimizer
from repro.engine.executor import CardinalityExecutor
from repro.engine.simulator import ExecutionSimulator
from repro.faults import CircuitBreaker, VirtualClock
from repro.optimizer.hints import HintSet
from repro.optimizer.plancache import PlanCache
from repro.optimizer.planner import Optimizer
from repro.oracle.audit import OnlineAuditor
from repro.oracle.reference import ReferenceTooLarge, reference_count
from repro.pilotscope import PilotScopeConsole, SimulatedPostgreSQL
from repro.pilotscope import console as console_module
from repro.serve import (
    ConsoleBackend,
    DeploymentManager,
    FabricConfig,
    Served,
    ServingFabric,
    ServingRuntime,
    ShardRuntime,
    Stage,
    TelemetryBus,
    TenantRegistry,
    TenantSpec,
    build_fabric_schedule,
    build_schedule,
)
from repro.serve.fabric import SyntheticBackend
from repro.sql.generator import WorkloadGenerator
from repro.storage.catalog import Database
from repro.storage.datasets import make_stats_lite
from repro.storage.table import Column, Table

__all__ = ["WORKLOADS", "RoundResult"]

#: the database is fixed; the seed selects the traffic
DB_SCALE = 0.3
DB_SEED = 0
N_SESSIONS = 2
AUDIT_EVERY = 16
#: per-session mean gap between arrivals, virtual ms
MEAN_INTERARRIVAL_MS = 100.0
#: served requests per round re-counted with the pure-Python reference
REFERENCE_CHECKS = 8


def make_db() -> Database:
    return make_stats_lite(scale=DB_SCALE, seed=DB_SEED)


@dataclass
class RoundResult:
    """What one round served, as the benchmark saw it."""

    n_requests: int
    #: per served request: (request id, cardinality, plan source, virtual
    #: response ms = wait + service), in request order
    served: list[tuple[int, int, str, float]]
    rejected: dict[str, int]
    wall_s: float  # wall time of the serving call, seconds
    serve_ns: list[int]  # wall time of each per-request serving call
    export: bytes = b""  # merged telemetry export (fabric)
    counters: dict[str, float] = field(default_factory=dict)


class TimedBackend:
    """Times each ``serve`` call of the wrapped backend; forwards the rest."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.serve_ns: list[int] = []

    def serve(self, query):
        t0 = perf_counter_ns()
        decision = self.backend.serve(query)
        self.serve_ns.append(perf_counter_ns() - t0)
        return decision

    def __getattr__(self, name):
        return getattr(self.backend, name)


class SqlTextConsole:
    """The console as :class:`ConsoleBackend` sees it, fed SQL text.

    The schedule carries ``Query`` objects (the runtime hashes them for
    its traces); the user's request is the SQL text, rendered once at
    set-up, so parsing is on the request path and rendering is not.
    """

    def __init__(self, console: PilotScopeConsole, sql_of: dict[int, str]) -> None:
        self.console = console
        self.sql_of = sql_of

    @property
    def query_log(self):
        return self.console.query_log

    @property
    def plan_cache(self):
        return self.console.plan_cache

    def execute(self, query):
        return self.console.execute(self.sql_of[id(query)])


# -- runtime workloads --------------------------------------------------------------


@dataclass
class RuntimeState:
    db: Database
    optimizer: Optimizer
    simulator: ExecutionSimulator
    runtime: ServingRuntime
    schedule: list
    backend: TimedBackend
    auditor: OnlineAuditor
    seq_of: dict[int, int]  # id(query) -> global sequence number
    bao: BaoOptimizer | None = None
    deployment: DeploymentManager | None = None
    console: PilotScopeConsole | None = None
    plan_cache: PlanCache | None = None
    #: (first request id, {table: rows}) per data epoch, oldest first
    epochs: list = field(default_factory=list)
    rows_appended: int = 0
    bao_stats: dict | None = None  # set when a bao round is traced


def _table_rows(db: Database) -> dict[str, int]:
    return {name: t.n_rows for name, t in db.tables.items()}


def _runtime_state(db, optimizer, simulator, backend, queries, seed, **extra):
    schedule = build_schedule(
        queries, N_SESSIONS, seed=seed, mean_interarrival_ms=MEAN_INTERARRIVAL_MS
    )
    auditor = OnlineAuditor(db, every=AUDIT_EVERY)
    timed = TimedBackend(backend)
    return RuntimeState(
        db=db,
        optimizer=optimizer,
        simulator=simulator,
        runtime=ServingRuntime(timed, auditor=auditor),
        schedule=schedule,
        backend=timed,
        auditor=auditor,
        seq_of={id(r.query): r.global_seq for sess in schedule for r in sess},
        epochs=[(0, _table_rows(db))],
        **extra,
    )


class RuntimeWorkload:
    """Shared serve / check / instrument logic of the runtime workloads."""

    name = ""
    #: nominal wall seconds of one round (set-up, serving and checks) at
    #: the reference commit; a run makes ``--seconds / round_s`` rounds
    round_s = 1.0

    def build(self, seed: int) -> RuntimeState:
        raise NotImplementedError

    def serve(self, state: RuntimeState, rec=None) -> RoundResult:
        t0 = perf_counter()
        if rec is None:
            report = state.runtime.run(state.schedule)
        else:
            with rec.span("serve.runtime.run") as idx:
                rec.root = idx
                report = state.runtime.run(state.schedule)
            rec.root = -1
        wall = perf_counter() - t0
        served = sorted(
            (
                o.request.global_seq,
                int(o.cardinality),
                o.plan_source,
                o.wait_ms + o.latency_ms,
            )
            for o in report.outcomes
            if isinstance(o, Served)
        )
        return RoundResult(
            n_requests=report.n_requests,
            served=served,
            rejected=dict(report.rejected),
            wall_s=wall,
            serve_ns=list(state.backend.serve_ns),
            counters=self.counters(state),
        )

    # -- output checks (outside the timed region) ---------------------------------

    def check(self, state: RuntimeState, result: RoundResult) -> list[str]:
        problems = _audit_problems(state.auditor)
        if len(result.served) + sum(result.rejected.values()) != result.n_requests:
            problems.append("served + rejected != requested")
        queries = {
            r.global_seq: r.query for sess in state.schedule for r in sess
        }
        return problems + _check_cardinalities(
            state.db, state.epochs, queries, result.served
        )

    # -- per-layer counters ---------------------------------------------------------

    def counters(self, state: RuntimeState) -> dict[str, float]:
        out = _engine_counters(
            state.optimizer, state.simulator, state.plan_cache, state.auditor
        )
        out["storage.append.rows"] = state.rows_appended
        return out

    # -- tracing ----------------------------------------------------------------------

    def instrument(self, state: RuntimeState, rec, patches) -> None:
        """Spans around the calls into each layer's public functions."""
        _wrap_layers(
            rec,
            patches,
            optimizer=state.optimizer,
            simulator=state.simulator,
            auditor=state.auditor,
            console=state.console,
            plan_cache=state.plan_cache,
            deployment=state.deployment,
        )
        bus = state.runtime.telemetry
        for attr in ("incr", "observe", "trace"):
            patches.replace(
                bus, attr, lambda fn, a=attr: rec.wrap(f"serve.telemetry.{a}", fn)
            )
        # Outermost: each backend call starts its request's spans.
        seq_of = state.seq_of

        def starts_request(fn):
            def serve(query):
                rec.request_id = seq_of[id(query)]
                return fn(query)

            return serve

        patches.replace(state.backend.backend, "serve", starts_request)
        for hook in state.runtime.hooks.values():
            hook.rec = rec


def _check_cardinalities(db, epochs, queries, served) -> list[str]:
    """Every served cardinality against a fresh exact count.

    ``epochs`` lists ``(first request id, {table: rows})`` oldest first:
    each request is counted against the database as it was when it was
    served.  A deterministic sample of ``REFERENCE_CHECKS`` requests is
    also counted with the pure-Python reference counter.
    """
    problems = []
    starts = [first for first, _ in epochs]
    views: dict[int, tuple[Database, CardinalityExecutor]] = {}
    stride = max(1, len(served) // REFERENCE_CHECKS)
    for i, (rid, card, _, _) in enumerate(served):
        epoch = bisect_right(starts, rid) - 1
        if epoch not in views:
            view = _epoch_view(db, epochs[epoch][1])
            views[epoch] = (view, CardinalityExecutor(view))
        view, executor = views[epoch]
        query = queries[rid]
        exact = executor.cardinality(query)
        if exact != card:
            problems.append(
                f"request {rid}: served cardinality {card}, exact {exact}: "
                f"{query.to_sql()}"
            )
        elif i % stride == 0:
            try:
                truth = reference_count(view, query)
            except ReferenceTooLarge:
                continue
            if truth != card:
                problems.append(
                    f"request {rid}: served cardinality {card}, reference "
                    f"{truth}: {query.to_sql()}"
                )
    return problems


def _audit_problems(auditor: OnlineAuditor) -> list[str]:
    return [
        f"audit violation: {v.check} {v.detail} expected {v.expected} "
        f"got {v.actual}"
        for v in auditor.report.violations
    ]


def _engine_counters(optimizer, simulator, plan_cache, auditor) -> dict[str, float]:
    """The public cache and audit counters of one round's objects."""
    out: dict[str, float] = {}
    card = optimizer.cache_stats()
    out["optimizer.cardcache.hit_rate"] = card["hit_rate"]
    out["optimizer.cardcache.misses"] = card["misses"]
    memo = simulator.executor.cache_stats()
    out["engine.memo.hit_rate"] = memo["hit_rate"]
    out["engine.memo.misses"] = memo["misses"]
    if plan_cache is not None:
        plans = plan_cache.stats()
        out["optimizer.plancache.hit_rate"] = plans["hit_rate"]
        out["optimizer.plancache.misses"] = plans["misses"]
        out["optimizer.plancache.invalidations"] = plans["invalidations"]
    audit = auditor.stats()
    out["oracle.audit.audited"] = audit["audited"]
    out["oracle.audit.violations"] = audit["violations"]
    return out


def _wrap_layers(
    rec, patches, *, optimizer, simulator, auditor,
    console=None, plan_cache=None, deployment=None,
) -> None:
    """Spans around the calls into each engine layer's public functions."""
    wraps = [
        (deployment, "serve", "serve.deployment.serve"),
        (console, "execute", "pilotscope.console.execute"),
        (plan_cache, "get_or_plan", "optimizer.plancache.get_or_plan"),
        (optimizer, "plan", "optimizer.plan"),
        (optimizer.estimator, "estimate", "cardest.estimate"),
        (optimizer.estimator, "estimate_batch", "cardest.estimate_batch"),
        (simulator, "execute", "engine.simulate"),
        (simulator.executor, "cardinality", "engine.exact_count"),
        (auditor, "observe", "oracle.audit"),
    ]
    if console is not None:
        wraps.append((console_module, "parse_query", "sql.parse"))
    for owner, attr, span in wraps:
        patches.replace(owner, attr, lambda fn, span=span: rec.wrap(span, fn))


def _template_stream(db: Database, seed: int, templates: int, bindings: int) -> list:
    """``templates`` prepared statements, each bound ``bindings`` times:
    binding round b of every stratum, then round b + 1, ..."""
    gen = WorkloadGenerator(db, seed=seed)
    streams = [
        gen.parameterized_workload(n, bindings, k, k, require_predicate=True)
        for k, n in _strata(templates)
    ]
    return [
        q
        for b in range(bindings)
        for stream, (_, n) in zip(streams, _strata(templates))
        for q in stream[b * n : (b + 1) * n]
    ]


def _strata(n: int) -> list[tuple[int, int]]:
    """``n`` split as evenly as possible over 2-, 3- and 4-table queries.

    Fixing the mix of join sizes per round keeps it from varying with the
    seed, which would otherwise move every per-request cost with it."""
    return [(k, n // 3 + (i < n % 3)) for i, k in enumerate((2, 3, 4))]


def _interleave(groups: list[list], seed: int) -> list:
    """The groups' items in one seeded random order."""
    items = [q for group in groups for q in group]
    order = np.random.default_rng((seed, 1)).permutation(len(items))
    return [items[i] for i in order]


def _epoch_view(db: Database, rows: dict[str, int]) -> Database:
    """The database as it was when each table had ``rows`` rows.

    Writes only append, so an earlier state is a prefix of every column.
    """
    if rows == _table_rows(db):
        return db
    tables = [
        Table(
            name,
            [
                Column(c.name, c.values[: rows[name]], is_key=c.is_key)
                for c in table.columns.values()
            ],
        )
        for name, table in db.tables.items()
    ]
    return Database(db.name, tables, db.joins)


class BaoLive(RuntimeWorkload):
    name = "bao_live"
    requests = 100
    round_s = 2.3

    def build(self, seed: int) -> RuntimeState:
        db = make_db()
        native = Optimizer(db)
        simulator = ExecutionSimulator(db)
        bao = BaoOptimizer(native, arms=HintSet.bao_arms(), seed=seed)
        # No rollback: learning stays on the request path all round.
        deployment = DeploymentManager(
            bao, native, simulator, stage=Stage.LIVE, regression_threshold=math.inf
        )
        gen = WorkloadGenerator(db, seed=seed)
        queries = _interleave(
            [
                gen.workload(n, k, k, require_predicate=True)
                for k, n in _strata(self.requests)
            ],
            seed,
        )
        return _runtime_state(
            db, native, simulator, deployment, queries, seed,
            bao=bao, deployment=deployment,
        )

    def counters(self, state: RuntimeState) -> dict[str, float]:
        out = super().counters(state)
        stats = state.bao_stats
        if stats is not None:
            out["bao.explore.distinct_ratio"] = (
                stats["distinct"] / stats["explored"] if stats["explored"] else 0.0
            )
            out["bao.retrain.max_ms"] = stats["retrain_max_ns"] / 1e6
            out["bao.retrain.observations_last"] = stats["observations_last"]
        return out

    def instrument(self, state: RuntimeState, rec, patches) -> None:
        super().instrument(state, rec, patches)
        bao = state.bao
        stats = state.bao_stats = {
            "explored": 0,
            "distinct": 0,
            "retrain_max_ns": 0,
            "observations_last": 0,
        }
        n_arms = len(getattr(bao.exploration, "arms", HintSet.bao_arms()))

        def explore(fn):
            traced = rec.wrap("e2e.bao.explore", fn)

            def call(query):
                out = traced(query)
                stats["explored"] += n_arms
                stats["distinct"] += len(out)
                return out

            return call

        def retrain(fn):
            traced = rec.wrap("bao.retrain", fn)

            def call():
                t0 = perf_counter_ns()
                traced()
                stats["retrain_max_ns"] = max(
                    stats["retrain_max_ns"], perf_counter_ns() - t0
                )
                stats["observations_last"] = getattr(
                    bao.risk_model, "n_observations", 0
                )

            return call

        patches.replace(bao, "choose_plan", lambda fn: rec.wrap("e2e.bao.choose", fn))
        patches.replace(
            bao, "record_feedback", lambda fn: rec.wrap("e2e.bao.feedback", fn)
        )
        patches.replace(bao.exploration, "candidates", explore)
        patches.replace(
            bao.risk_model, "scores", lambda fn: rec.wrap("e2e.bao.score", fn)
        )
        patches.replace(bao.risk_model, "retrain", retrain)


class ConsoleTemplates(RuntimeWorkload):
    name = "console_templates"
    templates = 100
    bindings = 10
    round_s = 3.3
    #: a write every this many requests (None: read-only)
    write_every: int | None = None
    #: the traced run also serves the round through ``fabric_console``
    fabric_pass = True

    def build(self, seed: int) -> RuntimeState:
        db = make_db()
        pg = SimulatedPostgreSQL(db)
        plan_cache = PlanCache(capacity=4096)
        console = PilotScopeConsole(pg, plan_cache=plan_cache)
        queries = _template_stream(db, seed, self.templates, self.bindings)
        sql_of = {id(q): q.to_sql() for q in queries}
        backend = ConsoleBackend(SqlTextConsole(console, sql_of))
        state = _runtime_state(
            db, pg.optimizer, pg.simulator, backend, queries, seed,
            console=console, plan_cache=plan_cache,
        )
        if self.write_every:
            writes = range(self.write_every, len(queries), self.write_every)
            state.runtime.hooks.update(
                {g: _Write(state, seed, i, g) for i, g in enumerate(writes)}
            )
        return state


class ConsoleWrites(ConsoleTemplates):
    name = "console_writes"
    round_s = 4.8
    write_every = 50
    write_fraction = 0.01
    fabric_pass = False


class _Write:
    """One benchmark-issued write: append ~1% rows drawn from the table's
    own values (fresh ids in key columns), then re-ANALYZE that table.

    Runs as a runtime hook just before request ``at`` is processed.
    """

    def __init__(self, state: RuntimeState, seed: int, index: int, at: int) -> None:
        self.state = state
        self.seed = seed
        self.index = index
        self.at = at
        self.rec = None  # set when the round is traced

    def __call__(self) -> None:
        state, rec = self.state, self.rec
        db = state.db
        names = sorted(db.tables)
        table = db.table(names[self.index % len(names)])
        n = max(1, round(table.n_rows * ConsoleWrites.write_fraction))
        rng = np.random.default_rng((self.seed, self.index))
        picks = rng.integers(table.n_rows, size=n)
        rows = {}
        for name, col in table.columns.items():
            if col.is_key:
                rows[name] = int(col.values.max()) + 1 + np.arange(n)
            else:
                rows[name] = col.values[picks]
        if rec is None:
            table.append_rows(rows)
            state.optimizer.stats.refresh(db, [table.name])
        else:
            rec.request_id = self.at
            with rec.span("storage.append"):
                table.append_rows(rows)
            with rec.span("optimizer.analyze"):
                state.optimizer.stats.refresh(db, [table.name])
        state.rows_appended += n
        state.epochs.append((self.at, _table_rows(db)))


# -- the fabric ---------------------------------------------------------------------


@dataclass
class FabricState:
    fabric: ServingFabric
    schedule: list
    shards: list
    arrival_seq: dict[float, int]  # arrival ms -> request id
    serve_ns: list[int] = field(default_factory=list)
    report: object = None  # the last FabricReport
    #: the engine behind the shards (fabric_console only)
    db: Database | None = None
    optimizer: Optimizer | None = None
    simulator: ExecutionSimulator | None = None
    console: PilotScopeConsole | None = None
    plan_cache: PlanCache | None = None
    auditor: OnlineAuditor | None = None


#: (tenant, QoS class, quota in requests per virtual second or None)
TENANTS = (
    ("tenant00", "interactive", None),
    ("tenant01", "batch", None),
    ("tenant02", "background", None),
    ("tenant03", "interactive", None),
    ("tenant04", "batch", 50.0),  # offered ~83/s: above its quota
    ("tenant05", "background", None),
)


class FabricSynth:
    name = "fabric_synth"
    requests = 100_000
    templates = 240
    shards = 16
    workers = 2
    mean_interarrival_ms = 2.0
    round_s = 3.3

    def build(self, seed: int) -> FabricState:
        db = make_db()
        pool = WorkloadGenerator(db, seed=seed).workload(
            self.templates, 2, 3, require_predicate=True
        )
        picks = np.random.default_rng((seed, 2)).integers(
            len(pool), size=self.requests
        )
        queries = [pool[i] for i in picks]
        state = self._assemble(queries, lambda: SyntheticBackend(seed=seed), seed)
        # The backend call is trivial here: time the whole shard submit.
        for shard in state.shards:
            shard.submit = self._timed(shard.submit, state.serve_ns)
        return state

    def _assemble(self, queries, make_backend, seed: int, auditor=None) -> FabricState:
        """The fabric over ``queries``: one ``make_backend()`` per shard."""
        specs = [
            TenantSpec(tenant_id=t, qos=q, rate_per_s=rate, burst=32.0)
            for t, q, rate in TENANTS
        ]
        schedule = build_fabric_schedule(
            queries, specs, seed=seed, mean_interarrival_ms=self.mean_interarrival_ms
        )
        shards = []
        for i in range(self.shards):
            clock = VirtualClock()
            shards.append(
                ShardRuntime(
                    i,
                    make_backend(),
                    n_workers=self.workers,
                    telemetry=TelemetryBus(trace_capacity=256),
                    breaker=CircuitBreaker(clock=clock, name=f"shard{i:02d}"),
                    clock=clock,
                    auditor=auditor,
                )
            )
        fabric = ServingFabric(
            shards, TenantRegistry(specs), config=FabricConfig(seed=seed)
        )
        state = FabricState(
            fabric=fabric,
            schedule=schedule,
            shards=shards,
            arrival_seq={
                f.request.arrival_ms: f.request.global_seq for f in schedule
            },
        )
        return state

    @staticmethod
    def _timed(fn, sink: list[int]):
        def submit(req):
            t0 = perf_counter_ns()
            outcome = fn(req)
            sink.append(perf_counter_ns() - t0)
            return outcome

        return submit

    def serve(self, state: FabricState, rec=None) -> RoundResult:
        t0 = perf_counter()
        if rec is None:
            report = state.fabric.run(state.schedule)
        else:
            with rec.span("serve.fabric.run") as idx:
                rec.root = idx
                report = state.fabric.run(state.schedule)
            rec.root = -1
        wall = perf_counter() - t0
        served = [
            (
                o.request.global_seq,
                int(o.cardinality),
                o.plan_source,
                o.wait_ms + o.latency_ms,
            )
            for o in report.outcomes
            if isinstance(o, Served)
        ]
        result = RoundResult(
            n_requests=report.n_requests,
            served=served,
            rejected=dict(report.rejected),
            wall_s=wall,
            serve_ns=list(state.serve_ns),
            export=state.fabric.export_json().encode(),
            counters=self.counters(state),
        )
        state.report = report
        return result

    def counters(self, state: FabricState) -> dict[str, float]:
        return {"serve.fabric.reroutes": state.fabric.router.stats()["reroutes"]}

    def check(self, state: FabricState, result: RoundResult) -> list[str]:
        report = state.report
        problems = []
        n = len(state.schedule)
        if report.n_served + sum(report.rejected.values()) != n:
            problems.append(
                f"served {report.n_served} + rejected "
                f"{sum(report.rejected.values())} != requested {n}"
            )
        if len(report.outcomes) != n or len(result.served) != report.n_served:
            problems.append("outcome count does not match the schedule")
        if sum(s.served for s in state.shards) != report.n_served:
            problems.append("shard served counts do not sum to the fabric's")
        tenants = state.fabric.tenants
        admitted = sum(tenants.admitted.values())
        quota = sum(tenants.rejected.values())
        if admitted + quota != n or quota != report.rejected.get("quota", 0):
            problems.append("tenant admission counts do not match the schedule")
        return problems

    def instrument(self, state: FabricState, rec, patches) -> None:
        self.instrument_fabric(state, rec, patches)
        for bus in [state.fabric.telemetry] + [s.telemetry for s in state.shards]:
            for attr in ("incr", "observe", "trace"):
                patches.replace(
                    bus, attr, lambda fn, a=attr: rec.wrap(f"serve.telemetry.{a}", fn)
                )

    def instrument_fabric(self, state: FabricState, rec, patches) -> None:
        """Spans around tenant admission, routing and shard submit only."""
        fabric = state.fabric
        arrival_seq = state.arrival_seq
        patches.replace(
            fabric.tenants,
            "admit",
            lambda fn: rec.wrap(
                "serve.fabric.admit", fn, lambda t, at: arrival_seq.get(at)
            ),
        )
        patches.replace(
            fabric.router, "route", lambda fn: rec.wrap("serve.fabric.route", fn)
        )
        for shard in state.shards:
            patches.replace(
                shard,
                "submit",
                lambda fn: rec.wrap(
                    "serve.fabric.submit", fn, lambda req: req.global_seq
                ),
            )


class FabricConsole(FabricSynth):
    """The ``console_templates`` stream, sent through the fabric.

    The shards share one driverless ``PilotScopeConsole`` (one DBMS behind
    a sharded front end), its ``PlanCache`` and an ``OnlineAuditor``.  As
    on the runtime workloads, ``serve_ns`` times the backend call only.
    """

    name = "fabric_console"
    templates = 100
    bindings = 10
    round_s = 2.4

    def build(self, seed: int) -> FabricState:
        db = make_db()
        pg = SimulatedPostgreSQL(db)
        plan_cache = PlanCache(capacity=4096)
        console = PilotScopeConsole(pg, plan_cache=plan_cache)
        queries = _template_stream(db, seed, self.templates, self.bindings)
        sql_of = {id(q): q.to_sql() for q in queries}
        backend = TimedBackend(ConsoleBackend(SqlTextConsole(console, sql_of)))
        auditor = OnlineAuditor(db, every=AUDIT_EVERY)
        state = self._assemble(queries, lambda: backend, seed, auditor=auditor)
        state.serve_ns = backend.serve_ns
        state.db = db
        state.optimizer = pg.optimizer
        state.simulator = pg.simulator
        state.console = console
        state.plan_cache = plan_cache
        state.auditor = auditor
        return state

    def counters(self, state: FabricState) -> dict[str, float]:
        out = super().counters(state)
        out.update(
            _engine_counters(
                state.optimizer, state.simulator, state.plan_cache, state.auditor
            )
        )
        return out

    def check(self, state: FabricState, result: RoundResult) -> list[str]:
        problems = super().check(state, result) + _audit_problems(state.auditor)
        queries = {f.request.global_seq: f.request.query for f in state.schedule}
        epochs = [(0, _table_rows(state.db))]
        return problems + _check_cardinalities(
            state.db, epochs, queries, result.served
        )

    def instrument(self, state: FabricState, rec, patches) -> None:
        super().instrument(state, rec, patches)
        _wrap_layers(
            rec,
            patches,
            optimizer=state.optimizer,
            simulator=state.simulator,
            auditor=state.auditor,
            console=state.console,
            plan_cache=state.plan_cache,
        )


WORKLOADS = {
    w.name: w
    for w in (
        BaoLive(), ConsoleTemplates(), ConsoleWrites(), FabricSynth(), FabricConsole()
    )
}
