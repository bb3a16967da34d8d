"""Cross-plan cardinality cache.

Plan enumeration asks the cardinality estimator about the same sub-queries
over and over: the DP enumerator visits every connected subset once per
planning, and the e2e methods re-plan the *same* query many times -- once
per hint-set arm in Bao, once per scaling factor in Lero.  The sub-query
cardinalities do not change across those plannings, so a shared
:class:`CardinalityCache` turns all but the first estimation of each
(estimator-state, sub-query) pair into a dictionary lookup.

Keys pair :func:`repro.core.interfaces.estimator_cache_tag` (instance +
``estimates_version``, unwrapping steering wrappers) with the query's
:func:`repro.sql.query.query_hash` -- the same canonical-text digest the
deployment manager's canary split and the experience store's dedup use, so
the repository has exactly one query-identity scheme.  Refits, feedback,
injected overrides and data drift all invalidate naturally -- stale
entries are simply never looked up again and age out of the LRU ring.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.lru import BoundedLRU
from repro.sql.query import Query, query_hash

__all__ = ["CardinalityCache"]


class CardinalityCache(BoundedLRU[float]):
    """Bounded LRU map from (estimator tag, sub-query) to cardinality.

    Parameters
    ----------
    capacity:
        Maximum number of entries; least-recently-used entries are evicted
        beyond it.  The default comfortably holds every connected subset of
        the benchmark workloads times a handful of estimator states.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        super().__init__(capacity)

    def lookup(self, tag: tuple, query: Query) -> float | None:
        """Cached cardinality, or None; counts a hit or a miss either way."""
        return self.get((tag, query_hash(query)))

    def insert(self, tag: tuple, query: Query, value: float) -> None:
        self.put((tag, query_hash(query)), float(value))

    def get_or_compute(
        self, tag: tuple, query: Query, compute: Callable[[Query], float]
    ) -> float:
        return self.get_or_put(
            (tag, query_hash(query)), lambda: float(compute(query))
        )
