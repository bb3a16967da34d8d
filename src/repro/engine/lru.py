"""One bounded LRU map behind every cache in the workbench.

The planner's cardinality cache, the parameterized plan cache, the exact
executor's per-query memo and the join-column key-index cache all need the
same thing: a capacity-bounded, recency-ordered map with hit/miss/eviction
counters that describe the whole session (they survive :meth:`clear`) and a
``stats()`` dict in the one shape ``render_cache_stats`` renders.
:class:`BoundedLRU` is that map; each cache only builds its keys.

It lives in :mod:`repro.engine` rather than :mod:`repro.core` because
``repro.core`` imports the engine.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

__all__ = ["BoundedLRU"]

V = TypeVar("V")


class BoundedLRU(Generic[V]):
    """Capacity-bounded LRU map with session counters.

    ``None`` is the miss sentinel, so ``None`` values are never cached.
    Membership tests (``key in lru``) count neither a hit nor a miss.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> V | None:
        """Cached value (refreshing its recency), or None; counts either way."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: V) -> None:
        """Insert as most recent, then evict least-recent entries over capacity."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def get_or_put(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The cached value, or ``compute()`` stored under ``key``."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        """Drop all entries (counters are kept; they describe the session)."""
        self._entries.clear()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
