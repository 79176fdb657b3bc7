"""The counted LRU shared by every engine/kernel/workspace cache.

:class:`KeyedLruCache` is the generic core of the campaign's worker-side
``EngineCache`` and the service tier's ``ScenarioPrepCache``.  It also
bounds the numpy backend's per-width scan workspaces (a full bit-plane
table per block width -- see ``FaultScanKernel``), which sits *below* the
campaign layer in the import graph, so the class lives here in the
dependency-free utility package.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`KeyedLruCache`.

    Monotone non-decreasing; the service status endpoint exposes them, so
    they are plain ints with a dict view rather than anything fancier.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


_MISSING = object()


class KeyedLruCache:
    """A small counted LRU: the generic core of every engine/kernel cache.

    ``get_or_build(key, build)`` returns the cached value for ``key`` (a
    hit, moved to most-recently-used) or calls ``build()`` and inserts the
    result (a miss); insertion beyond ``maxsize`` evicts least-recently-used
    entries.  Hits, misses and evictions are counted in :attr:`stats` --
    the observability the service tier surfaces -- and subclasses may hook
    :meth:`on_evict` to release resources an entry pinned.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self.stats = CacheStats()

    def get_or_build(self, key, build):
        """The cached value for ``key``, calling ``build()`` on a miss."""
        value = self._entries.get(key, _MISSING)
        if value is not _MISSING:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return value
        self.stats.misses += 1
        value = build()
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            evicted_key, evicted = self._entries.popitem(last=False)
            self.stats.evictions += 1
            self.on_evict(evicted_key, evicted)
        return value

    def on_evict(self, key, value) -> None:
        """Called for each LRU eviction (override to release resources)."""

    def discard(self, key) -> bool:
        """Drop ``key`` if cached (no eviction counted; returns presence)."""
        return self._entries.pop(key, _MISSING) is not _MISSING

    def keys(self) -> list:
        """Cached keys, least- to most-recently used (test/diagnostic hook)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
