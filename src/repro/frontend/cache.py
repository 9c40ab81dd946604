"""Process-wide content-hash memo for frontend results (ASTs, loop lists).

Before this cache every :class:`~repro.core.pipeline.CompileAndMeasure`
instance re-ran preprocess → tokenize → parse for kernels any *other*
pipeline had already seen, because memoization lived per instance.
Comparison runs build several pipelines (one per agent) over the same
kernel set, so the same sources were parsed over and over.

This module hoists that memoization to one process-wide store, keyed by
content hash exactly like :mod:`repro.cache.reward_cache` keys kernels
(sha1 of the source text, plus whatever parameters shape the result: a
parse is keyed by (content, filename, defines), so kernel-owned parses all
use :attr:`repro.datasets.kernels.LoopKernel.filename` to share one entry),
with an explicit entry cap (LRU eviction) and hit/miss/eviction stats:

    from repro.frontend.cache import frontend_cache
    cache = frontend_cache()
    unit = cache.parse(source_text, filename="kernel.c")
    cache.stats.as_dict()     # {"hits": ..., "misses": ..., ...}
    cache.clear()             # drop every entry (and reset the stats)

Cached ASTs are shared read-only: the parser normalizes loop bodies during
parsing and semantic analysis annotates its own tables, so a
``TranslationUnit`` is safe to hand to any number of lowering calls.

The process-wide instance holds at most 512 entries.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.frontend import ast
from repro.frontend.parser import parse_source


def source_fingerprint(source: str) -> str:
    """Stable content hash of a source text (the reward-cache keying idiom)."""
    return hashlib.sha1(source.encode("utf-8")).hexdigest()


@dataclass
class FrontendCacheStats:
    """Hit/miss/eviction counters for the process-wide frontend memo."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class FrontendCache:
    """Content-hash LRU store for frontend results, shared process-wide.

    ``cached(key, compute)`` is the generic lookup-or-compute primitive;
    :meth:`parse` is the canonical user.  Keys must start with a result-kind
    tag (``"parse"``, ``"loops"``, ...) so different result types never
    collide even for the same source hash.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("frontend cache capacity must be at least 1")
        self.capacity = int(capacity)
        self.stats = FrontendCacheStats()
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()

    # -- generic store ------------------------------------------------------

    def cached(self, key: tuple, compute: Callable[[], object]) -> object:
        """Return the memoized value for ``key``, computing it on a miss."""
        with self._lock:
            if key in self._entries:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.stats.misses += 1
        value = compute()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return value

    # -- canonical users ----------------------------------------------------

    def parse(
        self,
        source: str,
        filename: str = "<source>",
        defines: Optional[Dict[str, str]] = None,
    ) -> ast.TranslationUnit:
        """Preprocess/tokenize/parse ``source``, memoized by content hash."""
        key = (
            "parse",
            source_fingerprint(source),
            filename,
            tuple(sorted((defines or {}).items())),
        )
        return self.cached(
            key, lambda: parse_source(source, filename=filename, defines=defines)
        )

    # -- management ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[tuple]:
        """A snapshot of the stored keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def clear(self, reset_stats: bool = True) -> None:
        with self._lock:
            self._entries.clear()
            if reset_stats:
                self.stats.reset()


_GLOBAL_CACHE: Optional[FrontendCache] = None
_GLOBAL_LOCK = threading.Lock()


def frontend_cache() -> FrontendCache:
    """The process-wide frontend memo (created on first use)."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        with _GLOBAL_LOCK:
            if _GLOBAL_CACHE is None:
                _GLOBAL_CACHE = FrontendCache()
    return _GLOBAL_CACHE
