"""Configuration for the distributed evaluation service."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class EvaluationServiceConfig:
    """How reward evaluation is persisted, sharded and overlapped.

    * ``workers`` — local evaluation worker processes.  ``0`` (the
      default) keeps everything serial and in-process; ``>= 1`` forks that
      many workers, sharded by kernel content hash.
    * ``cache_dir`` — directory of the persistent reward store; ``None``
      keeps the cache memory-only.
    * ``flush_every`` — how many appended records may sit in the OS buffer
      before the store flushes (1 = flush every record).
    * ``max_entries`` — in-memory cache bound (FIFO eviction); the disk
      store is never trimmed by eviction.
    * ``result_timeout`` — liveness-check interval: how long to wait for a
      worker result before checking heartbeats (a dead worker's requests
      are re-sharded; a slow-but-alive one just waits another round).
    """

    workers: int = 0
    cache_dir: Optional[str] = None
    flush_every: int = 1
    max_entries: Optional[int] = None
    result_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.result_timeout <= 0:
            raise ValueError("result_timeout must be positive")
