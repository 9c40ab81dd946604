"""Counters of the evaluation service.

:class:`FleetStats` is the one stats record of
:class:`repro.distributed.EvaluationService`: dispatch and completion
totals per worker (local and remote alike), the serial-path counters, the
robustness counters (workers lost, retries, re-shards, inline fallbacks)
and the speculative-prefetch ledger.

Prefetch accounting distinguishes three fates for a speculative request:

* **hit** — a later demand request found the answer already in the cache;
* **joined** — demand arrived while the speculation was still in flight
  and attached to it instead of dispatching its own work;
* **wasted** — the speculation completed (or was dropped on worker loss)
  without any demand ever wanting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class FleetStats:
    """Dispatch, robustness, and prefetch counters of one service."""

    dispatched: int = 0
    completed: int = 0
    errors: int = 0
    serial_batches: int = 0
    serial_requests: int = 0
    per_worker_dispatched: Dict[str, int] = field(default_factory=dict)
    per_worker_completed: Dict[str, int] = field(default_factory=dict)
    demand_dispatched: int = 0
    retries: int = 0
    reshards: int = 0
    workers_lost: int = 0
    inline_evaluations: int = 0
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    prefetch_joined: int = 0

    @property
    def prefetch_wasted(self) -> int:
        return max(0, self.prefetch_issued - self.prefetch_hits - self.prefetch_joined)

    @property
    def waits_converted(self) -> float:
        """Fraction of would-be async waits answered by speculation.

        Of every demand lookup that was not already a plain cache hit, how
        many were covered by prefetch (resolved from the store, or joined
        to an in-flight speculative evaluation) instead of paying a fresh
        dispatch-and-wait?
        """
        covered = self.prefetch_hits + self.prefetch_joined
        total = covered + self.demand_dispatched
        if total == 0:
            return 0.0
        return covered / total

    def record_dispatch(self, worker: str, prefetch: bool = False) -> None:
        self.dispatched += 1
        if not prefetch:
            self.demand_dispatched += 1
        self.per_worker_dispatched[worker] = (
            self.per_worker_dispatched.get(worker, 0) + 1
        )

    def record_completion(self, worker: str) -> None:
        self.completed += 1
        self.per_worker_completed[worker] = (
            self.per_worker_completed.get(worker, 0) + 1
        )

    def as_dict(self) -> dict:
        return {
            "dispatched": self.dispatched,
            "completed": self.completed,
            "errors": self.errors,
            "serial_batches": self.serial_batches,
            "serial_requests": self.serial_requests,
            "per_worker_dispatched": dict(self.per_worker_dispatched),
            "per_worker_completed": dict(self.per_worker_completed),
            "demand_dispatched": self.demand_dispatched,
            "retries": self.retries,
            "reshards": self.reshards,
            "workers_lost": self.workers_lost,
            "inline_evaluations": self.inline_evaluations,
            "prefetch_issued": self.prefetch_issued,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_joined": self.prefetch_joined,
            "prefetch_wasted": self.prefetch_wasted,
            "waits_converted": self.waits_converted,
        }
