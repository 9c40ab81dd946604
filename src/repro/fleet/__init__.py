"""Fleet evaluation: the worker side and wire of the evaluation service.

:class:`FleetWorker` serves reward measurements over a newline-delimited
JSON protocol (:mod:`repro.fleet.protocol`), either as a TCP daemon on
another host or as a forked local process on one end of a socketpair.
:class:`FleetCoordinator` manages the connections, heartbeats and loss
detection for :class:`repro.distributed.EvaluationService`, which shards
over both kinds of worker through one code path — byte-identical to
serial, robust to worker death (retry, re-shard, inline fallback).
:class:`~repro.fleet.prefetch.SpeculativePrefetcher` uses idle worker
capacity to evaluate the policy's likely next actions so async rollouts
hit the cache instead of waiting.
"""

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.prefetch import SpeculativePrefetcher
from repro.fleet.protocol import FleetError, FleetProtocolError
from repro.fleet.stats import FleetStats
from repro.fleet.worker import FleetWorker, WorkerFaults

__all__ = [
    "FleetCoordinator",
    "FleetError",
    "FleetProtocolError",
    "FleetStats",
    "FleetWorker",
    "SpeculativePrefetcher",
    "WorkerFaults",
]
