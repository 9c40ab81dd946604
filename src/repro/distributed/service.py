"""Sharded, future-based reward evaluation: the one evaluation service.

:class:`EvaluationService` is the single entry point every reward consumer
(environment, agents, the PPO trainer, the comparison runner) routes
batched queries through.  Its worker set is ``workers`` local processes
plus every fleet address that answers:

* each local worker is a forked process running an ordinary
  :class:`~repro.fleet.worker.FleetWorker` session on one end of a
  ``socketpair``; the service adopts the other end;
* remote :class:`~repro.fleet.worker.FleetWorker` daemons are dialed over
  TCP.

Both kinds speak the same protocol through one
:class:`~repro.fleet.coordinator.FleetCoordinator`, so sharding, dedup,
payload shipping and fault handling are one code path.  With no worker at
all (``workers == 0`` and nobody answers) requests go through a plain
:class:`EvaluationBatcher` in-process — the serial reference path.

``submit`` returns an :class:`EvaluationFuture` immediately; results are
collected lazily, which is what lets a training loop overlap simulation
with policy inference (see :mod:`repro.distributed.async_api`).  Unique
cache misses are **sharded by kernel content hash** over the sorted live
workers, so each kernel's simulator/IR memos live on one worker and stay
hot.  Requests are deduplicated against the cache, against each other,
*and against queries still in flight from earlier futures* — a key is
never evaluated twice no matter how batches interleave — so results are
byte-identical to serial regardless of sharding.  A lost worker (killed
process, dead host, silent heartbeat, torn connection) has its orphaned
keys re-sharded onto survivors (bounded retries, exponential backoff) or
evaluated inline when nobody survives, so results are byte-identical to
serial regardless of failures too.

Speculative prefetch rides the same machinery: :meth:`EvaluationService.
prefetch` dispatches likely-next keys at low priority with an *empty*
waiter list.  Demand that arrives later either finds the answer in the
cache (a prefetch **hit**) or joins the in-flight request (**joined**);
speculation nobody ever wanted is **wasted**.
:class:`~repro.fleet.stats.FleetStats` tracks all three.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import socket
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cache.reward_cache import (
    WHOLE_FUNCTION_APPLICATION,
    BatchOutcome,
    CachedMeasurement,
    EvaluationBatcher,
    RewardCache,
    RewardKey,
    flatten_decisions,
    normalize_requests,
)
from repro.distributed.config import EvaluationServiceConfig
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.protocol import (
    PRIORITY_PREFETCH,
    decode_entries,
    kernel_message,
    kernel_payload,
    task_message,
    work_message,
)
from repro.fleet.stats import FleetStats
from repro.fleet.worker import evaluate_work

if TYPE_CHECKING:
    from repro.core.pipeline import CompileAndMeasure
    from repro.tasks.base import OptimizationTask

#: One reward query: a (kernel, site index, action tuple) triple.
EvaluationRequest = Tuple


class EvaluationFuture:
    """Outcomes of one submitted batch, filled as workers answer.

    ``result()`` blocks (draining the service's result events) until every
    slot is filled, then returns :class:`BatchOutcome` objects in request
    order — the same contract as ``EvaluationBatcher.flush``.
    """

    def __init__(self, service: "EvaluationService", size: int):
        self._service = service
        self._outcomes: List[Optional[BatchOutcome]] = [None] * size
        self._remaining = size
        self._errors: List[str] = []

    def __len__(self) -> int:
        return len(self._outcomes)

    def done(self) -> bool:
        return self._remaining == 0

    def result(self) -> List[BatchOutcome]:
        self._service._drain_until(self)
        if self._errors:
            raise RuntimeError(
                f"{len(self._errors)} evaluation request(s) failed in workers; "
                f"first failure:\n{self._errors[0]}"
            )
        return list(self._outcomes)  # type: ignore[arg-type]

    # -- service-side plumbing --------------------------------------------

    def _fill(self, slot: int, outcome: BatchOutcome) -> None:
        if self._outcomes[slot] is None:
            self._remaining -= 1
        self._outcomes[slot] = outcome

    def _fail(self, slot: int, message: str) -> None:
        self._remaining -= 1
        self._errors.append(message)


@dataclass
class _PendingRecord:
    """One in-flight request: everything needed to re-shard it."""

    key: RewardKey
    kernel: object
    site_index: int
    action: Tuple[int, ...]
    task: object
    kind: str = "site"
    decisions: Optional[dict] = None
    worker: Optional[str] = None
    prefetch: bool = False
    attempts: int = 1
    priority: int = 0


def _serve_local_worker(connection: socket.socket, index: int) -> None:
    """Body of a forked local worker process; never returns."""
    from repro.fleet.worker import FleetWorker

    status = 1
    try:
        FleetWorker(name=f"local-{index}").serve(connection)
        status = 0
    finally:
        os._exit(status)


class EvaluationService:
    """Batched reward evaluation, sharded across local and remote workers.

    ``workers`` local processes are forked (before any coordinator thread
    starts) and every ``addresses`` entry that answers is dialed; a ready
    ``coordinator`` may be passed instead of addresses (e.g. one whose
    :meth:`~FleetCoordinator.listen` accepts dial-in workers).  The service
    owns neither the pipeline nor the cache — both may be (and usually are)
    shared with the rest of the run, so workers' results are visible to
    every in-process consumer the moment they land.
    """

    def __init__(
        self,
        pipeline: "CompileAndMeasure",
        cache: Optional[RewardCache] = None,
        workers: int = 0,
        addresses: Sequence[str] = (),
        coordinator: Optional[FleetCoordinator] = None,
        result_timeout: float = 120.0,
        connect_timeout: float = 5.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 10.0,
        max_retries: int = 3,
        retry_backoff: float = 0.05,
        prefetch_top_k: int = 8,
        prefetch_horizon: Optional[int] = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.pipeline = pipeline
        self.cache = RewardCache() if cache is None else cache
        self.result_timeout = result_timeout
        self.max_retries = int(max_retries)
        self.retry_backoff = retry_backoff
        self.prefetch_top_k = int(prefetch_top_k)
        self.prefetch_horizon = prefetch_horizon
        self.stats = FleetStats()
        #: Process ids of the forked local workers (reaped by ``close``).
        self.local_pids: List[int] = []
        self._owner_pid = os.getpid()
        self._closed = False
        local_ends = self._fork_local_workers(int(workers))
        if coordinator is None:
            coordinator = FleetCoordinator(
                pipeline.machine,
                pipeline.default_symbol_value,
                connect_timeout=connect_timeout,
                heartbeat_interval=heartbeat_interval,
                heartbeat_timeout=heartbeat_timeout,
            )
        self.coordinator = coordinator
        for connection in local_ends:
            coordinator.adopt(connection)
        coordinator.dial(addresses)
        self._next_request_id = 0
        self._pending: Dict[int, _PendingRecord] = {}
        self._inflight: Dict[RewardKey, int] = {}
        self._waiters: Dict[RewardKey, List[Tuple[EvaluationFuture, int]]] = {}
        self._prefetched_keys: set = set()
        # Whole-kernel applications already fanned out this service
        # lifetime (so repeat comparisons don't re-dispatch), and failures.
        self._applied: set = set()
        self._apply_errors: List[Tuple[RewardKey, str]] = []

    @classmethod
    def from_config(
        cls,
        pipeline: "CompileAndMeasure",
        config: EvaluationServiceConfig,
        cache: Optional[RewardCache] = None,
    ) -> "EvaluationService":
        """Build the service (and its cache/store) from one config object."""
        if cache is None:
            if config.cache_dir:
                from repro.distributed.store import DiskBackedRewardCache

                cache = DiskBackedRewardCache.open(
                    config.cache_dir,
                    max_entries=config.max_entries,
                    flush_every=config.flush_every,
                )
            else:
                cache = RewardCache(max_entries=config.max_entries)
        return cls(
            pipeline,
            cache,
            workers=config.workers,
            result_timeout=config.result_timeout,
        )

    # -- lifecycle ---------------------------------------------------------

    def _fork_local_workers(self, count: int) -> List[socket.socket]:
        """Fork ``count`` local workers; returns the parent's socket ends."""
        parent_ends: List[socket.socket] = []
        for index in range(count):
            parent_end, child_end = socket.socketpair()
            pid = os.fork()
            if pid == 0:
                # Siblings' ends would keep their sockets open past death.
                for end in parent_ends + [parent_end]:
                    end.close()
                _serve_local_worker(child_end, index)
            child_end.close()
            parent_ends.append(parent_end)
            self.local_pids.append(pid)
        return parent_ends

    @property
    def workers(self) -> int:
        """Live workers, local and remote.  Zero means every duck-typed
        consumer (async overlap, comparison fan-out) sees a serial
        service."""
        return len(self.coordinator.live_workers())

    def close(self) -> None:
        """Stop all connections and reap the local worker processes.

        Safe to call more than once.  Call only after every outstanding
        future has been resolved; pending requests are abandoned.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        self.coordinator.stop()
        deadline = time.monotonic() + 5.0
        for pid in self.local_pids:
            try:
                while os.waitpid(pid, os.WNOHANG) == (0, 0):
                    if time.monotonic() > deadline:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                        break
                    time.sleep(0.01)
            except ChildProcessError:
                pass
        self.local_pids = []

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; explicit close() is the API
        try:
            self.close()
        except Exception:
            pass

    # -- submission --------------------------------------------------------

    def evaluate(
        self,
        requests: Sequence[EvaluationRequest],
        task: Optional["OptimizationTask"] = None,
    ) -> List[BatchOutcome]:
        """Synchronous evaluation: ``submit(...)`` then wait."""
        return self.submit(requests, task=task).result()

    def submit(
        self,
        requests: Sequence[EvaluationRequest],
        task: Optional["OptimizationTask"] = None,
    ) -> EvaluationFuture:
        """Enqueue a batch of reward queries and return a future.

        ``task`` is the optimization task the actions belong to (default:
        vectorization).  With
        live workers the call returns right after dispatching the unique
        misses; serially the batch is evaluated before returning and the
        future is already done.
        """
        if self._closed:
            raise RuntimeError(
                "evaluation service is closed; create a new one to submit"
            )
        if task is None:
            from repro.tasks import resolve_task

            task = resolve_task(None)
        future = EvaluationFuture(self, len(requests))
        if self.workers == 0:
            batcher = EvaluationBatcher(self.pipeline, self.cache, task=task)
            for kernel, site_index, action in normalize_requests(requests):
                batcher.add_action(kernel, site_index, action)
            self.stats.serial_batches += 1
            self.stats.serial_requests += len(requests)
            for slot, outcome in enumerate(batcher.flush()):
                future._fill(slot, outcome)
            return future
        for slot, (kernel, site_index, action) in enumerate(
            normalize_requests(requests)
        ):
            action = task.cache_key(action)
            key = self._key(kernel, site_index, action, task)
            cached = self.cache.get(key)
            if cached is not None:
                if key in self._prefetched_keys:
                    # This demand lookup would have been a dispatch-and-wait
                    # without speculation: a prefetch hit.
                    self._prefetched_keys.discard(key)
                    self.stats.prefetch_hits += 1
                future._fill(slot, BatchOutcome(cached, True))
                continue
            waiters = self._waiters.get(key)
            if waiters is not None:
                # Already in flight (earlier in this batch or a previous
                # still-unresolved future): the get() above counted a miss,
                # correct it to a dedup — exactly the batcher's accounting.
                self.cache.stats.misses -= 1
                self.cache.stats.batch_deduplicated += 1
                record = self._pending.get(self._inflight.get(key, -1))
                if record is not None and record.prefetch:
                    # Demand caught up with in-flight speculation.
                    record.prefetch = False
                    self.stats.prefetch_joined += 1
                waiters.append((future, slot))
                continue
            self._waiters[key] = [(future, slot)]
            record = _PendingRecord(
                key=key,
                kernel=kernel,
                site_index=int(site_index),
                action=action,
                task=task,
            )
            if not self._dispatch(record):
                # Every worker vanished mid-batch: evaluate inline.
                self._evaluate_inline(self._register(record), record)
        return future

    def prefetch(self, requests, task=None) -> int:
        """Speculatively evaluate likely-next requests at low priority.

        Skips anything already cached or in flight, and registers an empty
        waiter list so later demand joins instead of re-dispatching.
        Returns the number of speculations actually issued.
        """
        if self.workers == 0 or not requests:
            return 0
        if task is None:
            from repro.tasks import resolve_task

            task = resolve_task(None)
        issued = 0
        for kernel, site_index, action in normalize_requests(requests):
            action = task.cache_key(action)
            key = self._key(kernel, site_index, action, task)
            # peek(): speculation must not skew the demand hit/miss stats.
            if self.cache.peek(key) is not None or key in self._waiters:
                continue
            record = _PendingRecord(
                key=key,
                kernel=kernel,
                site_index=int(site_index),
                action=action,
                task=task,
                prefetch=True,
                priority=PRIORITY_PREFETCH,
            )
            self._waiters[key] = []
            if not self._dispatch(record):
                del self._waiters[key]
                break
            self.stats.prefetch_issued += 1
            issued += 1
        return issued

    def settle(self) -> None:
        """Drain every outstanding result, including pure speculation.

        After this, demand lookups for completed prefetches are plain
        cache hits.  Demand futures normally drain lazily via
        ``result()``; ``settle()`` is for quiesce points (end of a batch,
        before reading stats, shutting down an example) where leftover
        speculative work should land in the cache rather than be lost.
        """
        while self._pending:
            self._drain_one()

    def _key(self, kernel, site_index, action, task) -> RewardKey:
        return self.cache.key_for(
            kernel,
            self.pipeline.machine,
            site_index,
            default_symbol_value=self.pipeline.default_symbol_value,
            action=action,
            task=task.name,
        )

    # -- dispatch ----------------------------------------------------------

    def _register(self, record: _PendingRecord) -> int:
        request_id = self._next_request_id
        self._next_request_id += 1
        self._pending[request_id] = record
        self._inflight[record.key] = request_id
        return request_id

    def _dispatch(self, record: _PendingRecord) -> bool:
        request_id = self._register(record)
        if not self._send_record(request_id, record):
            del self._pending[request_id]
            del self._inflight[record.key]
            return False
        self.stats.record_dispatch(record.worker, prefetch=record.prefetch)
        return True

    def _send_record(self, request_id: int, record: _PendingRecord) -> bool:
        """Ship one record to its shard; re-pick on send failure.  False
        only when zero live workers remain."""
        while True:
            live = self.coordinator.live_workers()
            if not live:
                record.worker = None
                return False
            shard = live[int(record.key.kernel_hash[:8], 16) % len(live)]
            worker = self.coordinator.worker(shard)
            messages = []
            if record.key.kernel_hash not in worker.shipped_kernels:
                worker.shipped_kernels.add(record.key.kernel_hash)
                messages.append(
                    kernel_message(record.key.kernel_hash, kernel_payload(record.kernel))
                )
            # Ship the task object once per (worker, task name, instance):
            # workers then hold the exact instance this process uses, so
            # tasks registered only here (or configured differently from the
            # registry default) still evaluate correctly.  Re-shipped when a
            # *different* instance reuses the name.  (In-place mutation of a
            # shipped task between submits is not detectable — don't.)
            if worker.shipped_tasks.get(record.task.name) != id(record.task):
                worker.shipped_tasks[record.task.name] = id(record.task)
                messages.append(task_message(record.task.name, record.task))
            messages.append(
                work_message(
                    request_id,
                    record.kind,
                    record.key.kernel_hash,
                    record.site_index,
                    record.action,
                    record.task.name,
                    decisions=record.decisions,
                    priority=record.priority,
                )
            )
            record.worker = shard
            try:
                self.coordinator.send_many(shard, messages)
                return True
            except OSError:
                record.worker = None
                self.coordinator.mark_lost(shard)

    # -- whole-kernel application fan-out ----------------------------------

    def measure_applications(self, task: "OptimizationTask", jobs, detail: bool = False):
        """Fan whole-kernel task applications out across the worker shards.

        ``jobs`` is a sequence of ``(kernel, decisions)`` pairs.  Each
        unique job (canonicalized by the application's flattened-decision
        cache key) runs ``measure_baseline`` + ``task.apply`` inside the
        worker owning the kernel's shard, against a fresh worker-local
        cache; every measurement entry the application produced is shipped
        back and merged into the shared cache.  A serial pass re-running
        the same applications afterwards is then pure lookups — which is
        how :meth:`repro.evaluation.comparison.ComparisonRunner.run`
        parallelizes per kernel while staying byte-identical to serial.

        Returns the number of jobs dispatched (0 when the service is
        serial, or every job was already fanned out by an earlier call) —
        or, with ``detail=True``, a per-job list of booleans (``True``
        when that job was dispatched to a worker) so callers can tell
        which jobs actually cost a simulation this call.
        Raises if any worker failed; failed jobs become retryable again.
        """
        if self._closed:
            raise RuntimeError(
                "evaluation service is closed; create a new one to submit"
            )
        if self.workers == 0 or not jobs:
            return [False] * len(jobs or []) if detail else 0
        flags: List[bool] = []
        outstanding: set = set()
        for kernel, decisions in jobs:
            flattened = flatten_decisions(decisions)
            key = self._key(kernel, WHOLE_FUNCTION_APPLICATION, flattened, task)
            if key in self._applied:
                flags.append(False)
                continue
            self._applied.add(key)
            record = _PendingRecord(
                key=key,
                kernel=kernel,
                site_index=WHOLE_FUNCTION_APPLICATION,
                action=flattened,
                task=task,
                kind="apply",
                decisions={
                    int(site): tuple(int(v) for v in action)
                    for site, action in decisions.items()
                },
            )
            request_id = self._register(record)
            if self._send_record(request_id, record):
                self.stats.record_dispatch(record.worker)
                outstanding.add(request_id)
                flags.append(True)
            else:
                self._evaluate_inline(request_id, record)
                flags.append(False)
        while any(rid in self._pending for rid in outstanding):
            self._drain_one()
        if self._apply_errors:
            errors, self._apply_errors = self._apply_errors, []
            for key, _message in errors:
                self._applied.discard(key)
            raise RuntimeError(
                f"{len(errors)} application job(s) failed in workers; "
                f"first failure:\n{errors[0][1]}"
            )
        return flags if detail else sum(flags)

    # -- result collection --------------------------------------------------

    def _drain_until(self, future: EvaluationFuture) -> None:
        while not future.done():
            self._drain_one()

    def _drain_one(self) -> None:
        # The timeout is a liveness-check interval, not a deadline: slow
        # simulations on healthy workers just wait another round, and dead
        # workers surface as ("lost", ...) events.
        while True:
            try:
                event, name, message = self.coordinator.inbox.get(
                    timeout=self.result_timeout
                )
                break
            except queue_module.Empty:
                self.coordinator.check_timeouts()
                if not self._pending:
                    return
        if event == "lost":
            self._handle_lost(name)
            return
        record = self._pending.pop(message["id"], None)
        if record is None:
            # A duplicate answer after a retry raced the original — the
            # values are deterministic, so first-wins is safe.
            return
        self._inflight.pop(record.key, None)
        self.stats.record_completion(name)
        error = message.get("error")
        if error is not None:
            self.stats.errors += 1
            if record.kind == "apply":
                self._apply_errors.append((record.key, error))
            for waiting_future, slot in self._waiters.pop(record.key, []):
                waiting_future._fail(slot, error)
            return
        if record.kind == "apply":
            self._merge_entries(decode_entries(message.get("entries")))
            return
        self._resolve(
            record,
            CachedMeasurement(
                cycles=float(message["cycles"]),
                compile_seconds=float(message["compile_seconds"]),
            ),
        )

    def _merge_entries(self, entries) -> None:
        for entry_key, measurement in entries:
            # peek() not get(): merging shipped entries is plumbing, not a
            # lookup, and skipping present keys keeps disk stores
            # duplicate-free.
            if self.cache.peek(entry_key) is None:
                self.cache.put(entry_key, measurement)

    def _resolve(self, record: _PendingRecord, measurement: CachedMeasurement) -> None:
        self.cache.put(record.key, measurement)
        waiters = self._waiters.pop(record.key, [])
        for position, (waiting_future, slot) in enumerate(waiters):
            waiting_future._fill(slot, BatchOutcome(measurement, position > 0))
        if record.prefetch and not waiters:
            # Speculation landed before any demand wanted it: later demand
            # finds it in the cache and counts as a prefetch hit.
            self._prefetched_keys.add(record.key)

    # -- loss recovery ------------------------------------------------------

    def _handle_lost(self, name: str) -> None:
        """Re-shard one dead worker's orphans onto the survivors.

        Demanded work (anything with waiters, plus whole-kernel
        applications) is retried with exponential backoff up to
        ``max_retries`` re-dispatches; pure speculation is simply dropped.
        With zero survivors, demanded work runs inline on the service's
        own pipeline — identical code path, identical bytes.
        """
        self.stats.workers_lost += 1
        demanded: List[Tuple[int, _PendingRecord]] = []
        for request_id, record in sorted(self._pending.items()):
            if record.worker != name:
                continue
            if record.kind == "apply" or self._waiters.get(record.key):
                demanded.append((request_id, record))
                continue
            # Un-joined speculation: drop it (implicitly counted wasted).
            del self._pending[request_id]
            self._inflight.pop(record.key, None)
            self._waiters.pop(record.key, None)
        retryable: List[Tuple[int, _PendingRecord]] = []
        for request_id, record in demanded:
            record.attempts += 1
            if record.attempts > self.max_retries + 1:
                self._fail_record(request_id, record)
                continue
            retryable.append((request_id, record))
        if not retryable:
            return
        if not self.coordinator.live_workers():
            for request_id, record in retryable:
                self._evaluate_inline(request_id, record)
            return
        # One grouped backoff per loss event, growing with the worst
        # retry count in the group.
        worst = max(record.attempts for _rid, record in retryable)
        if self.retry_backoff > 0:
            time.sleep(self.retry_backoff * (2 ** (worst - 2)))
        for request_id, record in retryable:
            if self._send_record(request_id, record):
                self.stats.retries += 1
                self.stats.reshards += 1
                self.stats.per_worker_dispatched[record.worker] = (
                    self.stats.per_worker_dispatched.get(record.worker, 0) + 1
                )
            else:
                self._evaluate_inline(request_id, record)

    def _fail_record(self, request_id: int, record: _PendingRecord) -> None:
        self.stats.errors += 1
        del self._pending[request_id]
        self._inflight.pop(record.key, None)
        message = (
            f"evaluation worker(s) lost; gave up on {record.kind} request "
            f"after {self.max_retries} retries (key {record.key})"
        )
        if record.kind == "apply":
            self._apply_errors.append((record.key, message))
            return
        for waiting_future, slot in self._waiters.pop(record.key, []):
            waiting_future._fail(slot, message)

    def _evaluate_inline(self, request_id: int, record: _PendingRecord) -> None:
        """Last-resort local evaluation — the workers' own recipe run on
        the service's pipeline, so results stay byte-identical."""
        self._pending.pop(request_id, None)
        self._inflight.pop(record.key, None)
        self.stats.inline_evaluations += 1
        result = evaluate_work(
            self.pipeline,
            record.kernel,
            record.task,
            record.kind,
            record.site_index,
            record.action,
            record.decisions,
        )
        if record.kind == "apply":
            self._merge_entries(result)
        else:
            self._resolve(record, result)
