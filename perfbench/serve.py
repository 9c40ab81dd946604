"""The serving workload, ``serve-cold``.

Set-up trains a three-task joint policy.  A unit of work is one burst: a
fresh ``CompileService`` (fresh pipeline, reward cache and observation
memo, and an emptied frontend memo) behind a ``CompileServer`` receives
:data:`BURST` kernels never seen before in the process, tasks round-robin,
all sent at once over one TCP connection, as a user submitting a suite
would.  Every request parses, lowers, embeds and simulates, and the
admission queue batches them.

Load comes from ``loadgen.py`` in its own process, so it never competes
with the server for the interpreter lock.  A burst's time runs from its
first send to its last response, as the generator sees it.  Every response
is checked against what the program computes in-process: the decisions
``NeuroVectorizer.decide_sites`` makes and the cycles a fresh
``CompileAndMeasure`` measures for them.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.spans import Tracer, instrument, self_times
from perfbench.workloads import (
    TASKS,
    LayerProbe,
    Metrics,
    Outcome,
    cache_metrics,
    peak_rss_mb,
    synthetic_kernels,
)

LOADGEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "loadgen.py")

#: Kernels the served policy trains on, and its training budget.
TRAIN_KERNELS = 24
TRAIN_STEPS = 1200
TRAIN_BATCH = 300

#: Keeps the served kernels apart from the other workloads' kernels.
SEED_OFFSET = 700_000

#: Requests per burst: about a second of work for the service on a 2-core
#: host, so a 20-second run measures a dozen or more bursts.
BURST = 150
MIN_UNITS = 3


@dataclass
class Phase:
    """What one load-generator run saw."""

    scheduled: int
    failed: int = 0
    #: First send to last response, seconds.
    elapsed_s: float = 0.0
    service_ms: List[float] = field(default_factory=list)
    edge_ms: List[float] = field(default_factory=list)
    #: Checked responses, as ``CompileResponse`` objects.
    responses: list = field(default_factory=list)


def run_loadgen(address, schedule, timeout: float) -> dict:
    """Drive the server at ``address`` with ``schedule`` from a new process."""
    spec = json.dumps({"host": address[0], "port": address[1], "schedule": schedule})
    process = subprocess.Popen(
        [sys.executable, LOADGEN],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = process.communicate(spec, timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        return {"sent": [], "received": [], "error": f"load generator exceeded {timeout:.0f}s"}
    if process.returncode != 0:
        return {"sent": [], "received": [], "error": f"load generator failed: {err.strip()}"}
    return json.loads(out)


class Reference:
    """What the program computes in-process for each served request."""

    def __init__(self, framework):
        self.framework = framework
        self._answers: Dict[str, Tuple[dict, float, float]] = {}

    def answer(self, request) -> Tuple[dict, float, float]:
        """``(decisions, cycles, baseline cycles)`` for one request."""
        key = request.fingerprint()
        if key not in self._answers:
            from repro.core.pipeline import CompileAndMeasure
            from repro.datasets.kernels import LoopKernel
            from repro.tasks import resolve_task

            kernel = LoopKernel(
                name=request.name,
                source=request.source,
                function_name=request.function_name,
                suite="serving",
                bindings=dict(request.bindings),
            )
            task = resolve_task(request.task)
            decisions = self.framework.decide_sites(kernel, task=task.name)
            pipeline = CompileAndMeasure()
            application = task.apply(pipeline, kernel, decisions)
            baseline = pipeline.measure_baseline(kernel)
            self._answers[key] = (
                decisions,
                float(application.result.cycles),
                float(baseline.cycles),
            )
        return self._answers[key]


def check_response(request, response, reference: Reference) -> Optional[str]:
    """Why a ``CompileResponse`` is wrong, or ``None`` when it is right."""
    if response is None:
        return f"{request.request_id}: no response"
    if not response.ok:
        return f"{request.request_id}: error {response.error!r}"
    decisions, cycles, baseline = reference.answer(request)
    if response.decisions != decisions:
        return f"{request.request_id}: decisions {response.decisions} != {decisions}"
    if response.cycles != cycles or response.baseline_cycles != baseline:
        return (
            f"{request.request_id}: cycles {response.cycles}/{response.baseline_cycles} "
            f"!= {cycles}/{baseline}"
        )
    return None


def score_phase(label: str, requests, result: dict, reference: Reference,
                outcome: Outcome) -> Phase:
    """Check each request's response in a load-generator result and time it.

    Every request counts as attempted; a missing, malformed, failed or wrong
    response counts as failed.
    """
    from repro.serving import CompileResponse

    if result["error"]:
        outcome.notes.append(f"{label}: {result['error']}")
    received = {}
    for at, line in result["received"]:
        try:
            response = CompileResponse.from_payload(json.loads(line))
        except (ValueError, TypeError, AttributeError) as error:
            outcome.notes.append(f"{label}: unreadable response {error!r}")
            continue
        received[response.request_id] = (at, response)
    phase = Phase(scheduled=len(requests))
    sent = result["sent"] or [(0.0, 0.0)] * len(requests)
    for request, (_due, sent_at) in zip(requests, sent):
        outcome.attempted += 1
        at, response = received.get(request.request_id, (None, None))
        problem = check_response(request, response, reference)
        if problem is not None:
            phase.failed += 1
            outcome.fail(f"{label}: {problem}")
            continue
        phase.responses.append(response)
        phase.service_ms.append(response.latency_ms)
        phase.edge_ms.append((at - sent_at) * 1000.0 - response.latency_ms)
    if result["sent"] and received:
        first_send = min(sent_at for _due, sent_at in result["sent"])
        phase.elapsed_s = max(at for at, _ in received.values()) - first_send
    return phase


class ServeCold:
    """The ``serve-cold`` workload (see the module docstring)."""

    def __init__(self, seed: int):
        self.seed = seed
        #: Reward caches used while tracing, for the ``cache.*`` figures.
        self.caches: Optional[list] = None

    def setup(self) -> None:
        from repro.core.framework import NeuroVectorizer, TrainingConfig
        from repro.serving import CompileRequest

        self.training_kernels = synthetic_kernels(TRAIN_KERNELS, self.seed)
        self.framework, _ = NeuroVectorizer.train(
            self.training_kernels,
            TrainingConfig(
                tasks=list(TASKS),
                rl_total_steps=TRAIN_STEPS,
                rl_batch_size=TRAIN_BATCH,
                pretrain_epochs=1,
                seed=self.seed,
            ),
        )
        self.reference = Reference(self.framework)
        # Take the serving path's first-call costs on kernels the measured
        # bursts never send.
        with self._serving() as server:
            for kernel, task in zip(self.training_kernels, TASKS):
                server.service.optimize(
                    CompileRequest(source=kernel.source, task=task, name=kernel.name), timeout=60
                )

    def close(self) -> None:
        self.framework.close()

    @contextlib.contextmanager
    def _serving(self):
        """A started server over a fresh service, both stopped on exit."""
        from repro.cache.reward_cache import RewardCache
        from repro.core.pipeline import CompileAndMeasure
        from repro.serving import CompileServer, CompileService

        service = CompileService(
            self.framework.agent.policy,
            self.framework.embedding_model,
            tasks=list(TASKS),
            pipeline=CompileAndMeasure(),
            reward_cache=RewardCache(),
        )
        server = CompileServer(service).start()
        try:
            yield server
        finally:
            server.stop()
            service.stop(drain=True)

    def _unseen_kernels(self):
        """Kernels distinct from each other and from the training set, made
        lazily in batches as bursts ask for them."""
        seen = {kernel.source for kernel in self.training_kernels}
        for batch in itertools.count():
            for kernel in synthetic_kernels(1000, SEED_OFFSET + self.seed * 1000 + batch):
                if kernel.source not in seen:
                    seen.add(kernel.source)
                    yield kernel

    def _requests(self, label: str, count: int):
        from repro.serving import CompileRequest

        requests = []
        for index in range(count):
            kernel = next(self.unseen)
            requests.append(
                CompileRequest(
                    source=kernel.source,
                    function_name=kernel.function_name,
                    task=TASKS[index % len(TASKS)],
                    name=f"{label}-{index}-{kernel.name}",
                    bindings=dict(kernel.bindings),
                    request_id=f"{label}-{index}",
                )
            )
        return requests

    def _burst(self, label: str, outcome: Outcome, tracer: Optional[Tracer] = None) -> Phase:
        from repro.frontend.cache import frontend_cache
        from repro.serving.schema import encode_message

        requests = self._requests(label, BURST)
        schedule = [[0.0, encode_message(r.to_payload()).decode("utf-8")] for r in requests]
        frontend_cache().clear(reset_stats=False)
        # Start each burst from a collected heap, so garbage the benchmark
        # left from checking the last burst is not collected during this one.
        gc.collect()
        with self._serving() as server:
            if self.caches is not None:
                self.caches.append(server.service.reward_cache)
            with instrument(tracer) if tracer is not None else contextlib.nullcontext():
                result = run_loadgen(server.address, schedule, timeout=120)
        return score_phase(label, requests, result, self.reference, outcome)

    def _measure(self, seconds: float, outcome: Outcome, min_units: int,
                 tracer: Optional[Tracer] = None) -> List[Phase]:
        """Bursts until their measured time reaches ``seconds``."""
        phases: List[Phase] = []
        while len(phases) < min_units or sum(p.elapsed_s for p in phases) < seconds:
            label = f"{'traced' if tracer else 'burst'}{len(phases)}"
            phases.append(self._burst(label, outcome, tracer))
        return phases

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
        outcome = Outcome()
        self.unseen = self._unseen_kernels()
        if tracer is not None:
            return self._run_traced(seconds, outcome, tracer)
        phases = self._measure(seconds, outcome, MIN_UNITS)
        times = [phase.elapsed_s for phase in phases]
        outcome.metrics.update(
            p50_ms=(statistics.median(times) * 1000.0, "ms"),
            throughput_per_s=(sum(len(p.responses) for p in phases) / sum(times), "1/s"),
            peak_rss_mb=(peak_rss_mb(), "MB"),
        )
        outcome.notes.append(
            f"{len(phases)} bursts of {BURST} requests: " + ", ".join(f"{t:.3f}s" for t in times)
        )
        return outcome

    def _run_traced(self, seconds: float, outcome: Outcome, tracer: Tracer) -> Outcome:
        untraced = self._measure(seconds / 2, outcome, 1)
        self.caches = []
        probe = LayerProbe()
        traced = self._measure(seconds / 2, outcome, 1, tracer)
        units = sum(len(phase.responses) for phase in traced)
        ticks = [span for span in tracer.spans if span.name == "serving.tick"]
        busy = sum(span.end - span.start for span in ticks)
        own = self_times(tracer.spans).get("serving.tick", 0.0)
        outcome.metrics.update(probe.metrics(tracer, units, root=None))
        outcome.metrics.update(cache_metrics(self.caches, units))
        outcome.metrics.update(serving_metrics(traced, len(ticks)))
        outcome.metrics.update({
            "quality.speedup_geomean": (
                statistics.geometric_mean(
                    [r.baseline_cycles / r.cycles for p in traced for r in p.responses]
                ),
                "ratio",
            ),
            # The tick span is the root of the server's work; its self time
            # is the time no deeper layer claimed.
            "trace.unattributed_share": (own / busy if busy else 0.0, "ratio"),
            "trace.overhead_share": (
                statistics.median([p.elapsed_s for p in traced])
                / statistics.median([p.elapsed_s for p in untraced]) - 1.0,
                "ratio",
            ),
        })
        return outcome


def serving_metrics(phases: Sequence[Phase], ticks: int) -> Metrics:
    """The serving layer's figures over some bursts, from their responses."""
    responses = [r for phase in phases for r in phase.responses]
    scheduled = sum(phase.scheduled for phase in phases)
    answered = max(len(responses), 1)
    out: Metrics = {
        "serving.batch_size_mean": (answered / max(ticks, 1), "count"),
        "serving.ticks": (ticks / answered, "count"),
        "serving.coalesced_share": (sum(r.coalesced for r in responses) / answered, "ratio"),
        "serving.rejected": ((scheduled - len(responses)) / max(scheduled, 1), "ratio"),
        "serving.service_p50_ms": (
            statistics.median([ms for phase in phases for ms in phase.service_ms]), "ms"
        ),
        "serving.edge_ms": (statistics.median([ms for phase in phases for ms in phase.edge_ms]), "ms"),
    }
    for tier in ("store", "frontend", "cold"):
        share = sum(r.tier == tier for r in responses) / answered
        out[f"serving.tier_share.{tier}"] = (share, "ratio")
    return out
