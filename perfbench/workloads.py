"""The batch workloads, ``train`` and ``evaluate``, and what all share.

Each workload builds its inputs from the seed, sets the program up
(:meth:`setup`), measures for a given number of seconds (:meth:`run`) and
checks every output it measured.  ``run(seconds, tracer)`` with a tracer
measures half the time untraced and half traced, so the tracing overhead is
the difference between the two halves.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.spans import (
    ENTRY_POINTS,
    Tracer,
    call_counts,
    descendants,
    instrument,
    self_times,
)

TASKS = ("vectorization", "unrolling", "polly-tiling")

#: Name of the span the benchmark opens around each unit of work.
UNIT_SPAN = "bench.unit"

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: Metrics = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 40:
            self.notes.append(f"FAILED: {message}")


def synthetic_kernels(count: int, seed: int):
    from repro.datasets.synthetic import SyntheticDatasetConfig, generate_synthetic_dataset

    return list(generate_synthetic_dataset(SyntheticDatasetConfig(count=count, seed=seed)))


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LayerProbe:
    """Layer counters, read as deltas over a traced stretch of a run."""

    def __init__(self) -> None:
        from repro.frontend.cache import frontend_cache
        from repro.simulator import cost

        self._frontend = frontend_cache().stats
        self._cost = cost
        self._frontend_before = (self._frontend.hits, self._frontend.misses)
        self._cost_before = cost.memo_stats()

    def metrics(self, tracer: Tracer, units: int, root: Optional[str] = UNIT_SPAN) -> Metrics:
        """Per-layer figures; times and counts are per unit of work.

        With ``root``, only spans inside spans of that name count.
        """
        units = max(units, 1)
        out: Metrics = {}
        spans = tracer.spans if root is None else descendants(tracer.spans, root)
        own = self_times(spans)
        calls = call_counts(spans)
        for name in dict.fromkeys(entry[0] for entry in ENTRY_POINTS):
            out[f"{name}_s"] = (own.get(name, 0.0) / units, "s")
            out[f"{name}_calls"] = (calls.get(name, 0) / units, "count")
        out["rl.act_batch_rows"] = (tracer.counts.get("rl.act_batch.rows", 0) / units, "count")
        hits = self._frontend.hits - self._frontend_before[0]
        misses = self._frontend.misses - self._frontend_before[1]
        out["frontend.memo_hit_ratio"] = (_ratio(hits, misses), "ratio")
        after = self._cost.memo_stats()
        before = self._cost_before
        out["simulator.cost_sweeps"] = ((after["sweeps"] - before["sweeps"]) / units, "count")
        out["simulator.cost_memo_hit_ratio"] = (
            _ratio(
                after["iteration_hits"] - before["iteration_hits"],
                after["iteration_misses"] - before["iteration_misses"],
            ),
            "ratio",
        )
        sim_hits = sim_misses = 0
        for simulator, (hits0, misses0) in tracer.snapshots.get("simulator.simulate", {}).values():
            sim_hits += simulator.memo.hits - hits0
            sim_misses += simulator.memo.misses - misses0
        out["simulator.memo_hit_ratio"] = (_ratio(sim_hits, sim_misses), "ratio")
        return out


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def cache_metrics(caches, units: int) -> Metrics:
    """Reward-cache traffic over ``caches``, counts per unit of work."""
    hits = sum(cache.stats.hits for cache in caches)
    misses = sum(cache.stats.misses for cache in caches)
    avoided = sum(cache.stats.compiles_avoided for cache in caches)
    units = max(units, 1)
    return {
        "cache.hit_ratio": (_ratio(hits, misses), "ratio"),
        "cache.misses": (misses / units, "count"),
        "cache.compiles_avoided": (avoided / units, "count"),
    }


def update_phase_metrics(timer, units: int) -> Metrics:
    """The PPO update's phase split from a ``PhaseTimer``, per unit."""
    units = max(units, 1)
    return {
        f"rl.update.{phase}_s": (timer.seconds(f"update/{phase}") / units, "s")
        for phase in ("gather", "evaluate", "backward", "optimizer")
    }


def overhead_metrics(untraced: Sequence[float], traced: Sequence[float], tracer: Tracer) -> Metrics:
    """Tracing overhead, and the share of unit time no layer span claimed."""
    roots = [span for span in tracer.spans if span.name == UNIT_SPAN]
    total = sum(span.end - span.start for span in roots)
    unclaimed = self_times(tracer.spans).get(UNIT_SPAN, 0.0)
    return {
        "trace.overhead_share": (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio"),
        "trace.unattributed_share": (unclaimed / total if total else 0.0, "ratio"),
    }


class Clock:
    """Adds up the time of the program calls in one unit of work.

    Only the blocks entered through :meth:`timed` count, each inside a
    :data:`UNIT_SPAN` span when tracing, so the benchmark's own checks
    between calls are neither timed nor traced.
    """

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.seconds = 0.0

    @contextlib.contextmanager
    def timed(self):
        span = self.tracer.span(UNIT_SPAN) if self.tracer is not None else contextlib.nullcontext()
        with span:
            started = time.perf_counter()
            try:
                yield
            finally:
                self.seconds += time.perf_counter() - started


class BatchWorkload:
    """A workload whose unit of work is a round of long calls into the program.

    Subclasses provide :meth:`setup`, :meth:`prepare` (the inputs) and
    :meth:`unit`, which runs one round, timing its program calls with the
    clock and checking their outputs into the outcome.  Units run until the
    time is up, at least :attr:`MIN_UNITS` of them.
    """

    MIN_UNITS = 2
    #: Program work in one unit, for ``throughput_per_s``.
    WORK_PER_UNIT = 1

    def __init__(self, seed: int):
        self.seed = seed
        #: Reward caches used while tracing, for the ``cache.*`` figures.
        self.caches: Optional[list] = None

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def prepare(self) -> None:
        raise NotImplementedError

    def unit(self, clock: Clock, outcome: Outcome) -> None:
        raise NotImplementedError

    def quality(self) -> float:
        raise NotImplementedError

    def _measure(
        self, seconds: float, outcome: Outcome, tracer: Optional[Tracer], min_units: int
    ) -> List[float]:
        times: List[float] = []
        deadline = time.perf_counter() + seconds
        index = 0
        # Start another unit while at least half of one still fits.
        while index < min_units or time.perf_counter() + (times[-1] if times else 0) / 2 < deadline:
            clock = Clock(tracer)
            try:
                self.unit(clock, outcome)
            except Exception as error:  # counted as failed, the run goes on
                outcome.attempted += 1
                outcome.fail(f"unit {index} raised {error!r}")
            else:
                times.append(clock.seconds)
            index += 1
        return times

    def run(self, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
        outcome = Outcome()
        self.prepare()
        if tracer is None:
            times = self._measure(seconds, outcome, None, self.MIN_UNITS)
            outcome.metrics.update(
                p50_ms=(statistics.median(times) * 1000.0, "ms"),
                throughput_per_s=(self.WORK_PER_UNIT * len(times) / sum(times), "1/s"),
                peak_rss_mb=(peak_rss_mb(), "MB"),
            )
            outcome.notes.append(f"{len(times)} units: " + ", ".join(f"{t:.3f}s" for t in times))
            return outcome
        from repro.profiling import PhaseTimer

        # One unit per half: the pair still sees every input evaluated twice.
        untraced = self._measure(seconds / 2, outcome, None, 1)
        timer = PhaseTimer()
        self.caches = []
        probe = LayerProbe()
        with instrument(tracer, profiler=timer):
            traced = self._measure(seconds / 2, outcome, tracer, 1)
        units = len(traced)
        outcome.metrics.update(probe.metrics(tracer, units))
        outcome.metrics.update(update_phase_metrics(timer, units))
        outcome.metrics.update(cache_metrics(self.caches, units))
        outcome.metrics.update(overhead_metrics(untraced, traced, tracer))
        outcome.metrics["quality.speedup_geomean"] = (self.quality(), "ratio")
        return outcome

    def _keep(self, cache) -> None:
        if self.caches is not None:
            self.caches.append(cache)


class Train(BatchWorkload):
    """``NeuroVectorizer.train``, single-task, on seeded synthetic kernels.

    A unit is a round of training runs, one on each of :data:`SETS` kernel
    sets, so a run's figures average over several draws of kernels instead
    of following one.  Each trained policy's speed-up over the baseline is
    computed afterwards, untimed, and must be bit-identical every time the
    same set is trained.
    """

    SETS = 4
    KERNELS = 24
    STEPS = 6000
    BATCH = 300
    WORK_PER_UNIT = STEPS * SETS

    def setup(self) -> None:
        from repro.core.framework import NeuroVectorizer, TrainingConfig

        # A small training run takes the one-time first-call costs.
        framework, _ = NeuroVectorizer.train(
            synthetic_kernels(4, 1_000_000 + self.seed),
            TrainingConfig(rl_total_steps=300, rl_batch_size=300, pretrain_epochs=1),
        )
        framework.close()

    def prepare(self) -> None:
        base = self.seed * self.SETS
        self.sets = [(base + k, synthetic_kernels(self.KERNELS, base + k)) for k in range(self.SETS)]
        self.speedups: Dict[int, float] = {}

    def unit(self, clock: Clock, outcome: Outcome) -> None:
        from repro.core.framework import NeuroVectorizer, TrainingConfig

        for set_seed, kernels in self.sets:
            config = TrainingConfig(
                task="vectorization",
                rl_total_steps=self.STEPS,
                rl_batch_size=self.BATCH,
                pretrain_epochs=1,
                seed=set_seed,
            )
            with clock.timed():
                framework, _ = NeuroVectorizer.train(kernels, config)
            outcome.attempted += 1
            with framework:
                speedup = statistics.geometric_mean(
                    [framework.optimize_kernel(k).speedup_over_baseline for k in kernels]
                )
                self._keep(framework.reward_cache)
            first = self.speedups.setdefault(set_seed, speedup)
            if speedup != first:
                outcome.fail(f"set {set_seed}: speed-up {speedup!r} differs from {first!r}")

    def quality(self) -> float:
        return statistics.geometric_mean(list(self.speedups.values()))


class Evaluate(BatchWorkload):
    """``compare_agents`` (baseline, random, brute force) on new suites.

    A unit evaluates each of :data:`SETS` suites for all three tasks, each
    task with a fresh pipeline and a fresh ``RewardCache`` after emptying
    the frontend memo, as a user evaluating a suite for the first time
    would.  Brute force searches every action, so it must never be slower
    than the baseline, and a suite must measure the same cycles every time.
    """

    SETS = 2
    KERNELS = 48
    #: Keeps the suites apart from the ``train`` kernel sets.
    SEED_OFFSET = 500_000
    WORK_PER_UNIT = KERNELS * len(TASKS) * SETS

    def setup(self) -> None:
        from repro.cache.reward_cache import RewardCache
        from repro.core.framework import compare_agents
        from repro.core.pipeline import CompileAndMeasure

        warm = synthetic_kernels(3, 1_000_000 + self.seed)
        for task in TASKS:
            compare_agents(
                warm, task=task, pipeline=CompileAndMeasure(), reward_cache=RewardCache()
            )

    def prepare(self) -> None:
        base = self.SEED_OFFSET + self.seed * self.SETS
        self.suites = [synthetic_kernels(self.KERNELS, base + k) for k in range(self.SETS)]
        self.cycles: Dict[int, dict] = {}
        self.speedups: Dict[int, float] = {}

    def unit(self, clock: Clock, outcome: Outcome) -> None:
        from repro.cache.reward_cache import RewardCache
        from repro.core.framework import compare_agents
        from repro.core.pipeline import CompileAndMeasure
        from repro.frontend.cache import frontend_cache

        for index, suite in enumerate(self.suites):
            results = {}
            with clock.timed():
                frontend_cache().clear(reset_stats=False)
                for task in TASKS:
                    cache = RewardCache()
                    results[task] = compare_agents(
                        suite, task=task, pipeline=CompileAndMeasure(), reward_cache=cache,
                        seed=self.seed,
                    )
                    self._keep(cache)
            self._check(index, results, outcome)

    def _check(self, index: int, results, outcome: Outcome) -> None:
        cycles = {}
        speedups = []
        for task, comparison in results.items():
            for kernel, row in comparison.cycles.items():
                outcome.attempted += 1
                cycles[(task, kernel)] = dict(row)
                if not row["brute_force"] <= row["baseline"]:
                    outcome.fail(
                        f"{task} {kernel}: brute force {row['brute_force']} cycles "
                        f"> baseline {row['baseline']}"
                    )
                speedups.append(comparison.speedups[kernel]["brute_force"])
        first = self.cycles.setdefault(index, cycles)
        if cycles != first:
            outcome.fail(f"suite {index}: cycles differ between evaluations")
        self.speedups[index] = statistics.geometric_mean(speedups)

    def quality(self) -> float:
        return statistics.geometric_mean(list(self.speedups.values()))
