"""Spans around calls into the program's layers, recorded from outside.

A :class:`Tracer` keeps every span in memory: its name, start, end, the span
that was open when it started (its parent, per thread) and an optional tag
such as a request or tick id.  :func:`instrument` wraps the public entry
points listed in :data:`ENTRY_POINTS` for the duration of a ``with`` block
and restores them afterwards; nothing in the program is edited.

A layer's self time is the time its spans were open minus the part of that
time their child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tag: Optional[str] = None


class Tracer:
    """Collects spans from every thread; spans nest per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.snapshots: Dict[str, Dict[int, tuple]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic, so threads need no lock here.
            self.spans.append(Span(span_id, name, start, end, parent, tag))

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, name: str, func: Callable, tag=None, rows=None, snapshot=None) -> Callable:
        """``func`` recording a span per call.

        A call made while a span of the same name is open (an override
        calling its base) joins that span instead of opening another.
        ``tag`` labels each span: a string gives numbered tags
        (``"tick"`` -> ``tick-1``, ``tick-2``, ...), a callable gets
        ``(args, kwargs)``.  ``rows(args, kwargs)`` adds to the
        ``<name>.rows`` count.  ``snapshot(self_argument)`` is kept for each
        distinct first argument the first time it is seen, in
        ``snapshots[name]``, so counters it holds can be read as deltas.
        """
        sequence = itertools.count(1)

        def label(args, kwargs):
            if tag is None:
                return None
            if isinstance(tag, str):
                return f"{tag}-{next(sequence)}"
            return tag(args, kwargs)

        ids, spans, clock = self._ids, self.spans, time.perf_counter

        # Inlined rather than built on span(): this runs on every call into
        # a layer, tens of thousands of times per second.
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return func(*args, **kwargs)
            if rows is not None:
                self.count(f"{name}.rows", rows(args, kwargs))
            if snapshot is not None:
                seen = self.snapshots.setdefault(name, {})
                if id(args[0]) not in seen:
                    seen[id(args[0])] = (args[0], snapshot(args[0]))
            span_id = next(ids)
            parent = stack[-1][0] if stack else None
            tag_value = label(args, kwargs)
            stack.append((span_id, name))
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, tag_value))

        return traced


def _covered(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds per span name, each span less what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.end - span.start - _covered(
            children.get(span.span_id, ()), span.start, span.end
        )
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def descendants(spans: Sequence[Span], root: str) -> List[Span]:
    """Spans named ``root`` and every span opened inside one of them."""
    by_id = {span.span_id: span for span in spans}
    kept: Dict[int, bool] = {}

    def inside(span: Span) -> bool:
        if span.span_id not in kept:
            parent = by_id.get(span.parent) if span.parent is not None else None
            kept[span.span_id] = span.name == root or (parent is not None and inside(parent))
        return kept[span.span_id]

    return [span for span in spans if inside(span)]


def call_counts(spans: Sequence[Span]) -> Dict[str, int]:
    return collections.Counter(span.name for span in spans)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _rows(args, kwargs) -> int:
    observations = args[1] if len(args) > 1 else kwargs.get("observations")
    return len(observations)


def _request_tag(args, kwargs) -> Optional[str]:
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "request_id", None)


def _memo_counts(simulator) -> Tuple[int, int]:
    return simulator.memo.hits, simulator.memo.misses


#: ``(span name, module, owner class or None, attribute, options)``.  A
#: function is replaced in every loaded ``repro`` module that imported it by
#: name; a method is replaced on its class.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str, dict], ...] = (
    ("core.train", "repro.core.framework", "NeuroVectorizer", "train", {}),
    ("core.measure", "repro.core.pipeline", "CompileAndMeasure", "measure_with_pragmas", {}),
    ("core.measure", "repro.core.pipeline", "CompileAndMeasure", "measure_with_factors", {}),
    ("core.measure", "repro.core.pipeline", "CompileAndMeasure", "measure_function", {}),
    ("core.measure", "repro.core.pipeline", "CompileAndMeasure", "measure_baseline", {}),
    ("core.measure", "repro.core.pipeline", "CompileAndMeasure", "measure_scalar", {}),
    ("evaluation.compare", "repro.evaluation.comparison", "ComparisonRunner", "run", {}),
    ("agents.brute_force", "repro.agents.brute_force", "BruteForceAgent", "select_factors", {}),
    ("rl.train", "repro.rl.ppo", "PPOTrainer", "train", {}),
    ("rl.collect", "repro.rl.ppo", "PPOTrainer", "collect_batch", {}),
    ("rl.update", "repro.rl.ppo", "PPOTrainer", "update", {}),
    ("rl.next_batch", "repro.rl.env", "MultiTaskEnv", "next_batch", {}),
    ("rl.decode", "repro.rl.env", "MultiTaskEnv", "decode_batch", {}),
    ("rl.decode", "repro.rl.env", "VectorizationEnv", "decode_batch", {}),
    ("rl.act_batch", "repro.rl.policy", "Policy", "act_batch", {"rows": _rows}),
    ("rl.act_batch", "repro.rl.policy", "MultiTaskPolicy", "act_batch", {"rows": _rows}),
    ("rl.act_batch", "repro.rl.policy", "ConditionedPolicy", "act_batch", {"rows": _rows}),
    ("rl.evaluate_actions", "repro.rl.policy", "Policy", "evaluate", {}),
    ("rl.evaluate_actions", "repro.rl.policy", "MultiTaskPolicy", "evaluate", {}),
    ("rl.evaluate_actions", "repro.rl.policy", "ConditionedPolicy", "evaluate", {}),
    ("embedding.pretrain", "repro.embedding.pretrain", "Code2VecPretrainer", "train", {}),
    ("embedding.vocab", "repro.embedding.vocab", None, "build_vocabularies", {}),
    ("embedding.observe", "repro.tasks.base", "OptimizationTask", "observation_features", {}),
    ("tasks.decision_sites", "repro.tasks.base", "OptimizationTask", "decision_sites", {}),
    ("tasks.decision_sites", "repro.tasks.vectorization", "VectorizationTask", "decision_sites", {}),
    ("tasks.decision_sites", "repro.tasks.unrolling", "UnrollingTask", "decision_sites", {}),
    ("tasks.decision_sites", "repro.tasks.polly_tiling", "PollyTilingTask", "decision_sites", {}),
    ("tasks.apply", "repro.tasks.base", "OptimizationTask", "apply", {}),
    ("tasks.apply", "repro.tasks.vectorization", "VectorizationTask", "apply", {}),
    ("tasks.apply", "repro.tasks.unrolling", "UnrollingTask", "apply", {}),
    ("tasks.apply", "repro.tasks.polly_tiling", "PollyTilingTask", "apply", {}),
    ("frontend.parse", "repro.frontend.cache", "FrontendCache", "parse", {}),
    ("ir.lower", "repro.ir.lowering", None, "lower_function", {}),
    ("analysis.analyze_loop", "repro.analysis.loopinfo", None, "analyze_loop", {}),
    ("polly.transform", "repro.polly.transforms", None, "tile_loop_nest", {}),
    ("polly.transform", "repro.polly.transforms", None, "fuse_adjacent_loops", {}),
    ("vectorizer.plan", "repro.vectorizer.planner", None, "build_plan", {}),
    ("vectorizer.baseline", "repro.vectorizer.cost_model", "BaselineCostModel", "decide_function", {}),
    ("vectorizer.baseline", "repro.vectorizer.cost_model", "BaselineCostModel", "decide_loop", {}),
    ("vectorizer.baseline", "repro.vectorizer.cost_model", "BaselineCostModel", "plan_function", {}),
    ("simulator.simulate", "repro.simulator.engine", "Simulator", "simulate", {"snapshot": _memo_counts}),
    ("cache.measure", "repro.cache.reward_cache", "RewardCache", "measure", {}),
    ("cache.measure", "repro.cache.reward_cache", "RewardCache", "measure_action", {}),
    ("cache.measure", "repro.cache.reward_cache", "RewardCache", "measure_application", {}),
    ("cache.measure", "repro.cache.reward_cache", "RewardCache", "measure_baseline", {}),
    ("cache.measure", "repro.cache.reward_cache", "RewardCache", "measure_pragmas", {}),
    ("serving.submit", "repro.serving.service", "CompileService", "submit", {"tag": _request_tag}),
    ("serving.tick", "repro.serving.service", "CompileService", "_process_batch", {"tag": "tick"}),
)


@contextlib.contextmanager
def instrument(tracer: Tracer, profiler=None) -> Iterator[Tracer]:
    """Wrap every entry point for the duration of the block.

    With ``profiler`` (a :class:`repro.profiling.PhaseTimer`), every
    ``PPOTrainer`` built inside the block gets it as its ``profiler``.
    """
    restore: List[Tuple[object, str, object]] = []

    def replace(owner, attribute: str, value) -> None:
        restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    try:
        for name, module_name, owner_name, attribute, options in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(module, owner_name)
                if attribute not in owner.__dict__:
                    continue
                member = owner.__dict__[attribute]
                if isinstance(member, classmethod):
                    traced = classmethod(tracer.wrap(name, member.__func__, **options))
                else:
                    traced = tracer.wrap(name, member, **options)
                replace(owner, attribute, traced)
                continue
            original = getattr(module, attribute)
            traced = tracer.wrap(name, original, **options)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                if loaded.__dict__.get(attribute) is original:
                    replace(loaded, attribute, traced)
        if profiler is not None:
            from repro.rl.ppo import PPOTrainer

            original_init = PPOTrainer.__dict__["__init__"]

            @functools.wraps(original_init)
            def profiled_init(self, *args, **kwargs):
                if kwargs.get("profiler") is None and len(args) < 5:
                    kwargs["profiler"] = profiler
                original_init(self, *args, **kwargs)

            replace(PPOTrainer, "__init__", profiled_init)
        yield tracer
    finally:
        for owner, attribute, value in reversed(restore):
            setattr(owner, attribute, value)
