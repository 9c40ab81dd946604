"""Checks of the benchmark's own arithmetic and correctness accounting."""

from __future__ import annotations

import json

import pytest

from perfbench.spans import Span, Tracer, descendants, instrument, self_times


def _span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent)


# -- span self time ------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 5.0, 6.0, parent=1),
        _span(4, "c", 2.0, 3.0, parent=2),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"root": 6.0, "a": 2.0, "b": 1.0, "c": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # Children from threads that overlap, and one running past its parent.
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "x", 1.0, 5.0, parent=1),
        _span(3, "x", 3.0, 7.0, parent=1),
        _span(4, "y", 9.0, 12.0, parent=1),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own["x"] == pytest.approx(8.0)


def test_self_time_sums_spans_of_one_name():
    spans = [_span(1, "a", 0.0, 1.0), _span(2, "a", 2.0, 4.5)]
    assert self_times(spans) == pytest.approx({"a": 3.5})


def test_descendants_keeps_only_spans_inside_the_root():
    spans = [
        _span(1, "unit", 0.0, 5.0),
        _span(2, "a", 1.0, 2.0, parent=1),
        _span(3, "b", 1.2, 1.5, parent=2),
        _span(4, "a", 6.0, 7.0),
    ]
    assert [span.span_id for span in descendants(spans, "unit")] == [1, 2, 3]


def test_tracer_nests_per_thread_and_joins_reentrant_calls():
    tracer = Tracer()

    def inner(depth):
        return inner(depth - 1) if depth else "done"

    traced = tracer.wrap("layer.inner", inner)
    # Recursion reaches the traced name again only through the original.
    with tracer.span("root"):
        assert traced(3) == "done"
    names = sorted(span.name for span in tracer.spans)
    assert names == ["layer.inner", "root"]
    child = next(span for span in tracer.spans if span.name == "layer.inner")
    root = next(span for span in tracer.spans if span.name == "root")
    assert child.parent == root.span_id


def test_instrument_restores_every_entry_point():
    from repro.core.framework import NeuroVectorizer
    from repro.simulator.engine import Simulator

    simulate = Simulator.__dict__["simulate"]
    train = NeuroVectorizer.__dict__["train"]
    with instrument(Tracer()):
        assert Simulator.__dict__["simulate"] is not simulate
    assert Simulator.__dict__["simulate"] is simulate
    assert NeuroVectorizer.__dict__["train"] is train


# -- serving correctness accounting ---------------------------------------------------


class _Reference:
    """Stands in for the in-process reference answers."""

    def answer(self, request):
        return {0: (4, 2)}, 100.0, 150.0


def _requests(count):
    from repro.serving import CompileRequest

    return [
        CompileRequest(source="void kernel() {}", request_id=f"r-{i}") for i in range(count)
    ]


def _line(request_id, **changes):
    from repro.serving import CompileResponse

    fields = dict(request_id=request_id, decisions={0: (4, 2)}, cycles=100.0,
                  baseline_cycles=150.0, latency_ms=2.0)
    fields.update(changes)
    return json.dumps(CompileResponse(**fields).to_payload())


def test_corrupted_responses_are_counted_as_failed():
    from perfbench.serve import score_phase
    from perfbench.workloads import Outcome

    requests = _requests(6)
    result = {
        "sent": [[0.0, i * 0.001] for i in range(6)],
        "received": [
            [0.010, _line("r-0")],
            [0.020, _line("r-1", decisions={0: (8, 2)})],
            [0.030, _line("r-2", cycles=99.0)],
            [0.040, _line("r-3", error="boom")],
            [0.050, "{not json"],
            # r-4 is never answered; r-5 is answered correctly.
            [0.060, _line("r-5")],
        ],
        "error": None,
    }
    outcome = Outcome()
    phase = score_phase("test", requests, result, _Reference(), outcome)
    assert outcome.attempted == 6
    assert outcome.failed == 4
    assert phase.failed == 4
    assert [response.request_id for response in phase.responses] == ["r-0", "r-5"]
    assert sum("FAILED" in note for note in outcome.notes) == 4


def test_clean_burst_is_timed_from_first_send_to_last_response():
    from perfbench.serve import score_phase
    from perfbench.workloads import Outcome

    requests = _requests(40)
    result = {
        "sent": [[0.0, 0.01 + i * 0.001] for i in range(40)],
        "received": [[0.02 + i * 0.01, _line(f"r-{i}")] for i in range(40)],
        "error": None,
    }
    outcome = Outcome()
    phase = score_phase("test", requests, result, _Reference(), outcome)
    assert (outcome.attempted, outcome.failed) == (40, 0)
    assert phase.elapsed_s == pytest.approx(0.02 + 39 * 0.01 - 0.01)
    assert phase.service_ms[0] == 2.0
    assert phase.edge_ms[0] == pytest.approx(8.0)


def test_lost_generator_fails_every_request():
    from perfbench.serve import score_phase
    from perfbench.workloads import Outcome

    outcome = Outcome()
    result = {"sent": [], "received": [], "error": "load generator failed"}
    phase = score_phase("test", _requests(5), result, _Reference(), outcome)
    assert (outcome.attempted, outcome.failed, phase.elapsed_s) == (5, 5, 0.0)
