"""Tests for the compile service: the batched policy-serving front door.

The serving guarantees pinned here:

* a warm persistent store answers without a single simulator call (the
  ``store`` tier),
* identical concurrent requests coalesce — one forward, one simulation,
  followers marked ``coalesced`` — while distinct requests in one tick
  still share a single ``act_batch`` trunk forward,
* requests route per task for every registered task through one service,
* shutdown drains: every admitted request is answered before the worker
  exits (and a non-draining stop fails them fast instead of hanging),
* the TCP front end round-trips requests by id, and the stats report
  renders the latency/throughput/tier table.
"""

from __future__ import annotations

import socket
from collections import Counter

import pytest

from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.datasets.kernels import LoopKernel
from repro.distributed import DiskBackedRewardCache
from repro.serving import (
    TIER_COLD,
    TIER_FRONTEND,
    TIER_STORE,
    CompileRequest,
    CompileServer,
    CompileService,
    InProcessClient,
    ServiceClosed,
    ServingError,
    TCPClient,
)
from repro.simulator.engine import Simulator
from repro.tasks import get_task

ALL_TASKS = ("vectorization", "polly-tiling", "unrolling")

REDUCTION_SOURCE = """
float a[2048], b[2048];
float work() {
    float s = 0;
    for (int i = 0; i < 2048; i++) {
        s += a[i] * b[i];
    }
    return s;
}
"""

STREAM_SOURCE = """
float x[2048], y[2048];
void scale(float alpha) {
    for (int i = 0; i < 2048; i++) {
        y[i] = alpha * x[i];
    }
}
"""


def count_simulations(body):
    """Run ``body()`` counting Simulator.simulate calls (any thread)."""
    calls = {"n": 0}
    original = Simulator.simulate

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    Simulator.simulate = counting
    try:
        result = body()
    finally:
        Simulator.simulate = original
    return result, calls["n"]


@pytest.fixture(scope="module")
def trained():
    """One tiny policy trained jointly on every registered task."""
    kernels = [
        LoopKernel(name="work", source=REDUCTION_SOURCE, function_name="work"),
        LoopKernel(name="stream", source=STREAM_SOURCE, function_name="scale"),
    ]
    config = TrainingConfig(
        tasks=list(ALL_TASKS),
        rl_total_steps=48,
        rl_batch_size=24,
        learning_rate=1e-3,
        pretrain_epochs=0,
        seed=0,
    )
    framework, _artifacts = NeuroVectorizer.train(kernels, config)
    yield framework
    framework.close()


def fresh_service(trained, **knobs):
    """A service on the trained policy with its own pipeline/cache/memo."""
    knobs.setdefault("tasks", list(ALL_TASKS))
    return CompileService(trained.agent.policy, trained.embedding_model, **knobs)


class TestTiers:
    def test_cold_then_store_on_shared_cache(self, trained):
        service = fresh_service(trained)
        with service:
            first = service.optimize(CompileRequest(source=STREAM_SOURCE))
            assert first.ok and first.tier == TIER_COLD
            assert first.decisions and first.cycles > 0
            (second, simulations) = count_simulations(
                lambda: service.optimize(CompileRequest(source=STREAM_SOURCE))
            )
        assert second.ok
        assert second.tier == TIER_STORE
        assert simulations == 0
        assert second.decisions == first.decisions
        assert second.cycles == first.cycles

    def test_warm_disk_store_simulates_nothing(self, trained, tmp_path):
        cache_dir = str(tmp_path / "store")
        request = CompileRequest(source=REDUCTION_SOURCE, task="unrolling")

        cold_cache = DiskBackedRewardCache.open(cache_dir)
        with fresh_service(trained, reward_cache=cold_cache) as cold_service:
            cold = cold_service.optimize(request)
        cold_cache.close()
        assert cold.ok and cold.tier == TIER_COLD

        warm_cache = DiskBackedRewardCache.open(cache_dir)
        assert warm_cache.preloaded > 0
        # A brand-new service: empty observation memo, fresh pipeline —
        # only the persisted measurements are warm.
        with fresh_service(trained, reward_cache=warm_cache) as warm_service:
            warm, simulations = count_simulations(
                lambda: warm_service.optimize(request)
            )
        warm_cache.close()
        assert warm.ok
        assert simulations == 0
        assert warm.tier == TIER_STORE
        assert warm.decisions == cold.decisions
        assert warm.cycles == cold.cycles

    def test_frontend_tier_when_memo_hits_but_cache_is_cold(self, trained):
        service = fresh_service(trained)
        with service:
            first = service.optimize(CompileRequest(source=STREAM_SOURCE))
            assert first.tier == TIER_COLD
            service.reward_cache.clear()
            second = service.optimize(CompileRequest(source=STREAM_SOURCE))
        assert second.ok
        assert second.tier == TIER_FRONTEND
        assert second.decisions == first.decisions


class TestCoalescing:
    def test_duplicates_share_one_computation(self, trained):
        # What one request costs on this policy/kernel, measured alone.
        solo_service = fresh_service(trained)
        with solo_service:
            _, solo_sims = count_simulations(
                lambda: solo_service.optimize(CompileRequest(source=STREAM_SOURCE))
            )
        assert solo_sims > 0

        # Three identical requests admitted before the worker runs land in
        # one tick; the leader computes, the followers ride along.
        service = fresh_service(trained, max_batch_size=3)
        futures = [
            service.submit(CompileRequest(source=STREAM_SOURCE, name=f"user{i}"))
            for i in range(3)
        ]
        responses, dup_sims = count_simulations(
            lambda: (service.start() and None)
            or [future.result(timeout=30) for future in futures]
        )
        service.stop()
        assert dup_sims == solo_sims
        assert all(response.ok for response in responses)
        assert [response.coalesced for response in responses] == [
            False, True, True,
        ]
        assert all(response.batch_size == 3 for response in responses)
        first = responses[0]
        for response in responses[1:]:
            assert response.decisions == first.decisions
            assert response.cycles == first.cycles
        report = service.report()
        assert report.ticks == 1
        assert report.coalesced == 2

    def test_display_name_does_not_split_the_group(self):
        a = CompileRequest(source=STREAM_SOURCE, name="alice", request_id="1")
        b = CompileRequest(source=STREAM_SOURCE, name="bob", request_id="2")
        c = CompileRequest(source=STREAM_SOURCE, task="unrolling")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestTaskRouting:
    def test_one_tick_serves_every_registered_task(self, trained):
        service = fresh_service(trained, max_batch_size=len(ALL_TASKS))
        futures = {
            task_name: service.submit(
                CompileRequest(source=REDUCTION_SOURCE, task=task_name)
            )
            for task_name in ALL_TASKS
        }
        with service:
            responses = {
                name: future.result(timeout=60)
                for name, future in futures.items()
            }
        assert service.report().ticks == 1  # mixed tasks, one trunk forward
        for task_name, response in responses.items():
            assert response.ok, response.error
            assert response.task == task_name
            task = get_task(task_name)
            assert response.decisions
            for action in response.decisions.values():
                for component, menu in zip(action, task.menus):
                    assert component in menu

    def test_unknown_task_is_an_error_response(self, trained):
        service = fresh_service(trained)
        with service:
            response = service.optimize(
                CompileRequest(source=STREAM_SOURCE, task="loop-fusion")
            )
        assert not response.ok
        assert "unknown task" in response.error
        assert "loop-fusion" in response.error

    @pytest.mark.parametrize("task_name", ALL_TASKS)
    def test_cold_request_parses_each_text_once(self, trained, monkeypatch, task_name):
        from repro.frontend import cache

        original = cache.parse_source
        calls = Counter()

        def counting(source, filename="<source>", defines=None):
            calls[source] += 1
            return original(source, filename=filename, defines=defines)

        monkeypatch.setattr(cache, "parse_source", counting)
        # A kernel no earlier test submitted, without a function name: the
        # service finds the function from the same parse it lowers.
        source = STREAM_SOURCE.replace("alpha", f"alpha_{task_name.replace('-', '_')}")
        with fresh_service(trained) as service:
            response = service.optimize(
                CompileRequest(source=source, task=task_name, name="fresh")
            )
        assert response.ok, response.error
        assert calls[source] == 1
        # Any other parse is of a pragma-annotated variant, once each.
        assert all("#pragma" in text for text in calls if text != source)
        assert max(calls.values()) == 1, calls

    def test_mismatched_policy_head_rejected_at_construction(self, trained):
        # An unrolling task with a wider factor menu than the head bank the
        # policy trained: decoding would silently mislabel actions, so the
        # constructor must refuse.
        widened = get_task("unrolling").__class__(unroll_factors=range(1, 130))
        with pytest.raises(ValueError, match="menus"):
            fresh_service(trained, tasks=[widened])


class TestShutdown:
    def test_drain_answers_every_admitted_request(self, trained):
        service = fresh_service(trained, max_batch_size=2, max_wait_us=0)
        futures = [
            service.submit(
                CompileRequest(source=REDUCTION_SOURCE, task=task_name)
            )
            for task_name in ("vectorization", "unrolling", "vectorization")
        ]
        service.start()
        service.stop(drain=True)
        responses = [future.result(timeout=1) for future in futures]
        assert all(response.ok for response in responses)

    def test_stop_without_drain_fails_queued_requests(self, trained):
        service = fresh_service(trained)  # never started: all stay queued
        future = service.submit(CompileRequest(source=STREAM_SOURCE))
        service.stop(drain=False)
        with pytest.raises(ServingError):
            future.result(timeout=1)

    def test_submit_after_stop_raises_service_closed(self, trained):
        service = fresh_service(trained)
        with service:
            pass
        with pytest.raises(ServiceClosed):
            service.submit(CompileRequest(source=STREAM_SOURCE))


class TestClientsAndStats:
    def test_in_process_client_batches_round(self, trained):
        service = fresh_service(trained, max_batch_size=4)
        client = InProcessClient(service)
        with service:
            responses = client.optimize_many(
                [REDUCTION_SOURCE, STREAM_SOURCE], timeout=60
            )
        assert [response.ok for response in responses] == [True, True]
        assert responses[0].speedup > 0

    def test_tcp_round_trip_matches_by_id(self, trained):
        service = fresh_service(trained, max_batch_size=4)
        with CompileServer(service) as server:
            with TCPClient.connect(server.address) as client:
                responses = client.optimize_many(
                    [
                        CompileRequest(source=REDUCTION_SOURCE, name="red"),
                        CompileRequest(source=STREAM_SOURCE, task="unrolling",
                                       name="blue"),
                    ]
                )
        assert [response.kernel_name for response in responses] == ["red", "blue"]
        assert [response.task for response in responses] == [
            "vectorization", "unrolling",
        ]
        assert all(response.ok for response in responses)

    def test_tcp_connections_disable_nagle(self, trained):
        """Both ends of a live connection set TCP_NODELAY, so a pipelined
        response is not held back until the client ACKs the previous one."""
        service = fresh_service(trained, max_batch_size=4)
        with CompileServer(service) as server:
            with TCPClient.connect(server.address) as client:
                # A full round trip guarantees the server accepted us.
                assert client.optimize(CompileRequest(source=STREAM_SOURCE)).ok
                with server._lock:
                    accepted = list(server._connections)
                assert len(accepted) == 1
                assert accepted[0].getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
                assert client._sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )

    def test_oversize_line_gets_error_reply_and_server_keeps_serving(
        self, trained
    ):
        from repro.serving.schema import MAX_LINE_BYTES, decode_message

        service = fresh_service(trained, max_batch_size=4)
        with CompileServer(service) as server:
            with socket.create_connection(server.address, timeout=30) as raw:
                try:
                    raw.sendall(b"x" * (MAX_LINE_BYTES + 1))
                except OSError:
                    pass  # the server may drop us before the tail lands
                reply = raw.makefile("rb").readline()
            assert "line limit" in decode_message(reply)["error"]
            with TCPClient.connect(server.address) as client:
                assert client.optimize(CompileRequest(source=STREAM_SOURCE)).ok

    @pytest.mark.parametrize(
        "path, value",
        [
            (("kernel", "bindings"), {"N": "many"}),
            (("kernel", "bindings"), {"N": [1, 2]}),
            (("kernel", "bindings"), [1, 2]),
            (("kernel", "source"), 42),
            (("kernel", "function_name"), {"f": 1}),
            (("kernel", "name"), ["k"]),
            (("task",), ["vectorization"]),
        ],
    )
    def test_ill_typed_request_gets_error_reply_and_connection_survives(
        self, trained, path, value
    ):
        from repro.serving.schema import decode_message, encode_message

        bad = CompileRequest(source=STREAM_SOURCE, request_id="bad").to_payload()
        target = bad
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        good = CompileRequest(source=STREAM_SOURCE, request_id="good").to_payload()
        service = fresh_service(trained, max_batch_size=4)
        with CompileServer(service) as server:
            with socket.create_connection(server.address, timeout=20) as raw:
                replies = raw.makefile("rb")
                raw.sendall(encode_message(bad))
                error = decode_message(replies.readline())
                assert error["error"] and path[-1] in error["error"]
                raw.sendall(encode_message(good))
                answer = decode_message(replies.readline())
        assert answer["id"] == "good"
        assert not answer.get("error")

    def test_stats_report_renders_tier_table(self, trained):
        service = fresh_service(trained, slo_ms=10_000.0)
        with service:
            service.optimize(CompileRequest(source=STREAM_SOURCE))
            service.optimize(CompileRequest(source=STREAM_SOURCE))
        report = service.report()
        assert report.requests == 2
        assert report.tier_counts.get(TIER_COLD) == 1
        assert report.tier_counts.get(TIER_STORE) == 1
        assert report.latency_p95_ms >= report.latency_p50_ms > 0
        assert report.slo_attainment == pytest.approx(1.0)
        rendered = service.stats_report().render()
        for needle in ("requests", "p50", "p95", "p99", "store", "cold"):
            assert needle in rendered

    def test_from_framework_serves_trained_tasks(self, trained):
        service = CompileService.from_framework(trained)
        assert service.served_tasks == list(ALL_TASKS)
        assert service.reward_cache is trained.reward_cache
