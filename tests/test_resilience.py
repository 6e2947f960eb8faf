"""Fleet resilience: retry policy, circuit breakers, deadline
propagation, degraded-mode local planning, launcher accounting.

* **Retry policy** — transport errors are retryable, deterministic
  planning failures never are; backoff is seeded decorrelated jitter
  bounded by base/cap and a wall-clock budget.
* **Circuit breakers** — closed → open → half-open with a single
  probe, lazy recovery on an injectable clock, and a transition audit
  trail.
* **Deadlines** — a spent budget raises the typed
  :class:`DeadlineExceededError` client-side before send, is shed
  server-side before dispatch and worker-side before search, and the
  shed count reaches the metrics registry and its stats view.
* **Degraded mode** — when every shard in a signature's preference
  list is down or breaker-open, the client plans locally: flagged
  ``degraded``, routed to the ``"local"`` sentinel, makespan
  bit-identical to a healthy plan.
* **Launcher** — one crash is charged exactly once to the restart
  budget; ``stop()`` is idempotent and safe to race.
* **Wire safety** — a stale response id on a reused connection is
  rejected as a protocol error, never mis-delivered.
"""

import json
import os
import socket
import threading
import time
import warnings

import pytest

from repro.core.plancache import PlanCache
from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.fleet import (
    CircuitBreaker,
    FleetClient,
    FleetConfig,
    FleetFailoverWarning,
    PlanFleet,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    WarningAggregator,
)
from repro.obs.registry import sample_value
from repro.obs.scrape import check_scrape
from repro.service import (
    DeadlineExceededError,
    PlanService,
    PlanServiceClient,
    PlanServiceServer,
    ProtocolError,
    RemotePlanError,
    RetryPolicy,
    ServiceClosedError,
    SignatureMismatchError,
    retryable,
)
from repro.service.rpc import (
    WIRE_FORMAT,
    WIRE_VERSION,
    parse_address,
    recv_frame,
    request_envelope,
    send_frame,
)


def controlled_batch(image_counts, start_index=0):
    return GlobalBatch([
        controlled_vlm_microbatch(index=start_index + i, num_images=count)
        for i, count in enumerate(image_counts)
    ])


@pytest.fixture
def make_planner(tiny_vlm, small_cluster, parallel2, cost_model):
    def factory(budget=8, cache_size=8):
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=budget, seed=0)
        cache = PlanCache(capacity=cache_size)
        return OnlinePlanner(tiny_vlm, small_cluster, parallel2, cost_model,
                             searcher=searcher, plan_cache=cache)
    return factory


@pytest.fixture
def serving(tmp_path, make_planner):
    """A served PlanService on a Unix socket; yields a start()."""
    def start(num_workers=1, jobs=("vlm",), **server_kwargs):
        service = PlanService(num_workers=num_workers)
        for job in jobs:
            service.register_job(job, planner=make_planner())
        server = PlanServiceServer(
            service, uds=str(tmp_path / "plan.sock"),
            result_timeout_s=60.0, **server_kwargs,
        )
        started.append((service, server))
        return service, server

    started = []
    yield start
    for service, server in started:
        server.close(timeout=10.0)
        service.close()


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestRetryClassification:
    RETRYABLE = (
        OSError("refused"),
        TimeoutError("slow"),
        ProtocolError("bad frame"),
        ServiceClosedError("draining"),
    )
    TERMINAL = (
        RemotePlanError("search failed"),
        SignatureMismatchError("context drift"),
        DeadlineExceededError("budget spent"),
        ValueError("not a transport error"),
    )

    def test_transport_errors_are_retryable(self):
        for error in self.RETRYABLE:
            assert retryable(error), error

    def test_deterministic_errors_are_terminal(self):
        # DeadlineExceededError IS a RemotePlanError — classification
        # must check the deterministic branch first.
        for error in self.TERMINAL:
            assert not retryable(error), error

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_s=1.0, cap_s=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestRetrySession:
    def test_backoff_is_seeded_and_bounded(self):
        policy = RetryPolicy(max_attempts=8, base_s=0.01, cap_s=0.2,
                             seed=42)
        a = [policy.session().next_delay_s() for _ in range(1)]
        one = policy.session()
        two = policy.session()
        seq_one = [one.next_delay_s() for _ in range(6)]
        seq_two = [two.next_delay_s() for _ in range(6)]
        assert seq_one == seq_two  # same seed, same jitter stream
        assert a[0] == seq_one[0]
        for delay in seq_one:
            assert policy.base_s <= delay <= policy.cap_s

    def test_attempt_exhaustion(self):
        session = RetryPolicy(max_attempts=2).session()
        assert session.start_attempt() == 1
        assert not session.give_up(OSError("x"))
        assert session.start_attempt() == 2
        assert session.give_up(OSError("x"))

    def test_non_retryable_error_gives_up_immediately(self):
        session = RetryPolicy(max_attempts=10).session()
        session.start_attempt()
        assert session.give_up(RemotePlanError("terminal"))

    def test_budget_clamps_and_exhausts(self):
        policy = RetryPolicy(max_attempts=100, base_s=0.4, cap_s=1.0,
                             budget_s=0.5, seed=0)
        session = policy.session()
        total = 0.0
        while not session.give_up(OSError("x")):
            session.start_attempt()
            total += session.next_delay_s()
        assert total <= policy.budget_s + 1e-9
        assert session.slept_s == total


class TestCircuitBreaker:
    def test_trips_after_threshold_and_refuses(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, recovery_s=5.0,
                                 clock=clock)
        assert breaker.state == STATE_CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        assert breaker.transitions == [(STATE_CLOSED, STATE_OPEN)]

    def test_half_open_admits_a_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == STATE_HALF_OPEN  # lazy recovery
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # everyone else waits

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=1.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()
        assert (STATE_HALF_OPEN, STATE_CLOSED) in breaker.transitions

    def test_probe_failure_restarts_recovery(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_s=2.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        clock.advance(1.0)  # recovery window restarted, not resumed
        assert breaker.state == STATE_OPEN
        clock.advance(1.0)
        assert breaker.state == STATE_HALF_OPEN

    def test_trip_reset_and_codes(self):
        breaker = CircuitBreaker(clock=FakeClock())
        assert breaker.state_code == 0
        breaker.trip()
        assert breaker.state == STATE_OPEN
        assert breaker.state_code == 2
        breaker.reset()
        assert breaker.state_code == 0

    def test_transition_callback(self):
        seen = []
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock(),
                                 on_transition=lambda o, n: seen.append((o, n)))
        breaker.record_failure()
        breaker.reset()
        assert seen == [(STATE_CLOSED, STATE_OPEN),
                        (STATE_OPEN, STATE_CLOSED)]


class TestWarningAggregator:
    def test_rate_limits_per_key(self):
        clock = FakeClock()
        agg = WarningAggregator(interval_s=5.0, clock=clock)
        assert agg.should_emit("a") == (True, 0)
        assert agg.should_emit("a") == (False, 0)
        assert agg.should_emit("a") == (False, 0)
        assert agg.should_emit("b") == (True, 0)  # keys independent
        clock.advance(5.0)
        emit, suppressed = agg.should_emit("a")
        assert emit and suppressed == 2
        assert agg.emitted["a"] == 2
        assert agg.suppressed.get("a", 0) == 0  # reported, so cleared


class TestDeadlinePropagation:
    def test_client_refuses_spent_budget_before_send(self, serving):
        _service, server = serving()
        client = PlanServiceClient(server.address, timeout_s=10.0)
        try:
            with pytest.raises(DeadlineExceededError):
                client.call("ping", deadline_s=time.monotonic() - 1.0)
        finally:
            client.close()

    def test_server_sheds_expired_requests_before_dispatch(self, serving):
        service, server = serving()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(parse_address(server.address)[1])
        try:
            # Budget of 0 remaining seconds: expired the moment the
            # server re-anchors it — deterministically shed.
            send_frame(sock, request_envelope(1, "ping",
                                              deadline_s=0.0))
            response = recv_frame(sock)
        finally:
            sock.close()
        assert response["ok"] is False
        assert response["error"]["kind"] == "deadline"
        assert service.stats()["shed"] == 1

    def test_worker_sheds_expired_queued_work(self, make_planner):
        service = PlanService(num_workers=1)
        service.register_job("vlm", planner=make_planner())
        try:
            ticket = service.submit("vlm", controlled_batch([1, 2]),
                                    deadline_s=time.monotonic() - 1.0)
            with pytest.raises(DeadlineExceededError, match="shed"):
                ticket.result(timeout=10.0)
            assert service.stats()["shed"] == 1
            assert service.stats()["searches"] == 0
        finally:
            service.close()

    def test_shed_count_reaches_the_metrics_registry(self, serving):
        service, server = serving()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(parse_address(server.address)[1])
        try:
            send_frame(sock, request_envelope(1, "ping",
                                              deadline_s=-1.0))
            recv_frame(sock)
        finally:
            sock.close()
        client = PlanServiceClient(server.address, timeout_s=10.0)
        try:
            snapshot = client.call("metrics")["metrics"]
        finally:
            client.close()
        assert sample_value(snapshot, "repro_service_shed_total") == \
            service.stats()["shed"] == 1


class TestStaleResponseId:
    def test_stale_id_is_rejected_not_misdelivered(self, tmp_path):
        """A response carrying some other request's id on a reused
        connection must surface as a protocol error (satellite of the
        retry work: a retried send must never consume a late response
        to an earlier attempt as its own)."""
        path = str(tmp_path / "stale.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)

        def serve_once():
            conn, _ = listener.accept()
            with conn:
                request = recv_frame(conn)
                send_frame(conn, {
                    "format": WIRE_FORMAT, "version": WIRE_VERSION,
                    "id": request["id"] + 17,  # someone else's answer
                    "ok": True, "result": {"pong": True},
                })

        thread = threading.Thread(target=serve_once, daemon=True)
        thread.start()
        client = PlanServiceClient(f"uds://{path}", timeout_s=10.0)
        try:
            with pytest.raises(ProtocolError, match="stale response id"):
                client.call("ping")
        finally:
            client.close()
            thread.join(timeout=5.0)
            listener.close()


class TestLauncherAccounting:
    def _config(self, tmp_path, **kwargs):
        return FleetConfig(
            models=["VLM-S"], shards=1,
            cache_dir=str(tmp_path / "cache"),
            runtime_dir=str(tmp_path / "run"),
            budget=4, workers=1, queue=16, cache_size=16,
            **kwargs,
        )

    def test_one_crash_counts_once_and_stop_is_idempotent(self, tmp_path):
        fleet = PlanFleet(self._config(tmp_path, max_restarts=2)).start()
        try:
            fleet.kill_shard(0)
            shard = fleet.shards[0]
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if shard.restarts == 1 and shard.alive:
                    break
                time.sleep(0.2)
            assert shard.restarts == 1 and shard.alive
            # Let the monitor re-observe the same dead process a few
            # more polls: the crash must stay charged exactly once.
            time.sleep(PlanFleet.POLL_S * 3)
            assert shard.restarts == 1
        finally:
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(fleet.stop()))
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert len(results) == 2
        assert results[0] == results[1]  # second call got cached codes
        assert fleet.stop() == results[0]
        assert fleet.alive_count() == 0


class TestDegradedMode:
    DEAD = ["uds:///tmp/repro-resilience-no-such-shard.sock"]
    FAST_RETRY = RetryPolicy(max_attempts=2, base_s=0.0, cap_s=0.0)

    def make_client(self, planner, **kwargs):
        kwargs.setdefault("retry_policy", self.FAST_RETRY)
        kwargs.setdefault("degraded", True)
        return FleetClient(self.DEAD, "vlm", 0, [], planner=planner,
                           timeout_s=5.0, attempt_timeout_s=5.0,
                           **kwargs)

    def test_fallback_plan_is_makespan_identical(self, make_planner):
        batch = controlled_batch([1, 2])
        want = make_planner().plan_iteration(batch).total_ms

        client = self.make_client(make_planner())
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FleetFailoverWarning)
                result, report = client.plan_batch(batch)
        finally:
            client.close()
        assert report["degraded"] is True
        assert report["outcome"] == "degraded"
        assert result.total_ms == want
        assert client.degraded_plans == 1
        digest, address = client.routes[-1]
        assert address == "local"
        degraded_events = [e for e in client.audit
                           if e["kind"] == "degraded"]
        assert degraded_events and \
            degraded_events[0]["reason"] == "retries-exhausted"
        assert degraded_events[0]["signature"] == digest

    def test_without_degraded_mode_the_error_surfaces(self, make_planner):
        client = self.make_client(make_planner(), degraded=False)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FleetFailoverWarning)
                with pytest.raises(OSError):
                    client.plan_batch(controlled_batch([1, 2]))
        finally:
            client.close()

    def test_open_breakers_short_circuit_to_local(self, make_planner):
        client = self.make_client(make_planner())
        try:
            client.trip_breakers()
            assert set(client.breaker_states().values()) == {STATE_OPEN}
            result, report = client.plan_batch(controlled_batch([1, 2]))
            assert report["degraded"] is True
            # Refused locally by the breaker: no dial, no retry burned.
            assert client.retries == 0
            reasons = [e["reason"] for e in client.audit
                       if e["kind"] == "degraded"]
            assert reasons == ["breakers-open"]

            snapshot = client.metrics_snapshot()
            code = sample_value(snapshot, "repro_fleet_breaker_state",
                                {"address": self.DEAD[0]})
            assert code == 2
            assert check_scrape([], client_metrics=snapshot) == []

            client.reset_breakers()
            assert set(client.breaker_states().values()) == \
                {STATE_CLOSED}
        finally:
            client.close()

    def test_spent_deadline_is_typed_not_degraded(self, make_planner):
        client = self.make_client(make_planner(), deadline_s=0.0)
        try:
            with pytest.raises(DeadlineExceededError):
                client.plan_batch(controlled_batch([1, 2]))
            assert client.deadline_failures == 1
            assert client.degraded_plans == 0
        finally:
            client.close()

    def test_stats_surface_resilience_counters(self, make_planner):
        client = self.make_client(make_planner())
        try:
            client.trip_breakers()
            client.plan_batch(controlled_batch([1, 2]))
            stats = client.stats()
        finally:
            client.close()
        assert stats["degraded_plans"] == 1
        assert stats["retries"] == 0
        assert stats["breakers"][self.DEAD[0]] == STATE_OPEN


class TestClientMetricsChecks:
    def test_illegal_breaker_code_is_flagged(self):
        snapshot = {"metrics": [{
            "name": "repro_fleet_breaker_state", "type": "gauge",
            "help": "", "label_names": ["address"],
            "series": [{"labels": {"address": "a"}, "value": 7}],
        }]}
        problems = check_scrape([], client_metrics=snapshot)
        assert any("illegal code" in p for p in problems)

    def test_negative_counter_is_flagged(self):
        snapshot = {"metrics": [{
            "name": "repro_fleet_client_retries_total",
            "type": "counter", "help": "", "label_names": ["address"],
            "series": [{"labels": {"address": "a"}, "value": -1}],
        }]}
        problems = check_scrape([], client_metrics=snapshot)
        assert any("negative" in p for p in problems)
