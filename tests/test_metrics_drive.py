"""A scripted drive against a live shard pins every cache, disk-tier and
wire series of the ``metrics`` RPC to an exact value.

One :class:`PlanServiceServer` over a :class:`PlanCache` with a
:class:`DiskCacheTier` behind it, driven in the deterministic
single-threaded mode (``num_workers=0``: the test steps the queue) by
raw-socket clients that count the bytes they send and receive.  The
script makes memory hits, a disk hit, a near hit, misses, evictions,
an invalidation, a faulted disk read, an unknown method, a protocol
error and a mid-request disconnect, then reads one ``metrics`` reply
and asserts each series exactly.  A second scrape must leave every
counter unchanged except the ones the ``metrics`` request itself
bumps.
"""

import socket
import time

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.core.cachetier import DiskCacheTier
from repro.core.plancache import PlanCache
from repro.core.planner import OnlinePlanner
from repro.core.searcher import ScheduleSearcher
from repro.core.signature import SIGNATURE_VERSION
from repro.data.batching import GlobalBatch
from repro.data.packing import controlled_vlm_microbatch
from repro.service import PlanService, PlanServiceServer
from repro.service.rpc import (
    DEFAULT_MAX_FRAME_BYTES,
    batch_to_dict,
    parse_address,
    recv_frame_sized,
    request_envelope,
    send_frame,
)


def controlled_batch(image_counts):
    return GlobalBatch([
        controlled_vlm_microbatch(index=i, num_images=count)
        for i, count in enumerate(image_counts)
    ])


class CountingClient:
    """A raw-socket client that tallies the wire bytes of every frame it
    sends and receives, so the server's byte counters can be checked
    exactly."""

    def __init__(self, server):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(30.0)
        self.sock.connect(parse_address(server.address)[1])
        self.sent = self.received = 0
        self._ids = 0

    def send(self, method, params=None, envelope=None):
        self._ids += 1
        if envelope is None:
            envelope = request_envelope(self._ids, method, params or {})
        self.sent += send_frame(self.sock, envelope)

    def recv(self):
        message, size = recv_frame_sized(self.sock, DEFAULT_MAX_FRAME_BYTES)
        self.received += size
        return message

    def call(self, method, params=None):
        self.send(method, params)
        return self.recv()

    def close(self):
        self.sock.close()


@pytest.fixture
def make_planner(tiny_vlm, small_cluster, parallel2, cost_model):
    def factory():
        searcher = ScheduleSearcher(small_cluster, parallel2, cost_model,
                                    budget_evaluations=8, seed=0)
        return OnlinePlanner(tiny_vlm, small_cluster, parallel2, cost_model,
                             searcher=searcher)
    return factory


@pytest.fixture
def shard(tmp_path, make_planner):
    """One served job over a 2-entry memory cache and a disk tier."""
    tier = DiskCacheTier(str(tmp_path / "tier"))
    service = PlanService(num_workers=0,
                          plan_cache=PlanCache(capacity=2, disk_tier=tier))
    service.register_job("vlm", planner=make_planner())
    server = PlanServiceServer(service, uds=str(tmp_path / "plan.sock"),
                               result_timeout_s=60.0)
    yield service, server, tier
    server.close(timeout=10.0)
    service.close()


def step_once(service):
    """Process the one request the server has queued or is about to."""
    deadline = time.monotonic() + 30
    while not service.step():
        assert time.monotonic() < deadline, "submit never queued"
        time.sleep(0.002)


def submit_params(batch, digest=None):
    params = {"job": "vlm", "signature_version": SIGNATURE_VERSION}
    params.update(batch_to_dict(batch))
    if digest is not None:
        params["digest"] = digest
    return params


def submit(client, service, batch):
    """A submit without a digest: queued, planned by one step."""
    client.send("submit", submit_params(batch))
    step_once(service)
    reply = client.recv()
    assert reply["ok"], reply
    return reply["result"]["report"]


def scrape(client):
    reply = client.call("metrics")
    assert reply["ok"], reply
    return reply["result"]["metrics"]


def samples(snapshot, types=("counter",)):
    """Every series of the given metric types, keyed by name and
    labels."""
    return {
        (metric["name"], tuple(sorted(series["labels"].items()))):
            series["value"]
        for metric in snapshot["metrics"] if metric["type"] in types
        for series in metric["series"]
    }


def test_scripted_drive_pins_every_moved_series(shard, make_planner):
    service, server, tier = shard
    a, b, c = (controlled_batch(counts)
               for counts in ([4, 8], [8, 8], [8, 9]))
    main = CountingClient(server)
    assert main.call("ping")["ok"]

    # Memory tier holds two plans; every plan is written through to disk.
    report = submit(main, service, a)
    assert report["outcome"] == "search"
    digest = make_planner().prepare(a).signature.digest
    main.send("submit", submit_params(a, digest))  # digest-first hit
    assert main.recv()["result"]["report"]["cache_tier"] == "memory"
    assert submit(main, service, b)["outcome"] == "search"
    assert submit(main, service, c)["outcome"] == "search"  # evicts a
    # a is on disk only: a disk hit, promoted, evicting b.
    assert submit(main, service, a)["cache_tier"] == "disk"
    # b is on disk, but its read fails: a counted error, then a miss
    # and a fresh search; the store evicts a.
    tier.fault_plan = FaultPlan(specs=(
        FaultSpec(site="disk.get", kind="error", max_events=1),))
    assert submit(main, service, b)["outcome"] == "search"
    tier.fault_plan = None
    reply = main.call("frobnicate")
    assert reply["error"]["kind"] == "unsupported"

    # A second connection breaks the protocol and is dropped.
    rogue = CountingClient(server)
    bad = request_envelope(1, "ping")
    bad["version"] = 999
    rogue.send(None, envelope=bad)
    assert rogue.recv()["error"]["kind"] == "protocol"
    rogue.close()

    # A third queues a request (a memory hit on b) and vanishes before
    # it is served: the reply cannot be written.
    quitter = CountingClient(server)
    quitter.send("submit", submit_params(b))
    deadline = time.monotonic() + 30
    while service.queue_depth == 0:
        assert time.monotonic() < deadline, "submit never queued"
        time.sleep(0.002)
    quitter.close()
    step_once(service)

    # Drop the job's whole context from both tiers, then plan c cold.
    context = service.job("vlm").planner.context_digest()
    assert service.cache.invalidate_contexts({context}) == 2 + 3
    report = submit(main, service, c)
    assert report["outcome"] == "search"

    deadline = time.monotonic() + 30
    while (server.metrics.counter("repro_rpc_connections_closed_total")
           .value() < 2):
        assert time.monotonic() < deadline, "connections never reaped"
        time.sleep(0.005)
    received = main.received  # before the scrape's own reply
    snapshot = scrape(main)

    moved = {
        key: value
        for key, value in samples(snapshot, ("counter", "gauge")).items()
        if key[0].startswith(("repro_cache_", "repro_disk_tier_",
                              "repro_rpc_"))
        and key[0] != "repro_rpc_uptime_seconds"
    }
    assert moved == {
        ("repro_cache_hits_total", (("tier", "memory"),)): 2,
        ("repro_cache_hits_total", (("tier", "disk"),)): 1,
        ("repro_cache_lookups_total", (("result", "hit"),)): 3,
        ("repro_cache_lookups_total", (("result", "miss"),)): 5,
        ("repro_cache_evictions_total", ()): 3,
        ("repro_cache_stores_total", ()): 5,
        ("repro_cache_invalidations_total", ()): 2,
        ("repro_cache_entries", ()): 1,
        ("repro_disk_tier_ops_total", (("op", "hits"),)): 1,
        # a, b, c, the faulted b, and c after the invalidation.
        ("repro_disk_tier_ops_total", (("op", "misses"),)): 5,
        ("repro_disk_tier_ops_total", (("op", "stores"),)): 5,
        ("repro_disk_tier_ops_total", (("op", "invalidations"),)): 3,
        ("repro_disk_tier_ops_total", (("op", "errors"),)): 1,
        ("repro_disk_tier_entries", ()): 1,
        ("repro_rpc_connections_opened_total", ()): 3,
        ("repro_rpc_connections_closed_total", ()): 2,
        ("repro_rpc_connections_active", ()): 1,
        ("repro_rpc_disconnects_mid_request_total", ()): 1,
        # main: 10 including this scrape; quitter: 1; rogue: none.
        ("repro_rpc_requests_total", ()): 11,
        ("repro_rpc_errors_total", ()): 1,
        ("repro_rpc_protocol_errors_total", ()): 1,
        ("repro_rpc_frames_total", (("direction", "in"),)): 12,
        ("repro_rpc_frames_total", (("direction", "out"),)): 10,
        ("repro_rpc_bytes_total", (("direction", "in"),)):
            main.sent + rogue.sent + quitter.sent,
        ("repro_rpc_bytes_total", (("direction", "out"),)):
            received + rogue.received,
    }

    # A second scrape changes only what its own request and the first
    # scrape's reply add: one request, one frame each way, their bytes.
    sent = main.sent
    again = samples(scrape(main))
    first = samples(snapshot)
    changed = {key for key in first if again[key] != first[key]}
    assert changed == {
        ("repro_rpc_requests_total", ()),
        ("repro_rpc_frames_total", (("direction", "in"),)),
        ("repro_rpc_frames_total", (("direction", "out"),)),
        ("repro_rpc_bytes_total", (("direction", "in"),)),
        ("repro_rpc_bytes_total", (("direction", "out"),)),
    }
    assert set(again) == set(first)
    assert again[("repro_rpc_requests_total", ())] == 12
    assert again[("repro_rpc_bytes_total", (("direction", "in"),))] \
        == first[("repro_rpc_bytes_total", (("direction", "in"),))] \
        + main.sent - sent
    main.close()
