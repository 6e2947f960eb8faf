"""Served-plan benchmark: a 1-shard planning fleet driven through its client.

Run from the repository root::

    python3 servebench/run.py --workload vlm-cold --seed 1 --seconds 20 --trace 0

It starts ``repro serve`` as a subprocess (``fleet.launcher.PlanFleet``,
near-miss warm starts off, so a plan is a pure function of signature,
context and seed; fresh cache directory per set-up) and drives it from
this process with one ``fleet.client.FleetClient`` per load thread, in a
closed loop: each client sends its next request when the previous one
has been answered.  Inputs come from the workload's seeded generator
(``--seed``); the shard only ever sees the generated batches.

Workloads (sizes and the reason for each are in ``spec.json``):

* ``vlm-cold``   — 1 client, every batch distinct: cold searches, bound
  by the memory ILP.
* ``t2v-search`` — 2 clients send each batch of one distinct stream in
  lockstep: one ordering-bound search plus one coalesced or hit rider
  per signature.
* ``replay-hit`` — 2 clients cycle batches searched during set-up:
  memory-tier hits only.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` serves the workload's fixed ``trace_requests``
twice, first untraced and then with the span wrappers of ``layers.py``
installed in both processes, and prints the per-layer metrics.  Every
served plan is checked; a failed check makes the exit code 1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (host and run
metadata, sample counts, served signature digests) is written under
``.servebench/results/``; all scratch files live under ``.servebench/``
and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".servebench")
SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "spec.json")
TRACED_SHARD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "traced_shard.py")

#: Bound on one client request (a VLM-M cold search takes a few seconds).
REQUEST_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "plans_per_s": "plans/s",
    "plan_latency_p50_s": "s",
    "plan_latency_tail_s": "s",
    "sim_iteration_ms": "ms",
    "setup_s": "s",
    "server_peak_rss_mb": "MB",
}


def load_spec() -> Dict:
    with open(SPEC_PATH) as f:
        return json.load(f)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and how many samples lie above it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# -- inputs --------------------------------------------------------------------


class RequestStream:
    """Batch ``i`` of the workload's seeded generator, built on first use
    and kept, so every client sees the same batch for the same index."""

    def __init__(self, arch, microbatches: int, seed: int) -> None:
        from repro.cli import _workload

        self._source = _workload(arch, microbatches, seed)
        self._batches: List = []
        self._lock = threading.Lock()

    def batch(self, index: int):
        with self._lock:
            while len(self._batches) <= index:
                self._batches.append(self._source.next_batch())
            return self._batches[index]


def make_planner(workload: Dict, planner_seed: int):
    """A client's local planner mirror, in the shard's planning context."""
    from repro.cli import _setup

    return _setup(workload["model"], workload["budget"], planner_seed,
                  plan_cache=True, cache_size=256)


def request_digests(workload: Dict, seed: int, count: int,
                    planner_seed: int = 0) -> List[str]:
    """Signature digests of the first ``count`` requests of a seed."""
    arch, _cluster, _parallel, planner = make_planner(workload, planner_seed)
    stream = RequestStream(arch, workload["microbatches"], seed)
    return [planner.prepare(stream.batch(i)).signature.digest
            for i in range(count)]


# -- one set-up ------------------------------------------------------------------


@dataclass
class Served:
    """One client request and what came back."""

    client: int
    index: int
    timed: bool
    latency_s: float = 0.0
    digest: str = ""
    total_ms: float = 0.0
    report_ms: Optional[float] = None
    exceeded: List[int] = field(default_factory=list)
    queue_wait_s: float = 0.0
    outcome: str = ""
    bubble_ratio: float = 0.0
    peak_memory_share: float = 0.0
    problem: str = ""


class Harness:
    """One set-up: a 1-shard fleet on ``cache_dir`` (a fresh one when
    ``None``), one client mirror per load thread, and (replay-hit) the
    replayed set served once, so its plans are in the memory tier.

    With ``spans_path`` the shard runs under ``traced_shard.py`` and
    writes its spans there when it stops.
    """

    def __init__(self, workload: Dict, planner_seed: int,
                 stream: RequestStream, tmp_root: str,
                 cache_dir: Optional[str] = None,
                 spans_path: Optional[str] = None,
                 recorder=None) -> None:
        from repro.fleet.client import FleetClient
        from repro.fleet.launcher import FleetConfig, PlanFleet

        self.workload = workload
        self.stream = stream
        self.recorder = recorder
        self.served: List[Served] = []
        self._lock = threading.Lock()
        self.clients: List = []
        run_dir = tempfile.mkdtemp(prefix="setup-", dir=tmp_root)
        config = FleetConfig(
            models=[workload["model"]], shards=1,
            cache_dir=cache_dir or os.path.join(run_dir, "cache"),
            runtime_dir=os.path.join(run_dir, "run"),
            transport="tcp", budget=workload["budget"], seed=planner_seed,
            queue=64, cache_size=256, near_miss=False,
        )
        if spans_path is None:
            self.fleet = PlanFleet(config)
        else:
            self.fleet = _traced_fleet_type()(config, spans_path)
        self.fleet.start(timeout_s=60.0)
        try:
            for replica in range(workload["clients"]):
                planner = make_planner(workload, planner_seed)[3]
                client = FleetClient(self.fleet.addresses,
                                     workload["model"], replica, [],
                                     planner=planner,
                                     timeout_s=REQUEST_TIMEOUT_S)
                self.clients.append(client)
                client.ping_all()
            if workload["mode"] == "replay":
                for index in range(workload["replay_set"]):
                    self.serve(0, index, timed=False)
        except BaseException:
            self.close()
            raise

    def serve(self, client_index: int, index: int, timed: bool) -> Served:
        """Plan batch ``index`` through client ``client_index``."""
        served = Served(client=client_index, index=index, timed=timed)
        batch = self.stream.batch(index)
        if self.recorder is not None:
            self.recorder.begin_request()
        start = time.perf_counter()
        try:
            result, report = self.clients[client_index].plan_batch(batch)
        except Exception as exc:  # noqa: BLE001 — counted as failed
            served.latency_s = time.perf_counter() - start
            served.problem = f"{type(exc).__name__}: {exc}"
        else:
            served.latency_s = time.perf_counter() - start
            predicted = result.schedule.predicted
            served.digest = result.signature or ""
            served.total_ms = result.total_ms
            served.report_ms = report.get("total_ms")
            served.exceeded = list(predicted.memory_exceeded)
            served.queue_wait_s = report.get("queue_wait_s") or 0.0
            served.outcome = report.get("outcome") or ""
            served.bubble_ratio = predicted.bubble_ratio
            served.peak_memory_share = (
                max(predicted.peak_memory_bytes)
                / result.schedule.graph.memory_limit_bytes)
        finally:
            if self.recorder is not None:
                self.recorder.end_request()
        with self._lock:
            self.served.append(served)
        return served

    def counters(self) -> Dict[str, float]:
        """The shard's service and cache counters, read over its stats RPC."""
        from repro.fleet.client import fleet_stats

        stats = fleet_stats(self.fleet.addresses)
        service = stats.get("service") or {}
        cache = stats.get("cache") or {}
        out = {name: float(service.get(name, 0))
               for name in ("searches", "completed", "coalesced")}
        out["cache_hits"] = float(cache.get("hits", 0))
        out["cache_lookups"] = float(cache.get("hits", 0)
                                     + cache.get("near_hits", 0)
                                     + cache.get("misses", 0))
        return out

    def peak_rss_mb(self) -> float:
        """The shard's ``VmHWM``, with its pid taken from the ping RPC."""
        pid = self.clients[0].ping_all()[self.fleet.addresses[0]]["pid"]
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for shard pid {pid}")

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.fleet.stop()


def _traced_fleet_type():
    from repro.fleet.launcher import PlanFleet

    class TracedFleet(PlanFleet):
        """A fleet whose shard runs ``repro serve`` under the
        benchmark's server-side span wrappers."""

        def __init__(self, config, spans_path: str) -> None:
            super().__init__(config)
            self.spans_path = spans_path

        def _command(self, shard):
            command = super()._command(shard)
            if command[1:3] != ["-m", "repro"]:
                raise RuntimeError(f"unexpected shard command {command}")
            return [command[0], TRACED_SHARD, "--spans-out",
                    self.spans_path, *command[3:]]

    return TracedFleet


# -- load ----------------------------------------------------------------------


def drive(harness: Harness, seconds: Optional[float],
          limit: Optional[int] = None) -> float:
    """Closed loop over the workload's clients until ``seconds`` pass (no
    time bound when ``None``) or ``limit`` requests were sent; in-flight
    requests finish.  Returns the wall time from release to the last
    answer."""
    workload = harness.workload
    clients = workload["clients"]
    mode = workload["mode"]
    gate = threading.Event()
    lock = threading.Lock()
    state = {"next": 0, "index": 0, "stop": False}
    clock = {"deadline": math.inf}
    finished: List[float] = []

    def done(sent: int) -> bool:
        return (time.perf_counter() >= clock["deadline"]
                or (limit is not None and sent >= limit))

    def take() -> Optional[int]:
        with lock:
            if done(state["next"]):
                return None
            state["next"] += 1
            return state["next"] - 1

    def decide() -> None:
        # Runs once per lockstep round, while every client waits.
        state["stop"] = done(state["next"] * clients)
        state["index"] = state["next"]
        state["next"] += 1

    barrier = threading.Barrier(clients, action=decide)

    def client_loop(c: int) -> None:
        gate.wait()
        try:
            step = 0
            while True:
                if mode == "lockstep":
                    barrier.wait()
                    if state["stop"]:
                        return
                    index = state["index"]
                elif mode == "distinct":
                    index = take()
                    if index is None:
                        return
                else:
                    # Each client cycles its own share of the replayed
                    # set, so two clients never coalesce on one plan.
                    if take() is None:
                        return
                    share = workload["replay_set"] // clients
                    index = c + clients * (step % share)
                harness.serve(c, index, timed=True)
                step += 1
        finally:
            with lock:
                finished.append(time.perf_counter())

    threads = [threading.Thread(target=client_loop, args=(c,),
                                name=f"load-{c}", daemon=True)
               for c in range(clients)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    if seconds is not None:
        clock["deadline"] = start + seconds
    gate.set()
    bound = (seconds or 0.0) + (limit or 2) * REQUEST_TIMEOUT_S
    for thread in threads:
        thread.join(timeout=bound)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    return max(finished) - start


def check(served: List[Served]) -> None:
    """Mark every served plan that fails a check.

    A plan must replay on the client to the makespan the shard reported,
    fit the memory cap in simulation, and share one makespan with every
    other plan of its signature in the run.
    """
    makespans: Dict[str, float] = {}
    for s in served:
        if s.problem:
            continue
        if s.report_ms != s.total_ms:
            s.problem = (f"client replay {s.total_ms!r} ms != shard "
                         f"report {s.report_ms!r} ms")
        elif s.exceeded:
            s.problem = f"memory cap exceeded on ranks {s.exceeded}"
        else:
            first = makespans.setdefault(s.digest, s.total_ms)
            if first != s.total_ms:
                s.problem = (f"signature {s.digest[:12]} served at "
                             f"{first!r} and {s.total_ms!r} ms")


def searches_problems(searches: float, seen_before: set,
                      window: List[Served]) -> List[str]:
    """The shard must search each new signature of the window once."""
    new = {s.digest for s in window if s.digest} - seen_before
    if int(searches) != len(new):
        return [f"shard ran {int(searches)} searches for {len(new)} new "
                f"signatures"]
    return []


def fill_quality_prefix(harness: Harness, prefix: int) -> List[float]:
    """Makespans of requests ``0..prefix-1``, serving (untimed) any the
    timed loop did not reach, so ``sim_iteration_ms`` covers a fixed set
    of inputs however fast the run was."""
    by_index = {s.index: s for s in harness.served if not s.problem}
    for index in range(prefix):
        if index not in by_index:
            by_index[index] = harness.serve(0, index, timed=False)
    return [by_index[i].total_ms for i in range(prefix)]


# -- runs ----------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str, int]]  # name -> (value, unit, n)
    served: List[Served]
    problems: List[str]
    details: Dict


def timed_run(workload: Dict, spec: Dict, stream: RequestStream,
              tmp_root: str, seconds: float, imports_s: float,
              smoke: bool) -> Outcome:
    setups = 1 if smoke else spec["setups_per_run"]
    limit = workload["smoke_requests"] if smoke else None
    # One cache directory per run: on replay-hit the first set-up
    # searches the replayed set, later ones restart the fleet and fill
    # the memory tier from the disk tier.
    cache_dir = os.path.join(tmp_root, "cache")
    setup_times = []
    harness = None
    for _ in range(setups):
        if harness is not None:
            harness.close()
        start = time.perf_counter()
        harness = Harness(workload, spec["planner_seed"], stream, tmp_root,
                          cache_dir=cache_dir)
        setup_times.append(time.perf_counter() - start)
    try:
        seen_before = {s.digest for s in harness.served}
        before = harness.counters()
        wall = drive(harness, seconds, limit)
        after = harness.counters()
        window = [s for s in harness.served if s.timed]
        problems = searches_problems(
            after["searches"] - before["searches"], seen_before, window)
        prefix = workload["quality_prefix"]
        if smoke and workload["mode"] != "replay":
            prefix = 1
        quality = fill_quality_prefix(harness, prefix)
        rss = harness.peak_rss_mb()
    finally:
        harness.close()
    check(harness.served)
    ok = [s for s in window if not s.problem]
    latencies = [s.latency_s for s in ok]
    tail_q = workload["tail_percentile"]
    tail, beyond = percentile(latencies, tail_q)
    metrics = {
        "plans_per_s": (len(ok) / wall if wall > 0 else 0.0, len(ok)),
        "plan_latency_p50_s": (median(latencies), len(latencies)),
        "plan_latency_tail_s": (tail, len(latencies)),
        "sim_iteration_ms": (statistics.fmean(quality), len(quality)),
        "setup_s": (imports_s + median(setup_times), len(setup_times)),
        "server_peak_rss_mb": (rss, 1),
    }
    details = {
        "wall_s": wall,
        "tail_percentile": tail_q,
        "tail_samples_beyond": beyond,
        "imports_s": imports_s,
        "setup_samples_s": setup_times,
        "outcomes": Counter(s.outcome for s in window),
        "window_counters": {k: after[k] - before[k] for k in after},
    }
    return Outcome(
        metrics={name: (value, END_TO_END_UNITS[name], n)
                 for name, (value, n) in metrics.items()},
        served=harness.served, problems=problems, details=details)


def traced_run(workload: Dict, spec: Dict, stream: RequestStream,
               tmp_root: str, smoke: bool) -> Outcome:
    from servebench.layers import SpanRecorder, install_client

    count = workload["smoke_requests"] if smoke else \
        workload["trace_requests"]
    # Untraced pass over the same requests: the base of the overhead.
    harness = Harness(workload, spec["planner_seed"], stream, tmp_root)
    try:
        untraced_wall = drive(harness, None, count)
    finally:
        harness.close()
    check(harness.served)
    untraced_ok = sum(1 for s in harness.served if s.timed and not s.problem)

    recorder = SpanRecorder()
    spans_path = os.path.join(tmp_root, "shard-spans.json")
    install_client(recorder)
    try:
        harness = Harness(workload, spec["planner_seed"], stream, tmp_root,
                          spans_path=spans_path, recorder=recorder)
        try:
            wall = drive(harness, None, count)
            counters = harness.counters()
        finally:
            harness.close()
    finally:
        recorder.restore()
    with open(spans_path) as f:
        shard = json.load(f)
    check(harness.served)
    problems = searches_problems(counters["searches"], set(),
                                 harness.served)
    ok = [s for s in harness.served if not s.problem]
    timed_ok = sum(1 for s in ok if s.timed)
    overhead = 1.0 - (timed_ok / wall) / (untraced_ok / untraced_wall)
    metrics, details = layer_metrics(workload, recorder.spans,
                                     recorder.requests, shard, ok, counters)
    metrics["tracing_overhead_share"] = (overhead, 2)
    details["untraced_wall_s"] = untraced_wall
    details["traced_wall_s"] = wall
    return Outcome(
        metrics={name: (value, spec["per_layer"][name]["unit"], n)
                 for name, (value, n) in metrics.items()},
        served=harness.served, problems=problems, details=details)


class _Spans:
    """One process's spans, indexed for parent/child queries."""

    def __init__(self, spans: List[Dict]) -> None:
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}

    def named(self, name: str, parent: Optional[str] = None) -> List[Dict]:
        return [s for s in self.spans if s["name"] == name
                and (parent is None
                     or self.by_id.get(s["parent"], {}).get("name")
                     == parent)]

    def durations(self, name: str, parent: Optional[str] = None):
        return [s["end"] - s["start"] for s in self.named(name, parent)]

    def child_sums(self, name: str, child: str) -> List[float]:
        """Per ``name`` span, the summed duration of its ``child`` spans."""
        sums = {s["id"]: 0.0 for s in self.named(name)}
        for s in self.spans:
            if s["name"] == child and s["parent"] in sums:
                sums[s["parent"]] += s["end"] - s["start"]
        return list(sums.values())


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload: Dict, client_spans: List[Dict],
                  client_requests: List[Dict], shard: Dict,
                  served: List[Served], counters: Dict):
    """Per-layer metrics from both processes' spans and the shard stats.

    Times are medians per call; counts are totals over the traced
    requests; shares are ratios of totals.
    """
    client = _Spans(client_spans)
    server = _Spans(shard["spans"])
    server_requests = shard["requests"]
    m: Dict[str, Tuple[float, int]] = {}

    def med(name: str, values) -> None:
        values = list(values)
        m[name] = (median(values), len(values))

    med("client.prepare_s", client.durations("client.prepare"))
    med("client.replay_s", client.durations("client.replay"))
    med("codec.decode_s", (r["codec.decode"] for r in client_requests
                           if "codec.decode" in r))
    med("rpc.overhead_s", (s["end"] - s["start"] - s["server_s"]
                           for s in client.named("rpc.submit")
                           if s.get("server_s") is not None))
    med("rpc.request_bytes", (s["bytes"] for s in
                              client.named("rpc.send", "rpc.submit")))
    med("rpc.response_bytes", (s["bytes"] for s in
                               client.named("rpc.recv", "rpc.submit")))
    med("service.prepare_s", server.durations("service.prepare"))
    waits = [s.queue_wait_s for s in served]
    med("service.queue_wait_s", waits)
    m["service.queue_wait_tail_s"] = (
        percentile(waits, workload["tail_percentile"])[0], len(waits))
    m["service.searches"] = (counters["searches"], 1)
    m["service.coalesced_share"] = (
        _share(counters["coalesced"], counters["completed"]), 1)
    med("cache.lookup_s", server.durations("cache.lookup"))
    med("cache.store_s", server.durations("cache.store"))
    m["cache.hit_share"] = (
        _share(counters["cache_hits"], counters["cache_lookups"]), 1)
    med("codec.encode_s", (r["codec.encode"] for r in server_requests
                           if "codec.encode" in r))
    searches = server.named("search")
    mcts = server.named("ordering.mcts")
    memopt = server.named("memopt")
    med("search.total_s", server.durations("search"))
    med("search.candidates_s", server.durations("candidates", "search"))
    med("evalcore.build_s", server.durations("evalcore.build"))
    med("ordering.mcts_s", server.durations("ordering.mcts"))
    m["ordering.evaluations"] = (
        float(sum(s["evaluations"] for s in mcts)), len(mcts))
    med("ordering.rollouts_per_s",
        (s["evaluations"] / (s["end"] - s["start"]) for s in mcts
         if s["end"] > s["start"]))
    m["ordering.memo_hit_share"] = (
        _share(sum(s["memo_hits"] for s in searches),
               sum(s["evaluations"] for s in searches)), len(searches))
    med("memopt.total_s", server.durations("memopt"))
    med("memopt.greedy_s", server.child_sums("memopt", "memopt.greedy"))
    med("memopt.bnb_s", server.child_sums("memopt", "memopt.bnb"))
    m["memopt.bnb_nodes"] = (float(sum(s["nodes"] for s in memopt)),
                             len(memopt))
    m["memopt.certified_share"] = (
        _share(sum(s["certified"] for s in memopt),
               sum(s["ranks"] for s in memopt)), len(memopt))
    med("memopt.improvement_ms", (s["improvement_ms"] for s in memopt))
    simulations = (client.durations("sim.simulate")
                   + server.durations("sim.simulate"))
    med("sim.simulate_s", simulations)
    m["sim.calls_per_plan"] = (_share(len(simulations), len(served)),
                               len(served))
    med("plan.bubble_ratio", (s.bubble_ratio for s in served))
    med("plan.peak_memory_share", (s.peak_memory_share for s in served))
    search_s = m["search.total_s"][0]
    details = {
        # How much of the median search each phase accounts for.
        "attribution": {
            "memopt_share_of_search": _share(m["memopt.total_s"][0],
                                             search_s),
            "mcts_share_of_search": _share(m["ordering.mcts_s"][0],
                                           search_s),
        },
        "counters": counters,
        "outcomes": Counter(s.outcome for s in served),
    }
    return m, details


# -- reporting -------------------------------------------------------------------


def git_commit(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, workload: Dict, served: List[Served]) -> Dict:
    import numpy

    signatures = {}
    for s in served:
        if s.digest:
            signatures.setdefault(s.index, s.digest)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "model": workload["model"],
        "microbatches": workload["microbatches"],
        "budget": workload["budget"],
        "clients": workload["clients"],
        # Request index -> signature digest: a later run with the same
        # seed must show the same digest for every index it also served.
        "signatures": [[i, signatures[i]] for i in sorted(signatures)],
    }


def report(args, workload: Dict, outcome: Outcome) -> Dict:
    attempted = len(outcome.served)
    failed = sum(1 for s in outcome.served if s.problem)
    correct = failed == 0 and not outcome.problems
    print(f"servebench {args.workload} seed {args.seed} "
          f"trace {args.trace}: {workload['clients']} client(s), closed "
          f"loop, {workload['model']} x {workload['microbatches']} "
          f"microbatches, budget {workload['budget']}")
    for name, (value, unit, n) in outcome.metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<8} (n={n})")
    print(f"  {'failed_share':<26} "
          f"{failed / attempted if attempted else 0.0:>14.6g} "
          f"{'ratio':<8} ({failed} of {attempted} attempted)")
    for name, value in outcome.details.items():
        if name in ("tail_percentile", "tail_samples_beyond",
                    "attribution"):
            print(f"  {name}: {value}")
    for problem in outcome.problems + [f"request {s.index} (client "
                                       f"{s.client}): {s.problem}"
                                       for s in outcome.served
                                       if s.problem][:20]:
        print(f"  CHECK FAILED: {problem}")
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit, "samples": n}
                    for name, (value, unit, n) in outcome.metrics.items()},
        "problems": outcome.problems,
        "details": outcome.details,
        "metadata": metadata(args, workload, outcome.served),
        "served": [asdict(s) for s in outcome.served],
    }
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"  record: {os.path.relpath(path, ROOT)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n)
                    in outcome.metrics.items()},
    }


# -- entry point -----------------------------------------------------------------


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed gives the same "
                             "requests")
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed window of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few requests and one set-up per run, for "
                             "the benchmark's own tests")
    return parser.parse_args(argv)


def _interrupted(_signum, _frame) -> None:
    raise KeyboardInterrupt


def main(argv=None) -> int:
    started = time.perf_counter()
    spec = load_spec()
    args = parse_args(argv, sorted(spec["workloads"]))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"servebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    signal.signal(signal.SIGTERM, _interrupted)
    workload = spec["workloads"][args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        import repro.fleet.client  # noqa: F401
        import repro.fleet.launcher  # noqa: F401

        arch = make_planner(workload, spec["planner_seed"])[0]
        stream = RequestStream(arch, workload["microbatches"], args.seed)
        imports_s = time.perf_counter() - started
        if args.trace:
            outcome = traced_run(workload, spec, stream, tmp_root,
                                 args.smoke)
        else:
            outcome = timed_run(workload, spec, stream, tmp_root,
                                args.seconds, imports_s, args.smoke)
        result = report(args, workload, outcome)
    except KeyboardInterrupt:
        print("servebench: interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
