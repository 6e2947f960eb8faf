"""Fleet throughput: plans/sec vs shard count, many client processes.

The scaling claim this measures: schedule search is CPU-bound Python,
so one server process is GIL-bound no matter how many worker threads it
has — a fleet of N single-GIL shards with signature routing should
approach N-way search parallelism whenever distinct signatures are in
flight concurrently, while keeping per-signature behaviour (one search,
coalesced replays, identical makespans) exactly as a single server.

Methodology:

* the paper's fig. 11 regime (VLM-M, dynamic workload) drives every
  fleet size with the *same* batch stream;
* each client process rotates the stream by its index, so at any
  instant the fleet sees several distinct signatures concurrently (the
  scaling headroom) while every signature is still requested by every
  client (the coalescing/replay regime);
* clients are real OS processes (``multiprocessing`` spawn — no shared
  GIL with the shards or each other), synchronised on a barrier so the
  measured wall excludes interpreter start-up and planner-mirror
  construction;
* a fresh cache directory per fleet size keeps search counts identical
  across sizes, making plans/sec comparable and letting the caller
  assert makespan identity per signature across fleet sizes.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.fleet.client import fleet_stats
from repro.fleet.launcher import FleetConfig, PlanFleet

#: The fig. 11 workload regime (mirrors benchmarks/test_service.py).
FIG11_MODEL = "VLM-M"
FIG11_MICROBATCHES = 12
FIG11_WORKLOAD_SEED = 9


def _client_worker(addresses: List[str], model: str, replica: int,
                   batch_payloads: List[Dict], budget: int, seed: int,
                   timeout_s: float, barrier, results) -> None:
    """One benchmark client process: build a local planner mirror, wait
    for the fleet-wide start barrier, drive the (rotated) stream through
    a routed :class:`~repro.fleet.client.FleetClient`."""
    from repro.cli import _setup
    from repro.data.batching import GlobalBatch
    from repro.fleet.client import FleetClient
    from repro.service.rpc import batch_from_dict

    _arch, _cluster, _parallel, planner = _setup(
        model, budget, seed, plan_cache=True, cache_size=256)
    batches: List[GlobalBatch] = [batch_from_dict(p)
                                  for p in batch_payloads]
    rotated = batches[replica % len(batches):] + \
        batches[:replica % len(batches)]
    client = FleetClient(addresses, model, replica, rotated,
                         planner=planner, timeout_s=timeout_s)
    barrier.wait(timeout=300.0)
    t0 = time.monotonic()
    client.run()
    wall = time.monotonic() - t0
    client.close()
    results.put({
        "replica": replica,
        "wall_s": wall,
        "records": [
            {"signature": r.signature, "predicted_ms": r.predicted_ms,
             "outcome": r.outcome, "iteration": r.iteration}
            for r in client.records
        ],
        "routes": client.routes,
        "errors": client.errors,
        "failovers": client.failovers,
    })


def run_fleet_bench(
    shard_counts: Sequence[int] = (1, 2, 4),
    model: str = FIG11_MODEL,
    microbatches: int = FIG11_MICROBATCHES,
    iterations: int = 8,
    clients: int = 6,
    budget: int = 10,
    seed: int = 0,
    workload_seed: int = FIG11_WORKLOAD_SEED,
    workers: int = 2,
    timeout_s: float = 300.0,
    cache_root: Optional[str] = None,
    keep_cache: bool = False,
) -> Dict:
    """Measure plans/sec against fleets of each size in ``shard_counts``.

    Returns a JSON-serialisable dict: per fleet size the wall time,
    plans/sec, merged service stats, per-signature best makespans and
    shard routing spread; plus the workload description and the
    1→max(shards) scaling factor.
    """
    from repro.cli import _setup, _workload
    from repro.service.rpc import batch_to_dict

    arch, _cluster, _parallel, _planner = _setup(
        model, budget, seed, plan_cache=True, cache_size=256)
    stream = _workload(arch, microbatches,
                       workload_seed).batches(iterations)
    batch_payloads = [batch_to_dict(b) for b in stream]

    root = cache_root or tempfile.mkdtemp(prefix="repro-fleet-bench-")
    context = multiprocessing.get_context("spawn")
    sizes: Dict[str, Dict] = {}
    try:
        for count in shard_counts:
            cache_dir = os.path.join(root, f"shards-{count}", "cache")
            runtime_dir = os.path.join(root, f"shards-{count}", "run")
            config = FleetConfig(
                models=[model], shards=count, cache_dir=cache_dir,
                runtime_dir=runtime_dir, budget=budget, seed=seed,
                workers=workers, queue=max(64, clients * iterations),
                cache_size=256,
            )
            with PlanFleet(config) as fleet:
                barrier = context.Barrier(clients + 1)
                results = context.Queue()
                processes = [
                    context.Process(
                        target=_client_worker,
                        args=(fleet.addresses, model, replica,
                              batch_payloads, budget, seed, timeout_s,
                              barrier, results),
                    )
                    for replica in range(clients)
                ]
                for process in processes:
                    process.start()
                barrier.wait(timeout=300.0)
                t0 = time.monotonic()
                payloads = [results.get(timeout=timeout_s)
                            for _ in range(clients)]
                wall = time.monotonic() - t0
                for process in processes:
                    process.join(timeout=30.0)
                stats = fleet_stats(fleet.addresses)
            sizes[str(count)] = _summarize(count, wall, payloads, stats)
    finally:
        if not keep_cache and cache_root is None:
            shutil.rmtree(root, ignore_errors=True)

    counts = [int(c) for c in sizes]
    low, high = str(min(counts)), str(max(counts))
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus = os.cpu_count() or 1
    return {
        "workload": {
            "model": model, "microbatches": microbatches,
            "iterations": iterations, "clients": clients,
            "budget": budget, "seed": seed,
            "workload_seed": workload_seed, "workers": workers,
            # Shard processes scale search throughput only when the
            # machine can actually run them side by side; readers (and
            # the benchmark's own scaling gate) interpret ``scaling``
            # relative to this.
            "cpus": cpus,
        },
        "sizes": sizes,
        "scaling": (sizes[high]["plans_per_s"] / sizes[low]["plans_per_s"]
                    if sizes[low]["plans_per_s"] else 0.0),
    }


def _summarize(count: int, wall: float, payloads: List[Dict],
               stats: Dict) -> Dict:
    records = [r for p in payloads for r in p["records"]]
    errors = [e for p in payloads for e in p["errors"]]
    makespans: Dict[str, float] = {}
    conflicts: List[str] = []
    for record in records:
        digest = record["signature"]
        previous = makespans.setdefault(digest, record["predicted_ms"])
        if previous != record["predicted_ms"]:
            conflicts.append(digest)
    shard_of: Dict[str, set] = {}
    for payload in payloads:
        for digest, address in payload["routes"]:
            shard_of.setdefault(digest, set()).add(address)
    return {
        "shards": count,
        "wall_s": wall,
        "plans": len(records),
        "plans_per_s": len(records) / wall if wall > 0 else 0.0,
        "client_wall_s": [p["wall_s"] for p in payloads],
        "errors": errors,
        "failovers": sum(p["failovers"] for p in payloads),
        "makespans": makespans,
        # Every signature should be served by exactly one shard (the
        # coalescing-locality invariant); >1 only after failovers.
        "max_shards_per_signature": max(
            (len(s) for s in shard_of.values()), default=0),
        "makespan_conflicts": conflicts,
        "service": stats.get("service", {}),
        "cache": stats.get("cache", {}),
    }


def makespan_conflicts(result: Dict) -> List[str]:
    """Digests whose best makespan differs across fleet sizes (or
    within one) — must be empty: search is seeded and deterministic, so
    the shard count can never change a plan."""
    reference: Dict[str, float] = {}
    conflicts: List[str] = []
    for key in sorted(result["sizes"], key=int):
        size = result["sizes"][key]
        conflicts.extend(size["makespan_conflicts"])
        for digest, makespan in size["makespans"].items():
            if digest in reference and reference[digest] != makespan:
                conflicts.append(digest)
            reference.setdefault(digest, makespan)
    return sorted(set(conflicts))


def print_fleet_bench(result: Dict) -> None:
    """Human-readable table (the CLI's output half)."""
    workload = result["workload"]
    print(f"fleet bench: {workload['model']} x "
          f"{workload['iterations']} iterations x "
          f"{workload['clients']} client processes "
          f"(budget {workload['budget']}, "
          f"{workload['microbatches']} microbatches)")
    header = (f"{'shards':>7} {'wall_s':>8} {'plans':>6} "
              f"{'plans/s':>8} {'searches':>9} {'coalesced':>10} "
              f"{'disk':>5} {'errors':>7}")
    print(header)
    for key in sorted(result["sizes"], key=int):
        size = result["sizes"][key]
        service = size["service"]
        print(f"{size['shards']:>7} {size['wall_s']:>8.2f} "
              f"{size['plans']:>6} {size['plans_per_s']:>8.2f} "
              f"{service.get('searches', 0):>9} "
              f"{service.get('coalesced', 0):>10} "
              f"{service.get('disk_hits', 0):>5} "
              f"{len(size['errors']):>7}")
    print(f"scaling (min -> max shards): {result['scaling']:.2f}x")
