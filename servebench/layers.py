"""Per-layer spans for the traced run, recorded from the benchmark's side.

The program is not instrumented: :func:`install_client` (load process)
and :func:`install_server` (shard process, see ``traced_shard.py``)
replace each layer's public entry point with a timing wrapper.  A timed
(untraced) run never imports this module.

Every span carries its parent span's id, so a layer's time can be split
by the call that caused it (candidate generation inside a search vs
inside a replay, say).  Work that belongs to one request but runs in the
request's own thread — client prepare/replay/decode, server prepare and
encode — is also summed per request.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """In-memory span store; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self.requests: List[Dict[str, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore: List[tuple] = []

    # -- request scope (one request in flight per thread) --------------------

    def begin_request(self) -> None:
        request: Dict[str, float] = {}
        with self._lock:
            self.requests.append(request)
        self._local.request = request

    def end_request(self) -> Optional[Dict[str, float]]:
        request = getattr(self._local, "request", None)
        self._local.request = None
        return request

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               parent: int = 0, span_id: Optional[int] = None,
               **extra) -> None:
        span = {"name": name, "start": start, "end": end,
                "id": span_id or next(self._ids), "parent": parent,
                **extra}
        with self._lock:
            self.spans.append(span)
        request = getattr(self._local, "request", None)
        if request is not None:
            request[name] = request.get(name, 0.0) + (end - start)

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr``; :meth:`restore` puts the original back."""
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             extra: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``;
        ``extra(result)`` adds fields read from the call's result."""
        original = getattr(owner, attr)
        recorder = self

        def timed(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else 0
            span_id = next(recorder._ids)
            stack.append(span_id)
            start = time.monotonic()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                fields = extra(result) if (extra and result is not None) \
                    else {}
                recorder.record(name, start, end, parent, span_id=span_id,
                                **fields)

        self.patch(owner, attr, timed)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {"spans": list(self.spans),
                       "requests": [r for r in self.requests if r]}
        with open(path, "w") as f:
            json.dump(payload, f)


def _frame_recorder(recorder: SpanRecorder, recv_frame_sized):
    """Client ``recv_frame`` that also records the frame's wire size."""

    def recv_frame(sock, *args, **kwargs):
        sized = recv_frame_sized(sock, *args, **kwargs)
        if sized is None:
            return None
        stack = recorder._stack()
        now = time.monotonic()
        recorder.record("rpc.recv", now, now,
                        parent=stack[-1] if stack else 0, bytes=sized[1])
        return sized[0]

    return recv_frame


def install_client(recorder: SpanRecorder) -> None:
    """Spans around the load process's calls into the client layers."""
    from repro.core import searcher as searcher_module
    from repro.core.planner import OnlinePlanner
    from repro.core.searcher import ScheduleSearcher
    from repro.service import client as client_module
    from repro.service.rpc import recv_frame_sized

    recorder.wrap(OnlinePlanner, "prepare", "client.prepare")
    recorder.wrap(ScheduleSearcher, "replay", "client.replay")
    recorder.wrap(client_module, "signature_from_dict", "codec.decode")
    recorder.wrap(client_module, "plan_from_dict", "codec.decode")
    recorder.wrap(
        client_module.PlanServiceClient, "submit_raw", "rpc.submit",
        extra=lambda r: {"server_s": (r.get("report") or {})
                         .get("latency_s")})
    recorder.wrap(client_module, "send_frame", "rpc.send",
                  extra=lambda n: {"bytes": n})
    recorder.patch(client_module, "recv_frame",
                   _frame_recorder(recorder, recv_frame_sized))
    recorder.wrap(searcher_module, "simulate_pipeline", "sim.simulate")


def _memopt_fields(report) -> Dict:
    return {"nodes": sum(report.per_rank_nodes),
            "certified": sum(1 for ok in report.per_rank_optimal if ok),
            "ranks": len(report.per_rank_optimal),
            "improvement_ms": report.improvement_ms}


def install_server(recorder: SpanRecorder) -> None:
    """Spans around the shard's calls into the service and planner
    layers.  Must run before the shard builds its service."""
    from repro.core import memopt as memopt_module
    from repro.core import searcher as searcher_module
    from repro.core.plancache import PlanCache
    from repro.core.planner import OnlinePlanner
    from repro.core.searcher import ScheduleSearcher
    from repro.service import rpc as rpc_module
    from repro.service.service import PlanService

    submit = PlanService.submit

    def submit_in_scope(*args, **kwargs):
        # The connection thread that submits also encodes the response,
        # so the request scope spans both.
        recorder.begin_request()
        return submit(*args, **kwargs)

    recorder.patch(PlanService, "submit", submit_in_scope)
    recorder.wrap(OnlinePlanner, "prepare", "service.prepare")
    recorder.wrap(PlanCache, "lookup", "cache.lookup")
    recorder.wrap(PlanCache, "store", "cache.store")
    for codec in ("encode_plan", "plan_to_dict", "signature_to_dict"):
        recorder.wrap(rpc_module, codec, "codec.encode")
    recorder.wrap(ScheduleSearcher, "search", "search",
                  extra=lambda r: {"memo_hits": r.memo_hits,
                                   "evaluations": r.evaluations})
    recorder.wrap(ScheduleSearcher, "replay", "service.replay")
    recorder.wrap(searcher_module, "generate_candidates", "candidates")
    recorder.wrap(searcher_module, "EvalCore", "evalcore.build")
    recorder.wrap(searcher_module, "mcts_reorder", "ordering.mcts",
                  extra=lambda r: {"evaluations": r.evaluations})
    recorder.wrap(searcher_module, "optimize_memory", "memopt",
                  extra=_memopt_fields)
    recorder.wrap(memopt_module, "greedy_warm_start", "memopt.greedy")
    recorder.wrap(memopt_module, "solve_mc_interval", "memopt.bnb")
    recorder.wrap(searcher_module, "simulate_pipeline", "sim.simulate")
