"""Spans at each layer boundary, recorded from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(see :func:`_entry_points`) for the length of a traced run and restores
them afterwards; the program itself is never edited.  Each span carries
the id of the span that was current when it started and the id of the
benchmark request it belongs to, both through ``contextvars`` -- so the
chain survives ``await`` and ``asyncio.to_thread`` hops.  Work that a
thread pool runs for a caller starts with no current span; it is matched
to its caller by time (:func:`attribute`).

Self time is attributed along the blocking path of each benchmark
request: every instant of the request is charged to the innermost spans
active at that instant, split evenly when several run at once (two pool
workers, say).  The charges of one request therefore add up to its
duration; what stays on the request's own span -- time inside no layer
-- is reported as unaccounted.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "layerbench_span", default=None
)
_REQUEST: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "layerbench_request", default=None
)

ROOT_LAYER = "bench"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    layer: str
    t0: float
    t1: float
    thread: int
    parent: int | None
    request: int | None
    nbytes: int = 0


def _snapshot_bytes(result) -> int:
    return sum(region.nbytes for region in result.values())


def _entry_points():
    """``(owner, attribute, span name, layer, size-of-result)`` to wrap."""
    from repro.kernels import cache as kernel_cache
    from repro.kernels.executor import ProgramExecutor
    from repro.pipeline import plancache
    from repro.pipeline.engine import DecodePipeline
    from repro.service.scheduler import CoalescingScheduler
    from repro.service.server import BlobService
    from repro.service.store import BlobStore

    points = [
        (ProgramExecutor, "execute", "kernels.execute", "kernels", None),
        (plancache, "plan_decode", "planner.plan_decode", "planner", None),
        (plancache.PlanCache, "get", "pipeline.plancache", "pipeline", None),
        (DecodePipeline, "decode_batch", "pipeline.decode_batch", "pipeline", None),
        (DecodePipeline, "encode_batch", "pipeline.encode_batch", "pipeline", None),
        (BlobService, "get", "service.get", "service", None),
        (BlobService, "degraded_get", "service.degraded_get", "service", None),
        (CoalescingScheduler, "submit", "service.submit", "service", None),
        (BlobStore, "read", "store.read", "store", None),
        (BlobStore, "snapshot_blocks", "store.snapshot", "store", _snapshot_bytes),
    ]
    for lookup in (
        "matrix_program",
        "chain_program",
        "row_program",
        "plan_program",
        "encode_program",
    ):
        points.append((kernel_cache.ProgramCache, lookup, "kernels.lookup", "kernels", None))
    # the lowering functions run only inside a cache miss
    for lower in (
        "lower_matrix",
        "lower_matrix_chain",
        "lower_linear_combination",
        "lower_plan",
        "lower_encode",
    ):
        points.append((kernel_cache, lower, "kernels.lower", "kernels", None))
    return points


class Tracer:
    """In-memory span recorder; :meth:`installed` wraps the entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def _record(self, sid, name, layer, t0, parent, request, nbytes=0) -> None:
        self.spans.append(
            Span(
                sid,
                name,
                layer,
                t0,
                time.perf_counter(),
                threading.get_ident(),
                parent,
                request,
                nbytes,
            )
        )

    def _wrap(self, fn, name: str, layer: str, size):
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sid = next(tracer._ids)
                parent = _SPAN.get()
                token = _SPAN.set(sid)
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    _SPAN.reset(token)
                    tracer._record(sid, name, layer, t0, parent, _REQUEST.get())

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = _SPAN.get()
            token = _SPAN.set(sid)
            t0 = time.perf_counter()
            nbytes = 0
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    nbytes = size(result)
                return result
            finally:
                _SPAN.reset(token)
                tracer._record(sid, name, layer, t0, parent, _REQUEST.get(), nbytes)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, layer, size in _entry_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, layer, size))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, name: str):
        """One benchmark request: a root span with a fresh request id."""
        sid = next(self._ids)
        request = next(self._requests)
        span_token = _SPAN.set(sid)
        request_token = _REQUEST.set(request)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            _SPAN.reset(span_token)
            _REQUEST.reset(request_token)
            self._record(sid, name, ROOT_LAYER, t0, None, request)


def root_or_null(tracer: Tracer | None, name: str):
    return tracer.root(name) if tracer is not None else contextlib.nullcontext()


@dataclass
class Attribution:
    """Blocking-path self time per layer, over every root span."""

    layers: dict[str, float]
    root_seconds: float
    roots: list[Span]
    #: per root: (scheduler wait, pipeline call that ended it) pairs
    served_by: dict[int, list[tuple[Span, Span]]]

    @property
    def unaccounted_frac(self) -> float:
        if self.root_seconds <= 0:
            return 0.0
        return self.layers.get(ROOT_LAYER, 0.0) / self.root_seconds


#: Pipeline calls run one after another per caller thread, so the
#: enclosing call is among the last few that started before the span.
_MATCH_DEPTH = 8


def _enclosing(candidates: list[Span], starts: list[float], span: Span) -> Span | None:
    """The latest-starting candidate whose interval holds ``span``'s start."""
    i = bisect.bisect_right(starts, span.t0) - 1
    for c in candidates[max(0, i - _MATCH_DEPTH) : i + 1][::-1]:
        if c.t1 >= span.t0 and c.thread != span.thread:
            return c
    return None


def _sweep(root: Span, members: list[Span], parent_of: dict[int, int]) -> dict[str, float]:
    """Charge each instant of ``root`` to the innermost active spans."""
    events = sorted(
        {root.t0, root.t1}
        | {min(max(s.t0, root.t0), root.t1) for s in members}
        | {min(max(s.t1, root.t0), root.t1) for s in members}
    )
    charged: dict[str, float] = defaultdict(float)
    spans = [root] + members
    for lo, hi in zip(events, events[1:]):
        if hi <= lo:
            continue
        active = [s for s in spans if s.t0 <= lo and s.t1 >= hi]
        busy_parents = {parent_of.get(s.sid) for s in active}
        leaves = [s for s in active if s.sid not in busy_parents]
        share = (hi - lo) / len(leaves)
        for s in leaves:
            charged[s.layer] += share
    return charged


def attribute(spans: list[Span]) -> Attribution:
    """Per-layer blocking-path self time (see the module docstring).

    Edges come from the ``contextvars`` parent, except two kinds that
    are matched by time: pool work (a span with no parent on a worker
    thread) belongs to the pipeline call that encloses it, and a
    pipeline call made from a scheduler flush serves every queued
    request whose wait it ends, so each such request blocks on it.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    roots: list[Span] = []
    floating: list[Span] = []
    shared: list[Span] = []
    for s in spans:
        if s.layer == ROOT_LAYER:
            roots.append(s)
            continue
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None:
            floating.append(s)
        elif s.layer == "pipeline" and parent.layer == "service":
            shared.append(s)
        else:
            children[parent.sid].append(s)

    floating_ids = {s.sid for s in floating}
    anchored = sorted(
        (s for s in spans if s.layer == "pipeline" and s.sid not in floating_ids),
        key=lambda s: s.t0,
    )
    starts = [s.t0 for s in anchored]
    for s in floating:
        caller = _enclosing(anchored, starts, s)
        if caller is not None:
            children[caller.sid].append(s)
    shared.sort(key=lambda s: s.t1)
    shared_ends = [s.t1 for s in shared]

    layers: dict[str, float] = defaultdict(float)
    served_by: dict[int, list[tuple[Span, Span]]] = {}
    root_seconds = 0.0
    for root in roots:
        members: list[Span] = []
        parent_of: dict[int, int] = {}
        served: list[tuple[Span, Span]] = []
        stack = [root]
        while stack:
            node = stack.pop()
            kids = list(children.get(node.sid, ()))
            if node.name == "service.submit":
                # the flush whose decode ended last inside this wait
                i = bisect.bisect_right(shared_ends, node.t1) - 1
                if i >= 0 and shared[i].t0 >= node.t0:
                    kids.append(shared[i])
                    served.append((node, shared[i]))
            for kid in kids:
                parent_of[kid.sid] = node.sid
                members.append(kid)
                stack.append(kid)
        served_by[root.sid] = served
        for layer, seconds in _sweep(root, members, parent_of).items():
            layers[layer] += seconds
        root_seconds += root.t1 - root.t0
    return Attribution(dict(layers), root_seconds, roots, served_by)
