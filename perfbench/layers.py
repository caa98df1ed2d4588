"""Per-layer timing for the traced run.

:func:`install` wraps the public functions of each layer, from these
benchmark files only — nothing under ``src/`` changes.  Every wrapper
records a span: name, start, end and the span that caused it.  The
caller is tracked in a :class:`contextvars.ContextVar`, so spans nest
correctly across ``await`` and across the tasks a router spawns for
its scatter legs; executor threads start without a parent.  A span's
self time is its duration minus the union of its children's intervals
(concurrent legs overlap, so their durations are not simply summed).

Spans are aggregated in memory by (phase, name); the benchmark sets
the phase (``setup``, ``ingest`` or ``read``) between steps.  The
wrappers can be installed and uninstalled any number of times; the
aggregates carry over.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
from importlib import import_module
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[Optional[_Span]]" = \
    contextvars.ContextVar("perfbench_span", default=None)


class _Span:
    __slots__ = ("name", "start", "parent", "children")

    def __init__(self, name: str, start: float, parent: Optional["_Span"]):
        self.name = name
        self.start = start
        self.parent = parent
        self.children: List[Tuple[float, float]] = []


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    """In-memory span aggregates plus named counters."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.active = False
        # (phase, name) -> [count, outermost inclusive seconds, self seconds]
        self.spans: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        self.counters: Dict[str, float] = defaultdict(float)
        self.t0 = perf_counter()
        # view-served covers: (id(instance), size) -> [instance, size, reads]
        self.view_covers: Dict[Tuple[int, int], List[Any]] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Tuple[_Span, contextvars.Token]:
        span = _Span(name, perf_counter(), _CURRENT.get())
        return span, _CURRENT.set(span)

    def _close(self, span: _Span, token: contextvars.Token) -> None:
        end = perf_counter()
        _CURRENT.reset(token)
        duration = end - span.start
        parent = span.parent
        if parent is not None:
            parent.children.append((span.start, end))
        entry = self.spans[(self.phase, span.name)]
        entry[0] += 1
        ancestor = parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            entry[1] += duration
        entry[2] += duration - _union(span.children)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.active:
            self.counters[f"{self.phase}:{name}"] += amount

    def note_view(self, result: Any) -> None:
        if self.phase != "read":
            return
        key = (id(result.instance), result.size)
        entry = self.view_covers.get(key)
        if entry is None:
            self.view_covers[key] = [result.instance, result.size, 1]
        else:
            entry[2] += 1

    def parent_name(self) -> Optional[str]:
        span = _CURRENT.get()
        return None if span is None else span.name

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: Any,
             hook: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a timed twin recording spans named
        ``name`` (or ``name(args)`` when it is callable).  ``hook(args,
        result, started)`` runs after the call, while the span's parent is
        still current."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def timed(*args, **kwargs):
                if not tracer.active:
                    return await original(*args, **kwargs)
                span, token = tracer._open(
                    name(args) if callable(name) else name
                )
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if hook is not None:
                    hook(args, result, span.start)
                return result
        else:
            @functools.wraps(original)
            def timed(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                span, token = tracer._open(
                    name(args) if callable(name) else name
                )
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                if hook is not None:
                    hook(args, result, span.start)
                return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, timed)

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def _sum(self, name: str, phases, field: int) -> float:
        return sum(self.spans[(phase, name)][field] for phase in phases
                   if (phase, name) in self.spans)

    def calls(self, name: str, phases=("read",)) -> float:
        return self._sum(name, phases, 0)

    def inclusive(self, name: str, phases=("read",)) -> float:
        """Seconds in ``name``, not counting calls nested in ``name``."""
        return self._sum(name, phases, 1)

    def self_time(self, name: str, phases=("read",)) -> float:
        """Seconds in ``name`` outside its wrapped children."""
        return self._sum(name, phases, 2)

    def counter(self, name: str, phases=("read",)) -> float:
        return sum(self.counters.get(f"{phase}:{name}", 0.0)
                   for phase in phases)


ALL_PHASES = ("setup", "ingest", "read")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions (see README, "Per-layer")."""
    # import_module, not ``import a.b as c``: packages re-export some
    # functions under their module's name (repro.core.greedy_sc)
    router = import_module("repro.cluster.router")
    worker = import_module("repro.cluster.worker")
    fastpath = import_module("repro.core.fastpath")
    greedy_sc = import_module("repro.core.greedy_sc")
    auto = import_module("repro.engine.auto")
    store = import_module("repro.incremental.store")
    pipeline = import_module("repro.pipeline")
    from repro.cluster.protocol import OP_DIGEST, OP_INGEST
    from repro.incremental import CoverView, PostStore, ViewRegistry
    from repro.index.query import LabelMatcher
    from repro.index.simhash import SimHashIndex
    from repro.service.coalescer import MicroBatcher
    from repro.service.service import DiversificationService

    # core / setcover / engine: the solve as the pipeline calls it, and
    # as the router calls it for the merged instance — two names, so
    # the router's re-solve is told apart from the workers' solves
    tracer.wrap(pipeline, "solve", "core.solve")
    tracer.wrap(router, "solve", "cluster.merge_solve")
    tracer.wrap(greedy_sc, "build_setcover_family", "core.family_build")
    tracer.wrap(fastpath, "build_family_encoded", "core.family_build")
    tracer.wrap(greedy_sc, "greedy_set_cover", "setcover.greedy")
    tracer.wrap(auto, "choose_engine", "engine.probe")

    # index: SimHash dedup on the batch path (deduplicate) and on the
    # ingest path (fingerprint, kept-set query, add), and label matching
    def deduplicated(args, result, started):
        kept, dropped = result
        tracer.count("dedup_docs", len(kept) + len(dropped))

    def queried(args, result, started):
        if result and tracer.parent_name() != "index.dedup":
            tracer.count("ingest_duplicates")

    tracer.wrap(SimHashIndex, "deduplicate", "index.dedup", deduplicated)
    tracer.wrap(store, "simhash", "index.dedup",
                lambda args, result, started: tracer.count("dedup_docs"))
    tracer.wrap(SimHashIndex, "query", "index.dedup", queried)
    tracer.wrap(SimHashIndex, "add", "index.dedup")
    tracer.wrap(LabelMatcher, "match", "index.match")

    # pipeline and service.  Executor wait = sum(solve starts) -
    # sum(hand-off starts): how hand-offs pair with solves does not
    # change the sum
    tracer.wrap(pipeline.DiversificationPipeline, "digest",
                "pipeline.digest",
                lambda args, result, started: tracer.count(
                    "solve_started", started - tracer.t0))
    tracer.wrap(MicroBatcher, "run", "service.handoff",
                lambda args, result, started: tracer.count(
                    "handoff_started", started - tracer.t0))

    def served(args, response, started):
        tracer.count("service_digests")
        if response.cached:
            tracer.count("cache_hits")
        if response.view:
            tracer.count("view_hits")
            tracer.note_view(response.result)

    tracer.wrap(DiversificationService, "digest", "service.digest", served)
    tracer.wrap(DiversificationService, "ingest", "service.ingest",
                lambda args, result, started: tracer.count(
                    "ingested_docs", len(args[1])))

    # incremental: store insert + view deltas, and view reads; a read
    # refused because the view drifted is a rebuild
    def read(args, result, started):
        registry, key = args[0], args[1]
        view = registry.get(key)
        if result is None and view is not None and view.needs_rebuild:
            tracer.count("rebuilds")

    tracer.wrap(PostStore, "add", "incremental.apply")
    for attr in ("apply_insert", "apply_expire", "advance"):
        tracer.wrap(ViewRegistry, attr, "incremental.apply")
    tracer.wrap(ViewRegistry, "read", "incremental.read", read)
    tracer.wrap(CoverView, "materialize", "incremental.read")

    # cluster: router, legs (NodeClient.call(op, ...)), frames
    legs = {OP_DIGEST: "cluster.leg", OP_INGEST: "cluster.ingest_leg"}

    def routed(args, response, started):
        tracer.count("router_digests")
        tracer.count("seam_posts", response.seam_posts)

    def framed(args, result, started):
        tracer.count("frame_bytes", len(result))

    tracer.wrap(router.NodeClient, "call",
                lambda args: legs.get(args[1], "cluster.other_leg"))
    tracer.wrap(router.ClusterRouter, "digest", "cluster.router", routed)
    tracer.wrap(router.ClusterRouter, "ingest", "cluster.router_ingest",
                lambda args, result, started: tracer.count(
                    "routed_docs", result["documents"]))
    tracer.wrap(router, "encode_frame", "cluster.encode", framed)
    tracer.wrap(worker, "encode_frame", "cluster.encode", framed)
    tracer.active = True
