"""The program-under-test side of a benchmark run.

``run.py`` generates the inputs and starts this module in a fresh
process (so its peak RSS is not set by input generation):

    PYTHONPATH=src python3 perfbench/workloads.py INPUT OUTPUT \\
        --workload NAME --seconds S --trace 0|1

It loads the generated documents, drives one workload through the public
API of ``repro.service`` / ``repro.cluster``, checks every served digest
(``check.py``) and writes the run's figures to OUTPUT as JSON.  Every
workload repeats whole passes of one fixed operation sequence until its
measured time reaches ``--seconds``, so the figures that should repeat
exactly (digest sizes, failure share) do not depend on run length.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from itertools import product
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import Corpus, check_digest, size_limit  # noqa: E402
from layers import ALL_PHASES, Tracer, install  # noqa: E402
from run import DEADLINE_SHARE, child_timeout  # noqa: E402

from repro.cluster import LocalCluster, canonical_fingerprint, \
    default_worker_config  # noqa: E402
from repro.core.registry import solve  # noqa: E402
from repro.index.inverted_index import Document  # noqa: E402
from repro.index.query import TopicQuery  # noqa: E402
from repro.service import DigestRequest, DiversificationService, \
    ServiceConfig  # noqa: E402


class Run:
    """Figures accumulated over the measured phases of one run."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.setups: List[float] = []
        self.latencies: List[float] = []
        self.read_wall = 0.0
        self.read_cpu = 0.0
        self.sizes = 0
        self.ingest_docs = 0
        self.ingest_wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.passes = 0
        # serving path -> largest share of its size limit a digest used
        self.bound_use: Dict[str, float] = {}

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def setup_started(self) -> float:
        """Enter a set-up; returns its start time.  The previous pass's
        garbage is collected first, so that collection does not land in
        this set-up's timings."""
        gc.collect()
        self.phase("setup")
        return perf_counter()

    @property
    def measured(self) -> float:
        return self.read_wall + self.ingest_wall

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


class Modes:
    """Charges each unit of a workload — one set-up and the phases
    measured on it — to a run.

    Untraced, every unit goes to one run.  Traced, units alternate
    between an untraced and a traced run in the order A B B A A B B A …,
    and the layer wrappers are installed for the traced units only: the
    machine's drift over the run falls on both runs alike, and the
    untraced units run the program unwrapped."""

    def __init__(self, tracer: Optional[Tracer], deadline: float):
        self.tracer = tracer
        self.plain = Run()
        self.traced = None if tracer is None else Run(tracer)
        self.runs = [run for run in (self.plain, self.traced)
                     if run is not None]
        # a unit whose content differs from the others' is run once in
        # each mode, so the two runs see the same inputs
        self.repeats = len(self.runs)
        self.deadline = deadline
        self.units = 0

    def unit(self) -> Run:
        if self.traced is None:
            return self.plain
        traced = (self.units + 1) // 2 % 2 == 1
        self.units += 1
        if traced and not self.tracer.installed:
            install(self.tracer)
        elif not traced and self.tracer.installed:
            self.tracer.uninstall()
        return self.traced if traced else self.plain

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    @property
    def measured(self) -> float:
        return sum(run.measured for run in self.runs)

    @property
    def read_wall(self) -> float:
        return sum(run.read_wall for run in self.runs)

    @property
    def balanced(self) -> bool:
        """Both runs have had as many units (A B B A ends even)."""
        return self.units % 2 == 0

    @property
    def late(self) -> bool:
        """Past the deadline: stop adding work beyond the time budget, so
        that a slow program still reports what it measured."""
        return perf_counter() > self.deadline


class Checker:
    """Runs the independent checks on each served response."""

    def __init__(self, data: Dict[str, Any]):
        self.corpus = Corpus(data["docs"], data["labels"], data.get("kept"))

    def __call__(self, run: Run, response: Any, fed: int,
                 labels: Tuple[str, ...], lam: float,
                 view_bound: Tuple[float, float] = (1.0, 0.0)) -> None:
        """Count one digest operation of ``run``; ``fed`` is how many
        documents the program has been given.  A view-served digest is
        held to the view path's drift bound ``view_bound`` = (ratio,
        slack) over the size cap (``check.py``), any other digest to the
        cap itself."""
        run.attempted += 1
        if response.status != "ok" or response.result is None:
            run.fail(f"digest {labels} returned {response.status}: "
                     f"{response.reason}")
            return
        result = response.result
        expected = self.corpus.expected(fed, labels, lam)
        path = "view" if getattr(response, "view", False) else "solve"
        limit = size_limit(expected, *(view_bound if path == "view"
                                       else (1.0, 0.0)))
        if limit:
            use = len(result.solution.posts) / limit
            shape = path + ("/one-label" if len(labels) == 1
                            else "/many-label")
            run.bound_use[shape] = max(run.bound_use.get(shape, 0.0), use)
        error = check_digest(expected, result.instance.posts,
                             result.solution.posts, limit)
        if error is not None:
            run.fail(f"digest {labels} over {fed} docs: {error}")


def documents(data: Dict[str, Any]) -> List[Document]:
    return [Document(doc_id, timestamp, text)
            for doc_id, timestamp, text in data["docs"]]


def queries(data: Dict[str, Any]) -> List[TopicQuery]:
    return [TopicQuery(label, keywords) for label, keywords in data["queries"]]


class charged:
    """Adds the wall and process CPU time of a block to the read phase."""

    def __init__(self, run: Run):
        self.run = run

    def __enter__(self) -> None:
        self.wall, self.cpu = perf_counter(), process_time()

    def __exit__(self, *exc: Any) -> None:
        self.run.read_wall += perf_counter() - self.wall
        self.run.read_cpu += process_time() - self.cpu


async def timed_digest(run: Run, target: Any, request: DigestRequest) -> Any:
    """One closed-loop digest; records its latency and size."""
    started = perf_counter()
    response = await target.digest(request)
    run.latencies.append(perf_counter() - started)
    if response.result is not None:
        run.sizes += response.result.size
    return response


# -- cold_digest -------------------------------------------------------------

async def cold_digest(data: Dict[str, Any], modes: Modes, seconds: float,
                      min_digests: int) -> None:
    """Full-label digests at distinct lambdas over a fixed day corpus.

    Timestamps are whole seconds, so every lambda in [300, 301) yields
    the same cover and the same cost, while no two requests share a
    cache key or a view."""
    params = data["params"]
    docs = documents(data)
    topics = queries(data)
    labels = tuple(sorted(label for label, _ in data["queries"]))
    check = Checker(data)
    segment = seconds / params["setups"]
    issued = 0
    for setup in range(params["setups"]):
        run = modes.unit()
        started = run.setup_started()
        service = DiversificationService(
            topics, ServiceConfig(dedup_distance=None)
        )
        ingest_started = perf_counter()
        service.ingest(docs)
        run.ingest_wall += perf_counter() - ingest_started
        run.ingest_docs += len(docs)
        run.attempted += 1
        run.setups.append(perf_counter() - started)
        run.phase("read")
        until = (setup + 1) * segment
        last = setup == params["setups"] - 1
        while modes.read_wall < until or (
                last and issued < min_digests and not modes.late):
            issued += 1
            lam = params["lam"] + issued / 2 ** 20
            with charged(run):
                response = await timed_digest(
                    run, service, DigestRequest(lam=lam)
                )
            check(run, response, len(docs), labels, lam)
        service.close()
        run.passes += 1


# -- live_firehose -----------------------------------------------------------

async def live_firehose(data: Dict[str, Any], modes: Modes,
                        seconds: float) -> None:
    """Replay each stream in chunks, with view reads after each chunk.

    One pass replays every stream into a fresh service (each stream once
    per run: twice when traced); whole passes repeat until the measured
    time reaches ``seconds``."""
    params = data["params"]
    topics = queries(data)
    keys = [tuple(key) for key in params["keys"]]
    lam = params["lam"]
    head = params["setup_docs"]
    chunk = params["chunk"]
    streams = [(documents(stream), Checker(stream))
               for stream in data["streams"]]
    passes = 0
    while passes == 0 or (modes.measured < seconds and not modes.late):
        for (docs, check), _ in product(streams, range(modes.repeats)):
            run = modes.unit()
            started = run.setup_started()
            service = DiversificationService(topics)
            bound = (service.config.view_rebuild_ratio,
                     service.config.view_rebuild_slack)
            service.ingest(docs[:head])
            run.attempted += 1
            seeded = []
            for key in keys:
                seeded.append(await service.digest(
                    DigestRequest(lam=lam, labels=key)
                ))
            run.setups.append(perf_counter() - started)
            for key, response in zip(keys, seeded):
                check(run, response, head, key, lam, bound)
            for start in range(head, len(docs), chunk):
                batch = docs[start:start + chunk]
                run.phase("ingest")
                ingest_started = perf_counter()
                service.ingest(batch)
                run.ingest_wall += perf_counter() - ingest_started
                run.ingest_docs += len(batch)
                run.attempted += 1
                run.phase("read")
                fed = start + len(batch)
                for key in keys:
                    with charged(run):
                        response = await timed_digest(
                            run, service, DigestRequest(lam=lam, labels=key)
                        )
                    check(run, response, fed, key, lam, bound)
            service.close()
        passes += 1
        for run in modes.runs:
            run.passes += 1


# -- cluster_merge -----------------------------------------------------------

def digest_hash(result: Any) -> str:
    return hashlib.sha256(
        canonical_fingerprint(result).encode("utf-8")
    ).hexdigest()


async def cluster_merge(data: Dict[str, Any], modes: Modes, seconds: float,
                        min_setups: int) -> List[Dict[str, int]]:
    """Ingest rounds into a 3-worker cluster, each followed by a burst of
    full-label digests from two closed-loop clients.  Returns, per round,
    how often each digest hash was served (checked against a
    single-process service afterwards)."""
    params = data["params"]
    docs = documents(data)
    topics = queries(data)
    labels = tuple(sorted(label for label, _ in data["queries"]))
    lam = params["lam"]
    head = params["setup_posts"]
    step = (len(docs) - head) // params["rounds"]
    request = DigestRequest(lam=lam)
    check = Checker(data)
    served: List[Dict[str, int]] = [{} for _ in range(params["rounds"] + 1)]
    checked: Dict[str, bool] = {}

    def record(run: Run, round_index: int, response: Any, fed: int) -> None:
        if response.result is None:
            check(run, response, fed, labels, lam)
            return
        digest = digest_hash(response.result)
        tally = served[round_index]
        tally[digest] = tally.get(digest, 0) + 1
        if digest in checked:
            # byte-identical to a digest already checked: same verdict
            run.attempted += 1
            if not checked[digest]:
                run.fail(f"round {round_index}: repeated wrong digest")
            return
        before = run.failed
        check(run, response, fed, labels, lam)
        checked[digest] = run.failed == before

    async def client(run: Run, cluster: LocalCluster) -> List[Any]:
        return [await timed_digest(run, cluster.router, request)
                for _ in range(params["digests_per_client"])]

    passes = 0
    while passes == 0 or (
            (modes.measured < seconds or passes < min_setups
             or not modes.balanced) and not modes.late):
        run = modes.unit()
        started = run.setup_started()
        cluster = LocalCluster(topics, nodes=params["nodes"])
        await cluster.start()
        try:
            routed = await cluster.router.ingest(docs[:head])
            response = await cluster.router.digest(request)
            run.setups.append(perf_counter() - started)
            run.attempted += 1
            if routed["failed"]:
                run.fail(f"setup ingest failed on {routed['failed']}")
            record(run, 0, response, head)
            for round_index in range(1, params["rounds"] + 1):
                fed = head + round_index * step
                batch = docs[fed - step:fed]
                run.phase("ingest")
                ingest_started = perf_counter()
                routed = await cluster.router.ingest(batch)
                run.ingest_wall += perf_counter() - ingest_started
                run.ingest_docs += len(batch)
                run.attempted += 1
                if routed["failed"]:
                    run.fail(f"round {round_index} ingest failed on "
                             f"{routed['failed']}")
                run.phase("read")
                # the clients overlap, so the read phase is charged the
                # burst's wall time once, not the sum of their latencies
                with charged(run):
                    bursts = await asyncio.gather(
                        *(client(run, cluster)
                          for _ in range(params["clients"]))
                    )
                for responses in bursts:
                    for response in responses:
                        record(run, round_index, response, fed)
        finally:
            await cluster.stop()
        passes += 1
        run.passes += 1
    return served


async def cluster_identity(data: Dict[str, Any], run: Run,
                           served: List[Dict[str, int]]) -> None:
    """Exact merge promises byte identity with one process: replay the
    same rounds into a single service and compare every served digest."""
    params = data["params"]
    docs = documents(data)
    head = params["setup_posts"]
    step = (len(docs) - head) // params["rounds"]
    reference = DiversificationService(
        queries(data), default_worker_config(views=False)
    )
    reference.ingest(docs[:head])
    request = DigestRequest(lam=params["lam"])
    for round_index, tally in enumerate(served):
        if round_index:
            fed = head + round_index * step
            reference.ingest(docs[fed - step:fed])
        expected = digest_hash((await reference.digest(request)).result)
        for digest, count in tally.items():
            if digest != expected:
                for _ in range(count):
                    run.fail(f"round {round_index}: cluster digest differs "
                             "from the single-process digest")
    reference.close()


# -- figures -----------------------------------------------------------------

def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile: ``pct`` = 90 over 100 samples is the 90th
    smallest, leaving exactly ten samples beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def end_to_end(run: Run, tail: float, rss_mb: float) -> Dict[str, Any]:
    digests = len(run.latencies)
    figures = {
        "setup_s": (statistics.median(run.setups), "s"),
        "digest_p50_ms": (statistics.median(run.latencies) * 1e3, "ms"),
        "digest_tail_ms": (percentile(run.latencies, tail) * 1e3, "ms"),
        "digests_per_s": (digests / run.read_wall, "1/s"),
        "digest_cpu_ms": (run.read_cpu / digests * 1e3, "ms"),
        "ingest_docs_per_s": (run.ingest_docs / run.ingest_wall, "docs/s"),
        "digest_size_mean": (run.sizes / digests, "posts"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in figures.items()}


def per_layer(tracer: Tracer, run: Run, untraced_p50: float,
              root: str) -> Dict[str, Any]:
    """Per-layer figures of the traced half (see README for each)."""
    digests = len(run.latencies)
    ms = 1e3 / digests

    inclusive, calls = tracer.inclusive, tracer.calls

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    ingested = tracer.counter("ingested_docs", ALL_PHASES)
    dedup_docs = tracer.counter("dedup_docs", ALL_PHASES)
    service_digests = tracer.counter("service_digests")
    legs = calls("cluster.leg")
    leg_ms = per(inclusive("cluster.leg"), legs) * 1e3
    worker_ms = per(inclusive("service.digest"), calls("service.digest")) \
        * 1e3 if legs else 0.0
    view_sizes = sum(e[1] * e[2] for e in tracer.view_covers.values())
    fresh_sizes = sum(solve("greedy_sc", e[0]).size * e[2]
                      for e in tracer.view_covers.values())
    client_wall = sum(run.latencies)
    traced_p50 = statistics.median(run.latencies)
    figures = {
        "core.solve_ms": (inclusive("core.solve") * ms, "ms"),
        "core.family_build_ms": (inclusive("core.family_build") * ms, "ms"),
        "setcover.greedy_ms": (inclusive("setcover.greedy") * ms, "ms"),
        "engine.probe_ms": (inclusive("engine.probe") * ms, "ms"),
        "core.solves_per_digest": (calls("core.solve") / digests, "count"),
        "index.dedup_us_per_doc": (
            per(inclusive("index.dedup", ALL_PHASES), dedup_docs) * 1e6,
            "us"),
        "index.match_us_per_doc": (
            per(inclusive("index.match", ALL_PHASES),
                calls("index.match", ALL_PHASES)) * 1e6, "us"),
        "index.duplicates_dropped": (
            tracer.counter("ingest_duplicates", ALL_PHASES) / run.passes,
            "count"),
        "index.dedup_docs_per_digest": (
            tracer.counter("dedup_docs") / digests, "count"),
        "pipeline.self_ms": (
            tracer.self_time("pipeline.digest") * ms, "ms"),
        "service.self_ms": (
            (inclusive("service.digest") - inclusive("pipeline.digest")
             - inclusive("incremental.read")) * ms, "ms"),
        "service.executor_wait_ms": (
            (tracer.counter("solve_started")
             - tracer.counter("handoff_started")) * ms, "ms"),
        "service.cache_hit_ratio": (
            per(tracer.counter("cache_hits"), service_digests), "ratio"),
        "service.view_hit_ratio": (
            per(tracer.counter("view_hits"), service_digests), "ratio"),
        "service.ingest_self_us_per_doc": (
            per(tracer.self_time("service.ingest", ALL_PHASES),
                ingested) * 1e6, "us"),
        "incremental.apply_us_per_doc": (
            per(inclusive("incremental.apply", ALL_PHASES), ingested) * 1e6,
            "us"),
        "incremental.read_ms": (inclusive("incremental.read") * ms, "ms"),
        "incremental.rebuilds": (
            tracer.counter("rebuilds") / run.passes, "count"),
        "incremental.size_ratio": (per(view_sizes, fresh_sizes), "ratio"),
        "cluster.leg_ms": (leg_ms, "ms"),
        "cluster.worker_ms": (worker_ms, "ms"),
        "cluster.wire_ms": (leg_ms - worker_ms, "ms"),
        "cluster.frame_bytes_per_digest": (
            tracer.counter("frame_bytes") / digests, "bytes"),
        "cluster.merge_solve_ms": (
            inclusive("cluster.merge_solve") * ms, "ms"),
        "cluster.router_self_ms": (
            tracer.self_time("cluster.router") * ms, "ms"),
        "cluster.seam_posts": (
            per(tracer.counter("seam_posts"),
                tracer.counter("router_digests")), "posts"),
        "cluster.legs_per_digest": (legs / digests, "count"),
        "cluster.merge_solves_per_digest": (
            calls("cluster.merge_solve") / digests, "count"),
        "cluster.ingest_bytes_per_doc": (
            per(tracer.counter("frame_bytes", ("setup", "ingest")),
                tracer.counter("routed_docs", ("setup", "ingest"))),
            "bytes"),
        "trace.residual_pct": (
            (client_wall - inclusive(root)) / client_wall * 100, "%"),
        "trace.overhead_pct": (
            (traced_p50 / untraced_p50 - 1.0) * 100, "%"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in figures.items()}


async def execute(data: Dict[str, Any], workload: str, seconds: float,
                  trace: bool, deadline: float) -> Dict[str, Any]:
    params = data["params"]
    report: Dict[str, Any] = {}
    tracer = Tracer() if trace else None
    modes = Modes(tracer, perf_counter() + deadline)
    served = None
    try:
        if workload == "cold_digest":
            await cold_digest(data, modes, seconds,
                              0 if trace else params["min_digests"])
        elif workload == "live_firehose":
            await live_firehose(data, modes, seconds)
        else:
            served = await cluster_merge(data, modes, seconds,
                                         2 if trace else params["min_setups"])
    finally:
        modes.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if served is not None:
        await cluster_identity(data, modes.plain, served)
    if tracer is None:
        metrics = end_to_end(modes.plain, params["tail"], rss_mb)
    else:
        root = "cluster.router" if workload == "cluster_merge" \
            else "service.digest"
        metrics = per_layer(tracer, modes.traced,
                            statistics.median(modes.plain.latencies), root)
        report["spans"] = {
            f"{phase}:{name}": dict(zip(("calls", "inclusive_s", "self_s"),
                                        entry))
            for (phase, name), entry in sorted(tracer.spans.items())
        }
        report["counters"] = dict(sorted(tracer.counters.items()))
    runs = modes.runs
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    report.update({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": [e for run in runs for e in run.errors],
        "passes": [run.passes for run in runs],
        "digests": [len(run.latencies) for run in runs],
        "bound_use": {
            path: max(run.bound_use.get(path, 0.0) for run in runs)
            for path in sorted({p for run in runs for p in run.bound_use})
        },
        "machine": machine(),
    })
    return report


def machine() -> Dict[str, Any]:
    """The fingerprint every figure is read against."""
    import platform

    import numpy

    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input")
    parser.add_argument("output")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(args.input) as handle:
        data = json.load(handle)
    deadline = DEADLINE_SHARE * child_timeout(args.seconds)
    result = asyncio.run(execute(data, args.workload, args.seconds,
                                 bool(args.trace), deadline))
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
