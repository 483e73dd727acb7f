"""``serve-disk``: HTTP serving of read-only disk C-trees.

Each of the run's disk indexes, whose pages fit the buffer pool, is
served by its own in-process ``QueryServer`` through a two-worker
``QueryEngine`` with its answer cache.  One load-generator process
(this one) replays, for one index per round, a Zipf-skewed log of
``/query`` and ``/knn`` requests over two keep-alive connections,
each sending its next request when the previous answer arrives.  Two
connections, because a batch with a single task runs inline: only
concurrent requests reach the worker pool.  This is the only path
through ``server`` (protocol, coalescer) and the ``ctree.parallel``
pool, pickling, dedup and cache.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import threading
import time

from repro.ctree import DiskCTree, bulk_load
from repro.obs.metrics import global_registry
from repro.server import QueryServer, ServerConfig
from repro.storage.wal import wal_path

from harness import (
    INSTANCES, K, MIN_FANOUT, OpLog, Result, SpanIndex, build_instances,
    derive_seed, interleave, jsonl_bytes, make_database, make_knn_probes,
    make_subgraph_queries, median_ms, peak_rss_mb, ratio, run_rounds,
    stored_form, traced, work_dir,
)
from layers import query_counters, query_spans
from oracle import Checker

#: |D| of each of the run's indexes (one server each).
DATABASE_SIZE = 300
#: Buffer-pool pages per handle: more than the page file's ~370, so
#: every page stays cached once read.
POOL_PAGES = 512
#: Engine worker processes and client connections.
WORKERS = 2
CONNECTIONS = 2
#: Distinct queries per round; a round replays one index's log.
DISTINCT_SUBGRAPHS = 20
DISTINCT_KNNS = 5
#: Share of requests that repeat an earlier request of the round (cache
#: hits): low enough that both medians fall inside the misses.
REPEAT_SHARE = 0.3
#: Zipf exponent of the repeats over first-appearance rank.
ZIPF_S = 1.0
#: A repeat comes at least this many requests after its first
#: appearance, so the first one has been answered and cached.
REPEAT_GAP = 6

#: Every this many distinct queries, the HTTP answer is also compared
#: with a direct serial call on the same page file.
SERIAL_EVERY = 3

_KINDS = ("http_subgraph", "http_knn")


def request_log(distinct: list, seed: int) -> list[int]:
    """One round's request sequence, as indexes into ``distinct``.

    Every distinct query appears once, in order; per query kind,
    exactly REPEAT_SHARE of the requests are repeats, each of an
    earlier query of its kind drawn with Zipf weights over
    first-appearance rank and placed evenly through the round."""
    rng = random.Random(derive_seed(seed, "log"))
    repeats_after: dict[int, list] = {}
    for kind in ("subgraph", "knn"):
        members = [i for i, q in enumerate(distinct) if q.kind == kind]
        count = round(len(members) * REPEAT_SHARE / (1 - REPEAT_SHARE))
        for n in range(count):
            slot = members[1 + n * (len(members) - 1) // count]
            earlier = [i for i in members if i <= slot - REPEAT_GAP] \
                or members[:1]
            weights = [1.0 / (rank + 1) ** ZIPF_S
                       for rank in range(len(earlier))]
            pick = rng.choices(earlier, weights=weights)[0]
            repeats_after.setdefault(slot, []).append(pick)
    log = []
    for i in range(len(distinct)):
        log.append(i)
        log.extend(repeats_after.get(i, []))
    return log


def _body(query) -> bytes:
    payload = {"query": query.graph.to_dict()}
    if query.kind == "knn":
        payload["k"] = K
    return json.dumps(payload).encode("utf-8")


class LoadGenerator:
    """Closed-loop HTTP clients over keep-alive connections."""

    def __init__(self, port: int, distinct: list, log: list[int],
                 ops: OpLog) -> None:
        self.port = port
        self.distinct = distinct
        self.log = log
        self.bodies = [_body(q) for q in distinct]
        self.ops = ops
        #: distinct index -> first decoded answer
        self.first: dict[int, object] = {}
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def round(self, _round_index: int, ops: OpLog = None) -> None:
        ops = ops or self.ops
        pending = iter(self.log)
        threads = [threading.Thread(target=self._client,
                                    args=(pending, ops))
                   for _ in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def _client(self, pending, ops: OpLog) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            while True:
                with self._lock:
                    index = next(pending, None)
                if index is None:
                    return
                self._send(conn, index, ops)
        finally:
            conn.close()

    def _send(self, conn, index: int, ops: OpLog) -> None:
        query = self.distinct[index]
        kind = f"http_{query.kind}"
        path = "/query" if query.kind == "subgraph" else "/knn"
        start = time.perf_counter()
        try:
            conn.request("POST", path, body=self.bodies[index],
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
            elapsed = time.perf_counter() - start
            status = response.status
        except (OSError, http.client.HTTPException, ValueError) as exc:
            with self._lock:
                ops.record(kind, None, ok=False)
                self.errors.append(f"request {index}: {exc}")
            return
        with self._lock:
            if status != 200:
                ops.record(kind, None, ok=False)
                self.errors.append(f"request {index}: HTTP {status} "
                                   f"{payload}")
                return
            if query.kind == "subgraph":
                answers = sorted(payload["answers"])
            else:
                answers = [tuple(r) for r in payload["results"]]
            ops.record(kind, elapsed, ok=True)
            if index not in self.first:
                self.first[index] = answers
            elif answers != self.first[index]:
                ops.fail(kind)
                self.errors.append(f"request {index}: a repeat answered "
                                   f"differently")


def run(seed: int, seconds: float, tracing: bool) -> Result:
    dbs = [make_database(DATABASE_SIZE, seed, i) for i in range(INSTANCES)]
    graphs = [dict(enumerate(db)) for db in dbs]
    distinct = [interleave(
        make_subgraph_queries(g, DISTINCT_SUBGRAPHS,
                              derive_seed(seed, "sub", i)),
        make_knn_probes(g, DISTINCT_KNNS, derive_seed(seed, "knn", i)))
        for i, g in enumerate(graphs)]
    config = ServerConfig(port=0, workers=WORKERS, cache_pages=POOL_PAGES)
    registry = global_registry()
    ops = OpLog()

    with work_dir() as root:
        def build(instance):
            path = root / f"serve-{instance}.ctp"
            start = time.perf_counter()
            tree = bulk_load(dbs[instance], min_fanout=MIN_FANOUT,
                             seed=derive_seed(seed, "tree", instance))
            loaded = time.perf_counter()
            disk = DiskCTree.create(tree, path, cache_pages=POOL_PAGES)
            created = time.perf_counter()
            server = QueryServer(disk, config)
            server.engine.start()
            engine_up = time.perf_counter()
            handle = server.run_in_thread()
            done = time.perf_counter()
            return {"setup_s": done - start,
                    "ctree.bulk_load_s": loaded - start,
                    "diskindex.create_s": created - loaded,
                    "engine.start_s": engine_up - created,
                    "server.start_s": done - engine_up,
                    "state": (disk, server, handle)}

        instances, setup = build_instances(build)
        loads = [LoadGenerator(handle.port, distinct[i],
                               request_log(distinct[i],
                                           derive_seed(seed, "log", i)), ops)
                 for i, (_disk, _server, handle) in enumerate(instances)]

        def round_fn(index):
            instance = index % INSTANCES
            if index >= INSTANCES:
                # Every round starts with an empty answer cache.
                instances[instance][1].engine.refresh()
            loads[instance].round(index)

        before = registry.snapshot()
        rounds, wall = run_rounds(seconds, round_fn)
        delta = registry.diff(before)

        layers = {name: setup[name] for name in (
            "ctree.bulk_load_s", "diskindex.create_s", "engine.start_s",
            "server.start_s")}
        if tracing:
            layers.update(_counters(delta))
            instance = rounds % INSTANCES
            layers.update(_traced_round(instances[instance][1],
                                        loads[instance], ops))
        for disk, _server, handle in instances:
            handle.stop()
            disk.close()
        paths = [disk.path for disk, _server, _handle in instances]
        index_bytes = sum(os.path.getsize(p) for path in paths
                          for p in (path, wal_path(path))
                          if os.path.exists(p))
        rss = peak_rss_mb()

        check = Checker(derive_seed(seed, "check"))
        for instance, path in enumerate(paths):
            _check_instance(check, path, graphs[instance], loads[instance])

    end_to_end = {
        "setup_s": setup["setup_s"],
        "subgraph_p50_ms": median_ms(ops.latencies["http_subgraph"]),
        "knn_p50_ms": median_ms(ops.latencies["http_knn"]),
        "queries_per_s": sum(map(len, ops.latencies.values())) / wall,
        "space_amp": index_bytes / sum(map(jsonl_bytes, dbs)),
        "peak_rss_mb": rss,
    }
    hits = delta.get("engine.cache_hits", {}).get("value", 0)
    pooled = layers.get("engine.pool_batches", "-")
    print(f"info workload=serve-disk rounds={rounds} wall_s={wall:.3f} "
          f"requests_per_round={len(loads[0].log)} cache_hits={hits} "
          f"pool_batches_traced={pooled}")
    errors = [e for load in loads for e in load.errors] + check.errors
    return Result(ops, errors, end_to_end, layers)


def _serial(direct: DiskCTree, wire, query):
    if query.kind == "subgraph":
        return sorted(direct.subgraph_query(wire)[0])
    return direct.knn_query(wire, K)[0]


def _check_instance(check: Checker, path, graphs: dict,
                    load: LoadGenerator) -> None:
    """HTTP answers against a linear scan and a brute-force scoring, and
    every SERIAL_EVERY-th against a direct serial call on the same page
    file."""
    stored = {gid: stored_form(g) for gid, g in graphs.items()}
    with DiskCTree.open(path, cache_pages=POOL_PAGES, wal=False) as direct:
        for index, query in enumerate(load.distinct):
            answers = load.first.get(index)
            if answers is None:
                continue
            label = f"{os.path.basename(path)} query {index}"
            # The query as the server decodes it from the request.
            wire = stored_form(query.graph)
            if query.kind == "subgraph":
                ok = check.subgraph(label, wire, answers, stored,
                                    source=query.source,
                                    sample_nx=index % 10 == 0)
            else:
                ok = check.knn(label, wire, answers, stored, K)
            if index % SERIAL_EVERY == 0:
                ok &= check.expect(answers == _serial(direct, wire, query),
                                   f"{label}: HTTP answer differs from a "
                                   f"direct serial call")
            if not ok:
                load.ops.fail(f"http_{query.kind}")


def _counters(delta: dict) -> dict:
    """Engine, server and query counters of the untraced phase (worker
    deltas are merged into the registry by the engine)."""
    def value(name):
        return delta.get(name, {}).get("value", 0)

    out = query_counters(value, DATABASE_SIZE)
    batches = value("engine.batches")
    out.update({
        "engine.cache_hit_rate": ratio(value("engine.cache_hits"),
                                       value("engine.queries")),
        "engine.batch_wall_s": ratio(value("engine.wall_seconds"), batches),
        "engine.worker_busy_s": ratio(value("engine.worker_busy_seconds"),
                                      batches),
        "server.mean_batch_size": ratio(value("server.coalesce.queries"),
                                        value("server.coalesce.batches")),
    })
    return out


def _traced_round(server, load: LoadGenerator, run_ops: OpLog) -> dict:
    """One more uncached round with tracing on: span self times, pool
    against inline batches, server overhead and tracing overhead."""
    untraced = [v for kind in _KINDS for v in run_ops.latencies[kind]]
    server.engine.refresh()
    ops = OpLog()
    with traced() as records:
        load.round(-1, ops)
    run_ops.absorb(ops)
    spans = SpanIndex(records)
    out = query_spans(spans, disk=True)

    batches = spans.named("engine.batch")
    pooled = 0
    for batch in batches:
        pids = {r["attrs"].get("pid") for r in spans.children(batch)
                if r["name"] == "engine.task"}
        pooled += any(pid != os.getpid() for pid in pids)
    out["engine.pool_batches"] = pooled
    out["engine.inline_batches"] = len(batches) - pooled
    latencies = [v for kind in _KINDS for v in ops.latencies.get(kind, [])]
    engine_seconds = sum(b["duration"] * b["attrs"].get("queries", 1)
                         for b in batches)
    out["server.overhead_ms_per_request"] = ratio(
        sum(latencies) - engine_seconds, len(latencies)) * 1e3
    out["obs.tracing_overhead"] = (statistics.mean(latencies)
                                   / statistics.mean(untraced) - 1.0)
    return out
