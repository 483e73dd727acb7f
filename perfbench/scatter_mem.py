"""``scatter-mem``: scatter-gather over two in-memory shards.

A two-shard ``ShardSet`` with closure placement behind a
``ShardedEngine``: one caller sends one query per call, distinct
subgraph queries and K-NN probes.  The answer cache is off, so every
call scatters to both shards' worker pools and merges.  It is the only
workload through ``ctree.shards`` scatter, merge and the per-shard
pools, and, with no storage, engine or server work, the one where
``matching`` kernel and ``ctree`` pruning changes show most directly.
"""

from __future__ import annotations

import time

from repro.ctree import bulk_load, index_size_bytes, knn_query, subgraph_query
from repro.ctree.shards import Shard, ShardedEngine, ShardSet, place_graphs
from repro.obs.metrics import global_registry

from harness import (
    INSTANCES, K, MIN_FANOUT, DirectLoop, RegistryDeltas, Result,
    build_instances, derive_seed, jsonl_bytes, make_database, make_plan,
    median_ms, peak_rss_mb, ratio, run_rounds,
)
from layers import query_counters, query_spans
from oracle import Checker

#: |D| of each of the run's databases.
DATABASE_SIZE = 300
#: A round: 10 subgraph queries (two of each size) and one K-NN probe,
#: all distinct; each database's plan holds more rounds than a run uses.
ROUND_SUBGRAPHS = 10
ROUND_KNNS = 1
PLAN_ROUNDS = 8
#: Rounds rerun with tracing on for the per-layer metrics.
TRACED_ROUNDS = 3
#: Every this many executed queries, one is cross-checked with networkx.
NX_EVERY = 15


def make_inputs(seed: int) -> tuple[list, list, list]:
    """The run's databases, their id -> graph maps, and their plans."""
    dbs = [make_database(DATABASE_SIZE, seed, i) for i in range(INSTANCES)]
    graphs = [dict(enumerate(db)) for db in dbs]
    plans = [make_plan(g, derive_seed(seed, "plan", i), PLAN_ROUNDS,
                       ROUND_SUBGRAPHS, ROUND_KNNS)
             for i, g in enumerate(graphs)]
    return dbs, graphs, plans


SHARDS = 2
PLACEMENT = "closure"
#: Every this many executed queries on the first database, the answer
#: is also compared with a direct serial call on one tree over that
#: whole database (the linear scan and brute-force checks already cover
#: every answer).
SERIAL_EVERY = 5


def _calls(engine) -> dict:
    return {
        "subgraph": lambda q: engine.query_many([q.graph])[0][0],
        "knn": lambda q: engine.knn_many([q.graph], K)[0][0],
    }


def _serial(tree, query):
    """The single-tree answer in the sharded engine's canonical form."""
    if query.kind == "subgraph":
        return sorted(subgraph_query(tree, query.graph)[0])
    return knn_query(tree, query.graph, K, canonical=True)[0]


def run(seed: int, seconds: float, tracing: bool) -> Result:
    dbs, graphs, plans = make_inputs(seed)

    def build(instance):
        db = dbs[instance]
        start = time.perf_counter()
        gid_lists = place_graphs(db, SHARDS, PLACEMENT)
        placed = time.perf_counter()
        shards = [Shard(gids=gids,
                        tree=bulk_load([db[g] for g in gids],
                                       min_fanout=MIN_FANOUT,
                                       seed=derive_seed(seed, "tree",
                                                        instance)))
                  for gids in gid_lists]
        loaded = time.perf_counter()
        engine = ShardedEngine(ShardSet(shards, PLACEMENT), cache_size=0)
        engine.start()
        done = time.perf_counter()
        return {"setup_s": done - start,
                "shards.placement_s": placed - start,
                "ctree.bulk_load_s": loaded - placed,
                "state": engine}

    engines, setup = build_instances(build)
    loop = DirectLoop([(plan, _calls(engine))
                       for plan, engine in zip(plans, engines)],
                      RegistryDeltas(tracing))
    registry = global_registry()
    tasks = [registry.counter(f"shard.s{s}.tasks") for s in range(SHARDS)]
    tasks_before = [c.value for c in tasks]
    rounds, wall = run_rounds(seconds, loop.round)
    per_shard_tasks = [c.value - b for c, b in zip(tasks, tasks_before)]

    layers = {name: setup[name]
              for name in ("shards.placement_s", "ctree.bulk_load_s")}
    if tracing:
        layers.update(_counters(loop.deltas))
        spans, layers["obs.tracing_overhead"] = \
            loop.traced_rounds(TRACED_ROUNDS)
        layers.update(query_spans(spans, disk=False))
    space = sum(index_size_bytes(s.tree)
                for engine in engines for s in engine.shardset.shards)
    for engine in engines:
        engine.close()
    rss = peak_rss_mb()

    check = Checker(derive_seed(seed, "check"))
    executed = len(loop.log.latencies["subgraph"]) \
        + len(loop.log.latencies["knn"])
    check.expect(per_shard_tasks == [executed] * SHARDS,
                 f"not every query ran on every shard: {per_shard_tasks} "
                 f"tasks for {executed} queries")
    tree = bulk_load(dbs[0], min_fanout=MIN_FANOUT,
                     seed=derive_seed(seed, "tree", 0))
    for n, (instance, query, answers) in enumerate(loop.executed()):
        label = f"database {instance} query {n}"
        if query.kind == "subgraph":
            ok = check.subgraph(label, query.graph, answers,
                                graphs[instance], source=query.source,
                                sample_nx=n % NX_EVERY == 0)
        else:
            ok = check.knn(label, query.graph, answers, graphs[instance],
                           K, canonical=True)
        if instance == 0 and n % SERIAL_EVERY == 0:
            ok &= check.expect(answers == _serial(tree, query),
                               f"{label}: sharded answer differs from a "
                               f"direct serial call on one tree")
        if not ok:
            loop.log.fail(query.kind)

    log = loop.log
    end_to_end = {
        "setup_s": setup["setup_s"],
        "subgraph_p50_ms": median_ms(log.latencies["subgraph"]),
        "knn_p50_ms": median_ms(log.latencies["knn"]),
        "queries_per_s": executed / wall,
        "space_amp": space / sum(map(jsonl_bytes, dbs)),
        "peak_rss_mb": rss,
    }
    print(f"info workload=scatter-mem rounds={rounds} wall_s={wall:.3f} "
          f"shard_tasks={per_shard_tasks}")
    return Result(log, loop.errors + check.errors, end_to_end, layers)


def _counters(deltas: RegistryDeltas) -> dict:
    """Shard and query counters of the untraced phase; per-query ratios
    are per shard execution (each query runs once on every shard)."""
    value = deltas.value
    out = query_counters(value, DATABASE_SIZE // SHARDS)
    batches = value("shard.scatter.batches")
    wall = value("shard.scatter.wall_seconds")
    busy = value("shard.scatter.busy_seconds")
    work = [value(f"shard.s{s}.candidate_work", "subgraph")
            for s in range(SHARDS)]
    out.update({
        "shards.scatter_wall_s": ratio(wall, batches),
        "shards.busy_s": ratio(busy, batches),
        "shards.utilization": ratio(busy, SHARDS * wall),
        "shards.work_skew": ratio(max(work), sum(work) / SHARDS),
    })
    return out
