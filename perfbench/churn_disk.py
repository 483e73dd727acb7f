"""``churn-disk``: WAL-backed disk C-trees under delete/extend churn.

Each buffer pool holds a small fraction of its page file, so reads miss
the pool and decode records, while every round, on one of the run's indexes,
also writes through the Sec. 5 maintenance code and the WAL: one
``delete_many`` batch, which ends in a compaction, and one ``extend``
batch (each one group commit), then a sweep of subgraph and K-NN
queries over the live set.  A decoded-node cache or record-format
change shows on reads here, and a read gain that costs writes shows
too.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from repro.ctree import DiskCTree, bulk_load
from repro.datasets.chemical import generate_chemical_database
from repro.obs import trace
from repro.obs.metrics import global_registry
from repro.storage.wal import wal_path

from harness import (
    INSTANCES, K, MIN_FANOUT, MOLECULES, OpLog, RegistryDeltas, Result,
    SpanIndex, build_instances, derive_seed, interleave,
    jsonl_bytes, make_database, make_knn_probes, make_subgraph_queries,
    median_ms, peak_rss_mb, ratio, run_rounds, stored_form, timed, traced,
    work_dir,
)
from layers import query_counters, query_spans
from oracle import Checker

#: |D| of each of the run's indexes, held steady: every round deletes
#: and adds BATCH graphs.
DATABASE_SIZE = 300
#: Buffer-pool pages (the page file holds about 370).
POOL_PAGES = 16
#: Graphs per delete batch and per extend batch.
BATCH = 15
#: Subgraph queries and K-NN probes per round's sweep.
SWEEP_SUBGRAPHS = 15
SWEEP_KNNS = 3
#: The handle's compaction trigger: leaf occupancy below this.  The
#: default, 0.4, is never reached, because merges keep every leaf at
#: m/M = 0.53 or more; at 1.0 every delete batch ends in an automatic
#: compaction, so every round does the same kind of write work.
MIN_OCCUPANCY = 1.0

_WRITE_KINDS = ("delete_batch", "extend_batch")
_QUERY_KINDS = ("subgraph", "knn")


class Churn:
    """One database's live set and index, and the rounds run on them.

    Every index shares the run's operation log and registry deltas.
    """

    def __init__(self, seed: int, disk: DiskCTree, graphs: dict,
                 log: OpLog, deltas: RegistryDeltas) -> None:
        self.seed = seed
        self.disk = disk
        self.path = disk.path
        self.live = {gid: stored_form(g) for gid, g in graphs.items()}
        self.log = log
        self.deltas = deltas
        #: (query, answers, live set it ran against), for the checks
        self.executed: list = []
        self.errors: list[str] = []
        self.last_sweep_seconds = 0.0

    def _op(self, log: OpLog, kind: str, fn, *args, span: bool = False):
        with self.deltas.around(kind):
            if span:
                with trace.span(f"bench.{kind}"):
                    return timed(log, kind, fn, *args)
            return timed(log, kind, fn, *args)

    def round(self, index: int, log: OpLog = None,
              span: bool = False) -> None:
        log = log or self.log
        rng = random.Random(derive_seed(self.seed, "victims", index))
        victims = rng.sample(sorted(self.live), BATCH)
        removed = self._op(log, "delete_batch", self.disk.delete_many,
                           victims, span=span)
        if removed is not None:
            ok = len(removed) == BATCH and all(
                g == self.live[gid] for gid, g in zip(victims, removed))
            if not ok:
                log.fail("delete_batch")
                self.errors.append(f"round {index}: delete_many returned "
                                   f"other graphs than it was asked for")
            for gid in victims:
                del self.live[gid]

        fresh = generate_chemical_database(
            BATCH, seed=derive_seed(self.seed, "fresh", index),
            config=MOLECULES)
        new_ids = self._op(log, "extend_batch", self.disk.extend, fresh,
                           span=span)
        if new_ids is not None:
            if len(new_ids) != BATCH or set(new_ids) & set(self.live):
                log.fail("extend_batch")
                self.errors.append(f"round {index}: extend returned "
                                   f"ids {new_ids} overlapping live ids")
            self.live.update(zip(new_ids, map(stored_form, fresh)))

        live = dict(self.live)
        subgraphs = make_subgraph_queries(live, SWEEP_SUBGRAPHS, self.seed,
                                          stream=f"sub{index}")
        probes = make_knn_probes(live, SWEEP_KNNS, self.seed,
                                 stream=f"knn{index}")
        before = sum(map(sum, (log.latencies.get(k, [])
                               for k in _QUERY_KINDS)))
        for query in interleave(subgraphs, probes):
            if query.kind == "subgraph":
                answers = self._op(
                    log, "subgraph",
                    lambda g: sorted(self.disk.subgraph_query(g)[0]),
                    query.graph, span=span)
            else:
                answers = self._op(
                    log, "knn", lambda g: self.disk.knn_query(g, K)[0],
                    query.graph, span=span)
            if answers is not None:
                self.executed.append((query, answers, live))
        self.last_sweep_seconds = sum(map(sum, (
            log.latencies.get(k, []) for k in _QUERY_KINDS))) - before

    def check(self, check: Checker) -> None:
        """Answer checks, then a deep fsck and a reopen of the closed
        index."""
        for n, (query, answers, live) in enumerate(self.executed):
            label = f"{os.path.basename(self.path)} sweep query {n}"
            if query.kind == "subgraph":
                ok = check.subgraph(label, query.graph, answers, live,
                                    source=query.source,
                                    sample_nx=n % 10 == 0)
            else:
                ok = check.knn(label, query.graph, answers, live, K)
            if not ok:
                self.log.fail(query.kind)
        report = DiskCTree.fsck(self.path, deep=True)
        check.expect(report.clean, f"deep fsck: {report.errors[:3]}")
        with DiskCTree.open(self.path, wal=False) as reopened:
            stored = dict(reopened.iter_graphs())
        check.expect(stored == self.live,
                     "reopened index does not hold exactly the live set")


def run(seed: int, seconds: float, tracing: bool) -> Result:
    dbs = [make_database(DATABASE_SIZE, seed, i) for i in range(INSTANCES)]
    log = OpLog()
    deltas = RegistryDeltas(tracing)
    with work_dir() as root:
        def build(instance):
            path = root / f"churn-{instance}.ctp"
            start = time.perf_counter()
            tree = bulk_load(dbs[instance], min_fanout=MIN_FANOUT,
                             seed=derive_seed(seed, "tree", instance))
            loaded = time.perf_counter()
            disk = DiskCTree.create(tree, path, cache_pages=POOL_PAGES)
            done = time.perf_counter()
            disk.min_occupancy = MIN_OCCUPANCY
            return {"setup_s": done - start,
                    "ctree.bulk_load_s": loaded - start,
                    "diskindex.create_s": done - loaded,
                    "state": disk}

        disks, setup = build_instances(build)
        churns = [Churn(derive_seed(seed, "churn", i), disk,
                        dict(enumerate(dbs[i])), log, deltas)
                  for i, disk in enumerate(disks)]

        def round_fn(index):
            churns[index % INSTANCES].round(index // INSTANCES)

        compactions = global_registry().counter("ctree.disk.compactions")
        compactions_before = compactions.value
        rounds, wall = run_rounds(seconds, round_fn)
        compacted = compactions.value - compactions_before

        layers = {name: setup[name]
                  for name in ("ctree.bulk_load_s", "diskindex.create_s")}
        if tracing:
            layers.update(_counters(log, deltas, compacted))
            # One more round on the index that ran the last one.
            last = rounds - 1
            churn = churns[last % INSTANCES]
            sweep = churn.last_sweep_seconds
            traced_log = OpLog()
            with traced() as records:
                churn.round(last // INSTANCES + 1, log=traced_log,
                            span=True)
            log.absorb(traced_log)
            layers.update(query_spans(SpanIndex(records), disk=True))
            # Against the same index's previous (untraced) sweep.
            layers["obs.tracing_overhead"] = \
                churn.last_sweep_seconds / sweep - 1.0

        index_bytes = sum(os.path.getsize(c.path)
                          + os.path.getsize(wal_path(c.path))
                          for c in churns)
        for disk in disks:
            disk.close()

        check = Checker(derive_seed(seed, "check"))
        check.expect(compacted >= 1, "churn-disk ran no compaction")
        for churn in churns:
            churn.check(check)

    end_to_end = {
        "setup_s": setup["setup_s"],
        "subgraph_p50_ms": median_ms(log.latencies["subgraph"]),
        "knn_p50_ms": median_ms(log.latencies["knn"]),
        "queries_per_s": (len(log.latencies["subgraph"])
                          + len(log.latencies["knn"])) / wall,
        "space_amp": index_bytes / sum(jsonl_bytes(c.live.values())
                                       for c in churns),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"info workload=churn-disk rounds={rounds} wall_s={wall:.3f} "
          f"compactions={compacted}")
    errors = [e for c in churns for e in c.errors] + check.errors
    return Result(log, errors, end_to_end, layers)


def _counters(log: OpLog, deltas: RegistryDeltas, compacted: float) -> dict:
    """Write-path and query-path counters of the untraced phase."""
    deletes = log.latencies.get("delete_batch", [])
    extends = log.latencies.get("extend_batch", [])
    batches = len(deletes) + len(extends)
    out = query_counters(lambda name: deltas.value(name, *_QUERY_KINDS),
                         DATABASE_SIZE)

    def writes(name):
        return deltas.value(name, *_WRITE_KINDS)

    out.update({
        "diskindex.delete_s": statistics.mean(deletes),
        "diskindex.extend_s": statistics.mean(extends),
        "diskindex.graphs_written_per_s": ratio(
            BATCH * batches, sum(deletes) + sum(extends)),
        "diskindex.splits": ratio(
            deltas.value("ctree.disk.splits", "extend_batch"), len(extends)),
        "diskindex.underflow_merges": ratio(
            deltas.value("ctree.disk.underflow_merges", "delete_batch"),
            len(deletes)),
        "diskindex.compactions": compacted,
        "storage.wal_bytes_per_graph": ratio(
            writes("wal.appended_bytes"), BATCH * batches),
        "storage.wal_syncs_per_batch": ratio(writes("wal.syncs"), batches),
        "storage.writebacks_per_batch": ratio(
            writes("bufferpool.writebacks"), batches),
    })
    return out
