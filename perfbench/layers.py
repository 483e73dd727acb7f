"""The per-layer metrics: names, units, and how each is derived.

Every traced run prints all of them.  A layer the workload does not
exercise did no work there, and its metrics read 0; README.md lists
which workload each metric is meant for and which end-to-end metric it
should move.
"""

from __future__ import annotations

from harness import SpanIndex, ratio

#: name -> unit, in report order.
PER_LAYER = {
    "ctree.bulk_load_s": "s",
    "ctree.search_s": "s",
    "ctree.pseudo_tests_per_query": "count",
    "ctree.expand.self_s": "s",
    "ctree.verify_s": "s",
    "ctree.candidates_per_query": "count",
    "ctree.accuracy": "ratio",
    "ctree.knn_access_ratio": "ratio",
    "ctree.knn.score.self_s": "s",
    "matching.pseudo_domain_calls_per_query": "count",
    "matching.isomorphism_tests_per_query": "count",
    "matching.mapping_calls_per_knn": "count",
    "diskindex.create_s": "s",
    "diskindex.search_self_s": "s",
    "diskindex.delete_s": "s",
    "diskindex.extend_s": "s",
    "diskindex.graphs_written_per_s": "1/s",
    "diskindex.splits": "count/batch",
    "diskindex.underflow_merges": "count/batch",
    "diskindex.compactions": "count",
    "storage.page_reads_per_query": "count",
    "storage.pagefile_read.self_s": "s",
    "storage.pool_hit_ratio": "ratio",
    "storage.wal_bytes_per_graph": "bytes",
    "storage.wal_syncs_per_batch": "count/batch",
    "storage.writebacks_per_batch": "count/batch",
    "engine.start_s": "s",
    "engine.cache_hit_rate": "ratio",
    "engine.pool_batches": "count",
    "engine.inline_batches": "count",
    "engine.batch_wall_s": "s",
    "engine.worker_busy_s": "s",
    "shards.placement_s": "s",
    "shards.scatter_wall_s": "s",
    "shards.busy_s": "s",
    "shards.utilization": "ratio",
    "shards.work_skew": "ratio",
    "server.start_s": "s",
    "server.overhead_ms_per_request": "ms",
    "server.mean_batch_size": "count",
    "obs.tracing_overhead": "ratio",
}

_QUERY_ROOTS = ("ctree.subgraph_query", "ctree.knn_query")


def query_counters(value, database_size: int) -> dict:
    """ctree/matching/storage metrics from registry counters summed over
    query operations; ``value(name)`` reads one counter's delta."""
    subgraphs = value("ctree.query.count")
    knns = value("ctree.knn.count")
    hits = value("bufferpool.hits")
    misses = value("bufferpool.misses")
    return {
        "ctree.search_s": ratio(value("ctree.query.search_seconds"),
                                subgraphs),
        "ctree.verify_s": ratio(value("ctree.query.verify_seconds"),
                                subgraphs),
        "ctree.pseudo_tests_per_query": ratio(
            value("ctree.query.pseudo_tests"), subgraphs),
        "ctree.candidates_per_query": ratio(
            value("ctree.query.candidates"), subgraphs),
        "ctree.accuracy": ratio(value("ctree.query.answers"),
                                value("ctree.query.candidates")),
        "ctree.knn_access_ratio": ratio(
            value("ctree.knn.nodes_expanded")
            + value("ctree.knn.graphs_scored"), knns * database_size),
        "matching.pseudo_domain_calls_per_query": ratio(
            value("matching.pseudo_iso.domain_calls"), subgraphs),
        "matching.isomorphism_tests_per_query": ratio(
            value("ctree.query.isomorphism_tests"), subgraphs),
        "matching.mapping_calls_per_knn": ratio(
            value("matching.mapping.calls"), knns),
        "storage.page_reads_per_query": ratio(misses, subgraphs + knns),
        "storage.pool_hit_ratio": ratio(hits, hits + misses),
    }


def query_spans(spans: SpanIndex, disk: bool) -> dict:
    """Self times per executed C-tree query from one traced pass."""
    subgraphs = spans.count("ctree.subgraph_query")
    knns = spans.count("ctree.knn_query")
    out = {
        "ctree.expand.self_s": ratio(spans.self_time("ctree.expand"),
                                     subgraphs),
        "ctree.knn.score.self_s": ratio(spans.self_time("ctree.knn.score"),
                                        knns),
        "storage.pagefile_read.self_s": ratio(
            spans.self_under("pagefile.read", _QUERY_ROOTS),
            subgraphs + knns),
    }
    if disk:
        # Search time not spent reading pages: record decode + tests.
        reads = spans.duration_under("bufferpool.read_through",
                                     ("ctree.search",))
        out["diskindex.search_self_s"] = ratio(
            spans.total("ctree.search") - reads, spans.count("ctree.search"))
    return out
