"""Shared machinery of the benchmark: inputs, timing, accounting, layers.

Everything here measures the program from the outside.  Times come
from ``time.perf_counter`` around the benchmark's own calls into the
program's public functions; layer counters come from the stats objects
those calls return and from deltas of the process-wide metrics registry
(:func:`repro.obs.metrics.global_registry`) taken around the calls;
span self times come from a separate traced pass summarised with
:func:`repro.obs.trace.summarize`.
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.datasets.chemical import ChemicalConfig, generate_chemical_database
from repro.datasets.queries import generate_subgraph_queries
from repro.graphs.graph import Graph
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, global_registry

#: Subgraph query sizes: the Fig. 7/8 query-size axis (vertices).
QUERY_SIZES = (5, 10, 15, 20, 25)
#: Neighbours per K-NN probe.
K = 5
#: C-tree fan-out m (M = 2m - 1), the repository's experiment default.
MIN_FANOUT = 10
#: Databases per run.  Each gets its own index, built in the set-up
#: (``setup_s`` is the median of the builds), and the measured rounds
#: rotate over them: from one database to the next, the median
#: subgraph query does 15-20% more or less work, and averaging over
#: three halves that swing in the run's figures.
INSTANCES = 3

#: Where runs keep their page files; inside the checkout, removed on exit.
WORK_ROOT = Path(__file__).resolve().parent.parent / ".perfbench_work"


def derive_seed(seed: int, *parts) -> int:
    """A stable sub-seed for one input stream of one run."""
    return random.Random(repr((seed,) + parts)).getrandbits(48)


#: Paper-size molecules (about 25 vertices and 27 edges) without the
#: generator's 1% of six-times-larger outliers: at |D| = 300 their
#: number varies from 2 to 8 between seeds, and they alone moved
#: set-up time by a third from one seed to the next.
MOLECULES = ChemicalConfig(large_fraction=0.0)


def make_database(count: int, seed: int, instance: int) -> list[Graph]:
    """``count`` molecules from ``datasets.chemical`` for one of a run's
    databases."""
    return generate_chemical_database(
        count, seed=derive_seed(seed, "db", instance), config=MOLECULES)


def make_subgraph_queries(graphs: dict, count: int, seed: int,
                          stream: str = "sub") -> list["Query"]:
    """``count`` connected subgraph queries cycling over
    :data:`QUERY_SIZES`, each cut from a randomly chosen graph of
    ``graphs`` (id -> graph) by ``datasets.queries``; the source id is
    kept so the checks can require it among the answers."""
    rng = random.Random(derive_seed(seed, stream))
    ids = sorted(graphs)
    out = []
    for i in range(count):
        size = QUERY_SIZES[i % len(QUERY_SIZES)]
        eligible = [gid for gid in ids if graphs[gid].num_vertices >= size]
        source = eligible[rng.randrange(len(eligible))]
        graph, = generate_subgraph_queries([graphs[source]], size, 1,
                                           seed=rng.getrandbits(32))
        out.append(Query("subgraph", graph, source))
    return out


def make_knn_probes(graphs: dict, count: int, seed: int,
                    stream: str = "knn", strata: int = 5) -> list["Query"]:
    """``count`` K-NN probes: whole graphs of ``graphs`` (the paper's
    similarity workload).  The graphs are ordered by size and cut into
    ``strata`` equal bins; every run of ``strata`` consecutive probes
    takes one graph from each bin, in random order.  K-NN cost grows
    fast with probe size, so this keeps a run's median from hanging on
    whether its few probes happened to be large."""
    rng = random.Random(derive_seed(seed, stream))
    strata = min(strata, count) or 1
    ids = sorted(graphs, key=lambda gid: (graphs[gid].num_vertices
                                          + graphs[gid].num_edges, gid))
    bins = [ids[len(ids) * i // strata:len(ids) * (i + 1) // strata]
            for i in range(strata)]
    order: list[int] = []
    while len(order) < count:
        group = list(range(strata))
        rng.shuffle(group)
        order.extend(group)
    return [Query("knn", graphs[source], source)
            for source in (bins[b][rng.randrange(len(bins[b]))]
                           for b in order[:count])]


@dataclass
class Query:
    kind: str          # "subgraph" or "knn"
    graph: Graph
    source: int        # database id the query was taken from


def stored_form(graph: Graph) -> Graph:
    """``graph`` as a disk index stores and returns it (its JSON round
    trip).  Equal to ``graph``, but ``graph_similarity`` can differ
    between the two forms, so disk answers are checked against this one."""
    return Graph.from_dict(graph.to_dict())


def jsonl_bytes(graphs) -> int:
    """Bytes of the graphs in the repository's JSON-lines form
    (``repro.graphs.io.save_graph_database``)."""
    return sum(len(json.dumps(g.to_dict(), separators=(",", ":"))
                   .encode("utf-8")) + 1 for g in graphs)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    reaped child (worker pools must be joined first), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@contextmanager
def work_dir():
    """A private scratch directory inside the checkout."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        yield Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
@dataclass
class OpLog:
    """Attempted/failed operations and latencies, per operation kind."""

    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    latencies: dict = field(default_factory=dict)

    def record(self, kind: str, seconds: Optional[float], ok: bool) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.failed.setdefault(kind, 0)
        if not ok:
            self.failed[kind] += 1
        elif seconds is not None:
            self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, kind: str) -> None:
        """Turn one recorded success of ``kind`` into a failure (a
        check found its output wrong)."""
        self.failed[kind] = self.failed.get(kind, 0) + 1

    def absorb(self, other: "OpLog") -> None:
        """Add ``other``'s attempted/failed counts (not its latencies)."""
        for kind, n in other.attempted.items():
            self.attempted[kind] = self.attempted.get(kind, 0) + n
            self.failed[kind] = (self.failed.get(kind, 0)
                                 + other.failed.get(kind, 0))

    def total(self) -> tuple[int, int]:
        return (sum(self.attempted.values()), sum(self.failed.values()))

    def lines(self, workload: str) -> list[str]:
        return [f"ops workload={workload} kind={kind} "
                f"attempted={self.attempted[kind]} "
                f"failed={self.failed.get(kind, 0)}"
                for kind in sorted(self.attempted)]


@dataclass
class Result:
    """What one run of a workload hands back to ``run.py``."""

    ops: OpLog
    errors: list
    end_to_end: dict
    layers: dict


def timed(log: OpLog, kind: str, fn: Callable, *args, **kwargs):
    """Run one operation, timing it and counting it; returns its result
    or ``None`` when it raised."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failing operation is data, not a crash
        log.record(kind, None, ok=False)
        print(f"error kind={kind}: {type(exc).__name__}: {exc}")
        return None
    log.record(kind, time.perf_counter() - start, ok=True)
    return result


def median_ms(values) -> float:
    return statistics.median(values) * 1e3


def run_rounds(seconds: float, round_fn: Callable[[int], None]) -> tuple:
    """Whole rounds of ``round_fn(round_index)`` until ``seconds`` have
    passed; returns ``(rounds, wall_seconds)``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        round_fn(rounds)
        rounds += 1
        wall = time.perf_counter() - start
        if wall >= seconds:
            return rounds, wall


def build_instances(build: Callable[[int], dict]) -> tuple[list, dict]:
    """Run ``build(instance)`` for each of the run's :data:`INSTANCES`
    databases.  A build returns a dict of named phase times plus its
    live objects under ``"state"``.  Returns every state and the median
    of each phase time across builds."""
    phases: dict[str, list] = {}
    states = []
    for instance in range(INSTANCES):
        built = build(instance)
        states.append(built.pop("state"))
        for name, value in built.items():
            phases.setdefault(name, []).append(value)
    return states, {name: statistics.median(v) for name, v in phases.items()}


# ----------------------------------------------------------------------
# Layer counters and spans
# ----------------------------------------------------------------------
class RegistryDeltas:
    """Process-registry deltas accumulated per operation kind.

    Disabled (free) in untraced end-to-end runs; the per-layer runs
    turn it on.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.by_kind: dict[str, MetricsRegistry] = {}

    @contextmanager
    def around(self, kind: str):
        if not self.enabled:
            yield
            return
        before = global_registry().snapshot()
        try:
            yield
        finally:
            delta = global_registry().diff(before)
            self.by_kind.setdefault(kind, MetricsRegistry()).merge(delta)

    def value(self, name: str, *kinds: str) -> float:
        """Sum of counter ``name`` over ``kinds`` (all kinds if none)."""
        total = 0.0
        for kind, reg in self.by_kind.items():
            if kinds and kind not in kinds:
                continue
            if name in reg:
                total += reg.counter(name).value
        return total


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 where a layer did no work (``den == 0``)."""
    return num / den if den else 0.0


class SpanIndex:
    """Span records of one traced pass with ancestry lookups."""

    def __init__(self, records: list) -> None:
        self.records = records
        self.summary = trace.summarize(records)
        self._by_id = {(r["trace_id"], r["span_id"]): r for r in records}

    def count(self, name: str) -> int:
        return self.summary.get(name, {}).get("count", 0)

    def self_time(self, name: str) -> float:
        return self.summary.get(name, {}).get("self", 0.0)

    def total(self, name: str) -> float:
        return self.summary.get(name, {}).get("total", 0.0)

    def children(self, rec: dict) -> list:
        key = (rec["trace_id"], rec["span_id"])
        return [r for r in self.records
                if (r["trace_id"], r.get("parent_id")) == key]

    def named(self, name: str) -> list:
        return [r for r in self.records if r["name"] == name]

    def ancestor(self, rec: dict, names) -> Optional[dict]:
        """The nearest ancestor of ``rec`` whose name is in ``names``."""
        cur = rec
        while cur.get("parent_id") is not None:
            cur = self._by_id.get((cur["trace_id"], cur["parent_id"]))
            if cur is None:
                return None
            if cur["name"] in names:
                return cur
        return None

    def duration_under(self, name: str, ancestors) -> float:
        """Summed duration of ``name`` spans that run beneath one of
        ``ancestors``."""
        return sum(r["duration"] for r in self.named(name)
                   if self.ancestor(r, ancestors) is not None)

    def self_under(self, name: str, ancestors) -> float:
        """Summed self time of ``name`` spans beneath ``ancestors``."""
        child_sum: dict = {}
        for r in self.records:
            if r.get("parent_id") is not None:
                key = (r["trace_id"], r["parent_id"])
                child_sum[key] = child_sum.get(key, 0.0) + r["duration"]
        return sum(
            max(0.0, r["duration"]
                - child_sum.get((r["trace_id"], r["span_id"]), 0.0))
            for r in self.named(name)
            if self.ancestor(r, ancestors) is not None
        )


@contextmanager
def traced():
    """Trace everything inside into memory; yields the record list."""
    sink = trace.ListSink()
    with trace.tracing(sink):
        yield sink.records



class DirectLoop:
    """A closed loop of direct calls over fixed plans, one per instance.

    ``instances`` holds ``(plan, execute)`` pairs: a plan is a list of
    rounds, and ``execute[kind](query)`` returns a query's answers.
    Round ``r`` runs on instance ``r % INSTANCES`` the next round of
    its plan, every query once, in order.  All rounds have the same
    make-up, and a run that outlasts a plan starts it again: a repeat
    must return what the first run of that query returned.  The first
    answers are kept for the checks.
    """

    def __init__(self, instances: list, deltas: RegistryDeltas):
        self.instances = instances
        self.deltas = deltas
        self.log = OpLog()
        self.first: dict[tuple, object] = {}
        self.errors: list[str] = []

    def _run(self, log: OpLog, key: tuple, execute: dict, query,
             span: bool) -> None:
        kind = query.kind
        with self.deltas.around(kind):
            if span:
                with trace.span(f"bench.{kind}"):
                    answers = timed(log, kind, execute[kind], query)
            else:
                answers = timed(log, kind, execute[kind], query)
        if answers is None:
            return
        if key not in self.first:
            self.first[key] = answers
        elif answers != self.first[key]:
            log.fail(kind)
            self.errors.append(f"query {key} ({kind}) answered "
                               f"differently on a repeat")

    def _round(self, log: OpLog, index: int, span: bool) -> float:
        instance = index % len(self.instances)
        plan, execute = self.instances[instance]
        number = (index // len(self.instances)) % len(plan)
        before = sum(map(sum, log.latencies.values()))
        for pos, query in enumerate(plan[number]):
            self._run(log, (instance, number, pos), execute, query, span)
        return sum(map(sum, log.latencies.values())) - before

    def round(self, index: int) -> None:
        self._round(self.log, index, span=False)

    def traced_rounds(self, count: int) -> tuple["SpanIndex", float]:
        """Rerun the first ``count`` rounds untraced, then again with
        tracing on and a benchmark span around every call.  Their counts
        join the run's; their latencies stay apart.  Returns the spans
        and the tracing overhead: the traced reruns' summed query
        latency against the untraced reruns', minus one."""
        log = OpLog()
        deltas, self.deltas = self.deltas, RegistryDeltas(False)
        untraced = sum(self._round(log, index, span=False)
                       for index in range(count))
        with traced() as records:
            traced_seconds = sum(self._round(log, index, span=True)
                                 for index in range(count))
        self.deltas = deltas
        self.log.absorb(log)
        return SpanIndex(records), traced_seconds / untraced - 1.0

    def executed(self):
        """``(instance, query, first answers)`` of every query that ran."""
        for (instance, number, pos), answers in self.first.items():
            yield instance, self.instances[instance][0][number][pos], answers


def make_plan(graphs: dict, seed: int, rounds: int, subgraphs: int,
              knns: int) -> list:
    """``rounds`` rounds of ``subgraphs`` distinct subgraph queries with
    ``knns`` distinct K-NN probes spread among them."""
    subs = make_subgraph_queries(graphs, rounds * subgraphs, seed)
    probes = make_knn_probes(graphs, rounds * knns, seed)
    return [interleave(subs[r * subgraphs:(r + 1) * subgraphs],
                       probes[r * knns:(r + 1) * knns])
            for r in range(rounds)]


def interleave(subgraphs: list, knns: list) -> list:
    """One plan: the K-NN probes spread evenly among the subgraph
    queries."""
    plan = list(subgraphs)
    step = len(subgraphs) / max(1, len(knns))
    for i, probe in reversed(list(enumerate(knns))):
        plan.insert(round((i + 1) * step), probe)
    return plan
