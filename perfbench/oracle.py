"""Answer checks that do not rely on the C-tree.

Subgraph answers are compared with a linear scan of the live set the
benchmark keeps itself: a label-count and size screen (a necessary
condition for a subgraph embedding) followed by the exact matcher.
networkx's ``GraphMatcher`` monomorphism test cross-checks that matcher
on sampled answer and non-answer pairs.  K-NN results are compared with
a brute-force scoring of the live set under the same similarity
function.
"""

from __future__ import annotations

import random
from collections import Counter

import networkx as nx
from networkx.algorithms import isomorphism

from repro.matching.edit_distance import graph_similarity
from repro.matching.ullmann import subgraph_isomorphic


def _label_counts(graph) -> Counter:
    return Counter(graph.label(v) for v in graph.vertices())


def could_contain(need: Counter, query, have: Counter, graph) -> bool:
    """Vertex/edge counts and label multiset (``need``) of ``query`` fit
    in ``graph`` (label multiset ``have``): necessary for a subgraph
    embedding."""
    if query.num_vertices > graph.num_vertices \
            or query.num_edges > graph.num_edges:
        return False
    return all(have[label] >= n for label, n in need.items())


def _to_nx(graph) -> nx.Graph:
    out = nx.Graph()
    for v in graph.vertices():
        out.add_node(v, label=graph.label(v))
    for u, v, _ in graph.edges():
        out.add_edge(u, v)
    return out


def nx_monomorphic(query, graph) -> bool:
    """networkx's verdict on whether ``query`` embeds into ``graph``."""
    matcher = isomorphism.GraphMatcher(
        _to_nx(graph), _to_nx(query),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    return matcher.subgraph_is_monomorphic()


def brute_knn(query, graphs: dict, k: int) -> list:
    """Top-k ``(id, similarity)`` of a full scoring of ``graphs``, in
    the canonical ``(-similarity, id)`` order."""
    scored = sorted(((gid, graph_similarity(query, g))
                     for gid, g in graphs.items()),
                    key=lambda t: (-t[1], t[0]))
    return scored[:k]


class Checker:
    """Collects check failures as readable messages."""

    def __init__(self, seed: int) -> None:
        self.errors: list[str] = []
        self.rng = random.Random(seed)
        #: id(graph) -> (graph, label multiset); the graph is held so
        #: its id stays unique
        self._counts: dict[int, tuple] = {}

    def _labels(self, graph) -> Counter:
        entry = self._counts.get(id(graph))
        if entry is None:
            entry = self._counts[id(graph)] = (graph, _label_counts(graph))
        return entry[1]

    def scan_subgraph(self, query, graphs: dict) -> set:
        """Ids of every graph in ``graphs`` (id -> graph) containing
        ``query``: the linear scan."""
        need = _label_counts(query)
        return {gid for gid, g in graphs.items()
                if could_contain(need, query, self._labels(g), g)
                and subgraph_isomorphic(query, g)}

    def screened_out(self, query, graphs: dict, answers: set) -> list:
        """Ids that pass the size/label screen but are not answers (the
        non-answer pairs worth cross-checking)."""
        need = _label_counts(query)
        return sorted(gid for gid, g in graphs.items()
                      if gid not in answers
                      and could_contain(need, query, self._labels(g), g))

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok

    def subgraph(self, label: str, query, answers, graphs: dict,
                 source=None, sample_nx: bool = False) -> bool:
        """``answers`` equal a linear scan of ``graphs``, hold no id
        outside it, and include the query's source graph."""
        got = set(answers)
        ok = self.expect(len(got) == len(answers),
                         f"{label}: duplicate ids in answers")
        ok &= self.expect(got <= set(graphs),
                          f"{label}: answers outside the live set: "
                          f"{sorted(got - set(graphs))[:5]}")
        want = self.scan_subgraph(query, graphs)
        ok &= self.expect(got == want,
                          f"{label}: answers differ from linear scan "
                          f"(missing {sorted(want - got)[:5]}, "
                          f"extra {sorted(got - want)[:5]})")
        if source is not None and source in graphs:
            ok &= self.expect(source in got,
                              f"{label}: source graph {source} not among "
                              f"its own answers")
        if sample_nx:
            ok &= self.networkx_pairs(label, query, graphs, want)
        return ok

    def networkx_pairs(self, label: str, query, graphs: dict,
                       answers: set) -> bool:
        """networkx agrees with the matcher on one sampled answer and
        one sampled screened non-answer."""
        ok = True
        pairs = []
        if answers:
            pairs.append((self.rng.choice(sorted(answers)), True))
        others = self.screened_out(query, graphs, answers)
        if others:
            pairs.append((self.rng.choice(others), False))
        for gid, expected in pairs:
            ok &= self.expect(
                nx_monomorphic(query, graphs[gid]) == expected,
                f"{label}: networkx disagrees on graph {gid} "
                f"(matcher says {expected})")
        return ok

    def knn(self, label: str, query, results, graphs: dict, k: int,
            canonical: bool = False) -> bool:
        """Every returned similarity equals ``graph_similarity``
        recomputed, ids are live and distinct, and the similarity
        values equal the brute-force top-k (the ids too, in canonical
        order, when ``canonical``)."""
        ids = [gid for gid, _ in results]
        ok = self.expect(len(set(ids)) == len(ids),
                         f"{label}: duplicate ids in K-NN results")
        ok &= self.expect(set(ids) <= set(graphs),
                          f"{label}: K-NN ids outside the live set")
        if not ok:
            return False
        for gid, sim in results:
            ok &= self.expect(graph_similarity(query, graphs[gid]) == sim,
                              f"{label}: similarity of {gid} is {sim}, "
                              f"recomputed differs")
        want = brute_knn(query, graphs, k)
        ok &= self.expect(
            [s for _, s in results] == [s for _, s in want],
            f"{label}: top-{k} similarities differ from brute force")
        if canonical:
            ok &= self.expect([tuple(r) for r in results] == want,
                              f"{label}: canonical top-{k} differs from "
                              f"brute force")
        return ok
