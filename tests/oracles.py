"""Independent oracles used by the test suite.

The scoring and tokenizing specs come first: ``char_jaccard``,
``pair_count`` and ``seq_similarity`` define the two-level match score one
pair of sequences at a time, and ``tokenize`` and ``lemma`` define the
steps that ``normalize_phrase`` fuses into one pass. The program runs none
of them; its scorer and normalizer are checked against them.

The all-pairs shortest-path oracle is a straight Floyd-Warshall over a dense
numpy matrix — deliberately nothing like the package's BFS, so the two can
check each other. The BFS reference searches anew for each pair and stops at
its one target, where the package's search serves every target of a source
in one sweep; both must give each target the same path and tie-break. The
brute-force path oracle states that tie-break as a property: it lists every
shortest path and takes the lexicographically smallest node sequence. The
greedy pairing oracle, ``reference_counts``, runs ``pair_count`` on the
phrase and each entry in turn over character sets, where the package's
scorer counts shared characters for all rows at once in bitmasks and pairs
every entry at once over entry bitmasks. The JSON report oracle is the
standard library's generic indenting encoder over a plain dict of the
report, where the package writes the report's fixed schema directly.
"""

from __future__ import annotations

import json
import re
from typing import Mapping

import numpy as np

from onto_enrich.errors import EmptySequenceError, UnknownConceptError
from onto_enrich.ontology import OntologyGraph
from onto_enrich.pathfinder import DEFAULT_MAX_DEPTH, PathResult
from onto_enrich.report import Report

INF = np.inf


def char_jaccard(a: str, b: str) -> float:
    """Jaccard coefficient of the distinct-character sets of two lemmas.

    1.0 when both are empty; 0.0 when the alphabets are disjoint.
    """
    sa = set(a)
    sb = set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def pair_count(a: tuple[str, ...], b: tuple[str, ...], word_threshold: float) -> int:
    """Pairs the greedy fuzzy overlap of two lemma sequences makes.

    Tokens of ``a`` are taken in order; each pairs with the not-yet-paired
    token of ``b`` of maximal char_jaccard among those >= word_threshold
    (ties resolve to the earliest position in ``b``).
    """
    taken = [False] * len(b)
    m = 0
    for ta in a:
        best_k = -1
        best_cj = -1.0
        for k, tb in enumerate(b):
            if taken[k]:
                continue
            cj = char_jaccard(ta, tb)
            if cj >= word_threshold and cj > best_cj:
                best_cj = cj
                best_k = k
        if best_k >= 0:
            taken[best_k] = True
            m += 1
    return m


def seq_similarity(a: tuple[str, ...], b: tuple[str, ...], word_threshold: float) -> float:
    """Greedy fuzzy-overlap score of two non-empty lemma sequences.

    With m = ``pair_count(a, b, word_threshold)`` matched pairs the score is
    m / (|a| + |b| - m).
    """
    if not a or not b:
        raise EmptySequenceError("seq_similarity requires non-empty sequences")
    m = pair_count(a, b, word_threshold)
    return m / (len(a) + len(b) - m)


def reference_counts(phrase: tuple[str, ...], entries: list[tuple[str, ...]],
                     word_threshold: float) -> tuple[list[int], list[int]]:
    """Per-entry lists (m, d) of a phrase against lemma sequences: m is
    ``pair_count`` and d is |A| + |B| - m."""
    m = [pair_count(phrase, entry, word_threshold) for entry in entries]
    return m, [len(phrase) + len(entry) - mj for mj, entry in zip(m, entries)]


def tokenize(text: str) -> list[str]:
    """Split ``text`` into case-folded alphanumeric tokens, order preserved.

    Maximal runs of Unicode letters and digits are tokens; everything else
    (hyphens, apostrophes, underscores, punctuation, whitespace) separates.

    >>> tokenize("Triangle's mid-line")
    ['triangle', 's', 'mid', 'line']
    """
    return [m.group().casefold() for m in re.finditer(r"[^\W_]+", text)]


def lemma(lexicon: Mapping[str, str], surface: str) -> str:
    """The lexicon's lemma for ``surface``, or ``surface`` itself if absent."""
    return lexicon.get(surface, surface)


def floyd_warshall(n_nodes: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Dense all-pairs shortest-path lengths of an undirected unit-cost graph."""
    dist = np.full((n_nodes, n_nodes), INF)
    np.fill_diagonal(dist, 0.0)
    for a, b in edges:
        dist[a, b] = 1.0
        dist[b, a] = 1.0
    for k in range(n_nodes):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def graph_distances(graph: OntologyGraph, hierarchical_only: bool) -> dict[tuple[str, str], float]:
    """Oracle distances between every concept pair under one edge filter."""
    iris = sorted(graph.concepts)
    position = {iri: i for i, iri in enumerate(iris)}
    edges = [
        (position[e.subject], position[e.object])
        for e in graph.edges
        if not hierarchical_only or e.predicate in graph.hierarchical_predicates
    ]
    dist = floyd_warshall(len(iris), edges)
    return {(a, b): dist[position[a], position[b]] for a in iris for b in iris}


def bfs_path_reference(
    graph: OntologyGraph,
    src: str,
    dst: str,
    hierarchical: bool,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> PathResult | None:
    """BFS shortest path of length <= max_depth, or None if out of reach.

    With ``hierarchical`` set, only edges under the graph's hierarchy
    predicates count. Edges are traversed as undirected. Among equal-length
    paths the result is the one BFS reaches first when every node expands
    its neighbors in ascending (neighbor iri, predicate iri) order, which
    pins the output byte-for-byte across runs. The adjacency is built here from
    ``graph.edges``, apart from the graph's own search tables.
    """
    if src not in graph.concepts:
        raise UnknownConceptError(f"unknown concept <{src}>")
    if dst not in graph.concepts:
        raise UnknownConceptError(f"unknown concept <{dst}>")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if src == dst:
        return PathResult(0, (src,), ())

    adjacency: dict[str, set[tuple[str, str]]] = {}
    for subject, predicate, obj in graph.edges:
        if not hierarchical or predicate in graph.hierarchical_predicates:
            adjacency.setdefault(subject, set()).add((obj, predicate))
            adjacency.setdefault(obj, set()).add((subject, predicate))
    came_from: dict[str, tuple[str, str]] = {src: ("", "")}
    frontier = [src]
    for _ in range(max_depth):
        next_frontier: list[str] = []
        for node in frontier:
            for neighbor, predicate in sorted(adjacency.get(node, ())):
                if neighbor in came_from:
                    continue
                came_from[neighbor] = (node, predicate)
                if neighbor == dst:
                    return _reconstruct(came_from, src, dst)
                next_frontier.append(neighbor)
        if not next_frontier:
            return None
        frontier = next_frontier
    return None


def lexmin_shortest_path(
    graph: OntologyGraph,
    src: str,
    dst: str,
    hierarchical: bool,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> PathResult | None:
    """The reported path by its definition, or None if out of reach.

    Lists every path of the shortest length <= max_depth over the graph's
    edges, traversed as undirected, and takes the lexicographically smallest
    node sequence; each step takes the smallest predicate joining its two
    nodes among the traversed edges. Exponential in the path length: small
    graphs only.
    """
    joining: dict[str, dict[str, set[str]]] = {}
    for subject, predicate, obj in graph.edges:
        if not hierarchical or predicate in graph.hierarchical_predicates:
            joining.setdefault(subject, {}).setdefault(obj, set()).add(predicate)
            joining.setdefault(obj, {}).setdefault(subject, set()).add(predicate)
    paths = [(src,)]
    for _ in range(max_depth + 1):
        reached = [path for path in paths if path[-1] == dst]
        if reached:
            nodes = min(reached)
            predicates = tuple(min(joining[a][b]) for a, b in zip(nodes, nodes[1:]))
            return PathResult(len(predicates), nodes, predicates)
        paths = [path + (node,) for path in paths
                 for node in joining.get(path[-1], ()) if node not in path]
    return None


def _reconstruct(came_from: dict[str, tuple[str, str]], src: str, dst: str) -> PathResult:
    nodes = [dst]
    predicates = []
    node = dst
    while node != src:
        node, predicate = came_from[node]
        nodes.append(node)
        predicates.append(predicate)
    nodes.reverse()
    predicates.reverse()
    return PathResult(len(predicates), tuple(nodes), tuple(predicates))


def random_typed_graph(rng, max_nodes: int = 50, edge_prob: float = 0.1) -> OntologyGraph:
    """Random undirected typed graph with a random hierarchical edge subset.

    Every node carries a label triple so isolated nodes stay in the graph.
    """
    from onto_enrich.ontology import Literal, build_graph

    n = rng.randint(2, max_nodes)
    nodes = [f"n:{i:02d}" for i in range(n)]
    triples = [(iri, "rdfs:label", Literal(iri[2:], "en")) for iri in nodes]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                predicate = "p:hier" if rng.random() < 0.5 else "p:cross"
                subject, obj = (nodes[i], nodes[j]) if rng.random() < 0.5 else (nodes[j], nodes[i])
                triples.append((subject, predicate, obj))
    return build_graph(triples, hierarchical_predicates={"p:hier"})


def _path_dict(path: PathResult | None):
    if path is None:
        return None
    return {
        "length": path.length,
        "nodes": list(path.nodes),
        "predicates": list(path.predicates),
    }


def report_dict(report: Report) -> dict:
    """The report as plain JSON values, keys in the report's documented order."""
    config = report.config
    return {
        "tool": "onto-enrich",
        "version": report.version,
        "config": {
            "ontology": config.ontology,
            "corpus": config.corpus,
            "lexicon": config.lexicon,
            "stoplist": config.stoplist,
            "word_threshold": config.match.word_threshold,
            "seq_threshold": config.match.seq_threshold,
            "max_depth": config.max_depth,
            "label_predicates": list(config.label_predicates),
            "hierarchical_predicates": list(config.hierarchical_predicates),
            "label_lang": config.label_lang,
            "format": config.format,
            "optimal_only": config.optimal_only,
        },
        "records": [
            {
                "concept_a": r.concept_a,
                "concept_b": r.concept_b,
                "optimal": r.optimal,
                "hierarchical": _path_dict(r.hierarchical),
                "full": _path_dict(r.full),
                "question_ids": list(r.question_ids),
            }
            for r in report.records
        ],
        "matches": [
            {
                "question_id": m.question_id,
                "ordinal": m.phrase.ordinal,
                "kind": m.phrase.kind.value,
                "source": m.phrase.source.value,
                "phrase": m.phrase.raw,
                "concept": m.concept_iri,
                "label": m.matched_label,
                "score": m.score,
            }
            for m in report.matches
        ],
        "warnings": list(report.warnings),
    }


def json_report_reference(report: Report) -> bytes:
    """The JSON report bytes as the standard library's encoder writes them."""
    return (json.dumps(report_dict(report), ensure_ascii=False, indent=2) + "\n").encode("utf-8")
