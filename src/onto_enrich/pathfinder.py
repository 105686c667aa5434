"""Shortest connections between matched concepts, hierarchical vs. full.

Both searches are breadth-first over undirected edges (hierarchy links are
climbed in either direction), capped at a maximum depth. ``paths_from``
takes ``hierarchical``: True admits only the graph's hierarchy predicates,
False admits every edge. One search per source concept and value of
``hierarchical`` serves all of that source's pairs. A concept pair is
an "optimal connection" when the shortest path over every relation type is
strictly shorter than the shortest hierarchical-only path — the signal that
a direct cross-relation is worth proposing to the ontology experts.
"""

import itertools
from typing import Iterable, Mapping, NamedTuple

from .errors import UnknownConceptError
from .matcher import ConceptMatch
from .ontology import OntologyGraph

DEFAULT_MAX_DEPTH = 6


class PathResult(NamedTuple):
    """A concrete path: length in edges, node chain, predicate chain."""

    length: int
    nodes: tuple[str, ...]
    predicates: tuple[str, ...]


class ConnectionRecord(NamedTuple):
    """Hierarchical and full shortest paths for one concept pair.

    ``concept_a`` sorts before ``concept_b``; ``optimal`` is set exactly when
    both paths exist and the full path is strictly shorter.
    """

    concept_a: str
    concept_b: str
    hierarchical: PathResult | None
    full: PathResult | None
    optimal: bool
    question_ids: tuple[str, ...]


def paths_from(
    graph: OntologyGraph,
    src: str,
    targets: Iterable[str],
    hierarchical: bool,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> dict[str, PathResult]:
    """Shortest paths of length <= max_depth from ``src`` to each target.

    With ``hierarchical`` set, only edges under the graph's hierarchy
    predicates are traversed; otherwise every edge is. Edges are traversed
    as undirected; targets out of reach are absent from the result. Of all
    shortest paths to a target, the result is the one whose node sequence
    is lexicographically smallest, and each of its steps takes the smallest
    predicate joining its two nodes among the traversed edges.
    One breadth-first search serves every target, stopping once all are
    discovered or the depth cap is reached. It runs over the graph's concept
    numbers, whose order is IRI order: it expands each node's distinct
    neighbours in ascending order (``graph.near``) and fixes a node's
    predecessor at first discovery, so every level's frontier is in the
    order of its nodes' paths and each node gets that smallest path. Numbers
    become IRIs, and steps predicates (``graph.step``), only when a found
    path is rebuilt.
    """
    targets = list(targets)
    number = graph.number
    for iri in (src, *targets):
        if iri not in number:
            raise UnknownConceptError(f"unknown concept <{iri}>")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    near = graph.near[hierarchical]
    start = number[src]
    pending = {number[t] for t in targets}
    pending.discard(start)
    remaining = len(pending)
    came = [-1] * len(near)  # each reached node's predecessor; the source's is itself
    came[start] = start
    frontier = [start]
    for _ in range(max_depth):
        if not remaining or not frontier:
            break
        next_frontier: list[int] = []
        for node in frontier:
            for neighbor in near[node]:
                if came[neighbor] < 0:
                    came[neighbor] = node
                    next_frontier.append(neighbor)
                    if neighbor in pending:
                        remaining -= 1
            if not remaining:
                break
        frontier = next_frontier

    iris, step = graph.iris, graph.step[hierarchical]
    found = {}
    for target in targets:
        node = number[target]
        if came[node] >= 0 and target not in found:
            nodes = [node]
            while node != start:
                node = came[node]
                nodes.append(node)
            nodes.reverse()
            predicates = tuple(step[a][near[a].index(b)] for a, b in zip(nodes, nodes[1:]))
            found[target] = PathResult(len(predicates), tuple(iris[i] for i in nodes), predicates)
    return found


def enumerate_pairs(matches: list[ConceptMatch]) -> list[tuple[str, str, str]]:
    """All unordered concept pairs co-occurring in one question's matches.

    Pairs come out as (smaller iri, larger iri, question id); fewer than two
    distinct concepts yield nothing.
    """
    if not matches:
        return []
    question_id = matches[0].question_id
    iris = sorted({m.concept_iri for m in matches})
    return [(a, b, question_id) for a, b in itertools.combinations(iris, 2)]


def compare_from(
    graph: OntologyGraph,
    src: str,
    question_ids: Mapping[str, tuple[str, ...]],
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[ConnectionRecord]:
    """One record per pair (src, dst), for each dst of ``question_ids`` in order.

    ``question_ids`` maps each dst to the question ids its record carries.
    ``src`` must not sort after any dst, so that it is each pair's
    ``concept_a``. One hierarchical and one full search from ``src`` serve
    every pair.
    """
    if any(dst < src for dst in question_ids):
        raise ValueError(f"every dst must sort at or after src <{src}>")
    hierarchical = paths_from(graph, src, question_ids, True, max_depth)
    full = paths_from(graph, src, question_ids, False, max_depth)
    records = []
    for dst, ids in question_ids.items():
        hier_path, full_path = hierarchical.get(dst), full.get(dst)
        optimal = (
            hier_path is not None
            and full_path is not None
            and full_path.length < hier_path.length
        )
        records.append(ConnectionRecord(src, dst, hier_path, full_path, optimal, ids))
    return records
