import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onto_enrich.corpus import MarkedPhrase, PhraseKind, PhraseSource
from onto_enrich.errors import UnknownConceptError
from onto_enrich.matcher import ConceptMatch
from onto_enrich.ontology import Literal, OntologyGraph, RelationEdge, build_graph
from onto_enrich.pathfinder import (
    DEFAULT_MAX_DEPTH,
    PathResult,
    compare_from,
    enumerate_pairs,
    paths_from,
)
from onto_enrich.pipeline import _compare_all
from oracles import (
    bfs_path_reference,
    graph_distances,
    lexmin_shortest_path,
    random_typed_graph,
)
from support import counting_searches


def _chain_graph():
    return build_graph([
        ("c:A", "rdfs:subClassOf", "c:B"),
        ("c:B", "rdfs:subClassOf", "c:C"),
    ])


def _path(graph, src, dst, hierarchical, max_depth=DEFAULT_MAX_DEPTH):
    return paths_from(graph, src, (dst,), hierarchical, max_depth).get(dst)


def _match(iri: str, qid: str = "q1", ordinal: int = 0) -> ConceptMatch:
    phrase = MarkedPhrase(qid, PhraseKind.NP, iri, PhraseSource.QUESTION_TEXT, ordinal)
    return ConceptMatch(qid, phrase, iri, iri, 1.0)


class TestShortestPath:
    def test_reflexive(self):
        graph = _chain_graph()
        result = _path(graph, "c:A", "c:A", False)
        assert result == PathResult(0, ("c:A",), ())

    def test_chain(self):
        graph = _chain_graph()
        result = _path(graph, "c:A", "c:C", True, 6)
        assert result.length == 2
        assert result.nodes == ("c:A", "c:B", "c:C")
        assert result.predicates == ("rdfs:subClassOf", "rdfs:subClassOf")

    def test_undirected_traversal(self):
        graph = _chain_graph()
        # subClassOf edges point A->B->C; search climbs them backwards too
        result = _path(graph, "c:C", "c:A", True)
        assert result.length == 2
        assert result.nodes == ("c:C", "c:B", "c:A")

    def test_filter_blocks_cross_edges(self):
        graph = build_graph([
            ("c:A", "rdfs:subClassOf", "c:B"),
            ("c:A", "c:relatesTo", "c:C"),
        ])
        assert _path(graph, "c:A", "c:C", True) is None
        assert _path(graph, "c:A", "c:C", False).length == 1

    def test_fixture_detour(self, fixture_graph):
        pair = ("c:Perpendicular", "c:TriangleMiddleLine")
        hier = _path(fixture_graph, *pair, True, 6)
        full = _path(fixture_graph, *pair, False, 6)
        assert hier.length == 4
        assert full.length == 3
        oracle = graph_distances(fixture_graph, hierarchical_only=False)
        assert full.length == oracle[pair]

    def test_max_depth_cap(self, fixture_graph):
        pair = ("c:OppositeAnglesOfQuadrilateral", "c:RightAngle")
        assert _path(fixture_graph, *pair, True, 6).length == 6
        assert _path(fixture_graph, *pair, True, 5) is None

    def test_unknown_concept(self, fixture_graph):
        with pytest.raises(UnknownConceptError):
            _path(fixture_graph, "c:Nowhere", "c:Angle", False)
        with pytest.raises(UnknownConceptError):
            _path(fixture_graph, "c:Angle", "c:Nowhere", False)

    def test_max_depth_validated(self, fixture_graph):
        with pytest.raises(ValueError):
            _path(fixture_graph, "c:Angle", "c:Point", False, 0)

    def test_tie_break_ascending_neighbor(self):
        # two equal-length routes A-B1-C and A-B2-C: BFS must pick B1
        graph = build_graph([
            ("c:A", "p:r", "c:B2"),
            ("c:A", "p:r", "c:B1"),
            ("c:B2", "p:r", "c:C"),
            ("c:B1", "p:r", "c:C"),
        ])
        result = _path(graph, "c:A", "c:C", False)
        assert result.nodes == ("c:A", "c:B1", "c:C")

    def test_tie_break_ascending_predicate(self):
        # parallel edges A-B: the smaller predicate is reported
        graph = build_graph([
            ("c:A", "p:zz", "c:B"),
            ("c:A", "p:aa", "c:B"),
        ])
        result = _path(graph, "c:A", "c:B", False)
        assert result.predicates == ("p:aa",)

    def test_deterministic(self, fixture_graph):
        pair = ("c:OppositeAnglesOfQuadrilateral", "c:RightAngle")
        first = _path(fixture_graph, *pair, False)
        second = _path(fixture_graph, *pair, False)
        assert first == second


class TestEnumeratePairs:
    def test_three_choose_two(self):
        matches = [_match("c:X", ordinal=0), _match("c:Y", ordinal=1), _match("c:Z", ordinal=2)]
        assert enumerate_pairs(matches) == [
            ("c:X", "c:Y", "q1"), ("c:X", "c:Z", "q1"), ("c:Y", "c:Z", "q1")]

    def test_single_match(self):
        assert enumerate_pairs([_match("c:X")]) == []

    def test_empty(self):
        assert enumerate_pairs([]) == []

    def test_duplicate_concepts_deduplicated(self):
        assert enumerate_pairs([_match("c:X", ordinal=0), _match("c:X", ordinal=1)]) == []

    def test_pairs_ordered(self):
        matches = [_match("c:Z", ordinal=0), _match("c:A", ordinal=1)]
        assert enumerate_pairs(matches) == [("c:A", "c:Z", "q1")]


class TestCompare:
    def test_equal_lengths_not_optimal(self, fixture_graph):
        record = compare_from(fixture_graph, "c:Rhombus", {"c:Square": ()}, 6)[0]
        assert record.hierarchical.length == record.full.length == 3
        assert record.optimal is False

    def test_engineered_optimal_pair(self, fixture_graph):
        record = compare_from(
            fixture_graph, "c:OppositeAnglesOfQuadrilateral", {"c:RightAngle": ()}, 6)[0]
        assert record.optimal is True
        assert record.full.length == 4
        assert record.hierarchical.length == 6

    def test_hierarchically_disconnected(self, fixture_graph):
        record = compare_from(fixture_graph, "c:PythagoreanTheorem", {"c:RightTriangle": ()}, 6)[0]
        assert record.hierarchical is None
        assert record.full is not None
        assert record.optimal is False

    def test_question_ids_left_empty(self, fixture_graph):
        record = compare_from(fixture_graph, "c:Rhombus", {"c:Square": ()}, 6)[0]
        assert record.question_ids == ()


def _assert_path_valid(graph, path):
    assert len(path.nodes) == path.length + 1
    assert len(path.predicates) == path.length
    edges = {(e.subject, e.predicate, e.object) for e in graph.edges}
    for i, predicate in enumerate(path.predicates):
        a, b = path.nodes[i], path.nodes[i + 1]
        assert (a, predicate, b) in edges or (b, predicate, a) in edges


class TestRandomGraphProperties:
    def test_oracle_symmetry_validity_monotonicity(self):
        rng = random.Random(909)
        for _ in range(15):
            graph = random_typed_graph(rng)
            iris = sorted(graph.concepts)
            n = len(iris)
            for hier in (True, False):
                oracle = graph_distances(graph, hierarchical_only=hier)
                sample = rng.sample(iris, min(8, n))
                for a in sample:
                    for b in sample:
                        result = _path(graph, a, b, hier, n)
                        back = _path(graph, b, a, hier, n)
                        if result is None:
                            assert back is None
                            assert np.isinf(oracle[(a, b)])
                        else:
                            assert result.length == back.length == oracle[(a, b)]
                            _assert_path_valid(graph, result)

    def test_full_never_longer_than_hierarchical(self):
        rng = random.Random(911)
        for _ in range(15):
            graph = random_typed_graph(rng)
            iris = sorted(graph.concepts)
            n = len(iris)
            sample = rng.sample(iris, min(8, n))
            for a in sample:
                for b in sample:
                    if a >= b:
                        continue
                    record = compare_from(graph, a, {b: ()}, n)[0]
                    if record.hierarchical is not None and record.full is not None:
                        assert record.full.length <= record.hierarchical.length


def _edge_lists(n, predicates):
    """Lists of (subject index, object index, predicate) edges over ``n``
    nodes, never a self-loop, long enough to hold every ordered pair with
    every predicate. A list shrinks edge by edge, towards low indexes and
    the first predicate."""
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2), st.sampled_from(predicates))
    return st.lists(edge.map(lambda e: (e[0], e[1] + (e[1] >= e[0]), e[2])),
                    max_size=n * (n - 1) * len(predicates))


def _graph(nodes, edges, hierarchical_predicates):
    """Every node labelled, so isolated nodes stay in the graph."""
    triples = [(iri, "rdfs:label", Literal(iri[2:], "en")) for iri in nodes]
    triples += [(nodes[a], predicate, nodes[b]) for a, b, predicate in edges]
    return build_graph(triples, hierarchical_predicates=hierarchical_predicates)


@st.composite
def typed_graphs(draw):
    """Random graph over n:00.. with hierarchical (p:hier) and cross (p:cross)
    edges; a linked pair carries one of them or both, in either direction or
    both."""
    n = draw(st.integers(2, 12))
    edges = draw(_edge_lists(n, ("p:hier", "p:cross")))
    return _graph([f"n:{i:02d}" for i in range(n)], edges, {"p:hier"})


@st.composite
def queries(draw):
    """(graph, source, targets, max_depth); targets may repeat and may hold
    the source itself, nodes out of reach and nodes beyond the cap."""
    graph = draw(typed_graphs())
    nodes = sorted(graph.concepts)
    src = draw(st.sampled_from(nodes))
    targets = draw(st.lists(st.sampled_from(nodes), max_size=len(nodes) + 2))
    return graph, src, targets, draw(st.integers(1, len(nodes)))


@st.composite
def pair_banks(draw):
    """(graph, max_depth, inserted): a typed graph and some of its node
    pairs, each once with one or two question ids, pairs and ids in the
    order a caller inserts them. Subsets and orders are drawn as lists, so
    a failure shrinks pair by pair."""
    graph = draw(typed_graphs())
    nodes = sorted(graph.concepts)
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(nodes, 2))), unique=True))
    ids = st.lists(st.sampled_from(("q0", "q1", "q2")), min_size=1, max_size=2, unique=True)
    ids_per_pair = draw(st.lists(ids, min_size=len(pairs), max_size=len(pairs)))
    return graph, draw(st.integers(1, len(nodes))), list(zip(pairs, ids_per_pair))


@st.composite
def multigraphs(draw):
    """(graph, max_depth): a random multigraph over n:0.. whose linked pairs
    carry any non-empty set of three predicates, two of them hierarchical,
    each edge in either direction or both."""
    n = draw(st.integers(2, 7))
    edges = draw(_edge_lists(n, ("p:sub", "p:hier", "p:cross")))
    graph = _graph([f"n:{i}" for i in range(n)], edges, {"p:sub", "p:hier"})
    return graph, draw(st.integers(1, n))


@st.composite
def numbered_graphs(draw):
    """(graph, max_depth): a multigraph made with ``OntologyGraph(...)``
    itself, its concepts dict keyed in shuffled order and its edges, parallel
    ones under several predicates among them, in shuffled order too."""
    n = draw(st.integers(2, 7))
    nodes = draw(st.permutations([f"n:{i}" for i in range(n)]))
    predicates = ("p:sub", "p:hier", "p:cross", "p:also")
    edges = draw(_edge_lists(n, predicates).map(set).map(sorted).flatmap(st.permutations))
    concepts = {iri: (Literal(iri[2:]),) for iri in nodes}
    graph = OntologyGraph(concepts, tuple(RelationEdge(nodes[a], p, nodes[b]) for a, b, p in edges),
                          frozenset({"p:sub", "p:hier"}))
    return graph, draw(st.integers(1, n))


# A-B1-C and A-B2-C tie under both filters; B1-C also has two predicates
_TIE_GRAPH = build_graph([
    ("c:A", "p:hier", "c:B2"),
    ("c:A", "p:hier", "c:B1"),
    ("c:B2", "p:hier", "c:C"),
    ("c:B1", "p:hier", "c:C"),
    ("c:C", "p:cross", "c:B1"),
    ("c:D", "p:cross", "c:C"),
], hierarchical_predicates={"p:hier"})
_TIE_QUERY = (_TIE_GRAPH, "c:A", ["c:C", "c:D", "c:B2", "c:A"], 2)
PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)


class TestPathsFrom:
    @PROPERTY_SETTINGS
    @given(queries())
    @example(_TIE_QUERY)
    def test_equals_per_pair_reference(self, query):
        graph, src, targets, max_depth = query
        for hierarchical in (True, False):
            found = paths_from(graph, src, targets, hierarchical, max_depth)
            expected = {t: bfs_path_reference(graph, src, t, hierarchical, max_depth)
                        for t in targets}
            assert found == {t: path for t, path in expected.items() if path is not None}

    def test_tie_break_pinned(self):
        graph, src, targets, max_depth = _TIE_QUERY
        hier = paths_from(graph, src, targets, True, max_depth)
        full = paths_from(graph, src, targets, False, max_depth)
        assert hier["c:C"] == PathResult(2, ("c:A", "c:B1", "c:C"), ("p:hier", "p:hier"))
        assert full["c:C"] == PathResult(2, ("c:A", "c:B1", "c:C"), ("p:hier", "p:cross"))
        assert "c:D" not in hier and "c:D" not in full
        assert hier["c:A"] == full["c:A"] == PathResult(0, ("c:A",), ())

    @PROPERTY_SETTINGS
    @given(queries())
    def test_lengths_match_floyd_warshall_within_cap(self, query):
        graph, src, _, max_depth = query
        everything = sorted(graph.concepts)
        for hierarchical in (True, False):
            oracle = graph_distances(graph, hierarchical)
            found = paths_from(graph, src, everything, hierarchical, max_depth)
            for target in everything:
                if oracle[src, target] <= max_depth:
                    assert found[target].length == oracle[src, target]
                    assert found[target].nodes[0] == src
                    assert found[target].nodes[-1] == target
                    _assert_path_valid(graph, found[target])
                else:
                    assert target not in found

    def test_unknown_concepts_and_depth_checked_before_search(self, fixture_graph):
        with pytest.raises(UnknownConceptError, match="c:Nowhere"):
            paths_from(fixture_graph, "c:Angle", ["c:Point", "c:Nowhere"], False)
        with pytest.raises(ValueError):
            paths_from(fixture_graph, "c:Angle", [], False, 0)

    def test_no_targets(self, fixture_graph):
        assert paths_from(fixture_graph, "c:Angle", [], False) == {}

    @settings(max_examples=200, deadline=None)
    @given(numbered_graphs())
    def test_numbering_keeps_the_lexmin_shortest_path(self, query):
        # the search runs over concept numbers: a path must come out as the
        # one defined over IRIs, whatever order the concepts and edges came in
        graph, max_depth = query
        nodes = list(graph.concepts)
        for src in nodes:
            for hierarchical in (True, False):
                found = paths_from(graph, src, nodes, hierarchical, max_depth)
                for dst in nodes:
                    expected = lexmin_shortest_path(graph, src, dst, hierarchical, max_depth)
                    assert found.get(dst) == expected


class TestCompareFrom:
    @PROPERTY_SETTINGS
    @given(queries())
    @example(_TIE_QUERY)
    def test_equals_compare_per_pair(self, query):
        graph, src, targets, max_depth = query
        dsts = {t: () for t in targets if t >= src}
        assert compare_from(graph, src, dsts, max_depth) == [
            compare_from(graph, src, {dst: ()}, max_depth)[0] for dst in dsts]

    @PROPERTY_SETTINGS
    @given(queries(), st.randoms(use_true_random=False))
    def test_question_ids_set_per_dst(self, query, rng):
        graph, src, targets, max_depth = query
        ids = {t: (f"q{rng.randrange(3)}",) * rng.randrange(3) for t in targets if t >= src}
        assert compare_from(graph, src, ids, max_depth) == [
            record._replace(question_ids=ids[record.concept_b])
            for record in compare_from(graph, src, dict.fromkeys(ids, ()), max_depth)]

    def test_dst_before_src_rejected(self, fixture_graph):
        with pytest.raises(ValueError):
            compare_from(fixture_graph, "c:Square", {"c:Rhombus": ()}, 6)

    @settings(max_examples=200, deadline=None)
    @given(multigraphs())
    @example((_TIE_GRAPH, 2))
    def test_reports_the_lexmin_shortest_path(self, query):
        graph, max_depth = query
        nodes = sorted(graph.concepts)
        for src in nodes:
            for record in compare_from(graph, src, {dst: () for dst in nodes if dst >= src},
                                       max_depth):
                for path, hierarchical in ((record.hierarchical, True), (record.full, False)):
                    assert path == lexmin_shortest_path(
                        graph, src, record.concept_b, hierarchical, max_depth)

    @PROPERTY_SETTINGS
    @given(pair_banks())
    def test_compare_all_orders_pairs_and_question_ids(self, bank):
        # records come by src then dst, each with its pair's ids sorted and
        # compare_from's paths; the memo then answers the same pairs, under
        # the same or other ids, without a search
        graph, max_depth, inserted = bank
        by_source = {}
        for (a, b), ids in inserted:
            by_source.setdefault(a, {})[b] = ids
        expected = sorted(inserted, key=lambda item: item[0])
        kept = {}
        records = _compare_all(graph, by_source, max_depth, kept)
        assert [(r.concept_a, r.concept_b) for r in records] == [pair for pair, _ in expected]
        assert [r.question_ids for r in records] == [tuple(sorted(ids)) for _, ids in expected]
        searched = []
        for src in sorted(by_source):
            ids = {dst: tuple(sorted(qids)) for dst, qids in sorted(by_source[src].items())}
            searched.extend(compare_from(graph, src, ids, max_depth))
        assert records == searched
        assert len(kept) == len(records)
        relabelled = {src: dict.fromkeys(dsts, ["q9"]) for src, dsts in by_source.items()}
        with counting_searches() as searches:
            assert _compare_all(graph, by_source, max_depth, kept) == records
            assert _compare_all(graph, relabelled, max_depth, kept) == [
                record._replace(question_ids=("q9",)) for record in records]
        assert searches == []
