import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onto_enrich.errors import (
    InvalidUtf8Error,
    MalformedTripleError,
    OntoEnrichError,
    SelfLoopEdgeError,
    UnterminatedLiteralError,
)
from onto_enrich.ontology import (
    Literal,
    OntologyGraph,
    RelationEdge,
    _match_line,
    _scan_line,
    build_graph,
    build_label_index,
    local_name,
    parse_triples,
)
from onto_enrich.textnorm import DEFAULT_STOPLIST, decode_lines


def hierarchical_edges(graph):
    return tuple(e for e in graph.edges if e.predicate in graph.hierarchical_predicates)


def smallest_joining(graph, hierarchical_only):
    """{(a, b): the smallest predicate joining IRIs a and b}, both ways,
    read from the edges under one filter."""
    joining = {}
    for e in hierarchical_edges(graph) if hierarchical_only else graph.edges:
        for pair in ((e.subject, e.object), (e.object, e.subject)):
            joining[pair] = min(joining.get(pair, e.predicate), e.predicate)
    return joining


def search_tables(graph, hierarchical_only):
    """The graph's search tables under one filter, by IRI: {a: ((b,
    predicate), ...)} with each row as ``near`` orders it."""
    iris = graph.iris
    near, step = graph.near[hierarchical_only], graph.step[hierarchical_only]
    return {iris[i]: tuple((iris[j], p) for j, p in zip(near[i], step[i], strict=True))
            for i in range(len(iris))}


def literal_labels(graph, iri):
    """The labels of ``iri``, checked to be a tuple of Literal records."""
    labels = graph.concepts[iri]
    assert type(labels) is tuple and all(type(l) is Literal for l in labels)
    return labels


class TestParseTriples:
    def test_object_triple(self):
        triples = parse_triples(b"<c:Square> <rdfs:subClassOf> <c:Quadrilateral> .\n")
        assert triples == [("c:Square", "rdfs:subClassOf", "c:Quadrilateral")]

    def test_literal_triple_with_tag(self):
        triples = parse_triples(b'<c:Square> <rdfs:label> "square"@en .\n')
        assert triples == [("c:Square", "rdfs:label", Literal("square", "en"))]

    def test_literal_without_tag(self):
        (triple,) = parse_triples(b'<c:X> <c:note> "plain" .\n')
        assert triple[2] == Literal("plain", None)

    def test_blank_line_skipped(self):
        data = b'<a:S> <a:p> <a:O> .\n\n<a:S> <rdfs:label> "s"@en .\n'
        assert len(parse_triples(data)) == 2

    def test_comment_lines_skipped(self):
        assert parse_triples(b"# nothing here\n") == []

    def test_literal_escapes(self):
        (triple,) = parse_triples(b'<a:S> <a:p> "say \\"hi\\"\\n\\\\" .\n')
        assert triple[2].text == 'say "hi"\n\\'

    def test_missing_dot(self):
        with pytest.raises(MalformedTripleError) as exc:
            parse_triples(b"<a:S> <a:p> <a:O>\n")
        assert exc.value.line == 1

    def test_unterminated_literal(self):
        with pytest.raises(UnterminatedLiteralError) as exc:
            parse_triples(b'# header\n<a:S> <a:p> "never closes .\n')
        assert exc.value.line == 2

    def test_trailing_garbage(self):
        with pytest.raises(MalformedTripleError):
            parse_triples(b"<a:S> <a:p> <a:O> . extra\n")

    def test_whitespace_in_iri(self):
        with pytest.raises(MalformedTripleError):
            parse_triples(b"<a b> <a:p> <a:O> .\n")

    def test_empty_language_tag(self):
        with pytest.raises(MalformedTripleError):
            parse_triples(b'<a:S> <a:p> "x"@ .\n')

    def test_line_numbers_count_comments(self):
        with pytest.raises(MalformedTripleError) as exc:
            parse_triples(b"# one\n# two\nbroken\n")
        assert exc.value.line == 3

    def test_datatype_literal_named_with_column(self):
        with pytest.raises(MalformedTripleError) as exc:
            parse_triples(b'<a:S> <a:p> <a:O> .\n<a:S> <a:p> "x"^^<xsd:string> .\n')
        assert exc.value.line == 2
        assert "datatype literals are not supported" in str(exc.value)
        assert "column 16" in str(exc.value)

    def test_non_utf8_named_with_line_and_column(self):
        data = b'<a:S> <a:p> "\xc3\xa9t\xc3\xa9" .\n<a:S> <a:p> "caf\xe9" .\n'
        with pytest.raises(InvalidUtf8Error) as exc:
            parse_triples(data)
        assert (exc.value.line, exc.value.column) == (2, 17)
        assert str(exc.value) == "invalid UTF-8 byte 0xe9 (line 2, column 17)"

    def test_byte_order_mark_dropped(self):
        assert parse_triples(b"\xef\xbb\xbf<a:S> <a:p> <a:O> .\n") == [("a:S", "a:p", "a:O")]


# Line fragments near the edges of the triple grammar: whitespace that is
# and is not skipped between terms, IRIs with and without forbidden
# characters, literal pieces with good and bad escapes, language tags that
# do and do not hold only alphanumerics and '-', and stray punctuation.
_WS = st.sampled_from(["", " ", "\t", " \t "])
_BAD_WS = st.sampled_from(["\u00a0", "\u2028", "\u3000", "\x0b", "\x1c"])
_IRIS = st.text(alphabet="ab:/#.-_\"\\@^é𝔸", min_size=1, max_size=4).map(lambda body: f"<{body}>")
_BAD_IRIS = st.one_of(
    st.sampled_from(["a\u00a0", "\u2028", "a\tb", "\x1c", "\u3000b", "a<", "<"]).map(
        lambda body: f"<{body}>"),
    st.sampled_from(["<", "<a", "a:b>", "<>", "<a b>", "<a<b>"]),
)
_PIECES = st.sampled_from([
    "a", "é", "𝔸", " ", ".", "<", "#", "@", "\t", "\u00a0", "\u2028",
    '\\"', "\\\\", "\\n", "\\t", "\\r",
])
_BAD_PIECES = st.sampled_from(["\\x", "\\u", "\\", '"', "\\ "])
_LANGS = st.sampled_from(["", "@en", "@en-US", "@ru1", "@-", "@é", "@𝔸", "@²", "@ⅷ٣"])
_BAD_LANGS = st.one_of(
    st.sampled_from(["@", "@ ", "@_x", "@x_", "@.", "^^<x:t>", "^", "@en@"]),
    st.text(alphabet="ab1-_²ⅷ٣ª.", max_size=4).map(lambda tag: "@" + tag),
)
_ENDS = st.sampled_from([" .", ".", "\t.\t", ". ", ".\u00a0", ".\u2028", ".\x0b"])
_BAD_ENDS = st.sampled_from(["", " ", " . x", "..", " .#", ".\u00a0x", "\u00a0."])
_GARBAGE = st.sampled_from([".", "^^", "#", "<", ">", '"', "x", "\\", "@", " . ", "\u00a0", "\x00"])


@st.composite
def _triple_lines(draw):
    """Triple-shaped lines with each part, now and then, a near miss."""
    def part(good, bad):
        return draw(bad if draw(st.integers(0, 9)) == 0 else good)

    def term():
        return part(_IRIS, _BAD_IRIS)

    def obj():
        if not draw(st.booleans()):
            return term()
        body = "".join(part(_PIECES, _BAD_PIECES) for _ in range(draw(st.integers(0, 4))))
        return '"' + body + part(st.just('"'), st.just("")) + part(_LANGS, _BAD_LANGS)

    return "".join([
        part(_WS, _BAD_WS), term(), part(_WS, _BAD_WS), term(), part(_WS, _BAD_WS),
        obj(), part(_WS, _BAD_WS), part(_ENDS, _BAD_ENDS),
    ])


_FRAGMENT_LINES = st.lists(
    st.one_of(_WS, _BAD_WS, _IRIS, _BAD_IRIS, _PIECES, _LANGS, _BAD_LANGS, _ENDS, _GARBAGE),
    max_size=8,
).map("".join)
_LINES = st.one_of(
    _triple_lines(), _FRAGMENT_LINES, st.sampled_from(["", "  ", "# c", "\t# <a> <b> <c> ."]))


def _scanned(line: str):
    """The scanner's triple for ``line``, or its error as (type, message)."""
    try:
        return _scan_line(line, 7), None
    except MalformedTripleError as exc:
        return None, (type(exc), str(exc))


def _scan_reference(data: bytes):
    """parse_triples with the scanner on every line, or its error."""
    triples = []
    try:
        for lineno, line in enumerate(decode_lines(data), start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                triples.append(_scan_line(line, lineno))
    except OntoEnrichError as exc:
        return None, (type(exc), str(exc))
    return triples, None


class TestFastPath:
    def test_character_classes_equal_scanner_tests(self):
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall(r"\s", everything)) == {c for c in everything if c.isspace()}
        assert set(re.findall(r"[^\W_]", everything)) == {c for c in everything if c.isalnum()}

    @settings(max_examples=600, deadline=None)
    @given(_LINES)
    @example('\u00a0<a:S> <a:p> <a:O> .')
    @example('<a:S> <a:p\u00a0> <a:O> .')
    @example('<a:S>\u00a0<a:p> <a:O> .')
    @example('<a:S> <a:p> <a:O> .\u00a0\u2028 ')
    @example('<a:S> <a:p> "x"@en-US\t.')
    @example('<a:S> <a:p> "x"@en_US .')
    @example('<a:S> <a:p> "a\\"b\\\\"@ .')
    @example('<a:S><a:p>"\\n"@ru.')
    def test_accepts_exactly_the_scanners_lines(self, line):
        triple, error = _scanned(line)
        assert _match_line(line) == triple
        assert (triple is None) == (error is not None)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_LINES, max_size=6), st.sampled_from(["\n", "\r\n", "\r", "\u2028"]))
    def test_parse_triples_equals_scanner(self, lines, newline):
        data = newline.join(lines).encode("utf-8")
        expected, error = _scan_reference(data)
        if error is None:
            assert parse_triples(data) == expected
        else:
            with pytest.raises(error[0]) as exc:
                parse_triples(data)
            assert str(exc.value) == error[1]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        st.builds(lambda a, b, c: a.encode("utf-8") + b + c.encode("utf-8"),
                  _LINES, st.binary(max_size=3), _LINES),
    ))
    def test_arbitrary_bytes_parse_or_name_a_line(self, data):
        try:
            triples = parse_triples(data)
        except OntoEnrichError as exc:
            assert exc.line >= 1
            assert f"(line {exc.line}" in str(exc)
        else:
            assert isinstance(triples, list)


class TestLocalName:
    @pytest.mark.parametrize("iri,expected", [
        ("c:RightAngle", "RightAngle"),
        ("http://example.org/onto#Angle", "Angle"),
        ("http://example.org/onto/Angle", "Angle"),
        ("plain", "plain"),
    ])
    def test_cases(self, iri, expected):
        assert local_name(iri) == expected


class TestBuildGraph:
    def test_single_hierarchical_edge(self):
        graph = build_graph([("c:A", "rdfs:subClassOf", "c:B")])
        assert set(graph.concepts) == {"c:A", "c:B"}
        assert len(graph.edges) == 1
        assert hierarchical_edges(graph) == graph.edges

    def test_edge_classification(self):
        graph = build_graph([
            ("c:A", "rdfs:subClassOf", "c:B"),
            ("c:A", "c:relatesTo", "c:C"),
        ])
        assert len(graph.edges) == 2
        assert len(hierarchical_edges(graph)) == 1

    def test_local_name_fallback(self):
        graph = build_graph([("c:RightAngle", "rdfs:subClassOf", "c:Angle")])
        assert literal_labels(graph, "c:RightAngle") == (Literal("RightAngle", None),)
        assert literal_labels(graph, "c:Angle") == (Literal("Angle", None),)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopEdgeError):
            build_graph([("c:A", "c:p", "c:A")])

    def test_duplicate_edges_collapse(self):
        graph = build_graph([
            ("c:A", "c:p", "c:B"),
            ("c:A", "c:p", "c:B"),
        ])
        assert len(graph.edges) == 1

    def test_label_only_subject_is_concept(self):
        graph = build_graph([("c:Lonely", "rdfs:label", Literal("Lonely one", "en"))])
        assert set(graph.concepts) == {"c:Lonely"}
        assert literal_labels(graph, "c:Lonely") == (Literal("Lonely one", "en"),)
        for hier in (True, False):
            assert graph.near[hier][graph.number["c:Lonely"]] == ()
            assert graph.step[hier][graph.number["c:Lonely"]] == ()

    def test_non_label_literal_registers_subject_only(self):
        graph = build_graph([("c:A", "c:comment", Literal("note", None))])
        assert set(graph.concepts) == {"c:A"}
        assert graph.edges == ()

    def test_language_filter(self):
        triples = [
            ("c:T", "rdfs:label", Literal("Triangle", "en")),
            ("c:T", "rdfs:label", Literal("Треугольник", "ru")),
        ]
        assert literal_labels(build_graph(triples), "c:T") == tuple(l for _, _, l in triples)
        graph = build_graph(triples, label_lang="en")
        assert literal_labels(graph, "c:T") == (Literal("Triangle", "en"),)
        # all labels filtered out: fall back to the local name
        graph_de = build_graph(triples, label_lang="de")
        assert literal_labels(graph_de, "c:T") == (Literal("T", None),)

    def test_duplicate_labels_collapse_in_first_seen_order(self):
        triples = [
            ("c:T", "rdfs:label", Literal("Trigon", "en")),
            ("c:T", "rdfs:label", Literal("Triangle", "en")),
            ("c:T", "rdfs:label", Literal("Trigon", "en")),
            ("c:T", "rdfs:label", Literal("Trigon", None)),
            ("c:T", "rdfs:label", Literal("", "en")),
            ("c:T", "c:comment", Literal("note", "en")),
        ]
        assert literal_labels(build_graph(triples), "c:T") == (
            Literal("Trigon", "en"), Literal("Triangle", "en"), Literal("Trigon", None))
        assert literal_labels(build_graph(triples, label_lang="en"), "c:T") == (
            Literal("Trigon", "en"), Literal("Triangle", "en"))

    def test_deterministic(self):
        data = (b'<c:B> <rdfs:subClassOf> <c:A> .\n'
                b'<c:B> <rdfs:label> "Bee"@en .\n'
                b'<c:C> <c:relatesTo> <c:B> .\n')
        assert build_graph(parse_triples(data)) == build_graph(parse_triples(data))

    def test_fixture_hierarchy_subset_of_full(self, fixture_graph):
        assert set(hierarchical_edges(fixture_graph)) <= set(fixture_graph.edges)
        assert fixture_graph.hierarchical_predicates == {"rdfs:subClassOf", "ome:hasChild"}

    def test_neighbors_sorted(self, fixture_graph):
        # concepts numbered in IRI order; rows ascending and distinct; each
        # step the smallest predicate joining its nodes under the filter,
        # also where parallel edges arrive out of order
        parallel = (RelationEdge("c:Square", "ome:zz", "c:Rhombus"),
                    RelationEdge("c:Rhombus", "ome:aa", "c:Square"),
                    RelationEdge("c:Square", "rdfs:subClassOf", "c:Rhombus"))
        graphs = (fixture_graph, OntologyGraph(fixture_graph.concepts,
                                               parallel + fixture_graph.edges,
                                               fixture_graph.hierarchical_predicates))
        for graph in graphs:
            assert graph.iris == tuple(sorted(graph.concepts))
            assert graph.number == {iri: i for i, iri in enumerate(graph.iris)}
            for hier in (True, False):
                for i, row in enumerate(graph.near[hier]):
                    assert list(row) == sorted(set(row))
                    assert len(graph.step[hier][i]) == len(row)
                tables = search_tables(graph, hier)
                assert {(a, b): p for a, row in tables.items() for b, p in row} == \
                    smallest_joining(graph, hier)
        assert search_tables(graphs[1], False)["c:Square"][-1] == ("c:Rhombus", "ome:aa")

    def test_replace_leaves_the_original_intact(self):
        graph = build_graph(parse_triples(b"<a> <p> <b> .\n<b> <p> <c> .\n"))
        copy = OntologyGraph(graph.concepts, graph.edges[:1], graph.hierarchical_predicates)
        assert search_tables(graph, False)["b"] == (("a", "p"), ("c", "p"))
        assert search_tables(copy, False)["b"] == (("a", "p"),)
        assert search_tables(copy, False)["c"] == ()
        assert copy.edge_set == {("a", "p", "b")}
        assert graph.edge_set == {("a", "p", "b"), ("b", "p", "c")}


class TestBuildLabelIndex:
    def test_fixture_entries(self, fixture_index):
        by_pair = {(e.iri, e.label): e.lemmas for e in fixture_index.entries}
        assert by_pair[("c:TriangleMiddleLine", "Triangle middle line")] == \
            ("triangle", "middle", "line")
        assert by_pair[("c:RightAngle", "Right angle")] == ("right", "angle")
        assert by_pair[("c:Diagonal", "Diagonal of the polygon")] == ("diagonal", "polygon")

    def test_sorted_by_iri_and_label(self, fixture_index):
        keys = [(e.iri, e.label) for e in fixture_index.entries]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_entries_reference_known_concepts(self, fixture_graph, fixture_index):
        for entry in fixture_index.entries:
            assert entry.iri in fixture_graph.concepts
            assert entry.lemmas

    def test_stoplisted_label_warns_and_drops(self):
        graph = build_graph([("c:X", "rdfs:label", Literal("of the", None))])
        warnings = []
        index = build_label_index(
            graph, {}, DEFAULT_STOPLIST, on_warning=warnings.append)
        assert index.entries == ()
        assert len(warnings) == 1 and "of the" in warnings[0]

    def test_multiple_labels_all_indexed(self, fixture_index):
        labels = [e.label for e in fixture_index.entries if e.iri == "c:TriangleMiddleLine"]
        assert labels == ["Midline of a triangle", "Triangle middle line"]

    def test_empty_stoplist_keeps_everything(self, fixture_graph, fixture_lexicon):
        index = build_label_index(fixture_graph, fixture_lexicon, frozenset())
        by_pair = {(e.iri, e.label): e.lemmas for e in index.entries}
        assert by_pair[("c:Diagonal", "Diagonal of the polygon")] == \
            ("diagonal", "of", "the", "polygon")
