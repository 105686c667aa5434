"""The records are named tuples: what they print, equal, hash and refuse.

``InternalInvariantError`` messages embed a record's repr, so the reprs are
pinned as literals.
"""

import math
from pathlib import PurePosixPath

import pytest

from onto_enrich.corpus import MarkedPhrase, PhraseKind, PhraseSource
from onto_enrich.errors import InternalInvariantError
from onto_enrich.matcher import ConceptMatch
from onto_enrich.ontology import Literal, OntologyGraph, RelationEdge
from onto_enrich.pathfinder import ConnectionRecord, PathResult
from onto_enrich.report import Report, RunConfig, _check_report

PHRASE = MarkedPhrase("q1", PhraseKind.NP, "right angle", PhraseSource.QUESTION_TEXT, 0)
PATH = PathResult(1, ("c:A", "c:B"), ("rdfs:subClassOf",))
RECORD = ConnectionRecord("c:A", "c:B", PATH, PATH, False, ("q1",))

RECORDS = [
    (Literal("square", "en"), "Literal(text='square', lang='en')"),
    (RelationEdge("c:A", "rdfs:subClassOf", "c:B"),
     "RelationEdge(subject='c:A', predicate='rdfs:subClassOf', object='c:B')"),
    (PHRASE,
     "MarkedPhrase(question_id='q1', kind=<PhraseKind.NP: 'NP'>, raw='right angle', "
     "source=<PhraseSource.QUESTION_TEXT: 'question_text'>, ordinal=0)"),
    (ConceptMatch("q1", PHRASE, "c:RightAngle", "right angle", 1.0),
     "ConceptMatch(question_id='q1', phrase=MarkedPhrase(question_id='q1', "
     "kind=<PhraseKind.NP: 'NP'>, raw='right angle', "
     "source=<PhraseSource.QUESTION_TEXT: 'question_text'>, ordinal=0), "
     "concept_iri='c:RightAngle', matched_label='right angle', score=1.0)"),
    (PATH, "PathResult(length=1, nodes=('c:A', 'c:B'), predicates=('rdfs:subClassOf',))"),
    (RECORD,
     "ConnectionRecord(concept_a='c:A', concept_b='c:B', "
     "hierarchical=PathResult(length=1, nodes=('c:A', 'c:B'), "
     "predicates=('rdfs:subClassOf',)), full=PathResult(length=1, nodes=('c:A', 'c:B'), "
     "predicates=('rdfs:subClassOf',)), optimal=False, question_ids=('q1',))"),
    (RunConfig("o.nt", "c.xml"),
     "RunConfig(ontology='o.nt', corpus='c.xml', lexicon=None, stoplist=None, "
     "word_threshold=0.75, seq_threshold=0.5, max_depth=6, "
     "label_predicates=('rdfs:label',), "
     "hierarchical_predicates=('ome:hasChild', 'rdfs:subClassOf'), label_lang=None, "
     "format='json', optimal_only=False)"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_repr_is_pinned(record, text):
    assert repr(record) == text
    assert str(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_value_equality_and_hash(record):
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    assert record == tuple(record)
    assert hash(record) == hash(tuple(record))
    first = type(record)._fields[0]
    assert getattr(record, first) == record[0]


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_attribute_assignment_is_rejected(record):
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_invariant_message_embeds_the_repr():
    graph = OntologyGraph(
        {"c:A": (), "c:B": ()},
        (RelationEdge("c:A", "rdfs:subClassOf", "c:B"),),
        frozenset({"rdfs:subClassOf"}),
    )
    swapped = RECORD._replace(concept_a="c:B", concept_b="c:A")
    report = Report("0", RunConfig("o.nt", "c.xml"), (swapped,), (), ())
    with pytest.raises(InternalInvariantError) as exc:
        _check_report(report, graph)
    assert str(exc.value) == (
        "unordered pair in ConnectionRecord(concept_a='c:B', concept_b='c:A', "
        "hierarchical=PathResult(length=1, nodes=('c:A', 'c:B'), "
        "predicates=('rdfs:subClassOf',)), full=PathResult(length=1, nodes=('c:A', 'c:B'), "
        "predicates=('rdfs:subClassOf',)), optimal=False, question_ids=('q1',))")


def _assert_refused(field, value, message):
    """Construction, ``_replace`` and ``_make`` refuse ``value`` for
    ``field`` of an otherwise default config, with ``message``."""
    config = RunConfig("o.nt", "c.xml")
    values = {**config._asdict(), field: value}
    for build in (lambda: RunConfig(**values),
                  lambda: config._replace(**{field: value}),
                  lambda: RunConfig._make(values.values())):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


class TestConfigValidation:
    """``_replace`` and ``_make`` validate exactly as the constructor does."""

    @pytest.mark.parametrize("field,value,message", [
        ("word_threshold", -0.1, "word_threshold must be within [0, 1], got -0.1"),
        ("seq_threshold", 2.0, "seq_threshold must be within [0, 1], got 2.0"),
        ("word_threshold", True, "word_threshold must be a real number, got True"),
        ("seq_threshold", False, "seq_threshold must be a real number, got False"),
        ("word_threshold", "0.5", "word_threshold must be a real number, got '0.5'"),
        ("seq_threshold", None, "seq_threshold must be a real number, got None"),
        pytest.param("word_threshold", 1.1, "word_threshold must be within [0, 1], got 1.1",
                     id="word_threshold-1.1"),
        pytest.param("seq_threshold", -0.1, "seq_threshold must be within [0, 1], got -0.1",
                     id="seq_threshold--0.1"),
        pytest.param("word_threshold", math.nan, "word_threshold must be within [0, 1], got nan",
                     id="word_threshold-nan"),
        pytest.param("seq_threshold", math.inf, "seq_threshold must be within [0, 1], got inf",
                     id="seq_threshold-inf"),
    ])
    def test_match_config(self, field, value, message):
        """The two match thresholds, word_threshold and seq_threshold."""
        _assert_refused(field, value, message)

    @pytest.mark.parametrize("field,value,message", [
        ("max_depth", 0, "max_depth must be >= 1"),
        ("max_depth", 2.5, "max_depth must be an integer, got 2.5"),
        ("max_depth", "3", "max_depth must be an integer, got '3'"),
        ("max_depth", True, "max_depth must be an integer, got True"),
        ("label_predicates", "rdfs:label",
         "label_predicates must be a tuple or list of str, got 'rdfs:label'"),
        ("hierarchical_predicates", "rdfs:subClassOf",
         "hierarchical_predicates must be a tuple or list of str, got 'rdfs:subClassOf'"),
        ("format", "xml", "format must be one of ('json', 'csv'), got 'xml'"),
        # every field the report echoes has a type the writer can echo
        pytest.param("ontology", PurePosixPath("o.nt"),
                     "ontology must be a str, got PurePosixPath('o.nt')", id="ontology-path"),
        pytest.param("corpus", None, "corpus must be a str, got None", id="corpus-none"),
        pytest.param("lexicon", PurePosixPath("l.tsv"),
                     "lexicon must be a str or None, got PurePosixPath('l.tsv')",
                     id="lexicon-path"),
        pytest.param("stoplist", b"s.txt", "stoplist must be a str or None, got b's.txt'",
                     id="stoplist-bytes"),
        pytest.param("label_lang", ("en",), "label_lang must be a str or None, got ('en',)",
                     id="label_lang-tuple"),
        pytest.param("label_predicates", frozenset({"rdfs:label"}),
                     "label_predicates must be a tuple or list of str, "
                     "got frozenset({'rdfs:label'})", id="label_predicates-frozenset"),
        pytest.param("hierarchical_predicates", ["rdfs:subClassOf", None],
                     "hierarchical_predicates must be a tuple or list of str, "
                     "got ['rdfs:subClassOf', None]", id="hierarchical_predicates-non-str"),
        # an empty path or tag is refused, not read as absent or as "."
        pytest.param("ontology", "", "ontology must not be empty", id="ontology-empty"),
        pytest.param("corpus", "", "corpus must not be empty", id="corpus-empty"),
        pytest.param("lexicon", "", "lexicon must not be empty", id="lexicon-empty"),
        pytest.param("stoplist", "", "stoplist must not be empty", id="stoplist-empty"),
        pytest.param("label_lang", "", "label_lang must not be empty", id="label_lang-empty"),
        pytest.param("optimal_only", "no", "optimal_only must be a bool, got 'no'",
                     id="optimal_only-str"),
        pytest.param("optimal_only", 1, "optimal_only must be a bool, got 1",
                     id="optimal_only-int"),
    ])
    def test_run_config(self, field, value, message):
        _assert_refused(field, value, message)

    def test_valid_copies_keep_their_type(self):
        config = RunConfig("o.nt", "c.xml")
        assert type(config._replace(max_depth=3)) is RunConfig
        assert type(RunConfig._make(config)) is RunConfig
        assert type(config._replace(seq_threshold=0.0)) is RunConfig
        assert RunConfig._make(config._replace(word_threshold=0.1, seq_threshold=0.2)) == \
            RunConfig("o.nt", "c.xml", word_threshold=0.1, seq_threshold=0.2)


class TestSlotClasses:
    """``OntologyGraph`` compares by value."""

    def test_graph(self):
        args = ({"c:A": (Literal("a", "en"),), "c:B": ()},
                (RelationEdge("c:A", "p", "c:B"),), frozenset({"p"}))
        graph = OntologyGraph(*args)
        assert graph == OntologyGraph(*args)
        assert graph != OntologyGraph(args[0], (), args[2])
        assert repr(graph) == (
            "OntologyGraph(concepts={'c:A': (Literal(text='a', lang='en'),), 'c:B': ()}, "
            "edges=(RelationEdge(subject='c:A', predicate='p', object='c:B'),), "
            "hierarchical_predicates=frozenset({'p'}))")
        with pytest.raises(TypeError):
            hash(graph)
