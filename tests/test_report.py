"""The report module: the JSON writer against the standard encoder, the CSV
layout, the configs the report can echo, and the record invariants."""

import json
import math
from pathlib import PurePosixPath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onto_enrich.corpus import MarkedPhrase, PhraseKind, PhraseSource
from onto_enrich.errors import InternalInvariantError
from onto_enrich.matcher import ConceptMatch, MatchConfig
from onto_enrich.pathfinder import ConnectionRecord, PathResult
from onto_enrich.pipeline import run
from onto_enrich.report import (
    OUTPUT_FORMATS,
    Report,
    RunConfig,
    _check_report,
    serialize_report,
)
from oracles import json_report_reference


def _record_ab() -> ConnectionRecord:
    return ConnectionRecord(
        "A", "B",
        PathResult(3, ("A", "x", "y", "B"), ("p", "p", "p")),
        PathResult(3, ("A", "u", "v", "B"), ("p", "p", "p")),
        False,
        ("q1",),
    )


# Text that JSON must escape or pass through untouched: quotes, backslashes,
# control characters, U+2028, non-BMP code points, and anything else.
_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\r\u2028\u2029é𝔸😀'),
    st.characters(blacklist_categories=("Cs",)),
)
_TEXT = st.text(alphabet=_CHARS, max_size=6)
# a config's file paths and language tag: RunConfig refuses an empty one
_NAME = st.text(alphabet=_CHARS, min_size=1, max_size=6)
_NUMBERS = st.one_of(st.integers(0, 1), st.floats(0, 1))


@st.composite
def _paths(draw):
    length = draw(st.integers(0, 3))
    nodes = draw(st.lists(_TEXT, min_size=length + 1, max_size=length + 1))
    predicates = draw(st.lists(_TEXT, min_size=length, max_size=length))
    return PathResult(length, tuple(nodes), tuple(predicates))


_TEXTS = st.lists(_TEXT, max_size=3).map(tuple)
_OPTIONAL_NAME = st.none() | _NAME
_RECORDS = st.builds(
    ConnectionRecord, _TEXT, _TEXT, st.none() | _paths(), st.none() | _paths(),
    st.booleans(), _TEXTS)
_MATCHES = st.builds(
    ConceptMatch,
    _TEXT,
    st.builds(MarkedPhrase, _TEXT, st.sampled_from(PhraseKind), _TEXT,
              st.sampled_from(PhraseSource), st.integers(0, 10**6)),
    _TEXT, _TEXT,
    st.one_of(_NUMBERS, st.sampled_from([math.nan, math.inf, -math.inf]), st.floats()),
)
_CONFIGS = st.builds(
    RunConfig,
    ontology=_NAME, corpus=_NAME, lexicon=_OPTIONAL_NAME, stoplist=_OPTIONAL_NAME,
    match=st.builds(MatchConfig, _NUMBERS, _NUMBERS),
    max_depth=st.integers(1, 10**12),
    label_predicates=_TEXTS, hierarchical_predicates=_TEXTS, label_lang=_OPTIONAL_NAME,
    format=st.sampled_from(OUTPUT_FORMATS), optimal_only=st.booleans(),
)
_REPORTS = st.builds(
    Report, _TEXT, _CONFIGS,
    st.lists(_RECORDS, max_size=3).map(tuple),
    st.lists(_MATCHES, max_size=3).map(tuple),
    _TEXTS,
)
_EMPTY_REPORT = Report(
    "", RunConfig("o", "c", match=MatchConfig(1, 0), label_predicates=(),
                  hierarchical_predicates=()), (), (), ())

# Values of every type a caller might pass for a RunConfig field, most of
# which the report cannot echo: paths, bytes, sets, iterators, plain tuples
# and str flags.
_ANY_SCALAR = st.one_of(
    st.none(), _TEXT, _TEXT.map(PurePosixPath), st.binary(max_size=3), st.booleans(),
    st.integers(-1, 3), st.floats(allow_nan=True))
_ANY_PREDICATES = st.lists(_TEXT | _ANY_SCALAR, max_size=3).flatmap(lambda items: st.sampled_from(
    [tuple(items), list(items), frozenset(items), iter(items), "".join(map(str, items))]))
_ANY_FIELD = dict(
    ontology=_ANY_SCALAR, corpus=_ANY_SCALAR, lexicon=_ANY_SCALAR, stoplist=_ANY_SCALAR,
    match=st.tuples(_ANY_SCALAR, _ANY_SCALAR), max_depth=_ANY_SCALAR,
    label_predicates=_ANY_PREDICATES, hierarchical_predicates=_ANY_PREDICATES,
    label_lang=_ANY_SCALAR, format=_ANY_SCALAR,
    optimal_only=_ANY_SCALAR | st.sampled_from(["no", "yes", "false", ""]),
)


@st.composite
def _any_config_fields(draw):
    """The fields of a valid config, up to three of them then redrawn from
    ``_ANY_FIELD``."""
    fields = draw(_CONFIGS)._asdict()
    for name in draw(st.lists(st.sampled_from(RunConfig._fields), max_size=3, unique=True)):
        fields[name] = draw(_ANY_FIELD[name])
    return fields


class TestSerializeReport:
    @settings(max_examples=150, deadline=None)
    @given(_REPORTS)
    @example(_EMPTY_REPORT)
    @example(_EMPTY_REPORT._replace(records=(
        ConnectionRecord("a", "a\u2028", PathResult(0, ("a",), ()), None, False, ()),)))
    @example(_EMPTY_REPORT._replace(matches=tuple(
        ConceptMatch("q", MarkedPhrase("q", PhraseKind.NP, "p", PhraseSource.QUESTION_TEXT, 0),
                     "c", "l", score)
        for score in (math.nan, math.inf, -math.inf, 1, 0.1))))
    def test_json_equals_standard_encoder(self, report):
        assert serialize_report(report, "json") == json_report_reference(report)

    @settings(max_examples=300, deadline=None)
    @given(_any_config_fields(), st.sampled_from(("new", "replace", "make")))
    def test_every_config_that_constructs_is_written(self, fields, build):
        # a config is rejected when made, or the report can echo it
        try:
            if build == "new":
                config = RunConfig(**fields)
            elif build == "replace":
                config = RunConfig("o.nt", "c.xml")._replace(**fields)
            else:
                config = RunConfig._make(fields[name] for name in RunConfig._fields)
        except ValueError:
            return
        report = _EMPTY_REPORT._replace(config=config)
        assert serialize_report(report, "json") == json_report_reference(report)
        assert serialize_report(report, "csv").startswith(b"concept_a,")

    def test_golden_report_equals_standard_encoder(self, fixture_report):
        assert serialize_report(fixture_report, "json") == json_report_reference(fixture_report)

    def test_golden_csv(self, fixture_report, repo_root):
        golden = (repo_root / "tests/golden/fixture_report.csv").read_bytes()
        assert serialize_report(fixture_report, "csv") == golden

    def test_csv_row_layout(self, fixture_report):
        report = fixture_report._replace(records=(_record_ab(),), matches=(), warnings=())
        lines = serialize_report(report, "csv").decode().splitlines()
        assert lines[0] == "concept_a,concept_b,hier_len,full_len,optimal,questions,hier_path,full_path"
        assert lines[1] == "A,B,3,3,false,q1,A/x/y/B,A/u/v/B"

    def test_csv_empty_cells_for_missing_paths(self, fixture_report):
        record = _record_ab()._replace(hierarchical=None)
        report = fixture_report._replace(records=(record,), matches=(), warnings=())
        row = serialize_report(report, "csv").decode().splitlines()[1]
        assert row == "A,B,,3,false,q1,,A/u/v/B"

    def test_empty_report_json(self, fixture_report, tmp_path):
        corpus = tmp_path / "empty.xml"
        corpus.write_bytes(b"<corpus></corpus>")
        config = fixture_report.config._replace(corpus=str(corpus))
        payload = json.loads(serialize_report(run(config), "json"))
        assert payload["records"] == []
        assert payload["config"]["word_threshold"] == 0.75
        assert payload["tool"] == "onto-enrich"

    def test_json_newline_terminated(self, fixture_report):
        assert serialize_report(fixture_report, "json").endswith(b"}\n")

    def test_unknown_format_rejected(self, fixture_report):
        with pytest.raises(ValueError):
            serialize_report(fixture_report, "yaml")


class TestReportInvariants:
    def test_flipped_optimal_flag_detected(self, fixture_report, fixture_graph):
        broken = fixture_report.records[0]._replace(optimal=False)
        report = fixture_report._replace(records=(broken,))
        with pytest.raises(InternalInvariantError):
            _check_report(report, fixture_graph)

    def test_unsorted_pair_detected(self, fixture_report, fixture_graph):
        record = fixture_report.records[0]
        swapped = record._replace(concept_a=record.concept_b, concept_b=record.concept_a)
        report = fixture_report._replace(records=(swapped,))
        with pytest.raises(InternalInvariantError):
            _check_report(report, fixture_graph)

    def test_empty_question_ids_detected(self, fixture_report, fixture_graph):
        record = fixture_report.records[0]._replace(question_ids=())
        report = fixture_report._replace(records=(record,))
        with pytest.raises(InternalInvariantError):
            _check_report(report, fixture_graph)

    def test_fabricated_path_detected(self, fixture_report, fixture_graph):
        record = fixture_report.records[0]
        fake = record.full._replace(
            nodes=("c:Perpendicular", "c:Angle", "c:Segment", "c:TriangleMiddleLine"))
        report = fixture_report._replace(records=(record._replace(full=fake),))
        with pytest.raises(InternalInvariantError):
            _check_report(report, fixture_graph)

    def test_swapped_paths_detected(self, fixture_report, fixture_graph):
        # two optimal records trade their paths: every path is the graph's,
        # each record's lengths and flag agree, but each path joins the other pair
        first, second, *rest = fixture_report.records
        swapped = (first._replace(hierarchical=second.hierarchical, full=second.full),
                   second._replace(hierarchical=first.hierarchical, full=first.full))
        report = fixture_report._replace(records=(*swapped, *rest))
        with pytest.raises(InternalInvariantError, match="does not join"):
            _check_report(report, fixture_graph)

    def test_path_longer_than_max_depth_detected(self, fixture_report, fixture_graph):
        # the fixture's records at the default cap, checked against a lower one
        assert max(r.full.length for r in fixture_report.records) == 4
        report = fixture_report._replace(config=fixture_report.config._replace(max_depth=3))
        with pytest.raises(InternalInvariantError, match="longer than max_depth 3"):
            _check_report(report, fixture_graph)
