import copy
import gc
import json
import math
import shutil
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from onto_enrich import _scoring, pipeline
from onto_enrich.corpus import MarkedPhrase, PhraseKind, PhraseSource
from onto_enrich.errors import (
    InternalInvariantError,
    InvalidUtf8Error,
    MalformedLexiconLineError,
    MalformedTripleError,
    SelfLoopEdgeError,
)
from onto_enrich.matcher import ConceptMatch, MatchConfig
from onto_enrich.pathfinder import ConnectionRecord, PathResult
from onto_enrich.pipeline import (
    OUTPUT_FORMATS,
    Report,
    RunConfig,
    _check_report,
    run,
    serialize_report,
)
from oracles import json_report_reference

FIXTURE_CONFIG = RunConfig(
    ontology="fixtures/ontology.nt",
    corpus="fixtures/corpus.xml",
    lexicon="fixtures/lexicon.tsv",
)


@pytest.fixture()
def in_repo_root(repo_root, monkeypatch):
    monkeypatch.chdir(repo_root)


@pytest.fixture(scope="module")
def fixture_report(repo_root):
    config = FIXTURE_CONFIG._replace(
        ontology=str(repo_root / "fixtures/ontology.nt"),
        corpus=str(repo_root / "fixtures/corpus.xml"),
        lexicon=str(repo_root / "fixtures/lexicon.tsv"),
    )
    return run(config)


class TestRun:
    def test_fixture_record_set(self, fixture_report):
        pairs = [(r.concept_a, r.concept_b) for r in fixture_report.records]
        assert pairs == [
            ("c:Perpendicular", "c:TriangleMiddleLine"),
            ("c:OppositeAnglesOfQuadrilateral", "c:RightAngle"),
            ("c:PythagoreanTheorem", "c:RightTriangle"),
            ("c:Rhombus", "c:Square"),
        ]
        assert [r.optimal for r in fixture_report.records] == [True, True, False, False]

    def test_records_sorted_optimal_first_then_full_length(self, fixture_report):
        lengths = [r.full.length if r.full else None for r in fixture_report.records]
        assert lengths == [3, 4, 1, 3]

    def test_question_ids_aggregated(self, fixture_report):
        by_pair = {(r.concept_a, r.concept_b): r.question_ids for r in fixture_report.records}
        assert by_pair[("c:Rhombus", "c:Square")] == ("q03",)

    def test_match_log_sorted(self, fixture_report):
        keys = [(m.question_id, m.phrase.ordinal) for m in fixture_report.matches]
        assert keys == sorted(keys)
        assert len(fixture_report.matches) == 11

    def test_record_count_equals_distinct_pairs(self, fixture_report):
        from itertools import combinations
        concepts_by_question: dict[str, set[str]] = {}
        for m in fixture_report.matches:
            concepts_by_question.setdefault(m.question_id, set()).add(m.concept_iri)
        pairs = {
            pair
            for concepts in concepts_by_question.values()
            for pair in combinations(sorted(concepts), 2)
        }
        assert pairs == {(r.concept_a, r.concept_b) for r in fixture_report.records}

    def test_golden_report(self, in_repo_root, repo_root):
        payload = serialize_report(run(FIXTURE_CONFIG), "json")
        golden = (repo_root / "tests/golden/fixture_report.json").read_bytes()
        assert payload == golden

    def test_empty_corpus(self, in_repo_root, tmp_path):
        corpus = tmp_path / "empty.xml"
        corpus.write_bytes(b"<corpus></corpus>")
        config = FIXTURE_CONFIG._replace(corpus=str(corpus))
        report = run(config)
        assert report.records == ()
        assert report.matches == ()

    def test_single_match_questions_make_no_records(self, in_repo_root, tmp_path):
        corpus = tmp_path / "sparse.xml"
        corpus.write_bytes(
            b'<corpus><question id="q1"><text>A <TERM1>square</TERM1> here.</text>'
            b"</question>"
            b'<question id="q2"><text>No <TERM1>dodecahedron</TERM1> and no '
            b"<TERM1>icosahedron</TERM1>.</text></question></corpus>")
        config = FIXTURE_CONFIG._replace(corpus=str(corpus))
        report = run(config)
        assert report.records == ()
        assert [m.concept_iri for m in report.matches] == ["c:Square"]

    def test_optimal_only_filter(self, in_repo_root):
        config = FIXTURE_CONFIG._replace(optimal_only=True)
        report = run(config)
        assert len(report.records) == 2
        assert all(r.optimal for r in report.records)

    def test_stoplist_file_matching_default_changes_nothing(self, in_repo_root):
        config = FIXTURE_CONFIG._replace(stoplist="fixtures/stoplist.txt")
        with_file = run(config)
        without = run(FIXTURE_CONFIG)
        assert with_file.records == without.records
        assert with_file.matches == without.matches

    def test_label_lang_filter_keeps_fixture_results(self, in_repo_root):
        config = FIXTURE_CONFIG._replace(label_lang="en")
        report = run(config)
        assert report.records == run(FIXTURE_CONFIG).records

    def test_hierarchical_predicate_override(self, in_repo_root):
        # dropping ome:hasChild cuts the only hierarchy link of the
        # opposite-angles concept: no hierarchical baseline, no optimality
        config = FIXTURE_CONFIG._replace(hierarchical_predicates=("rdfs:subClassOf",))
        by_pair = {(r.concept_a, r.concept_b): r for r in run(config).records}
        record = by_pair[("c:OppositeAnglesOfQuadrilateral", "c:RightAngle")]
        assert record.hierarchical is None
        assert record.optimal is False

    def test_max_depth_caps_searches(self, in_repo_root):
        config = FIXTURE_CONFIG._replace(max_depth=3)
        by_pair = {(r.concept_a, r.concept_b): r for r in run(config).records}
        record = by_pair[("c:OppositeAnglesOfQuadrilateral", "c:RightAngle")]
        assert record.hierarchical is None and record.full is None
        assert record.optimal is False

    @pytest.mark.parametrize("field, missing", [
        pytest.param("ontology", None, id="ontology"),
        pytest.param("lexicon", None, id="lexicon"),
        pytest.param("stoplist", None, id="stoplist"),
        # the lexicon and stoplist are read first: the missing ontology
        # behind them is never reached
        pytest.param("lexicon", "ontology", id="lexicon-before-missing-ontology"),
        pytest.param("stoplist", "ontology", id="stoplist-before-missing-ontology"),
    ])
    def test_non_utf8_input_names_file_and_line(self, in_repo_root, tmp_path, field, missing):
        bad = tmp_path / f"bad-{field}"
        bad.write_bytes(b"# fine\n# caf\xe9\n")
        config = FIXTURE_CONFIG._replace(**{field: str(bad)})
        if missing:
            config = config._replace(**{missing: str(tmp_path / "missing")})
        with pytest.raises(InvalidUtf8Error) as exc:
            run(config)
        assert str(exc.value) == f"{bad}: invalid UTF-8 byte 0xe9 (line 2, column 6)"

    def test_missing_file_raises_oserror(self, in_repo_root):
        config = FIXTURE_CONFIG._replace(corpus="fixtures/nope.xml")
        with pytest.raises(OSError):
            run(config)


@pytest.fixture()
def golden(repo_root):
    return (repo_root / "tests/golden/fixture_report.json").read_bytes()


_MEMOS = (pipeline._lexicon, pipeline._stoplist, pipeline._ontology)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.fixture()
def fixture_copy(repo_root, tmp_path, monkeypatch):
    """A copy of fixtures/ under a new working directory, free to rewrite;
    FIXTURE_CONFIG names its files. The load memos start empty."""
    shutil.copytree(repo_root / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    _clear_memos()


@contextmanager
def _counting_scores():
    """Count the lemma sequences scored by each thread, in a Counter by
    thread id; a sequence answered from a memo is not counted."""
    counts = Counter()
    best_entry = _scoring._best_entry

    def counted(*args):
        counts[threading.get_ident()] += 1
        return best_entry(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_scoring, "_best_entry", counted)
        yield counts


def _snapshot(index):
    """Each attribute of ``index`` with its value's id and a deep copy of it."""
    return {name: (id(value), copy.deepcopy(value)) for name, value in vars(index).items()}


def _report(config):
    """The run's JSON report and the number of sequences it scored."""
    with _counting_scores() as counts:
        payload = serialize_report(run(config), "json")
    return payload, counts[threading.get_ident()]


_RULER_LABEL = '<c:Square> <rdfs:label> "ruler"@en .\n'
_REUSE_CONFIG = FIXTURE_CONFIG._replace(stoplist="fixtures/stoplist.txt")
_FILES = {"ontology": "ontology.nt", "lexicon": "lexicon.tsv", "stoplist": "stoplist.txt"}
_CONCEPTS = ("c:Square", "c:Rhombus", "c:RightAngle", "c:Perpendicular",
             "c:TriangleMiddleLine", "c:Diameter", "c:Circle", "c:Line")
_WORDS = ("ruler", "compass", "dodecahedron", "five", "middle", "lines", "angles", "center")
_PREDICATES = ("rdfs:label", "rdfs:subClassOf", "ome:hasChild", "ome:relatedTo", "ome:partOf")


@st.composite
def _variants(draw):
    """(field, value): one input of the ontology memo's key changed from the fixture
    run's. A file's value is a line appended to it, a config field's value
    replaces it."""
    field = draw(st.sampled_from(
        ("ontology", "lexicon", "stoplist", "label_predicates", "hierarchical_predicates",
         "label_lang")))
    if field == "ontology":
        a, b = draw(st.lists(st.sampled_from(_CONCEPTS), min_size=2, max_size=2, unique=True))
        edge = st.sampled_from(_PREDICATES[1:]).map(lambda p: f"<{a}> <{p}> <{b}> .\n")
        label = st.sampled_from(_WORDS).map(lambda w: f'<{a}> <rdfs:label> "{w}"@en .\n')
        return field, draw(edge | label)
    if field == "lexicon":
        return field, draw(st.sampled_from(_WORDS)) + "\t" + draw(st.sampled_from(_WORDS)) + "\n"
    if field == "stoplist":
        return field, draw(st.sampled_from(_WORDS)) + "\n"
    if field == "label_lang":
        return field, draw(st.sampled_from(("en", "ru", "de")))
    return field, draw(st.lists(st.sampled_from(_PREDICATES), unique=True, max_size=3)
                       .map(tuple).filter(lambda v: v != getattr(_REUSE_CONFIG, field)))


def _inputs(repo_root, variant):
    """The fixture's files and config with ``variant`` applied, if any."""
    files = {name: (repo_root / "fixtures" / name).read_bytes() for name in _FILES.values()}
    config = _REUSE_CONFIG
    if variant is not None:
        field, value = variant
        if field in _FILES:
            files[_FILES[field]] += value.encode()
        else:
            config = config._replace(**{field: value})
    return files, config


def _write(files):
    for name, data in files.items():
        Path("fixtures", name).write_bytes(data)


def _builds():
    """(misses, hits) of the ontology memo so far."""
    info = pipeline._ontology.cache_info()
    return info.misses, info.hits


class TestOntologyReuse:
    """run() keeps the last loaded ontology and reuses it while the key's
    inputs are equal; its reports must not tell a reuse from a fresh load."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_variants())
    @example(("ontology", _RULER_LABEL))
    @example(("lexicon", "ruler\tsquare\n"))
    @example(("stoplist", "ruler\n"))
    def test_alternating_inputs_report_as_fresh_runs(self, repo_root, fixture_copy, variant):
        # A, then B, then A, at the same paths, each run twice: every report,
        # and the number of sequences each run scores, is that of a run made
        # with the memos emptied; the first run of each builds, the second
        # reuses, and each memo holds one entry
        states = [_inputs(repo_root, None), _inputs(repo_root, variant)]
        fresh = []
        for files, config in states:
            _write(files)
            _clear_memos()
            fresh.append(_report(config))
        _clear_memos()
        for which in (0, 1, 0):
            files, config = states[which]
            _write(files)
            misses, hits = _builds()
            assert _report(config) == fresh[which]
            assert _report(config) == fresh[which]
            assert _builds() == (misses + 1, hits + 1)
            assert [memo.cache_info().currsize for memo in _MEMOS] == [1, 1, 1]

    def test_ontology_rewritten_in_place_is_read_again(self, fixture_copy, golden):
        ontology = Path("fixtures/ontology.nt")
        original = ontology.read_bytes()
        assert _report(FIXTURE_CONFIG)[0] == golden
        ontology.write_bytes(original + _RULER_LABEL.encode())
        changed = _report(FIXTURE_CONFIG)
        assert _report(FIXTURE_CONFIG) == changed
        _clear_memos()
        assert _report(FIXTURE_CONFIG) == changed
        assert changed[0] != golden
        ontology.write_bytes(original)
        assert _report(FIXTURE_CONFIG)[0] == golden

    @pytest.mark.parametrize("line, error", [
        pytest.param(b"<c:Square> <ome:relatedTo> <c:Rhombus>\n", MalformedTripleError,
                     id="malformed"),
        pytest.param(b"<c:Square> <ome:relatedTo> <c:Square> .\n", SelfLoopEdgeError,
                     id="self-loop"),
    ])
    def test_failed_load_leaves_the_slot(self, fixture_copy, golden, line, error):
        ontology = Path("fixtures/ontology.nt")
        original = ontology.read_bytes()
        first = _report(FIXTURE_CONFIG)
        assert first[0] == golden
        kept = pipeline._load_ontology(FIXTURE_CONFIG)
        messages = []

        def fail():
            ontology.write_bytes(original + line)
            size = pipeline._ontology.cache_info().currsize
            with pytest.raises(error) as exc:
                run(FIXTURE_CONFIG)
            assert pipeline._ontology.cache_info().currsize == size
            messages.append(str(exc.value))

        # with the good load kept, twice (a failure is not kept): the fixed
        # file then reuses the kept load
        fail()
        fail()
        ontology.write_bytes(original)
        misses, hits = _builds()
        assert _report(FIXTURE_CONFIG) == first
        assert _builds() == (misses, hits + 1)
        assert all(a is b for a, b in zip(pipeline._load_ontology(FIXTURE_CONFIG), kept))
        # with the memos empty: the same error, naming the file
        _clear_memos()
        fail()
        assert len(set(messages)) == 1
        assert messages[0].startswith("fixtures/ontology.nt: ")

    def test_lexicon_and_stoplist_parsed_only_when_their_bytes_change(
            self, fixture_copy, golden, monkeypatch):
        parsed = Counter()

        def counted(name):
            parse = getattr(pipeline, name)

            def parse_counted(data):
                parsed[name] += 1
                return parse(data)
            return parse_counted

        for name in ("load_lexicon", "load_stoplist"):
            monkeypatch.setattr(pipeline, name, counted(name))
        lexicon, stoplist = Path("fixtures/lexicon.tsv"), Path("fixtures/stoplist.txt")
        assert _report(_REUSE_CONFIG) == _report(_REUSE_CONFIG)
        assert parsed == {"load_lexicon": 1, "load_stoplist": 1}
        # a changed ontology alone rebuilds the graph, not the two parses
        ontology = Path("fixtures/ontology.nt")
        ontology.write_bytes(ontology.read_bytes() + _RULER_LABEL.encode())
        _report(_REUSE_CONFIG)
        assert parsed == {"load_lexicon": 1, "load_stoplist": 1}
        stoplist.write_bytes(stoplist.read_bytes() + b"ruler\n")
        _report(_REUSE_CONFIG)
        assert parsed == {"load_lexicon": 1, "load_stoplist": 2}
        # a malformed lexicon still fails before a missing stoplist is read
        lexicon.write_bytes(lexicon.read_bytes() + b"no tab here\n")
        stoplist.unlink()
        with pytest.raises(MalformedLexiconLineError, match="^fixtures/lexicon.tsv: "):
            run(_REUSE_CONFIG)

    def test_kept_index_is_never_written(self, fixture_copy, golden):
        index = pipeline._load_ontology(FIXTURE_CONFIG)[3]
        before = _snapshot(index)
        assert _report(FIXTURE_CONFIG)[0] == _report(FIXTURE_CONFIG)[0] == golden
        assert pipeline._load_ontology(FIXTURE_CONFIG)[3] is index
        assert _snapshot(index) == before

    def test_another_ontology_frees_the_last(self, fixture_copy):
        # one entry per memo, so memory does not grow: once a run has loaded
        # another ontology, nothing holds the first one's label index
        other = FIXTURE_CONFIG._replace(ontology="fixtures/other.nt")
        Path(other.ontology).write_bytes(
            Path(FIXTURE_CONFIG.ontology).read_bytes() + _RULER_LABEL.encode())
        index = weakref.ref(pipeline._load_ontology(FIXTURE_CONFIG)[3])
        gc.collect()
        assert index() is not None
        run(other)
        gc.collect()
        assert index() is None

    def test_concurrent_runs_each_score_afresh(self, fixture_copy, golden):
        # four threads on two cores, two on the fixture and two on another
        # ontology, so the memo is hit and replaced while runs are going:
        # every run gives its fresh report and scores every sequence itself
        other = FIXTURE_CONFIG._replace(ontology="fixtures/other.nt")
        Path(other.ontology).write_bytes(
            Path(FIXTURE_CONFIG.ontology).read_bytes() + _RULER_LABEL.encode())
        fresh = {config: _report(config) for config in (other, FIXTURE_CONFIG)}
        assert fresh[FIXTURE_CONFIG][0] == golden
        index = pipeline._load_ontology(FIXTURE_CONFIG)[3]
        before = _snapshot(index)
        barrier = threading.Barrier(4)

        def work(config, counts):
            barrier.wait(timeout=60)
            results = []
            for _ in range(5):
                before = counts[threading.get_ident()]
                payload = serialize_report(run(config), "json")
                results.append((payload, counts[threading.get_ident()] - before))
            return results

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _counting_scores() as counts, ThreadPoolExecutor(4) as pool:
                configs = [FIXTURE_CONFIG, other, FIXTURE_CONFIG, other]
                futures = [pool.submit(work, config, counts) for config in configs]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[fresh[config]] * 5 for config in configs]
        # the fixture's kept index, which the threads' first runs share, is as it was
        assert _snapshot(index) == before


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
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\t\r\u2028\u2029é𝔸😀'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=6,
)
_NUMBERS = st.one_of(st.integers(0, 1), st.floats(0, 1))


@st.composite
def _paths(draw):
    length = draw(st.integers(0, 3))
    nodes = draw(st.lists(_TEXT, min_size=length + 1, max_size=length + 1))
    predicates = draw(st.lists(_TEXT, min_size=length, max_size=length))
    return PathResult(length, tuple(nodes), tuple(predicates))


_TEXTS = st.lists(_TEXT, max_size=3).map(tuple)
_OPTIONAL_TEXT = st.none() | _TEXT
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
    ontology=_TEXT, corpus=_TEXT, lexicon=_OPTIONAL_TEXT, stoplist=_OPTIONAL_TEXT,
    match=st.builds(MatchConfig, _NUMBERS, _NUMBERS),
    max_depth=st.integers(1, 10**12),
    label_predicates=_TEXTS, hierarchical_predicates=_TEXTS, label_lang=_OPTIONAL_TEXT,
    format=st.sampled_from(OUTPUT_FORMATS), optimal_only=st.booleans(),
)
_REPORTS = st.builds(
    Report, _TEXT, _CONFIGS,
    st.lists(_RECORDS, max_size=3).map(tuple),
    st.lists(_MATCHES, max_size=3).map(tuple),
    _TEXTS,
)
_EMPTY_REPORT = Report(
    "", RunConfig("", "", match=MatchConfig(1, 0), label_predicates=(),
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

    def test_empty_report_json(self, in_repo_root, tmp_path):
        corpus = tmp_path / "empty.xml"
        corpus.write_bytes(b"<corpus></corpus>")
        config = FIXTURE_CONFIG._replace(corpus=str(corpus))
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


def test_public_api_is_explicit():
    import types

    import onto_enrich

    assert not [name for name in onto_enrich.__all__ if not hasattr(onto_enrich, name)]
    exported = {name: getattr(onto_enrich, name) for name in onto_enrich.__all__}
    assert not [name for name, value in exported.items() if isinstance(value, types.ModuleType)]
    assert {"run", "RunConfig", "paths_from", "compare_from", "LabelIndex", "Scorer"} \
        <= set(exported)
    # the scoring and tokenizing specs live in tests/oracles.py, not the package
    assert not [name for name in ("char_jaccard", "seq_similarity", "tokenize")
                if hasattr(onto_enrich, name)]
    # plain values replaced these wrappers: dict, frozenset, tuples and Literal;
    # paths_from's hierarchical bool and compare_from replaced the last three
    gone = ("Lexicon", "Stoplist", "QuestionCorpus", "MarkedText", "Concept", "Label",
            "EdgeFilter", "compare", "shortest_path")
    assert not [name for name in gone if hasattr(onto_enrich, name)]
    assert not set(gone) & set(onto_enrich.__all__)
