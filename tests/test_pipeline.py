import copy
import gc
import shutil
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from onto_enrich import _scoring, pipeline
from onto_enrich.errors import (
    InvalidUtf8Error,
    MalformedLexiconLineError,
    MalformedTripleError,
    SelfLoopEdgeError,
)
from onto_enrich.pipeline import run
from onto_enrich.report import RunConfig, serialize_report
from support import counting_searches

FIXTURE_CONFIG = RunConfig(
    ontology="fixtures/ontology.nt",
    corpus="fixtures/corpus.xml",
    lexicon="fixtures/lexicon.tsv",
)


@pytest.fixture()
def in_repo_root(repo_root, monkeypatch):
    monkeypatch.chdir(repo_root)


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
    FIXTURE_CONFIG names its files. The load memos, and with them the kept
    scorer and connection memo, start empty."""
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


def _at(config, word_threshold, seq_threshold=None):
    """``config`` at another word threshold, and sequence threshold if given."""
    if seq_threshold is None:
        return config._replace(word_threshold=word_threshold)
    return config._replace(word_threshold=word_threshold, seq_threshold=seq_threshold)


def _loaded(config=FIXTURE_CONFIG):
    """The kept ``_Loaded`` ontology of ``config``, loading it if it is not kept."""
    return pipeline._load_ontology(config)[2]


_OTHER = FIXTURE_CONFIG._replace(ontology="fixtures/other.nt")


def _write_other():
    """Write _OTHER's ontology: the fixture's with one more label."""
    Path(_OTHER.ontology).write_bytes(
        Path(FIXTURE_CONFIG.ontology).read_bytes() + _RULER_LABEL.encode())


# the fixture's ontology with a cross link that shortens the full path of
# one compared pair, and the fixture's corpus under other question ids with
# one more question, whose source c:Rhombus has one pair compared before
_LINKED = "fixtures/linked.nt"
_RENUMBERED = "fixtures/renumbered.xml"
_EXTRA_QUESTION = (b'<question id="r99"><text>Is a <TERM1>square</TERM1> with a '
                   b'<TERM1>right angle</TERM1> a <TERM1>rhombus</TERM1>?</text></question>')


def _write_linked_and_renumbered():
    Path(_LINKED).write_bytes(Path(FIXTURE_CONFIG.ontology).read_bytes()
                              + b"<c:Rhombus> <ome:relatedTo> <c:Square> .\n")
    corpus = Path(FIXTURE_CONFIG.corpus).read_bytes().replace(b'id="q', b'id="r')
    Path(_RENUMBERED).write_bytes(
        corpus.replace(b"</corpus>", _EXTRA_QUESTION + b"\n</corpus>"))


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
        # A, then B, then A, at the same paths, each run twice: every report
        # is that of a run made with the memos emptied; the first run of each
        # builds and scores as many sequences as that run, the second reuses
        # the kept scorer and scores none, and each memo holds one entry
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
            assert _report(config) == (fresh[which][0], 0)
            assert _builds() == (misses + 1, hits + 1)
            assert [memo.cache_info().currsize for memo in _MEMOS] == [1, 1, 1]
            scorer = _loaded(config).scorer
            assert (scorer.word_threshold, scorer.seq_threshold) == \
                (config.word_threshold, config.seq_threshold)

    def test_ontology_rewritten_in_place_is_read_again(self, fixture_copy, golden):
        ontology = Path("fixtures/ontology.nt")
        original = ontology.read_bytes()
        assert _report(FIXTURE_CONFIG)[0] == golden
        ontology.write_bytes(original + _RULER_LABEL.encode())
        changed = _report(FIXTURE_CONFIG)
        assert _report(FIXTURE_CONFIG) == (changed[0], 0)
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
        assert _report(FIXTURE_CONFIG) == (first[0], 0)
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
        assert _report(_REUSE_CONFIG)[0] == _report(_REUSE_CONFIG)[0]
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
        index = _loaded().index
        before = _snapshot(index)
        assert _report(FIXTURE_CONFIG)[0] == _report(FIXTURE_CONFIG)[0] == golden
        assert _loaded().index is index
        assert _snapshot(index) == before

    def test_another_ontology_frees_the_last(self, fixture_copy):
        # one entry per memo, so memory does not grow: once a run has loaded
        # another ontology, nothing holds the first one's kept object, label
        # index or scorer
        other = FIXTURE_CONFIG._replace(ontology="fixtures/other.nt")
        Path(other.ontology).write_bytes(
            Path(FIXTURE_CONFIG.ontology).read_bytes() + _RULER_LABEL.encode())
        run(FIXTURE_CONFIG)
        loaded = _loaded()
        kept = [weakref.ref(value) for value in (loaded, loaded.index, loaded.scorer)]
        del loaded
        gc.collect()
        assert all(ref() is not None for ref in kept)
        run(other)
        gc.collect()
        assert [ref() for ref in kept] == [None, None, None]

    def test_concurrent_runs_each_score_afresh(self, fixture_copy, golden):
        # four threads on two cores, two on the fixture and two on another
        # ontology, each cycling twice through two word thresholds, two
        # sequence thresholds and two depth caps from its own start, so the
        # load memo, kept scorer and connection memo are hit, filled and
        # replaced while runs are going: every run gives its fresh report,
        # scores each sequence with a scorer at its own thresholds, and
        # scores at most the sequences a fresh run scores. Which thread
        # scores a sequence that runs share is a race, so counts are bounds.
        _write_other()
        cycles = [[_at(config, word_threshold, seq_threshold)._replace(max_depth=depth)
                   for depth in (6, 3) for word_threshold in (0.75, 0.5)
                   for seq_threshold in (0.5, 0.3)]
                  for config in (FIXTURE_CONFIG, _OTHER)]
        fresh = {}
        for config in (c for cycle in cycles for c in cycle):
            _clear_memos()
            fresh[config] = _report(config)
        assert fresh[FIXTURE_CONFIG][0] == golden
        index = _loaded().index
        before = _snapshot(index)
        barrier = threading.Barrier(4)
        running = threading.local()
        wrong = []

        def work(configs, counts):
            barrier.wait(timeout=60)
            results = []
            for config in configs:
                running.thresholds = config.word_threshold, config.seq_threshold
                before = counts[threading.get_ident()]
                payload = serialize_report(run(config), "json")
                results.append((payload, counts[threading.get_ident()] - before))
            return results

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _counting_scores() as counts, pytest.MonkeyPatch.context() as mp, \
                    ThreadPoolExecutor(4) as pool:
                counted = _scoring._best_entry

                def checked(scorer, seq):
                    if (scorer.word_threshold, scorer.seq_threshold) != running.thresholds:
                        wrong.append(
                            (running.thresholds, scorer.word_threshold, scorer.seq_threshold))
                    return counted(scorer, seq)

                mp.setattr(_scoring, "_best_entry", checked)
                plans = [[cycle[(i + start) % 8] for i in range(16)]
                         for start in (0, 1) for cycle in cycles]
                futures = [pool.submit(work, plan, counts) for plan in plans]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [[payload for payload, _ in runs] for runs in results] == [
            [fresh[config][0] for config in plan] for plan in plans]
        assert all(scored <= fresh[config][1]
                   for runs, plan in zip(results, plans)
                   for (_, scored), config in zip(runs, plan))
        assert wrong == []
        # the fixture's kept index, which the threads' first runs share, is as it was
        assert _snapshot(index) == before


class TestWordMemos:
    """run() keeps the word memos of the loaded index at one word threshold,
    in the kept scorer, for the runs after it; its reports must not tell a
    kept memo from a fresh one."""

    def test_kept_per_index_and_threshold(self, fixture_copy, golden, monkeypatch):
        computed = Counter()
        pairable = _scoring._pairable

        def counted(scorer, lemma):
            computed[scorer.word_threshold] += 1
            return pairable(scorer, lemma)

        monkeypatch.setattr(_scoring, "_pairable", counted)
        assert _report(FIXTURE_CONFIG)[0] == golden
        first = computed[0.75]
        assert first > 0
        # the second run computes no group; the memo holds tuples only
        assert _report(FIXTURE_CONFIG)[0] == golden
        assert computed == {0.75: first}
        loaded = _loaded()
        index = loaded.index
        kept_pairable, kept_overlaps = loaded.scorer.pairable, loaded.scorer.overlaps
        assert len(kept_pairable) == first
        for union, groups in kept_pairable.values():
            assert type(union) is int and type(groups) is tuple
            assert all(type(group) is tuple for group in groups)
        assert kept_overlaps and all(type(t) is tuple for t in kept_overlaps.values())
        # another word threshold computes its own groups, and then keeps
        # only them: the first threshold's are computed again
        lower = _report(_at(FIXTURE_CONFIG, 0.5))
        assert computed[0.5] > 0 and computed[0.75] == first
        assert _report(_at(FIXTURE_CONFIG, 0.5)) == (lower[0], 0)
        assert _report(FIXTURE_CONFIG)[0] == golden
        assert computed[0.75] == 2 * first
        assert loaded.scorer.pairable is not kept_pairable
        assert len(loaded.scorer.pairable) == first
        # a run on another ontology frees the first one's index, which
        # every kept scorer holds
        _write_other()
        kept = weakref.ref(index)
        del index, loaded
        gc.collect()
        assert kept() is not None
        run(_OTHER)
        gc.collect()
        assert kept() is None

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.sampled_from((FIXTURE_CONFIG, _OTHER)),
                              st.sampled_from((0, 0.0, 0.5, 0.75, 1, 1.0)),
                              st.sampled_from((0, 0.3, 0.5, 1, 1.0))),
                    min_size=2, max_size=8))
    def test_interleaved_runs_report_as_fresh_runs(self, fixture_copy, runs):
        # runs that switch ontology, word threshold and sequence threshold in
        # any order: each report is that of the same config run with the
        # memos emptied, and its run scores as many sequences as that run,
        # or none where the run before it had the same ontology and equal
        # thresholds, whose kept scorer it reuses
        _write_other()
        configs = [_at(config, word, seq) for config, word, seq in runs]
        fresh = {}
        for config in configs:
            # by repr: configs at 1 and 1.0 are equal, but echo differently
            if repr(config) not in fresh:
                _clear_memos()
                fresh[repr(config)] = _report(config)
        _clear_memos()
        keys = [(c.ontology, c.word_threshold, c.seq_threshold) for c in configs]
        reuses = [False] + [a == b for a, b in zip(keys, keys[1:])]
        assert [_report(config) for config in configs] == [
            (fresh[repr(c)][0], 0 if reuse else fresh[repr(c)][1])
            for c, reuse in zip(configs, reuses)]


class TestKeptScorer:
    """run() keeps the last run's scorer with the loaded ontology, winners
    included, and the runs after it reuse it while both thresholds are equal."""

    def test_kept_per_ontology_and_thresholds(self, fixture_copy, golden):
        lower = _at(FIXTURE_CONFIG, 0.75, 0.3)
        assert _report(FIXTURE_CONFIG)[0] == golden
        scored = _report(lower)[1]
        _clear_memos()
        first = _report(FIXTURE_CONFIG)
        assert first[0] == golden and first[1] > 0
        # the second run scores no sequence, from the same scorer
        scorer = _loaded().scorer
        assert _report(FIXTURE_CONFIG) == (golden, 0)
        assert _loaded().scorer is scorer and len(scorer.winners) == first[1]
        # another sequence threshold scores its own sequences with a new
        # scorer that shares the word memos, and is then kept in its place
        other = _report(lower)
        assert other[0] != golden and other[1] == scored
        assert _loaded().scorer.pairable is scorer.pairable
        assert _report(lower) == (other[0], 0)
        # switching back scores again
        assert _report(FIXTURE_CONFIG) == first
        # a run on another ontology frees the first one's kept object
        _write_other()
        kept = weakref.ref(_loaded())
        del scorer
        gc.collect()
        assert kept() is not None
        run(_OTHER)
        gc.collect()
        assert kept() is None


class TestConnectionMemo:
    """run() keeps the two paths of every pair it compares with the loaded
    ontology at each depth cap, for the runs after it; its reports must not
    tell a kept pair from a fresh search."""

    def test_kept_per_ontology_and_depth(self, fixture_copy, golden):
        with counting_searches() as searches:
            assert _report(FIXTURE_CONFIG)[0] == golden
            # one search of each kind per source, and one entry per pair
            records = run(FIXTURE_CONFIG).records
            sources = sorted({r.concept_a for r in records})
            assert searches == [(src, hierarchical, 6)
                                for src in sources for hierarchical in (True, False)]
            connections = _loaded().connections
            assert sorted(connections) == sorted((6, r.concept_a, r.concept_b) for r in records)
            # the second run searches nothing
            del searches[:]
            assert _report(FIXTURE_CONFIG)[0] == golden
            assert searches == []
            # another depth cap searches again, and keeps its own entries
            shallow = _report(FIXTURE_CONFIG._replace(max_depth=3))
            assert [depth for _, _, depth in searches] == [3] * 2 * len(sources)
            del searches[:]
            assert _report(FIXTURE_CONFIG._replace(max_depth=3)) == shallow
            assert _report(FIXTURE_CONFIG)[0] == golden
            assert searches == []
            assert len(connections) == 2 * len(records)
        # a run on another ontology keeps its pairs in a new memo, and
        # nothing holds the first one's label index
        _write_other()
        index = weakref.ref(_loaded().index)
        gc.collect()
        assert index() is not None
        run(_OTHER)
        gc.collect()
        assert index() is None
        assert _loaded(_OTHER).connections is not connections

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.sampled_from((FIXTURE_CONFIG.ontology, _LINKED)),
                              st.sampled_from((FIXTURE_CONFIG.corpus, _RENUMBERED)),
                              st.sampled_from((1, 2, 3, 6)),
                              st.booleans(),
                              st.sampled_from(("json", "csv"))),
                    min_size=2, max_size=8))
    def test_interleaved_runs_report_as_fresh_runs(self, fixture_copy, runs):
        # runs that switch ontology, corpus, depth cap, filter and format in
        # any order: each report's bytes are those of the same config run
        # with every memo emptied
        _write_linked_and_renumbered()
        configs = [FIXTURE_CONFIG._replace(ontology=ontology, corpus=corpus, max_depth=depth,
                                           optimal_only=optimal_only, format=fmt)
                   for ontology, corpus, depth, optimal_only, fmt in runs]
        fresh = {}
        for config in configs:
            if config not in fresh:
                _clear_memos()
                fresh[config] = serialize_report(run(config), config.format)
        _clear_memos()
        assert [serialize_report(run(config), config.format) for config in configs] == [
            fresh[config] for config in configs]


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
