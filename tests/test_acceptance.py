"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import functools
import random
import time

import numpy as np

from onto_enrich import Scorer, parse_corpus
from onto_enrich.corpus import PhraseKind, PhraseSource, extract_phrases
from onto_enrich.matcher import match_question
from onto_enrich.pathfinder import paths_from
from onto_enrich.pipeline import run
from onto_enrich.report import RunConfig, serialize_report
from oracles import char_jaccard, graph_distances, lemma, random_typed_graph, seq_similarity

FIXTURE_CONFIG = RunConfig(
    ontology="fixtures/ontology.nt",
    corpus="fixtures/corpus.xml",
    lexicon="fixtures/lexicon.tsv",
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL - {description}")
                raise
            print(f"[acceptance] criterion {number}: PASS - {description}")
        return wrapper
    return decorate


def _abs_config(repo_root) -> RunConfig:
    return FIXTURE_CONFIG._replace(
        ontology=str(repo_root / "fixtures/ontology.nt"),
        corpus=str(repo_root / "fixtures/corpus.xml"),
        lexicon=str(repo_root / "fixtures/lexicon.tsv"),
    )


@criterion(1, "fixture reproduces the optimal-connection pattern, oracle-exact, < 1 s")
def test_criterion_1_fixture_pattern(repo_root, fixture_graph):
    config = _abs_config(repo_root)
    run(config)  # warm run: jit compilation and import costs stay out of the timing
    started = time.perf_counter()
    report = run(config)
    elapsed = time.perf_counter() - started

    optimal = [r for r in report.records if r.optimal]
    assert len(optimal) >= 2
    assert {r.full.length for r in optimal} <= {3, 4}

    hier_oracle = graph_distances(fixture_graph, hierarchical_only=True)
    full_oracle = graph_distances(fixture_graph, hierarchical_only=False)
    for record in report.records:
        pair = (record.concept_a, record.concept_b)
        for path, oracle in ((record.hierarchical, hier_oracle), (record.full, full_oracle)):
            if path is None:
                assert np.isinf(oracle[pair]) or oracle[pair] > config.max_depth
            else:
                assert path.length == oracle[pair]
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"


@criterion(2, "BFS equals the Floyd-Warshall oracle on 100 random graphs, both filters")
def test_criterion_2_oracle_equivalence():
    rng = random.Random(20240)
    for _ in range(100):
        graph = random_typed_graph(rng, max_nodes=50, edge_prob=0.1)
        iris = sorted(graph.concepts)
        n = len(iris)
        for hierarchical in (True, False):
            oracle = graph_distances(graph, hierarchical_only=hierarchical)
            for i, a in enumerate(iris):
                found = paths_from(graph, a, iris[i:], hierarchical, max_depth=n)
                for b in iris[i:]:
                    result = found.get(b)
                    expected = oracle[(a, b)]
                    if result is None:
                        assert np.isinf(expected), (a, b)
                    else:
                        assert result.length == expected, (a, b)


@criterion(3, "full path never longer than hierarchical on the criterion-2 fixtures")
def test_criterion_3_filter_monotonicity():
    rng = random.Random(20240)  # same stream as criterion 2
    violations = 0
    for _ in range(100):
        graph = random_typed_graph(rng, max_nodes=50, edge_prob=0.1)
        iris = sorted(graph.concepts)
        n = len(iris)
        for i, a in enumerate(iris):
            hier_from = paths_from(graph, a, iris[i + 1:], True, max_depth=n)
            full_from = paths_from(graph, a, iris[i + 1:], False, max_depth=n)
            for b in iris[i + 1:]:
                hier, full = hier_from.get(b), full_from.get(b)
                if hier is not None and full is not None and full.length > hier.length:
                    violations += 1
    assert violations == 0


LEMMA_ALPHABET = "abcdefghijklmnoprstuvxyzабвгдежзиклмнопрст"


def _random_lemma(rng):
    return "".join(rng.choice(LEMMA_ALPHABET) for _ in range(rng.randint(1, 10)))


@criterion(4, "Jaccard property suite: symmetry, identity, bounds, monotonicity, worked values")
def test_criterion_4_jaccard_properties():
    rng = random.Random(4242)
    for _ in range(10_000):
        a, b = _random_lemma(rng), _random_lemma(rng)
        ab = char_jaccard(a, b)
        assert ab == char_jaccard(b, a)
        assert 0.0 <= ab <= 1.0
        assert char_jaccard(a, a) == 1.0

    thresholds = [i / 10 for i in range(11)]
    for _ in range(1_000):
        seq_a = tuple(_random_lemma(rng) for _ in range(rng.randint(1, 6)))
        seq_b = tuple(_random_lemma(rng) for _ in range(rng.randint(1, 6)))
        assert seq_similarity(seq_a, seq_a, rng.random()) == 1.0
        scores = [seq_similarity(seq_a, seq_b, t) for t in thresholds]
        assert all(x >= y for x, y in zip(scores, scores[1:]))

    assert char_jaccard("triangle", "triangles") == 8 / 9
    assert seq_similarity(("triangle", "middle", "line"), ("middle", "line"), 0.75) == 2 / 3


@criterion(5, "two runs serialize byte-identically")
def test_criterion_5_determinism(repo_root):
    config = _abs_config(repo_root)
    first = serialize_report(run(config), "json")
    second = serialize_report(run(config), "json")
    assert first == second


EXPECTED_PHRASES = {
    "q01": [(0, "NP", "question_text", "perpendicular"),
            (1, "NP", "question_text", "middle lines")],
    "q02": [(0, "NP", "question_text", "opposite angles"),
            (1, "NP", "question_text", "right angles")],
    "q03": [(0, "NP", "question_text", "square"),
            (1, "NP", "question_text", "rhombus")],
    "q04": [(0, "NP", "question_text", "Pythagorean theorem"),
            (1, "NP", "question_text", "right triangle")],
    "q05": [(0, "NP", "question_text", "finite set of points")],
    "q06": [(0, "PP", "question_text", "up to two characters after the dot")],
    "q07": [(0, "NP", "question_text", "dodecahedron"),
            (1, "NP", "answer_text", "middle line")],
    "q08": [(0, "NP", "question_text", "rectangle"),
            (1, "NP", "question_text", "rectangle")],
    "q09": [],
    "q10": [(0, "NP", "question_text", "ruler"),
            (1, "NP", "question_text", "diameter"),
            (2, "PP", "question_text", "through the center"),
            (3, "PP", "answer_text", "without a compass")],
}


@criterion(6, "corpus extraction matches hand-counted phrases, kinds, ordinals, exclusions")
def test_criterion_6_corpus_extraction(repo_root):
    questions = parse_corpus((repo_root / "fixtures/corpus.xml").read_bytes())
    assert [q.id for q in questions] == sorted(EXPECTED_PHRASES)
    for question in questions:
        got = [(p.ordinal, p.kind.value, p.source.value, p.raw)
               for p in extract_phrases(question)]
        assert got == EXPECTED_PHRASES[question.id], question.id
    # the numeric answer's TERM1 span ("five" in q04) must not surface
    q04 = questions[3]
    assert sum(1 for a in q04.answers) == 2
    assert all("five" != p.raw for p in extract_phrases(q04))


@criterion(7, "fixture lexicon normalizes 'triangles'; stoplisted phrases never reach matching")
def test_criterion_7_normalization(repo_root, fixture_lexicon, fixture_index,
                                   fixture_stoplist, monkeypatch):
    assert lemma(fixture_lexicon, "triangles") == "triangle"

    from onto_enrich import matcher as matcher_module
    from onto_enrich.corpus import MarkedPhrase
    calls = []
    original = matcher_module.match_phrase
    monkeypatch.setattr(matcher_module, "match_phrase",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    phrase = MarkedPhrase("q", PhraseKind.PP, "of the", PhraseSource.QUESTION_TEXT, 0)
    # seq_threshold 0 would accept any attempted match, so an empty result
    # proves the stoplisted phrase was never scored at all
    matches = match_question([phrase], Scorer(fixture_index, 0.75, 0.0), fixture_lexicon,
                             fixture_stoplist)
    assert matches == []
    assert calls == []
