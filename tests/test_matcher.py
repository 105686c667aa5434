import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onto_enrich import _scoring
from onto_enrich._scoring import IndexEntry, LabelIndex, Scorer
from onto_enrich.corpus import MarkedPhrase, PhraseKind, PhraseSource
from onto_enrich.errors import EmptySequenceError
from onto_enrich.matcher import ConceptMatch, match_phrase, match_question
from onto_enrich.textnorm import normalize_phrase
from oracles import char_jaccard, reference_counts, seq_similarity


def _phrase(raw: str, qid: str = "q1", ordinal: int = 0) -> MarkedPhrase:
    return MarkedPhrase(qid, PhraseKind.NP, raw, PhraseSource.QUESTION_TEXT, ordinal)


def _index(*entries: tuple[str, str, tuple[str, ...]]) -> LabelIndex:
    return LabelIndex(tuple(IndexEntry(*e) for e in entries))


# A few overlapping lemmas, three IRIs and short sequences: equal scores from
# different fractions (1/2 and 2/4) and shared IRIs come up often
TIE_VOCAB = ["aa", "ab", "abc", "bc", "лин", "линия"]
tie_sequences = st.lists(st.sampled_from(TIE_VOCAB), min_size=1, max_size=4).map(tuple)
tie_entries = st.lists(
    st.tuples(st.sampled_from(["c:a", "c:b", "c:c"]), st.sampled_from(["x", "y", "z"]),
              tie_sequences),
    max_size=10, unique_by=lambda e: e[:2])
tie_configs = st.tuples(
    st.sampled_from([0.0, 0.5, 0.75, 1.0]),
    st.one_of(st.sampled_from([0.0, 1 / 3, 0.5, 2 / 3, 1.0]), st.floats(0.0, 1.0)))


def _brute_force_match(seq, entries, config):
    """(entry, exact score) of the best label, or None below seq_threshold,
    at ``config``'s (word_threshold, seq_threshold)."""
    word_threshold, seq_threshold = config
    m, d = reference_counts(seq, [e.lemmas for e in entries], word_threshold)
    scored = [(Fraction(mj, dj), e) for mj, dj, e in zip(m, d, entries)
              if mj / dj >= seq_threshold]
    if not scored:
        return None
    top = max(score for score, _ in scored)
    best = min((e for score, e in scored if score == top),
               key=lambda e: (len(e.lemmas), e.iri, e.label))
    return best, top


def _assert_best_match(seq, entries, config):
    """``match_phrase`` picks the label ``_brute_force_match`` picks."""
    index = _index(*entries)
    match = match_phrase(_phrase(" ".join(seq)), seq, Scorer(index, *config))
    expected = _brute_force_match(seq, index.entries, config)
    if expected is None:
        assert match is None
    else:
        entry, score = expected
        assert (match.concept_iri, match.matched_label) == (entry.iri, entry.label)
        assert match.score == float(score)


class TestCharJaccard:
    def test_identity(self):
        assert char_jaccard("triangle", "triangle") == 1.0

    def test_plural(self):
        assert char_jaccard("triangle", "triangles") == 8 / 9

    def test_disjoint(self):
        assert char_jaccard("abc", "xyz") == 0.0

    def test_both_empty(self):
        assert char_jaccard("", "") == 1.0

    def test_one_empty(self):
        assert char_jaccard("", "abc") == 0.0


class TestSeqSimilarity:
    def test_identical(self):
        assert seq_similarity(("middle", "line"), ("middle", "line"), 0.75) == 1.0

    def test_subsequence(self):
        assert seq_similarity(("triangle", "middle", "line"), ("middle", "line"), 0.75) == 2 / 3

    def test_high_threshold_blocks_pairing(self):
        assert seq_similarity(("perpendicular",), ("parallel",), 0.99) == 0.0
        assert char_jaccard("perpendicular", "parallel") == 0.5

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            seq_similarity((), ("line",), 0.5)
        with pytest.raises(EmptySequenceError):
            seq_similarity(("line",), (), 0.5)

    def test_greedy_takes_best_not_first_eligible(self):
        # "abcde" pairs with "abcd" (0.8) over the earlier "abc" (0.6),
        # which then starves "abdx"; first-eligible pairing would score 1.0
        score = seq_similarity(("abcde", "abdx"), ("abc", "abcd"), 0.5)
        assert score == 1 / 3

    def test_greedy_tie_takes_earliest(self):
        # "ab" ties between "abc" and "abd" at 2/3 and must take "abc",
        # starving "abc"'s only other suitor; a latest-tie rule would score 1.0
        score = seq_similarity(("ab", "abc"), ("abc", "abd"), 0.6)
        assert score == 1 / 3


class TestMatchPhrase:
    CFG = (0.75, 0.5)

    def test_partial_overlap_with_longer_label(self):
        index = _index(("c:TriangleMiddleLine", "Triangle middle line",
                        ("triangle", "middle", "line")))
        match = match_phrase(_phrase("middle lines"), ("middle", "line"), Scorer(index, *self.CFG))
        assert match is not None
        assert match.concept_iri == "c:TriangleMiddleLine"
        assert match.score == 2 / 3

    def test_exact_match_scores_one(self):
        index = _index(("c:RightAngle", "Right angle", ("right", "angle")))
        match = match_phrase(_phrase("right angles"), ("right", "angle"), Scorer(index, *self.CFG))
        assert match.score == 1.0
        assert match.matched_label == "Right angle"

    def test_no_match_below_threshold(self, fixture_index):
        match = match_phrase(
            _phrase("dodecahedron"), ("dodecahedron",), Scorer(fixture_index, *self.CFG))
        assert match is None

    def test_empty_index(self):
        assert match_phrase(_phrase("line"), ("line",), Scorer(_index(), *self.CFG)) is None

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySequenceError):
            match_phrase(_phrase("of the"), (), Scorer(_index(), *self.CFG))

    def test_tie_shorter_label_wins(self):
        # both score 1/2 == 2/4; the two-lemma label must win despite larger iri
        index = _index(
            ("c:A", "aa bb cc dd", ("aa", "bb", "cc", "dd")),
            ("c:Z", "aa", ("aa",)),
        )
        match = match_phrase(_phrase("aa bb"), ("aa", "bb"), Scorer(index, *self.CFG))
        assert match.score == 0.5
        assert match.concept_iri == "c:Z"

    def test_tie_smaller_iri_wins(self):
        index = _index(
            ("c:B", "line", ("line",)),
            ("c:A", "line", ("line",)),
        )
        match = match_phrase(_phrase("line"), ("line",), Scorer(index, *self.CFG))
        assert match.concept_iri == "c:A"

    def test_tie_smaller_label_wins(self):
        index = _index(
            ("c:A", "b a", ("b", "a")),
            ("c:A", "a b", ("a", "b")),
        )
        match = match_phrase(_phrase("a b"), ("a", "b"), Scorer(index, *self.CFG))
        assert match.matched_label == "a b"

    def test_zero_threshold_without_pairs_takes_lowest_rank(self):
        # no label pairs with "z", so every label scores 0.0, which clears a
        # sequence threshold of 0: the first label in rank order wins
        index = _index(
            ("c:B", "x y", ("x", "y")),
            ("c:C", "w", ("w",)),
            ("c:A", "v", ("v",)),
        )
        match = match_phrase(_phrase("z"), ("z",), Scorer(index, 0.75, 0.0))
        assert (match.concept_iri, match.matched_label, match.score) == ("c:A", "v", 0.0)

    def test_score_meets_threshold_invariant(self, fixture_index):
        rng = random.Random(3)
        vocab = ["triangle", "angle", "segment", "circle", "point", "lines", "right"]
        for _ in range(100):
            seq = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            word_threshold, seq_threshold = rng.random(), rng.random()
            scorer = Scorer(fixture_index, word_threshold, seq_threshold)
            match = match_phrase(_phrase(" ".join(seq)), seq, scorer)
            if match is not None:
                assert match.score >= seq_threshold

    def test_agrees_with_scalar_brute_force(self, fixture_index):
        # the batch kernel path must pick exactly what a direct scan picks
        rng = random.Random(5)
        vocab = ["triangle", "middle", "line", "angle", "right", "segment", "circl"]
        entries = fixture_index.entries
        for _ in range(50):
            seq = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            word_threshold, seq_threshold = 0.7, 0.4
            best = None
            for e in entries:
                score = seq_similarity(seq, e.lemmas, word_threshold)
                if score < seq_threshold:
                    continue
                key = (-score, len(e.lemmas), e.iri, e.label)
                if best is None or key < best[0]:
                    best = (key, e, score)
            scorer = Scorer(fixture_index, word_threshold, seq_threshold)
            match = match_phrase(_phrase(" ".join(seq)), seq, scorer)
            if best is None:
                assert match is None
            else:
                assert match.concept_iri == best[1].iri
                assert match.matched_label == best[1].label
                assert match.score == best[2]


    @settings(max_examples=300, deadline=None)
    @given(tie_sequences, tie_entries, tie_configs)
    # 1/2 == 2/4 at exactly seq_threshold; 1/3 == 2/6 between labels of one IRI
    @example(("aa", "abc"), [("c:b", "x", ("aa",)), ("c:a", "y", ("aa", "abc", "bc", "лин"))],
             (1.0, 0.5))
    @example(("aa", "ab", "abc"), [("c:a", "y", ("aa", "ab", "лин", "bc", "линия")),
                                   ("c:a", "x", ("ab",))], (1.0, 0.0))
    def test_agrees_with_fraction_brute_force(self, seq, entries, config):
        _assert_best_match(seq, entries, config)


# Against "abcd", "ab" shares 2 of 4 characters and "abcxy" 3 of 6, so both
# have Jaccard 1/2 from different (overlap, size) groups; against "ab", "a"
# (1 of 2) and "abcd" (2 of 4) do too. Short labels drawn from a few lemmas
# repeat a lemma at several positions, and phrases run longer than labels.
GROUP_VOCAB = ["abcd", "ab", "abcxy", "abc", "abd", "cd", "a", "x"]
group_phrases = st.lists(st.sampled_from(GROUP_VOCAB), min_size=1, max_size=6).map(tuple)
group_entries = st.lists(
    st.tuples(st.sampled_from(["c:a", "c:b", "c:c"]), st.sampled_from(["x", "y", "z"]),
              st.lists(st.sampled_from(GROUP_VOCAB[:5]), min_size=1, max_size=4).map(tuple)),
    min_size=1, max_size=10, unique_by=lambda e: e[:2])


# "abcd" has Jaccard 1/2 with "ab" and "cd" (2 of 4) and with "abcxy" (3 of
# 6): one Jaccard from two (overlap, size) pairs. Of the lemmas after it,
# "ab" and "cd" pair with "abcxy" only up to word thresholds 2/5 and 1/6,
# "d" pairs only with "cd", and "xy" only with "abcxy".
TIED_ROWS = ["ab", "cd", "abcxy"]


@st.composite
def size_order_banks(draw):
    """(phrase, entries): the phrase starts with "abcd", and the entries,
    made of ``TIED_ROWS``, follow one that lists ``TIED_ROWS`` in a drawn
    order. Rows are numbered by first occurrence, so that order is the order
    in which row sizes first appear, which ``_overlaps`` keeps among the
    (overlap, size) pairs of one Jaccard."""
    iris = st.sampled_from(["c:a", "c:b", "c:c"])
    lead = (draw(iris), "w", tuple(draw(st.permutations(TIED_ROWS))))
    entries = draw(st.lists(
        st.tuples(iris, st.sampled_from(["x", "y", "z"]),
                  st.lists(st.sampled_from(TIED_ROWS), min_size=2, max_size=3).map(tuple)),
        min_size=1, max_size=4, unique_by=lambda e: e[:2]))
    tail = draw(st.lists(st.sampled_from([*TIED_ROWS, "d", "xy"]), min_size=1, max_size=2))
    return ("abcd", *tail), [lead, *entries]


group_configs = st.tuples(
    st.one_of(st.sampled_from([0.0, 0.4, 0.5, 0.6, 0.75, 1.0]), st.floats(0.0, 1.0)),
    st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0]), st.floats(0.0, 1.0)))


class TestBitParallelWinner:
    """The greedy pairing over entry bitmasks and the walk over scores pick
    exactly the label that exact ``Fraction`` scores and the tie-break pick."""

    @settings(max_examples=300, deadline=None)
    @given(group_phrases, group_entries, group_configs)
    # one lemma pairs once with a label that repeats it: 1.0 beats 1/2
    @example(("ab", "ab"), [("c:b", "x", ("ab",)), ("c:a", "x", ("ab", "ab"))],
             (1.0, 0.0))
    # "ab" ties "abc" and "abd" at 2/3 and takes the earlier, starving "abc"
    @example(("ab", "abc"), [("c:a", "x", ("abc", "abd"))], (0.6, 0.0))
    # "abcd" ties "abcxy" (3/6) and "ab" (2/4) and takes the earlier, which
    # leaves "ab" its exact match
    @example(("abcd", "ab"), [("c:a", "x", ("cd",)), ("c:b", "x", ("abcxy", "ab"))],
             (0.5, 0.0))
    # 1/2 from (m, length) = (1, 1) ties 2/4 from (2, 4): the shorter label wins
    @example(("ab", "abc"), [("c:b", "x", ("ab",)), ("c:a", "x", ("ab", "abc", "x", "x"))],
             (1.0, 0.0))
    # equal labels fall to the smaller iri, not to the earlier entry
    @example(("ab",), [("c:b", "x", ("ab",)), ("c:a", "x", ("ab",))], (1.0, 0.5))
    def test_agrees_with_fraction_brute_force(self, seq, entries, config):
        _assert_best_match(seq, entries, config)

    @settings(max_examples=300, deadline=None)
    @given(size_order_banks(), group_configs)
    def test_row_size_order_does_not_change_the_winner(self, bank, config):
        # one Jaccard group spans row sizes; a size seen first may hold the
        # later position in a label, where the earlier position must still win
        _assert_best_match(*bank, config)


class TestMatchQuestion:
    CFG = (0.75, 0.5)

    def test_fixture_question_pair(self, fixture_corpus, fixture_index,
                                   fixture_lexicon, fixture_stoplist):
        from onto_enrich.corpus import extract_phrases
        matches = match_question(extract_phrases(fixture_corpus[0]),
                                 Scorer(fixture_index, *self.CFG), fixture_lexicon,
                                 fixture_stoplist)
        assert [m.concept_iri for m in matches] == \
            ["c:Perpendicular", "c:TriangleMiddleLine"]

    def test_no_phrases(self, fixture_index, fixture_lexicon, fixture_stoplist):
        assert match_question([], Scorer(fixture_index, *self.CFG),
                              fixture_lexicon, fixture_stoplist) == []

    def test_duplicate_concept_collapsed(self, fixture_index,
                                         fixture_lexicon, fixture_stoplist):
        phrases = [_phrase("square", "q", 0), _phrase("squares", "q", 1)]
        matches = match_question(phrases, Scorer(fixture_index, *self.CFG),
                                 fixture_lexicon, fixture_stoplist)
        assert len(matches) == 1
        assert matches[0].concept_iri == "c:Square"
        assert matches[0].phrase.ordinal == 0

    def test_stoplisted_phrase_not_attempted(self, fixture_index,
                                             fixture_lexicon, fixture_stoplist, monkeypatch):
        from onto_enrich import matcher as matcher_module
        calls = []
        original = matcher_module.match_phrase
        monkeypatch.setattr(matcher_module, "match_phrase",
                            lambda *a, **k: calls.append(a) or original(*a, **k))
        matches = match_question([_phrase("of the")], Scorer(fixture_index, 0.75, 0.0),
                                 fixture_lexicon, fixture_stoplist)
        assert matches == []
        assert calls == []


# A question bank drawn from a small pool of phrases, so lemma sequences
# repeat within and across questions; "of" is stoplisted, so the pool phrase
# "of" normalizes to nothing and never reaches the scorer
MEMO_STOPLIST = frozenset({"of"})
phrase_pools = st.lists(
    st.one_of(st.just("of"), tie_sequences.map(" ".join),
              tie_sequences.map(lambda seq: "of " + " ".join(seq))),
    min_size=1, max_size=4)
banks = st.lists(st.lists(st.integers(0, 3), max_size=5), min_size=1, max_size=5)


def _questions(pool, bank):
    """The phrases of each question; phrase ``k`` of question ``i`` is pool
    entry ``bank[i][k] % len(pool)``."""
    return [[_phrase(pool[p % len(pool)], f"q{i}", k) for k, p in enumerate(picks)]
            for i, picks in enumerate(bank)]


def _oracle_question(phrases, entries, config):
    """match_question by a direct scan: seq_similarity per label, the rank
    tie-break, then one match per concept (highest score, earliest phrase)."""
    word_threshold, seq_threshold = config
    by_concept = {}
    for phrase in phrases:
        seq = normalize_phrase(phrase.raw, {}, MEMO_STOPLIST)
        if not seq:
            continue
        best = None
        for e in entries:
            score = seq_similarity(seq, e.lemmas, word_threshold)
            key = (-score, len(e.lemmas), e.iri, e.label)
            if score >= seq_threshold and (best is None or key < best[0]):
                best = (key, e, score)
        if best is None:
            continue
        _, e, score = best
        held = by_concept.get(e.iri)
        if held is None or score > held.score:
            by_concept[e.iri] = ConceptMatch(phrase.question_id, phrase, e.iri, e.label, score)
    return sorted(by_concept.values(), key=lambda m: m.phrase.ordinal)


class TestMemo:
    """A ``Scorer`` scores each distinct lemma sequence once."""

    @settings(max_examples=200, deadline=None)
    @given(phrase_pools, banks, tie_entries, tie_configs, tie_configs)
    def test_matches_oracle_and_scores_each_key_once(self, pool, bank, entries, first, second):
        index = _index(*entries)
        calls = []
        pair_counts = _scoring.pair_counts

        def counted(scorer, seq):
            calls.append((scorer, seq))
            return pair_counts(scorer, seq)

        questions = _questions(pool, bank)
        scorers = [(Scorer(index, *first), first), (Scorer(index, *second), second)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_scoring, "pair_counts", counted)
            # the second scorer runs between two passes of the first over
            # one shared index, so a result leaking across scorers shows
            for scorer, config in (scorers[0], scorers[1], scorers[0]):
                for phrases in questions:
                    got = match_question(phrases, scorer, {}, MEMO_STOPLIST)
                    assert got == _oracle_question(phrases, index.entries, config)
        seqs = {normalize_phrase(p.raw, {}, MEMO_STOPLIST)
                for phrases in questions for p in phrases} - {()}
        for scorer, _ in scorers:
            scored = [seq for by, seq in calls if by is scorer]
            assert sorted(scored) == (sorted(seqs) if index.entries else [])
            assert set(scorer.winners) == (seqs if index.entries else set())

    def test_repeat_carries_its_own_phrase(self):
        index = _index(("c:A", "a b", ("a", "b")), ("c:B", "c", ("c",)))
        scorer = Scorer(index, 1.0, 0.0)
        first = match_phrase(_phrase("a b", "q1", 0), ("a", "b"), scorer)
        again = match_phrase(_phrase("A  B", "q2", 3), ("a", "b"), scorer)
        assert (again.question_id, again.phrase.raw, again.phrase.ordinal) == ("q2", "A  B", 3)
        assert (again.concept_iri, again.matched_label, again.score) == \
            (first.concept_iri, first.matched_label, first.score) == ("c:A", "a b", 1.0)

    def test_unmatched_key_is_remembered(self):
        index = _index(("c:A", "a", ("a",)))
        scorer = Scorer(index, 1.0, 0.5)
        assert match_phrase(_phrase("z"), ("z",), scorer) is None
        assert scorer.winners == {("z",): None}
        # a lower sequence threshold is another scorer, which scores afresh
        assert match_phrase(_phrase("z"), ("z",), Scorer(index, 1.0, 0.0)).score == 0.0

    def test_scorers_share_no_memo(self):
        index = _index(("c:A", "a b", ("a", "b")), ("c:B", "c", ("c",)))
        one, two = Scorer(index, 1.0, 0.5), Scorer(index, 1.0, 0.5)
        memos = ("pairable", "overlaps", "walks", "winners")
        match_phrase(_phrase("a"), ("a",), one)
        assert all(getattr(one, name) for name in memos)
        assert all(getattr(two, name) == {} for name in memos)
        match_phrase(_phrase("c"), ("c",), two)
        assert set(one.winners) == {("a",)} and set(two.winners) == {("c",)}
        assert set(one.pairable) == {"a"} and set(two.pairable) == {"c"}
        assert one.index is two.index is index


WORD_ALPHABET = "abcdefgzхо"


def _random_lemma(rng):
    return "".join(rng.choice(WORD_ALPHABET) for _ in range(rng.randint(1, 8)))


class TestProperties:
    def test_char_jaccard_symmetric_and_bounded(self):
        rng = random.Random(17)
        for _ in range(500):
            a, b = _random_lemma(rng), _random_lemma(rng)
            ab = char_jaccard(a, b)
            assert ab == char_jaccard(b, a)
            assert 0.0 <= ab <= 1.0
            assert char_jaccard(a, a) == 1.0

    def test_seq_self_similarity(self):
        rng = random.Random(19)
        for _ in range(200):
            seq = tuple(_random_lemma(rng) for _ in range(rng.randint(1, 5)))
            assert seq_similarity(seq, seq, rng.random()) == 1.0

    def test_seq_bounds_and_equal_length_at_one(self):
        rng = random.Random(23)
        for _ in range(300):
            a = tuple(_random_lemma(rng) for _ in range(rng.randint(1, 5)))
            b = tuple(_random_lemma(rng) for _ in range(rng.randint(1, 5)))
            score = seq_similarity(a, b, rng.random())
            assert 0.0 <= score <= 1.0
            if score == 1.0:
                assert len(a) == len(b)

    def test_threshold_monotonicity(self):
        rng = random.Random(29)
        thresholds = [i / 10 for i in range(11)]
        for _ in range(200):
            a = tuple(_random_lemma(rng) for _ in range(rng.randint(1, 4)))
            b = tuple(_random_lemma(rng) for _ in range(rng.randint(1, 4)))
            scores = [seq_similarity(a, b, t) for t in thresholds]
            assert all(x >= y for x, y in zip(scores, scores[1:]))
