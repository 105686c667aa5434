"""Properties of the packed label index and its scorer.

``score_counts`` pairs a phrase with all entries at once; its integer (m, d)
outputs must equal those of the per-entry loop reference in ``oracles`` and
give m / d == seq_similarity for every entry, so reports never depend on how
the pairing is computed.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onto_enrich._scoring import IndexEntry, LabelIndex, score_counts
from onto_enrich.errors import EmptySequenceError
from onto_enrich.matcher import seq_similarity
from oracles import reference_counts

# Latin, Cyrillic and a non-BMP letter: few enough that lemmas overlap
# often, varied enough to cover non-ASCII codepoints
INDEX_ALPHABET = "abcdeлинуг\U0001d49c"
OUTSIDE_ALPHABET = "zé\uffff"

lemmas = st.text(INDEX_ALPHABET, min_size=1, max_size=6)
sequences = st.lists(lemmas, min_size=1, max_size=5).map(tuple)
entry_lists = st.lists(sequences, min_size=1, max_size=12)
thresholds = st.one_of(st.sampled_from([0.0, 0.5, 0.75, 1.0]),
                       st.floats(0.0, 1.0, allow_nan=False))
# each lemma carries at least one codepoint the index never contains
outside_lemmas = st.tuples(lemmas, st.text(OUTSIDE_ALPHABET, min_size=1, max_size=3)).map("".join)
outside_sequences = st.lists(outside_lemmas, min_size=1, max_size=4).map(tuple)

# Astral letters and lone surrogates, which str.encode would reject, drawn
# into a small pool of lemmas that many entries share
ROW_ALPHABET = ["a", "b", "\U0001d49c", "\U0001f600", "\ud800", "\udfff"]
row_lemmas = st.lists(st.sampled_from(ROW_ALPHABET), min_size=1, max_size=5).map("".join)


@st.composite
def shared_lemma_banks(draw):
    """(phrase, entries) whose lemmas come from one small pool."""
    pool = draw(st.lists(row_lemmas, min_size=1, max_size=6, unique=True))
    pooled = st.lists(st.sampled_from(pool), min_size=1, max_size=5).map(tuple)
    phrase = draw(st.one_of(pooled, st.lists(row_lemmas, min_size=1, max_size=4).map(tuple)))
    return phrase, draw(st.lists(pooled, min_size=1, max_size=12))


SETTINGS = settings(max_examples=200, deadline=None)


def _index(entries):
    return LabelIndex(
        IndexEntry(f"c:{j}", f"label {j}", seq) for j, seq in enumerate(entries))


def _assert_matches_reference(phrase, entries, threshold):
    m, d = score_counts(_index(entries), phrase, threshold)
    ref_m, ref_d = reference_counts(phrase, entries, threshold)
    assert m.tolist() == ref_m.tolist()
    assert d.tolist() == ref_d.tolist()


class TestEncoding:
    def test_encode_sequence(self):
        index = _index([("ba", "aab")])
        assert index.columns == {"a": 0, "b": 1}
        assert index.incidence.tolist() == [[1, 1], [1, 1]]
        assert index.sizes.tolist() == [2, 2]

    def test_encode_empty(self):
        index = _index([])
        assert index.incidence.shape == (0, 0)
        assert index.lengths.size == 0 and index.rank.size == 0

    def test_index_shape(self):
        index = _index([("ab",), ("a", "b")])
        assert index.starts.tolist() == [0, 1]
        assert index.owner.tolist() == [0, 1, 1]
        assert index.incidence.tolist() == [[1, 1], [1, 0], [0, 1]]
        # rank orders by lemma count first
        assert index.rank.tolist() == [0, 1]


class TestDistinctRows:
    """Equal lemmas share one incidence row, reached through ``lemma_id``."""

    def test_shared_lemma_packed_once(self):
        index = _index([("line", "angle"), ("line",), ("angle", "line")])
        assert index.lemma_id.tolist() == [0, 1, 0, 1, 0]
        assert index.incidence.shape[0] == 2
        assert index.sizes.tolist() == [4, 5]

    @SETTINGS
    @given(shared_lemma_banks(), thresholds)
    def test_agrees_with_loop_reference(self, bank, threshold):
        phrase, entries = bank
        _assert_matches_reference(phrase, entries, threshold)

    @SETTINGS
    @given(shared_lemma_banks())
    def test_one_row_per_distinct_lemma(self, bank):
        _, entries = bank
        index = _index(entries)
        occurrences = [lemma for entry in entries for lemma in entry]
        distinct = list(dict.fromkeys(occurrences))
        assert index.incidence.shape[0] == len(distinct)
        assert [distinct[r] for r in index.lemma_id] == occurrences
        assert sorted(index.columns) == sorted(set("".join(distinct)))
        assert sorted(index.columns.values()) == list(range(index.incidence.shape[1]))
        for row, lemma in zip(index.incidence, distinct):
            assert set(row.nonzero()[0]) == {index.columns[c] for c in lemma}
        assert index.sizes.tolist() == [len(set(lemma)) for lemma in distinct]


class TestBackendEquivalence:
    def test_worked_example(self):
        index = _index([("triangle", "middle", "line"), ("line",)])
        m, d = score_counts(index, ("middle", "line"), 0.75)
        assert m.tolist() == [2, 1]
        assert d.tolist() == [3, 2]

    @SETTINGS
    @given(sequences, entry_lists, thresholds)
    def test_random_inputs_agree(self, phrase, entries, threshold):
        _assert_matches_reference(phrase, entries, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    @SETTINGS
    @given(phrase=sequences, entries=entry_lists)
    def test_threshold_bounds(self, phrase, entries, threshold):
        _assert_matches_reference(phrase, entries, threshold)
        m, _ = score_counts(_index(entries), phrase, threshold)
        for j, entry in enumerate(entries):
            if threshold == 0.0:
                # every lemma pair clears 0: pairing stops when a side runs out
                assert m[j] == min(len(phrase), len(entry))
            else:
                # only lemmas with equal character sets pair, one to one
                a = Counter(frozenset(lemma) for lemma in phrase)
                b = Counter(frozenset(lemma) for lemma in entry)
                assert m[j] == sum((a & b).values())

    @SETTINGS
    @given(sequences, entry_lists, thresholds)
    def test_matches_scalar_seq_similarity(self, phrase, entries, threshold):
        m, d = score_counts(_index(entries), phrase, threshold)
        for j, entry in enumerate(entries):
            assert m[j] / d[j] == seq_similarity(phrase, entry, threshold)

    @SETTINGS
    @given(entry_lists, thresholds)
    def test_empty_phrase(self, entries, threshold):
        m, d = score_counts(_index(entries), (), threshold)
        assert m.tolist() == [0] * len(entries)
        assert d.tolist() == [len(e) for e in entries]

    @SETTINGS
    @given(sequences, thresholds)
    def test_empty_index(self, phrase, threshold):
        m, d = score_counts(_index([]), phrase, threshold)
        assert m.size == 0 and d.size == 0

    @SETTINGS
    @given(outside_sequences, entry_lists, thresholds)
    def test_phrase_codepoints_outside_index_alphabet(self, phrase, entries, threshold):
        _assert_matches_reference(phrase, entries, threshold)

    def test_entry_without_lemmas_rejected(self):
        with pytest.raises(EmptySequenceError):
            _index([("line",), ()])
