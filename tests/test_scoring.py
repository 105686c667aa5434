"""Properties of the packed label index and its scorer.

``pair_counts`` filters the rows a phrase lemma can pair with through
bit-sliced overlap counts and runs the greedy pairing for every entry at
once over entry bitmasks; the per-entry pair counts m decoded from its bit
planes, with d = |A| + |B| - m, must equal those of the per-entry loop
reference in ``oracles`` and give m / d == seq_similarity for every entry,
so reports never depend on how the pairing is computed.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onto_enrich._scoring import (
    IndexEntry,
    LabelIndex,
    Scorer,
    _at_least,
    _count_bits,
    _pairable,
    pair_counts,
)
from onto_enrich.errors import EmptySequenceError
from oracles import char_jaccard, reference_counts, seq_similarity

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


def _dense_counts(phrase, entries, threshold):
    """``pair_counts`` decoded into per-entry lists of m and d."""
    index = _index(entries)
    planes = pair_counts(Scorer(index, threshold, 0.0), phrase)
    # no plane holds a bit past the entries, and the top plane is not empty
    assert planes[-1:] != [0] and all(plane >> len(entries) == 0 for plane in planes)
    m = [0] * len(entries)
    for b, j in enumerate(index.order):
        m[j] = sum((plane >> b & 1) << i for i, plane in enumerate(planes))
    return m, [len(phrase) + len(entry) - mj for mj, entry in zip(m, entries)]


def _assert_matches_reference(phrase, entries, threshold):
    m, d = _dense_counts(phrase, entries, threshold)
    ref_m, ref_d = reference_counts(phrase, entries, threshold)
    assert m == ref_m
    assert d == ref_d


def _mask(rows):
    return sum(1 << r for r in rows)


class TestEncoding:
    def test_encode_sequence(self):
        index = _index([("ba", "aab")])
        assert index.rows == ["ba", "aab"]
        assert index.char_rows == {"a": 0b11, "b": 0b11}
        assert index.size_rows == {2: 0b11}

    def test_encode_empty(self):
        index = _index([])
        assert index.rows == [] and index.row_positions == []
        assert index.char_rows == {} and index.size_rows == {}
        assert index.order == [] and index.length_entries == {}
        assert index.unpaired == ()

    def test_index_shape(self):
        index = _index([("a", "b"), ("ab",)])
        assert index.rows == ["a", "b", "ab"]
        assert index.char_rows == {"a": 0b101, "b": 0b110}
        assert index.size_rows == {1: 0b011, 2: 0b100}
        # the order is by lemma count first, and entry bit b is entry order[b]
        assert index.order == [1, 0]
        assert index.row_positions == [((0, 0b10),), ((1, 0b10),), ((0, 0b01),)]
        assert index.length_entries == {1: 0b01, 2: 0b10}
        assert index.unpaired == (0b11, 0b11)


class TestDistinctRows:
    """Equal lemmas share one row, which masks every entry holding it, per position."""

    def test_shared_lemma_packed_once(self):
        index = _index([("line", "angle"), ("line",), ("angle", "line")])
        assert index.rows == ["line", "angle"]
        # entries 1, 0, 2 are bits 0, 1, 2
        assert index.order == [1, 0, 2]
        assert [dict(at) for at in index.row_positions] == [
            {0: 0b011, 1: 0b100}, {0: 0b100, 1: 0b010}]
        assert index.size_rows == {4: 0b01, 5: 0b10}

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
        distinct = list(dict.fromkeys(lemma for entry in entries for lemma in entry))
        assert index.rows == distinct
        order = sorted(range(len(entries)),
                       key=lambda j: (len(entries[j]), f"c:{j}", f"label {j}"))
        assert index.order == order
        assert [dict(at) for at in index.row_positions] == [
            {k: _mask(b for b, j in enumerate(order) if entries[j][k:k + 1] == (lemma,))
             for k in range(max(map(len, entries)))
             if any(entry[k:k + 1] == (lemma,) for entry in entries)}
            for lemma in distinct]
        assert index.length_entries == {
            length: _mask(b for b, j in enumerate(order) if len(entries[j]) == length)
            for length in set(map(len, entries))}
        assert index.char_rows == {
            c: _mask(r for r, lemma in enumerate(distinct) if c in lemma)
            for c in set("".join(distinct))}
        assert index.size_rows == {
            size: _mask(r for r, lemma in enumerate(distinct) if len(set(lemma)) == size)
            for size in {len(set(lemma)) for lemma in distinct}}


class TestBitSlicing:
    """The bit-sliced counts and their threshold masks against popcounts."""

    @SETTINGS
    @given(st.integers(0, 70).flatmap(lambda width: st.tuples(
        st.just(width),
        st.lists(st.integers(0, (1 << width) - 1), max_size=20),
        st.integers(0, (1 << width) - 1))))
    def test_counts_and_at_least_match_popcount(self, drawn):
        width, masks, rows = drawn
        planes = _count_bits(masks)
        counts = [sum(mask >> r & 1 for mask in masks) for r in range(width)]
        assert [sum((plane >> r & 1) << b for b, plane in enumerate(planes))
                for r in range(width)] == counts
        assert all(plane >> width == 0 for plane in planes)
        for k in range(len(masks) + 2):
            assert _at_least(planes, k, rows) == _mask(
                r for r in range(width) if rows >> r & 1 and counts[r] >= k)

    @SETTINGS
    @given(st.one_of(lemmas, outside_lemmas, row_lemmas),
           st.one_of(entry_lists, shared_lemma_banks().map(lambda bank: bank[1])),
           thresholds)
    def test_filter_keeps_exactly_the_pairable_rows(self, lemma, entries, threshold):
        index = _index(entries)
        union, groups = _pairable(Scorer(index, threshold, 0.0), lemma)
        expected = {row: char_jaccard(lemma, row) for row in index.rows
                    if char_jaccard(lemma, row) >= threshold}

        def jaccard_at(entry, k):
            return expected.get(entry[k]) if k < len(entry) else None

        # one group per distinct Jaccard, highest first; in each, the entries
        # holding a lemma of that Jaccard at position k, ascending k; tuples,
        # since scorers may share them
        assert groups == tuple(
            tuple((k, _mask(b for b, j in enumerate(index.order)
                            if jaccard_at(entries[j], k) == jaccard))
                  for k in range(max(map(len, entries)))
                  if any(jaccard_at(entry, k) == jaccard for entry in entries))
            for jaccard in sorted(set(expected.values()), reverse=True))
        assert union == _mask(b for b, j in enumerate(index.order)
                              if not expected.keys().isdisjoint(entries[j]))


class TestBackendEquivalence:
    def test_worked_example(self):
        m, d = _dense_counts(("middle", "line"), [("triangle", "middle", "line"), ("line",)], 0.75)
        assert m == [2, 1]
        assert d == [3, 2]

    @SETTINGS
    @given(sequences, entry_lists, thresholds)
    def test_random_inputs_agree(self, phrase, entries, threshold):
        _assert_matches_reference(phrase, entries, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    @SETTINGS
    @given(phrase=sequences, entries=entry_lists)
    def test_threshold_bounds(self, phrase, entries, threshold):
        _assert_matches_reference(phrase, entries, threshold)
        m, _ = _dense_counts(phrase, entries, threshold)
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
        m, d = _dense_counts(phrase, entries, threshold)
        for j, entry in enumerate(entries):
            assert m[j] / d[j] == seq_similarity(phrase, entry, threshold)

    @SETTINGS
    @given(entry_lists, thresholds)
    def test_empty_phrase(self, entries, threshold):
        assert pair_counts(Scorer(_index(entries), threshold, 0.0), ()) == []

    @SETTINGS
    @given(sequences, thresholds)
    def test_empty_index(self, phrase, threshold):
        assert pair_counts(Scorer(_index([]), threshold, 0.0), phrase) == []

    @SETTINGS
    @given(outside_sequences, entry_lists, thresholds)
    def test_phrase_codepoints_outside_index_alphabet(self, phrase, entries, threshold):
        _assert_matches_reference(phrase, entries, threshold)

    def test_entry_without_lemmas_rejected(self):
        with pytest.raises(EmptySequenceError):
            _index([("line",), ()])
