import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onto_enrich.errors import InvalidUtf8Error, MalformedLexiconLineError, OntoEnrichError
from onto_enrich.textnorm import (
    DEFAULT_STOPLIST,
    load_lexicon,
    load_stoplist,
    normalize_phrase,
)
from oracles import lemma, tokenize


class TestTokenize:
    def test_plain_phrase(self):
        assert tokenize("finite set of points") == ["finite", "set", "of", "points"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_punctuation_splits(self):
        assert tokenize("Triangle's mid-line") == ["triangle", "s", "mid", "line"]

    def test_case_folding(self):
        assert tokenize("RIGHT Angle") == ["right", "angle"]

    def test_digits_kept(self):
        assert tokenize("side a2, side b2") == ["side", "a2", "side", "b2"]

    def test_only_separators(self):
        assert tokenize("--- ... ''") == []

    def test_cyrillic(self):
        assert tokenize("Прямой угол") == ["прямой", "угол"]


class TestLemmatize:
    def test_lexicon_hit(self):
        lex = {"triangles": "triangle"}
        assert lemma(lex, "triangles") == "triangle"

    def test_identity_fallback(self):
        assert lemma({}, "triangle") == "triangle"

    def test_fixture_entry(self, fixture_lexicon):
        assert lemma(fixture_lexicon, "axes") == "axis"


class TestNormalizePhrase:
    def test_pp_example(self):
        lex = {"characters": "character"}
        stop = frozenset({"up", "to", "the", "after"})
        assert normalize_phrase("up to two characters after the dot", lex, stop) == \
            ("two", "character", "dot")

    def test_fully_stoplisted(self):
        assert normalize_phrase("of of of", {}, frozenset({"of"})) == ()

    def test_plural_phrase(self):
        lex = {"lines": "line"}
        assert normalize_phrase("middle lines", lex, frozenset()) == ("middle", "line")

    def test_stoplist_applies_to_lemma_form(self):
        # surface "ofs" maps to stoplisted lemma "of": dropped after lemmatization
        lex = {"ofs": "of"}
        stop = frozenset({"of"})
        assert normalize_phrase("ofs line", lex, stop) == ("line",)

    def test_any_mapping_and_any_set(self):
        text = "Up to two characters after the dot"
        lex = {"characters": "character", "dot": "point"}
        stop = {"up", "to", "the", "after"}
        expected = normalize_phrase(text, lex, frozenset(stop))
        assert expected == ("two", "character", "point")
        assert normalize_phrase(text, types.MappingProxyType(lex), stop) == expected


class TestLoadLexicon:
    def test_single_entry(self):
        lex = load_lexicon(b"Triangles\ttriangle\n")
        assert type(lex) is dict and lex == {"triangles": "triangle"}
        assert lemma(lex, "triangles") == "triangle"

    def test_empty_file(self):
        lex = load_lexicon(b"")
        assert len(lex) == 0
        assert lemma(lex, "anything") == "anything"

    def test_last_duplicate_wins(self):
        lex = load_lexicon(b"a\tb\na\tc\n")
        assert lemma(lex, "a") == "c"

    def test_comments_and_blanks_skipped(self):
        lex = load_lexicon(b"# comment\n\nlines\tline\n")
        assert len(lex) == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(MalformedLexiconLineError) as exc:
            load_lexicon(b"good\tline\nbad line\n")
        assert exc.value.line == 2

    def test_empty_field_rejected(self):
        with pytest.raises(MalformedLexiconLineError):
            load_lexicon(b"\tlemma\n")

    def test_non_utf8_named_with_line_and_column(self):
        with pytest.raises(InvalidUtf8Error) as exc:
            load_lexicon(b"# c\r\n\xd1\x83\xd0\xb3\xd0\xbb\xd1\x8b\t\xff\n")
        assert (exc.value.line, exc.value.column) == (2, 6)

    def test_byte_order_mark_dropped(self):
        assert load_lexicon(b"\xef\xbb\xbfcats\tcat\n") == {"cats": "cat"}

    def test_byte_order_mark_not_counted_as_a_column(self):
        with pytest.raises(InvalidUtf8Error) as exc:
            load_lexicon(b"\xef\xbb\xbfab\xe9\tx\n")
        assert (exc.value.line, exc.value.column) == (1, 3)


class TestLoadStoplist:
    def test_basic(self):
        stop = load_stoplist(b"The\nof\n# comment\n\n")
        assert type(stop) is frozenset and stop == {"the", "of"}

    def test_non_utf8_named_with_line_and_column(self):
        with pytest.raises(InvalidUtf8Error) as exc:
            load_stoplist(b"the\n\nof\x80\n")
        assert (exc.value.line, exc.value.column) == (3, 3)
        assert "0x80" in str(exc.value)

    def test_byte_order_mark_dropped(self):
        assert load_stoplist(b"\xef\xbb\xbfof\nthe\n") == {"of", "the"}
        # only one mark is dropped; a second is text
        assert load_stoplist(b"\xef\xbb\xbf\xef\xbb\xbfof\n") == {"\ufeffof"}

    def test_default_covers_pp_prepositions(self):
        assert type(DEFAULT_STOPLIST) is frozenset
        for word in ("up", "to", "the", "after", "of"):
            assert word in DEFAULT_STOPLIST


WORDS = ["triangle", "triangles", "line", "углы", "angle", "b2", "mid", "set", "point"]


def _random_phrase(rng):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))


class TestProperties:
    def test_tokenize_idempotent_on_lemmas(self):
        rng = random.Random(7)
        lex = {"triangles": "triangle", "lines": "line"}
        for _ in range(200):
            seq = normalize_phrase(_random_phrase(rng), lex, DEFAULT_STOPLIST)
            for lemma in seq:
                assert tokenize(lemma) == [lemma]

    def test_normalize_never_longer_than_tokenize(self):
        rng = random.Random(11)
        for _ in range(200):
            text = _random_phrase(rng)
            assert len(normalize_phrase(text, {}, DEFAULT_STOPLIST)) <= len(tokenize(text))

    def test_case_insensitive(self):
        rng = random.Random(13)
        lex = {"triangles": "triangle"}
        for _ in range(200):
            text = _random_phrase(rng)
            assert normalize_phrase(text.upper(), lex, DEFAULT_STOPLIST) == \
                normalize_phrase(text, lex, DEFAULT_STOPLIST)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.sampled_from("abAB2_-' .уГ\u0130\u00df"), max_size=24),
           st.dictionaries(st.text("ab", min_size=1, max_size=2),
                           st.text("ab", min_size=1, max_size=2)),
           st.frozensets(st.text("ab", min_size=1, max_size=2)))
    def test_normalize_is_tokenize_then_lemma_then_stoplist(self, text, entries, forms):
        expected = tuple(form for form in (lemma(entries, token) for token in tokenize(text))
                         if form not in forms)
        assert normalize_phrase(text, entries, forms) == expected

    def test_lemmatize_total_and_deterministic(self):
        lex = {"a": "b"}
        for token in WORDS:
            first = lemma(lex, token)
            assert first == lemma(lex, token)
            assert first


# Pieces of lexicon and stoplist lines: fields, tabs, comments, line breaks
# (also those only str.splitlines knows), a UTF-8 BOM and bytes that are not
# UTF-8.
_LINE_FRAGMENTS = st.sampled_from([
    b"cats", b"cat", b"\xd1\x83\xd0\xb3", b"\t", b" ", b"#", b"\n", b"\r\n", b"\r",
    "\u2028\u2029\x85\x0b\x0c\x1e".encode(), b"\xef\xbb\xbf", b"\xff", b"\xe9", b"\xd1", b"\x00",
])
_TEXT_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(_LINE_FRAGMENTS, max_size=24).map(b"".join),
)


def _assert_names_a_line(exc: OntoEnrichError):
    assert exc.line >= 1
    assert f"(line {exc.line}" in str(exc)


class TestArbitraryBytes:
    @settings(max_examples=300, deadline=None)
    @given(_TEXT_BYTES)
    def test_lexicon_loads_or_names_a_line(self, data):
        try:
            lexicon = load_lexicon(data)
        except OntoEnrichError as exc:
            _assert_names_a_line(exc)
        else:
            assert all(surface and lemma for surface, lemma in lexicon.items())

    @settings(max_examples=300, deadline=None)
    @given(_TEXT_BYTES)
    def test_stoplist_loads_or_names_a_line(self, data):
        try:
            stoplist = load_stoplist(data)
        except OntoEnrichError as exc:
            _assert_names_a_line(exc)
        else:
            assert all(form and not form.startswith("#") for form in stoplist)
