import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onto_enrich.corpus import (
    AnswerKind,
    MarkedPhrase,
    PhraseKind,
    PhraseSource,
    extract_phrases,
    parse_corpus,
)
from onto_enrich.errors import (
    DuplicateQuestionIdError,
    MalformedXmlError,
    MissingQuestionIdError,
    OntoEnrichError,
)
from support import serialize_corpus


def _single(xml: bytes):
    questions = parse_corpus(xml)
    assert len(questions) == 1
    return questions[0]


class TestParseCorpus:
    def test_single_np_phrase(self):
        q = _single(b'<corpus><question id="q1"><text>A <TERM1>finite set of points'
                    b'</TERM1> lies on the plane.</text></question></corpus>')
        phrases = extract_phrases(q)
        assert phrases == [MarkedPhrase("q1", PhraseKind.NP, "finite set of points",
                                        PhraseSource.QUESTION_TEXT, 0)]

    def test_pp_phrase(self):
        q = _single(b'<corpus><question id="q1"><text>Round <TERM2>up to two characters '
                    b'after the dot</TERM2>.</text></question></corpus>')
        (phrase,) = extract_phrases(q)
        assert phrase.kind is PhraseKind.PP
        assert phrase.raw == "up to two characters after the dot"

    def test_empty_corpus(self):
        assert parse_corpus(b"<corpus></corpus>") == ()

    def test_self_closing_empty_corpus(self):
        assert parse_corpus(b"<corpus/>") == ()

    def test_document_order_preserved(self):
        questions = parse_corpus(
            b'<corpus><question id="b"><text>x</text></question>'
            b'<question id="a"><text>y</text></question></corpus>')
        assert [q.id for q in questions] == ["b", "a"]

    def test_parse_is_pure(self):
        xml = (b'<corpus><question id="q1"><text>A <TERM1>chord</TERM1>.</text>'
               b'</question></corpus>')
        assert parse_corpus(xml) == parse_corpus(xml)


class TestExtractPhrases:
    def test_ordinals_and_sources(self):
        q = _single(
            b'<corpus><question id="q1">'
            b'<text><TERM1>one</TERM1> and <TERM1>two</TERM1> then <TERM2>via three</TERM2></text>'
            b'<answer kind="numeric"><TERM1>five</TERM1></answer>'
            b'<answer kind="text">so <TERM2>under four</TERM2></answer>'
            b'</question></corpus>')
        phrases = extract_phrases(q)
        assert [(p.ordinal, p.kind, p.source, p.raw) for p in phrases] == [
            (0, PhraseKind.NP, PhraseSource.QUESTION_TEXT, "one"),
            (1, PhraseKind.NP, PhraseSource.QUESTION_TEXT, "two"),
            (2, PhraseKind.PP, PhraseSource.QUESTION_TEXT, "via three"),
            (3, PhraseKind.PP, PhraseSource.ANSWER_TEXT, "under four"),
        ]

    def test_no_term_tags(self):
        q = _single(b'<corpus><question id="q1"><text>plain text only</text>'
                    b'</question></corpus>')
        assert extract_phrases(q) == []

    def test_numeric_answer_terms_excluded(self):
        q = _single(b'<corpus><question id="q1"><text>count</text>'
                    b'<answer kind="numeric"><TERM1>five</TERM1></answer></question></corpus>')
        assert q.answers[0].kind is AnswerKind.NUMERIC
        assert extract_phrases(q) == []

    def test_symbolic_answer_terms_excluded(self):
        q = _single(b'<corpus><question id="q1"><text>t</text>'
                    b'<answer kind="symbolic"><TERM1>a + b</TERM1></answer></question></corpus>')
        assert extract_phrases(q) == []

    def test_answer_kind_defaults_to_text(self):
        q = _single(b'<corpus><question id="q1"><text>t</text>'
                    b'<answer>the <TERM1>height</TERM1></answer></question></corpus>')
        assert q.answers[0].kind is AnswerKind.TEXT
        (phrase,) = extract_phrases(q)
        assert phrase.source is PhraseSource.ANSWER_TEXT


class TestRejects:
    def test_malformed_xml_reports_position(self):
        with pytest.raises(MalformedXmlError) as exc:
            parse_corpus(b"<corpus>\n<question id='q'>")
        assert exc.value.line >= 1

    def test_nested_term_tags(self):
        with pytest.raises(MalformedXmlError, match="nested"):
            parse_corpus(b'<corpus><question id="q"><text><TERM1>a <TERM2>b</TERM2>'
                         b'</TERM1></text></question></corpus>')

    def test_duplicate_question_id(self):
        with pytest.raises(DuplicateQuestionIdError) as exc:
            parse_corpus(b'<corpus><question id="q"><text>a</text></question>\n'
                         b'  <question id="q"><text>b</text></question></corpus>')
        assert (exc.value.line, exc.value.column) == (2, 3)
        assert str(exc.value) == "duplicate question id 'q' (line 2, column 3)"

    @pytest.mark.parametrize("attr", [b"", b' id=""'])
    def test_missing_or_empty_question_id(self, attr):
        with pytest.raises(MissingQuestionIdError) as exc:
            parse_corpus(b"<corpus>\n<question" + attr + b"><text>a</text></question></corpus>")
        assert (exc.value.line, exc.value.column) == (2, 1)
        assert str(exc.value) == "question without id (line 2, column 1)"

    def test_non_utf8_declaration(self):
        xml = '<?xml version="1.0" encoding="latin-1"?><corpus></corpus>'.encode("latin-1")
        with pytest.raises(MalformedXmlError, match="UTF-8"):
            parse_corpus(xml)

    def test_utf16_bom_rejected(self):
        xml = "<corpus></corpus>".encode("utf-16")
        with pytest.raises(MalformedXmlError, match="UTF-8"):
            parse_corpus(xml)

    def test_invalid_utf8_bytes(self):
        with pytest.raises(MalformedXmlError):
            parse_corpus(b'<corpus><question id="q"><text>\xff\xfe</text></question></corpus>')

    def test_unknown_element(self):
        with pytest.raises(MalformedXmlError):
            parse_corpus(b"<corpus><item/></corpus>")

    def test_unknown_answer_kind(self):
        with pytest.raises(MalformedXmlError, match="kind"):
            parse_corpus(b'<corpus><question id="q"><text>a</text>'
                         b'<answer kind="audio">x</answer></question></corpus>')

    def test_term_attributes_rejected(self):
        with pytest.raises(MalformedXmlError):
            parse_corpus(b'<corpus><question id="q"><text><TERM1 concept="c:X">a</TERM1>'
                         b"</text></question></corpus>")

    def test_empty_term_span(self):
        with pytest.raises(MalformedXmlError, match="empty TERM"):
            parse_corpus(b'<corpus><question id="q"><text>a <TERM1>  </TERM1></text>'
                         b"</question></corpus>")

    def test_missing_text_element(self):
        with pytest.raises(MalformedXmlError, match="no 'text'"):
            parse_corpus(b'<corpus><question id="q"></question></corpus>')

    def test_empty_text_element(self):
        with pytest.raises(MalformedXmlError, match="empty"):
            parse_corpus(b'<corpus><question id="q"><text>  </text></question></corpus>')

    def test_two_text_elements(self):
        with pytest.raises(MalformedXmlError, match="exactly one"):
            parse_corpus(b'<corpus><question id="q"><text>a</text><text>b</text>'
                         b"</question></corpus>")

    def test_stray_text_in_corpus(self):
        with pytest.raises(MalformedXmlError, match="stray"):
            parse_corpus(b"<corpus>loose words</corpus>")

    def test_doctype_entity_markup_rejected(self):
        # the entity would otherwise expand to a marked phrase
        doctype = b'<!DOCTYPE corpus [<!ENTITY t "<TERM1>right angle</TERM1>">]>'
        with pytest.raises(MalformedXmlError, match="document type") as exc:
            parse_corpus(b'<?xml version="1.0"?>\n' + doctype +
                         b'<corpus><question id="q"><text>a &t; b</text></question></corpus>')
        # expat reports the declaration once it has read its header
        assert exc.value.line == 2 and 1 <= exc.value.column <= len(doctype)

    def test_doctype_external_dtd_rejected(self):
        doctype = b'<!DOCTYPE c SYSTEM "x.dtd">'
        with pytest.raises(MalformedXmlError, match="document type") as exc:
            parse_corpus(doctype + b"<corpus/>")
        assert exc.value.line == 1 and 1 <= exc.value.column <= len(doctype)


ALPHABET = "ab <>&\"'xт"


def _random_corpus_xml(rng: random.Random) -> bytes:
    from onto_enrich.corpus import Answer, Question, TextSpan

    def random_spans():
        spans = []
        plain_allowed = True
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5 and plain_allowed:
                spans.append(TextSpan(None, "".join(
                    rng.choice(ALPHABET) for _ in range(rng.randint(1, 6)))))
                plain_allowed = False
            else:
                kind = rng.choice([PhraseKind.NP, PhraseKind.PP])
                spans.append(TextSpan(kind, "".join(
                    rng.choice(ALPHABET.replace(" ", "")) for _ in range(rng.randint(1, 6)))))
                plain_allowed = True
        return tuple(spans)

    questions = []
    for i in range(rng.randint(0, 4)):
        spans = random_spans()
        if not "".join(s.text for s in spans).strip():
            spans = spans + (TextSpan(PhraseKind.NP, "x"),)
        answers = tuple(
            Answer(rng.choice(list(AnswerKind)), random_spans())
            for _ in range(rng.randint(0, 2)))
        questions.append(Question(f"q{i}", spans, answers))
    return serialize_corpus(tuple(questions))


class TestRoundTrip:
    def test_fixture_round_trip(self, fixture_corpus):
        assert parse_corpus(serialize_corpus(fixture_corpus)) == fixture_corpus

    def test_escaping_round_trip(self):
        xml = (b'<corpus><question id="q&amp;1">'
               b"<text>a &lt;b&gt; &amp; c <TERM1>x &amp; y</TERM1></text>"
               b"</question></corpus>")
        questions = parse_corpus(xml)
        assert questions[0].id == "q&1"
        assert "".join(s.text for s in questions[0].text) == "a <b> & c x & y"
        assert parse_corpus(serialize_corpus(questions)) == questions

    def test_randomized_round_trips(self):
        rng = random.Random(42)
        for _ in range(25):
            xml = _random_corpus_xml(rng)
            questions = parse_corpus(xml)
            again = serialize_corpus(questions)
            assert again == xml
            assert parse_corpus(again) == questions

    def test_phrase_count_equals_term_occurrences(self):
        rng = random.Random(43)
        for _ in range(25):
            xml = _random_corpus_xml(rng)
            for q in parse_corpus(xml):
                expected = sum(1 for s in q.text if s.term is not None)
                expected += sum(
                    sum(1 for s in a.body if s.term is not None)
                    for a in q.answers if a.kind is AnswerKind.TEXT)
                assert len(extract_phrases(q)) == expected


# Pieces of corpus XML, well and badly placed: every element and attribute
# of the format, ids that repeat or are empty, entities, declarations, a
# UTF-8 BOM, bytes that are not UTF-8, BOMs of other encodings and document
# type declarations.
_XML_FRAGMENTS = st.sampled_from([
    b"<corpus>", b"</corpus>", b'<question id="a">', b'<question id="b">',
    b"<question>", b'<question id="">', b"</question>", b"<text>", b"</text>",
    b"<answer>", b'<answer kind="numeric">', b'<answer kind="x">', b"</answer>",
    b"<TERM1>", b"</TERM1>", b"<TERM2>", b"</TERM2>", b"<other/>", b"x", b" ",
    b"\n", b"\r\n", b"&amp;", b"&bad;", b"&#0;", b"<!-- c -->", b"<![CDATA[<a]]>",
    b'<?xml version="1.0"?>', b'<?xml version="1.0" encoding="latin-1"?>',
    b'<!DOCTYPE corpus [<!ENTITY t "<TERM1>x</TERM1>">]>', b"&t;",
    b'<!DOCTYPE c SYSTEM "x.dtd">', b"\xef\xbb\xbf", b"\xff", b"\xfe\xff", b"\xe9",
    "\u00e9\U0001d538".encode(), b"\x00",
])


class TestArbitraryBytes:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        st.lists(_XML_FRAGMENTS, max_size=24).map(b"".join),
        st.builds(lambda a, b, c: a + b + c,
                  st.lists(_XML_FRAGMENTS, max_size=12).map(b"".join),
                  st.binary(max_size=3),
                  st.lists(_XML_FRAGMENTS, max_size=12).map(b"".join)),
    ))
    @example(b'<corpus><question id="a"><text>x</text></question>'
             b'<question id="a"><text>y</text></question></corpus>')
    @example(b'<corpus><question><text>x</text></question></corpus>')
    def test_parse_or_name_a_position(self, data):
        try:
            questions = parse_corpus(data)
        except OntoEnrichError as exc:
            assert exc.line >= 1 and exc.column >= 1
            assert f"(line {exc.line}, column {exc.column})" in str(exc)
        else:
            assert all(q.id for q in questions)
