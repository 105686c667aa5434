"""Question-corpus parsing and marked-phrase extraction.

The corpus is UTF-8 XML: a ``corpus`` root holding ``question`` elements,
each with one ``text`` element and any number of ``answer`` elements. Noun
phrases are marked inline with ``TERM1`` and prepositional phrases with
``TERM2``. Parsing is strict: structural violations (nested TERM tags, empty
spans, unknown elements or attributes, non-UTF-8 encodings, a document type
declaration) are rejected with a position, never repaired.

``parse_corpus`` returns a tuple of ``Question``; a question's text and an
answer's body are tuples of ``TextSpan`` in document order.
"""

import enum
from typing import NamedTuple
from xml.parsers import expat

from .errors import (
    DuplicateQuestionIdError,
    MalformedXmlError,
    MissingQuestionIdError,
)


class PhraseKind(enum.Enum):
    NP = "NP"  # noun phrase, TERM1
    PP = "PP"  # prepositional phrase, TERM2


class PhraseSource(enum.Enum):
    QUESTION_TEXT = "question_text"
    ANSWER_TEXT = "answer_text"


class AnswerKind(enum.Enum):
    TEXT = "text"
    NUMERIC = "numeric"
    SYMBOLIC = "symbolic"


_TERM_TAGS = {"TERM1": PhraseKind.NP, "TERM2": PhraseKind.PP}


class TextSpan(NamedTuple):
    """One run of marked-up text; ``term`` is None for plain text."""

    term: PhraseKind | None
    text: str


class Answer(NamedTuple):
    kind: AnswerKind
    body: tuple[TextSpan, ...]


class Question(NamedTuple):
    id: str
    text: tuple[TextSpan, ...]
    answers: tuple[Answer, ...]


class MarkedPhrase(NamedTuple):
    """A marked NP or PP span, in extraction order within its question."""

    question_id: str
    kind: PhraseKind
    raw: str
    source: PhraseSource
    ordinal: int


class _CorpusBuilder:
    """Expat handler set that builds the questions and validates layout."""

    def __init__(self, parser: expat.XMLParserType):
        self._p = parser
        self.questions: list[Question] = []
        self._seen_ids: set[str] = set()
        self._stack: list[str] = []
        # current question state
        self._qid: str | None = None
        self._text_spans: tuple[TextSpan, ...] | None = None
        self._answers: list[Answer] = []
        self._answer_kind: AnswerKind | None = None
        # current content-element state
        self._spans: list[TextSpan] = []
        self._buffer: list[str] = []
        self._term: PhraseKind | None = None

    def _fail(self, message: str, error=MalformedXmlError) -> None:
        raise error(message, self._p.CurrentLineNumber, self._p.CurrentColumnNumber + 1)

    # --- expat callbacks -------------------------------------------------

    def xml_decl(self, version: str, encoding: str | None, standalone: int) -> None:
        if encoding is not None and encoding.lower() != "utf-8":
            self._fail(f"corpus files must be UTF-8, not {encoding!r}")

    def doctype(self, name: str, sysid: str | None, pubid: str | None,
                has_internal_subset: int) -> None:
        # an internal subset could declare entities that expand to markup,
        # and an external DTD would be ignored silently
        self._fail("a document type declaration is not allowed")

    def start(self, name: str, attrs: dict[str, str]) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            if name != "corpus":
                self._fail(f"root element must be 'corpus', got '{name}'")
            if attrs:
                self._fail("'corpus' takes no attributes")
        elif parent == "corpus":
            if name != "question":
                self._fail(f"'corpus' may only contain 'question', got '{name}'")
            if set(attrs) - {"id"}:
                self._fail("'question' takes only the 'id' attribute")
            qid = attrs.get("id", "")
            if not qid:
                self._fail("question without id", MissingQuestionIdError)
            if qid in self._seen_ids:
                self._fail(f"duplicate question id {qid!r}", DuplicateQuestionIdError)
            self._seen_ids.add(qid)
            self._qid = qid
            self._text_spans = None
            self._answers = []
        elif parent == "question":
            if name == "text":
                if attrs:
                    self._fail("'text' takes no attributes")
                if self._text_spans is not None:
                    self._fail("'question' must contain exactly one 'text'")
            elif name == "answer":
                if set(attrs) - {"kind"}:
                    self._fail("'answer' takes only the 'kind' attribute")
                kind = attrs.get("kind", AnswerKind.TEXT.value)
                try:
                    self._answer_kind = AnswerKind(kind)
                except ValueError:
                    self._fail(f"unknown answer kind {kind!r}")
            else:
                self._fail(f"'question' may only contain 'text' or 'answer', got '{name}'")
            self._spans = []
            self._buffer = []
            self._term = None
        elif parent in ("text", "answer"):
            if name not in _TERM_TAGS:
                self._fail(f"only TERM1/TERM2 markup is allowed inside '{parent}'")
            if attrs:
                self._fail(f"'{name}' takes no attributes")
            self._flush_plain()
            self._term = _TERM_TAGS[name]
        else:
            # parent is TERM1/TERM2: any child element means nested markup
            self._fail(f"nested markup '{name}' inside TERM span")
        self._stack.append(name)

    def end(self, name: str) -> None:
        self._stack.pop()
        if name in _TERM_TAGS:
            raw = "".join(self._buffer)
            self._buffer = []
            if not raw.strip():
                self._fail("empty TERM span")
            self._spans.append(TextSpan(self._term, raw))
            self._term = None
        elif name == "text":
            self._flush_plain()
            spans = tuple(self._spans)
            if not "".join(s.text for s in spans).strip():
                self._fail("'text' must not be empty")
            self._text_spans = spans
        elif name == "answer":
            self._flush_plain()
            self._answers.append(Answer(self._answer_kind, tuple(self._spans)))
            self._answer_kind = None
        elif name == "question":
            if self._text_spans is None:
                self._fail(f"question {self._qid!r} has no 'text' element")
            self.questions.append(Question(self._qid, self._text_spans, tuple(self._answers)))
            self._qid = None

    def chardata(self, data: str) -> None:
        top = self._stack[-1] if self._stack else None
        if top in ("text", "answer") or top in _TERM_TAGS:
            self._buffer.append(data)
        elif data.strip():
            self._fail(f"stray text {data.strip()[:30]!r} outside 'text'/'answer'")

    def _flush_plain(self) -> None:
        if self._buffer:
            text = "".join(self._buffer)
            self._buffer = []
            if text:
                self._spans.append(TextSpan(None, text))


# expat would happily sniff these and parse non-UTF-8 input
_REJECTED_BOMS = (b"\x00\x00\xfe\xff", b"\xff\xfe\x00\x00", b"\xff\xfe", b"\xfe\xff")


def parse_corpus(data: bytes) -> tuple[Question, ...]:
    """Parse corpus XML bytes into its questions, in document order.

    Raises MalformedXmlError or its subclasses MissingQuestionIdError and
    DuplicateQuestionIdError, each with line and column. Parsing is pure:
    the same bytes always produce the same tuple of questions.
    """
    if data.startswith(_REJECTED_BOMS):
        raise MalformedXmlError("corpus files must be UTF-8", 1, 1)
    parser = expat.ParserCreate()
    builder = _CorpusBuilder(parser)
    parser.XmlDeclHandler = builder.xml_decl
    parser.StartDoctypeDeclHandler = builder.doctype
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.chardata
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise MalformedXmlError(
            expat.errors.messages[exc.code], exc.lineno, exc.offset + 1) from exc
    return tuple(builder.questions)


def extract_phrases(question: Question) -> list[MarkedPhrase]:
    """Marked phrases of one question in document order.

    Question text first, then answers in order; answers whose kind is not
    ``text`` contribute nothing. Ordinals number the extracted phrases 0-based.
    """
    phrases: list[MarkedPhrase] = []

    def emit(spans: tuple[TextSpan, ...], source: PhraseSource) -> None:
        for span in spans:
            if span.term is not None:
                phrases.append(MarkedPhrase(
                    question.id, span.term, span.text, source, len(phrases)))

    emit(question.text, PhraseSource.QUESTION_TEXT)
    for answer in question.answers:
        if answer.kind is AnswerKind.TEXT:
            emit(answer.body, PhraseSource.ANSWER_TEXT)
    return phrases
