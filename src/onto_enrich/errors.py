"""Exception hierarchy shared by all onto_enrich modules."""


class OntoEnrichError(Exception):
    """Base class for all input and processing errors raised by this package."""


class MalformedXmlError(OntoEnrichError):
    """Corpus XML is syntactically broken or violates the corpus format.

    ``line`` and ``column`` are 1-based when known, 0 otherwise.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InvalidUtf8Error(OntoEnrichError):
    """A text input file holds bytes that are not UTF-8.

    ``line`` and ``column`` (in characters) are 1-based.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class MissingQuestionIdError(MalformedXmlError):
    """A question element has no id attribute, or an empty one."""


class DuplicateQuestionIdError(MalformedXmlError):
    """Two questions in one corpus share an id."""


class MalformedLexiconLineError(OntoEnrichError):
    """A lexicon TSV line is not exactly `surface<TAB>lemma`."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class MalformedTripleError(OntoEnrichError):
    """An ontology line is not a well-formed triple."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class UnterminatedLiteralError(MalformedTripleError):
    """A literal opened on an ontology line never closes its quote."""


class SelfLoopEdgeError(OntoEnrichError):
    """An ontology edge connects a concept to itself."""


class EmptySequenceError(OntoEnrichError):
    """A similarity operation received an empty lemma sequence."""


class UnknownConceptError(OntoEnrichError):
    """A path query named an IRI that is not a concept of the graph."""


class InternalInvariantError(Exception):
    """A result violated an internal consistency check; maps to exit code 2.

    Deliberately not a subclass of OntoEnrichError: it signals a bug in this
    package, not bad input.
    """
