"""Tokenization and dictionary-based lemmatization.

Phrases and concept labels go through the same pipeline: split into
alphanumeric tokens, case-fold, map each token through a lexicon (identity
fallback for unknown surfaces), then drop stoplisted lemma forms. The result
is a ``LemmaSequence`` — a tuple of lemma strings — which is what the matcher
compares.
"""

import codecs
import re
from typing import Mapping

from .errors import InvalidUtf8Error, MalformedLexiconLineError

# A lemma sequence is an ordered tuple of case-folded lemma forms.
LemmaSequence = tuple[str, ...]

# Maximal runs of Unicode alphanumerics; everything else (hyphens,
# apostrophes, punctuation, whitespace) separates tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class Lexicon:
    """Surface-form to lemma dictionary with identity fallback.

    Keys and values are case-folded at load time. ``normalize_phrase`` maps
    a surface absent from the map to itself. ``Lexicon()`` is empty.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, str] | None = None):
        self.entries = {} if entries is None else entries

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"Lexicon(entries={self.entries!r})"


class Stoplist:
    """Set of case-folded lemma forms excluded from matching."""

    __slots__ = ("forms",)

    def __init__(self, forms: frozenset[str] = frozenset()):
        self.forms = forms

    def __contains__(self, form: str) -> bool:
        return form in self.forms

    def __len__(self) -> int:
        return len(self.forms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.forms == other.forms

    def __hash__(self):
        return hash((self.forms,))

    def __repr__(self):
        return f"Stoplist(forms={self.forms!r})"


# Small default stoplist: function words that would otherwise dominate
# prepositional phrases. Deployments pass their own file to override.
DEFAULT_STOPLIST = Stoplist(frozenset({
    "a", "an", "the",
    "of", "to", "in", "on", "at", "by", "for", "with", "from",
    "up", "down", "over", "under", "after", "before", "between",
    "and", "or", "is", "are", "be",
}))


def normalize_phrase(text: str, lexicon: Lexicon, stoplist: Stoplist) -> LemmaSequence:
    """Tokenize, lemmatize, then drop stoplisted lemma forms.

    The stoplist applies to lemma forms (after lemmatization), so one entry
    covers a whole word family. May return an empty tuple when every token is
    stoplisted; callers exclude such sequences from matching.
    """
    # the lookups are bound once: this runs for every phrase and every label
    lemma = lexicon.entries.get
    stop = stoplist.forms
    return tuple(
        form
        for token in _TOKEN_RE.findall(text)
        if (form := lemma(folded := token.casefold(), folded)) not in stop
    )


def decode_lines(data: bytes) -> list[str]:
    """UTF-8 ``data`` split into lines as ``str.splitlines`` splits them.

    One leading byte-order mark is dropped and does not count as a column.
    Raises InvalidUtf8Error naming the line and column of the first byte
    that does not decode.
    """
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # a sentinel that is no line break makes the last line the bad one
        lines = (data[:exc.start].decode("utf-8") + "\0").splitlines()
        raise InvalidUtf8Error(
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}", len(lines), len(lines[-1])
        ) from None


def load_lexicon(data: bytes) -> Lexicon:
    """Parse a lexicon file: UTF-8 TSV, ``surface<TAB>lemma`` per line.

    Blank lines and lines starting with ``#`` are skipped. Later duplicate
    surfaces override earlier ones. Raises MalformedLexiconLineError with the
    1-based line number on anything else, InvalidUtf8Error on bytes that are
    not UTF-8.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(decode_lines(data), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise MalformedLexiconLineError(
                f"expected 'surface<TAB>lemma', got {raw!r}", lineno)
        surface, lemma = (f.strip() for f in fields)
        if not surface or not lemma:
            raise MalformedLexiconLineError(
                f"empty surface or lemma in {raw!r}", lineno)
        entries[surface.casefold()] = lemma.casefold()
    return Lexicon(entries)


def load_stoplist(data: bytes) -> Stoplist:
    """Parse a stoplist file: UTF-8, one form per line, ``#`` comments.

    Raises InvalidUtf8Error on bytes that are not UTF-8.
    """
    forms = set()
    for raw in decode_lines(data):
        line = raw.strip()
        if line and not line.startswith("#"):
            forms.add(line.casefold())
    return Stoplist(frozenset(forms))
