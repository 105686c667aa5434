"""Tokenization and dictionary-based lemmatization.

Phrases and concept labels go through the same pipeline: split into
alphanumeric tokens, case-fold, map each token through a lexicon (identity
fallback for unknown surfaces), then drop stoplisted lemma forms. The result
is a ``LemmaSequence`` — a tuple of lemma strings — which is what the matcher
compares.

``load_lexicon`` returns a ``dict`` and ``load_stoplist`` a ``frozenset``;
``normalize_phrase`` takes any mapping and any set.
"""

import codecs
import re
from typing import AbstractSet, Mapping

from .errors import InvalidUtf8Error, MalformedLexiconLineError

# A lemma sequence is an ordered tuple of case-folded lemma forms.
LemmaSequence = tuple[str, ...]

# Maximal runs of Unicode alphanumerics; everything else (hyphens,
# apostrophes, punctuation, whitespace) separates tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


# Small default stoplist: function words that would otherwise dominate
# prepositional phrases. Deployments pass their own file to override.
DEFAULT_STOPLIST = frozenset({
    "a", "an", "the",
    "of", "to", "in", "on", "at", "by", "for", "with", "from",
    "up", "down", "over", "under", "after", "before", "between",
    "and", "or", "is", "are", "be",
})


def normalize_phrase(
    text: str, lexicon: Mapping[str, str], stoplist: AbstractSet[str]
) -> LemmaSequence:
    """Tokenize, lemmatize, then drop stoplisted lemma forms.

    The stoplist applies to lemma forms (after lemmatization), so one entry
    covers a whole word family. May return an empty tuple when every token is
    stoplisted; callers exclude such sequences from matching.
    """
    # the lookup is bound once: this runs for every phrase and every label
    lemma = lexicon.get
    return tuple(
        form
        for token in _TOKEN_RE.findall(text)
        if (form := lemma(folded := token.casefold(), folded)) not in stoplist
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


def load_lexicon(data: bytes) -> dict[str, str]:
    """Parse a lexicon file: UTF-8 TSV, ``surface<TAB>lemma`` per line.

    Returns a dict from case-folded surface to case-folded lemma. Blank
    lines and lines starting with ``#`` are skipped. Later duplicate
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
    return entries


def load_stoplist(data: bytes) -> frozenset[str]:
    """Parse a stoplist file: UTF-8, one form per line, ``#`` comments.

    Returns the frozenset of case-folded forms. Raises InvalidUtf8Error on
    bytes that are not UTF-8.
    """
    forms = set()
    for raw in decode_lines(data):
        line = raw.strip()
        if line and not line.startswith("#"):
            forms.add(line.casefold())
    return frozenset(forms)
