"""Concept-graph loading and label indexing.

The ontology ships as a minimal line-based triple file: one triple per line,
``<iri> <iri> <iri> .`` for relations or ``<iri> <iri> "literal"@lang .`` for
labels. IRIs are opaque strings; no prefix expansion, blank nodes or nesting.
Each line is read by one compiled regular expression, the fast path. A line
it rejects goes to a character scanner, the diagnostics path, which accepts
exactly the same lines and names what is wrong with the others, with the
column where it can.
Edges whose predicate is in the configured hierarchical set (default
rdfs:subClassOf and ome:hasChild) form the hierarchy; every edge belongs to
the full relation graph.
"""

import re
from typing import AbstractSet, Callable, Iterable, Mapping, NamedTuple

from ._scoring import IndexEntry, LabelIndex
from .errors import MalformedTripleError, SelfLoopEdgeError, UnterminatedLiteralError
from .textnorm import decode_lines, normalize_phrase

DEFAULT_HIERARCHICAL_PREDICATES = frozenset({"rdfs:subClassOf", "ome:hasChild"})
DEFAULT_LABEL_PREDICATES = frozenset({"rdfs:label"})


class Literal(NamedTuple):
    """A quoted object value with an optional language tag."""

    text: str
    lang: str | None = None


class RelationEdge(NamedTuple):
    subject: str
    predicate: str
    object: str


Triple = tuple[str, str, "str | Literal"]

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}


def _scan_iri(line: str, pos: int, lineno: int) -> tuple[str, int]:
    if pos >= len(line) or line[pos] != "<":
        raise MalformedTripleError(f"expected '<' at column {pos + 1}", lineno)
    end = line.find(">", pos + 1)
    if end < 0:
        raise MalformedTripleError("IRI missing closing '>'", lineno)
    iri = line[pos + 1:end]
    if not iri or any(c.isspace() for c in iri) or "<" in iri:
        raise MalformedTripleError(f"invalid IRI <{iri}>", lineno)
    return iri, end + 1


def _scan_literal(line: str, pos: int, lineno: int) -> tuple[Literal, int]:
    chars: list[str] = []
    i = pos + 1
    while i < len(line):
        c = line[i]
        if c == "\\":
            if i + 1 >= len(line) or line[i + 1] not in _ESCAPES:
                raise MalformedTripleError(f"bad escape at column {i + 1}", lineno)
            chars.append(_ESCAPES[line[i + 1]])
            i += 2
        elif c == '"':
            i += 1
            if line.startswith("^^", i):
                raise MalformedTripleError(
                    f"datatype literals are not supported ('^^' at column {i + 1})", lineno)
            lang = None
            if i < len(line) and line[i] == "@":
                j = i + 1
                while j < len(line) and (line[j].isalnum() or line[j] == "-"):
                    j += 1
                lang = line[i + 1:j]
                if not lang:
                    raise MalformedTripleError("empty language tag", lineno)
                i = j
            return Literal("".join(chars), lang), i
        else:
            chars.append(c)
            i += 1
    raise UnterminatedLiteralError("literal never closes its quote", lineno)


def _skip_ws(line: str, pos: int) -> int:
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    return pos


def _scan_line(line: str, lineno: int) -> Triple:
    """The triple on ``line``, or the error naming what is wrong with it."""
    pos = _skip_ws(line, 0)
    subject, pos = _scan_iri(line, pos, lineno)
    pos = _skip_ws(line, pos)
    predicate, pos = _scan_iri(line, pos, lineno)
    pos = _skip_ws(line, pos)
    obj: str | Literal
    if pos < len(line) and line[pos] == '"':
        obj, pos = _scan_literal(line, pos, lineno)
    else:
        obj, pos = _scan_iri(line, pos, lineno)
    pos = _skip_ws(line, pos)
    if pos >= len(line) or line[pos] != ".":
        raise MalformedTripleError("triple missing terminating '.'", lineno)
    if line[pos + 1:].strip():
        raise MalformedTripleError("trailing content after '.'", lineno)
    return subject, predicate, obj


# The lines _scan_line accepts: \s is str.isspace and [^\W_] str.isalnum, the
# scanner's character tests (tests/test_ontology.py checks both over every
# code point). Groups: subject, predicate, then the object IRI or the raw
# literal body and its language tag.
_IRI = r"<([^\s<>]+)>"
_TRIPLE_RE = re.compile(
    rf'[ \t]*{_IRI}[ \t]*{_IRI}[ \t]*'
    rf'(?:{_IRI}|"((?:[^"\\]|\\[\\"ntr])*)"(?:@((?:[^\W_]|-)+))?)'
    r"[ \t]*\.\s*"
)
_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape(match: re.Match) -> str:
    return _ESCAPES[match[1]]


def _match_line(line: str) -> Triple | None:
    """The triple on ``line`` if the fast path accepts it, else None."""
    match = _TRIPLE_RE.fullmatch(line)
    if match is None:
        return None
    subject, predicate, obj, text, lang = match.groups()
    if obj is None:
        if "\\" in text:
            text = _ESCAPE_RE.sub(_unescape, text)
        obj = Literal(text, lang)
    return subject, predicate, obj


def parse_triples(data: bytes) -> list[Triple]:
    """Parse ontology bytes into (subject, predicate, object) triples.

    Objects are IRI strings or Literal values (language tag retained). Blank
    lines and ``#`` comment lines are skipped. Raises MalformedTripleError or
    UnterminatedLiteralError with the 1-based line number, InvalidUtf8Error on
    bytes that are not UTF-8. Datatype literals (``"x"^^<dt>``) are rejected.
    """
    triples: list[Triple] = []
    for lineno, line in enumerate(decode_lines(data), start=1):
        triple = _match_line(line)
        if triple is None:
            # a blank or comment line never matches, so it is tested only here
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            triple = _scan_line(line, lineno)
        triples.append(triple)
    return triples


def local_name(iri: str) -> str:
    """Fallback label: the IRI fragment after the last '#', '/' or ':'."""
    cut = max(iri.rfind("#"), iri.rfind("/"), iri.rfind(":"))
    if 0 <= cut < len(iri) - 1:
        return iri[cut + 1:]
    return iri


class OntologyGraph:
    """Typed concept graph with a hierarchical predicate subset.

    ``concepts`` maps each IRI to its label Literals. Two graphs are equal
    when their concepts, edges and hierarchical predicates are.

    On construction the concepts are numbered once, in IRI order, so that
    comparing numbers compares IRIs: ``iris[i]`` is concept i and
    ``number`` maps an IRI back to i. For each edge filter, keyed by
    ``hierarchical_only``, two tables are built from the edges, traversed as
    undirected: ``near[h][i]`` is the tuple of the distinct neighbours of i,
    ascending, and ``step[h][i][k]`` the smallest predicate joining i and
    its k-th neighbour ``near[h][i][k]``. Tuples rather than a dict per
    concept keep the tables small. ``edge_set`` holds the edges again, for
    checks made apart from the tables.
    """

    __slots__ = ("concepts", "edges", "hierarchical_predicates", "iris", "number",
                 "near", "step", "edge_set")

    def __init__(
        self,
        concepts: dict[str, tuple[Literal, ...]],
        edges: tuple[RelationEdge, ...],
        hierarchical_predicates: frozenset[str],
    ):
        self.concepts = concepts
        self.edges = edges
        self.hierarchical_predicates = hierarchical_predicates
        self.iris = tuple(sorted(concepts))
        number = self.number = {iri: i for i, iri in enumerate(self.iris)}
        full: list[dict[int, str]] = [{} for _ in self.iris]
        hier: list[dict[int, str]] = [{} for _ in self.iris]
        for subject, predicate, obj in edges:
            i, j = number[subject], number[obj]
            for joins in (full, hier) if predicate in hierarchical_predicates else (full,):
                known = joins[i].get(j)
                if known is None or predicate < known:
                    joins[i][j] = joins[j][i] = predicate
        self.near, self.step = {}, {}
        for h, rows in ((False, full), (True, hier)):
            near = self.near[h] = tuple(tuple(sorted(row)) for row in rows)
            self.step[h] = tuple(tuple(map(row.__getitem__, js)) for row, js in zip(rows, near))
        self.edge_set = frozenset(edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.concepts, self.edges, self.hierarchical_predicates) == (
            other.concepts, other.edges, other.hierarchical_predicates)

    def __repr__(self):
        return (f"OntologyGraph(concepts={self.concepts!r}, edges={self.edges!r}, "
                f"hierarchical_predicates={self.hierarchical_predicates!r})")


def build_graph(
    triples: Iterable[Triple],
    hierarchical_predicates: Iterable[str] = DEFAULT_HIERARCHICAL_PREDICATES,
    label_predicates: Iterable[str] = DEFAULT_LABEL_PREDICATES,
    label_lang: str | None = None,
) -> OntologyGraph:
    """Assemble the concept graph from parsed triples.

    Concepts are all IRIs on either end of a relation triple plus subjects of
    literal triples. Labels come from label-predicate literals; a concept
    left without labels (none given, or all filtered out by ``label_lang``)
    falls back to its IRI local name, as a Literal without a language tag.
    Duplicate edges collapse; self-loops raise SelfLoopEdgeError.
    """
    label_preds = frozenset(label_predicates)
    iris: set[str] = set()
    labels: dict[str, list[Literal]] = {}
    edge_set: set[tuple[str, str, str]] = set()
    for subject, predicate, obj in triples:
        iris.add(subject)
        if isinstance(obj, Literal):
            if (predicate in label_preds and obj.text
                    and (label_lang is None or obj.lang == label_lang)):
                bucket = labels.setdefault(subject, [])
                if obj not in bucket:
                    bucket.append(obj)
        else:
            if subject == obj:
                raise SelfLoopEdgeError(f"self-loop on <{subject}> via <{predicate}>")
            iris.add(obj)
            edge_set.add((subject, predicate, obj))

    concepts = {iri: tuple(labels.get(iri, ())) or (Literal(local_name(iri)),)
                for iri in sorted(iris)}

    edges = tuple(RelationEdge(*e) for e in sorted(edge_set))
    return OntologyGraph(concepts, edges, frozenset(hierarchical_predicates))


def build_label_index(
    graph: OntologyGraph,
    lexicon: Mapping[str, str],
    stoplist: AbstractSet[str],
    on_warning: Callable[[str], None] | None = None,
) -> LabelIndex:
    """Normalize every concept label into a matchable entry.

    Entries are sorted by (iri, label) and packed for scoring. Labels that
    normalize to an empty lemma sequence are dropped; each drop is reported
    through ``on_warning``.
    """
    entries: list[IndexEntry] = []
    for iri in sorted(graph.concepts):
        texts = sorted({label.text for label in graph.concepts[iri]})
        for text in texts:
            lemmas = normalize_phrase(text, lexicon, stoplist)
            if lemmas:
                entries.append(IndexEntry(iri, text, lemmas))
            elif on_warning is not None:
                on_warning(f"label {text!r} of <{iri}> normalizes to empty; not indexed")
    return LabelIndex(entries)
