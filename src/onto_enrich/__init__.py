"""Ontology enrichment from marked-up question corpora.

Marked noun and prepositional phrases in test questions are linked to
ontology concepts through a two-level fuzzy Jaccard match; concept pairs
co-occurring in a question are then compared on hierarchical-only versus
all-relation shortest paths, and pairs whose full path is strictly shorter
surface as candidate new relations for expert review.
"""

__version__ = "0.1.0"

from ._scoring import IndexEntry, LabelIndex, Scorer
from .corpus import (
    Answer,
    AnswerKind,
    MarkedPhrase,
    PhraseKind,
    PhraseSource,
    Question,
    TextSpan,
    extract_phrases,
    parse_corpus,
)
from .errors import (
    DuplicateQuestionIdError,
    EmptySequenceError,
    InternalInvariantError,
    InvalidUtf8Error,
    MalformedLexiconLineError,
    MalformedTripleError,
    MalformedXmlError,
    MissingQuestionIdError,
    OntoEnrichError,
    SelfLoopEdgeError,
    UnknownConceptError,
    UnterminatedLiteralError,
)
from .matcher import ConceptMatch, MatchConfig, match_phrase, match_question
from .ontology import (
    Literal,
    OntologyGraph,
    RelationEdge,
    build_graph,
    build_label_index,
    parse_triples,
)
from .pathfinder import (
    ConnectionRecord,
    PathResult,
    compare_from,
    enumerate_pairs,
    paths_from,
)
from .pipeline import run
from .report import Report, RunConfig, serialize_report
from .textnorm import load_lexicon, load_stoplist, normalize_phrase

__all__ = [
    "Answer",
    "AnswerKind",
    "MarkedPhrase",
    "PhraseKind",
    "PhraseSource",
    "Question",
    "TextSpan",
    "extract_phrases",
    "parse_corpus",
    "DuplicateQuestionIdError",
    "EmptySequenceError",
    "InternalInvariantError",
    "InvalidUtf8Error",
    "MalformedLexiconLineError",
    "MalformedTripleError",
    "MalformedXmlError",
    "MissingQuestionIdError",
    "OntoEnrichError",
    "SelfLoopEdgeError",
    "UnknownConceptError",
    "UnterminatedLiteralError",
    "ConceptMatch",
    "MatchConfig",
    "match_phrase",
    "match_question",
    "IndexEntry",
    "LabelIndex",
    "Scorer",
    "Literal",
    "OntologyGraph",
    "RelationEdge",
    "build_graph",
    "build_label_index",
    "parse_triples",
    "ConnectionRecord",
    "PathResult",
    "compare_from",
    "enumerate_pairs",
    "paths_from",
    "load_lexicon",
    "load_stoplist",
    "normalize_phrase",
    "Report",
    "RunConfig",
    "run",
    "serialize_report",
]


# perfbench/probe.py still calls CompiledLabelIndex.compile(index); the index
# build_label_index returns is already packed. Goes with ROADMAP item 1.
class CompiledLabelIndex:
    compile = staticmethod(lambda index: index)
