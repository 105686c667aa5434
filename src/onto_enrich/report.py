"""The report: the config it echoes, the record type, the invariant check
and both writers.

``RunConfig`` is the one list of run settings: its fields are the CLI's
destinations and the report's config keys, in order, and it takes only
values the report can echo. ``Report`` is what ``pipeline.run`` returns,
``_check_report`` cross-checks its records before they are emitted, and
``serialize_report`` writes it as JSON or CSV bytes.
"""

import csv
import io
import math
from typing import NamedTuple

try:  # json's string escaper, in C, without importing the json package
    from _json import encode_basestring
except ImportError:
    from json.encoder import py_encode_basestring as encode_basestring

from .errors import InternalInvariantError
from .matcher import ConceptMatch
from .ontology import DEFAULT_HIERARCHICAL_PREDICATES, DEFAULT_LABEL_PREDICATES, OntologyGraph
from .pathfinder import DEFAULT_MAX_DEPTH, ConnectionRecord, PathResult

OUTPUT_FORMATS = ("json", "csv")


class _RunConfig(NamedTuple):
    ontology: str
    corpus: str
    lexicon: str | None = None
    stoplist: str | None = None
    word_threshold: float = 0.75  # least character Jaccard for two words to pair
    seq_threshold: float = 0.5  # least sequence score for a phrase to match a label
    max_depth: int = DEFAULT_MAX_DEPTH
    label_predicates: tuple[str, ...] = tuple(sorted(DEFAULT_LABEL_PREDICATES))
    hierarchical_predicates: tuple[str, ...] = tuple(sorted(DEFAULT_HIERARCHICAL_PREDICATES))
    label_lang: str | None = None
    format: str = "json"
    optimal_only: bool = False


class RunConfig(_RunConfig):
    """Everything a run needs; echoed into the report for provenance.

    Construction, ``_make`` and ``_replace`` raise ValueError unless every
    field has the type the report can echo: ontology and corpus a non-empty
    str; lexicon, stoplist and label_lang a non-empty str, or None for
    absent; word_threshold and seq_threshold an int or float (a bool is
    not) within [0, 1]; max_depth an int (a bool is not) of at least 1;
    each predicate collection a tuple or list of str; format one of
    OUTPUT_FORMATS; and optimal_only a bool. Nothing is converted: a set's
    order would vary from one process to the next, and an empty path would
    name the current directory.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("ontology", "corpus"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a str, got {getattr(self, name)!r}")
        for name in ("lexicon", "stoplist", "label_lang"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a str or None, got {getattr(self, name)!r}")
        for name in ("ontology", "corpus", "lexicon", "stoplist", "label_lang"):
            if getattr(self, name) == "":
                raise ValueError(f"{name} must not be empty")
        for name in ("word_threshold", "seq_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        if isinstance(self.max_depth, bool) or not isinstance(self.max_depth, int):
            raise ValueError(f"max_depth must be an integer, got {self.max_depth!r}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        for name in ("label_predicates", "hierarchical_predicates"):
            value = getattr(self, name)
            if not (isinstance(value, (tuple, list)) and all(isinstance(v, str) for v in value)):
                raise ValueError(f"{name} must be a tuple or list of str, got {value!r}")
        if self.format not in OUTPUT_FORMATS:
            raise ValueError(f"format must be one of {OUTPUT_FORMATS}, got {self.format!r}")
        if not isinstance(self.optimal_only, bool):
            raise ValueError(f"optimal_only must be a bool, got {self.optimal_only!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Report(NamedTuple):
    version: str
    config: RunConfig
    records: tuple[ConnectionRecord, ...]
    matches: tuple[ConceptMatch, ...]
    warnings: tuple[str, ...]


def _check_path(record, path, edges, max_depth):
    length, nodes, predicates = path
    if len(nodes) != length + 1 or len(predicates) != length:
        raise InternalInvariantError(f"inconsistent path arity in {record}")
    if nodes[0] != record.concept_a or nodes[-1] != record.concept_b:
        raise InternalInvariantError(f"path does not join the record's pair in {record}")
    if length > max_depth:
        raise InternalInvariantError(f"path longer than max_depth {max_depth} in {record}")
    for a, predicate, b in zip(nodes, predicates, nodes[1:]):
        if (a, predicate, b) not in edges and (b, predicate, a) not in edges:
            raise InternalInvariantError(f"path step {a}-{b} not in graph for {record}")


def _check_report(report: Report, graph: OntologyGraph) -> None:
    """Cross-check every record against its invariants before emitting.

    Each path must run from the record's concept_a to its concept_b within
    the config's max_depth. Path steps are checked against the graph's
    edges, not against the tables the paths were searched over.
    """
    edges = graph.edges  # a RelationEdge hashes and compares as its (s, p, o)
    seen = set()
    for record in report.records:
        concept_a, concept_b, hierarchical, full, optimal, question_ids = record
        if concept_a >= concept_b:
            raise InternalInvariantError(f"unordered pair in {record}")
        if (concept_a, concept_b) in seen:
            raise InternalInvariantError(f"duplicate pair in {record}")
        seen.add((concept_a, concept_b))
        if not question_ids or list(question_ids) != sorted(question_ids):
            raise InternalInvariantError(f"bad question ids in {record}")
        both = hierarchical is not None and full is not None
        if both and full.length > hierarchical.length:
            raise InternalInvariantError(f"full path longer than hierarchical in {record}")
        if optimal != (both and full.length < hierarchical.length):
            raise InternalInvariantError(f"optimal flag inconsistent in {record}")
        for path in (hierarchical, full):
            if path is not None:
                _check_path(record, path, edges, report.config.max_depth)


def _json_scalar(value) -> str:
    """A JSON scalar exactly as ``json.dumps`` writes it."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"not a JSON scalar: {value!r}")


_PAD4, _PAD6, _PAD8, _PAD10 = (" " * n for n in (4, 6, 8, 10))


def _json_strings(items, pad: str) -> str:
    """A list of strings whose items sit at indentation ``pad``."""
    if not items:
        return "[]"
    separator = ",\n" + pad
    return f"[\n{pad}{separator.join(map(encode_basestring, items))}\n{pad[:-2]}]"


def _json_path(path: PathResult | None) -> str:
    if path is None:
        return "null"
    length, nodes, predicates = path
    return (
        f'{{\n        "length": {int.__repr__(length)},'
        f'\n        "nodes": {_json_strings(nodes, _PAD10)},'
        f'\n        "predicates": {_json_strings(predicates, _PAD10)}\n      }}'
    )


def _json_objects(items: list[str]) -> str:
    """A list of objects already written at the item indentation."""
    if not items:
        return "[]"
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def _json_report(report: Report) -> str:
    # The report's fixed schema written out key by key, two-space indent;
    # tests/oracles.py holds the json.dumps form these bytes are pinned to.
    config = report.config
    config_json = ",\n    ".join(
        f'"{key}": '
        + (_json_strings(value, _PAD6) if isinstance(value, (tuple, list))
           else _json_scalar(value))
        for key, value in zip(config._fields, config)
    )
    records = [
        f'{{\n      "concept_a": {encode_basestring(concept_a)},'
        f'\n      "concept_b": {encode_basestring(concept_b)},'
        f'\n      "optimal": {"true" if optimal else "false"},'
        f'\n      "hierarchical": {_json_path(hierarchical)},'
        f'\n      "full": {_json_path(full)},'
        f'\n      "question_ids": {_json_strings(question_ids, _PAD8)}\n    }}'
        for concept_a, concept_b, hierarchical, full, optimal, question_ids in report.records
    ]
    matches = [
        f'{{\n      "question_id": {encode_basestring(m.question_id)},'
        f'\n      "ordinal": {_json_scalar(m.phrase.ordinal)},'
        f'\n      "kind": {encode_basestring(m.phrase.kind.value)},'
        f'\n      "source": {encode_basestring(m.phrase.source.value)},'
        f'\n      "phrase": {encode_basestring(m.phrase.raw)},'
        f'\n      "concept": {encode_basestring(m.concept_iri)},'
        f'\n      "label": {encode_basestring(m.matched_label)},'
        f'\n      "score": {_json_scalar(m.score)}\n    }}'
        for m in report.matches
    ]
    return (
        f'{{\n  "tool": "onto-enrich",\n  "version": {_json_scalar(report.version)},'
        f'\n  "config": {{\n    {config_json}\n  }},'
        f'\n  "records": {_json_objects(records)},'
        f'\n  "matches": {_json_objects(matches)},'
        f'\n  "warnings": {_json_strings(report.warnings, _PAD4)}\n}}\n'
    )


def serialize_report(report: Report, format: str) -> bytes:
    """Serialize to UTF-8 bytes; identical reports serialize identically.

    JSON: keys in a fixed order (tool, version, config, records, matches,
    warnings), two-space indent, newline-terminated, non-ASCII text written
    as is. A writer for this one schema produces it, pinned by a Hypothesis
    property to the bytes of ``json.dumps(..., ensure_ascii=False,
    indent=2)`` (``tests/oracles.py``), which is several times slower. CSV: one row per record with the header
    concept_a,concept_b,hier_len,full_len,optimal,questions,hier_path,full_path;
    paths are '/'-joined node iris, questions ';'-joined, and both length and
    path cells stay empty when a path does not exist.
    """
    if format == "json":
        return _json_report(report).encode("utf-8")
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([
            "concept_a", "concept_b", "hier_len", "full_len",
            "optimal", "questions", "hier_path", "full_path",
        ])
        for concept_a, concept_b, hierarchical, full, optimal, question_ids in report.records:
            writer.writerow([
                concept_a,
                concept_b,
                hierarchical.length if hierarchical else "",
                full.length if full else "",
                "true" if optimal else "false",
                ";".join(question_ids),
                "/".join(hierarchical.nodes) if hierarchical else "",
                "/".join(full.nodes) if full else "",
            ])
        return buffer.getvalue().encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
