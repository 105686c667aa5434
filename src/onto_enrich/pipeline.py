"""End-to-end run: corpus + ontology in, a checked ``Report`` out.

Stage order: parse corpus, load lexicon/stoplist, build graph and label
index, match every question, enumerate co-occurring concept pairs, compare
hierarchical against full shortest paths for every unique pair (one search
of each kind per source concept), aggregate question ids, and sort the
records. Every stage runs once, in order, in the calling thread.

Memos of one entry keep the lexicon, stoplist and ontology loaded for later
runs; everything derived from the ontology lives and dies with it (``_Loaded``).
"""

import functools
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from ._scoring import Scorer
from .corpus import extract_phrases, parse_corpus
from .errors import OntoEnrichError
from .matcher import match_question
from .ontology import build_graph, build_label_index, parse_triples
from .pathfinder import ConnectionRecord, compare_from, enumerate_pairs
from .report import Report, RunConfig, _check_report
from .textnorm import DEFAULT_STOPLIST, load_lexicon, load_stoplist


def _record_sort_key(record: ConnectionRecord):
    full_len = record.full.length if record.full is not None else float("inf")
    return (not record.optimal, full_len, record.concept_a, record.concept_b)


@contextmanager
def _file_context(path: str):
    # parse errors already carry line numbers; prepend the offending file
    try:
        yield
    except OntoEnrichError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def run(config: RunConfig) -> Report:
    """Execute the whole pipeline and return the report."""
    with _file_context(config.corpus):
        questions = parse_corpus(Path(config.corpus).read_bytes())
    lexicon, stoplist, loaded = _load_ontology(config)
    scorer = loaded.scorer_at(config.word_threshold, config.seq_threshold)

    matches = [match_question(extract_phrases(q), scorer, lexicon, stoplist) for q in questions]

    by_source: dict[str, dict[str, set[str]]] = {}
    for per_question in matches:
        for a, b, qid in enumerate_pairs(per_question):
            by_source.setdefault(a, {}).setdefault(b, set()).add(qid)

    records = _compare_all(loaded.graph, by_source, config.max_depth, loaded.connections)
    records.sort(key=_record_sort_key)
    if config.optimal_only:
        records = [r for r in records if r.optimal]

    match_log = sorted(
        (m for per_question in matches for m in per_question),
        key=lambda m: (m.question_id, m.phrase.ordinal),
    )
    report = Report(
        version=__version__,
        config=config,
        records=tuple(records),
        matches=tuple(match_log),
        warnings=loaded.warnings,
    )
    _check_report(report, loaded.graph)
    return report


@functools.lru_cache(maxsize=1)
def _lexicon(data):
    """The lexicon parsed from ``data``, a lexicon file's bytes, or {} for None."""
    return {} if data is None else load_lexicon(data)


@functools.lru_cache(maxsize=1)
def _stoplist(data):
    """The stoplist parsed from ``data``, a stoplist file's bytes, or the
    default for None."""
    return DEFAULT_STOPLIST if data is None else load_stoplist(data)


class _Loaded:
    """One ontology's graph, label index and index warnings, with the memos
    that runs over them share: ``connections`` for ``_compare_all``, mapping
    (max_depth, src, dst) to the pair's two ``PathResult``s (None where out
    of reach) and optimal flag, and ``scorer``, the last run's ``Scorer``.

    Neither needs a lock, although concurrent runs read and fill them: each
    value is a pure function of its key and the ontology, a dict or slot
    store is atomic under the GIL, a scorer's thresholds never change, and
    two runs racing on one key only store an equal value twice.
    """

    __slots__ = ("graph", "index", "warnings", "connections", "scorer", "__weakref__")

    def __init__(self, graph, index, warnings):
        self.graph, self.index, self.warnings = graph, index, warnings
        self.connections, self.scorer = {}, None

    def scorer_at(self, word_threshold, seq_threshold) -> Scorer:
        """The kept scorer if both thresholds equal its own; else a new one,
        kept in its place, that shares its word memos if only the sequence
        threshold differs, since they depend on the word threshold alone."""
        scorer = self.scorer
        if scorer is None or scorer.word_threshold != word_threshold:
            scorer = self.scorer = Scorer(self.index, word_threshold, seq_threshold)
        elif scorer.seq_threshold != seq_threshold:
            scorer = self.scorer = Scorer(self.index, word_threshold, seq_threshold,
                                          pairable=scorer.pairable, overlaps=scorer.overlaps)
        return scorer


@functools.lru_cache(maxsize=1)
def _ontology(data, lexicon_data, stoplist_data, label_predicates, hierarchical_predicates,
              label_lang):
    """The ``_Loaded`` ontology of ``data``, an ontology file's bytes, and
    the other inputs its graph and index depend on."""
    graph = build_graph(
        parse_triples(data),
        hierarchical_predicates=hierarchical_predicates,
        label_predicates=label_predicates,
        label_lang=label_lang,
    )
    warnings: list[str] = []
    index = build_label_index(
        graph, _lexicon(lexicon_data), _stoplist(stoplist_data), on_warning=warnings.append)
    return _Loaded(graph, index, tuple(warnings))


def _load_ontology(config: RunConfig):
    """The lexicon, stoplist and ``_Loaded`` ontology of this run's inputs.

    The lexicon, stoplist and ontology files are read in that order, each in
    full. Each value comes from a memo of one entry keyed by content, never
    by path or mtime: the lexicon and the stoplist by their bytes, the
    ontology by the three files' bytes, both predicate collections and
    label_lang. A memo parses or builds only when its key changes; a load
    that raises keeps nothing and leaves the previous entry.
    """
    with _file_context(config.lexicon):
        lexicon_data = Path(config.lexicon).read_bytes() if config.lexicon is not None else None
        lexicon = _lexicon(lexicon_data)
    with _file_context(config.stoplist):
        stoplist_data = Path(config.stoplist).read_bytes() if config.stoplist is not None else None
        stoplist = _stoplist(stoplist_data)
    with _file_context(config.ontology):
        # tuples: the key must hash, and a list could change after it is kept
        loaded = _ontology(
            Path(config.ontology).read_bytes(), lexicon_data, stoplist_data,
            tuple(config.label_predicates), tuple(config.hierarchical_predicates),
            config.label_lang)
    return lexicon, stoplist, loaded


def _compare_all(graph, by_source, max_depth, kept):
    """One record per pair of ``by_source`` ({src: {dst: question ids}}), by
    src then dst, each carrying its pair's question ids sorted.

    Paths and optimal flags come from ``kept``, the connection memo of
    ``graph``: one search of each kind per source serves the dsts it lacks,
    and stores their paths and flags.
    """
    records = []
    for src in sorted(by_source):
        dsts = by_source[src]
        missing, slots = {}, []
        for dst in sorted(dsts):
            key = max_depth, src, dst
            ids = tuple(sorted(dsts[dst]))
            value = kept.get(key)
            if value is None:
                missing[dst] = ids
                slots.append((len(records), key))
                records.append(None)
            else:
                records.append(ConnectionRecord(src, dst, *value, ids))
        if missing:
            for (i, key), record in zip(slots, compare_from(graph, src, missing, max_depth)):
                records[i] = record
                kept[key] = record[2:5]
    return records
