"""End-to-end run: corpus + ontology in, a checked ``Report`` out.

Stage order: parse corpus, load lexicon/stoplist, build graph and label
index, match every question, enumerate co-occurring concept pairs, compare
hierarchical against full shortest paths for every unique pair (one search
of each kind per source concept), aggregate question ids, and sort the
records. Every stage runs once, in order, in the calling thread.

Three memos of one entry each keep the parsed lexicon, the parsed stoplist,
and the graph, label index, index warnings and connection memo, each keyed
by the bytes and settings it depends on, so repeated runs over unchanged
inputs parse and build nothing again: see ``_load_ontology``. The connection
memo keeps the two shortest paths of every concept pair compared with the
loaded graph at each depth cap, so repeated runs search only the pairs they
have not compared before; each run's question ids and optimal flags are its
own. A fourth memo of one entry, ``_words``, keeps the word-level scoring
memos of the loaded label index at one word threshold, so repeated runs do
not filter the same lemmas against the index again; each run's winners and
score walks live in its own ``Scorer``.
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
    lexicon, stoplist, graph, index, warnings, connections = _load_ontology(config)
    # the kept word memos and the run's own winners; the kept index is never written
    pairable, overlaps = _words(index, config.match.word_threshold)
    scorer = Scorer(index, *config.match, pairable=pairable, overlaps=overlaps)

    matches = [match_question(extract_phrases(q), scorer, lexicon, stoplist) for q in questions]

    by_source: dict[str, dict[str, set[str]]] = {}
    for per_question in matches:
        for a, b, qid in enumerate_pairs(per_question):
            by_source.setdefault(a, {}).setdefault(b, set()).add(qid)

    records = _compare_all(graph, by_source, config.max_depth, connections)
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
        warnings=warnings,
    )
    _check_report(report, graph)
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


@functools.lru_cache(maxsize=1)
def _ontology(data, lexicon_data, stoplist_data, label_predicates, hierarchical_predicates,
              label_lang):
    """The graph, label index and index warnings built from ``data``, an
    ontology file's bytes, and the other inputs they depend on, and an empty
    connection memo for ``_compare_all`` that lives and dies with them.

    The memo maps (max_depth, src, dst) to the pair's hierarchical and full
    ``PathResult`` (None where out of reach). It holds one entry per distinct
    depth cap and pair compared with this graph, and is freed with it. It
    needs no lock, although concurrent runs read and fill it: each value is
    a pure function of its key and the graph, a dict store is atomic under
    the GIL, entries are never removed, and two runs racing on one key only
    store an equal value twice.
    """
    graph = build_graph(
        parse_triples(data),
        hierarchical_predicates=hierarchical_predicates,
        label_predicates=label_predicates,
        label_lang=label_lang,
    )
    warnings: list[str] = []
    index = build_label_index(
        graph, _lexicon(lexicon_data), _stoplist(stoplist_data), on_warning=warnings.append)
    return graph, index, tuple(warnings), {}


@functools.lru_cache(maxsize=1)
def _words(index, word_threshold):
    """The word memos, ``Scorer.pairable`` and ``Scorer.overlaps``, that every
    run over ``index`` at ``word_threshold`` shares.

    They hold one entry per distinct lemma and per character count scored
    with this index and threshold, and are freed when either changes. They
    need no lock, although concurrent runs read and fill them: each value is
    a tuple computed from its key alone, a dict store is atomic under the
    GIL, and two runs racing on one key only compute an equal value twice.
    """
    return {}, {}


def _load_ontology(config: RunConfig):
    """The lexicon, stoplist, graph, label index, index warnings and
    connection memo of this run's inputs.

    The lexicon, stoplist and ontology files are read in that order, each in
    full. Each value comes from a memo of one entry keyed by content, never
    by path or mtime: the lexicon and the stoplist by their bytes, the graph
    and index by the three files' bytes, both predicate collections and
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
        graph, index, warnings, connections = _ontology(
            Path(config.ontology).read_bytes(), lexicon_data, stoplist_data,
            tuple(config.label_predicates), tuple(config.hierarchical_predicates),
            config.label_lang)
    return lexicon, stoplist, graph, index, warnings, connections


def _compare_all(graph, by_source, max_depth, kept):
    """One record per pair of ``by_source`` ({src: {dst: question ids}}), by
    src then dst, each carrying its pair's question ids sorted.

    Paths come from ``kept``, the connection memo of ``graph``: one search of
    each kind per source serves the dsts it lacks, and stores their paths.
    """
    records = []
    for src in sorted(by_source):
        dsts = by_source[src]
        missing = {dst: () for dst in dsts if (max_depth, src, dst) not in kept}
        if missing:
            for record in compare_from(graph, src, missing, max_depth):
                kept[max_depth, src, record.concept_b] = record.hierarchical, record.full
        for dst in sorted(dsts):
            hierarchical, full = kept[max_depth, src, dst]
            optimal = (
                hierarchical is not None
                and full is not None
                and full.length < hierarchical.length
            )
            records.append(ConnectionRecord(
                src, dst, hierarchical, full, optimal, tuple(sorted(dsts[dst]))))
    return records
