"""Spans and counters recorded around calls into the package's layers.

``Tracer.installed()`` swaps the public functions the pipeline calls at each
layer boundary for wrappers that record a span (name, start, end, parent)
and update counters, and puts the originals back on exit, so untraced calls
run unchanged code. Spans stay in memory; ``layer_metrics`` turns them into
per-layer times, with self time being a span's duration minus that of its
child spans. The layers are the package's modules: corpus, textnorm,
ontology, _scoring (named ``scoring``), matcher, pathfinder, pipeline, cli.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _search_name(args, kwargs):
    hierarchical = _arg(args, kwargs, 3, "edge_filter").value == "hierarchical"
    return "pathfinder.hier" if hierarchical else "pathfinder.full"


def _on_phrases(t, args, kwargs, result):
    t.counts["corpus.phrases"] += len(result)


def _on_normalize_phrase(t, args, kwargs, result):
    if not result:
        t.counts["textnorm.empty_phrases"] += 1


def _on_graph(t, args, kwargs, result):
    t.counts["ontology.concepts"] += len(result.concepts)
    t.counts["ontology.edges"] += len(result.edges)


def _on_index(t, args, kwargs, result):
    t.counts["ontology.index_entries"] += len(result.entries)


def _on_score(t, args, kwargs, result):
    t.counts["scoring.calls"] += 1
    t.counts["scoring.entries_scored"] += len(result[0])


def _on_match_phrase(t, args, kwargs, result):
    t.counts["matcher.phrases_matched" if result else "matcher.phrases_unmatched"] += 1
    t.distinct["matcher.distinct_sequences"].add(_arg(args, kwargs, 1, "seq"))


def _on_compare(t, args, kwargs, result):
    t.counts["pathfinder.pairs"] += 1
    t.distinct["pathfinder.sources"].add(min(_arg(args, kwargs, 1, "pair")))


def _on_search(t, args, kwargs, result):
    name = _search_name(args, kwargs)
    t.counts[f"{name}_searches"] += 1
    t.counts[f"{name}_found"] += result is not None


def _on_run(t, args, kwargs, result):
    t.counts["pipeline.optimal_pairs"] += sum(r.optimal for r in result.records)


def _on_serialize(t, args, kwargs, result):
    t.counts["pipeline.report_bytes"] += len(result)


# (module, owner attribute or None, attribute, span name, observer). The
# owner is the module namespace the pipeline looks the name up in, or a
# class whose method is wrapped.
BOUNDARIES = (
    ("cli", None, "run", "pipeline.run", _on_run),
    ("cli", None, "serialize_report", "pipeline.serialize", _on_serialize),
    ("pipeline", None, "parse_corpus", "corpus.parse", None),
    ("pipeline", None, "extract_phrases", "corpus.extract", _on_phrases),
    ("pipeline", None, "load_lexicon", "textnorm.load", None),
    ("pipeline", None, "load_stoplist", "textnorm.load", None),
    ("pipeline", None, "parse_triples", "ontology.parse", None),
    ("pipeline", None, "build_graph", "ontology.graph", _on_graph),
    ("pipeline", None, "build_label_index", "ontology.index", _on_index),
    ("ontology", None, "normalize_phrase", "textnorm.normalize", None),
    ("matcher", None, "normalize_phrase", "textnorm.normalize", _on_normalize_phrase),
    ("matcher", "CompiledLabelIndex", "__init__", "scoring.compile", None),
    ("_scoring", "ScoringIndex", "numpy_pack", "scoring.pack", None),
    ("_scoring", None, "encode_sequence", "scoring.encode", None),
    ("_scoring", None, "score_counts", "scoring.score", _on_score),
    ("pipeline", None, "match_question", "matcher.question", None),
    ("matcher", None, "match_phrase", "matcher.phrase", _on_match_phrase),
    ("pipeline", None, "enumerate_pairs", "pathfinder.enumerate", None),
    ("pipeline", None, "compare", "pathfinder.compare", _on_compare),
    ("pathfinder", None, "shortest_path", _search_name, _on_search),
)


class Tracer:
    """Spans and counters of the traced calls, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)

    def wrap(self, name, fn, observe=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call's arguments."""
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            record = [name(args, kwargs) if callable(name) else name,
                      0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary that exists in this version of onto_enrich."""
        saved = []
        try:
            for module, owner, attr, name, observe in BOUNDARIES:
                target = importlib.import_module(f"onto_enrich.{module}")
                if owner is not None:
                    target = getattr(target, owner, None)
                original = getattr(target, attr, None) if target is not None else None
                if original is None:
                    continue
                if isinstance(target, type):
                    original = target.__dict__[attr]
                saved.append((target, attr, original))
                setattr(target, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times (inclusive ``_s`` per function, ``self_s`` per layer)
    and counters of the spans recorded so far."""
    incl: defaultdict[str, float] = defaultdict(float)
    own: defaultdict[str, float] = defaultdict(float)
    self_time = [end - start for _, start, end, _ in tracer.spans]
    for _, start, end, parent in tracer.spans:
        if parent >= 0:
            self_time[parent] -= end - start
    layer_self: defaultdict[str, float] = defaultdict(float)
    for (name, start, end, _), st in zip(tracer.spans, self_time):
        incl[name] += end - start
        own[name] += st
        layer_self[name.split(".")[0]] += st

    c = tracer.counts
    searches = {k: c[f"pathfinder.{k}_searches"] for k in ("hier", "full")}
    attempted = c["matcher.phrases_matched"] + c["matcher.phrases_unmatched"]
    metrics = {
        "corpus.parse_s": incl["corpus.parse"],
        "corpus.extract_s": incl["corpus.extract"],
        "corpus.phrases": c["corpus.phrases"],
        "textnorm.normalize_s": incl["textnorm.normalize"],
        "textnorm.load_s": incl["textnorm.load"],
        "textnorm.empty_phrases": c["textnorm.empty_phrases"],
        "ontology.parse_s": incl["ontology.parse"],
        "ontology.graph_s": incl["ontology.graph"],
        "ontology.index_s": incl["ontology.index"],
        "ontology.concepts": c["ontology.concepts"],
        "ontology.edges": c["ontology.edges"],
        "ontology.index_entries": c["ontology.index_entries"],
        "scoring.compile_s": incl["scoring.compile"] + incl["scoring.pack"],
        "scoring.encode_s": incl["scoring.encode"],
        "scoring.score_s": own["scoring.score"],
        "scoring.calls": c["scoring.calls"],
        "scoring.entries_scored": c["scoring.entries_scored"],
        "matcher.match_s": incl["matcher.question"],
        "matcher.select_s": own["matcher.phrase"],
        "matcher.phrases_matched": c["matcher.phrases_matched"],
        "matcher.phrases_unmatched": c["matcher.phrases_unmatched"],
        "matcher.distinct_sequences": len(tracer.distinct["matcher.distinct_sequences"]),
        "matcher.match_ratio": c["matcher.phrases_matched"] / attempted if attempted else 0.0,
        "pathfinder.compare_s": incl["pathfinder.compare"],
        "pathfinder.hier_s": incl["pathfinder.hier"],
        "pathfinder.full_s": incl["pathfinder.full"],
        "pathfinder.pairs": c["pathfinder.pairs"],
        "pathfinder.sources": len(tracer.distinct["pathfinder.sources"]),
        "pathfinder.searches": searches["hier"] + searches["full"],
        "pathfinder.hier_found_ratio": (
            c["pathfinder.hier_found"] / searches["hier"] if searches["hier"] else 0.0),
        "pathfinder.full_found_ratio": (
            c["pathfinder.full_found"] / searches["full"] if searches["full"] else 0.0),
        "pipeline.self_s": own["pipeline.run"],
        "pipeline.serialize_s": incl["pipeline.serialize"],
        "pipeline.report_bytes": c["pipeline.report_bytes"],
        "pipeline.optimal_pairs": c["pipeline.optimal_pairs"],
        "cli.self_s": own["cli.main"],
    }
    for layer in ("corpus", "textnorm", "ontology", "scoring", "matcher", "pathfinder"):
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
