"""Independent correctness checks of one report against its workload.

Nothing here calls the program: lemmas, greedy char-Jaccard scores, the best
label per phrase, co-occurring pairs and breadth-first distances are all
recomputed from what ``gen.py`` put into the input files. ``check`` returns a
list of problems; an empty list means the report is correct.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from gen import DEFAULT_MAX_DEPTH, HIER_PREDICATES, Workload

_TOKEN = re.compile(r"[^\W_]+")
MAX_PROBLEMS = 20


def lemmas(text: str, lexicon: dict[str, str], stoplist: frozenset[str]) -> tuple[str, ...]:
    """Alphanumeric runs, case-folded, mapped through the lexicon, stop forms dropped."""
    out = []
    for token in _TOKEN.findall(text):
        lemma = lexicon.get(token.casefold(), token.casefold())
        if lemma not in stoplist:
            out.append(lemma)
    return tuple(out)


def greedy_counts(a: tuple[frozenset, ...], b: tuple[frozenset, ...], threshold: float):
    """(m, d): each lemma of ``a`` in turn takes the free lemma of ``b`` with
    the highest char Jaccard >= threshold, earliest on ties."""
    taken = [False] * len(b)
    m = 0
    for sa in a:
        best_k, best = -1, -1.0
        for k, sb in enumerate(b):
            if not taken[k]:
                cj = len(sa & sb) / len(sa | sb)
                if cj >= threshold and cj > best:
                    best_k, best = k, cj
        if best_k >= 0:
            taken[best_k] = True
            m += 1
    return m, len(a) + len(b) - m


def _charsets(seq: tuple[str, ...]) -> tuple[frozenset, ...]:
    return tuple(frozenset(lemma) for lemma in seq)


class _Scorer:
    """Scores phrases against every (concept, label) entry of a workload."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.entries = []
        for iri in sorted(workload.labels):
            for text in sorted(set(workload.labels[iri])):
                seq = self.lemmas(text)
                if seq:
                    self.entries.append((iri, text, seq, _charsets(seq)))

    def lemmas(self, text: str) -> tuple[str, ...]:
        return lemmas(text, self.w.lexicon, self.w.stoplist)

    def score(self, phrase_seq: tuple[str, ...], label: str) -> float:
        m, d = greedy_counts(
            _charsets(phrase_seq), _charsets(self.lemmas(label)), self.w.word_threshold)
        return m / d

    def best(self, phrase_seq: tuple[str, ...]):
        """(iri, label, score) by score, then fewer label lemmas, then iri,
        then label; None when no entry reaches the sequence threshold."""
        sets = _charsets(phrase_seq)
        best_key, best = None, None
        for iri, text, seq, label_sets in self.entries:
            m, d = greedy_counts(sets, label_sets, self.w.word_threshold)
            if m / d < self.w.seq_threshold:
                continue
            key = (-Fraction(m, d), len(seq), iri, text)
            if best_key is None or key < best_key:
                best_key, best = key, (iri, text, m / d)
        return best


def check(workload: Workload, report: dict, sample: int = 60, sample_seed: int = 0) -> list[str]:
    """Every problem found in ``report``; empty when it is correct."""
    problems: list[str] = []
    scorer = _Scorer(workload)
    phrases = {(qid, i): p for qid, ps in workload.questions for i, p in enumerate(ps)}
    _check_matches(workload, report["matches"], phrases, scorer, sample, sample_seed, problems)
    _check_records(workload, report, problems)
    if report["warnings"]:
        problems.append(f"unexpected warnings {report['warnings'][:3]}")
    return problems[:MAX_PROBLEMS]


def _check_matches(workload, matches, phrases, scorer, sample, sample_seed, problems):
    keys = [(m["question_id"], m["ordinal"]) for m in matches]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        problems.append("match log not in (question id, ordinal) order")
    logged = {}
    concepts_seen = set()
    for m in matches:
        key = (m["question_id"], m["ordinal"])
        phrase = phrases.get(key)
        if phrase is None:
            problems.append(f"match {key} names no extracted phrase")
            continue
        logged[key] = m
        if (m["phrase"], m["kind"], m["source"]) != (phrase.raw, phrase.kind, phrase.source):
            problems.append(f"match {key} misreports its phrase")
        if (m["question_id"], m["concept"]) in concepts_seen:
            problems.append(f"concept {m['concept']} logged twice in {m['question_id']}")
        concepts_seen.add((m["question_id"], m["concept"]))
        if m["label"] not in workload.labels.get(m["concept"], ()):
            problems.append(f"match {key}: {m['label']!r} is no label of {m['concept']}")
            continue
        seq = scorer.lemmas(phrase.raw)
        expected = scorer.score(seq, m["label"]) if seq else None
        if expected is None or m["score"] != expected or expected < workload.seq_threshold:
            problems.append(f"match {key}: score {m['score']} != recomputed {expected}")

    by_question: dict[str, list[dict]] = {}
    for m in matches:
        by_question.setdefault(m["question_id"], []).append(m)

    def held_by_earlier(key, iri, score) -> bool:
        # match_question keeps one phrase per concept: the highest score,
        # the earliest on ties
        return any(
            m["concept"] == iri and (m["score"] > score or (
                m["score"] == score and m["ordinal"] < key[1]))
            for m in by_question.get(key[0], ()))

    # a phrase copied from a label scores 1.0, or an earlier phrase of its
    # question already holds a concept it also scores 1.0 against
    for key, phrase in phrases.items():
        if not phrase.copied:
            continue
        m = logged.get(key)
        if m is not None:
            if m["score"] != 1.0:
                problems.append(f"copied phrase {key} {phrase.raw!r} scored {m['score']}")
            continue
        seq = scorer.lemmas(phrase.raw)
        if not any(
            m["score"] == 1.0 and m["ordinal"] < key[1]
            and max(scorer.score(seq, t) for t in workload.labels[m["concept"]]) == 1.0
            for m in by_question.get(key[0], ())
        ):
            problems.append(f"copied phrase {key} {phrase.raw!r} matched nothing")

    rng = random.Random(sample_seed)
    for key in rng.sample(sorted(phrases), min(sample, len(phrases))):
        seq = scorer.lemmas(phrases[key].raw)
        best = scorer.best(seq) if seq else None
        m = logged.get(key)
        if m is not None:
            if best is None or (m["concept"], m["label"], m["score"]) != best:
                problems.append(f"sampled phrase {key}: logged {m['concept']} "
                                f"{m['label']!r} {m['score']}, best is {best}")
        elif best is not None and not held_by_earlier(key, best[0], best[2]):
            problems.append(f"sampled phrase {key} unmatched, but {best} clears the threshold")


def _record_key(record):
    full = record["full"]
    return (not record["optimal"], full["length"] if full else float("inf"),
            record["concept_a"], record["concept_b"])


def _check_records(workload, report, problems):
    records = report["records"]
    per_question: dict[str, set[str]] = {}
    for m in report["matches"]:
        per_question.setdefault(m["question_id"], set()).add(m["concept"])
    expected: dict[tuple[str, str], list[str]] = {}
    for qid in sorted(per_question):
        for a, b in itertools.combinations(sorted(per_question[qid]), 2):
            expected.setdefault((a, b), []).append(qid)
    got = {(r["concept_a"], r["concept_b"]): r["question_ids"] for r in records}
    if len(got) != len(records):
        problems.append("duplicate concept pairs among records")
    if got != expected:
        missing = sorted(set(expected) - set(got))[:3]
        extra = sorted(set(got) - set(expected))[:3]
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])[:3]
        problems.append(f"records differ from co-occurring pairs: missing {missing}, "
                        f"extra {extra}, wrong question ids {wrong}")
    keys = [_record_key(r) for r in records]
    if keys != sorted(keys):
        problems.append("records not in (optimal first, full length, concept_a, concept_b) order")

    iris = sorted(workload.labels)
    position = {iri: i for i, iri in enumerate(iris)}
    sources = sorted({position[r["concept_a"]] for r in records if r["concept_a"] in position})
    row = {s: i for i, s in enumerate(sources)}
    distances = {}
    for hierarchical in (True, False):
        kept = [(s, o) for s, p, o in workload.edges
                if not hierarchical or p in HIER_PREDICATES]
        rows = np.array([position[s] for s, _ in kept], dtype=np.int64)
        cols = np.array([position[o] for _, o in kept], dtype=np.int64)
        graph = coo_matrix((np.ones(len(kept)), (rows, cols)), shape=(len(iris),) * 2).tocsr()
        distances[hierarchical] = shortest_path(
            graph, directed=False, unweighted=True, indices=sources) if sources else None

    for r in records:
        pair = (r["concept_a"], r["concept_b"])
        if pair[0] not in position or pair[1] not in position or pair[0] >= pair[1]:
            problems.append(f"record {pair}: not an ordered pair of concepts")
            continue
        lengths = {}
        for hierarchical, field in ((True, "hierarchical"), (False, "full")):
            dist = distances[hierarchical][row[position[pair[0]]], position[pair[1]]]
            path = r[field]
            if dist > DEFAULT_MAX_DEPTH:
                if path is not None:
                    problems.append(f"record {pair}: {field} path beyond distance {dist}")
                continue
            if path is None or path["length"] != dist:
                problems.append(f"record {pair}: {field} path {path and path['length']} "
                                f"!= distance {int(dist)}")
                continue
            lengths[field] = path["length"]
            _check_path(workload, pair, field, path, hierarchical, problems)
        both = len(lengths) == 2
        if r["optimal"] != (both and lengths["full"] < lengths["hierarchical"]):
            problems.append(f"record {pair}: optimal flag {r['optimal']} is wrong")


def _check_path(workload, pair, field, path, hierarchical, problems):
    nodes, predicates = path["nodes"], path["predicates"]
    if (len(nodes) != path["length"] + 1 or len(predicates) != path["length"]
            or (nodes[0], nodes[-1]) != pair):
        problems.append(f"record {pair}: malformed {field} path")
        return
    for a, p, b in zip(nodes, predicates, nodes[1:]):
        if (a, p, b) not in workload.edges and (b, p, a) not in workload.edges:
            problems.append(f"record {pair}: {field} step {a} {p} {b} is no edge")
        elif hierarchical and p not in HIER_PREDICATES:
            problems.append(f"record {pair}: hierarchical step uses {p}")
