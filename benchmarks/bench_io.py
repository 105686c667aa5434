#!/usr/bin/env python3
"""Time the two codecs at the ends of a run: triple parsing and JSON writing.

Builds a seeded synthetic ontology (a random tree with cross relations,
labels with escapes and language tags, comment and blank lines) and a
seeded synthetic report (records with hierarchical and full paths, some
missing, and a match log), then times ``parse_triples`` on the ontology
bytes and ``serialize_report(..., "json")`` on the report, taking the median
of ``--repeat`` calls each. The two sha256 checksums (of the parsed triples'
repr and of the report bytes) are fixed by the arguments, so a change to
either codec that alters its output shows as a different checksum.

Usage: PYTHONPATH=src python benchmarks/bench_io.py [--concepts N] [--records N] [--repeat N]
"""

import argparse
import hashlib
import random
import statistics
import time

from onto_enrich.corpus import MarkedPhrase, PhraseKind, PhraseSource
from onto_enrich.matcher import ConceptMatch
from onto_enrich.ontology import parse_triples
from onto_enrich.pathfinder import ConnectionRecord, PathResult
from onto_enrich.report import Report, RunConfig, serialize_report

WORDS = [
    "triangle", "middle", "line", "angle", "right", "circle", "chord", "vertex",
    "polygon", "bisector", "median", "диагональ", "угол", "x²", 'the "unit"', "a\\b",
]
PREDICATES = ["ome:describes", "ome:partOf", "ome:relatedTo"]


def _escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def synthetic_ontology(rng, concepts):
    lines = ["# synthetic ontology", ""]
    for i in range(concepts):
        iri = f"c:Concept{i}"
        if i:
            lines.append(f"<{iri}> <rdfs:subClassOf> <c:Concept{rng.randrange(i)}> .")
        if i > 1 and rng.random() < 0.5:
            other = rng.randrange(i)
            lines.append(f"<{iri}>\t<{rng.choice(PREDICATES)}> <c:Concept{other}> .")
        label = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 3)))
        lang = rng.choice(["@en", "@ru", "@en-GB", ""])
        lines.append(f'<{iri}> <rdfs:label> "{_escape(label)}"{lang} .')
    return ("\n".join(lines) + "\n").encode("utf-8")


def _path(rng, a, b):
    if rng.random() < 0.1:
        return None
    inner = [f"c:Concept{rng.randrange(10**4)}" for _ in range(rng.randint(0, 5))]
    nodes = (a, *inner, b)
    predicates = tuple(rng.choice(["rdfs:subClassOf", *PREDICATES]) for _ in nodes[1:])
    return PathResult(len(predicates), nodes, predicates)


def synthetic_report(rng, records):
    rows = []
    for i in range(records):
        a, b = sorted(f"c:Concept{rng.randrange(10**4)}" for _ in range(2))
        ids = tuple(sorted({f"q{rng.randrange(500):03d}" for _ in range(rng.randint(1, 3))}))
        rows.append(ConnectionRecord(a, b, _path(rng, a, b), _path(rng, a, b),
                                     rng.random() < 0.3, ids))
    matches = []
    for i in range(records // 4):
        qid = f"q{i // 5:03d}"
        phrase = MarkedPhrase(qid, rng.choice(list(PhraseKind)), rng.choice(WORDS),
                              rng.choice(list(PhraseSource)), i % 5)
        matches.append(ConceptMatch(qid, phrase, f"c:Concept{rng.randrange(10**4)}",
                                    rng.choice(WORDS), rng.random()))
    config = RunConfig(ontology="onto.nt", corpus="corpus.xml", lexicon="lexicon.tsv")
    return Report("0", config, tuple(rows), tuple(matches), ("label 'of' normalizes to empty",))


def timed(fn, repeat):
    times = []
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--concepts", type=int, default=5000, help="ontology concepts")
    parser.add_argument("--records", type=int, default=5000, help="report records")
    parser.add_argument("--repeat", type=int, default=15, help="calls per codec; median taken")
    args = parser.parse_args()

    rng = random.Random(1)
    data = synthetic_ontology(rng, args.concepts)
    report = synthetic_report(rng, args.records)

    parse_s, triples = timed(lambda: parse_triples(data), args.repeat)
    write_s, payload = timed(lambda: serialize_report(report, "json"), args.repeat)
    triples_sum = hashlib.sha256(repr(triples).encode("utf-8")).hexdigest()
    payload_sum = hashlib.sha256(payload).hexdigest()
    print(f"{args.concepts} concepts ({len(data.splitlines())} lines), "
          f"{args.records} records, median of {args.repeat}")
    print(f"parse_triples: {parse_s * 1e3:8.2f} ms   ({len(triples)} triples, sha256 {triples_sum[:16]})")
    print(f"   write json: {write_s * 1e3:8.2f} ms   ({len(payload)} bytes, sha256 {payload_sum[:16]})")


if __name__ == "__main__":
    main()
