#!/usr/bin/env python3
"""Time the path search over one seeded question bank.

Builds a seeded synthetic ontology graph (a random concept tree, its links
``rdfs:subClassOf`` upward or ``ome:hasChild`` downward, with cross relations
under three more predicates, some of them parallel to a tree link) and a
seeded bank of questions, each naming a few concepts. The bank's concept
pairs are grouped by source as a run groups them, and every search a run
makes is timed: one hierarchical and one full ``paths_from`` per source
concept, at the default depth cap, taking the median of ``--repeat`` passes
over the bank. The graph's construction, which builds the search tables, is
timed apart, and so is a run's second pass over the same pairs
(``again``): ``pipeline._compare_all`` answering every pair from the
connection memo that its first pass filled. The sha256 checksum of every
search's paths is fixed by the arguments, so a change to the search that
alters any path shows as a different checksum.

Usage: PYTHONPATH=src python benchmarks/bench_paths.py [--concepts N] [--questions N] [--repeat N]
"""

import argparse
import hashlib
import itertools
import random
import statistics
import time

from onto_enrich.ontology import Literal, OntologyGraph, RelationEdge
from onto_enrich.pathfinder import DEFAULT_MAX_DEPTH, paths_from
from onto_enrich.pipeline import _compare_all

HIERARCHICAL = frozenset({"rdfs:subClassOf", "ome:hasChild"})
CROSS = ["ome:describes", "ome:partOf", "ome:relatedTo"]


def synthetic_graph(rng, concepts):
    iris = [f"c:Concept{i}" for i in range(concepts)]
    edges = set()
    for i in range(1, concepts):
        parent = rng.randrange(i)
        if rng.random() < 0.8:
            edges.add(RelationEdge(iris[i], "rdfs:subClassOf", iris[parent]))
        else:
            edges.add(RelationEdge(iris[parent], "ome:hasChild", iris[i]))
        if rng.random() < 0.1:  # a cross relation parallel to the tree link
            edges.add(RelationEdge(iris[parent], rng.choice(CROSS), iris[i]))
        for _ in range(rng.choice((0, 1, 1, 2))):
            other = rng.randrange(concepts)
            if other != i:
                edges.add(RelationEdge(iris[i], rng.choice(CROSS), iris[other]))
    labels = {iri: (Literal(iri[2:]),) for iri in iris}
    return labels, tuple(sorted(edges))


def synthetic_bank(rng, iris, questions):
    """{source: [dst, ...]}: every concept pair of every question, grouped
    by the pair's smaller concept, as a run groups them."""
    by_source = {}
    for _ in range(questions):
        named = sorted(set(rng.sample(iris, rng.randint(2, 7))))
        for a, b in itertools.combinations(named, 2):
            by_source.setdefault(a, set()).add(b)
    return {src: sorted(dsts) for src, dsts in sorted(by_source.items())}


def search_bank(graph, bank):
    return [paths_from(graph, src, dsts, hierarchical)
            for src, dsts in bank.items() for hierarchical in (True, False)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--concepts", type=int, default=600, help="ontology concepts")
    parser.add_argument("--questions", type=int, default=96, help="questions in the bank")
    parser.add_argument("--repeat", type=int, default=15, help="passes over the bank; median taken")
    args = parser.parse_args()

    rng = random.Random(1)
    concepts, edges = synthetic_graph(rng, args.concepts)
    bank = synthetic_bank(rng, sorted(concepts), args.questions)

    builds, passes = [], []
    for _ in range(args.repeat):
        started = time.perf_counter()
        graph = OntologyGraph(concepts, edges, HIERARCHICAL)
        builds.append(time.perf_counter() - started)
    for _ in range(args.repeat):
        started = time.perf_counter()
        found = search_bank(graph, bank)
        passes.append(time.perf_counter() - started)

    # the bank as a run passes it, each pair under one question id
    by_source = {src: dict.fromkeys(dsts, ("q",)) for src, dsts in bank.items()}
    kept = {}
    _compare_all(graph, by_source, DEFAULT_MAX_DEPTH, kept)
    agains = []
    for _ in range(args.repeat):
        started = time.perf_counter()
        _compare_all(graph, by_source, DEFAULT_MAX_DEPTH, kept)
        agains.append(time.perf_counter() - started)

    digest = hashlib.sha256(repr(found).encode("utf-8")).hexdigest()
    pairs = sum(len(dsts) for dsts in bank.values())
    print(f"{args.concepts} concepts, {len(edges)} edges; {args.questions} questions, "
          f"{pairs} pairs from {len(bank)} sources; median of {args.repeat}")
    print(f"  build: {statistics.median(builds) * 1e3:8.2f} ms")
    print(f" search: {statistics.median(passes) * 1e3:8.2f} ms   ({len(found)} searches, "
          f"{sum(map(len, found))} paths, sha256 {digest[:16]})")
    print(f"  again: {statistics.median(agains) * 1e3:8.2f} ms   ({len(kept)} pairs kept)")


if __name__ == "__main__":
    main()
