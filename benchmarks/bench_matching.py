#!/usr/bin/env python3
"""Time the batch scorer over a packed label index on synthetic data.

Builds a synthetic label index and phrase set shaped like a real deployment
(hundreds of concepts, thousands of phrases), packs the index once, and
times ``pair_counts`` over every phrase through one ``Scorer``, as one run
would. The checksum (total matched pairs, decoded from the bit planes) is
fixed by the seed, so a change to the scorer that alters its results shows
as a different checksum at the same arguments. Every phrase's greedy pairing
runs afresh, since ``pair_counts`` bypasses the scorer's per-sequence winner
memo; the per-lemma Jaccard groups and the overlap tables per character
count are memoised in the scorer, so each of the 20 words is filtered
against the index once. The index packs one row per distinct lemma, printed
beside the entry count; the 20-word vocabulary gives far fewer rows than
real labels do, which flatters the packing here. It also makes nearly every
label share a word with every phrase, so the overlap filter prunes little
and the score time is mostly the greedy pairing of the labels that survive
it; ``--word-threshold 0``, where every word pairs with every word, is the
worst case. A second pass then scores the same phrases through a new
``Scorer`` handed the first one's word memos, as ``pipeline.run`` hands them
from run to run over one index and word threshold: it filters no word
again, and must give the same checksum. With 20 words there are only 20
filters to save, so here the two passes take about the same time; the
saving grows with the distinct words per pass, as in a bank of real terms.

Usage: PYTHONPATH=src python benchmarks/bench_matching.py [--entries N] [--phrases N]
       [--word-threshold T]
"""

import argparse
import random
import time

from onto_enrich._scoring import IndexEntry, LabelIndex, Scorer, pair_counts
from onto_enrich.matcher import MatchConfig

VOCABULARY = [
    "triangle", "quadrilateral", "perpendicular", "segment", "middle", "line",
    "angle", "right", "circle", "diameter", "chord", "vertex", "polygon",
    "bisector", "median", "height", "diagonal", "point", "rotation", "axis",
]


def synthetic_sequences(rng, count, max_len):
    return [
        tuple(rng.choice(VOCABULARY) for _ in range(rng.randint(1, max_len)))
        for _ in range(count)
    ]


def score_all(scorer, phrases):
    """The total matched pairs of every phrase, decoded from the bit planes."""
    checksum = 0
    for seq in phrases:
        planes = pair_counts(scorer, seq)
        checksum += sum(plane.bit_count() << b for b, plane in enumerate(planes))
    return checksum


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entries", type=int, default=1000, help="index size")
    parser.add_argument("--phrases", type=int, default=2000, help="phrase count")
    parser.add_argument("--word-threshold", type=float, default=0.75)
    args = parser.parse_args()

    rng = random.Random(1)
    entries = synthetic_sequences(rng, args.entries, 4)
    phrases = synthetic_sequences(rng, args.phrases, 5)

    started = time.perf_counter()
    index = LabelIndex(
        IndexEntry(f"c:{j}", f"label {j}", seq) for j, seq in enumerate(entries))
    packed = time.perf_counter()
    print(f"{args.entries} index entries ({len(index.rows)} distinct lemma rows) "
          f"x {args.phrases} phrases, word threshold {args.word_threshold}")
    scorer = Scorer(index, args.word_threshold, MatchConfig().seq_threshold)
    checksum = score_all(scorer, phrases)
    scored = time.perf_counter()
    kept = Scorer(index, args.word_threshold, MatchConfig().seq_threshold,
                  pairable=scorer.pairable, overlaps=scorer.overlaps)
    again = score_all(kept, phrases)
    rescored = time.perf_counter()
    if again != checksum:
        raise SystemExit(f"second pass checksum {again} != {checksum}")
    print(f"   pack: {packed - started:8.3f} s")
    print(f"  score: {scored - packed:8.3f} s   (checksum {checksum})")
    print(f"  again: {rescored - scored:8.3f} s   (word memos kept)")


if __name__ == "__main__":
    main()
