"""The packed label index and the scorer that matches phrases against it.

Matching a phrase means greedily pairing its lemmas with every label's
lemmas at character-set granularity, for every entry of the label index.
``LabelIndex`` packs its entries once into a lemma-by-character incidence
matrix; ``score_counts`` then pairs one phrase lemma at a time across all
entries with array operations, so no Python loop runs per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptySequenceError
from .textnorm import LemmaSequence


@dataclass(frozen=True)
class IndexEntry:
    """One (concept, label) pair with the label's normalized lemma sequence."""

    iri: str
    label: str
    lemmas: LemmaSequence


class LabelIndex:
    """Index entries packed once for batch scoring of many phrases.

    The lemmas of all entries are numbered in order; entry ``j`` owns lemmas
    ``starts[j]`` to ``starts[j] + lengths[j] - 1``. Row ``k`` of
    ``incidence`` holds 1 in column ``columns[c]`` for each distinct
    character ``c`` of lemma ``k``, and ``sizes[k]`` counts them. ``rank``
    orders the entries by (lemma count, iri, label), the tie-break between
    equally scored labels.
    """

    def __init__(self, entries: Iterable[IndexEntry]):
        self.entries = entries = tuple(entries)
        for entry in entries:
            # an entry without lemmas would leave reduceat an empty segment
            if not entry.lemmas:
                raise EmptySequenceError(
                    f"index entry {entry.label!r} of <{entry.iri}> has no lemmas")
        lemma_sets = [set(lemma) for entry in entries for lemma in entry.lemmas]
        self.columns = {c: i for i, c in enumerate(sorted(set().union(*lemma_sets)))}
        self.incidence = np.zeros((len(lemma_sets), len(self.columns)), dtype=np.uint8)
        self.incidence[[k for k, chars in enumerate(lemma_sets) for _ in chars],
                       [self.columns[c] for chars in lemma_sets for c in chars]] = 1
        self.sizes = np.array([len(chars) for chars in lemma_sets], dtype=np.int64)
        self.lengths = np.array([len(e.lemmas) for e in entries], dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.owner = np.repeat(np.arange(len(entries)), self.lengths)
        order = sorted(range(len(entries)), key=lambda j: (
            len(entries[j].lemmas), entries[j].iri, entries[j].label))
        self.rank = np.empty(len(order), dtype=np.int64)
        self.rank[order] = np.arange(len(order))

    def __len__(self) -> int:
        return len(self.entries)


def score_counts(index: LabelIndex, seq: LemmaSequence, word_threshold: float):
    """Greedy fuzzy-match counts of one phrase against every index entry.

    Phrase lemmas are taken in order; each pairs with the unused entry lemma
    of maximal character Jaccard among those clearing ``word_threshold``,
    earliest position winning ties. Returns per-entry int arrays (m, d): the
    matched pair count and |A| + |B| - m.
    """
    n_lemmas = index.sizes.size
    positions = np.arange(n_lemmas)
    taken = np.zeros(n_lemmas, dtype=bool)
    m = np.zeros(len(index.entries), dtype=np.int64)
    for lemma in seq:
        chars = set(lemma)
        # characters outside the index alphabet intersect nothing
        inter = index.incidence[:, [index.columns[c] for c in chars if c in index.columns]].sum(axis=1)
        union = len(chars) + index.sizes - inter
        cj = np.divide(inter, union, out=np.ones(n_lemmas), where=union > 0)
        cj[taken | (cj < word_threshold)] = -1.0
        best = np.maximum.reduceat(cj, index.starts)
        first = np.minimum.reduceat(
            np.where(cj == best[index.owner], positions, n_lemmas), index.starts)
        paired = best >= 0.0
        taken[first[paired]] = True
        m += paired
    return m, len(seq) + index.lengths - m
