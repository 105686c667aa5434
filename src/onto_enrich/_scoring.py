"""The packed label index and the scorer that matches phrases against it.

Matching a phrase means greedily pairing its lemmas with every label's
lemmas at character-set granularity, for every entry of the label index.
``LabelIndex`` packs the distinct lemmas of its entries once into a
lemma-by-character incidence matrix, one row per distinct lemma however many
labels share it, and maps every lemma occurrence to its row through
``lemma_id``. ``score_counts`` then pairs one phrase lemma at a time with
array operations: it computes the character Jaccard once per distinct row,
gathers it out to the occurrences, and pairs across all entries at once, so
no Python loop runs per entry or per label lemma.
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

    The lemma occurrences of all entries are numbered in order; entry ``j``
    owns occurrences ``starts[j]`` to ``starts[j] + lengths[j] - 1``, and
    ``owner[k]`` is the entry of occurrence ``k``. Equal lemmas share one
    row: ``lemma_id[k]`` is the row of occurrence ``k``, rows numbered by
    first occurrence. Row ``r`` of ``incidence`` holds 1 in column
    ``columns[c]`` for each distinct character ``c`` of lemma ``r``, and
    ``sizes[r]`` counts them. ``rank`` orders the entries by (lemma count,
    iri, label), the tie-break between equally scored labels. ``memo`` is
    filled by ``matcher.match_phrase``: it maps (lemma sequence,
    word_threshold, seq_threshold) to the winning entry's position and
    score, or None when no label clears the threshold.
    """

    def __init__(self, entries: Iterable[IndexEntry]):
        self.entries = entries = tuple(entries)
        for entry in entries:
            # an entry without lemmas would leave reduceat an empty segment
            if not entry.lemmas:
                raise EmptySequenceError(
                    f"index entry {entry.label!r} of <{entry.iri}> has no lemmas")
        rows: dict[str, int] = {}
        self.lemma_id = np.fromiter(
            (rows.setdefault(lemma, len(rows)) for entry in entries for lemma in entry.lemmas),
            dtype=np.intp)
        distinct = list(rows)
        joined = "".join(distinct)
        alphabet = sorted(set(joined))
        self.columns = {c: i for i, c in enumerate(alphabet)}
        # column of every character of every distinct lemma, by binary search
        # over the sorted alphabet's code points
        char_columns = np.searchsorted(np.fromiter(map(ord, alphabet), dtype=np.int64),
                                       np.fromiter(map(ord, joined), dtype=np.int64))
        self.incidence = np.zeros((len(distinct), len(alphabet)), dtype=np.uint8)
        self.incidence[np.repeat(np.arange(len(distinct)),
                                 np.fromiter(map(len, distinct), dtype=np.int64)), char_columns] = 1
        self.sizes = self.incidence.sum(axis=1, dtype=np.int64)
        self.lengths = np.array([len(e.lemmas) for e in entries], dtype=np.int64)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.owner = np.repeat(np.arange(len(entries)), self.lengths)
        order = sorted(range(len(entries)), key=lambda j: (
            len(entries[j].lemmas), entries[j].iri, entries[j].label))
        self.rank = np.empty(len(order), dtype=np.int64)
        self.rank[order] = np.arange(len(order))
        self.memo: dict[tuple[LemmaSequence, float, float], tuple[int, float] | None] = {}

    def __len__(self) -> int:
        return len(self.entries)


def score_counts(index: LabelIndex, seq: LemmaSequence, word_threshold: float):
    """Greedy fuzzy-match counts of one phrase against every index entry.

    Phrase lemmas are taken in order; each pairs with the unused entry lemma
    of maximal character Jaccard among those clearing ``word_threshold``,
    earliest position winning ties. Returns per-entry int arrays (m, d): the
    matched pair count and |A| + |B| - m.
    """
    n_lemmas = index.lemma_id.size
    positions = np.arange(n_lemmas)
    taken = np.zeros(n_lemmas, dtype=bool)
    m = np.zeros(len(index.entries), dtype=np.int64)
    for lemma in seq:
        chars = set(lemma)
        # characters outside the index alphabet intersect nothing
        inter = index.incidence[:, [index.columns[c] for c in chars if c in index.columns]].sum(axis=1)
        union = len(chars) + index.sizes - inter
        # one Jaccard per distinct lemma, gathered out to every occurrence
        cj = np.divide(inter, union, out=np.ones(index.sizes.size), where=union > 0)[index.lemma_id]
        cj[taken | (cj < word_threshold)] = -1.0
        best = np.maximum.reduceat(cj, index.starts)
        first = np.minimum.reduceat(
            np.where(cj == best[index.owner], positions, n_lemmas), index.starts)
        paired = best >= 0.0
        taken[first[paired]] = True
        m += paired
    return m, len(seq) + index.lengths - m
