"""The packed label index and the scorer that matches phrases against it.

Matching a phrase means greedily pairing its lemmas with every label's
lemmas at character-set granularity, for every entry of the label index.
``LabelIndex`` numbers the distinct lemmas of its entries once, one row per
distinct lemma however many labels share it, and packs the rows into Python
integers used as bitmasks: one mask per character (the rows holding it) and
one per character-set size. ``score_counts`` counts, for one phrase lemma at
a time, the characters it shares with every row at once through a bit-sliced
adder over those masks. A character Jaccard of at least t needs a minimum
overlap that depends only on the two set sizes (the overlap filter of
AllPairs, Bayardo et al., WWW 2007, and PPJoin, Xiao et al., WWW 2008), so
one comparison per size finds exactly the rows that can pair. Only entries
holding such a row are paired; every other entry pairs nothing.
"""

from typing import Iterable, NamedTuple

from .errors import EmptySequenceError
from .textnorm import LemmaSequence


class IndexEntry(NamedTuple):
    """One (concept, label) pair with the label's normalized lemma sequence."""

    iri: str
    label: str
    lemmas: LemmaSequence


class LabelIndex:
    """Index entries packed once for batch scoring of many phrases.

    Equal lemmas share one row, rows numbered by first occurrence:
    ``rows[r]`` is the lemma of row ``r``, ``row_chars[r]`` its character
    set and ``row_entries[r]`` the positions of the entries holding it,
    ascending. Bit ``r`` of ``char_rows[c]`` is set when row ``r`` holds
    character ``c``, and bit ``r`` of ``size_rows[s]`` when row ``r`` has
    ``s`` distinct characters. ``rank`` orders the entries by (lemma count,
    iri, label), the tie-break between equally scored labels.

    The packed tables never change after construction, so one index can
    outlive a run and serve many: ``pipeline.run`` keeps the last one it
    built. The two memos cannot outlive a run: they hold its work and grow
    with it. ``for_run`` gives each run a view that shares the tables and
    has empty memos of its own. ``pairable`` maps (lemma, word_threshold)
    to the character Jaccard of every row lemma that clears the threshold,
    and to the entries holding one. ``memo`` is filled by
    ``matcher.match_phrase``: it maps (lemma sequence, word_threshold,
    seq_threshold) to the winning entry's position and score, or None when
    no label clears the threshold.
    """

    def __init__(self, entries: Iterable[IndexEntry]):
        self.entries = entries = tuple(entries)
        holders: dict[str, list[int]] = {}
        for j, entry in enumerate(entries):
            # a label that normalizes to nothing has nothing to match
            if not entry.lemmas:
                raise EmptySequenceError(
                    f"index entry {entry.label!r} of <{entry.iri}> has no lemmas")
            for lemma in entry.lemmas:
                js = holders.get(lemma)
                if js is None:
                    holders[lemma] = [j]
                elif js[-1] != j:
                    js.append(j)
        self.rows = list(holders)
        self.row_chars = [frozenset(lemma) for lemma in self.rows]
        self.row_entries = list(holders.values())
        self.char_rows = _masks(self.row_chars, len(self.rows))
        self.size_rows = _masks([(len(chars),) for chars in self.row_chars], len(self.rows))
        keys = [(len(entry.lemmas), entry.iri, entry.label) for entry in entries]
        self.rank = [0] * len(entries)
        for position, j in enumerate(sorted(range(len(entries)), key=keys.__getitem__)):
            self.rank[j] = position
        self.pairable: dict[tuple[str, float], tuple[dict[str, float], set[int]]] = {}
        self.memo: dict[tuple[LemmaSequence, float, float], tuple[int, float] | None] = {}

    def for_run(self) -> "LabelIndex":
        """This index with empty memos of its own; the tables are shared."""
        view = object.__new__(LabelIndex)
        view.__dict__.update(self.__dict__, pairable={}, memo={})
        return view

    def __len__(self) -> int:
        return len(self.entries)


def _masks(keys_per_row: Iterable[Iterable], n_rows: int) -> dict:
    """One bitmask per key: bit ``r`` is set when row ``r`` has the key."""
    digits: dict = {}
    for r, keys in enumerate(keys_per_row):
        for key in keys:
            bits = digits.get(key)
            if bits is None:
                bits = digits[key] = bytearray(b"0" * n_rows)
            bits[~r] = 49   # b"1"; the last binary digit is bit 0
    return {key: int(bits, 2) for key, bits in digits.items()}


def _count_bits(masks: Iterable[int]) -> list[int]:
    """Bit-sliced per-row count of the ``masks`` holding each row.

    Returns bit planes: the count of row ``r`` is the sum over ``b`` of bit
    ``r`` of ``planes[b]`` times ``2 ** b``. Each mask is added to every
    row's counter at once by a ripple-carry adder over the planes.
    """
    planes: list[int] = []
    for carry in masks:
        for b, plane in enumerate(planes):
            planes[b] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def _at_least(planes: list[int], k: int, rows: int) -> int:
    """The rows of mask ``rows`` whose bit-sliced count is at least ``k``."""
    if k <= 0:
        return rows
    if k >> len(planes):
        return 0
    # compare from the top plane down: ``more`` holds rows already known to
    # exceed k, ``equal`` those whose higher bits all equal k's
    more, equal = 0, rows
    for b in range(len(planes) - 1, -1, -1):
        if k >> b & 1:
            equal &= planes[b]
        else:
            more |= equal & planes[b]
            equal &= ~planes[b]
    return more | equal


def _min_overlap(n: int, s: int, word_threshold: float) -> int | None:
    """Fewest shared characters that let sets of sizes n and s pair, if any.

    Uses the confirm step's own float test, so the filter passes exactly
    the rows whose Jaccard clears ``word_threshold``.
    """
    for i in range(min(n, s) + 1):
        # two empty sets count as equal, as in the char_jaccard spec (tests/oracles.py)
        if (i / (n + s - i) if n + s else 1.0) >= word_threshold:
            return i
    return None


def _pairable(index: LabelIndex, lemma: str,
              word_threshold: float) -> tuple[dict[str, float], set[int]]:
    """Row lemmas that ``lemma`` can pair with, and the entries holding them.

    Returns the character Jaccard of ``lemma`` with every row lemma that
    clears ``word_threshold``, and the positions of the entries holding one.
    """
    chars = frozenset(lemma)
    n = len(chars)
    # characters outside the index alphabet intersect nothing
    planes = _count_bits(index.char_rows[c] for c in chars if c in index.char_rows)
    by_overlap: dict[int, int] = {}
    for s, rows in index.size_rows.items():
        k = _min_overlap(n, s, word_threshold)
        if k is not None:
            by_overlap[k] = by_overlap.get(k, 0) | rows
    survivors = 0
    for k, rows in by_overlap.items():
        survivors |= _at_least(planes, k, rows)
    jaccards = {}
    holders: set[int] = set()
    while survivors:
        low = survivors & -survivors
        survivors ^= low
        r = low.bit_length() - 1
        inter = len(chars & index.row_chars[r])
        union = n + len(index.row_chars[r]) - inter
        jaccards[index.rows[r]] = inter / union if union else 1.0
        holders.update(index.row_entries[r])
    return jaccards, holders


def _pair_count(per_lemma: list[dict[str, float]], lemmas: LemmaSequence) -> int:
    """Pairs the greedy pairing makes between the phrase and one entry.

    ``per_lemma`` holds, for each phrase lemma in order, its Jaccard with
    every lemma it can pair with.
    """
    free: list[str | None] = list(lemmas)
    count = 0
    for jaccards in per_lemma:
        if jaccards.keys().isdisjoint(free):
            continue
        best_k = -1
        best = -1.0
        for k, lemma in enumerate(free):
            cj = jaccards.get(lemma)
            if cj is not None and cj > best:
                best = cj
                best_k = k
        if best_k >= 0:
            free[best_k] = None
            count += 1
    return count


def score_counts(index: LabelIndex, seq: LemmaSequence, word_threshold: float):
    """Greedy fuzzy-match counts of one phrase against every index entry.

    Phrase lemmas are taken in order; each pairs with the unused entry lemma
    of maximal character Jaccard among those clearing ``word_threshold``,
    earliest position winning ties. Returns dicts (m, d) from entry position
    to the matched pair count and to |A| + |B| - m, holding exactly the
    entries with m > 0; every other entry has m = 0 and d = |A| + |B|.
    """
    per_lemma = []
    candidates: set[int] = set()
    for lemma in seq:
        key = (lemma, word_threshold)
        pairable = index.pairable.get(key)
        if pairable is None:
            pairable = index.pairable[key] = _pairable(index, lemma, word_threshold)
        per_lemma.append(pairable[0])
        candidates |= pairable[1]
    # an entry holding a pairable row pairs at least once, and exactly once
    # when either side has one lemma: only these entries can have m > 0, and
    # the greedy pairing runs over those with two or more lemmas a side
    m: dict[int, int] = {}
    d: dict[int, int] = {}
    n = len(seq)
    entries = index.entries
    for j in candidates:
        lemmas = entries[j].lemmas
        m[j] = count = 1 if n == 1 or len(lemmas) == 1 else _pair_count(per_lemma, lemmas)
        d[j] = n + len(lemmas) - count
    return m, d
