"""The packed label index and the scorer that matches phrases against it.

Matching a phrase means greedily pairing its lemmas with every label's
lemmas at character-set granularity, for every entry of the label index.
``LabelIndex`` packs the index once into Python integers used as bitmasks,
in two spaces. In row space, one row per distinct lemma however many labels
share it, there is one mask per character (the rows holding it) and one per
character-set size. For one phrase lemma at a time, a bit-sliced adder over
those masks counts the characters it shares with every row at once. A
character Jaccard of at least t needs a minimum overlap that depends only on
the two set sizes (the overlap filter of AllPairs, Bayardo et al., WWW 2007,
and PPJoin, Xiao et al., WWW 2008), so the counts give exactly the rows that
can pair, grouped by their Jaccard. In entry space, bit b stands for the
entry of rank b, and each (row, position) has the mask of the entries
holding that row at that position. ``pair_counts`` then runs the greedy
pairing for every entry at once, one mask operation per (Jaccard group,
position), and keeps the per-entry pair counts as bit planes
(bit-parallelism in the sense of Myers, JACM 1999). The lowest set bit of a
mask is the entry that wins a tie. A ``Scorer`` does the matching with memos
of its own, or with word memos handed to it, so the index is never written
after construction.
"""

from operator import itemgetter
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

    ``order`` lists the entry positions by (lemma count, iri, label), the
    tie-break between equally scored labels; bit ``b`` of every entry mask
    stands for entry ``order[b]``, so the lowest set bit wins a tie. Equal
    lemmas share one row, rows numbered by first occurrence: ``rows[r]`` is
    the lemma of row ``r``. Bit ``r`` of ``char_rows[c]`` is set when row
    ``r`` holds character ``c``, and of ``size_rows[s]`` when row ``r`` has
    ``s`` distinct characters.
    ``row_positions[r]`` pairs each position ``k`` at which some entry holds
    row ``r`` with the mask of those entries, ``length_entries[n]`` is the
    mask of the entries with ``n`` lemmas, and ``unpaired`` holds one mask
    of every entry per position, the free positions before any pairing.

    The tables never change after construction, so ``pipeline.run`` keeps one
    index for many runs; every memo over it lives outside it, in a ``Scorer``,
    which ``pipeline`` keeps beside the index for the runs after it.
    """

    def __init__(self, entries: Iterable[IndexEntry]):
        self.entries = entries = tuple(entries)
        for entry in entries:
            # a label that normalizes to nothing has nothing to match
            if not entry.lemmas:
                raise EmptySequenceError(
                    f"index entry {entry.label!r} of <{entry.iri}> has no lemmas")
        self.rows = list(dict.fromkeys(lemma for entry in entries for lemma in entry.lemmas))
        row_chars = [frozenset(lemma) for lemma in self.rows]
        self.char_rows = _masks(row_chars, len(self.rows))
        self.size_rows = _masks([(len(chars),) for chars in row_chars], len(self.rows))
        del row_chars   # the largest table built here; free it before the masks below
        keys = [(len(entry.lemmas), entry.iri, entry.label) for entry in entries]
        self.order = sorted(range(len(entries)), key=keys.__getitem__)
        # few entries hold a row at one position, so these masks are ORed bit
        # by bit; a label length is dense, so its mask comes from _masks
        positions: dict[str, dict[int, int]] = {lemma: {} for lemma in self.rows}
        for b, j in enumerate(self.order):
            bit = 1 << b
            for k, lemma in enumerate(entries[j].lemmas):
                at = positions[lemma]
                at[k] = at.get(k, 0) | bit
        self.row_positions = [tuple(at.items()) for at in positions.values()]
        self.length_entries = _masks(
            [(len(entries[j].lemmas),) for j in self.order], len(entries))
        self.unpaired = ((1 << len(entries)) - 1,) * max(self.length_entries, default=0)

    def __len__(self) -> int:
        return len(self.entries)


class Scorer:
    """Matching against ``index`` at fixed thresholds.

    The memos grow with the phrases scored; the index is shared and never
    written. ``pairable`` maps a lemma to its ``_pairable`` groups,
    ``overlaps`` a character count to its ``_overlaps`` table, ``walks`` a
    phrase length to its ``_walk`` and ``winners`` a lemma sequence to what
    ``best`` gave. No key holds a threshold: a scorer's never change, so one
    scorer serves every run at its thresholds, as ``pipeline.run`` keeps it.

    The word memos, ``pairable`` and ``overlaps``, depend only on the index
    and the word threshold, so scorers over one index at one word threshold
    may share them: pass the dicts of an earlier such scorer, as
    ``pipeline.run`` does when only the sequence threshold changes. Their
    values are tuples, which no scorer changes; without them it starts empty.
    """

    def __init__(self, index: LabelIndex, word_threshold: float, seq_threshold: float,
                 pairable: dict | None = None, overlaps: dict | None = None):
        self.index = index
        self.word_threshold = word_threshold
        self.seq_threshold = seq_threshold
        self.pairable: dict[str, tuple[int, tuple[tuple[tuple[int, int], ...], ...]]] = \
            {} if pairable is None else pairable
        self.overlaps: dict[int, tuple[tuple[float, int, int], ...]] = \
            {} if overlaps is None else overlaps
        self.walks: dict[int, list[tuple[float, list[tuple[int, int]]]]] = {}
        self.winners: dict[LemmaSequence, tuple[IndexEntry, float] | None] = {}

    def best(self, seq: LemmaSequence) -> tuple[IndexEntry, float] | None:
        """The best entry for ``seq`` and its score, or None below the sequence
        threshold; equal scores fall to the lowest rank (``LabelIndex.order``)."""
        if not self.index.entries:
            return None
        winners = self.winners
        if seq not in winners:
            winners[seq] = _best_entry(self, seq)
        return winners[seq]


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


def _overlaps(size_rows: dict[int, int], n: int,
              word_threshold: float) -> tuple[tuple[float, int, int], ...]:
    """(Jaccard, overlap i, rows of size s) for every (i, s) that pairs.

    Covers every row size s and every count i of characters that a set of
    ``n`` characters can share with a set of s, keeps those whose Jaccard
    clears ``word_threshold``, and lists them by Jaccard, highest first.
    """
    table = [
        # two empty sets count as equal, as in the char_jaccard spec (tests/oracles.py)
        (i / (n + s - i) if n + s else 1.0, i, rows)
        for s, rows in size_rows.items() for i in range(min(n, s) + 1)]
    return tuple(sorted((t for t in table if t[0] >= word_threshold),
                        key=itemgetter(0), reverse=True))


def _pairable(scorer: Scorer,
              lemma: str) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """Entries that ``lemma`` can pair with, grouped by character Jaccard.

    Returns the mask of the entries holding a row lemma whose Jaccard with
    ``lemma`` clears the word threshold, and one group per distinct Jaccard
    value, highest first. A group lists, by ascending position k, the mask
    of the entries holding a row of that Jaccard at k. Equal floats from
    different (overlap, size) pairs, such as 2/4 and 3/6, form one group.
    Both are tuples, so a memo shared between scorers cannot be changed.
    """
    index = scorer.index
    chars = frozenset(lemma)
    table = scorer.overlaps.get(len(chars))
    if table is None:
        table = scorer.overlaps[len(chars)] = _overlaps(
            index.size_rows, len(chars), scorer.word_threshold)
    # characters outside the index alphabet intersect nothing
    planes = _count_bits(index.char_rows[c] for c in chars if c in index.char_rows)
    every = (1 << len(index.rows)) - 1
    at_least: dict[int, int] = {}
    by_jaccard: dict[float, int] = {}
    for jaccard, i, rows in table:
        for count in (i, i + 1):
            if count not in at_least:
                at_least[count] = _at_least(planes, count, every)
        rows &= at_least[i] & ~at_least[i + 1]
        if rows:
            by_jaccard[jaccard] = by_jaccard.get(jaccard, 0) | rows
    union = 0
    groups = []
    for rows in by_jaccard.values():
        at: dict[int, int] = {}
        while rows:
            low = rows & -rows
            rows ^= low
            for k, entries in index.row_positions[low.bit_length() - 1]:
                at[k] = at.get(k, 0) | entries
        groups.append(tuple(sorted(at.items())))
        for entries in at.values():
            union |= entries
    return union, tuple(groups)


def pair_counts(scorer: Scorer, seq: LemmaSequence) -> list[int]:
    """Greedy fuzzy-match counts of one phrase against every index entry.

    Phrase lemmas are taken in order; each pairs with the unused entry lemma
    of maximal character Jaccard among those clearing the word threshold,
    earliest position winning ties. Returns the counts as bit planes: the
    count m of entry ``scorer.index.order[b]`` is the sum over ``i`` of bit
    ``b`` of ``planes[i]`` times ``2 ** i``, and [] when every entry has m = 0.
    """
    free = list(scorer.index.unpaired)
    memo = scorer.pairable
    paired = []
    for lemma in seq:
        pairable = memo.get(lemma)
        if pairable is None:
            pairable = memo[lemma] = _pairable(scorer, lemma)
        union, groups = pairable
        # ``left``: entries this lemma has yet to pair with. A lone phrase
        # lemma pairs once with every entry in ``union``, so it skips the loop
        left = union if len(seq) > 1 else 0
        for group in groups:
            if not left:
                break
            for k, cand in group:
                take = cand & free[k] & left
                if take:
                    free[k] ^= take
                    left ^= take
        paired.append(union ^ left)
    return _count_bits(paired)


def _best_entry(scorer: Scorer, seq: LemmaSequence) -> tuple[IndexEntry, float] | None:
    """The best entry for ``seq`` and its score, or None below threshold."""
    index = scorer.index
    planes = pair_counts(scorer, seq)
    if not planes:
        # every entry scores 0.0; the lowest rank wins if 0.0 clears
        return (index.entries[index.order[0]], 0.0) if scorer.seq_threshold <= 0.0 else None
    walk = scorer.walks.get(len(seq))
    if walk is None:
        walk = scorer.walks[len(seq)] = _walk(index, len(seq))
    paired = 0
    for plane in planes:
        paired |= plane
    for score, counts in walk:
        if score < scorer.seq_threshold:
            break
        # an entry with more than m pairs at its length scores higher, and
        # every higher score was found empty, so "at least m" means "exactly m"
        hit = 0
        for m, lengths in counts:
            hit |= _at_least(planes, m, paired) & lengths
        if hit:
            return index.entries[index.order[(hit & -hit).bit_length() - 1]], score
    return None


def _walk(index: LabelIndex, n: int) -> list[tuple[float, list[tuple[int, int]]]]:
    """Every score m / (n + length - m) with m > 0, highest first.

    Each score lists the (m, mask of the entries of that length) pairs that
    give it. m and the lengths are small integers, so equal fractions (1/2
    and 2/4) give equal floats and different fractions different floats.
    """
    by_score: dict[float, list[tuple[int, int]]] = {}
    for length, entries in index.length_entries.items():
        for m in range(1, min(n, length) + 1):
            by_score.setdefault(m / (n + length - m), []).append((m, entries))
    return sorted(by_score.items(), key=itemgetter(0), reverse=True)
