"""Two-level fuzzy matching of marked phrases to ontology concepts.

Word level: Jaccard overlap of the distinct characters of two lemmas,
deciding whether two words count as the same once it clears a threshold.
Sequence level: phrase lemmas greedily pair with label lemmas, and the pair
count m scores the sequences as m / (|A| + |B| - m). A phrase maps to the
single best-scoring concept label at or above the sequence threshold.
"""

from operator import itemgetter
from typing import AbstractSet, Mapping, NamedTuple

from . import _scoring
from ._scoring import LabelIndex
from .corpus import MarkedPhrase
from .errors import EmptySequenceError
from .textnorm import LemmaSequence, normalize_phrase


class _MatchConfig(NamedTuple):
    word_threshold: float = 0.75
    seq_threshold: float = 0.5


class MatchConfig(_MatchConfig):
    """Similarity thresholds, both in [0, 1].

    word_threshold: minimum character Jaccard for two words to pair up.
    seq_threshold: minimum sequence score for a phrase to match a label.
    Construction, ``_make`` and ``_replace`` raise ValueError outside [0, 1].
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ConceptMatch(NamedTuple):
    """A phrase linked to the concept whose label it matched best."""

    question_id: str
    phrase: MarkedPhrase
    concept_iri: str
    matched_label: str
    score: float


def match_phrase(
    phrase: MarkedPhrase,
    seq: LemmaSequence,
    index: LabelIndex,
    config: MatchConfig,
) -> ConceptMatch | None:
    """Best concept for one normalized phrase, or None below threshold.

    Ties on score fall to the shorter label lemma sequence, then the smaller
    concept IRI, then the smaller original label, so results are stable.
    The winner depends only on (seq, thresholds) and the index, so it is
    scored once per distinct key and kept in ``index.memo``; a repeat only
    builds its ``ConceptMatch``.
    """
    if not seq:
        raise EmptySequenceError(f"phrase {phrase.raw!r} normalized to nothing")
    if not index.entries:
        return None
    key = (seq, config.word_threshold, config.seq_threshold)
    if key in index.memo:
        best = index.memo[key]
    else:
        best = index.memo[key] = _best_entry(index, seq, config)
    if best is None:
        return None
    chosen = index.entries[best[0]]
    return ConceptMatch(phrase.question_id, phrase, chosen.iri, chosen.label, best[1])


def _best_entry(index: LabelIndex, seq: LemmaSequence,
                config: MatchConfig) -> tuple[int, float] | None:
    """Position and score of the best entry for ``seq``, or None below threshold."""
    planes = _scoring.pair_counts(index, seq, config.word_threshold)
    if not planes:
        # every entry scores 0.0; the lowest rank wins if 0.0 clears
        return (index.order[0], 0.0) if config.seq_threshold <= 0.0 else None
    walk = index.walks.get(len(seq))
    if walk is None:
        walk = index.walks[len(seq)] = _walk(index, len(seq))
    paired = 0
    for plane in planes:
        paired |= plane
    for score, counts in walk:
        if score < config.seq_threshold:
            break
        # an entry with more than m pairs at its length scores higher, and
        # every higher score was found empty, so "at least m" means "exactly m"
        hit = 0
        for m, lengths in counts:
            hit |= _scoring._at_least(planes, m, paired) & lengths
        if hit:
            return index.order[(hit & -hit).bit_length() - 1], score
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


def match_question(
    phrases: list[MarkedPhrase],
    index: LabelIndex,
    lexicon: Mapping[str, str],
    stoplist: AbstractSet[str],
    config: MatchConfig,
) -> list[ConceptMatch]:
    """Match the phrases of one question, collapsing duplicate concepts.

    Phrases normalizing to an empty sequence are skipped without a match
    attempt. When several phrases hit the same concept only the highest
    score survives (earliest phrase on ties); results keep phrase order.
    """
    by_concept: dict[str, ConceptMatch] = {}
    for phrase in phrases:
        seq = normalize_phrase(phrase.raw, lexicon, stoplist)
        if not seq:
            continue
        match = match_phrase(phrase, seq, index, config)
        if match is None:
            continue
        held = by_concept.get(match.concept_iri)
        if held is None or match.score > held.score:
            by_concept[match.concept_iri] = match
    return sorted(by_concept.values(), key=lambda m: m.phrase.ordinal)
