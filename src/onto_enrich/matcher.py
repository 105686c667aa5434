"""Two-level fuzzy matching of marked phrases to ontology concepts.

Word level: Jaccard overlap of the distinct characters of two lemmas,
deciding whether two words count as the same once it clears a threshold.
Sequence level: phrase lemmas greedily pair with label lemmas, and the pair
count m scores the sequences as m / (|A| + |B| - m). A phrase maps to the
single best-scoring concept label at or above the sequence threshold.
The scoring itself, over the packed label index, is ``_scoring.Scorer``'s,
at the two thresholds a run takes from ``report.RunConfig``; this module
normalizes phrases and turns winners into ``ConceptMatch``es.
"""

from typing import AbstractSet, Mapping, NamedTuple

from ._scoring import Scorer
from .corpus import MarkedPhrase
from .errors import EmptySequenceError
from .textnorm import LemmaSequence, normalize_phrase


class ConceptMatch(NamedTuple):
    """A phrase linked to the concept whose label it matched best."""

    question_id: str
    phrase: MarkedPhrase
    concept_iri: str
    matched_label: str
    score: float


def match_phrase(phrase: MarkedPhrase, seq: LemmaSequence, scorer: Scorer) -> ConceptMatch | None:
    """Best concept for one normalized phrase, or None below threshold.

    ``scorer`` picks the winner with its tie-break and scores each distinct
    ``seq`` once; a repeat only builds its ``ConceptMatch``.
    """
    if not seq:
        raise EmptySequenceError(f"phrase {phrase.raw!r} normalized to nothing")
    best = scorer.best(seq)
    if best is None:
        return None
    entry, score = best
    return ConceptMatch(phrase.question_id, phrase, entry.iri, entry.label, score)


def match_question(
    phrases: list[MarkedPhrase],
    scorer: Scorer,
    lexicon: Mapping[str, str],
    stoplist: AbstractSet[str],
) -> list[ConceptMatch]:
    """Match the phrases of one question, collapsing duplicate concepts.

    Phrases normalizing to an empty sequence are skipped without a match
    attempt. When several phrases hit the same concept only the highest
    score survives (earliest phrase on ties); results are sorted by ordinal.
    """
    by_concept: dict[str, ConceptMatch] = {}
    for phrase in phrases:
        seq = normalize_phrase(phrase.raw, lexicon, stoplist)
        if not seq:
            continue
        match = match_phrase(phrase, seq, scorer)
        if match is None:
            continue
        held = by_concept.get(match.concept_iri)
        if held is None or match.score > held.score:
            by_concept[match.concept_iri] = match
    return sorted(by_concept.values(), key=lambda m: m.phrase.ordinal)
