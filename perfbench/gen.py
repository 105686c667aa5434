"""Seeded generator of the benchmark's input files.

Every workload is a function of its name and an integer seed: the same pair
always gives the same ontology triples, corpus XML, lexicon TSV and stoplist,
byte for byte. Besides the files, a ``Workload`` keeps what went into them
(labels, edges, lexicon, every extracted phrase and whether it was copied
from a label), so that the checker in ``verify.py`` can recompute the report
without using the program's own parsers.

A workload's question bank is split into ``Shape.batches`` batches of
consecutive questions; ``Workload.batches()`` gives each batch as a workload
of its own over the same ontology, lexicon and stoplist.

Run as a script to write one workload's files (the whole bank in one
corpus) to a directory:

    python3 perfbench/gen.py --workload label-match --seed 1 --out perfbench/work/lm1
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, replace
from pathlib import Path

HIER_PREDICATES = ("ome:hasChild", "rdfs:subClassOf")
CROSS_PREDICATES = ("ome:describes", "ome:partOf", "ome:relatedTo")
STOPWORDS = ("a", "an", "the", "of", "to", "in", "on", "with", "for", "and", "is")
DEFAULT_MAX_DEPTH = 6
_SYLLABLES = tuple(c + v for c in "bdfgklmnprstvz" for v in "aeiou")


@dataclass(frozen=True)
class Shape:
    """Size and make-up of one workload."""

    concepts: int
    branching: int | None       # children per node; None: random recursive tree
    cross: int                  # cross relations drawn per concept
    questions: int
    phrases: tuple[int, int]    # extracted phrases per question, inclusive range
    text_answers: tuple[int, int]
    copy_share: float           # share of phrases copied from a concept label
    popular: int                # concepts whose labels are copied most often
    popular_share: float        # share of copies drawn from the popular ones
    pool: int | None            # distinct phrase bases; None: every phrase fresh
    label_words: tuple[int, ...] = (1, 2, 2, 3)   # word counts labels draw from
    word_threshold: float | None = None   # None: the CLI default
    seq_threshold: float | None = None
    batches: int = 1            # CLI calls the question bank is split into


WORKLOADS: dict[str, Shape] = {
    # Phrase scoring dominates: many short questions, mostly distinct phrases.
    "label-match": Shape(
        concepts=600, branching=None, cross=2, questions=96, phrases=(2, 5),
        text_answers=(0, 0), copy_share=0.7, popular=40, popular_share=0.6, pool=None,
        batches=8),
    # Path search dominates: few questions with 30-36 phrases each, so
    # hundreds of co-occurring pairs per question over a wide, shallow tree
    # deep enough (4-ary, 5 levels) that half of the hierarchy-only
    # searches exhaust the depth cap.
    "dense-paths": Shape(
        concepts=300, branching=4, cross=3, questions=7, phrases=(30, 36),
        text_answers=(1, 3), copy_share=0.95, popular=0, popular_share=0.0, pool=None,
        label_words=(1, 1, 2), batches=7),
    # Real question banks repeat terms: phrases come from a small pool, and
    # low thresholds let many label lemmas through any Jaccard bound.
    "repeated-terms": Shape(
        concepts=600, branching=None, cross=2, questions=96, phrases=(2, 5),
        text_answers=(1, 1), copy_share=0.7, popular=0, popular_share=0.0, pool=16,
        word_threshold=0.5, seq_threshold=0.3, batches=8),
}


@dataclass(frozen=True)
class Phrase:
    """One phrase the program extracts, in extraction order."""

    raw: str
    kind: str        # "NP" (TERM1) or "PP" (TERM2)
    source: str      # "question_text" or "answer_text"
    copied: bool     # lemma-identical copy of some concept label


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    shape: Shape
    labels: dict[str, tuple[str, ...]]       # concept iri -> label texts
    edges: frozenset[tuple[str, str, str]]   # (subject, predicate, object)
    lexicon: dict[str, str]                  # surface -> lemma
    stoplist: frozenset[str]
    questions: tuple[tuple[str, tuple[Phrase, ...]], ...]
    question_xml: tuple[str, ...]            # each question's corpus XML
    files: dict[str, bytes]                  # file name -> contents

    @property
    def word_threshold(self) -> float:
        return 0.75 if self.shape.word_threshold is None else self.shape.word_threshold

    @property
    def seq_threshold(self) -> float:
        return 0.5 if self.shape.seq_threshold is None else self.shape.seq_threshold

    @property
    def phrase_count(self) -> int:
        return sum(len(phrases) for _, phrases in self.questions)

    def batches(self) -> list[Workload]:
        """The bank as ``shape.batches`` workloads of consecutive questions,
        each with its own corpus and the bank's other files."""
        n, q = self.shape.batches, len(self.questions)
        parts = []
        for b in range(n):
            lo, hi = b * q // n, (b + 1) * q // n
            xml = self.question_xml[lo:hi]
            parts.append(replace(self, questions=self.questions[lo:hi], question_xml=xml,
                                 files={**self.files, "corpus.xml": _corpus(xml)}))
        return parts

    def write(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, data in self.files.items():
            paths[name] = directory / name
            paths[name].write_bytes(data)
        return paths

    def argv(self, paths: dict[str, Path], out: Path) -> list[str]:
        """CLI arguments of one report-producing call, serial, default depth."""
        args = [
            "--ontology", str(paths["ontology.nt"]),
            "--corpus", str(paths["corpus.xml"]),
            "--lexicon", str(paths["lexicon.tsv"]),
            "--stoplist", str(paths["stoplist.txt"]),
            "--jobs", "1",
        ]
        if self.shape.word_threshold is not None:
            args += ["--word-threshold", repr(self.shape.word_threshold)]
        if self.shape.seq_threshold is not None:
            args += ["--seq-threshold", repr(self.shape.seq_threshold)]
        return args + ["--out", str(out)]


def _word(rng: random.Random, syllables: tuple[int, int] = (2, 3)) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(*syllables)))


def _perturb(rng: random.Random, word: str) -> str:
    """Swap one syllable: a near miss whose char Jaccard is often >= 0.5."""
    cut = 2 * rng.randrange(len(word) // 2)
    return word[:cut] + rng.choice(_SYLLABLES) + word[cut + 2:]


def make(name: str, seed: int, shape: Shape | None = None) -> Workload:
    """The workload ``name`` for ``seed``; ``shape`` overrides its size."""
    shape = shape or WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")

    vocabulary: list[str] = []
    seen: set[str] = set()
    while len(vocabulary) < shape.concepts * 3 // 2:
        word = _word(rng)
        if word not in seen:
            seen.add(word)
            vocabulary.append(word)
    # plural surfaces for two fifths of the words; the lexicon maps them back
    surfaces: dict[str, str] = {}
    for word in vocabulary:
        if rng.random() < 0.4 and word + "s" not in seen:
            surfaces[word] = word + "s"
    lexicon = {surface: word for word, surface in surfaces.items()}

    iris = [f"c:K{i:05d}" for i in range(shape.concepts)]
    rng.shuffle(iris)

    def label_text() -> str:
        words = [rng.choice(vocabulary) for _ in range(rng.choice(shape.label_words))]
        if len(words) == 2 and rng.random() < 0.15:
            words.insert(1, "of")
        if rng.random() < 0.2:
            words[-1] = surfaces.get(words[-1], words[-1])
        return " ".join(words).capitalize()

    labels: dict[str, tuple[str, ...]] = {}
    for iri in iris:
        texts = [label_text()]
        if rng.random() < 0.12:
            texts.append(label_text())
        labels[iri] = tuple(dict.fromkeys(texts))

    edges: set[tuple[str, str, str]] = set()
    for i in range(1, shape.concepts):
        if shape.branching is None:
            parent = iris[rng.randrange(i)]
        else:
            parent = iris[(i - 1) // shape.branching]
        child = iris[i]
        if rng.random() < 0.8:
            edges.add((child, "rdfs:subClassOf", parent))
        else:
            edges.add((parent, "ome:hasChild", child))
    for iri in iris:
        for _ in range(shape.cross):
            other = rng.choice(iris)
            if other != iri:
                edges.add((iri, rng.choice(CROSS_PREDICATES), other))

    # label texts by lemma count; phrases take the label word counts in turn,
    # so the matching work hardly depends on the seed
    by_length: dict[int, list[str]] = {}
    popular_by_length: dict[int, list[str]] = {}
    for rank, iri in enumerate(iris):
        for text in labels[iri]:
            n = sum(w.lower() not in STOPWORDS for w in text.split())
            by_length.setdefault(n, []).append(text)
            if rank < shape.popular:
                popular_by_length.setdefault(n, []).append(text)
    lo, hi = shape.phrases
    counts = [lo + q % (hi - lo + 1) for q in range(shape.questions)]
    rng.shuffle(counts)
    cycle = shape.label_words
    lengths = [cycle[i % len(cycle)] for i in range(sum(counts))]
    rng.shuffle(lengths)

    def copy_phrase(text: str) -> tuple[str, str]:
        style = rng.random()
        if style < 0.2:
            text = text.lower()
        elif style < 0.45:
            text = " ".join(
                surfaces.get(lexicon.get(w.lower(), w.lower()), w) for w in text.split())
        if rng.random() < 0.1:
            return "PP", f"of the {text}"
        return "NP", text

    def perturbed(text: str) -> str:
        words = text.lower().split()
        k = rng.randrange(len(words))
        if words[k] != "of":
            words[k] = _perturb(rng, words[k])
        return " ".join(words)

    def fresh_phrase() -> tuple[str, str, bool]:
        n = lengths.pop()
        roll = rng.random()
        if roll < 0.01:
            return "PP", rng.choice(("of the", "with a", "in the")), False
        if roll < shape.copy_share:
            popular = popular_by_length.get(n) and rng.random() < shape.popular_share
            return (*copy_phrase(rng.choice((popular_by_length if popular else by_length)[n])),
                    True)
        if rng.random() < 0.5:
            return "NP", perturbed(rng.choice(by_length[n])), False
        return "NP", " ".join(rng.choice(vocabulary) if rng.random() < 0.5 else _word(rng)
                              for _ in range(n)), False

    if shape.pool is None:
        draw = fresh_phrase
    else:
        # a few bases, each drawn equally often
        copies = round(shape.pool * shape.copy_share)
        bases = []
        for i in range(shape.pool):
            text = rng.choice(by_length[cycle[i % len(cycle)]])
            bases.append((text, True) if i < copies else (perturbed(text), False))
        schedule = [bases[i % len(bases)] for i in range(sum(counts))]
        rng.shuffle(schedule)

        def draw() -> tuple[str, str, bool]:
            text, copied = schedule.pop()
            if copied:
                return (*copy_phrase(text), True)
            return "NP", text, False

    questions = []
    question_xml = []
    for q, n_phrases in enumerate(counts):
        qid = f"q{q:05d}"
        n_answers = min(rng.randint(*shape.text_answers), n_phrases // 2)
        # question text keeps at least half of the phrases
        n_text = n_phrases if n_answers == 0 else rng.randint(
            (n_phrases + 1) // 2, n_phrases - n_answers)
        cuts = sorted(rng.sample(range(1, n_phrases - n_text), n_answers - 1)) \
            if n_answers > 1 else []
        bounds = [n_text, *(n_text + c for c in cuts), n_phrases] if n_answers else []
        drawn = [draw() for _ in range(n_phrases)]
        phrases = tuple(
            Phrase(raw, kind, "question_text" if i < n_text else "answer_text", copied)
            for i, (kind, raw, copied) in enumerate(drawn))
        questions.append((qid, phrases))

        xml = [f'  <question id="{qid}">']
        xml.append(f"    <text>{_marked(rng, drawn[:n_text], 'Is')}?</text>")
        for lo, hi in zip(bounds, bounds[1:]):
            xml.append(f'    <answer kind="text">{_marked(rng, drawn[lo:hi], "Yes,")}.</answer>')
        if rng.random() < 0.1:
            # marked phrases outside text answers are never extracted
            xml.append('    <answer kind="numeric"><TERM1>twelve points</TERM1></answer>')
        if rng.random() < 0.1:
            xml.append('    <answer kind="symbolic">a + b &lt; c</answer>')
        xml.append("  </question>")
        question_xml.append("\n".join(xml))

    triples = ["# generated ontology"]
    for iri in iris:
        triples += [f'<{iri}> <rdfs:label> "{text}"@en .' for text in labels[iri]]
    triples += [f"<{s}> <{p}> <{o}> ." for s, p, o in sorted(edges)]
    body = triples[1:]
    rng.shuffle(body)
    files = {
        "ontology.nt": "\n".join(triples[:1] + body + [""]).encode(),
        "corpus.xml": _corpus(question_xml),
        "lexicon.tsv": "".join(f"{s}\t{l}\n" for s, l in sorted(lexicon.items())).encode(),
        "stoplist.txt": "".join(f"{w}\n" for w in STOPWORDS).encode(),
    }
    return Workload(
        name, seed, shape, labels, frozenset(edges), lexicon, frozenset(STOPWORDS),
        tuple(questions), tuple(question_xml), files)


def _corpus(question_xml) -> bytes:
    return "\n".join(['<?xml version="1.0" encoding="utf-8"?>', "<corpus>",
                      *question_xml, "</corpus>", ""]).encode()


def _marked(rng: random.Random, drawn: list[tuple[str, str, bool]], lead: str) -> str:
    parts = [lead]
    for kind, raw, _ in drawn:
        tag = "TERM1" if kind == "NP" else "TERM2"
        parts.append(rng.choice(("and", "with", "or", "versus")))
        parts.append(f"<{tag}>{raw}</{tag}>")
    return " ".join(parts)


def main() -> None:
    parser = argparse.ArgumentParser(description="Write one workload's input files.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory to write")
    args = parser.parse_args()
    workload = make(args.workload, args.seed)
    paths = workload.write(args.out)
    print(" ".join(["onto-enrich", *workload.argv(paths, args.out / "report.json")]))


if __name__ == "__main__":
    main()
