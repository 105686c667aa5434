from __future__ import annotations

from pathlib import Path

import pytest

from onto_enrich import (
    RunConfig,
    build_graph,
    build_label_index,
    load_lexicon,
    parse_corpus,
    parse_triples,
    run,
)
from onto_enrich.textnorm import DEFAULT_STOPLIST

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture(scope="session")
def fixture_graph():
    return build_graph(parse_triples((FIXTURES / "ontology.nt").read_bytes()))


@pytest.fixture(scope="session")
def fixture_lexicon():
    return load_lexicon((FIXTURES / "lexicon.tsv").read_bytes())


@pytest.fixture(scope="session")
def fixture_stoplist():
    return DEFAULT_STOPLIST


@pytest.fixture(scope="session")
def fixture_index(fixture_graph, fixture_lexicon):
    return build_label_index(fixture_graph, fixture_lexicon, DEFAULT_STOPLIST)


@pytest.fixture(scope="session")
def fixture_corpus():
    return parse_corpus((FIXTURES / "corpus.xml").read_bytes())


@pytest.fixture(scope="session")
def fixture_report():
    return run(RunConfig(
        ontology=str(FIXTURES / "ontology.nt"),
        corpus=str(FIXTURES / "corpus.xml"),
        lexicon=str(FIXTURES / "lexicon.tsv"),
    ))
