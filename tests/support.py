"""Helpers that only the tests need.

``serialize_corpus`` writes the canonical XML that ``parse_corpus`` reads
back to equal questions, so round-trip tests can start from values.
``counting_searches`` records the path searches made while it is open.
``run_python`` runs code in a fresh interpreter under a given hash seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager

import pytest

from onto_enrich import pathfinder
from onto_enrich.corpus import PhraseKind, Question, TextSpan


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text: str) -> str:
    return _escape(text).replace('"', "&quot;")


def _write_marked(spans: tuple[TextSpan, ...]) -> str:
    out = []
    for span in spans:
        if span.term is None:
            out.append(_escape(span.text))
        else:
            tag = "TERM1" if span.term is PhraseKind.NP else "TERM2"
            out.append(f"<{tag}>{_escape(span.text)}</{tag}>")
    return "".join(out)


def serialize_corpus(questions: tuple[Question, ...]) -> bytes:
    """Canonical UTF-8 serialization; parse_corpus round-trips it exactly."""
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<corpus>"]
    for q in questions:
        lines.append(f'  <question id="{_escape_attr(q.id)}">')
        lines.append(f"    <text>{_write_marked(q.text)}</text>")
        for a in q.answers:
            lines.append(
                f'    <answer kind="{a.kind.value}">{_write_marked(a.body)}</answer>')
        lines.append("  </question>")
    lines.append("</corpus>")
    return ("\n".join(lines) + "\n").encode("utf-8")


@contextmanager
def counting_searches():
    """A list that gets (src, hierarchical, max_depth) for each search that
    ``compare_from`` makes while the context is open, in any thread."""
    searches = []
    search = pathfinder.paths_from

    def counted(graph, src, targets, hierarchical, max_depth=pathfinder.DEFAULT_MAX_DEPTH):
        searches.append((src, hierarchical, max_depth))
        return search(graph, src, targets, hierarchical, max_depth)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pathfinder, "paths_from", counted)
        yield searches


def run_python(repo_root, hash_seed: str, *args: str) -> subprocess.CompletedProcess:
    """``python *args`` in ``repo_root`` with the package from its ``src/``
    and ``PYTHONHASHSEED`` set, which fixes the order of sets of strings."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=repo_root, env=env,
                          capture_output=True, text=True, timeout=120)
