"""Command line entry point: ``onto-enrich``.

Writes the report to --out, warnings to stderr, and nothing to stdout.
An --out that cannot be created fails before any input is read; a regular
--out is written to a temporary file beside it that replaces it only once
complete.
Exit codes: 0 success, 1 bad input (unreadable or malformed files, bad
flags, unwritable output), 2 internal invariant violation.
"""

import argparse
import errno
import functools
import os
import stat
import sys
from contextlib import contextmanager

from .errors import InternalInvariantError, OntoEnrichError
from .matcher import MatchConfig
from .pipeline import run
from .report import OUTPUT_FORMATS, RunConfig, serialize_report


class _Parser(argparse.ArgumentParser):
    # usage errors are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _threshold(value: str) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not within [0, 1]")
    return number


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return number


class _Repeatable(argparse.Action):
    # each use adds one value; the first replaces the default
    def __call__(self, parser, namespace, value, option_string=None):
        held = getattr(namespace, self.dest)
        setattr(namespace, self.dest, (() if held is self.default else held) + (value,))


def build_parser() -> argparse.ArgumentParser:
    defaults = {**MatchConfig._field_defaults, **RunConfig._field_defaults}
    parser = _Parser(
        prog="onto-enrich",
        description=(
            "Discover candidate ontology relations by matching marked phrases in a "
            "question corpus to concepts and comparing hierarchical-only against "
            "all-relation shortest paths."
        ),
    )
    parser.add_argument("--ontology", required=True, help="triple file with concepts and relations")
    parser.add_argument("--corpus", required=True, help="XML question corpus with TERM1/TERM2 markup")
    parser.add_argument("--lexicon", help="TSV surface->lemma dictionary (default: identity)")
    parser.add_argument("--stoplist", help="one stop form per line (default: built-in English list)")
    parser.add_argument("--word-threshold", type=_threshold, default=defaults["word_threshold"],
                        help="min char Jaccard for two words to pair (default %(default)s)")
    parser.add_argument("--seq-threshold", type=_threshold, default=defaults["seq_threshold"],
                        help="min sequence score for a phrase to match (default %(default)s)")
    parser.add_argument("--max-depth", type=_positive_int, default=defaults["max_depth"],
                        help="path search depth cap in edges (default %(default)s)")
    parser.add_argument("--label-lang", help="keep only labels with this language tag")
    parser.add_argument("--hierarchical-predicate", dest="hierarchical_predicates",
                        action=_Repeatable, default=defaults["hierarchical_predicates"],
                        metavar="IRI",
                        help="hierarchy predicate; repeatable (default %(default)s)")
    parser.add_argument("--label-predicate", dest="label_predicates",
                        action=_Repeatable, default=defaults["label_predicates"],
                        metavar="IRI",
                        help="label predicate; repeatable (default %(default)s)")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default=defaults["format"])
    parser.add_argument("--optimal-only", action="store_true",
                        help="report only pairs with a strictly shorter full path")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="accepted and ignored; every run is serial")
    parser.add_argument("--out", required=True, help="report output file")
    return parser


# built on the first call and kept: parsing leaves the parser as it was, and
# _Repeatable builds new tuples instead of extending its default
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = RunConfig(
            ontology=args.ontology,
            corpus=args.corpus,
            lexicon=args.lexicon,
            stoplist=args.stoplist,
            match=MatchConfig(args.word_threshold, args.seq_threshold),
            max_depth=args.max_depth,
            label_predicates=args.label_predicates,
            hierarchical_predicates=args.hierarchical_predicates,
            label_lang=args.label_lang,
            format=args.format,
            optimal_only=args.optimal_only,
        )
        with _atomic_output(args.out) as handle:
            report = run(config)
            handle.write(serialize_report(report, config.format))
    except InternalInvariantError as exc:
        print(f"onto-enrich: internal error: {exc}", file=sys.stderr)
        return 2
    except (OntoEnrichError, OSError, ValueError) as exc:
        print(f"onto-enrich: error: {exc}", file=sys.stderr)
        return 1
    for warning in report.warnings:
        print(f"onto-enrich: warning: {warning}", file=sys.stderr)
    return 0


@contextmanager
def _atomic_output(out: str):
    """Open ``out`` for the report now, and yield a handle to write it.

    A regular or missing ``out`` gets a temporary file beside the file it
    names (through any symlink). On a clean exit the temporary file replaces
    it; on any failure it is removed, so ``out`` is never left truncated. The
    temporary file takes the mode of the report it replaces, or 0666 less the
    umask for a new one, as ``open(out, "wb")`` would. Any other ``out``, such
    as ``/dev/null`` or a pipe, is opened and written directly.
    """
    try:
        mode = os.stat(out).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "wb") as handle:
            yield handle
        return
    target = os.path.realpath(out)
    directory, name = os.path.split(target)
    while True:
        tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename = out  # name the report, not the temporary file
            raise
    try:
        with os.fdopen(fd, "wb") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield handle
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


if __name__ == "__main__":
    sys.exit(main())
