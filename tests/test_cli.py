import json
import os
import shutil
import stat
import subprocess
import sys

import pytest

from onto_enrich import cli
from onto_enrich.cli import build_parser, main
from onto_enrich.matcher import MatchConfig
from onto_enrich.report import RunConfig

FIXTURE_ARGS = [
    "--ontology", "fixtures/ontology.nt",
    "--corpus", "fixtures/corpus.xml",
    "--lexicon", "fixtures/lexicon.tsv",
]

REQUIRED_ARGS = ["--ontology", "o.nt", "--corpus", "c.xml", "--out", "r.json"]


@pytest.fixture()
def in_repo_root(repo_root, monkeypatch):
    monkeypatch.chdir(repo_root)


class TestMain:
    def test_golden_output(self, in_repo_root, repo_root, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(FIXTURE_ARGS + ["--out", str(out)]) == 0
        golden = (repo_root / "tests/golden/fixture_report.json").read_bytes()
        assert out.read_bytes() == golden
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_csv_format(self, in_repo_root, repo_root, tmp_path):
        out = tmp_path / "report.csv"
        assert main(FIXTURE_ARGS + ["--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("concept_a,concept_b,hier_len")
        assert len(lines) == 5
        assert out.read_bytes() == (repo_root / "tests/golden/fixture_report.csv").read_bytes()

    def test_optimal_only(self, in_repo_root, tmp_path):
        out = tmp_path / "report.json"
        assert main(FIXTURE_ARGS + ["--optimal-only", "--out", str(out)]) == 0
        payload = json.loads(out.read_bytes())
        assert len(payload["records"]) == 2
        assert all(r["optimal"] for r in payload["records"])

    def test_threshold_flags(self, in_repo_root, tmp_path):
        out = tmp_path / "report.json"
        assert main(FIXTURE_ARGS + [
            "--word-threshold", "0.9", "--seq-threshold", "0.9", "--out", str(out)]) == 0
        payload = json.loads(out.read_bytes())
        assert payload["config"]["word_threshold"] == 0.9
        # at 0.9 the fuzzy 2/3 matches disappear; only exact ones remain
        assert all(m["score"] >= 0.9 for m in payload["matches"])

    def test_jobs_flag_identical_output(self, in_repo_root, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(FIXTURE_ARGS + ["--out", str(serial)]) == 0
        assert main(FIXTURE_ARGS + ["--jobs", "4", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_defaults_are_the_records_defaults(self):
        args = build_parser().parse_args(REQUIRED_ARGS)
        match = MatchConfig(args.word_threshold, args.seq_threshold)
        assert match == MatchConfig()
        fields = {name: getattr(args, name) for name in RunConfig._fields if name != "match"}
        assert RunConfig(match=match, **fields) == RunConfig("o.nt", "c.xml")

    def test_repeated_predicate_flag_replaces_its_default(self):
        args = build_parser().parse_args(
            REQUIRED_ARGS + ["--label-predicate", "p:b", "--label-predicate", "p:a"])
        assert args.label_predicates == ("p:b", "p:a")
        assert args.hierarchical_predicates == RunConfig._field_defaults["hierarchical_predicates"]

    def test_kept_parser_gives_a_fresh_parsers_reports(self, in_repo_root, tmp_path,
                                                        monkeypatch):
        # the parser is built once per process; a repeatable flag in one call
        # must not leak into the next, in either order
        argvs = [FIXTURE_ARGS + ["--hierarchical-predicate", "ome:partOf"], FIXTURE_ARGS]
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_parser", build_parser)
            expected = []
            for k, argv in enumerate(argvs):
                assert main(argv + ["--out", str(tmp_path / f"fresh{k}.json")]) == 0
                expected.append((tmp_path / f"fresh{k}.json").read_bytes())
        assert expected[0] != expected[1]
        for k in (0, 1, 1, 0):
            out = tmp_path / "kept.json"
            assert main(argvs[k] + ["--out", str(out)]) == 0
            assert out.read_bytes() == expected[k]
        assert cli._parser() is cli._parser()

    def test_warning_goes_to_stderr(self, in_repo_root, tmp_path, capsys):
        ontology = tmp_path / "onto.nt"
        ontology.write_bytes(
            b'<c:X> <rdfs:label> "of the"@en .\n'
            b"<c:X> <rdfs:subClassOf> <c:Y> .\n")
        out = tmp_path / "report.json"
        code = main([
            "--ontology", str(ontology),
            "--corpus", "fixtures/corpus.xml",
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "warning" in captured.err and "of the" in captured.err
        payload = json.loads(out.read_bytes())
        assert len(payload["warnings"]) == 1


class TestExitCodes:
    def test_missing_input_file(self, in_repo_root, tmp_path, capsys):
        code = main([
            "--ontology", "fixtures/nope.nt",
            "--corpus", "fixtures/corpus.xml",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_corpus(self, in_repo_root, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<corpus><question id='q'><text>a <TERM1>b "
                        b"<TERM2>c</TERM2></TERM1></text></question></corpus>")
        code = main([
            "--ontology", "fixtures/ontology.nt",
            "--corpus", str(bad),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "nested" in capsys.readouterr().err

    def test_malformed_ontology_reports_file_and_line(self, in_repo_root, tmp_path, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_bytes(b"<a:S> <a:p> <a:O>\n")
        code = main([
            "--ontology", str(bad),
            "--corpus", "fixtures/corpus.xml",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "bad.nt" in err

    @pytest.mark.parametrize("flag", [
        "--ontology", "--corpus", "--lexicon", "--stoplist", "--label-lang"])
    def test_empty_value_exits_one_before_output(self, in_repo_root, tmp_path, capsys, flag):
        # an empty path or tag is refused, not read as "absent" or as "."
        out = tmp_path / "r.json"
        assert main(FIXTURE_ARGS + [flag, "", "--out", str(out)]) == 1
        field = flag[2:].replace("-", "_")
        assert f"error: {field} must not be empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["--corpus", "only.xml"])
        assert exc.value.code == 1

    def test_out_of_range_threshold_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(FIXTURE_ARGS + ["--word-threshold", "1.5", "--out", "r.json"])
        assert exc.value.code == 1

    def test_internal_invariant_violation_exits_two(self, in_repo_root, tmp_path,
                                                    capsys, monkeypatch):
        from onto_enrich import cli
        from onto_enrich.errors import InternalInvariantError

        def broken_run(config):
            raise InternalInvariantError("induced for the exit-code contract")

        monkeypatch.setattr(cli, "run", broken_run)
        code = main(FIXTURE_ARGS + ["--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "internal error" in capsys.readouterr().err


class TestOutput:
    def test_unwritable_out_fails_before_run(self, in_repo_root, tmp_path, capsys,
                                             monkeypatch):
        from onto_enrich import cli

        def must_not_run(config):
            raise AssertionError("pipeline ran before --out was checked")

        monkeypatch.setattr(cli, "run", must_not_run)
        out = tmp_path / "missing" / "r.json"
        assert main(FIXTURE_ARGS + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "No such file or directory" in err and str(out) in err
        assert main(FIXTURE_ARGS + ["--out", str(tmp_path)]) == 1
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["input", "write"])
    def test_failure_leaves_no_file(self, in_repo_root, tmp_path, monkeypatch, stage):
        from onto_enrich import cli

        args = list(FIXTURE_ARGS)
        if stage == "input":
            bad = tmp_path / "bad.xml"
            bad.write_bytes(b"<corpus><question>")
            args[3] = str(bad)
        else:
            def broken(report, format):
                raise OSError("disk full")
            monkeypatch.setattr(cli, "serialize_report", broken)
        out = tmp_path / "out" / "r.json"
        out.parent.mkdir()
        assert main(args + ["--out", str(out)]) == 1
        assert list(out.parent.iterdir()) == []

    def test_failure_keeps_previous_report(self, in_repo_root, tmp_path):
        out = tmp_path / "r.json"
        out.write_bytes(b"previous")
        assert main(["--ontology", "fixtures/nope.nt", "--corpus", "fixtures/corpus.xml",
                     "--out", str(out)]) == 1
        assert out.read_bytes() == b"previous"
        assert list(tmp_path.iterdir()) == [out]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_report_mode_follows_umask(self, in_repo_root, tmp_path, umask):
        out = tmp_path / "r.json"
        previous = os.umask(umask)
        try:
            assert main(FIXTURE_ARGS + ["--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert list(tmp_path.iterdir()) == [out]

    def test_existing_report_keeps_its_mode(self, in_repo_root, tmp_path):
        out = tmp_path / "r.json"
        out.write_bytes(b"previous")
        out.chmod(0o640)
        assert main(FIXTURE_ARGS + ["--out", str(out)]) == 0
        assert out.read_bytes() != b"previous"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_symlinked_out_is_written_through(self, in_repo_root, repo_root, tmp_path):
        golden = (repo_root / "tests/golden/fixture_report.json").read_bytes()
        report = tmp_path / "reports" / "r.json"
        report.parent.mkdir()
        link = tmp_path / "link.json"
        link.symlink_to(report)
        for _ in range(2):  # dangling at first, then naming the report
            assert main(FIXTURE_ARGS + ["--out", str(link)]) == 0
            assert link.is_symlink() and report.read_bytes() == golden
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "reports"]
        assert list(report.parent.iterdir()) == [report]

    def test_non_regular_out_is_written_directly(self, in_repo_root, repo_root, tmp_path):
        golden = (repo_root / "tests/golden/fixture_report.json").read_bytes()
        out = tmp_path / "pipe"
        os.mkfifo(out)
        # with a reader already open the writer does not block on open, and
        # the report fits in the pipe buffer
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(FIXTURE_ARGS + ["--out", str(out)]) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert data == golden
        assert stat.S_ISFIFO(out.stat().st_mode)
        assert list(tmp_path.iterdir()) == [out]


class TestConsoleScript:
    def test_declared_entry_point(self, repo_root):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((repo_root / "pyproject.toml").read_text())
        target = pyproject["project"]["scripts"]["onto-enrich"]
        # the function TestMain checks against the golden report
        assert target == "onto_enrich.cli:main"

    @pytest.mark.skipif(shutil.which("onto-enrich") is None,
                        reason="onto-enrich console script not on PATH; "
                               "install with: pip install -e . --no-build-isolation")
    def test_installed_entry_point(self, repo_root, tmp_path):
        out = tmp_path / "report.json"
        result = subprocess.run(
            ["onto-enrich", *FIXTURE_ARGS, "--out", str(out)],
            cwd=repo_root, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
        golden = (repo_root / "tests/golden/fixture_report.json").read_bytes()
        assert out.read_bytes() == golden

    def test_module_invocation_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "onto_enrich.cli", "--help"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "--ontology" in result.stdout
