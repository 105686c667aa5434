"""The scorer, path search and codec benchmarks still reproduce their
pinned checksums.

``benchmarks/bench_matching.py`` prints a checksum of the matched pair
counts that is fixed by its seed; a change to the scorer that alters any
result changes it, at the default word threshold and at 0, where no label
is pruned. ``benchmarks/bench_paths.py`` prints a sha256 prefix of
every search's paths, so a change to the search that alters any path
changes it. ``benchmarks/bench_io.py`` prints sha256 prefixes of the
parsed triples' repr and of the JSON report bytes, so a change to the
``Literal`` record or to either codec that alters its output changes them.
"""

import os
import subprocess
import sys


def _run_benchmark(repo_root, script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(repo_root / "benchmarks" / script), *args],
        cwd=repo_root, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_bench_matching_checksum(repo_root):
    stdout = _run_benchmark(repo_root, "bench_matching.py")
    assert "(checksum 660150)" in stdout
    assert "1000 index entries (20 distinct lemma rows)" in stdout


def test_bench_matching_worst_case(repo_root):
    # every word pairs with every word, so no label is pruned
    stdout = _run_benchmark(repo_root, "bench_matching.py", "--word-threshold", "0")
    assert "(checksum 3955542)" in stdout


def test_bench_paths_checksum(repo_root):
    stdout = _run_benchmark(repo_root, "bench_paths.py", "--repeat", "1")
    assert "(484 searches, 1050 paths, sha256 a6d9c546702048be)" in stdout
    assert "946 pairs from 242 sources" in stdout
    # the second pass answers every pair from the connection memo
    assert "(946 pairs kept)" in stdout


def test_bench_io_checksums(repo_root):
    stdout = _run_benchmark(repo_root, "bench_io.py", "--repeat", "1")
    assert "(12496 triples, sha256 e24bef0ceecd98d9)" in stdout
    assert "(4117076 bytes, sha256 52e39dff517a2606)" in stdout
