"""The scorer benchmark still reproduces its pinned checksum.

``benchmarks/bench_matching.py`` prints a checksum of the matched pair
counts that is fixed by its seed; a change to the scorer that alters any
result changes it.
"""

import os
import subprocess
import sys


def test_bench_matching_checksum(repo_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo_root / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(repo_root / "benchmarks/bench_matching.py")],
        cwd=repo_root, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "(checksum 660150)" in result.stdout
    assert "1000 index entries (20 distinct lemma rows)" in result.stdout
