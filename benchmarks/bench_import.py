#!/usr/bin/env python3
"""Cold import time of the package, each sample in a fresh interpreter.

For ``onto_enrich`` and ``onto_enrich.cli``, starts ``--runs`` fresh
interpreters that each time their own import with ``time.perf_counter``,
and prints the median milliseconds and the number of modules the import
loaded. Two bytecode states are timed on a temporary copy of the package:
"source", where every module of the package compiles from source on import,
as in a fresh checkout under PYTHONDONTWRITEBYTECODE=1, and "cached", where
the package's compiled bytecode is already on disk. The standard library
loads as the interpreter's installation has it in both. The two modules and
two states alternate within each round, so that load on the machine falls
on all four alike.

Usage: python benchmarks/bench_import.py [--runs N]
"""

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "onto_enrich"
MODULES = ("onto_enrich", "onto_enrich.cli")

PROBE = """
import sys, time
before = len(sys.modules)
started = time.perf_counter()
import {module}
print(time.perf_counter() - started, len(sys.modules) - before)
"""


def sample(path: Path, module: str) -> tuple[float, int]:
    """Seconds and module count of one import of ``module`` from ``path``."""
    env = dict(os.environ, PYTHONPATH=str(path))
    result = subprocess.run([sys.executable, "-B", "-c", PROBE.format(module=module)],
                            env=env, capture_output=True, text=True, check=True)
    seconds, modules = result.stdout.split()
    return float(seconds), int(modules)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20, help="interpreters per module and state")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        roots = {"source": Path(tmp, "source"), "cached": Path(tmp, "cached")}
        for root in roots.values():
            shutil.copytree(PACKAGE, root / "onto_enrich",
                            ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(roots["cached"], quiet=1)
        times = {(m, s): [] for m in MODULES for s in roots}
        counts = {}
        for _ in range(args.runs):
            for module in MODULES:
                for state, root in roots.items():
                    seconds, counts[module] = sample(root, module)
                    times[module, state].append(seconds)

    print(f"cold import, median of {args.runs} fresh interpreters "
          f"(Python {sys.version.split()[0]})")
    for module in MODULES:
        source, cached = (statistics.median(times[module, s]) for s in roots)
        print(f"{module:<16} source {source * 1e3:6.1f} ms   cached {cached * 1e3:6.1f} ms"
              f"   {counts[module]} modules loaded")


if __name__ == "__main__":
    main()
