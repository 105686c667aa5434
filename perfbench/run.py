#!/usr/bin/env python3
"""Benchmark of the onto-enrich pipeline on seeded, generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload label-match --seed 1 --seconds 40 --trace 0

The run generates the workload's input files from ``--seed``: one ontology
and a question bank split into batches. It then makes rounds for about
``--seconds`` seconds; a round calls the CLI entry point
``onto_enrich.cli.main`` in this process once per batch, each call writing a
full report. Afterwards, outside the timed region, each batch's first report
is checked against computations made apart from the program (``verify.py``)
and every other report of the batch must be byte-identical to it. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (setup_s, report_s,
phrases_per_s, peak_rss_mb). ``report_s`` is the time to report the whole
bank: the sum over batches of each batch's median call. ``--trace 1`` alternates
untraced calls with calls traced at every layer boundary (``tracer.py``),
reports the per-layer metrics, and writes the spans of the last traced round
to ``perfbench/work/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3      # rounds per run, at least; more while --seconds lasts
SAMPLE_PER_BATCH = 10   # phrases per batch whose best label is recomputed
PROBE_TIMEOUT_S = 120


class Calls:
    """Report-producing CLI calls on one workload's files."""

    def __init__(self, workload: gen.Workload, paths: dict[str, Path], out: Path):
        from onto_enrich import cli

        self.cli = cli
        self.workload = workload
        self.paths = paths
        self.argv = workload.argv(paths, out)
        self.out = out
        self.first: bytes | None = None
        self.outcomes: list[tuple[int, bytes]] = []   # (exit code, report digest)

    def call(self, main=None) -> float:
        """Wall time of one call, from input files to a written report."""
        main = main or self.cli.main
        gc.collect()
        started = perf_counter()
        code = main(self.argv)
        elapsed = perf_counter() - started
        data = self.out.read_bytes() if code == 0 else b""
        self.out.unlink(missing_ok=True)
        if code == 0 and self.first is None:
            self.first = data
        self.outcomes.append((code, hashlib.sha256(data).digest()))
        return elapsed

    def failed(self, sample_seed: int, sample: int) -> int:
        """Calls whose report is wrong, missing or not byte-identical to the first."""
        if self.first is None:
            problems = ["no call wrote a report"]
        else:
            import verify  # after the timed calls: it loads scipy

            problems = verify.check(self.workload, json.loads(self.first),
                                    sample=sample, sample_seed=sample_seed)
        good = hashlib.sha256(self.first or b"").digest() if not problems else None
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        bad = sum(code != 0 or digest != good for code, digest in self.outcomes)
        if bad and not problems:
            print(f"check failed: {bad} calls gave other bytes than the first",
                  file=sys.stderr)
        return bad


class Bank:
    """One ``Calls`` per batch of the workload's question bank."""

    def __init__(self, workload: gen.Workload, work: Path):
        self.batches = []
        for b, batch in enumerate(workload.batches()):
            directory = work / f"batch-{b}"
            self.batches.append(Calls(batch, batch.write(directory), directory / "report.json"))

    def attempted(self) -> int:
        return sum(len(calls.outcomes) for calls in self.batches)

    def failed(self, seed: int) -> int:
        return sum(calls.failed(seed * 1000 + b, SAMPLE_PER_BATCH)
                   for b, calls in enumerate(self.batches))


def _loop(seconds: float, step) -> None:
    """Run ``step`` (one round; returns its duration) MIN_ROUNDS times, then
    while the next one is expected to end within ``seconds`` of the start."""
    began = perf_counter()
    durations = []
    while (len(durations) < MIN_ROUNDS
           or perf_counter() - began + statistics.median(durations) <= seconds):
        durations.append(step())


def _median_sum(times: list[list[float]]) -> float:
    """Sum over batches of each batch's median call."""
    return sum(statistics.median(batch) for batch in times)


def _setup_sample(src: Path, paths: dict[str, Path]) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(src), str(paths["ontology.nt"]),
         str(paths["lexicon.tsv"]), str(paths["stoplist.txt"])],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def end_to_end(workload, src, bank: Bank, seconds, seed) -> dict:
    times: list[list[float]] = [[] for _ in bank.batches]
    setup: list[float] = []
    paths = bank.batches[0].paths

    def step():
        # one set-up sample per round, so both spread over the whole run
        started = perf_counter()
        for calls, batch_times in zip(bank.batches, times):
            batch_times.append(calls.call())
        setup.append(_setup_sample(src, paths))
        return perf_counter() - started

    _loop(seconds, step)
    # peak memory of the program's calls, read before the checker runs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = bank.failed(seed)
    report_s = _median_sum(times)
    rounds = [sum(round_) for round_ in zip(*times)]
    print(f"{workload.name} seed {seed}: {len(rounds)} rounds of {len(times)} calls; "
          f"round s {' '.join(f'{t:.3f}' for t in rounds)}; median per batch "
          f"{' '.join(f'{statistics.median(t):.4f}' for t in times)}; setup_s "
          f"{' '.join(f'{t:.3f}' for t in setup)}", file=sys.stderr)
    return _result(bank.attempted(), failed, {
        "setup_s": (statistics.median(setup), "s"),
        "report_s": (report_s, "s"),
        "phrases_per_s": (workload.phrase_count / report_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })


def per_layer(workload, bank: Bank, seconds, seed, trace_file: Path) -> dict:
    from tracer import Tracer, layer_metrics

    plain: list[list[float]] = [[] for _ in bank.batches]
    traced: list[list[float]] = [[] for _ in bank.batches]
    layers: list[dict[str, float]] = []
    last: list[Tracer] = []

    def step():
        # one tracer per round: its metrics cover the whole bank
        started = perf_counter()
        tracer = Tracer()
        for calls, p, t in zip(bank.batches, plain, traced):
            p.append(calls.call())
            with tracer.installed():
                t.append(calls.call(tracer.wrap("cli.main", calls.cli.main)))
        layers.append(layer_metrics(tracer))
        last[:] = [tracer]
        return perf_counter() - started

    _loop(seconds, step)
    failed = bank.failed(seed)
    metrics = {name: (statistics.median(m[name] for m in layers), _unit(name))
               for name in layers[0]}
    metrics["trace.report_s"] = (_median_sum(traced), "s")
    metrics["trace.overhead_s"] = (_median_sum(traced) - _median_sum(plain), "s")
    metrics["trace.spans"] = (len(last[0].spans), "count")
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": last[0].spans,
    }))
    return _result(bank.attempted(), failed, metrics)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _result(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="onto-enrich pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "onto_enrich" / "__init__.py").is_file():
        print("run.py: src/onto_enrich not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = gen.make(args.workload, args.seed)
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bank = Bank(workload, work)
        if args.trace:
            trace_file = HERE / "work" / f"trace-{args.workload}-{args.seed}.json"
            result = per_layer(workload, bank, args.seconds, args.seed, trace_file)
        else:
            result = end_to_end(workload, src, bank, args.seconds, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
