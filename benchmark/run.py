#!/usr/bin/env python3
"""End-to-end benchmark of the tcfree command line, run in-process.

    python3 benchmark/run.py --workload decompose|solve|recognize \
        --seed N --seconds S --trace 0|1

One client sends `tcfree.cli.main([...])` requests in a closed loop, each
on a graph file written during set-up. A run serves whole rounds of the
workload's fixed request list until the serving time is nearest to S
seconds, at least MIN_ROUNDS rounds. Every answer is checked
against the reference code in this directory right after its request, and
the checks are left out of the timing (see README.md).

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics. With --trace 1 the run serves one untraced and one
traced round instead, reports the per-layer metrics and writes the spans to
benchmark/out/. The package is imported from src/ next to this directory;
without it the run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmark" / "out"
SETUP_REPEATS = 5
# Each request's latency is its fastest over at least this many rounds, so a
# host slowdown that lasts under a round moves no figure.
MIN_ROUNDS = 2
# The clique solver of each class, and how many member graphs a traced run
# times it on.
SOLVER_OF = {"gu": "mwc_mwss_gu", "gt": "mwc_gt", "gutcap": "mwc_mwss_gutcap"}
SOLVER_SAMPLE = 24


class SetupError(Exception):
    pass


def _import_tcfree():
    """Import tcfree from this checkout's src/, dropping any copy already
    loaded so that every set-up pays the import again."""
    src = ROOT / "src"
    if not (src / "tcfree" / "cli.py").is_file():
        raise SetupError(f"no tcfree sources under {src}")
    for name in [m for m in sys.modules if m == "tcfree" or m.startswith("tcfree.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    tc = importlib.import_module("tcfree")
    for sub in ("cli", "oracles", "decomposition"):
        importlib.import_module(f"tcfree.{sub}")
    if Path(tc.__file__).resolve().parent != (src / "tcfree").resolve():
        raise SetupError(f"tcfree was imported from {tc.__file__}, not from {src}")
    return tc


def request(tc, argv: list[str]) -> tuple[int, str, str, float]:
    """One request: exit code, stdout, stderr and seconds spent in cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = tc.cli.main(argv)
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def _warm_up(tc, items) -> None:
    """One request per kind of request, on its smallest graph."""
    smallest: dict[tuple, workloads.Item] = {}
    for item in items:
        key = (item.command, item.cls, item.problem)
        if key not in smallest or len(item.text) < len(smallest[key].text):
            smallest[key] = item
    for item in smallest.values():
        request(tc, item.argv)


def set_up(workload: str, seed: int, workdir: Path, reduced: bool):
    """Import, input generation, writing the files and warm-up, timed."""
    start = perf_counter()
    tc = _import_tcfree()
    items = workloads.build_items(tc, workload, seed, workdir, reduced)
    _warm_up(tc, items)
    return tc, items, perf_counter() - start


class Answers:
    """Checks each item's first answer and keeps only its digest, which the
    answers of later rounds must match."""

    def __init__(self, tc, items) -> None:
        self.tc = tc
        self.items = items
        self.digests: list[bytes | None] = [None] * len(items)
        self.reasons: list[str | None] = [None] * len(items)
        self.rounds = 0

    def record(self, i: int, rc: int, out: str, err: str) -> None:
        digest = hashlib.sha256(f"{rc}\n{out}".encode()).digest()
        if self.digests[i] is None:
            self.digests[i] = digest
            if rc == -1:
                self.reasons[i] = "crashed: " + err.strip().splitlines()[-1]
                return
            try:
                self.reasons[i] = checks.check(self.tc, self.items[i], rc, out, err)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                self.reasons[i] = f"malformed answer: {exc!r}"
        elif digest != self.digests[i] and self.reasons[i] is None:
            self.reasons[i] = "answer differs between rounds"


def _round(tc, items, answers: Answers, latencies: list[float], tracer=None) -> float:
    """One request per item, each answer checked after it; returns the
    seconds spent serving, which leave out the checks."""
    serving = 0.0
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.request = i
        start = perf_counter()
        rc, out, err, took = request(tc, item.argv)
        serving += perf_counter() - start
        latencies.append(took)
        answers.record(i, rc, out, err)
    answers.rounds += 1
    return serving


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> dict:
    workdir = OUT / f"{workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            tc, items, took = set_up(workload, seed, workdir, reduced)
            setups.append(took)
        answers = Answers(tc, items)
        if trace:
            metrics = _traced_run(tc, workload, seed, items, answers)
        else:
            metrics = _timed_run(tc, items, answers, seconds)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed_items = [(item, r) for item, r in zip(items, answers.reasons) if r is not None]
    for item, reason in failed_items:
        print(f"FAILED {item.label}: {reason}", file=sys.stderr)
    return {
        "correct": all(item.decimal and r.startswith(checks.FLOAT_FAULT) for item, r in failed_items),
        "attempted": answers.rounds * len(items),
        "failed": answers.rounds * len(failed_items),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _timed_run(tc, items, answers: Answers, seconds: float) -> dict:
    """Whole rounds, at least MIN_ROUNDS, until the serving time is nearest
    to `seconds`. Throughput is taken over the fastest round, and the
    percentiles over each request's fastest latency."""
    rounds: list[float] = []
    latencies: list[list[float]] = [[] for _ in items]
    while True:
        times: list[float] = []
        rounds.append(_round(tc, items, answers, times))
        for mine, took in zip(latencies, times):
            mine.append(took)
        serving = sum(rounds)
        if len(rounds) >= MIN_ROUNDS and serving + rounds[-1] / 2 >= seconds:
            break
    fastest = [min(mine) for mine in latencies]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(items)} requests x {len(rounds)} rounds, {serving:.1f} s serving", file=sys.stderr)
    return {
        "throughput_rps": (len(items) / min(rounds), "1/s"),
        "latency_p50_ms": (statistics.median(fastest) * 1000, "ms"),
        "latency_p90_ms": (_percentile(fastest, 90) * 1000, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _traced_run(tc, workload: str, seed: int, items, answers: Answers) -> dict:
    """One untraced round, then one traced round on the same inputs."""
    latencies: list[float] = []
    _round(tc, items, answers, latencies)
    tracer = spans.Tracer()
    tracer.install()
    try:
        _round(tc, items, answers, latencies, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"trace-{workload}-seed{seed}.json", [item.label for item in items])
    values = tracer.per_layer()
    values.update(_untraced_figures(tc, items))
    n = len(items)
    values["trace.overhead_pct"] = statistics.median(t / u - 1 for u, t in zip(latencies[:n], latencies[n:])) * 100
    units = spans.metric_units()
    return {name: (values[name], units[name]) for name in units}


def _untraced_figures(tc, items) -> dict[str, float]:
    """Figures from untraced library calls after the traced round, so that
    they read the same whichever functions the requests call: the
    decomposition trees of every graph of the workload, and on a sample of
    its gu, gt and gutcap members the time of the class's clique solver over
    the time of build_tree on the same graph."""
    graphs = {item.text: item for item in items}
    trees, solver_s, tree_s = [], 0.0, 0.0
    members = [item for item in graphs.values() if item.member and item.cls in SOLVER_OF]
    sample = {id(item) for item in members[:: max(1, len(members) // SOLVER_SAMPLE)]}
    for text, item in graphs.items():
        wg = tc.parse_graph(text)
        start = perf_counter()
        trees.append(tc.build_tree(wg.graph))
        took = perf_counter() - start
        if id(item) in sample:
            tree_s += took
            start = perf_counter()
            getattr(tc.classes, SOLVER_OF[item.cls])(wg)
            solver_s += perf_counter() - start
    figures = spans.tree_figures(trees)
    figures["classes.solve_over_build_tree"] = solver_s / tree_s
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
