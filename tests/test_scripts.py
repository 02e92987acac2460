"""Smoke tests of the experiment scripts under scripts/, and of the names the
benchmark looks up in tcfree."""

import importlib
import importlib.util
import sys
from pathlib import Path

from tcfree import classes, detectors

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCHMARK = SCRIPTS.parent / "benchmark"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_structure_census_counts_piece_families(capsys):
    assert _load("structure_census").main(["--trials", "5"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    columns = header.split()
    assert columns[:4] == ["class", "trees", "nodes", "leaves"]
    families = columns[4:]
    known = {
        classes.CLIQUE,
        classes.CHORDAL,
        classes.HYPERHOLE,
        classes.RING,
        classes.ANTIHOLE,
        classes.LONG_HOLE_FREE,
        classes.ALPHA2,
    }
    assert families and set(families) <= known and len(set(families)) == len(families), families
    table = {row.split()[0]: [int(x) for x in row.split()[1:]] for row in rows}
    assert list(table) == list(classes.CLASS_IDS)
    for cls, (trees, _, leaves, *counts) in table.items():
        assert trees == 5 and len(counts) == len(families), (cls, counts)
        # one piece per gt atom; one or more per atom of the other classes
        assert sum(counts) == leaves if cls == "gt" else sum(counts) >= leaves, (cls, leaves, counts)


def test_chi_sweep_reads_one_verify_chi_report_per_bound(capsys):
    assert _load("chi_sweep").main(["--trials", "3", "--max-n", "9"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["class", "bound", "fail"]
    assert [row.split()[0] for row in rows] == list(classes.CHI_BOUNDS)
    for row in rows:
        cls = row.split()[0]
        assert row[16:37].strip() == classes.CHI_BOUNDS[cls][0], row
        fail, ratio, seed, *gaps = row[37:].split()
        assert fail == "0" and 0 < float(ratio) <= 1 and seed.startswith("@"), row
        # the gap histogram counts every trial once
        assert sum(int(gap.split(":")[1]) for gap in gaps) == 3, row


def test_benchmark_names_resolve(monkeypatch):
    # the benchmark wraps and calls library functions by name, so a rename
    # in src/ must fail here and not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(BENCHMARK))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    for name in spans.TRACED:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"tcfree.{module}"), attr, None)), name
    for name in run.SOLVER_OF.values():
        assert callable(getattr(classes, name, None)), name
    assert set(spans.SMALL_OBSTRUCTIONS) == {detectors.K23, detectors.C6BAR, detectors.W54}
