#!/usr/bin/env python3
"""Digest every benchmark request's answer, to show that a change keeps the
command line's output byte for byte.

The requests are the benchmark's own: the decompose, solve and recognize
items of benchmark/workloads.py for seeds 1-3, built as the benchmark
builds them, from the tcfree sources of this checkout. Each is served in
process by the benchmark's own run.request, and the sha256 of its exit
code (-1 for a crash) and stdout is recorded under
"<workload>:<seed>:<label>".

    python3 scripts/output_digests.py --save before.json
    ... change the code ...
    python3 scripts/output_digests.py --against before.json

--against lists the labels whose digest differs (or that only one side
has) and exits 1 if there are any, 0 if every request is identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import tcfree  # noqa: E402
import tcfree.cli  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def digests() -> dict[str, str]:
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                workdir = Path(tmp) / f"{workload}-{seed}"
                for item in workloads.build_items(tcfree, workload, seed, workdir):
                    rc, out, _, _ = run.request(tcfree, item.argv)
                    found[f"{workload}:{seed}:{item.label}"] = hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", metavar="FILE", help="write the digests to FILE as JSON")
    mode.add_argument("--against", metavar="FILE", help="compare with the digests saved in FILE")
    args = parser.parse_args(argv)
    found = digests()
    if args.save:
        Path(args.save).write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
        print(f"{len(found)} requests saved to {args.save}")
        return 0
    saved = json.loads(Path(args.against).read_text())
    differ = sorted(label for label in found.keys() | saved.keys() if found.get(label) != saved.get(label))
    for label in differ:
        print(label)
    print(f"{len(differ)} of {len(found.keys() | saved.keys())} requests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
