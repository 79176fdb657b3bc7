#!/usr/bin/env python3
"""Record the reference digests the benchmark checks every operation against.

Run from the repository root::

    python3 perfbench/record.py --seeds 0-63,7919 --tiny-seeds 3

For each workload and seed it makes the inputs, computes the digests on the
oracle path (``Workload.oracle``: the serial scheduler on the python
backend, with the name-keyed reference ATPG engine for the flow) and writes
them to ``perfbench/expected.json``, keeping every seed it did not
recompute.  Re-record only for a change that is meant to alter a simulated
result, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7919"`` -> ``[0, 1, 2, 3, 7919]``."""
    seeds = []
    for part in filter(None, text.split(",")):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="", help="full-size seeds, e.g. 0-63,7919")
    parser.add_argument("--tiny-seeds", default="", help="seeds of the tiny inputs the test uses")
    parser.add_argument("--workload", action="append", help="record only these (repeatable)")
    parser.add_argument("--out", type=Path, help="file to merge into (default: expected.json)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import EXPECTED_FILE, WORKLOADS, seed_label

    out = args.out or EXPECTED_FILE
    recorded = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    runs = [(seed, False) for seed in parse_seeds(args.seeds)]
    runs += [(seed, True) for seed in parse_seeds(args.tiny_seeds)]
    for name in args.workload or list(WORKLOADS):
        for seed, tiny in runs:
            workload = WORKLOADS[name](seed, tiny=tiny)
            start = time.perf_counter()
            workload.setup()
            try:
                digests = workload.oracle()
            finally:
                workload.teardown()
            recorded.setdefault(name, {})[seed_label(seed, tiny)] = digests
            print(f"{name} {seed_label(seed, tiny)} {time.perf_counter() - start:.1f} s", flush=True)
            # Written after every seed, so an interrupted recording keeps its work.
            out.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
