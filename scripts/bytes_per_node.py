#!/usr/bin/env python3
"""Resident bytes per node of the clean macro cell, by source file.

Builds ``SMALL.config(seed=42, num_nodes=N, query_rate=SMALL.rate(100))``
(the cell cupbench times) under ``tracemalloc`` and prints, for each
``src/repro`` file that allocated what is still live, the bytes per node
once the network is built and again after it has run to the end.  A
line is charged to the file of the innermost frame that allocated it;
``other`` is everything outside ``src/repro`` (the standard library,
numpy).  It reports only and never fails on a size.

    PYTHONPATH=src python scripts/bytes_per_node.py --nodes 1024
"""

import argparse
import gc
import os
import sys
import tracemalloc

import repro
from repro.core.protocol import CupNetwork
from repro.experiments.config import SMALL

SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def clean_cell(num_nodes):
    return SMALL.config(
        seed=42, num_nodes=num_nodes, query_rate=SMALL.rate(100)
    )


def by_file(snapshot, base):
    """Bytes allocated since ``base`` and still live, per source file."""
    sizes = {}
    for diff in snapshot.compare_to(base, "filename"):
        path = diff.traceback[0].filename
        name = path[len(SRC):] if path.startswith(SRC) else "other"
        sizes[name] = sizes.get(name, 0) + diff.size_diff
    return sizes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", type=int, default=1024,
                        help="network size (default 1024)")
    args = parser.parse_args()
    if args.nodes < 1:
        parser.error("--nodes must be >= 1")

    CupNetwork(clean_cell(64)).run()  # imports, lru caches
    gc.collect()
    tracemalloc.start()
    ignore = [tracemalloc.Filter(False, tracemalloc.__file__)]
    base = tracemalloc.take_snapshot().filter_traces(ignore)
    net = CupNetwork(clean_cell(args.nodes))
    gc.collect()
    built = by_file(tracemalloc.take_snapshot().filter_traces(ignore), base)
    net.run()
    gc.collect()
    after = by_file(tracemalloc.take_snapshot().filter_traces(ignore), base)
    tracemalloc.stop()

    n = args.nodes
    rows = sorted(
        set(built) | set(after),
        key=lambda name: (-after.get(name, 0), name),
    )
    print(f"bytes per node, n = {n:,} (clean cell, seed 42, tracemalloc)")
    print(f"{'file':<32}{'built':>10}{'after':>10}")
    for name in rows:
        b, a = built.get(name, 0) / n, after.get(name, 0) / n
        if abs(b) >= 0.5 or abs(a) >= 0.5:
            print(f"{name:<32}{b:>10,.0f}{a:>10,.0f}")
    print(f"{'total':<32}{sum(built.values()) / n:>10,.0f}"
          f"{sum(after.values()) / n:>10,.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
