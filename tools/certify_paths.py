"""Print in-process certify times for both certify paths, per bench workload.

For each workload of ``bench/workloads.py`` and each seed, one pass solves
every instance with ``find_maximum_matching`` (untimed) and then times two
``certify_maximality`` calls on it: one given the solve's own matching
object, which reads the cover that solve already has (the memo path), and
one given an equal copy of the matching, which checks it and then counts
or runs its own phase (the full path). A pass sums each path's times over
the instances, as the bench's ``certify_s`` does for the memo path; the
bench times no workload on the full path. The line printed per workload
and seed holds the best of ``--passes`` passes for each path, in
milliseconds. ``--src`` names the package source to import, so that one
copy of this script can time two checkouts:

    python3 tools/certify_paths.py --seed 1 --seed 97
    python3 tools/certify_paths.py --src ../parent/src --passes 15
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, instances  # noqa: E402


def certify_pass(bl, graphs: list[frozenset]) -> tuple[float, float]:
    """The seconds that one pass over the graphs spends certifying the
    solve's own matching and an equal copy of it."""
    memo = full = 0.0
    for g in graphs:
        matching = bl.find_maximum_matching(g)
        # frozenset(matching) would be matching itself, not a copy
        copied = frozenset(list(matching))
        start = perf_counter()
        own = bl.certify_maximality(g, matching)
        middle = perf_counter()
        other = bl.certify_maximality(g, copied)
        memo += middle - start
        full += perf_counter() - middle
        if own is None or other is None:
            raise SystemExit("a solve's matching is not certified maximum")
    return memo, full


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--seed", type=int, action="append", help="workload seed, repeatable (default 1)"
    )
    parser.add_argument("--passes", type=int, default=11, help="passes per workload (default 11)")
    parser.add_argument(
        "--src",
        type=Path,
        default=ROOT / "src",
        help="directory holding the blossom package (default: this checkout's src)",
    )
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    bl = importlib.import_module("blossom")
    if Path(bl.__file__).resolve().parent != src / "blossom":
        raise SystemExit(f"imported blossom from {bl.__file__}, not from {src}")
    for seed in args.seed or [1]:
        for workload in WORKLOADS:
            graphs = [inst.graph for inst in instances(workload, seed)]
            times = [certify_pass(bl, graphs) for _ in range(args.passes)]
            memo, full = (1000 * min(column) for column in zip(*times))
            print(f"{workload} {seed} memo_ms {memo:.3f} full_ms {full:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
