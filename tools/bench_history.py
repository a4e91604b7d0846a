"""Print the drift of every end-to-end metric across the bench records.

Each ``BENCH_<N>.json`` compares one change with its parent only, so moves
that stay inside every bound can add up unseen. This prints, for each seed,
workload and end-to-end metric of the named record, that record's parent
median and then, for every record from the named one on, the change median
as recorded and the change since that parent. The change since is the
product of each record's ratio of change to parent median, so it holds
only what the paired runs of each record saw, not the host's drift between
the sessions that made the records: the same tree read up to 13% apart in
``BENCH_21.json`` and ``BENCH_22.json``. It assumes each record's parent
has the source of the record before it. The records read are
``BENCH_15.json`` and later, the layout ``tools/bench_pairs.py`` writes;
``BENCH_14.json`` is skipped. It gates nothing and writes nothing:

    python3 tools/bench_history.py --since 16
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIRST = 15  # the first record in the layout of tools/bench_pairs.py


def records(root: Path) -> dict[int, dict]:
    """The records from ``BENCH_15.json`` on, in order of their number."""
    found = {}
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match[1]) >= FIRST:
            found[int(match[1])] = json.loads(path.read_text())
    return dict(sorted(found.items()))


def history(recs: dict[int, dict], since: int) -> list[str]:
    """One line per seed, workload and metric of record ``since``: its
    parent median, then each record's change median and the change since
    that parent, or ``-`` where a record lacks the metric."""
    later = {n: rec for n, rec in recs.items() if n >= since}
    lines = []
    for seed in (key for key in recs[since] if key.startswith("seed")):
        for workload, metrics in recs[since][seed].items():
            for metric, summary in metrics.items():
                ratio, cells = 1.0, []
                for n, rec in later.items():
                    m = rec.get(seed, {}).get(workload, {}).get(metric)
                    if m is None:
                        cells.append(f"{n} -")
                        continue
                    ratio *= m["change_median"] / m["parent_median"]
                    cells.append(f"{n} {m['change_median']:.4g} {ratio - 1:+.1%}")
                lines.append(f"seed {seed[4:]} {workload} {metric} "
                             f"from {summary['parent_median']:.4g}: "
                             + ", ".join(cells))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--since", type=int, default=FIRST,
                        help=f"the record whose parent is the start (default {FIRST})")
    args = parser.parse_args(argv)
    recs = records(ROOT)
    if args.since not in recs:
        print(f"error: no BENCH_{args.since}.json among the records from BENCH_{FIRST}.json on",
              file=sys.stderr)
        return 1
    print("\n".join(history(recs, args.since)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
