"""Time two revisions with the bench in alternating pairs and write
``BENCH_<N>.json``.

Both sides are exported from the local repository with ``git archive``
into a temporary directory; nothing is fetched. Each run is one
``bench/run.py --trace 0`` process in its own side's checkout, with
``PYTHONDONTWRITEBYTECODE=1``, and only one process runs at a time. A pair
runs every workload once on each side, round-robin over the workloads;
odd pairs run the parent first and even pairs the change. The record holds,
per seed, workload and end-to-end metric, both sides' medians and
quartiles, the change's relative difference and the number of pairs in
which the change read lower, and the ``tools/output_digests.py`` digests of
both sides, made with this checkout's copy of that script. Two revisions
with the same tree are refused before anything runs; to time an
uncommitted tree, pass the commit that ``git stash create`` prints as
``--change``. A SIGTERM ends the run as Ctrl-C does: the bench run in
progress is killed and the exports are removed.

    python3 tools/bench_pairs.py --parent HEAD~1 --pr 1
    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 1 \\
        --pairs 2 --held-out-pairs 2
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from run import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | {"PYTHONDONTWRITEBYTECODE": "1"}


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` to ``dest``; returns its short hash."""
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    return git("rev-parse", "--short", rev).decode().strip()


def bench(checkout: Path, workload: str, seed: int) -> dict:
    """The result object, the last line of standard output, of one run."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, env=ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"{checkout.name} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def digests(checkout: Path, seed: int) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), "--seed", str(seed),
         "--src", str(checkout / "src")],
        env=ENV, check=True, capture_output=True, text=True,
    )
    return {f"{w}/seed{s}": d for w, s, d in (line.split() for line in proc.stdout.splitlines())}


def quartiles(xs: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def pair_count(text: str) -> int:
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError("at least 2 pairs give quartiles")
    return n


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Per metric, the summary of paired runs of one workload and seed."""
    out = {}
    for metric in parent[0]["metrics"]:
        p = [r["metrics"][metric]["value"] for r in parent]
        c = [r["metrics"][metric]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        out[metric] = {
            "parent_median": pm,
            "parent_quartiles": quartiles(p),
            "change_median": cm,
            "change_quartiles": quartiles(c),
            "change_vs_parent": round(cm / pm - 1, 4),
            "pairs_change_lower": sum(x < y for x, y in zip(c, p)),
            "pairs": len(p),
        }
    return out


def terminate(signum: int, frame) -> None:
    """End the run as an exception does: ``TemporaryDirectory`` removes both
    exports, and ``subprocess.run`` kills the bench run in progress."""
    raise SystemExit(128 + signum)


def run_pairs(args: argparse.Namespace, plan: list[tuple[int, int]]) -> tuple:
    """Export both sides, run every pair and digest both sides' outputs:
    the short hashes, the runs per side, seed and workload, the runs that
    were not correct, and the digests per side."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {name: Path(tmp) / name for name in ("parent", "change")}
        revs = {name: export(getattr(args, name), path) for name, path in sides.items()}
        runs = {(name, seed, w): [] for name in sides for seed, _ in plan for w in WORKLOADS}
        bad = []
        for seed, pairs in plan:
            for i in range(pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for w in WORKLOADS:
                    for name in order:
                        result = bench(sides[name], w, seed)
                        runs[name, seed, w].append(result)
                        if not result["correct"] or result["failed"]:
                            bad.append(f"{name} {w} seed {seed} pair {i + 1}")
                        solve = result["metrics"]["solve_s"]["value"]
                        print(f"seed {seed} pair {i + 1}/{pairs} {w} {name} solve_s {solve:.6f}",
                              file=sys.stderr, flush=True)
        sums = {name: {} for name in sides}
        for name, path in sides.items():
            for seed, _ in plan:
                sums[name] |= digests(path, seed)
    return revs, runs, bad, sums


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision to time (default HEAD)")
    parser.add_argument("--pr", type=int, required=True, help="number N of BENCH_<N>.json")
    parser.add_argument("--pairs", type=pair_count, default=10,
                        help=f"pairs at seed {DEFAULT_SEED}, at least 2 (default 10)")
    parser.add_argument("--held-out-pairs", type=pair_count, default=5,
                        help=f"pairs at seed {HELD_OUT_SEED}, at least 2 (default 5)")
    parser.add_argument("--claim", default="none", help="the claim the record supports")
    args = parser.parse_args(argv)
    if git("rev-parse", f"{args.parent}^{{tree}}") == git("rev-parse", f"{args.change}^{{tree}}"):
        print(f"error: --parent {args.parent} and --change {args.change} have the same tree",
              file=sys.stderr)
        return 1
    out_path = ROOT / f"BENCH_{args.pr}.json"
    plan = [(DEFAULT_SEED, args.pairs), (HELD_OUT_SEED, args.held_out_pairs)]
    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        revs, runs, bad, sums = run_pairs(args, plan)
    finally:
        signal.signal(signal.SIGTERM, previous)
    total = 2 * sum(pairs for _, pairs in plan) * len(WORKLOADS)
    record = {
        "pr": args.pr,
        "parent": revs["parent"],
        "change": revs["change"],
        "host": f"Python {platform.python_version()} on a {os.cpu_count()}-core host",
        "command": "python3 bench/run.py --workload <workload> --seed <seed> --trace 0",
        "method": (
            f"tools/bench_pairs.py: {args.pairs} alternating pairs of parent and change per "
            f"workload at seed {DEFAULT_SEED} and {args.held_out_pairs} at seed {HELD_OUT_SEED}, "
            "round-robin over the workloads, one process at a time; odd pairs run the parent "
            "first, even pairs the change. Both sides ran from git archive exports with "
            "PYTHONDONTWRITEBYTECODE=1. Times are the bench's medians over passes, scaled to "
            "reference speed. Quartiles over the runs of a side by "
            "statistics.quantiles(method='inclusive'); pairs_change_lower counts the pairs where "
            f"the change read lower. {total - len(bad)} of {total} runs were correct with 0 "
            "failed operations" + (f"; not: {', '.join(bad)}." if bad else ".")
        ),
        "claim": args.claim,
    }
    for seed, _ in plan:
        record[f"seed{seed}"] = {
            w: compare(runs["parent", seed, w], runs["change", seed, w]) for w in WORKLOADS
        }
    record["output_sha256"] = {
        "what": "tools/output_digests.py of this checkout, run with --src on each side",
        "equal": sums["parent"] == sums["change"],
        "digests": sums,
    }
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for seed, _ in plan:
        for w in WORKLOADS:
            for metric, m in record[f"seed{seed}"][w].items():
                print(f"seed {seed} {w} {metric} {m['parent_median']:.6g} -> "
                      f"{m['change_median']:.6g} ({m['change_vs_parent']:+.2%}, "
                      f"{m['pairs_change_lower']}/{m['pairs']} lower)")
    print(f"output digests equal: {record['output_sha256']['equal']}; wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
