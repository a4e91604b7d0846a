"""Print one SHA-256 per bench workload over everything the engine outputs.

For each workload of ``bench/workloads.py`` at the given seed, the digest
covers every instance in order: its traced ``find_maximum_matching``
matching, sorted, the ``format_certificate`` text of its
``certify_maximality`` certificate, the same text for an equal copy of the
matching, and the trace records. A trace does not change the solve, so the
traced matching is the one an untraced solve and ``blossom solve`` return.
Certify given the solve's own matching object reads that solve's cover,
off the forest of its last phase or, when counting ended the solve, off
the count; given a copy, it checks the matching and counts or runs its own
phase, so both paths are covered. Only the public
``find_maximum_matching``, ``certify_maximality`` and ``format_certificate``
are called, so the script digests any checkout that has them. A change
that claims to keep the output shows equal digests before and after it.
``--src`` names the package source to import, so that one copy of this
script can digest two checkouts:

    python3 tools/output_digests.py --seed 1
    python3 tools/output_digests.py --seed 1 --src ../parent/src
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, instances  # noqa: E402


def workload_digest(bl, workload: str, seed: int) -> str:
    """The SHA-256 over the outputs of every instance of one workload."""
    h = hashlib.sha256()
    for inst in instances(workload, seed):
        records: list[str] = []
        matching = bl.find_maximum_matching(inst.graph, trace=records.append)
        cert = bl.certify_maximality(inst.graph, matching)
        # frozenset(matching) would be matching itself, not a copy
        copied = bl.certify_maximality(inst.graph, frozenset(list(matching)))
        if cert is None or copied is None:
            raise SystemExit(f"{workload}/{inst.name}: the matching is not certified maximum")
        for part in (
            repr(sorted(matching)),
            bl.format_certificate(cert.contractions, cert.cover),
            bl.format_certificate(copied.contractions, copied.cover),
            *records,
        ):
            h.update(part.encode() + b"\n")
        h.update(b"\0")
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument(
        "--src",
        type=Path,
        default=ROOT / "src",
        help="directory holding the blossom package (default: this checkout's src)",
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    bl = importlib.import_module("blossom")
    if Path(bl.__file__).resolve().parent != src / "blossom":
        raise SystemExit(f"imported blossom from {bl.__file__}, not from {src}")
    for workload in WORKLOADS:
        print(workload, args.seed, workload_digest(bl, workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
