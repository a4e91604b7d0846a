"""Tests of the benchmark itself. Run from the root of the repository:

    python3 -m pytest bench

Each workload runs with ``--seconds 0``, which makes one untraced pass, or
one untraced and one traced pass with ``--trace 1``; the whole module takes
a few minutes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("dense_blossoms", "long_paths", "certificates", "small_batch")

# Every documented metric with its unit. The gated end-to-end metrics are
# in the result object; the rest are printed as report lines, some of them
# on one workload only.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "certify_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "failed_ops": "share",
}
ONE_WORKLOAD = {"cli_verify_s": ("s", "certificates"), "op_ms_p99": ("ms", "small_batch")}
TRACED_FUNCTIONS = (
    "graph.vertices graph.adjacency graph.neighbours "
    "matching.augment matching.is_matching matching.is_augmenting_path "
    "forest.run_search forest.build_odd_set_cover "
    "assembly.find_path_or_blossom "
    "contraction.quotient_graph contraction.lift_path contraction.is_blossom "
    "solver.find_maximum_matching solver.find_augmenting_path solver.certify_maximality "
    "certificate.verify_certificate certificate.verify_maximum certificate.is_odd_set_cover "
    "certificate.format_certificate certificate.parse_certificate "
    "cli.parse_graph_file cli.parse_matching_file cli.main"
).split()
LAYER_COUNTS = (
    "graph.edges_scanned",
    "contraction.edges_rebuilt",
    "forest.edges_examined",
    "assembly.free_edge_paths",
    "assembly.blossoms",
    "solver.max_nesting",
    "certificate.cover_sets",
    "certificate.contractions_replayed",
)
PER_LAYER = {
    **{f"{f}.calls": "count" for f in TRACED_FUNCTIONS},
    **{f"{f}.self_s": "s" for f in TRACED_FUNCTIONS},
    **dict.fromkeys(LAYER_COUNTS, "count"),
    "solver.searches_per_augment": "ratio",
    "trace_overhead": "ratio",
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@functools.cache
def run(workload: str, trace: int, attempt: int = 0) -> tuple[list[str], dict]:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines: list[str]) -> dict[str, str]:
    """Metric name -> unit, from the ``metric <name> <value> <unit>`` lines."""
    return {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    lines, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    gated = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    assert all(v["value"] > 0 for v in result["metrics"].values())
    want = dict(END_TO_END)
    want.update({k: unit for k, (unit, only) in ONE_WORKLOAD.items() if only == workload})
    assert printed(lines) == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_printed_with_its_unit(workload):
    lines, result = run(workload, 1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert "outcomes identical across passes: yes" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counts_repeat_exactly_across_traced_runs(workload):
    first, second = run(workload, 1, 0)[1], run(workload, 1, 1)[1]

    def counts(result: dict) -> dict:
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if not name.endswith(".self_s") and name != "trace_overhead"
        }

    assert counts(first) == counts(second)
    assert counts(first)["solver.find_maximum_matching.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_only_the_recursion_reproducer_may_fail(workload):
    lines, result = run(workload, 0)
    failing = [line for line in lines if line.startswith("instance ") and not line.endswith("status ok")]
    for line in failing:
        assert line.startswith("instance interleaved_k400 ")
        assert line.endswith("status solve RecursionError")
    assert result["failed"] == len(failing)
    if workload == "long_paths":
        assert any(line.startswith("instance interleaved_k400 ") for line in lines)


def test_refuses_to_run_without_the_package():
    (BENCH / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = bench("small_batch", 0, cwd=bare)
        assert done.returncode != 0
        assert not done.stdout.strip()
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            (BENCH / ".work").rmdir()
