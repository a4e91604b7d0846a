"""Benchmark of solve, certify and verify on four graph workloads.

Run from the root of the repository:

    python3 bench/run.py --workload dense_blossoms --seed 1 --seconds 25 --trace 0

One process and one thread drive the package through its public functions
in a closed loop: each operation starts when the previous one returns. An
operation is one instance's ``find_maximum_matching``, ``certify_maximality``
and ``verify_certificate``; on ``certificates`` it also runs
``blossom verify`` through ``blossom.cli.main``. A pass runs every instance
of the workload once, and passes repeat until ``--seconds`` have gone by.
Stage times are scaled to reference speed by ``bench/speed.py``, so that
the shared machine's own changes of speed cancel out.

With ``--trace 0`` the report ends with the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate, and the report ends with
the per-layer metrics of the traced passes and the tracing overhead. Every
output is checked outside the timed regions; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from speed import REFERENCE_S, Speedometer  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CLI_WORKLOADS, ORACLE_WORKLOADS, WORKLOADS, Instance, instances  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 97
# Set-up (import, instance generation, file writing) repeats this many times
# per run; setup_s is the median.
SETUP_REPEATS = 5
# A percentile is reported only with at least ten samples beyond it.
P99_MIN_SAMPLES = 1000

UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "certify_s": "s",
    "verify_s": "s",
    "cli_verify_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "failed_ops": "share",
}
STAGES = ("solve", "certify", "verify", "cli")


class BenchError(Exception):
    """The benchmark cannot run in this directory or this interpreter."""


@dataclass
class Outcome:
    """One operation: stage times in seconds, the matching, and what failed."""

    solve: float = 0.0
    certify: float = 0.0
    verify: float = 0.0
    cli: float = 0.0
    matching: frozenset | None = None
    error: str | None = None  # "<stage> <ExceptionType>" when a call raised
    wrong: str | None = None  # the failed output check, if any


@dataclass
class Pass:
    """What one pass leaves behind: stage totals, latency quantiles and the
    operations that failed. Per-operation data is dropped when the pass
    ends, so the benchmark's memory does not grow with the pass count."""

    traced: bool
    speed: float  # the machine's speed in the pass, relative to reference speed
    totals: dict[str, float]
    op_ms_p50: float
    op_ms_p99: float | None  # only with enough operations per pass
    failures: dict[int, str]  # instance index -> what failed
    wrong: int  # operations whose output failed a check
    mismatched: int  # operations whose outcome differs from the first pass

    @classmethod
    def of(cls, traced: bool, speed: float, outcomes: list[Outcome], mismatched: int) -> Pass:
        latencies = [1000.0 * (o.solve + o.certify + o.verify) for o in outcomes]
        p99 = None
        if len(latencies) >= P99_MIN_SAMPLES:
            p99 = statistics.quantiles(latencies, n=100)[98]
        return cls(
            traced=traced,
            speed=speed,
            totals={stage: sum(getattr(o, stage) for o in outcomes) for stage in STAGES},
            op_ms_p50=statistics.median(latencies),
            op_ms_p99=p99,
            failures={i: o.error or o.wrong for i, o in enumerate(outcomes) if o.error or o.wrong},
            wrong=sum(o.wrong is not None for o in outcomes),
            mismatched=mismatched,
        )


def load_package():
    """Import ``blossom`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "blossom" / "__init__.py").is_file():
        raise BenchError(f"no package source under {src}")
    for key in [k for k in sys.modules if k == "blossom" or k.startswith("blossom.")]:
        del sys.modules[key]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    package = importlib.import_module("blossom")
    cli = importlib.import_module("blossom.cli")
    if Path(package.__file__).resolve().parent != (src / "blossom").resolve():
        raise BenchError(f"imported blossom from {package.__file__}, not from {src}")
    return package, cli


def write_dimacs(path: Path, g: frozenset) -> None:
    n = max(v for e in g for v in e) + 1
    lines = [f"p edge {n} {len(g)}"] + [f"e {a + 1} {b + 1}" for a, b in sorted(g)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def setup(workload: str, seed: int, workdir: Path):
    """Import the package afresh, generate the instances and write the
    graph files the CLI reads. Returns (seconds, package, cli, instances)."""
    start = perf_counter()
    package, cli = load_package()
    insts = instances(workload, seed)
    if workload in CLI_WORKLOADS:
        for i, inst in enumerate(insts):
            write_dimacs(workdir / f"{i}.graph", inst.graph)
    return perf_counter() - start, package, cli, insts


def is_matching_in(g: frozenset, m: frozenset) -> bool:
    """Independent check: canonical edges of the graph, pairwise disjoint."""
    seen: set[int] = set()
    for e in m:
        if len(e) != 2 or e[0] >= e[1] or e not in g or e[0] in seen or e[1] in seen:
            return False
        seen.update(e)
    return True


def run_operation(bl, cli, meter: Speedometer, inst: Instance, index: int,
                  workdir: Path | None, expected_size: int | None) -> Outcome:
    """Solve, certify and verify one instance; check everything outside the
    timed regions. Exceptions are recorded, never propagated. Each stage's
    time goes to ``meter``, which scales it to reference speed."""
    out = Outcome()
    g = inst.graph
    stage = "solve"
    try:
        start = perf_counter()
        try:
            matching = bl.find_maximum_matching(g)
        finally:
            out.solve = perf_counter() - start
            meter.add(out, "solve")
        out.matching = matching
        stage = "certify"
        start = perf_counter()
        try:
            cert = bl.certify_maximality(g, matching)
        finally:
            out.certify = perf_counter() - start
            meter.add(out, "certify")
        if cert is None:
            out.wrong = "certify_maximality found an augmenting path"
            return out
        stage = "verify"
        start = perf_counter()
        try:
            report, problems = bl.verify_certificate(g, matching, list(cert.contractions), cert.cover)
        finally:
            out.verify = perf_counter() - start
            meter.add(out, "verify")
        if not is_matching_in(g, matching):
            out.wrong = "not a matching inside the graph"
        elif not report.verdict or problems:
            out.wrong = f"certificate rejected: verdict {report.verdict}, problems {problems}"
        elif expected_size is not None and len(matching) != expected_size:
            out.wrong = f"size {len(matching)}, expected {expected_size}"
        if out.wrong is not None or workdir is None:
            return out
        stage = "cli_verify"
        mpath, cpath = workdir / f"{index}.matching", workdir / f"{index}.cert"
        mpath.write_text(
            f"s {len(matching)}\n" + "".join(f"m {a + 1} {b + 1}\n" for a, b in sorted(matching)),
            encoding="utf-8",
        )
        cpath.write_text(bl.format_certificate(cert.contractions, cert.cover, offset=1), encoding="utf-8")
        argv = ["verify", str(workdir / f"{index}.graph"), str(mpath), str(cpath)]
        printed, errors = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
                code = cli.main(argv)
        finally:
            out.cli = perf_counter() - start
            meter.add(out, "cli")
        if code != 0 or "verdict: ok" not in printed.getvalue().splitlines():
            out.wrong = f"cli verify exited {code}: {printed.getvalue()!r} {errors.getvalue()!r}"
    except Exception as exc:  # a failed operation is recorded and the run goes on
        out.error = f"{stage} {type(exc).__name__}"
    return out


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, then repeat passes for ``seconds``. Returns the set-up times,
    the instances, the passes and the tracer of each traced pass."""
    if not __debug__:
        raise BenchError("refusing to run under python -O: it strips the solver's own checks")
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH / ".work"))
    try:
        meter = Speedometer()
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, bl, cli, insts = setup(workload, seed, workdir)
            setups.append(meter.scaled(elapsed))
        expected = [inst.size for inst in insts]
        if workload in ORACLE_WORKLOADS:
            expected = [len(bl.brute_force_maximum_matching(inst.graph)) for inst in insts]
        cli_dir = workdir if workload in CLI_WORKLOADS else None

        # Passes repeat while the next one, judged by the longest so far,
        # still ends within the time; a traced run makes at least one
        # untraced and one traced pass.
        passes: list[Pass] = []
        tracers: list[Tracer] = []
        reference: list = []  # (matching, error) of each operation of the first pass
        # Per-instance stage times summed over untraced passes, for the report.
        sums = {stage: [0.0] * len(insts) for stage in STAGES}
        longest = 0.0
        start = perf_counter()
        while not passes or (trace and len(passes) < 2) or (
            perf_counter() - start + longest <= seconds
        ):
            traced = trace and len(passes) % 2 == 1
            tracer = Tracer() if traced else None
            outcomes, mismatched = [], 0
            meter.settle()  # a fresh reading ahead of the pass's first stage
            first_reading = len(meter.readings) - 1
            began = perf_counter()
            with tracer.installed() if tracer else contextlib.nullcontext():
                for i, inst in enumerate(insts):
                    out = run_operation(bl, cli, meter, inst, i, cli_dir, expected[i])
                    if not passes:
                        reference.append((out.matching, out.error))
                    elif (out.matching, out.error) != reference[i]:
                        mismatched += 1
                    out.matching = None
                    outcomes.append(out)
            longest = max(longest, perf_counter() - began)
            meter.settle()
            speed = REFERENCE_S / statistics.median(meter.readings[first_reading:])
            if tracer:
                tracers.append(tracer)
            else:
                for stage in STAGES:
                    for i, out in enumerate(outcomes):
                        sums[stage][i] += getattr(out, stage)
            passes.append(Pass.of(traced, speed, outcomes, mismatched))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    return setups, insts, passes, tracers, sums


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name in ("solver.searches_per_augment", "trace_overhead"):
        return "ratio"
    return "count"


def report(workload: str, seed: int, setups: list[float], insts: list[Instance],
           passes: list[Pass], tracers: list[Tracer],
           sums: dict[str, list[float]]) -> tuple[dict, list[str]]:
    """The report lines and the result object of one run."""
    median = statistics.median
    untraced = [p for p in passes if not p.traced]
    # Every pass, traced or not, must agree with the first on every instance.
    consistent = not any(p.mismatched for p in passes)
    attempted = len(insts) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    correct = consistent and not any(p.wrong for p in passes)

    lines = [
        f"workload {workload} seed {seed} passes {len(passes)} traced {len(tracers)}",
        f"outcomes identical across passes: {'yes' if consistent else 'NO'}",
    ]
    for n, p in enumerate(passes):
        totals = " ".join(f"{stage}_s {p.totals[stage]:.6f}" for stage in STAGES)
        lines.append(f"pass {n} {'traced' if p.traced else 'untraced'} speed {p.speed:.3f} {totals}")
    for i, inst in enumerate(insts):
        status = passes[0].failures.get(i, "ok")
        if workload in ORACLE_WORKLOADS and status == "ok":
            continue  # 2,000 small graphs: only failures are listed
        times = " ".join(f"{stage}_s {sums[stage][i] / len(untraced):.6f}" for stage in STAGES)
        lines.append(f"instance {inst.name} edges {len(inst.graph)} {times} status {status}")

    solve_s = median([p.totals["solve"] for p in untraced])
    if tracers:
        # Self times are scaled to reference speed like the stage times,
        # by the speed of the machine in their pass.
        per_pass = [
            {k: v * p.speed if k.endswith(".self_s") else v for k, v in t.metrics().items()}
            for t, p in zip(tracers, [p for p in passes if p.traced])
        ]
        metrics = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
        counts = [{k: v for k, v in m.items() if not k.endswith(".self_s")} for m in per_pass]
        if any(c != counts[0] for c in counts):
            correct = False
            lines.append("per-layer counts differ between traced passes")
        metrics.update(counts[0])
        traced_solve = median([p.totals["solve"] for p in passes if p.traced])
        metrics["trace_overhead"] = traced_solve / solve_s
        lines.append(f"untraced solve_s {solve_s:.6f} s, traced solve_s {traced_solve:.6f} s")
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": median(setups),
            "solve_s": solve_s,
            "certify_s": median([p.totals["certify"] for p in untraced]),
            "verify_s": median([p.totals["verify"] for p in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {name: UNITS[name] for name in metrics}
    for name, value in metrics.items():
        lines.append(f"metric {name} {value} {units[name]}")

    # Printed, not gated: each exists on some workloads only, or restates
    # the result's own failed/attempted counts.
    ungated = {
        "failed_ops": failed / attempted,
        "op_ms_p50": median([p.op_ms_p50 for p in untraced]),
    }
    if untraced[0].op_ms_p99 is not None:
        ungated["op_ms_p99"] = median([p.op_ms_p99 for p in untraced])
    if workload in CLI_WORKLOADS:
        ungated["cli_verify_s"] = median([p.totals["cli"] for p in untraced])
    lines.append(f"operations per pass {len(insts)}, attempted {attempted}, failed {failed}")
    for name, value in ungated.items():
        lines.append(f"metric {name} {value} {UNITS[name]}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0, help="how long to repeat passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from alternating traced passes")
    args = parser.parse_args(argv)
    try:
        setups, insts, passes, tracers, sums = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result, lines = report(args.workload, args.seed, setups, insts, passes, tracers, sums)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
