"""Command-line front end: DIMACS-style graph files and the solve, verify,
and oracle subcommands.

Graph files use the DIMACS edge dialect: ``c`` comment lines, one
``p edge <vertices> <edges>`` header, and ``e <u> <v>`` lines with 1-based
vertex ids. Matchings are written as ``m <u> <v>`` lines preceded by an
``s <size>`` line. Every number is written in ASCII decimal digits, with no
sign. Vertex ids are 1-based in every file; internally they are shifted
down by one. Every input file is read, decoded and parsed by one
loader, which reports a failure on one line naming the file (exit code 1).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from typing import TextIO, TypeVar

from .certificate import (
    format_certificate,
    parse_certificate,
    parse_natural,
    verify_certificate,
)
from .graph import Edge, edge
from .oracle import OracleLimitError, brute_force_maximum_matching
from .solver import _solve

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3
EXIT_ORACLE_LIMIT = 4

T = TypeVar("T")


class GraphFormatError(ValueError):
    """A malformed input file, with the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _endpoints(line_no: int, tokens: list[str], vertex_count: int) -> Edge:
    """The 0-based edge named by an ``e`` or ``m`` line's two 1-based ids."""
    if len(tokens) != 3:
        raise GraphFormatError(line_no, f"expected '{tokens[0]} <u> <v>'")
    try:
        u, v = parse_natural(tokens[1]), parse_natural(tokens[2])
    except ValueError:
        raise GraphFormatError(line_no, "endpoints must be natural numbers")
    if u == v:
        raise GraphFormatError(line_no, f"self-loop at vertex {u}")
    if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
        raise GraphFormatError(line_no, f"vertex id out of range 1..{vertex_count}")
    return edge(u - 1, v - 1)


def parse_graph_file(text: str) -> tuple[int, frozenset[Edge]]:
    """Parse the DIMACS edge dialect, whitespace-tolerantly, into the declared
    vertex count and the graph with 0-based ids; duplicate edges collapse.
    The declared edge count must be a natural number and is otherwise
    ignored."""
    vertex_count: int | None = None
    edges: set[Edge] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        kind = tokens[0]
        if kind == "p":
            if vertex_count is not None:
                raise GraphFormatError(line_no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise GraphFormatError(line_no, "expected 'p edge <vertices> <edges>'")
            try:
                vertex_count = parse_natural(tokens[2])
                parse_natural(tokens[3])
            except ValueError:
                raise GraphFormatError(line_no, "problem line counts must be natural numbers")
        elif kind == "e":
            if vertex_count is None:
                raise GraphFormatError(line_no, "edge line before the problem line")
            edges.add(_endpoints(line_no, tokens, vertex_count))
        else:
            raise GraphFormatError(line_no, f"unknown line type {kind!r}")
    if vertex_count is None:
        raise GraphFormatError(0, "missing 'p edge' problem line")
    return vertex_count, frozenset(edges)


def parse_matching_file(text: str, vertex_count: int) -> frozenset[Edge]:
    """Parse ``m <u> <v>`` lines into an internal 0-based edge set; ``c``
    comments and the ``s`` size line are tolerated."""
    pairs: set[Edge] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] in ("c", "s"):
            continue
        if tokens[0] != "m":
            raise GraphFormatError(line_no, "expected 'm <u> <v>'")
        pairs.add(_endpoints(line_no, tokens, vertex_count))
    return frozenset(pairs)


def _load(path: str, parse: Callable[[str], T], err: TextIO) -> T | None:
    """Read, decode and parse one input file. A failure is reported on one
    line naming the file, and gives None."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=err)
        return None
    try:
        return parse(text)
    except ValueError as exc:
        print(f"error: {path}: {exc}", file=err)
        return None


def _print_matching(matching: frozenset[Edge], out: TextIO) -> None:
    print(f"s {len(matching)}", file=out)
    for a, b in sorted(matching):
        print(f"m {a + 1} {b + 1}", file=out)


def _internal_error(exc: Exception, err: TextIO) -> int:
    """Report an unexpected exception on one line, without a traceback."""
    message = " ".join(str(exc).split())
    print(f"internal error: {type(exc).__name__}: {message}", file=err)
    return EXIT_INTERNAL


def run_solve(
    graph_path: str,
    certificate_path: str | None = None,
    trace: bool = False,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Solve a graph file and print the maximum matching in ``s``/``m`` form.

    With a certificate path, the odd set cover read off the solve's last
    phase, the one that failed to augment, is written there: ``s`` lines
    only, a cover of the input graph with no contraction history. It is
    written before the matching is printed, so a failed write leaves
    standard output empty. With trace enabled, one ``grow``, ``found`` or
    ``skip`` record per edge the solve examines goes to standard error, with
    the input's vertex ids shifted to 0-based.
    Any unexpected exception ends in exit code 3 and one line of error.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    loaded = _load(graph_path, parse_graph_file, err)
    if loaded is None:
        return EXIT_PARSE
    _, g = loaded
    tracer = (lambda line: print(line, file=err)) if trace else None
    try:
        matching, certificate = _solve(g, tracer)
        if certificate_path is not None:
            certificate_text = format_certificate((), certificate().cover, offset=1)
    except Exception as exc:  # any failure of the solver is an internal error
        return _internal_error(exc, err)
    if certificate_path is not None:
        try:
            with open(certificate_path, "w", encoding="utf-8") as handle:
                handle.write(certificate_text)
        except OSError as exc:
            print(f"error: cannot write {certificate_path}: {exc}", file=err)
            return EXIT_PARSE
    _print_matching(matching, out)
    return EXIT_OK


def run_verify(
    graph_path: str,
    matching_path: str,
    certificate_path: str | None = None,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Check a matching file against a graph file, and optionally a
    certificate of maximality, with ``verify_certificate``; prints its report.
    Every file is loaded before the report starts, so a file that fails to
    load leaves standard output empty. An unexpected exception from the
    verifier ends in exit code 3 and one line of error."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    loaded = _load(graph_path, parse_graph_file, err)
    if loaded is None:
        return EXIT_PARSE
    vertex_count, g = loaded
    matching = _load(matching_path, lambda text: parse_matching_file(text, vertex_count), err)
    if matching is None:
        return EXIT_PARSE
    steps, cover = [], frozenset()
    if certificate_path is not None:
        parsed = _load(certificate_path, lambda text: parse_certificate(text, offset=1), err)
        if parsed is None:
            return EXIT_PARSE
        steps, cover = parsed
    try:
        report, problems = verify_certificate(g, matching, steps, cover)
    except Exception as exc:  # any failure of the verifier is an internal error
        return _internal_error(exc, err)
    print(f"matching: {len(matching)} edges", file=out)
    print(f"pairwise vertex-disjoint: {'yes' if report.matching_ok else 'no'}", file=out)
    print(f"contained in the graph: {'yes' if report.subset_ok else 'no'}", file=out)
    ok = report.matching_ok and report.subset_ok
    if certificate_path is not None:
        print(f"contractions replayed: {len(steps)}", file=out)
        for problem in problems:
            print(f"certificate problem: {problem}", file=out)
        print(f"cover sets: {len(cover)}", file=out)
        print(f"cover valid: {'yes' if report.cover_ok else 'no'}", file=out)
        print(
            f"cover capacity {report.capacity} vs matching size {report.matching_size}",
            file=out,
        )
        ok = report.verdict and not problems
        print(f"maximality certified: {'yes' if ok else 'no'}", file=out)
    print(f"verdict: {'ok' if ok else 'FAIL'}", file=out)
    return EXIT_OK if ok else EXIT_VERIFY


def run_oracle(
    graph_path: str, out: TextIO | None = None, err: TextIO | None = None
) -> int:
    """Solve a graph file by brute force and print the result in ``s``/``m``
    form; refuses inputs beyond the exhaustive-search limits."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    loaded = _load(graph_path, parse_graph_file, err)
    if loaded is None:
        return EXIT_PARSE
    _, g = loaded
    try:
        matching = brute_force_maximum_matching(g)
    except OracleLimitError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ORACLE_LIMIT
    _print_matching(matching, out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blossom",
        description="Maximum-cardinality matching in general graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a maximum matching")
    solve.add_argument("graph", help="graph file in DIMACS edge format")
    solve.add_argument(
        "--certificate",
        metavar="PATH",
        help="write an odd-set-cover maximality certificate to PATH",
    )
    solve.add_argument(
        "--trace",
        action="store_true",
        help="stream one search record per examined edge to standard error "
        "(0-based vertex ids)",
    )
    solve.add_argument(
        "--seed",
        type=int,
        default=None,
        help="reserved; the solver is deterministic and ignores it",
    )

    verify = sub.add_parser("verify", help="check a matching and optional certificate")
    verify.add_argument("graph", help="graph file in DIMACS edge format")
    verify.add_argument("matching", help="matching file with 'm <u> <v>' lines")
    verify.add_argument("certificate", nargs="?", help="certificate file to check")

    oracle = sub.add_parser("oracle", help="solve small inputs by brute force")
    oracle.add_argument("graph", help="graph file in DIMACS edge format")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1 (exit 2 means a failed check)
        return EXIT_PARSE if exc.code else EXIT_OK
    if args.command == "solve":
        return run_solve(args.graph, args.certificate, args.trace)
    if args.command == "verify":
        return run_verify(args.graph, args.matching, args.certificate)
    return run_oracle(args.graph)


if __name__ == "__main__":
    sys.exit(main())
