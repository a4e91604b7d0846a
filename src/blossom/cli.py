"""Command-line front end: DIMACS-style graph files and the solve, verify,
and oracle subcommands.

Graph files use the DIMACS edge dialect: ``c`` comment lines, one
``p edge <vertices> <edges>`` header, and ``e <u> <v>`` lines with 1-based
vertex ids. Matchings are written as ``m <u> <v>`` lines preceded by an
``s <size>`` line. Every number is written in ASCII decimal digits, with no
sign; a number that is read has at most 4,300 digits after its leading
zeros. Lines end at a line feed only. Vertex ids are 1-based in every file;
internally they are shifted down by one. Every input file is read, decoded
and parsed by one loader, which reports a failure on one line naming the
file (exit code 1); a failed write to standard output is one line too.
"""

from __future__ import annotations

import argparse
import contextlib
import os
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
from .solver import certify_maximality, find_maximum_matching

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
    except OverflowError:  # past any vertex count a problem line can declare
        raise GraphFormatError(line_no, f"vertex id out of range 1..{vertex_count}")
    if u == v:
        raise GraphFormatError(line_no, f"self-loop at vertex {u}")
    if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
        raise GraphFormatError(line_no, f"vertex id out of range 1..{vertex_count}")
    return edge(u - 1, v - 1)


def parse_graph_file(text: str) -> tuple[int, frozenset[Edge]]:
    """Parse the DIMACS edge dialect, whitespace-tolerantly, into the declared
    vertex count and the graph with 0-based ids; duplicate edges collapse.
    The declared edge count must be a natural number and is otherwise
    ignored. The lines are read once, and the first fault is reported. An
    ``e`` line in ASCII whose ids have no more digits than the vertex count
    is checked inline, with no call per edge; any other line, or one that
    the inline check doubts, goes through the checks that name its fault.
    So no id longer than the vertex count reaches ``int()``, whose time
    grows with the square of the length when the digit limit is off."""
    vertex_count = -1
    width = 0  # the vertex count's digits; no e line is inline before the p line
    edges: set[Edge] = set()
    add = edges.add
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if len(tokens) == 3 and tokens[0] == "e" and raw.isascii():
            u, v = tokens[1], tokens[2]
            if len(u) <= width and len(v) <= width and u.isdigit() and v.isdigit():
                a, b = int(u) - 1, int(v) - 1
                if a > b:
                    a, b = b, a
                if 0 <= a < b < vertex_count:
                    add((a, b))
                    continue
        if not tokens or tokens[0] == "c":
            continue
        kind = tokens[0]
        if kind == "p":
            if vertex_count >= 0:
                raise GraphFormatError(line_no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise GraphFormatError(line_no, "expected 'p edge <vertices> <edges>'")
            try:
                vertex_count = parse_natural(tokens[2])
                parse_natural(tokens[3])
                width = len(str(vertex_count))
            except ValueError:
                raise GraphFormatError(line_no, "problem line counts must be natural numbers")
            except OverflowError as exc:
                raise GraphFormatError(line_no, str(exc))
        elif kind == "e":
            if vertex_count < 0:
                raise GraphFormatError(line_no, "edge line before the problem line")
            add(_endpoints(line_no, tokens, vertex_count))
        else:
            raise GraphFormatError(line_no, f"unknown line type {kind!r}")
    if vertex_count < 0:
        raise GraphFormatError(0, "missing 'p edge' problem line")
    return vertex_count, frozenset(edges)


def parse_matching_file(text: str, vertex_count: int) -> frozenset[Edge]:
    """Parse ``m <u> <v>`` lines into an internal 0-based edge set; ``c``
    comments and ``s <size>`` lines are tolerated. The size is not compared
    with the ``m`` lines."""
    pairs: set[Edge] = set()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "s":
            if len(tokens) != 2 or not (tokens[1].isascii() and tokens[1].isdigit()):
                raise GraphFormatError(line_no, "expected 's <size>'")
        elif tokens[0] != "m":
            raise GraphFormatError(line_no, "expected 'm <u> <v>'")
        else:
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


def _silence(stream: TextIO) -> None:
    """Point a stream whose write failed at the null device, so that what it
    still buffers is dropped at exit instead of failing there again."""
    with contextlib.suppress(OSError, ValueError):  # a stream with no descriptor
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


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

    With a certificate path, ``certify_maximality`` of the solve's own
    matching is written there, which reads the cover that the solve's stop
    rule picked: a flat odd set cover of the input graph in ``s`` lines, with
    no contraction history. It is written before the matching is printed,
    so a failed write leaves standard output empty. Without one, the solve
    stays in the library's slot (see ``find_maximum_matching``) until the
    next solve or certify call, or the end of the process.
    With trace enabled, one ``grow``, ``found`` or ``skip`` record per edge
    a phase of the solve examines goes to standard error, with the input's
    vertex ids shifted to 0-based; a phase that certify runs is not traced.
    A trace write that fails stops the trace, not the solve: the certificate
    and the matching are still written, and the exit code is 1.
    Any unexpected exception ends in exit code 3 and one line of error.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    loaded = _load(graph_path, parse_graph_file, err)
    if loaded is None:
        return EXIT_PARSE
    _, g = loaded
    trace_failed = False

    def tracer(line: str) -> None:
        nonlocal trace_failed
        if not trace_failed:
            try:
                print(line, file=err)
            except OSError:  # the trace stops; the solve and its output go on
                trace_failed = True
                _silence(err)

    try:
        matching = find_maximum_matching(g, trace=tracer if trace else None)
        if certificate_path is not None:
            cover = certify_maximality(g, matching).cover
            certificate_text = format_certificate((), cover, offset=1)
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
    return EXIT_PARSE if trace_failed else EXIT_OK


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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of the help text raises
    instead of being dropped, so ``--help`` reports it like any subcommand."""

    def print_help(self, file: TextIO | None = None) -> None:
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
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
        help="stream one search record per edge a phase examines to standard "
        "error (0-based vertex ids)",
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
        if args.command == "solve":
            code = run_solve(args.graph, args.certificate, args.trace)
        elif args.command == "verify":
            code = run_verify(args.graph, args.matching, args.certificate)
        else:
            code = run_oracle(args.graph)
        sys.stdout.flush()
    except SystemExit as exc:  # usage errors exit 1 (exit 2 means a failed check)
        return EXIT_PARSE if exc.code else EXIT_OK
    except OSError as exc:  # the subcommands catch their own file errors
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        _silence(sys.stdout)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
