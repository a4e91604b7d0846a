import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import blossom
from blossom import (
    ContractionStep,
    brute_force_maximum_matching,
    certify_maximality,
    find_maximum_matching,
    format_certificate,
    graph,
    is_matching,
    parse_certificate,
)
from blossom.cli import (
    EXIT_OK,
    EXIT_ORACLE_LIMIT,
    EXIT_PARSE,
    EXIT_VERIFY,
    GraphFormatError,
    main,
    parse_graph_file,
    parse_matching_file,
    run_oracle,
    run_solve,
    run_verify,
)
from support import (
    DEMO7,
    DEMO12,
    DEMO12_MATCHING,
    INTERLEAVED_400,
    TRIANGLE,
    count_phases,
    dimacs,
    k_pairs,
    random_graph,
    reference_certificate,
    sparse_graph,
)

DEMO12_TEXT = dimacs(12, DEMO12)
DEMO7_TEXT = dimacs(7, DEMO7)
TRIANGLE_TEXT = dimacs(3, TRIANGLE)


def test_parse_graph_file():
    assert parse_graph_file("p edge 2 1\ne 1 2\n") == (2, graph([(0, 1)]))
    # the declared edge count is checked but not compared with the e lines
    assert parse_graph_file("p edge 3 7\ne 1 2\n") == (3, graph([(0, 1)]))


def test_parse_is_whitespace_tolerant_and_collapses_duplicates():
    parsed = parse_graph_file("c header\n\n  p   edge  4 3\ne 2 1\nc mid\ne 1   2\ne 3 4\n")
    assert parsed == (4, graph([(0, 1), (2, 3)]))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        parse_graph_file("p edge 3 1\ne 3 3\n")
    assert err.value.line_no == 2 and "self-loop" in str(err.value)
    for text in ("p edge x 1\n", "p edge 2 x\n", "p edge 2 -1\n"):
        with pytest.raises(GraphFormatError) as err:
            parse_graph_file(text)
        assert err.value.line_no == 1
    with pytest.raises(GraphFormatError):
        parse_graph_file("p edge 2 1\ne 1 5\n")
    with pytest.raises(GraphFormatError):
        parse_graph_file("e 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph_file("p edge 2 1\nz 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph_file("c nothing else\n")


def test_graph_file_round_trip():
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, 0.5) if n else frozenset()
        assert parse_graph_file(dimacs(n, g)) == (n, graph((a - 1, b - 1) for a, b in g))


def test_parse_matching_file():
    m = parse_matching_file("s 2\nm 1 2\nc x\nm 3 4\n", 4)
    assert m == graph([(0, 1), (2, 3)])
    with pytest.raises(GraphFormatError):
        parse_matching_file("m 1 1\n", 3)
    with pytest.raises(GraphFormatError):
        parse_matching_file("m 1 9\n", 3)
    with pytest.raises(GraphFormatError):
        parse_matching_file("match 1 2\n", 3)


# Each is a number to Python's int() but not a natural number in ASCII digits.
NOT_ASCII_DIGITS = ["1_0", "+1", "-0", "\uff13", "\u0663", "\u00b2"]


def test_numbers_are_ascii_digits_only():
    with pytest.raises(GraphFormatError):
        parse_graph_file("p edge 1_0 0\ne \uff13 +1\n")
    for token in NOT_ASCII_DIGITS:
        for text in (f"p edge {token} 0\n", f"p edge 20 {token}\n", f"p edge 20 1\ne {token} 2\n"):
            with pytest.raises(GraphFormatError):
                parse_graph_file(text)
        for text in (f"m {token} 2\n", f"s 1\nm 2 {token}\n"):
            with pytest.raises(GraphFormatError):
                parse_matching_file(text, 20)
        for text in (f"s 1 {token} 3\n", f"x {token} 0 1 2 3 1\n", f"x 9 {token} 1 2 3 1\n"):
            with pytest.raises(ValueError):
                parse_certificate(text, offset=1)


def _solve(tmp_path, text, *, certificate=False, trace=False):
    gpath = tmp_path / "graph.txt"
    gpath.write_text(text)
    cpath = tmp_path / "cert.txt" if certificate else None
    out, err = io.StringIO(), io.StringIO()
    code = run_solve(
        str(gpath),
        str(cpath) if cpath else None,
        trace=trace,
        out=out,
        err=err,
    )
    return code, out.getvalue(), err.getvalue(), cpath


def test_solve_outputs_sorted_matching(tmp_path):
    code, out, err, _ = _solve(tmp_path, DEMO12_TEXT)
    lines = out.splitlines()
    assert code == EXIT_OK
    assert lines[0] == "s 5"
    assert len(lines) == 6
    assert lines[1:] == sorted(lines[1:], key=lambda l: [int(t) for t in l.split()[1:]])
    assert all(line.startswith("m ") for line in lines[1:])


def test_solve_empty_graph(tmp_path):
    code, out, _, _ = _solve(tmp_path, "p edge 0 0\n")
    assert code == EXIT_OK and out == "s 0\n"


def test_solve_seven_vertex_fixture(tmp_path):
    code, out, _, _ = _solve(tmp_path, DEMO7_TEXT)
    assert code == EXIT_OK and out.splitlines()[0] == "s 3"


def test_solve_reports_parse_errors(tmp_path):
    code, out, err, _ = _solve(tmp_path, "p edge 2 1\ne 1 1\n")
    assert code == EXIT_PARSE and "self-loop" in err
    code, out, err, _ = _solve(tmp_path, "p edge 2 1\np edge 2 1\ne 1 2\n")
    assert code == EXIT_PARSE and out == ""
    assert err == f"error: {tmp_path / 'graph.txt'}: line 2: duplicate problem line\n"
    out_io, err_io = io.StringIO(), io.StringIO()
    assert run_solve(str(tmp_path / "missing.txt"), out=out_io, err=err_io) == EXIT_PARSE


def test_solve_trace_streams_search_records(tmp_path):
    code, _, err, _ = _solve(tmp_path, DEMO7_TEXT, trace=True)
    assert code == EXIT_OK
    records = [line for line in err.splitlines() if line]
    assert records
    assert all(line.split()[0] in ("grow", "found", "skip") for line in records)


def test_solve_interleaved_odd_cycle(tmp_path):
    text = dimacs(1601, [(u + 1, v + 1) for u, v in INTERLEAVED_400])
    code, out, err, _ = _solve(tmp_path, text)
    assert code == EXIT_OK, err
    assert out.splitlines()[0] == "s 800"


def test_solve_certificate_then_verify(tmp_path):
    code, out, _, cpath = _solve(tmp_path, DEMO12_TEXT, certificate=True)
    assert code == EXIT_OK
    cert_text = cpath.read_text()
    assert cert_text.splitlines()[0].startswith("c ")
    # a flat cover of the input graph: nothing to replay
    assert not any(line.startswith("x ") for line in cert_text.splitlines())
    mpath = tmp_path / "matching.txt"
    mpath.write_text(out)
    out_io, err_io = io.StringIO(), io.StringIO()
    code = run_verify(
        str(tmp_path / "graph.txt"), str(mpath), str(cpath), out=out_io, err=err_io
    )
    assert code == EXIT_OK
    assert "contractions replayed: 0" in out_io.getvalue()
    assert "maximality certified: yes" in out_io.getvalue()


def test_solve_certificate_reads_the_last_phase_once(tmp_path, monkeypatch):
    calls = count_phases(monkeypatch)
    sparse = sparse_graph(random.Random(72), 300, 3)
    for text in (DEMO12_TEXT, dimacs(300, {(a + 1, b + 1) for a, b in sparse})):
        _, g = parse_graph_file(text)
        calls.clear()
        m = find_maximum_matching(g)
        solve_phases = len(calls)
        calls.clear()
        code, out, _, cpath = _solve(tmp_path, text, certificate=True)
        assert code == EXIT_OK
        assert len(calls) == solve_phases
        assert out.splitlines()[0] == f"s {len(m)}"
        cert = certify_maximality(g, m)
        assert cpath.read_text() == format_certificate(cert.contractions, cert.cover, offset=1)


def test_verify_replays_contraction_lines(tmp_path):
    # x lines stay part of the format even though solve no longer writes them
    cert = reference_certificate(DEMO12, DEMO12_MATCHING)
    (tmp_path / "g.txt").write_text(DEMO12_TEXT)
    (tmp_path / "m.txt").write_text("m 1 2\nm 3 4\nm 5 6\nm 7 8\nm 9 10\n")
    # DEMO12_TEXT keeps the fixture's ids, which are 1-based already
    (tmp_path / "c.txt").write_text(format_certificate(cert.contractions, cert.cover))
    paths = [tmp_path / name for name in ("g.txt", "m.txt", "c.txt")]
    code, out, _ = _run("verify", paths)
    assert code == EXIT_OK
    assert "contractions replayed: 2" in out
    assert "maximality certified: yes" in out
    # tampered: the first contraction's fresh vertex is already in the graph
    step = cert.contractions[0]
    clash = [ContractionStep(step.stem, step.cycle, 11), *cert.contractions[1:]]
    (tmp_path / "c.txt").write_text(format_certificate(clash, cert.cover))
    code, out, err = _run("verify", paths)
    assert code == EXIT_VERIFY and err == ""
    problems = [line for line in out.splitlines() if line.startswith("certificate problem: ")]
    assert problems == ["certificate problem: contraction 1: its target already occurs in the graph"]
    assert "maximality certified: no" in out and out.endswith("verdict: FAIL\n")


def test_unwritable_certificate_path_prints_nothing(tmp_path):
    (tmp_path / "graph.txt").write_text(DEMO12_TEXT)
    cpath = tmp_path / "missing" / "cert.txt"
    code, out, err = _run("solve", [tmp_path / "graph.txt", cpath])
    assert code == EXIT_PARSE and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {cpath}: ")


def test_certificates_without_contractions_round_trip(tmp_path):
    # bipartite input: the failing search needs no contraction at all
    (tmp_path / "graph.txt").write_text("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    code, out, _, cpath = _solve(tmp_path, (tmp_path / "graph.txt").read_text(), certificate=True)
    assert code == EXIT_OK
    assert not any(line.startswith("x ") for line in cpath.read_text().splitlines())
    (tmp_path / "m.txt").write_text(out)
    code = run_verify(
        str(tmp_path / "graph.txt"),
        str(tmp_path / "m.txt"),
        str(cpath),
        out=io.StringIO(),
        err=io.StringIO(),
    )
    assert code == EXIT_OK


def test_certificate_for_empty_graph(tmp_path):
    code, out, _, cpath = _solve(tmp_path, "p edge 0 0\n", certificate=True)
    assert code == EXIT_OK and out == "s 0\n"
    (tmp_path / "m.txt").write_text(out)
    code = run_verify(
        str(tmp_path / "graph.txt"),
        str(tmp_path / "m.txt"),
        str(cpath),
        out=io.StringIO(),
        err=io.StringIO(),
    )
    assert code == EXIT_OK


def test_internal_errors_exit_three(tmp_path, monkeypatch):
    import blossom.cli as cli
    from blossom import InvariantViolation

    def boom(g, trace):
        raise InvariantViolation("induced for the test")

    monkeypatch.setattr(cli, "_solve", boom)
    (tmp_path / "g.txt").write_text(TRIANGLE_TEXT)
    out, err = io.StringIO(), io.StringIO()
    assert run_solve(str(tmp_path / "g.txt"), out=out, err=err) == 3
    assert "internal error" in err.getvalue()


@pytest.mark.parametrize("target", ["_solve", "verify_certificate"])
def test_unexpected_errors_exit_three_on_one_line(tmp_path, monkeypatch, target):
    import blossom.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("induced\nfor the test")

    monkeypatch.setattr(cli, target, boom)
    (tmp_path / "g.txt").write_text(TRIANGLE_TEXT)
    (tmp_path / "m.txt").write_text("s 1\nm 1 2\n")
    (tmp_path / "c.txt").write_text("s 1 2 3\n")
    out, err = io.StringIO(), io.StringIO()
    if target == "_solve":
        code = run_solve(str(tmp_path / "g.txt"), out=out, err=err)
    else:
        code = run_verify(
            str(tmp_path / "g.txt"),
            str(tmp_path / "m.txt"),
            str(tmp_path / "c.txt"),
            out=out,
            err=err,
        )
    assert code == 3
    assert err.getvalue().splitlines() == ["internal error: RuntimeError: induced for the test"]


def test_solve_under_python_optimize(tmp_path):
    # -O strips assert statements; the engine's own checks must not depend on them
    src = Path(blossom.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    cycle = [(u + 1, v + 1) for u, v in INTERLEAVED_400]
    g, m, c = (str(tmp_path / name) for name in ("g.txt", "m.txt", "c.txt"))
    for text, size in ((DEMO12_TEXT, 5), (dimacs(1601, cycle), 800)):
        (tmp_path / "g.txt").write_text(text)
        done = subprocess.run(
            [sys.executable, "-O", "-m", "blossom.cli", "solve", g, "--certificate", c],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == f"s {size}"
        (tmp_path / "m.txt").write_text(done.stdout)
        done = subprocess.run(
            [sys.executable, "-O", "-m", "blossom.cli", "verify", g, m, c],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "maximality certified: yes" in done.stdout


def test_verify_single_edge_with_singleton_cover(tmp_path):
    (tmp_path / "g.txt").write_text("p edge 2 1\ne 1 2\n")
    (tmp_path / "m.txt").write_text("s 1\nm 1 2\n")
    (tmp_path / "c.txt").write_text("s 1\n")
    out, err = io.StringIO(), io.StringIO()
    code = run_verify(
        str(tmp_path / "g.txt"),
        str(tmp_path / "m.txt"),
        str(tmp_path / "c.txt"),
        out=out,
        err=err,
    )
    assert code == EXIT_OK


def test_verify_rejects_non_matchings(tmp_path):
    (tmp_path / "g.txt").write_text(TRIANGLE_TEXT)
    (tmp_path / "m.txt").write_text("m 1 2\nm 2 3\n")
    out, err = io.StringIO(), io.StringIO()
    code = run_verify(str(tmp_path / "g.txt"), str(tmp_path / "m.txt"), out=out, err=err)
    assert code == EXIT_VERIFY
    assert "pairwise vertex-disjoint: no" in out.getvalue()


def test_verify_rejects_edges_outside_graph(tmp_path):
    (tmp_path / "g.txt").write_text("p edge 4 2\ne 1 2\ne 3 4\n")
    (tmp_path / "m.txt").write_text("m 1 3\n")
    out, err = io.StringIO(), io.StringIO()
    code = run_verify(str(tmp_path / "g.txt"), str(tmp_path / "m.txt"), out=out, err=err)
    assert code == EXIT_VERIFY


def test_verify_accepts_valid_matching_without_certificate(tmp_path):
    (tmp_path / "g.txt").write_text(DEMO12_TEXT)
    (tmp_path / "m.txt").write_text("m 1 2\nm 3 4\nm 5 6\nm 7 8\nm 9 10\n")
    out, err = io.StringIO(), io.StringIO()
    code = run_verify(str(tmp_path / "g.txt"), str(tmp_path / "m.txt"), out=out, err=err)
    assert code == EXIT_OK


def test_oracle_subcommand(tmp_path):
    (tmp_path / "g.txt").write_text(TRIANGLE_TEXT)
    out, err = io.StringIO(), io.StringIO()
    assert run_oracle(str(tmp_path / "g.txt"), out=out, err=err) == EXIT_OK
    assert out.getvalue().splitlines()[0] == "s 1"

    (tmp_path / "g7.txt").write_text(DEMO7_TEXT)
    out = io.StringIO()
    assert run_oracle(str(tmp_path / "g7.txt"), out=out, err=io.StringIO()) == EXIT_OK
    assert out.getvalue().splitlines()[0] == "s 3"


def test_oracle_refuses_oversized_inputs(tmp_path):
    dense30 = dimacs(30, k_pairs(30))
    (tmp_path / "g.txt").write_text(dense30)
    out, err = io.StringIO(), io.StringIO()
    code = run_oracle(str(tmp_path / "g.txt"), out=out, err=err)
    assert code == EXIT_ORACLE_LIMIT
    assert "16" in err.getvalue() and "24" in err.getvalue()


def test_solve_and_oracle_agree(tmp_path):
    rng = random.Random(72)
    for i in range(20):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, 0.5)
        (tmp_path / f"g{i}.txt").write_text(dimacs(n, g))
        solve_out, oracle_out = io.StringIO(), io.StringIO()
        assert run_solve(str(tmp_path / f"g{i}.txt"), out=solve_out, err=io.StringIO()) == EXIT_OK
        assert run_oracle(str(tmp_path / f"g{i}.txt"), out=oracle_out, err=io.StringIO()) == EXIT_OK
        assert solve_out.getvalue().splitlines()[0] == oracle_out.getvalue().splitlines()[0]


def test_main_dispatch(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text(TRIANGLE_TEXT)
    assert main(["solve", str(gpath)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "s 1"
    assert main(["oracle", str(gpath)]) == EXIT_OK
    capsys.readouterr()
    mpath = tmp_path / "m.txt"
    mpath.write_text("m 1 2\n")
    assert main(["verify", str(gpath), str(mpath)]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", str(gpath), "--seed", "7"]) == EXIT_OK


@pytest.mark.parametrize("argv", [[], ["solve"], ["frob", "x"], ["solve", "g.txt", "--seed", "x"]])
def test_usage_errors_exit_one(argv, capsys):
    # exit 2 is reserved for a failed verification
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: blossom" in captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["verify", "--help"]) == EXIT_OK
    assert "usage: blossom" in capsys.readouterr().out


def _run(command, paths):
    out, err = io.StringIO(), io.StringIO()
    runner = {"solve": run_solve, "verify": run_verify, "oracle": run_oracle}[command]
    code = runner(*(str(p) for p in paths), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "command, bad",
    [("solve", 0), ("oracle", 0), ("verify", 0), ("verify", 1), ("verify", 2)],
)
def test_non_utf8_input_is_one_line_naming_the_file(tmp_path, command, bad):
    texts = [TRIANGLE_TEXT, "s 1\nm 1 2\n", "s 1 2 3\n"]
    paths = [tmp_path / name for name in ("g.txt", "m.txt", "c.txt")]
    for i, (path, text) in enumerate(zip(paths, texts)):
        path.write_bytes(text.encode() + (b"c \xff\xfe\n" if i == bad else b""))
    code, out, err = _run(command, paths if command == "verify" else paths[:1])
    assert code == EXIT_PARSE
    assert out == ""  # nothing is reported before every file has loaded
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read {paths[bad]}: ")


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_verify_parse_errors_name_the_file(tmp_path, bad):
    texts = [TRIANGLE_TEXT, "s 1\nm 1 2\n", "s 1 2 3\n"]
    broken = ["p edge 3 1\ne 1 1\n", "s 1\nc two lines in\nm 1 9\n", "s 1 two\n"]
    paths = [tmp_path / name for name in ("g.txt", "m.txt", "c.txt")]
    for i, path in enumerate(paths):
        path.write_text(broken[i] if i == bad else texts[i])
    code, out, err = _run("verify", paths)
    assert code == EXIT_PARSE
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {paths[bad]}: line ")


def _mutate(rng: random.Random, text: str) -> bytes:
    """One to three token drops, duplications or swaps, or stray bytes.
    Tokens are split on single spaces, so line breaks stay attached to their
    neighbours, and a drop or swap can also merge or split lines."""
    data = text.encode()
    for _ in range(rng.randint(1, 3)):
        tokens = data.split(b" ")
        kind = rng.randrange(4)
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        if kind == 0:
            del tokens[i]
        elif kind == 1:
            tokens.insert(i, tokens[i])
        elif kind == 2:
            tokens[i], tokens[j] = tokens[j], tokens[i]
        data = b" ".join(tokens)
        if kind == 3:
            at = rng.randrange(len(data) + 1)
            data = data[:at] + rng.randbytes(rng.randint(1, 3)) + data[at:]
    return data


def test_fuzzed_inputs_never_escape(tmp_path):
    code, matching_text, _, cpath = _solve(tmp_path, DEMO12_TEXT, certificate=True)
    assert code == EXIT_OK
    # the flat certificate solve writes alternates with DEMO12's reference
    # certificate, so x lines get fuzzed too; DEMO12's ids are 1-based already
    cert = reference_certificate(DEMO12, DEMO12_MATCHING)
    reference_matching = "s 5\n" + "".join(f"m {a} {b}\n" for a, b in sorted(DEMO12_MATCHING))
    pairs = [
        (matching_text, cpath.read_text()),
        (reference_matching, format_certificate(cert.contractions, cert.cover)),
    ]
    paths = [tmp_path / name for name in ("g.txt", "m.txt", "c.txt")]
    rng = random.Random(73)
    codes = set()
    maximum = {}
    for trial in range(2000):
        bad = trial % 3
        texts = [DEMO12_TEXT, *pairs[trial % 2]]
        for i, path in enumerate(paths):
            path.write_bytes(_mutate(rng, texts[i]) if i == bad else texts[i].encode())
        for command, args in (
            ("solve", [paths[0], tmp_path / "out.txt"]),
            ("verify", paths),
        ):
            code, _, err = _run(command, args)
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_VERIFY), (trial, command, err)
            assert len(err.splitlines()) <= 1, (trial, command, err)
            codes.add(code)
        if code == EXIT_OK:  # verify passed: the matching must be maximum
            vertex_count, g = parse_graph_file(paths[0].read_text())
            m = parse_matching_file(paths[1].read_text(), vertex_count)
            if g not in maximum:
                maximum[g] = len(brute_force_maximum_matching(g))
            assert is_matching(m) and m <= g and len(m) == maximum[g], trial
    assert codes == {EXIT_OK, EXIT_PARSE, EXIT_VERIFY}
