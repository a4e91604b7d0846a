import importlib.util
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_refuses_one_tree_on_both_sides(tmp_path, monkeypatch, capsys):
    # a change that is not committed yet leaves --change HEAD on the
    # parent's tree, and timing a tree against itself looks like a record
    bench_pairs = load("bench_pairs")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    (tmp_path / "a").write_text("a\n")
    subprocess.run([*git, "add", "a"], check=True)
    for _ in range(2):
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "c"], check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)

    def refuse(*args):
        raise AssertionError("bench_pairs ran a side")

    monkeypatch.setattr(bench_pairs, "export", refuse)
    monkeypatch.setattr(bench_pairs, "bench", refuse)
    for parent in ("HEAD", "HEAD~1"):
        assert bench_pairs.main(["--parent", parent, "--change", "HEAD", "--pr", "0"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --parent {parent} and --change HEAD have the same tree\n"
    # two trees go on to the export
    (tmp_path / "a").write_text("b\n")
    subprocess.run([*git, "commit", "-q", "-am", "c"], check=True)
    with pytest.raises(AssertionError, match="^bench_pairs ran a side$"):
        bench_pairs.main(["--parent", "HEAD~1", "--change", "HEAD", "--pr", "0"])
    assert not (tmp_path / "BENCH_0.json").exists()


def test_bench_pairs_cleans_up_when_terminated(tmp_path):
    # each side's bench/run.py writes its pid and sleeps; a SIGTERM while it
    # runs must kill it and remove both exports
    repo, temp, pid_file = tmp_path / "repo", tmp_path / "tmp", tmp_path / "pid"
    repo.mkdir()
    temp.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    (repo / "bench").mkdir()
    (repo / "bench" / "run.py").write_text(
        f"import os, pathlib, time\npathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))"
        "\ntime.sleep(120)\n"
    )
    for text in ("a\n", "b\n"):
        (repo / "a").write_text(text)
        subprocess.run([*git, "add", "-A"], check=True)
        subprocess.run([*git, "commit", "-q", "-m", "c"], check=True)
    tool = str(TOOLS / "bench_pairs.py")
    script = (
        "import importlib.util, sys, tempfile\n"
        f"spec = importlib.util.spec_from_file_location('bench_pairs', {tool!r})\n"
        "bench_pairs = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(bench_pairs)\n"
        f"bench_pairs.ROOT = bench_pairs.Path({str(repo)!r})\n"
        f"tempfile.tempdir = {str(temp)!r}\n"
        "sys.exit(bench_pairs.main(['--parent', 'HEAD~1', '--pr', '0']))\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script], stderr=subprocess.PIPE, text=True)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() or not pid_file.read_text():
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert len(list(temp.iterdir())) == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(temp.iterdir()) == []
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
    finally:
        proc.kill()
        proc.wait()
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert not (repo / "BENCH_0.json").exists()


def test_output_digests_prints_one_digest_per_workload():
    # which maximum matching the engine returns is not part of the contract,
    # so no digest value is pinned: the tool runs and prints one per workload
    done = subprocess.run(
        [sys.executable, str(TOOLS / "output_digests.py"), "--seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"\w+ 1 [0-9a-f]{64}", line) for line in lines), lines
    names = [line.split()[0] for line in lines]
    assert names == ["dense_blossoms", "long_paths", "certificates", "small_batch"]


def test_certify_paths_prints_both_paths_per_workload_and_seed(capsys):
    # host speed varies, so no time is pinned: one line per seed and
    # workload, in order, with a time for each path
    certify_paths = load("certify_paths")
    assert certify_paths.main(["--seed", "1", "--seed", "97", "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    number = r"\d+\.\d{3}"
    assert all(re.fullmatch(rf"\w+ \d+ memo_ms {number} full_ms {number}", line) for line in lines)
    workloads = ["dense_blossoms", "long_paths", "certificates", "small_batch"]
    assert [line.split()[:2] for line in lines] == [
        [w, seed] for seed in ("1", "97") for w in workloads
    ]
    with pytest.raises(SystemExit):
        certify_paths.main(["--passes", "0"])


def test_bench_history_prints_each_records_drift(capsys):
    # runs on the committed records; no value is pinned, only that a line
    # chains each record's change to parent ratio as documented
    bench_history = load("bench_history")
    recs = bench_history.records(bench_history.ROOT)
    assert min(recs) == 15
    assert bench_history.main(["--since", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    seeds = [key for key in recs[16] if key.startswith("seed")]
    assert len(lines) == sum(len(recs[16][s]) * len(recs[16][s]["dense_blossoms"]) for s in seeds)
    line = next(line for line in lines if line.startswith("seed 1 dense_blossoms verify_s "))
    summaries = [rec["seed1"]["dense_blossoms"]["verify_s"] for n, rec in recs.items() if n >= 16]
    cells, ratio = [], 1.0
    for n, m in enumerate(summaries, start=16):
        ratio *= m["change_median"] / m["parent_median"]
        cells.append(f"{n} {m['change_median']:.4g} {ratio - 1:+.1%}")
    start = summaries[0]["parent_median"]
    assert line == f"seed 1 dense_blossoms verify_s from {start:.4g}: " + ", ".join(cells)
    # BENCH_14.json's older layout is not read
    assert bench_history.main(["--since", "14"]) == 1
    assert capsys.readouterr().err.startswith("error: no BENCH_14.json")
