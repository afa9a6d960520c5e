"""The benchmark recorder, tools/bench_record.py, on --tiny runs."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDER = ROOT / "tools" / "bench_record.py"


def _record(tmp_path, *args):
    done = subprocess.run([sys.executable, str(RECORDER), "--label", "t", "--tiny",
                           "--seconds", "0.1", "--out", str(tmp_path), *args],
                          capture_output=True, text=True, timeout=300)
    return done, json.loads((tmp_path / "BENCH_t.json").read_text())


def test_tiny_record_has_the_schema(tmp_path):
    done, bench = _record(tmp_path, "--workloads", "standard10-kmeans-file", "--seeds", "3,4")
    assert done.returncode == 0, done.stderr
    assert bench["label"] == "t" and bench["seeds"] == [3, 4] and bench["tiny"] is True
    assert bench["command"].startswith("python3 tools/bench_record.py --label t --tiny")
    assert bench["run_commands"] == [
        f"python3 perfbench/run.py --workload standard10-kmeans-file --seed {seed} "
        "--seconds 0.1 --trace 0 --tiny" for seed in (3, 4)]
    assert len(bench["git_head"] or "0" * 40) == 40 and isinstance(bench["git_dirty"], bool)
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(bench["environment"])
    [(name, workload)] = bench["workloads"].items()
    assert name == "standard10-kmeans-file"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(workload["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = workload["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["n"] == 2
        assert set(metric["by_seed"]) == {"3", "4"}
        assert metric["p25"] <= metric["median"] <= metric["p75"]
        assert min(metric["by_seed"].values()) <= metric["median"] <= max(
            metric["by_seed"].values())
    assert [(run["seed"], run["correct"], run["failed"]) for run in workload["runs"]] == [
        (3, True, 0), (4, True, 0)]


def test_a_run_without_a_result_is_recorded_as_failed(tmp_path):
    done, bench = _record(tmp_path, "--workloads", "no-such-workload", "--seeds", "1")
    assert done.returncode == 1
    [run] = bench["workloads"]["no-such-workload"]["runs"]
    assert run["correct"] is False and run["returncode"] != 0 and "no-such-workload" in run["error"]
    assert bench["workloads"]["no-such-workload"]["metrics"]["cv_s"]["n"] == 0


def _load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", RECORDER)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


def test_the_claim_rule_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    """`_pairs` meets the claim rule where this checkout wins at least 9 of
    10 pairs and its median beats REV's by more than REV's quartile
    spread: not where it wins all 10 by less than that spread, nor where
    it wins 8 by more, and in the direction the metric declares."""
    recorder = _load_recorder()
    rev = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def pairs(this, better="lower", against=rev):
        return recorder._pairs(recorder._summary(dict(enumerate(this)), "s"),
                               recorder._summary(dict(enumerate(against)), "s"), better)

    met = pairs([v - 0.1 for v in rev])
    assert (met["wins"], met["claim_rule"]) == (10, True)
    assert met["against_spread"] < 0.1
    inside = pairs([v - 0.005 for v in rev])
    assert (inside["wins"], inside["claim_rule"]) == (10, False)
    assert inside["against_spread"] > 0.005
    eight = pairs([v - 0.1 for v in rev[:8]] + [v + 0.01 for v in rev[8:]])
    assert (eight["wins"], eight["losses"], eight["claim_rule"]) == (8, 2, False)
    assert eight["median_change"] < -0.05
    nine = pairs([v - 0.1 for v in rev[:9]] + [rev[9] + 0.01])
    assert (nine["wins"], nine["claim_rule"]) == (9, True)
    assert pairs([v + 0.1 for v in rev], "higher")["claim_rule"] is True
    assert pairs([v - 0.1 for v in rev], "higher")["claim_rule"] is False
    assert pairs([], against=[])["claim_rule"] is False


def test_tiny_record_against_a_revision_alternates_the_sides(monkeypatch):
    """Both sides run from fresh copies, neither from the repository root:
    this checkout's side from its files, REV's from REV's, and both
    copies are gone afterwards."""
    if shutil.which("git") is None or shutil.which("tar") is None:
        pytest.skip("--against exports a revision with git and tar, and one is not on PATH")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if head.returncode:
        pytest.skip(f"not a git checkout: {head.stderr.strip()}")
    worktrees = subprocess.run(["git", "worktree", "list"], cwd=ROOT, capture_output=True,
                               text=True).stdout
    recorder = _load_recorder()
    module = pathlib.Path("src", "treecv", "tree.py")
    sources = {"this": (ROOT / module).read_bytes(), "against": subprocess.run(
        ["git", "show", f"HEAD:{module.as_posix()}"], cwd=ROOT, capture_output=True,
        check=True).stdout}
    calls = []  # (the root a run ran from, its copy of `module`)
    real_run = recorder._run

    def spied_run(root, *args):
        calls.append((root, pathlib.Path(root, module).read_bytes()))
        return real_run(root, *args)

    monkeypatch.setattr(recorder, "_run", spied_run)
    bench = recorder.record("t", [3, 4, 5], 0.1, ["standard10-kmeans-file"], True, "HEAD")
    # seed 3 runs this side first, seed 4 REV's, seed 5 this side's
    sides = ["this", "against", "against", "this", "this", "against"]
    roots = {side: {root for (root, _), named in zip(calls, sides) if named == side}
             for side in sources}
    assert len(calls) == 6 and all(len(found) == 1 for found in roots.values())
    (this_root,), (rev_root,) = roots.values()
    assert len({os.path.realpath(root) for root in (this_root, rev_root, ROOT)}) == 3
    for side, root in (("this", this_root), ("against", rev_root)):
        assert {source for called, source in calls if called == root} == {sources[side]}
        assert not os.path.exists(root)
    assert bench["against"] == {"rev": "HEAD", "commit": head.stdout.strip()}
    assert bench["run_commands"] == [
        f"python3 perfbench/run.py --workload standard10-kmeans-file --seed {seed} "
        "--seconds 0.1 --trace 0 --tiny" for seed in (3, 4, 5)]
    workload = bench["workloads"]["standard10-kmeans-file"]
    assert workload["first"] == {"3": "this", "4": "against", "5": "this"}
    for side in (workload, workload["against"]):
        assert [(run["seed"], run["correct"], run["failed"]) for run in side["runs"]] == [
            (3, True, 0), (4, True, 0), (5, True, 0)]
        assert {metric["n"] for metric in side["metrics"].values()} == {3}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(workload["pairs"]) == {entry["name"] for entry in declared}
    for entry in declared:
        pair = workload["pairs"][entry["name"]]
        assert pair["better"] == entry["better"] and pair["n"] == 3
        assert pair["wins"] + pair["losses"] + pair["ties"] == 3
        ours, theirs = (side["metrics"][entry["name"]] for side in (workload, workload["against"]))
        assert pair["median_change"] == ours["median"] / theirs["median"] - 1
        assert pair["against_spread"] == theirs["p75"] - theirs["p25"]
    # the export leaves nothing behind in the repository's git metadata
    assert subprocess.run(["git", "worktree", "list"], cwd=ROOT, capture_output=True,
                          text=True).stdout == worktrees


def test_a_dirty_checkout_runs_against_a_revision_from_a_copy_of_its_working_tree(tmp_path):
    """With --against, a checkout whose `src/` differs from HEAD runs its
    side from a copy of its working tree, with the untracked files that
    .gitignore does not name, and REV's side from REV's files; the
    checkout itself is left as it was."""
    if shutil.which("git") is None or shutil.which("tar") is None:
        pytest.skip("--against exports a revision with git and tar, and one is not on PATH")
    repo = tmp_path / "repo"
    for directory in ("tools", "src", "perfbench"):
        (repo / directory).mkdir(parents=True)
    shutil.copy(RECORDER, repo / "tools")
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    (repo / ".gitignore").write_text("ignored.py\n")
    (repo / "src" / "module.py").write_text("x = 1\n")
    # a run that reports, as every metric, `module.x` plus 10 per .py file in src/
    (repo / "perfbench" / "run.py").write_text(
        "import json, os, sys\nsys.path.insert(0, 'src')\nimport module\n"
        "value = module.x + 10 * sum(name.endswith('.py') for name in os.listdir('src'))\n"
        "print(json.dumps({'correct': True, 'attempted': 1, 'failed': 0, 'metrics': {\n"
        "    name: {'value': value} for name in ('cv_s', 'setup_s', 'peak_rss_mb')}}))\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
    for name, text in (("module.py", "x = 3\n"), ("new.py", ""), ("ignored.py", "")):
        (repo / "src" / name).write_text(text)
    done = subprocess.run([sys.executable, str(repo / "tools" / "bench_record.py"), "--label",
                           "t", "--workloads", "w", "--seeds", "1", "--against", "HEAD",
                           "--out", str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert bench["git_dirty"] is True
    workload = bench["workloads"]["w"]
    assert workload["metrics"]["cv_s"]["by_seed"] == {"1": 23}  # x = 3, module.py and new.py
    assert workload["against"]["metrics"]["cv_s"]["by_seed"] == {"1": 11}  # HEAD: x = 1
    assert sorted(path.name for path in (repo / "src").iterdir()) == [
        "ignored.py", "module.py", "new.py"]


def test_an_unknown_revision_is_refused(tmp_path):
    done = subprocess.run([sys.executable, str(RECORDER), "--label", "t", "--tiny",
                           "--out", str(tmp_path), "--against", "no-such-revision"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and "no-such-revision" in done.stderr
    assert not (tmp_path / "BENCH_t.json").exists()


def test_git_dirty_is_read_before_the_runs_and_only_over_what_they_read(tmp_path):
    """`git_dirty` says whether `src/`, `perfbench/` or BENCHMARK.json
    differ from HEAD before the first run: an edited doc file leaves it
    false, and so does a file a run itself changes; an edited `src/` file
    sets it."""
    if shutil.which("git") is None:
        pytest.skip("git is not on PATH")
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "perfbench").mkdir()
    shutil.copy(RECORDER, repo / "tools")
    shutil.copy(ROOT / "BENCHMARK.json", repo)
    (repo / "README.md").write_text("docs\n")
    (repo / "src" / "module.py").write_text("x = 1\n")
    # a run that edits src/ and reports nothing
    (repo / "perfbench" / "run.py").write_text(
        "import pathlib\npathlib.Path('src/module.py').write_text('x = 2\\n')\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(git + args, cwd=repo, check=True, capture_output=True)

    def dirty():
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        subprocess.run([sys.executable, str(repo / "tools" / "bench_record.py"), "--label", "t",
                        "--seconds", "0.1", "--workloads", "w", "--seeds", "1", "--out",
                        str(out)], capture_output=True, text=True, timeout=300)
        subprocess.run(git + ["checkout", "-q", "--", "src"], cwd=repo, check=True)
        return json.loads((out / "BENCH_t.json").read_text())["git_dirty"]

    assert dirty() is False
    (repo / "README.md").write_text("docs, edited\n")
    assert dirty() is False
    (repo / "src" / "module.py").write_text("x = 3\n")
    assert dirty() is True
