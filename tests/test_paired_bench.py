"""Tests of ``tools/paired_bench.py``: its summary, its runs and its exports."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
_SPEC = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_bench)

LOWER = [{"name": "fit_s", "better": "lower"}]


def pairs_of(parent, change, name="fit_s"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_quartiles():
    assert paired_bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert paired_bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_clear_gain_is_shown():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]
    s = paired_bench.summarize(pairs_of(parent, [p - 2.0 for p in parent]), LOWER)
    s = s["fit_s"]
    assert (s["pairs"], s["wins"], s["losses"], s["ties"]) == (10, 10, 0, 0)
    assert s["parent"]["median"] == pytest.approx(10.0)
    assert s["change"]["median"] == pytest.approx(8.0)
    assert s["median_gain"] == pytest.approx(2.0)
    assert s["parent_iqr"] == pytest.approx(10.1 - 9.9)
    assert s["gain_shown"]


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [10.0] * 10
    change = [8.0] * 8 + [10.0, 12.0]  # one tie, one loss
    s = paired_bench.summarize(pairs_of(parent, change), LOWER)["fit_s"]
    assert (s["wins"], s["losses"], s["ties"]) == (8, 1, 1)
    assert not s["gain_shown"]


def test_gain_must_exceed_the_parent_spread():
    parent = [8.0, 12.0] * 5
    change = [p - 0.5 for p in parent]  # wins every pair, inside the spread
    s = paired_bench.summarize(pairs_of(parent, change), LOWER)["fit_s"]
    assert s["wins"] == 10 and s["parent_iqr"] == pytest.approx(4.0)
    assert not s["gain_shown"]


def test_higher_is_better_and_missing_metrics_are_skipped():
    metrics = [{"name": "reps_per_s", "better": "higher"},
               {"name": "absent", "better": "lower"}]
    pairs = pairs_of([5.0] * 10, [6.0] * 9 + [4.0], name="reps_per_s")
    s = paired_bench.summarize(pairs, metrics)
    assert set(s) == {"reps_per_s"}
    assert (s["reps_per_s"]["wins"], s["reps_per_s"]["losses"]) == (9, 1)
    assert s["reps_per_s"]["median_gain"] == pytest.approx(1.0)
    assert s["reps_per_s"]["gain_shown"]


def test_seed_ranges():
    assert paired_bench._seeds("1-3,7") == [1, 2, 3, 7]


def test_each_pair_is_saved_and_a_failed_run_stops(monkeypatch):
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append(seed)
        if seed == 3 and len(calls) == 6:  # the second run of the third pair
            raise RuntimeError(f"run.py failed in {root} (seed {seed}): boom")
        return {"metrics": {"fit_s": float(seed)}}

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    report = {"pairs": [], "held_out": []}
    saved = []
    finished = paired_bench.run_pairs(
        "parent-tree", "files", [1, 2, 3, 4], [9], 1.0, report,
        lambda: saved.append(json.loads(json.dumps(report))))
    assert not finished
    assert [p["seed"] for p in report["pairs"]] == [1, 2]
    assert [len(s["pairs"]) for s in saved] == [1, 2, 2]
    assert "boom" in saved[-1]["failed"] and "failed" not in saved[1]
    # alternating order, and nothing run after the failure
    assert [p["order"] for p in report["pairs"]] == [["parent", "change"],
                                                     ["change", "parent"]]
    assert calls == [1, 1, 2, 2, 3, 3]
    assert report["held_out"] == []


def test_held_out_runs_follow_the_pairs_and_are_saved(monkeypatch):
    monkeypatch.setattr(paired_bench, "run_once",
                        lambda root, workload, seed, seconds: {"metrics": {}})
    report = {"pairs": [], "held_out": []}
    saved = []
    assert paired_bench.run_pairs("parent-tree", "files", [1, 2], [7], 1.0, report,
                                  lambda: saved.append(len(report["held_out"])))
    assert saved == [0, 0, 1]
    assert report["held_out"][0]["order"] == ["parent", "change"]


BOUNDED = [{"name": "fit_s", "better": "lower", "bound": 0.1}]


@pytest.mark.parametrize("change, verdict, worse", [
    ([10.5] * 5, "ok", 0.05),          # worse, within the bound
    ([11.5] * 5, "regressed", 0.15),   # worse by more than the bound
    ([9.0] * 5, "ok", -0.1),           # better
])
def test_regression_verdict_against_the_bound(change, verdict, worse):
    parent = [9.9, 10.0, 10.0, 10.0, 10.1]  # IQR/median 0: a tight parent
    s = paired_bench.summarize(pairs_of(parent, change), BOUNDED)["fit_s"]
    assert s["worse_rel"] == pytest.approx(worse)
    assert s["bound"] == 0.1 and s["parent_iqr_rel"] == pytest.approx(0.0)
    assert s["verdict"] == verdict


def test_a_wide_parent_is_unresolved_unless_the_change_dominates():
    parent = [8.0, 9.0, 10.0, 11.0, 12.0]  # IQR/median 0.2 > bound 0.1
    s = paired_bench.summarize(pairs_of(parent, [10.0] * 5), BOUNDED)["fit_s"]
    assert s["parent_iqr_rel"] == pytest.approx(0.2)
    assert s["verdict"] == "unresolved"
    s = paired_bench.summarize(pairs_of(parent, [14.0] * 5), BOUNDED)["fit_s"]
    assert s["verdict"] == "unresolved"  # worse, but the spread hides how much
    s = paired_bench.summarize(pairs_of(parent, [7.5] * 5), BOUNDED)["fit_s"]
    assert s["verdict"] == "ok"  # every change run beats every parent run


def test_higher_is_better_verdict():
    metrics = [{"name": "reps_per_s", "better": "higher", "bound": 0.1}]
    pairs = pairs_of([5.0] * 5, [4.0] * 5, name="reps_per_s")
    s = paired_bench.summarize(pairs, metrics)["reps_per_s"]
    assert s["worse_rel"] == pytest.approx(0.2) and s["verdict"] == "regressed"


def test_no_bound_gives_no_regression():
    s = paired_bench.summarize(pairs_of([10.0] * 5, [20.0] * 5), LOWER)["fit_s"]
    assert s["bound"] is None and s["verdict"] == "ok"


def test_each_run_records_its_wall_and_child_cpu_time(monkeypatch):
    usage = iter([(10.0, 1.0), (13.0, 1.5)])  # children's (user, system) before, after
    clock = iter([100.0, 102.0])
    monkeypatch.setattr(paired_bench.resource, "getrusage",
                        lambda who: SimpleNamespace(**dict(zip(("ru_utime", "ru_stime"),
                                                               next(usage)))))
    monkeypatch.setattr(paired_bench.time, "perf_counter", lambda: next(clock))
    lines = [json.dumps({"detail": "d"}), json.dumps({"metrics": {"fit_s": {"value": 1.5}}})]
    monkeypatch.setattr(paired_bench.subprocess, "run", lambda *a, **k: SimpleNamespace(
        returncode=0, stdout="\n".join(lines) + "\n", stderr=""))
    result = paired_bench.run_once("tree", "files", 1, 1.0)
    assert result["metrics"] == {"fit_s": 1.5} and result["detail"] == "d"
    assert result["wall_s"] == pytest.approx(2.0)
    assert result["cpu_s"] == pytest.approx(3.5)


def test_cpu_per_wall_is_each_sides_median():
    runs = [{"parent": {"cpu_s": c, "wall_s": 2.0}, "change": {"cpu_s": 2 * c, "wall_s": 2.0}}
            for c in (1.0, 2.0, 9.0)]
    assert paired_bench.cpu_per_wall(runs) == {"parent": 1.0, "change": 2.0}
    assert paired_bench.cpu_per_wall([]) == {}


def test_src_lines_counts_as_wc(tmp_path):
    package = tmp_path / "src" / "tuckerfactor"
    package.mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("three\nno newline")
    (package / "notes.txt").write_text("not\ncounted\n")
    assert paired_bench.src_lines(tmp_path) == 3
    assert paired_bench.src_lines(tmp_path / "absent") == 0


def test_both_trees_line_counts_are_recorded_and_printed(tmp_path, monkeypatch, capsys):
    def fake_subprocess_run(argv, **kwargs):
        if argv[0] == "tar":  # each export: one package file, of 2 or 3 lines
            package = Path(argv[-1]) / "src" / "tuckerfactor"
            package.mkdir(parents=True)
            change = Path(argv[-1]).name == "change"
            (package / "a.py").write_text("x = 1\ny = 2\n" + "z = 3\n" * change)
        return SimpleNamespace(stdout=b"" if argv[:2] == ["git", "archive"] else "abc\n")

    monkeypatch.setattr(paired_bench.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(paired_bench, "run_pairs",
                        lambda root, workload, seeds, held, seconds, report, save:
                        save() or True)
    out = tmp_path / "pairs.json"
    assert paired_bench.main(["--workload", "files", "--parent", "HEAD", "--seeds", "1",
                              "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["src_lines"] == {"parent": 2, "change": 3, "delta": 1}
    assert "src/tuckerfactor/*.py lines: parent 2 -> change 3 (+1)" in capsys.readouterr().out


def test_both_trees_digests_are_recorded_and_the_groups_that_differ_printed(
        tmp_path, monkeypatch, capsys):
    def fake_subprocess_run(argv, **kwargs):
        if argv[0] == "tar":
            return SimpleNamespace()
        if argv[1:2] == [str(paired_bench.ROOT / "tools" / "digest.py")]:
            change = Path(argv[-1]).parent.name == "change"
            return SimpleNamespace(stdout=f"fits 1\ncli {3 if change else 2}\n")
        return SimpleNamespace(stdout=b"" if argv[:2] == ["git", "archive"] else "abc\n")

    monkeypatch.setattr(paired_bench.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(paired_bench, "run_pairs",
                        lambda root, workload, seeds, held, seconds, report, save:
                        save() or True)
    out = tmp_path / "pairs.json"
    assert paired_bench.main(["--workload", "files", "--parent", "HEAD", "--seeds", "1",
                              "--out", str(out)]) == 0
    assert json.loads(out.read_text())["digest"] == {
        "parent": {"fits": "1", "cli": "2"}, "change": {"fits": "1", "cli": "3"},
        "equal": False}
    assert "digest: differs in cli" in capsys.readouterr().out


def test_the_change_runs_from_a_fresh_export_of_the_working_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*argv):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
                       cwd=repo, check=True, capture_output=True)

    (repo / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}')
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "edited.txt").write_text("committed\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "edited.txt").write_text("uncommitted\n")
    (repo / "untracked.txt").write_text("new\n")
    (repo / "ignored.txt").write_text("ignored\n")
    names = ("edited.txt", "untracked.txt", "ignored.txt")
    seen = {}

    def fake_run(root, workload, seed, seconds):
        seen[Path(root).name] = (Path(root), {
            name: (Path(root) / name).read_text() for name in names
            if (Path(root) / name).exists()})
        return {"metrics": {}, "cpu_s": 1.0, "wall_s": 1.0}

    monkeypatch.setattr(paired_bench, "ROOT", repo)
    monkeypatch.setattr(paired_bench, "digest", lambda root: {})
    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    assert paired_bench.main(["--workload", "w", "--parent", "HEAD", "--seeds", "1",
                              "--out", str(tmp_path / "pairs.json")]) == 0
    assert seen["change"][0] != repo and seen["parent"][0] != repo
    assert seen["change"][1] == {"edited.txt": "uncommitted\n", "untracked.txt": "new\n"}
    assert seen["parent"][1] == {"edited.txt": "committed\n"}
    status = subprocess.run(["git", "status", "--porcelain"], cwd=repo, check=True,
                            capture_output=True, text=True).stdout
    assert status == " M edited.txt\n?? untracked.txt\n"  # the index as it was
