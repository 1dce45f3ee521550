"""Paired benchmark runs: a parent commit against the working tree.

Usage, from the root of a checkout:

    python3 tools/paired_bench.py --workload study-small --parent HEAD~1 \\
        --seeds 1-10 --held-out 4242

The parent and the working tree are each exported with ``git archive``
into a fresh temporary directory: the working tree as HEAD's files with
their uncommitted edits, plus the untracked files git does not ignore,
through a temporary index file.  For each seed, ``perfbench/run.py`` runs
once in each export, alternating which side goes first (the parent first
in the first pair), with the run length of ``BENCHMARK.json`` unless
``--seconds`` says otherwise.  Held-out seeds run the same way after the
others and are kept apart from the summary.

The result goes to ``BENCH_<workload>_pairs.json`` (or ``--out``): every
run's metrics, correctness, detail line, wall time and CPU time; each
side's median CPU seconds per wall second over all its runs, above 1
where the runs kept both cores busy; for each end-to-end metric
of ``BENCHMARK.json``, each side's median and quartiles, the pairs the
working tree won, lost and tied, and whether the gain rule holds (wins
in at least nine tenths of the pairs, and medians apart by more than the
parent's interquartile range, in the metric's better direction).  It
also gives the no-regression verdict against the metric's bound: how
much worse the change's median is than the parent's, relative to the
parent's, and ``ok``, ``regressed`` (worse by more than the bound) or
``unresolved`` (the parent's IQR/median is wider than the bound, and not
every change run beats every parent run).  It also records the line
count of ``src/tuckerfactor/*.py`` in both trees, as ``wc -l`` counts
it, and their difference under ``src_lines``, and the output digests of
``tools/digest.py`` for both exports' ``src`` under ``digest`` (``parent``,
``change``, and ``equal`` when every group matches).  The
file is written again after every pair, so an interrupted script keeps
its finished pairs.  A failed run stops the script with exit status 1;
its error, with the run's stderr, is kept under ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """``(q1, median, q3)`` of ``values``, interpolating between samples."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, metrics):
    """Per-metric comparison of ``pairs`` of ``{"parent": {name: value},
    "change": {name: value}}``.

    ``metrics`` lists ``{"name", "better", "bound"}`` entries, ``better``
    being ``"lower"`` or ``"higher"`` and ``bound`` the largest relative
    worsening allowed (none when absent).  A pair missing the metric on
    either side is left out of that metric's counts.
    """
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent, change = zip(*both)
        wins = sum(sign * (c - p) < 0 for p, c in both)
        losses = sum(sign * (c - p) > 0 for p, c in both)
        q = {"parent": quartiles(parent), "change": quartiles(change)}
        gain = sign * (q["parent"][1] - q["change"][1])
        parent_iqr = q["parent"][2] - q["parent"][0]
        scale = abs(q["parent"][1]) or 1.0
        worse, bound = -gain / scale, metric.get("bound", math.inf)
        # every change run better than every parent run
        dominates = max(sign * c for c in change) < min(sign * p for p in parent)
        if parent_iqr / scale > bound and not dominates:
            verdict = "unresolved"
        else:
            verdict = "regressed" if worse > bound else "ok"
        out[name] = {
            "better": metric["better"],
            "pairs": len(both),
            "wins": wins,
            "losses": losses,
            "ties": len(both) - wins - losses,
            **{side: dict(zip(("q1", "median", "q3"), q[side])) for side in q},
            "median_gain": gain,
            "parent_iqr": parent_iqr,
            "gain_shown": wins >= 0.9 * len(both) and gain > parent_iqr,
            "worse_rel": worse,
            "parent_iqr_rel": parent_iqr / scale,
            "bound": metric.get("bound"),
            "verdict": verdict,
        }
    return out


def src_lines(root):
    """Newlines in ``src/tuckerfactor/*.py`` under ``root``: the total of
    ``wc -l src/tuckerfactor/*.py``."""
    return sum(path.read_bytes().count(b"\n")
               for path in Path(root).glob("src/tuckerfactor/*.py"))


def digest(root):
    """``{group: sha256}`` that ``tools/digest.py`` prints for the package in
    ``root``'s ``src``."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "digest.py"), "--src",
                           str(Path(root) / "src")], check=True, capture_output=True,
                          text=True)
    return dict(line.partition(" ")[::2] for line in done.stdout.splitlines())


def _seeds(text):
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(root, workload, seed, seconds):
    """One ``perfbench/run.py`` run in checkout ``root``; its result line
    with the metric values flattened, plus its detail line, its ``wall_s``
    and its ``cpu_s`` (the child's user plus system time)."""
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run.py failed in {root} (seed {seed}): {done.stderr}")
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    result["detail"] = json.loads(lines[-2])["detail"]
    result["wall_s"] = wall
    result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return result


def cpu_per_wall(pairs):
    """Each side's median ``cpu_s / wall_s`` over ``pairs``: above 1 when
    its runs kept more than one core busy."""
    return {side: statistics.median(p[side]["cpu_s"] / p[side]["wall_s"] for p in pairs)
            for side in ("parent", "change") if pairs}


def export(rev, dest):
    """Extract the tree of commit or tree ``rev`` of ``ROOT`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def working_tree(index):
    """The git tree of ``ROOT``'s working files, written through the index
    file ``index``, so the repository's own index is left as it is: HEAD's
    files with the working tree's edits, and the untracked files git does
    not ignore."""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    for command in (["read-tree", "HEAD"], ["add", "-A"]):
        subprocess.run(["git", *command], cwd=ROOT, env=env, check=True)
    return subprocess.run(["git", "write-tree"], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_pairs(trees, workload, seeds, held_out, seconds, report, save):
    """Append the pairs of ``seeds`` to ``report["pairs"]``, then those of
    ``held_out`` to ``report["held_out"]``, calling ``save()`` after each;
    each side runs in its export, ``trees/parent`` or ``trees/change``.

    A failed run stops the runs: its error goes to ``report["failed"]``,
    which is saved, and False is returned.
    """
    runs = [("pairs", seed) for seed in seeds] + [("held_out", s) for s in held_out]
    for i, (key, seed) in enumerate(runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": list(order)}
        try:
            for side in order:
                pair[side] = run_once(Path(trees) / side, workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr)
        except RuntimeError as err:
            report["failed"] = str(err)
            save()
            return False
        report[key].append(pair)
        save()
    return True


def _values(pairs):
    return [{side: p[side]["metrics"] for side in ("parent", "change")}
            for p in pairs]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="git revision to compare with")
    parser.add_argument("--seeds", type=_seeds, required=True,
                        help="seeds of the pairs, e.g. 1-10 or 3,5,8")
    parser.add_argument("--held-out", type=_seeds, default=[],
                        help="seeds run after the pairs, outside the summary")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    sha = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    report = {"workload": args.workload, "parent": sha, "seconds": args.seconds,
              "summary": {}, "held_out_summary": {}, "cpu_per_wall": {},
              "pairs": [], "held_out": []}
    out = args.out or ROOT / f"BENCH_{args.workload}_pairs.json"

    def save():
        metrics = bench["end_to_end"]
        report["summary"] = summarize(_values(report["pairs"]), metrics)
        report["held_out_summary"] = summarize(_values(report["held_out"]), metrics)
        report["cpu_per_wall"] = cpu_per_wall(report["pairs"] + report["held_out"])
        out.write_text(json.dumps(report, indent=1) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, rev in (("parent", sha), ("change", working_tree(Path(tmp) / "index"))):
            trees[side].mkdir()
            export(rev, trees[side])
        lines = report["src_lines"] = {side: src_lines(trees[side]) for side in trees}
        lines["delta"] = lines["change"] - lines["parent"]
        digests = report["digest"] = {side: digest(trees[side]) for side in trees}
        digests["equal"] = digests["parent"] == digests["change"]
        finished = run_pairs(tmp, args.workload, args.seeds, args.held_out,
                             args.seconds, report, save)
    if not finished:
        print(f"stopped: {report['failed']}", file=sys.stderr)
        return 1
    for name, s in report["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.6g} "
              f"[{s['parent']['q1']:.6g}, {s['parent']['q3']:.6g}] -> change "
              f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, "
              f"{s['change']['q3']:.6g}]; wins {s['wins']}/{s['pairs']}, "
              f"gain shown: {s['gain_shown']}; worse by {s['worse_rel']:+.1%} "
              f"(bound {s['bound']}): {s['verdict']}")
    print(f"src/tuckerfactor/*.py lines: parent {lines['parent']} -> change "
          f"{lines['change']} ({lines['delta']:+d})")
    parent, change = digests["parent"], digests["change"]
    differ = sorted(g for g in parent.keys() | change.keys() if parent.get(g) != change.get(g))
    print("digest: " + (f"differs in {', '.join(differ)}" if differ else "equal"))
    print("cpu_s/wall_s: " + ", ".join(f"{side} {r:.3f}"
                                       for side, r in report["cpu_per_wall"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
