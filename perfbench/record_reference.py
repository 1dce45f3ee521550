"""Record ``reference.json``: the outputs of every pool entry at this commit.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py [workload ...]

Run it only when a workload's definition changes; the benchmark compares
every operation against these recorded outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH_DIR, ROOT, WORK_DIR, git_sha, pin_blas_threads

sys.path.insert(0, str(ROOT / "src"))
pin_blas_threads()
import workloads  # noqa: E402


def record(cls, workdir):
    entries = []
    for entry in range(cls.pool):
        if cls is workloads.Files:
            wl = cls(str(workdir), entry)
            wl.setup(0)
            i = 0
        else:
            wl = cls(str(workdir), 0)
            i = entry
        summary = wl.evaluate(i, *wl.run(i))
        entries.append({k: summary[k] for k in ("ranks", "dists", "re")
                        if k in summary})
        print(f"{cls.name} entry {entry}: {entries[-1]}", file=sys.stderr)
    return {"spec": wl.spec(), "entries": entries}


def dump(reference) -> str:
    """JSON text with one pool entry per line."""
    blocks = []
    for name, rec in reference.items():
        head = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}"
                         for k, v in rec.items() if k != "entries")
        entries = ",\n".join(json.dumps(e) for e in rec["entries"])
        blocks.append(f"{json.dumps(name)}: {{{head}, \"entries\": [\n{entries}\n]}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(names):
    path = BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    workdir = WORK_DIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or list(workloads.WORKLOADS):
            reference[name] = record(workloads.WORKLOADS[name], workdir)
            reference[name]["recorded_from"] = git_sha()
            path.write_text(dump(reference))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
