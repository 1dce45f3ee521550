"""Benchmark of the tuckerfactor library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study-small --seed 1 --seconds 35 --trace 0

Workloads (one client, closed loop; BLAS pinned to one thread):

* ``study-small``: one ``run_experiment`` replication per operation at
  T=20, dims 20x20x20, all four methods with ``ranks="auto"``; scenarios
  I-IV rotate and the data seed increments per operation.
* ``fit-large``: one round per operation: ``simulate_dataset`` of a
  scenario-II series at T=16, dims 128x96x80 (120 MiB, beyond L3), then
  ``mopca_fit`` with ranks (2,3,4), ``mopca_fit`` auto, ``pmopca_fit``,
  ``ipmopca_fit`` and ``itipup_fit``.
* ``files``: the CLI pipeline ``rank``, ``estimate --method ipmopca``,
  ``reconstruct --out`` through ``cli.main`` on T=100, 50x50x50
  scenario-II TNSF files written during set-up.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over a fixed set
of operations and prints the per-layer metrics (see ``tracer.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the provenance, stage timings and sample counts.  Each
operation's chosen ranks, mean loading distance and reconstruction error
are compared with ``reference.json`` (rebuild it with
``record_reference.py`` only when the workloads change).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"
COVERAGE_FLOOR_PCT = 95.0
# With two BLAS threads on the 2-vCPU reference machine, one busy vCPU
# stalls every multi-threaded call: a CPU hog pinned to one vCPU raised
# study-small latency by 106% and fit-large by 56%, against 0% and 4%
# with one thread.  Runs pin BLAS to one thread so they stay comparable.
BLAS_THREADS = "1"

# functions reported in each family of per-layer metrics; see layer_metrics
CALLS = ["tensor.mode_product", "estimation.mode_covariance",
         "estimation.projected_mode_covariance", "estimation.projected_series",
         "spectral.top_k_eigensystem", "spectral.subspace_distance",
         "baseline.tipup_mode_matrix"]
SELF = ["tensor.mode_product", "estimation.mode_covariance",
        "estimation.projected_mode_covariance", "estimation.projected_series",
        "estimation.iterate_projected_fit", "estimation.extract_factors",
        "estimation.reconstruct_signals", "spectral.top_k_eigensystem",
        "spectral.subspace_distance", "spectral.thin_left_singular",
        "baseline.tipup_mode_matrix", "simulation.simulate_noise_path",
        "simulation.simulate_core_path", "simulation.generate_loadings",
        "metrics.signal_rmse", "metrics.reconstruction_error",
        "metrics.column_space_distance", "io.read_tensor_series",
        "io.write_tensor_series", "io.read_loadings", "io.write_loadings",
        "experiment.run_experiment", "cli.main"]
KERNELS = ["tensor.mode_product", "estimation.mode_covariance",
           "estimation.projected_mode_covariance"]
FILE_RATES = ["io.read_tensor_series", "io.write_tensor_series"]
COV_BUILDERS = ["estimation.mode_covariance", "baseline.tipup_mode_matrix",
                # every projected covariance, plain or lagged, projects once
                "estimation.projected_series"]
RANK_SELECTORS = ["estimation.estimate_ranks", "baseline.estimate_ranks_tipup"]


def pin_blas_threads():
    """Fix the BLAS thread count; call before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile_tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return f"p{q}", cuts[q - 1]
    return None, None


def median_stages(ops):
    names = sorted({k for op in ops for k in op["stages"]})
    return {name: {"median_s": statistics.median(op["stages"][name] for op in ops),
                   "n": len(ops)} for name in names}


def run_op(wl, i, reference, check, tracer=None):
    """One timed operation, then its checks; returns (wall, summary, trace)."""
    clock = time.perf_counter
    trace = None
    if tracer is not None:
        tracer.install()
    t0 = clock()
    try:
        raw, stages = wl.run(i)
    finally:
        wall = clock() - t0
        if tracer is not None:
            tracer.uninstall()
            trace = tracer.collect()
    summary = wl.evaluate(i, raw, stages)
    del raw
    check(summary, reference[wl.entry(i)], wl.entry(i))
    summary["stages"] = {**stages, **summary.get("stages", {})}
    return wall, summary, trace


class Counter:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - a failed operation is counted
            self.failed += 1
            message = traceback.format_exc()
            print(message, file=sys.stderr)
            if len(self.messages) < 5:
                self.messages.append(message.strip().splitlines()[-1])
            return None


def measure_untraced(wl, seconds, reference, check, counter):
    ops = []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        elapsed = clock() - start
        if i >= wl.min_ops:
            typical = statistics.median(op["wall"] for op in ops) if ops else 0.0
            if elapsed + typical > seconds:
                break
        result = counter.attempt(run_op, wl, i, reference, check)
        if result is not None:
            wall, summary, _ = result
            ops.append({"i": i, "wall": wall, **summary})
        i += 1
        if not ops and clock() - start > seconds:
            break
    if not ops:
        return {}, {}
    walls = [op["wall"] for op in ops]
    first = [op for op in ops if op["i"] < wl.min_ops] or ops
    metrics = {
        "rank_acc_pct": (statistics.fmean(op["rank_acc_pct"] for op in first), "%"),
        "reps_per_s": (len(walls) / sum(walls), "1/s"),
        "rep_s.p50": (statistics.median(walls), "s"),
        "fit_s": (statistics.median(op["fit_s"] for op in ops), "s"),
    }
    tail_name, tail = percentile_tail(walls)
    detail = {
        "ops": len(ops),
        "accuracy_ops": len(first),
        # varies too much between seeds to carry a bound; the reference
        # check fails any operation whose distances move beyond rounding
        "loading_dist_mean": statistics.fmean(op["dist_mean"] for op in first),
        "entries": [wl.entry(0), wl.entry(i - 1)],
        "rep_s": {"p50": statistics.median(walls), "n": len(walls),
                  **({tail_name: tail} if tail_name else {})},
        "stages": median_stages(ops),
    }
    return metrics, detail


def layer_metrics(traces, n_ops, d_count, walls, coverage):
    """Per-layer metrics per operation from the traced passes."""
    first = traces[0]
    fits = first.fits
    n_fits = len(fits)

    def per_op_time(name):
        return statistics.median(t.self_s.get(name, 0.0) for t in traces) / n_ops

    def per_fit(names):
        total = sum(first.calls.get(n, 0) for n in names)
        return total / n_fits if n_fits else 0.0

    def mean_sweeps(method):
        sweeps = [it for name, it in fits if name == method]
        return statistics.fmean(sweeps) if sweeps else 0.0

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (first.calls.get(name, 0) / n_ops, "calls/op")
    for name in SELF:
        out[f"{name}.self_s"] = (per_op_time(name), "s/op")
    for name in KERNELS:
        out[f"{name}.gb_computed"] = (first.bytes.get(name, 0) / n_ops / 1e9, "GB/op")
        out[f"{name}.gflop_computed"] = (first.flops.get(name, 0) / n_ops / 1e9,
                                         "GFLOP/op")
    for name in FILE_RATES:
        busy = statistics.median(t.self_s.get(name, 0.0) for t in traces)
        rate = first.bytes.get(name, 0) / 2**20 / busy if busy > 0 else 0.0
        out[f"{name}.mib_per_s"] = (rate, "MiB/s")
    builds = sum(first.calls.get(n, 0) for n in COV_BUILDERS)
    # a fit needs D covariances for its initial pass and D per sweep
    useful = sum(d_count * (1 + iterations) for _, iterations in fits)
    out["estimation.cov_builds_per_fit"] = (per_fit(COV_BUILDERS), "1/fit")
    out["estimation.cov_useful_ratio"] = (useful / builds if builds else 0.0, "ratio")
    out["estimation.estimate_ranks.calls_per_fit"] = (
        per_fit(["estimation.estimate_ranks"]), "1/fit")
    out["estimation.sweeps.ipmopca"] = (mean_sweeps("ipmopca_fit"), "sweeps/fit")
    out["estimation.sweeps.itipup"] = (mean_sweeps("itipup_fit"), "sweeps/fit")
    out["spectral.eigh_per_fit"] = (per_fit(["spectral.top_k_eigensystem"]), "1/fit")
    out["experiment.rank_selections_per_fit"] = (per_fit(RANK_SELECTORS), "1/fit")
    # each traced pass against the untraced pass just before it
    overhead = statistics.median(t - u for u, t in zip(walls[False], walls[True]))
    untraced = statistics.median(walls[False])
    out["trace.coverage_pct"] = (coverage, "%")
    out["trace.overhead_s"] = (overhead / n_ops, "s/op")
    out["trace.overhead_pct"] = (100.0 * overhead / untraced, "%")
    return out


def measure_traced(wl, seconds, reference, check, counter, tracer):
    """Alternate untraced and traced passes over the first trace_ops
    operations until the time is up (at least one pass of each)."""
    clock = time.perf_counter
    start = clock()
    walls = {False: [], True: []}
    traces, coverage, last_spans = [], [], []
    traced = False
    while True:
        pass_wall, pass_trace, spans = 0.0, None, []
        for i in range(wl.trace_ops):
            result = counter.attempt(run_op, wl, i, reference, check,
                                     tracer if traced else None)
            if result is None:
                return None
            wall, _, trace = result
            pass_wall += wall
            if traced:
                coverage.append(100.0 * trace.top_level_s / wall)
                spans.extend(tracer.last_spans)
                if pass_trace is None:
                    pass_trace = trace
                else:
                    pass_trace.add(trace)
        walls[traced].append(pass_wall)
        if traced:
            traces.append(pass_trace)
            last_spans = spans
        traced = not traced
        if walls[True] and clock() - start + pass_wall > seconds:
            break
    repeat = all(t.calls == traces[0].calls and t.fits == traces[0].fits
                 for t in traces)
    metrics = layer_metrics(traces, wl.trace_ops, len(wl.dims), walls,
                            min(coverage))
    detail = {
        "trace_ops": wl.trace_ops,
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "counts_repeat": repeat,
        "spans_per_op": len(last_spans) / wl.trace_ops,
    }
    return metrics, detail, last_spans, repeat and min(coverage) >= COVERAGE_FLOOR_PCT


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def src_digest():
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tuckerfactor").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_info(numpy):
    import ctypes
    import glob

    info = {"name": "unknown", "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def l3_mib():
    index = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = index.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(text[-1:], None)
    return float(text[:-1]) * scale if scale else float(text) / 2**20


def provenance(numpy, wl, seed, start):
    l3 = l3_mib()
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_info(numpy),
        "nproc": os.cpu_count(),
        "l3_mib": l3,
        "input_mib": wl.input_mib(),
        "input_over_l3": wl.input_mib() / l3 if l3 else None,
        "seed": seed,
        "pool_start": start,
        "pool": wl.pool,
    }


def main(argv=None) -> int:
    clock = time.perf_counter
    t_import = clock()
    args = parse_args(argv)
    if not (ROOT / "src" / "tuckerfactor" / "__init__.py").is_file():
        print(f"perfbench: no tuckerfactor sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # every run compiles the sources alike
    sys.path.insert(0, str(ROOT / "src"))
    pin_blas_threads()
    import numpy

    import tuckerfactor  # noqa: F401
    import workloads

    import_s = clock() - t_import
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    recorded = json.loads((BENCH_DIR / "reference.json").read_text())[cls.name]
    start = workloads.pool_start(cls.name, args.seed, cls.pool)
    workdir = WORK_DIR / f"{cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = cls(str(workdir), start)
        if recorded["spec"] != wl.spec():
            print("perfbench: reference.json was recorded for another workload "
                  "spec; rerun record_reference.py", file=sys.stderr)
            return 2
        setup_s = []
        for rep in range(cls.setup_reps):
            t0 = clock()
            wl.setup(rep)
            setup_s.append(clock() - t0)
        counter = Counter()
        reference = recorded["entries"]
        correct = True
        if args.trace:
            from tracer import Tracer

            outcome = measure_traced(wl, args.seconds, reference, workloads.check,
                                     counter, Tracer())
            if outcome is None:
                metrics, detail = {}, {}
            else:
                metrics, detail, spans, correct = outcome
                OUT_DIR.mkdir(exist_ok=True)
                out = OUT_DIR / f"trace-{cls.name}-seed{args.seed}.json"
                out.write_text(json.dumps({"fields": ["name", "start", "end",
                                                      "parent", "work"],
                                           "spans": spans}))
                detail["spans_file"] = str(out.relative_to(ROOT))
        else:
            metrics, detail = measure_untraced(wl, args.seconds, reference,
                                               workloads.check, counter)
            if metrics:
                import resource

                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                metrics["peak_rss_mib"] = (rss, "MiB")
                metrics = {"setup_s": (import_s + statistics.median(setup_s), "s"),
                           **metrics}
                detail["setup_s"] = {"import_s": import_s, "repetitions_s": setup_s}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    detail["failures"] = counter.messages
    detail["provenance"] = provenance(numpy, wl, args.seed, start)
    print(json.dumps({"workload": cls.name, "trace": args.trace, "detail": detail}))
    result = {
        "correct": bool(metrics) and correct and counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
