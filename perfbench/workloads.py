"""The three benchmark workloads and their operations.

Every operation draws its input from a fixed pool of entries.  The
benchmark seed picks where in the pool a run starts, and the operations
take consecutive entries from there (``files`` rotates over the entries
of its three set-ups).  ``reference.json`` holds the outputs recorded for
every pool entry, so each operation of any run is checked against a
recorded reference.

A workload object is built after ``tuckerfactor`` is imported and calls
the library through module attributes at call time, so that the tracer's
wrappers are reached when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time

import numpy as np

import tuckerfactor as tf
from tuckerfactor import cli

TRUE_RANKS = (2, 3, 4)
DIST_RTOL = 1e-6
DIST_ATOL = 1e-9
RE_ATOL = 1.5e-6  # the CLI prints RE with six decimals


class OpFailure(Exception):
    """An operation whose outputs are missing, malformed or wrong."""


def pool_start(workload: str, seed: int, pool: int) -> int:
    return random.Random(f"{workload}:{seed}").randrange(pool)


def _dist_mean(pairs) -> float:
    """Mean column-space distance over every (estimate, truth) loading pair."""
    return float(np.mean([tf.column_space_distance(a, b) for a, b in pairs]))


class Workload:
    """Sizes, pool and run-length settings shared by the workloads.

    ``min_ops`` operations always run and give the accuracy metrics;
    ``trace_ops`` operations make one pass of a traced run; the set-up
    runs ``setup_reps`` times.
    """

    name: str
    T: int
    dims: tuple[int, ...]
    scenarios = ("II",)
    pool: int
    min_ops: int
    trace_ops = 1
    setup_reps = 3

    def __init__(self, workdir, start):
        self.workdir = workdir
        self.start = start

    def spec(self):
        """What ``reference.json`` must have been recorded for."""
        return {"T": self.T, "dims": list(self.dims), "ranks": list(TRUE_RANKS),
                "scenarios": list(self.scenarios), "pool": self.pool}

    def input_mib(self):
        return self.T * math.prod(self.dims) * 8 / 2**20

    def entry(self, i):
        return (self.start + i) % self.pool


class StudySmall(Workload):
    """One replication of the acceptance study design per operation."""

    name = "study-small"
    T, dims = 20, (20, 20, 20)
    scenarios = ("I", "II", "III", "IV")
    methods = ("mopca", "pmopca", "ipmopca", "itipup")
    pool = 1024
    min_ops = 64
    trace_ops = 8

    def spec(self):
        return {**super().spec(), "methods": list(self.methods)}

    def _config(self, entry):
        sim = tf.scenario_config(self.scenarios[entry % 4], self.T, self.dims,
                                 TRUE_RANKS, seed=entry)
        estimators = {m: tf.EstimatorConfig(method=m, ranks="auto")
                      for m in self.methods}
        return tf.ExperimentConfig(methods=list(self.methods), replications=1,
                                   out_dir=self.workdir, sim=sim,
                                   estimators=estimators)

    def setup(self, rep):
        # warm-up: one replication of each scenario, from the four entries
        # before the run's first
        for entry in range(4):
            tf.run_experiment(self._config((self.start - 4 + entry) % self.pool))

    def run(self, i):
        return tf.run_experiment(self._config(self.entry(i))), {}

    def evaluate(self, i, raw, stages):
        reports = raw
        errors = [f"{r.method}: {r.error}" for r in reports if r.error is not None]
        if errors:
            raise OpFailure("; ".join(errors))
        if [r.method for r in reports] != list(self.methods):
            raise OpFailure("run_experiment returned an unexpected report list")
        dists = [float(np.mean(r.distances)) for r in reports]
        # without serial factor correlation (phi = 0) iTIPUP runs all its
        # sweeps without converging, and where it stops depends on
        # rounding; only its ranks are compared with the reference
        phi = tf.SCENARIOS[self.scenarios[self.entry(i) % 4]][0]
        return {
            "ranks": [list(r.ranks_estimated) for r in reports],
            "dists": [None if m == "itipup" and phi == 0.0 else d
                      for m, d in zip(self.methods, dists)],
            "dist_mean": float(np.mean(dists)),
            "rank_acc_pct": float(np.mean([r.accuracy for r in reports])),
            "fit_s": float(sum(r.seconds for r in reports)),
            "stages": {f"fit_s.{r.method}": r.seconds for r in reports},
        }


class FitLarge(Workload):
    """Simulate one large scenario-II series, then run every estimator."""

    name = "fit-large"
    T, dims = 16, (128, 96, 80)
    pool = 16
    min_ops = 2
    warm_T, warm_dims = 8, (16, 12, 10)

    def _round(self, config):
        stages = {}
        clock = time.perf_counter
        t0 = clock()
        series, truth = tf.simulate_dataset(config, 0)
        stages["simulate_s"] = clock() - t0
        fits = {}
        for label, fit in (
            ("mopca", lambda: tf.mopca_fit(series, ranks=TRUE_RANKS)),
            ("mopca_auto", lambda: tf.mopca_fit(series)),
            ("pmopca", lambda: tf.pmopca_fit(series)),
            ("ipmopca", lambda: tf.ipmopca_fit(series)),
            ("itipup", lambda: tf.itipup_fit(series)),
        ):
            t0 = clock()
            result = fit()
            stages[f"fit_s.{label}"] = clock() - t0
            # keep the loadings only; a held fit would pin its signals
            fits[label] = result.loadings
            del result
        return (fits, truth.loadings), stages

    def setup(self, rep):
        self._round(tf.scenario_config(self.scenarios[0], self.warm_T,
                                       self.warm_dims, TRUE_RANKS, seed=rep))

    def run(self, i):
        return self._round(tf.scenario_config(self.scenarios[0], self.T, self.dims,
                                              TRUE_RANKS, seed=self.entry(i)))

    def evaluate(self, i, raw, stages):
        fits, truth = raw
        ranks = [[a.shape[1] for a in loadings] for loadings in fits.values()]
        auto = [r for label, r in zip(fits, ranks) if label != "mopca"]
        dists = [_dist_mean(zip(loadings, truth)) for loadings in fits.values()]
        return {
            "ranks": ranks,
            "dists": dists,
            "dist_mean": float(np.mean(dists)),
            "rank_acc_pct": float(np.mean([tf.rank_accuracy(r, TRUE_RANKS)
                                           for r in auto])),
            "fit_s": sum(v for k, v in stages.items() if k.startswith("fit_s.")),
        }


class Files(Workload):
    """The CLI pipeline rank -> estimate -> reconstruct on a TNSF file."""

    name = "files"
    T, dims = 100, (50, 50, 50)
    pool = 16
    min_ops = 3
    warm_T, warm_dims = 10, (6, 5, 4)

    def __init__(self, workdir, start):
        super().__init__(workdir, start)
        self.inputs = []  # (entry, path, truth loadings), one per set-up

    def spec(self):
        return {**super().spec(),
                "pipeline": ["rank", "estimate --method ipmopca", "reconstruct --out"]}

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write_input(self, entry, T, dims, name):
        config = tf.scenario_config(self.scenarios[0], T, dims, TRUE_RANKS, seed=entry)
        series, truth = tf.simulate_dataset(config, 0)
        path = self._path(name)
        tf.write_tensor_series(path, series)
        return path, truth.loadings

    def _pipeline(self, path):
        prefix, signals = self._path("fit"), self._path("signals.tnsf")
        stages, outputs = {}, {}
        for stage, argv in (
            ("rank", ["rank", path]),
            ("estimate", ["estimate", path, "--method", "ipmopca", "--out", prefix]),
            ("reconstruct", ["reconstruct", path, "--loadings", prefix,
                             "--out", signals]),
        ):
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            stages[f"{stage}_s"] = time.perf_counter() - t0
            if code != 0:
                raise OpFailure(f"{stage} exited with code {code}")
            outputs[stage] = buf.getvalue()
        return outputs, stages

    def setup(self, rep):
        # warm-up on a tiny file, then write this set-up's input file
        warm, _ = self._write_input(rep, self.warm_T, self.warm_dims, "warm.tnsf")
        self._pipeline(warm)
        entry = (self.start + rep) % self.pool
        path, truth = self._write_input(entry, self.T, self.dims, f"input{rep}.tnsf")
        self.inputs.append((entry, path, truth))

    def entry(self, i):
        return self.inputs[i % len(self.inputs)][0]

    def run(self, i):
        return self._pipeline(self.inputs[i % len(self.inputs)][1])

    def evaluate(self, i, raw, stages):
        _, path, truth = self.inputs[i % len(self.inputs)]
        try:
            rank_ranks = [int(v) for v in raw["rank"].splitlines()[0].split(",")]
            fields = dict(item.split("=", 1) for item in raw["estimate"].split())
            est_ranks = [int(v) for v in fields["ranks"].split(",")]
            re_line = raw["reconstruct"].strip()
            if not re_line.startswith("RE: "):
                raise ValueError(re_line)
            re_val = float(re_line[4:])
        except (IndexError, KeyError, ValueError) as exc:
            raise OpFailure(f"unparseable CLI output: {exc!r}") from exc
        loadings = tf.read_loadings(self._path("fit"))
        expected = os.path.getsize(path)
        if os.path.getsize(self._path("signals.tnsf")) != expected:
            raise OpFailure("reconstructed signal file has the wrong size")
        dist = _dist_mean(zip(loadings, truth))
        return {
            "ranks": [rank_ranks, est_ranks],
            "dists": [dist],
            "dist_mean": dist,
            "rank_acc_pct": float(np.mean([tf.rank_accuracy(rank_ranks, TRUE_RANKS),
                                           tf.rank_accuracy(est_ranks, TRUE_RANKS)])),
            "fit_s": stages["estimate_s"],
            "re": re_val,
        }


WORKLOADS = {w.name: w for w in (StudySmall, FitLarge, Files)}


def check(summary, ref, entry) -> None:
    """Raise OpFailure where ``summary`` disagrees with the recorded reference."""
    if summary["ranks"] != ref["ranks"]:
        raise OpFailure(f"entry {entry}: ranks {summary['ranks']} != "
                        f"reference {ref['ranks']}")
    for fit, (got, want) in enumerate(zip(summary["dists"], ref["dists"])):
        if (got is None) != (want is None) or (
                want is not None
                and not abs(got - want) <= DIST_ATOL + DIST_RTOL * abs(want)):
            raise OpFailure(f"entry {entry}, fit {fit}: loading distance "
                            f"{got!r} != reference {want!r}")
    if "re" in ref and not abs(summary["re"] - ref["re"]) <= RE_ATOL:
        raise OpFailure(f"entry {entry}: RE {summary['re']!r} != "
                        f"reference {ref['re']!r}")
