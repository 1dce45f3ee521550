"""Replication harness: run estimators over simulated or file data,
collect metrics, and emit a stable CSV.

CSV schema (one row per replication, method and mode):

    rep,method,mode,distance_d,rmse,acc,re,seconds

``distance_d`` is the column-space distance for that row's mode; the
remaining metrics describe the whole fit and repeat across a fit's mode
rows.  Aggregate rows with ``rep`` set to ``mean`` and ``sd`` follow the
per-replication block.  Failures abort only their own replication: the
row keeps the method and timing, leaves the metrics empty, and the error
is logged.  ``seconds`` is a fit plus its signals; a replication's one
moment pass (:func:`~tuckerfactor.estimation.series_moments`) is charged
to the first method that reads it, so the seconds of a replication still
sum to all its work.
"""

from __future__ import annotations

import configparser
import csv
import logging
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .baseline import estimate_ranks_tipup, itipup_fit
from .estimation import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    estimate_ranks,
    ipmopca_fit,
    mopca_fit,
    pmopca_fit,
    reconstruct_signals,
    series_moments,
    varimax,
)
from .io import read_tensor_series
from .metrics import (
    _reconstruction_sums,
    _relative_error,
    column_space_distance,
    rank_accuracy,
)
from .simulation import SCENARIOS, SimConfig, simulate_dataset
from .tensor import _pieces

logger = logging.getLogger(__name__)

CSV_COLUMNS = ["rep", "method", "mode", "distance_d", "rmse", "acc", "re", "seconds"]


class Method(NamedTuple):
    """A method's fit and rank selector, both called as ``(series, cfg,
    moments)``, and ``lags(cfg)``, the moment lags that both read."""

    fit: Callable
    select_ranks: Callable
    lags: Callable


def _pca_ranks(x, cfg, moments):
    return estimate_ranks(x, k_max=cfg.k_max, center=cfg.center, moments=moments)


def _sweeps(cfg):
    return {"tol": cfg.tol, "max_iter": cfg.max_iter,
            "update_within_sweep": cfg.update_within_sweep}


METHODS = {
    "mopca": Method(
        lambda x, c, m: mopca_fit(x, c.ranks, c.center, c.k_max, moments=m),
        _pca_ranks, lambda c: (0,)),
    "pmopca": Method(
        lambda x, c, m: pmopca_fit(x, c.ranks, center=c.center, k_max=c.k_max,
                                   moments=m),
        _pca_ranks, lambda c: (0,)),
    "ipmopca": Method(
        lambda x, c, m: ipmopca_fit(x, c.ranks, center=c.center, k_max=c.k_max,
                                    moments=m, **_sweeps(c)),
        _pca_ranks, lambda c: (0,)),
    "itipup": Method(
        lambda x, c, m: itipup_fit(x, c.ranks, h0=c.lags, center=c.center,
                                   k_max=c.k_max, moments=m, **_sweeps(c)),
        lambda x, c, m: estimate_ranks_tipup(x, k_max=c.k_max, h0=c.lags,
                                             center=c.center, moments=m),
        lambda c: range(1, c.lags + 1)),
}


@dataclass
class EstimatorConfig:
    """Bundle of estimator options used by the experiment runner and CLI.

    ``ranks`` may be an explicit tuple or ``"auto"`` to select ranks by
    the eigenvalue-ratio rule with upper bound ``k_max`` (default
    ``min(8, min_d p_d - 1)``).  ``lags`` only matters for the
    auto-covariance baseline.
    """

    method: str = "mopca"
    ranks: tuple[int, ...] | str = "auto"
    k_max: int | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    update_within_sweep: bool = True
    center: bool = True
    lags: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.lags < 1:
            raise ValueError("lags must be at least 1")


@dataclass
class EvalReport:
    """Metrics for one (replication, method) fit."""

    method: str
    replication: int
    seconds: float
    distances: tuple[float, ...] | None = None
    rmse: float | None = None
    accuracy: float | None = None
    reconstruction: float | None = None
    ranks_estimated: tuple[int, ...] | None = None
    error: str | None = None


@dataclass
class ExperimentConfig:
    """What to run: methods, data source, per-method estimator options."""

    methods: list[str]
    replications: int = 1
    out_dir: str = "."
    sim: SimConfig | None = None
    input_path: str | None = None
    estimators: dict[str, EstimatorConfig] = field(default_factory=dict)
    emit_loadings: bool = False
    apply_varimax: bool = False

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method is required")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if (self.sim is None) == (self.input_path is None):
            raise ValueError("exactly one of sim / input_path must be set")

    def estimator_for(self, method: str) -> EstimatorConfig:
        cfg = self.estimators.get(method)
        if cfg is None:
            cfg = EstimatorConfig(method=method)
        return cfg


def _evaluate(method, rep, series, truth, cfg, shared=None,
              lags=()) -> tuple[EvalReport, object]:
    """Fit and score one method.  ``shared`` maps a ``center`` flag to the
    replication's moments; the first method to need one builds it at
    ``lags`` inside its timer, so the reports' seconds sum to all the work."""
    start = time.perf_counter()
    try:
        spec = METHODS[method]
        if shared is not None and cfg.center not in shared:
            shared[cfg.center] = series_moments(series, lags, cfg.center)
        moments = None if shared is None else shared[cfg.center]
        fit = spec.fit(series, cfg, moments)
        s_hat = fit.signals  # built on first access: timed with the fit
        seconds = time.perf_counter() - start
        # an automatic fit already applied the ratio rule; only explicit
        # ranks need a separate, untimed selection
        ranks_est = (fit.ranks if isinstance(cfg.ranks, str)
                     else spec.select_ranks(series, cfg, moments))
    except Exception as exc:  # noqa: BLE001 - a failed rep must not kill the run
        seconds = time.perf_counter() - start
        logger.warning("replication %d, method %s failed: %s", rep, method, exc)
        return EvalReport(method=method, replication=rep, seconds=seconds,
                          error=str(exc)), None
    # RE and RMSE over chunks of whole tensors, with the mean added per
    # tensor and the true signals rebuilt per chunk: the same per-tensor
    # sums, in the same order, as the whole-array metrics, without their
    # full-size operands.  A one-chunk series shares the cached truth
    # signals across methods.
    re_sums, rmse_num = (0.0, 0.0), 0.0
    chunks = _pieces(series.shape)
    for s in chunks:
        re_sums = _reconstruction_sums(series[s], s_hat[s], *re_sums, fit.mean)
        if truth is not None:
            s_true = (truth.signals if len(chunks) == 1
                      else reconstruct_signals(truth.cores[s], truth.loadings))
            rmse_num, _ = _reconstruction_sums(s_true, s_hat[s], rmse_num, 0.0,
                                               fit.mean)
    re_val = _relative_error(*re_sums)
    distances = rmse = acc = None
    if truth is not None:
        distances = tuple(
            column_space_distance(a_hat, a_true)
            for a_hat, a_true in zip(fit.loadings, truth.loadings)
        )
        rmse = float(np.sqrt(rmse_num / series.size))
        acc = rank_accuracy(ranks_est, tuple(a.shape[1] for a in truth.loadings))
    report = EvalReport(
        method=method,
        replication=rep,
        seconds=seconds,
        distances=distances,
        rmse=rmse,
        accuracy=acc,
        reconstruction=re_val,
        ranks_estimated=ranks_est,
    )
    return report, fit


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _emit_loading_csvs(out_dir, rep, method, fit, rotate):
    directory = os.path.join(out_dir, "loadings")
    os.makedirs(directory, exist_ok=True)
    for d, a in enumerate(fit.loadings):
        mat = varimax(a)[0] if rotate else a
        path = os.path.join(directory, f"rep{rep:03d}_{method}_A{d + 1}.csv")
        np.savetxt(path, mat, delimiter=",")


def run_experiment(config: ExperimentConfig, csv_path=None) -> list[EvalReport]:
    """Run every (replication, method) pair and write the results CSV.

    Replications are processed in order, so the CSV is deterministic for
    a fixed seed apart from the ``seconds`` column.  Returns the list of
    per-fit reports.
    """
    lags = {}  # center flag -> every lag its methods read from the moments
    for method in config.methods:  # an unknown method raises here, before any output
        cfg = config.estimator_for(method)
        lags.setdefault(cfg.center, set()).update(METHODS[method].lags(cfg))
    os.makedirs(config.out_dir, exist_ok=True)
    if csv_path is None:
        csv_path = os.path.join(config.out_dir, "results.csv")
    input_series = None
    if config.input_path is not None:
        input_series = read_tensor_series(config.input_path)

    d_count = (len(config.sim.dims) if config.sim is not None
               else input_series.ndim - 1)
    reports: list[EvalReport] = []
    rows: list[list[str]] = []
    for rep in range(config.replications):
        if config.sim is not None:
            series, truth = simulate_dataset(config.sim, rep)
        else:
            series, truth = input_series, None
        shared = {}  # one moment pass per replication and center flag
        for method in config.methods:
            cfg = config.estimator_for(method)
            report, fit = _evaluate(method, rep, series, truth, cfg, shared,
                                    lags[cfg.center])
            reports.append(report)
            if report.error is not None:
                rows.append([str(rep), method, "", "", "", "", "",
                             _fmt(report.seconds)])
                continue
            for d in range(d_count):
                dist = report.distances[d] if report.distances else None
                rows.append([
                    str(rep), method, str(d + 1), _fmt(dist),
                    _fmt(report.rmse), _fmt(report.accuracy),
                    _fmt(report.reconstruction), _fmt(report.seconds),
                ])
            if config.emit_loadings and fit is not None:
                _emit_loading_csvs(config.out_dir, rep, method, fit,
                                   config.apply_varimax)
            fit = None  # its signals would outlive it into the next method's fit
        logger.info("replication %d/%d done", rep + 1, config.replications)

    rows.extend(_aggregate_rows(reports, config.methods, d_count))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    return reports


def _aggregate_rows(reports, methods, d_count):
    rows = []
    for method in methods:
        ok = [r for r in reports if r.method == method and r.error is None]
        if not ok:
            continue
        for d in range(d_count):
            for stat, fn in (("mean", np.mean), ("sd", _sample_sd)):
                dist = _agg([r.distances[d] for r in ok if r.distances], fn)
                rows.append([
                    stat, method, str(d + 1), _fmt(dist),
                    _fmt(_agg([r.rmse for r in ok], fn)),
                    _fmt(_agg([r.accuracy for r in ok], fn)),
                    _fmt(_agg([r.reconstruction for r in ok], fn)),
                    _fmt(_agg([r.seconds for r in ok], fn)),
                ])
    return rows


def _sample_sd(values):
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return 0.0
    return float(np.std(arr, ddof=1))


def _agg(values, fn):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return float(fn(values))


def _parse_int_tuple(text):
    return tuple(int(v) for v in text.replace(",", " ").split())


def _parse_ranks(text):
    text = text.strip()
    if text == "auto":
        return "auto"
    return _parse_int_tuple(text)


def _estimator_from_section(section, base: EstimatorConfig, method: str):
    # one replace call, so the section's values are validated like any config
    fields = {}
    if section is not None:
        if "ranks" in section:
            fields["ranks"] = _parse_ranks(section["ranks"])
        if "kmax" in section:
            fields["k_max"] = section.getint("kmax")
        if "tol" in section:
            fields["tol"] = section.getfloat("tol")
        if "max_iter" in section:
            fields["max_iter"] = section.getint("max_iter")
        if "update_within_sweep" in section:
            fields["update_within_sweep"] = section.getboolean("update_within_sweep")
        if "center" in section:
            fields["center"] = section.getboolean("center")
        if "lags" in section:
            fields["lags"] = section.getint("lags")
    return replace(base, method=method, **fields)


def parse_experiment_config(path) -> ExperimentConfig:
    """Read an experiment description from a key-value config file.

    The file uses INI-style sections: ``[experiment]`` (methods,
    replications, seed, out, input, emit_loadings, varimax),
    ``[simulation]`` (T, dims, ranks, phi, psi or scenario, seed) and
    ``[estimator]`` plus optional ``[estimator.<method>]`` overrides.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if "experiment" not in parser:
        raise ValueError("config file is missing the [experiment] section")
    exp = parser["experiment"]
    methods = [m.strip() for m in exp.get("methods", "mopca").replace(",", " ").split()]
    seed = exp.getint("seed", 0)
    sim = None
    input_path = exp.get("input", None)
    if "simulation" in parser:
        sec = parser["simulation"]
        phi = sec.getfloat("phi", 0.0)
        psi = sec.getfloat("psi", 0.0)
        if "scenario" in sec:
            name = sec["scenario"].strip()
            if name not in SCENARIOS:
                raise ValueError(f"unknown scenario {name!r}")
            phi, psi = SCENARIOS[name]
        sim = SimConfig(
            T=sec.getint("T"),
            dims=_parse_int_tuple(sec["dims"]),
            ranks=_parse_int_tuple(sec.get("ranks", "2,3,4")),
            phi=phi,
            psi=psi,
            seed=sec.getint("seed", seed),
            replications=exp.getint("replications", 1),
        )
    base = _estimator_from_section(
        parser["estimator"] if "estimator" in parser else None,
        EstimatorConfig(),
        "mopca",
    )
    # every method's config, so a --methods override keeps [estimator]
    estimators = {}
    for method in METHODS:
        section_name = f"estimator.{method}"
        section = parser[section_name] if section_name in parser else None
        estimators[method] = _estimator_from_section(section, base, method)
    return ExperimentConfig(
        methods=methods,
        replications=exp.getint("replications", 1),
        out_dir=exp.get("out", "."),
        sim=sim,
        input_path=input_path,
        estimators=estimators,
        emit_loadings=exp.getboolean("emit_loadings", False),
        apply_varimax=exp.getboolean("varimax", False),
    )
