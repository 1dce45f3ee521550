"""Replication harness: run estimators over simulated or file data,
collect metrics, and emit a stable CSV.

CSV schema (one row per replication, method and mode):

    rep,method,mode,distance_d,rmse,acc,re,seconds

``distance_d`` is the column-space distance for that row's mode; the
remaining metrics describe the whole fit and repeat across a fit's mode
rows.  Aggregate rows with ``rep`` set to ``mean`` and ``sd`` follow the
per-replication block.  Failures abort only their own replication: the
row keeps the method and timing, leaves the metrics empty, and the error
is logged.
"""

from __future__ import annotations

import configparser
import csv
import logging
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baseline import estimate_ranks_tipup, itipup_fit
from .estimation import (
    EstimatorConfig,
    estimate_ranks,
    ipmopca_fit,
    mopca_fit,
    pmopca_fit,
    reconstruct_signals,
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
from .tensor import _chunks

logger = logging.getLogger(__name__)

CSV_COLUMNS = ["rep", "method", "mode", "distance_d", "rmse", "acc", "re", "seconds"]


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


def _fit_method(method, series, cfg: EstimatorConfig):
    if method == "mopca":
        return mopca_fit(series, ranks=cfg.ranks, center=cfg.center,
                         k_max=cfg.k_max)
    if method == "pmopca":
        return pmopca_fit(series, ranks=cfg.ranks, center=cfg.center,
                          k_max=cfg.k_max)
    if method == "ipmopca":
        return ipmopca_fit(series, ranks=cfg.ranks, tol=cfg.tol,
                           max_iter=cfg.max_iter,
                           update_within_sweep=cfg.update_within_sweep,
                           center=cfg.center, k_max=cfg.k_max)
    if method == "itipup":
        return itipup_fit(series, ranks=cfg.ranks, h0=cfg.lags, tol=cfg.tol,
                          max_iter=cfg.max_iter,
                          update_within_sweep=cfg.update_within_sweep,
                          center=cfg.center, k_max=cfg.k_max)
    raise ValueError(f"unknown method {method!r}")


def _select_ranks(method, series, cfg: EstimatorConfig):
    if method == "itipup":
        return estimate_ranks_tipup(series, k_max=cfg.k_max, h0=cfg.lags,
                                    center=cfg.center)
    return estimate_ranks(series, k_max=cfg.k_max, center=cfg.center)


def _evaluate(method, rep, series, truth, cfg) -> tuple[EvalReport, object]:
    start = time.perf_counter()
    try:
        fit = _fit_method(method, series, cfg)
        s_hat = fit.signals  # built on first access: timed with the fit
        seconds = time.perf_counter() - start
        # an automatic fit already applied the ratio rule; only explicit
        # ranks need a separate, untimed selection
        ranks_est = (fit.ranks if isinstance(cfg.ranks, str)
                     else _select_ranks(method, series, cfg))
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
    chunks = _chunks(series.shape)
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
        for method in config.methods:
            cfg = config.estimator_for(method)
            report, fit = _evaluate(method, rep, series, truth, cfg)
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
    estimators = {}
    for method in methods:
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
