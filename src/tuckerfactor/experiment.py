"""Replication harness: run estimators over simulated or file data,
collect metrics, and emit a stable CSV.

CSV schema (one row per replication, method and mode):

    rep,method,mode,distance_d,rmse,acc,re,seconds

``distance_d`` is the column-space distance for that row's mode; the
remaining metrics describe the whole fit and repeat across a fit's mode
rows.  Aggregate rows with ``rep`` set to ``mean`` and ``sd`` follow the
per-replication block.  Failures abort only their own replication: the
row keeps the method and timing, leaves the metrics empty, and the error
is logged.  ``seconds`` is the fit alone, not its scoring; the one moment
pass of a replication (:func:`~tuckerfactor.estimation.series_moments`)
is charged to the first method that reads it.
"""

from __future__ import annotations

import configparser
import csv
import logging
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .baseline import itipup_fit
from .estimation import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _check_sweeps,
    _checked,
    _signal_pieces,
    _start,
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
from .tensor import _integer

logger = logging.getLogger(__name__)

CSV_COLUMNS = ["rep", "method", "mode", "distance_d", "rmse", "acc", "re", "seconds"]


class Method(NamedTuple):
    """A method's fit, called as ``(series, cfg, moments)``, and
    ``lags(cfg)``, the lags of its mode matrices: the moment lags that its
    fit and its rank selection read."""

    fit: Callable
    lags: Callable


METHODS = {
    "mopca": Method(
        lambda x, c, m: mopca_fit(x, c.ranks, c.center, c.k_max, moments=m),
        lambda c: (0,)),
    "pmopca": Method(
        lambda x, c, m: pmopca_fit(x, c.ranks, None, c.center, c.k_max, moments=m),
        lambda c: (0,)),
    "ipmopca": Method(
        lambda x, c, m: ipmopca_fit(x, c.ranks, None, c.tol, c.max_iter,
                                    c.update_within_sweep, c.center, c.k_max,
                                    moments=m),
        lambda c: (0,)),
    "itipup": Method(
        lambda x, c, m: itipup_fit(x, c.ranks, c.lags, c.tol, c.max_iter,
                                   c.update_within_sweep, c.center, c.k_max,
                                   moments=m),
        lambda c: tuple(range(1, c.lags + 1))),
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
        if self.k_max is not None and _integer(self.k_max, "k_max") < 1:
            raise ValueError(f"k_max must be at least 1, got {self.k_max}")
        _check_sweeps(self.tol, _integer(self.max_iter, "max_iter"))
        if _integer(self.lags, "lags") < 1:
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
        if unknown := [m for m in self.methods if m not in METHODS]:
            raise ValueError(f"unknown method {unknown[0]!r} "
                             f"(choose from {', '.join(METHODS)})")
        if _integer(self.replications, "replications") < 1:
            raise ValueError("replications must be at least 1")
        if (self.sim is None) == (self.input_path is None):
            raise ValueError("exactly one of sim / input_path must be set")
        if self.apply_varimax and not self.emit_loadings:
            raise ValueError("varimax rotates emitted loadings: it needs emit_loadings")

    def estimator_for(self, method: str) -> EstimatorConfig:
        return self.estimators.get(method) or EstimatorConfig(method=method)


def _evaluate(method, rep, series, truth, cfg, shared=None,
              lags=()) -> tuple[EvalReport, object]:
    """Fit and score one method.  ``shared`` maps a ``center`` flag to the
    replication's moments; the first method to need one builds it at
    ``lags`` below T inside its timer, so the reports' seconds sum to all the
    fitting; ``shared["truth"]`` keeps the last run of true signals for the
    next method.  Without ``shared`` the fit builds its own moments."""
    start = time.perf_counter()
    try:
        _checked(series.shape[1:], "auto", cfg.k_max)  # the rank selection's gate
        spec = METHODS[method]
        if shared is None:
            shared, lags = {}, spec.lags(cfg)
        if cfg.center not in shared:
            shared[cfg.center] = series_moments(
                series, [h for h in lags if h < len(series)], cfg.center)
        moments = shared[cfg.center]
        fit = spec.fit(series, cfg, moments)
        seconds = time.perf_counter() - start
        # an automatic fit already applied the ratio rule; explicit ranks
        # take it, untimed, from the start spectra the fit left in the moments
        ranks_est = fit.ranks if isinstance(cfg.ranks, str) else tuple(
            a.shape[1] for a in _start(series, spec.lags(cfg), "auto", cfg.k_max,
                                       cfg.center, moments)[1])
    except Exception as exc:  # noqa: BLE001 - a failed rep must not kill the run
        seconds = time.perf_counter() - start
        logger.warning("replication %d, method %s failed: %s", rep, method, exc)
        return EvalReport(method=method, replication=rep, seconds=seconds,
                          error=str(exc)), None
    # RE and RMSE from the fitted (plus the mean) and true signals of each run
    # of tensors: the whole-array metrics' per-tensor sums, in their order
    re_sums, rmse_num = (0.0, 0.0), 0.0
    for s, s_hat in _signal_pieces(fit.factors, fit.loadings, fit.mean):
        re_sums = _reconstruction_sums(series[s], s_hat, *re_sums)
        if truth is not None:
            if shared.get("truth", (None,))[0] != s:
                shared["truth"] = s, reconstruct_signals(truth.cores[s], truth.loadings)
            rmse_num, _ = _reconstruction_sums(shared["truth"][1], s_hat, rmse_num, 0.0)
    re_val = _relative_error(*re_sums)
    distances = rmse = acc = None
    if truth is not None:
        distances = tuple(
            column_space_distance(a_hat, a_true)
            for a_hat, a_true in zip(fit.loadings, truth.loadings)
        )
        rmse = float(np.sqrt(rmse_num / series.size))
        acc = rank_accuracy(ranks_est, tuple(a.shape[1] for a in truth.loadings))
    return EvalReport(method=method, replication=rep, seconds=seconds,
                      distances=distances, rmse=rmse, accuracy=acc,
                      reconstruction=re_val, ranks_estimated=ranks_est), fit


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _emit_loading_csvs(out_dir, rep, method, fit, rotate):
    directory = os.path.join(out_dir, "loadings")
    os.makedirs(directory, exist_ok=True)
    for d, a in enumerate(fit.loadings):
        mat = varimax(a)[0] if rotate else a
        path = os.path.join(directory, f"rep{rep:03d}_{method}_A{d + 1}.csv")
        np.savetxt(path, mat, delimiter=",")


def run_experiment(config: ExperimentConfig) -> list[EvalReport]:
    """Run every (replication, method) pair and write ``out_dir/results.csv``.

    Replications are processed in order, so the CSV is deterministic for
    a fixed seed apart from the ``seconds`` column.  Returns the list of
    per-fit reports.
    """
    lags = {}  # center flag -> every lag its methods read from the moments
    for method in config.methods:
        cfg = config.estimator_for(method)
        lags.setdefault(cfg.center, set()).update(METHODS[method].lags(cfg))
    os.makedirs(config.out_dir, exist_ok=True)
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
        shared = {}  # the replication's moments and last run of true signals
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
        logger.info("replication %d/%d done", rep + 1, config.replications)

    rows.extend(_aggregate_rows(reports, config.methods, d_count))
    with open(os.path.join(config.out_dir, "results.csv"), "w", newline="") as fh:
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
    return float(np.std(np.asarray(values, float), ddof=1)) if len(values) > 1 else 0.0


def _agg(values, fn):
    values = [v for v in values if v is not None]
    return float(fn(values)) if values else None


def _words(text):
    """The comma- or space-separated words of ``text``."""
    return text.replace(",", " ").split()


def _ints(text):
    """A comma- or space-separated list of at least one integer."""
    values = _words(text)
    if not values or not all(v.lstrip("+-").isdigit() for v in values):
        raise ValueError(f"not a list of integers: {text!r}")
    return tuple(map(int, values))


def _ranks(text):
    return "auto" if text.strip() == "auto" else _ints(text)


def _boolean(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# Every estimator option once: its EstimatorConfig field, INI key, CLI flag,
# parser and help.  A "--no-" flag is a switch that sets its field False.
OPTIONS = {
    "ranks": ("ranks", "--ranks", _ranks, "comma-separated ranks per mode, or 'auto'"),
    "k_max": ("kmax", "--kmax", int, "search bound for automatic rank selection"),
    "tol": ("tol", "--tol", float, None),
    "max_iter": ("max_iter", "--max-iter", int, None),
    "update_within_sweep": ("update_within_sweep", "--no-update-within-sweep", _boolean,
                            "freeze projections within each refinement sweep"),
    "center": ("center", "--no-center", _boolean,
               "skip subtracting the temporal mean tensor"),
    "lags": ("lags", "--lags", int, "auto-covariance lag count for itipup"),
}


def _parse_option(name, text):
    """The estimator option ``name`` given as ``text``, parsed by its entry
    in :data:`OPTIONS` and validated as :class:`EstimatorConfig` does."""
    value = OPTIONS[name][2](text)
    EstimatorConfig(**{name: value})  # each field is validated alone
    return value


def _experiment_value(name, value, **others):
    """``value`` of ExperimentConfig's ``name``, checked beside ``others``."""
    ExperimentConfig(**{"methods": ["mopca"], "input_path": "", **others, name: value})
    return value


def _read(parser, flags, section, key, parse, default=None, check=lambda value: value):
    """``check`` of the flag's value given in place of ``[section] key``, or of
    the key through ``parse``, else ``default``; an error names flag or key."""
    flag, value = flags.get((section.partition(".")[0], key), (None, None))
    if flag is None and not parser.has_option(section, key):
        return default
    try:
        return check(parse(parser[section][key]) if flag is None else value)
    except (ValueError, configparser.Error) as exc:  # or a bad %-interpolation
        raise ValueError(f"{flag or f'[{section}] {key}'}: {exc}") from None


def _estimator_from_section(read, section, base: EstimatorConfig, method: str):
    return EstimatorConfig(method=method, **{
        name: read(section, key, partial(_parse_option, name), getattr(base, name))
        for name, (key, *_) in OPTIONS.items()})


def parse_experiment_config(path, flags=None) -> ExperimentConfig:
    """Read an experiment description from a key-value config file.

    The file uses INI-style sections: ``[experiment]`` (methods,
    replications, seed, out, input, emit_loadings, varimax),
    ``[simulation]`` (T, dims, ranks, phi, psi or scenario, seed) and
    ``[estimator]`` plus optional ``[estimator.<method>]`` overrides, whose
    keys are those of :data:`OPTIONS`.  ``flags`` maps ``(section, key)`` to
    ``(flag, parsed value or None)``; a value takes the key's place (an
    ``[estimator]`` key's in every ``[estimator.<method>]`` too) before
    anything reads it.  A value that cannot be parsed or fails validation
    raises a ValueError naming its flag, its ``[section] key`` or the file.
    """
    flags = {key: given for key, given in (flags or {}).items() if given[1] is not None}
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise FileNotFoundError(f"config file not found: {path}")
    except configparser.Error as exc:  # a duplicate, or no section header first
        raise ValueError(" ".join(str(exc).split())) from None  # it names the file
    if "experiment" not in parser:
        raise ValueError(f"{path}: config file is missing the [experiment] section")
    read = partial(_read, parser, flags)
    sim = None
    if "simulation" in parser:
        phi = read("simulation", "phi", float, 0.0)
        psi = read("simulation", "psi", float, 0.0)
        name = read("simulation", "scenario", str.strip)
        if name is not None and name not in SCENARIOS:
            raise ValueError(f"[simulation] scenario: unknown scenario {name!r}")
        phi, psi = SCENARIOS.get(name, (phi, psi))
        if missing := [k for k in ("T", "dims") if k not in parser["simulation"]]:
            raise ValueError(f"[simulation] {missing[0]}: missing (it has no default)")
        seed = read("simulation", "seed", int)
        args = (read("simulation", "T", int), read("simulation", "dims", _ints),
                read("simulation", "ranks", _ints, (2, 3, 4)), phi, psi,
                read("experiment", "seed", int, 0) if seed is None else seed)
        try:
            sim = SimConfig(*args)
        except ValueError as exc:
            raise ValueError(f"[simulation]: {exc}") from None
    elif ("simulation", "seed") in flags:
        raise ValueError(f"{flags['simulation', 'seed'][0]}: no [simulation] to seed")
    methods = read("experiment", "methods", _words, ["mopca"],
                   partial(_experiment_value, "methods"))
    replications = read("experiment", "replications", int, 1,
                        partial(_experiment_value, "replications"))
    emit_loadings = read("experiment", "emit_loadings", _boolean, False)
    varimax = read("experiment", "varimax", _boolean, False, partial(
        _experiment_value, "apply_varimax", emit_loadings=emit_loadings))
    base = _estimator_from_section(read, "estimator", EstimatorConfig(), "mopca")
    # every method's config, so a --methods override keeps [estimator]
    estimators = {m: _estimator_from_section(read, f"estimator.{m}", base, m)
                  for m in METHODS}
    out, input_path = read("experiment", "out", str, "."), read("experiment", "input", str)
    try:
        return ExperimentConfig(methods, replications, out, sim, input_path, estimators,
                                emit_loadings, varimax)
    except ValueError as exc:  # sim and input_path together, which no key holds
        raise ValueError(f"{path}: {exc}") from None
