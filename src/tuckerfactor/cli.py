"""Command-line interface.

Subcommands: ``simulate`` (write a dataset plus truth files),
``estimate`` (fit and persist loadings/factors), ``rank`` (eigenvalue-
ratio rank selection), ``reconstruct`` (apply saved loadings, report the
reconstruction error) and ``bench`` (replication study from a config
file).

Exit codes: 0 success, 1 usage error, 2 I/O or file-format error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import os
import sys
import time

import numpy as np

from .baseline import _tipup_loadings, _tipup_moments
from .estimation import (
    _pca_loadings,
    extract_factors,
    reconstruct_signals,
    series_moments,
    varimax,
)
from .experiment import (
    METHODS,
    EstimatorConfig,
    parse_experiment_config,
    run_experiment,
)
from .io import (
    TensorSeriesFormatError,
    _header,
    _write_payload,
    read_loadings,
    read_tensor_series,
    write_loadings,
    write_tensor_series,
)
from .metrics import _reconstruction_sums, _relative_error
from .simulation import SCENARIOS, SimConfig, simulate_dataset
from .tensor import _chunks

USAGE_EXIT = 1
IO_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_dims(text):
    try:
        values = tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"could not parse dimension list {text!r}") from exc
    if not values:
        raise ValueError("empty dimension list")
    return values


def _count(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _parse_ranks_arg(text):
    text = text.strip()
    if text == "auto":
        return "auto"
    return _parse_dims(text)


def _add_estimator_flags(p):
    p.add_argument("--method", default="mopca", choices=list(METHODS))
    p.add_argument("--ranks", default="auto",
                   help="comma-separated ranks per mode, or 'auto'")
    p.add_argument("--kmax", type=int, default=None,
                   help="search bound for automatic rank selection")
    p.add_argument("--tol", type=_positive, default=1e-6)
    p.add_argument("--max-iter", type=_count, default=50)
    p.add_argument("--no-center", action="store_true",
                   help="skip subtracting the temporal mean tensor")
    p.add_argument("--no-update-within-sweep", action="store_true",
                   help="freeze projections within each refinement sweep")
    p.add_argument("--lags", type=_count, default=1,
                   help="auto-covariance lag count for itipup")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tuckerfactor",
                     description="Tucker tensor factor model estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a simulated dataset")
    p_sim.add_argument("--out", required=True, help="output data file")
    p_sim.add_argument("--T", type=int, default=20, dest="T")
    p_sim.add_argument("--dims", default="20,20,20")
    p_sim.add_argument("--ranks", default="2,3,4")
    p_sim.add_argument("--phi", type=float, default=None)
    p_sim.add_argument("--psi", type=float, default=None)
    p_sim.add_argument("--scenario", choices=sorted(SCENARIOS), default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--rep", type=int, default=0,
                       help="replication index for the derived stream")

    p_est = sub.add_parser("estimate", help="fit a method and persist it")
    p_est.add_argument("data", help="tensor-series file")
    p_est.add_argument("--out", required=True,
                       help="output prefix for loadings/factors")
    p_est.add_argument("--varimax", action="store_true",
                       help="rotate loadings for interpretability before saving")
    _add_estimator_flags(p_est)

    p_rank = sub.add_parser("rank", help="eigenvalue-ratio rank selection")
    p_rank.add_argument("data")
    p_rank.add_argument("--kmax", type=int, default=None)
    p_rank.add_argument("--method", default="mopca", choices=["mopca", "itipup"])
    p_rank.add_argument("--lags", type=_count, default=1)
    p_rank.add_argument("--no-center", action="store_true")

    p_rec = sub.add_parser("reconstruct", help="apply saved loadings")
    p_rec.add_argument("data")
    p_rec.add_argument("--loadings", required=True,
                       help="prefix of the .A1, .A2, ... loading files")
    p_rec.add_argument("--out", default=None, help="signal series output file")
    p_rec.add_argument("--no-center", action="store_true")
    p_rec.add_argument("--centered-output", action="store_true",
                       help="keep signals in centered coordinates instead of "
                            "re-adding the temporal mean")

    p_bench = sub.add_parser("bench", help="replication study from a config file")
    p_bench.add_argument("config")
    p_bench.add_argument("--out", default=None, help="override output directory")
    p_bench.add_argument("--reps", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--methods", default=None,
                         help="comma-separated methods override")
    p_bench.add_argument("--kmax", type=int, default=None)
    p_bench.add_argument("--tol", type=_positive, default=None)
    p_bench.add_argument("--max-iter", type=_count, default=None)
    p_bench.add_argument("--ranks", default=None)
    p_bench.add_argument("--lags", type=_count, default=None)
    p_bench.add_argument("--no-center", action="store_true")
    p_bench.add_argument("--no-update-within-sweep", action="store_true")
    p_bench.add_argument("--varimax", action="store_true")
    p_bench.add_argument("--emit-loadings", action="store_true")
    return parser


def _cmd_simulate(args) -> int:
    phi, psi = args.phi, args.psi
    if args.scenario is not None:
        phi, psi = SCENARIOS[args.scenario]
    config = SimConfig(
        T=args.T,
        dims=_parse_dims(args.dims),
        ranks=_parse_dims(args.ranks),
        phi=0.0 if phi is None else phi,
        psi=0.0 if psi is None else psi,
        seed=args.seed,
    )
    series, truth = simulate_dataset(config, args.rep)
    write_tensor_series(args.out, series)
    write_loadings(f"{args.out}.truth", truth.loadings)
    write_tensor_series(f"{args.out}.cores", truth.cores)
    print(f"wrote {args.out}: T={config.T} dims={config.dims} "
          f"ranks={config.ranks} phi={config.phi} psi={config.psi}")
    return 0


def _estimator_config_from_args(args) -> EstimatorConfig:
    return EstimatorConfig(
        method=args.method,
        ranks=_parse_ranks_arg(args.ranks),
        k_max=args.kmax,
        tol=args.tol,
        max_iter=args.max_iter,
        update_within_sweep=not args.no_update_within_sweep,
        center=not args.no_center,
        lags=args.lags,
    )


def _cmd_estimate(args) -> int:
    series = read_tensor_series(args.data)
    cfg = _estimator_config_from_args(args)
    start = time.perf_counter()
    fit = METHODS[args.method].fit(series, cfg, None)
    seconds = time.perf_counter() - start
    loadings = fit.loadings
    if args.varimax:
        loadings = [varimax(a)[0] for a in loadings]
    write_loadings(args.out, loadings)
    write_tensor_series(f"{args.out}.cores", fit.factors)
    print(f"method={args.method} ranks={','.join(map(str, fit.ranks))} "
          f"iterations={fit.iterations} converged={fit.converged} "
          f"seconds={seconds:.3f}")
    return 0


def _cmd_rank(args) -> int:
    series = read_tensor_series(args.data)
    # the fits' own start: one moment pass, centring chunk by chunk
    center = not args.no_center
    if args.method == "itipup":
        moments = _tipup_moments(series, None, center, args.lags)
        loadings, spectra = _tipup_loadings(series, moments, "auto", args.kmax,
                                            args.lags)
    else:
        loadings, spectra = _pca_loadings(series_moments(series, (0,), center),
                                          "auto", args.kmax)
    print(",".join(str(a.shape[1]) for a in loadings))
    for d, values in enumerate(spectra):
        listing = " ".join(f"{v:.6g}" for v in values)
        print(f"mode {d + 1} eigenvalues: {listing}")
    return 0


def _cmd_reconstruct(args) -> int:
    series = read_tensor_series(args.data)
    loadings = read_loadings(args.loadings)
    if len(loadings) != series.ndim - 1:
        raise ValueError(
            f"{len(loadings)} loading files for {series.ndim - 1}-way data"
        )
    center = not args.no_center
    mean = series.mean(axis=0) if center else None
    sums = (0.0, 0.0)
    out = open(args.out, "wb") if args.out is not None else contextlib.nullcontext()
    # one pass over chunks of whole tensors: no full-size copy besides the
    # series, and the bits of the whole-array computation
    try:
        with out:
            if args.out is not None:
                out.write(_header(series.shape))
            for s in _chunks(series.shape):
                x = series[s]
                xc = x - mean if center else x
                signals = reconstruct_signals(extract_factors(xc, loadings), loadings)
                if args.centered_output:
                    x = xc
                elif center:
                    signals += mean
                sums = _reconstruction_sums(x, signals, *sums)
                if args.out is not None:
                    _write_payload(out, signals)
            re_val = _relative_error(*sums)
    except Exception:
        if args.out is not None:
            os.remove(args.out)  # a failed run leaves no partial output
        raise
    print(f"RE: {re_val:.6f}")
    return 0


def _cmd_bench(args) -> int:
    config = parse_experiment_config(args.config)
    if args.out is not None:
        config.out_dir = args.out
    if args.reps is not None:
        config.replications = args.reps
        if config.sim is not None:
            config.sim.replications = args.reps
    if args.seed is not None and config.sim is not None:
        config.sim.seed = args.seed
    if args.methods is not None:
        config.methods = [m.strip() for m in args.methods.replace(",", " ").split()]
    # one replace per config, so the overrides are validated like the file
    overrides = {}
    for field, value in (("k_max", args.kmax), ("tol", args.tol),
                         ("max_iter", args.max_iter), ("lags", args.lags)):
        if value is not None:
            overrides[field] = value
    if args.ranks is not None:
        overrides["ranks"] = _parse_ranks_arg(args.ranks)
    if args.no_center:
        overrides["center"] = False
    if args.no_update_within_sweep:
        overrides["update_within_sweep"] = False
    config.estimators = {m: dataclasses.replace(cfg, **overrides)
                         for m, cfg in config.estimators.items()}
    if args.varimax:
        config.apply_varimax = True
    if args.emit_loadings:
        config.emit_loadings = True
    reports = run_experiment(config)
    failures = sum(1 for r in reports if r.error is not None)
    print(f"wrote {config.out_dir}/results.csv "
          f"({len(reports)} fits, {failures} failures)")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "rank": _cmd_rank,
    "reconstruct": _cmd_reconstruct,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return _COMMANDS[args.command](args)
    except TensorSeriesFormatError as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return IO_EXIT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return IO_EXIT
    except (ValueError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
