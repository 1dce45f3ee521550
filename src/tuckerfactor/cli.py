"""Command-line interface.

Subcommands: ``simulate`` (write a dataset plus truth files),
``estimate`` (fit and persist loadings/factors), ``rank`` (eigenvalue-
ratio rank selection), ``reconstruct`` (apply saved loadings, report the
reconstruction error) and ``bench`` (replication study from a config
file).

Exit codes: 0 success, 1 usage error (including an option value, from
a flag or the ``bench`` config, that cannot be parsed or fails
validation), 2 I/O or file-format error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
import time
from functools import partial

import numpy as np

from .estimation import _signal_pieces, _start, extract_factors, varimax
from .experiment import (
    METHODS,
    OPTIONS,
    EstimatorConfig,
    _ints,
    _parse_option,
    _words,
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
from .simulation import SCENARIOS, SimConfig, _stream_key, simulate_dataset
from .tensor import _second_thread, mode_product

USAGE_EXIT = 1
IO_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _usage_error(command, message):
    print(f"tuckerfactor {command}: error: {message}", file=sys.stderr)
    return USAGE_EXIT


def _typed(parse):
    """``parse`` as an argparse type: a value it rejects is a usage error
    naming the flag."""
    def typed(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return typed


def _add_estimator_flags(p, names=tuple(OPTIONS)):
    """The flags of the estimator options ``names``, from :data:`OPTIONS`;
    an option left out stays None (see :func:`_estimator_options`)."""
    for name in names:
        key, flag, _, help_text = OPTIONS[name]
        if flag.startswith("--no-"):
            p.add_argument(flag, dest=name, action="store_false", default=None,
                           help=help_text)
        else:
            p.add_argument(flag, dest=name, type=_typed(partial(_parse_option, name)),
                           metavar=key.upper(), help=help_text)


def _estimator_options(args):
    return {name: getattr(args, name) for name in OPTIONS
            if getattr(args, name, None) is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tuckerfactor",
                     description="Tucker tensor factor model estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="write a simulated dataset")
    p_sim.add_argument("--out", required=True, help="output data file")
    p_sim.add_argument("--T", type=int, default=20, dest="T")
    p_sim.add_argument("--dims", type=_typed(_ints), default="20,20,20")
    p_sim.add_argument("--ranks", type=_typed(_ints), default="2,3,4")
    p_sim.add_argument("--phi", type=float, default=0.0)
    p_sim.add_argument("--psi", type=float, default=0.0)
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
    p_est.add_argument("--method", default="mopca", choices=list(METHODS))
    _add_estimator_flags(p_est)

    p_rank = sub.add_parser("rank", help="eigenvalue-ratio rank selection")
    p_rank.add_argument("data")
    p_rank.add_argument("--method", default="mopca", choices=["mopca", "itipup"])
    _add_estimator_flags(p_rank, ("k_max", "lags", "center"))

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
    p_bench.add_argument("--out", default=None, help="output directory")
    p_bench.add_argument("--reps", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--methods", type=_words, default=None,
                         help="comma-separated methods")
    _add_estimator_flags(p_bench)
    p_bench.add_argument("--varimax", action="store_true", default=None)
    p_bench.add_argument("--emit-loadings", action="store_true", default=None)
    return parser


def _cmd_simulate(args) -> int:
    phi, psi = SCENARIOS[args.scenario] if args.scenario else (args.phi, args.psi)
    try:
        config = SimConfig(T=args.T, dims=args.dims, ranks=args.ranks, phi=phi,
                           psi=psi, seed=args.seed)
        _stream_key(args.rep, "replication")
    except ValueError as exc:
        return _usage_error("simulate", exc)
    series, truth = simulate_dataset(config, args.rep)
    write_tensor_series(args.out, series)
    write_loadings(f"{args.out}.truth", truth.loadings)
    write_tensor_series(f"{args.out}.cores", truth.cores)
    print(f"wrote {args.out}: T={config.T} dims={config.dims} "
          f"ranks={config.ranks} phi={config.phi} psi={config.psi}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = EstimatorConfig(method=args.method, **_estimator_options(args))
    series = read_tensor_series(args.data)
    start = time.perf_counter()
    fit = METHODS[args.method].fit(series, cfg, None)
    seconds = time.perf_counter() - start
    loadings, factors = list(fit.loadings), fit.factors
    if args.varimax:  # loadings A_d q_d keep their signals with cores x_d q_d'
        for d, a in enumerate(fit.loadings):
            loadings[d], q = varimax(a)
            factors = mode_product(factors, q.T, d + 1)
    write_loadings(args.out, loadings)
    write_tensor_series(f"{args.out}.cores", factors)
    print(f"method={args.method} ranks={','.join(map(str, fit.ranks))} "
          f"iterations={fit.iterations} converged={fit.converged} "
          f"seconds={seconds:.3f}")
    return 0


def _cmd_rank(args) -> int:
    cfg = EstimatorConfig(method=args.method, **_estimator_options(args))
    series = read_tensor_series(args.data)
    # the fits' own start: one moment pass, centring chunk by chunk
    _, loadings, spectra = _start(series, METHODS[args.method].lags(cfg), "auto",
                                  cfg.k_max, cfg.center, None)
    print(",".join(str(a.shape[1]) for a in loadings))
    for d, values in enumerate(spectra):
        listing = " ".join(f"{v:.6g}" for v in values)
        print(f"mode {d + 1} eigenvalues: {listing}")
    return 0


def _cmd_reconstruct(args) -> int:
    series = read_tensor_series(args.data)
    loadings = read_loadings(args.loadings)
    center = not args.no_center
    # the fits' cores: projected, then less their own temporal mean
    factors = extract_factors(series, loadings, center)
    mean = series.mean(axis=0) if center else None
    sums = (0.0, 0.0)
    out = open(args.out, "wb") if args.out is not None else contextlib.nullcontext()
    # run by run, no full-size copy; a run is written while the next is built
    try:
        with out, _second_thread(series) as submit:
            if args.out is not None:
                written = submit(out.write, _header(series.shape))
            for s, signals in _signal_pieces(factors, loadings,
                                             None if args.centered_output else mean):
                x = series[s] - mean if args.centered_output and center else series[s]
                sums = _reconstruction_sums(x, signals, *sums)
                if args.out is not None:
                    written.result()
                    written = submit(_write_payload, out, signals)
            if args.out is not None:
                written.result()
            re_val = _relative_error(*sums)
    except Exception:
        if args.out is not None:
            os.remove(args.out)  # a failed run leaves no partial output
        raise
    print(f"RE: {re_val:.6f}")
    return 0


def _cmd_bench(args) -> int:
    flags = {("experiment", "out"): ("--out", args.out),
             ("experiment", "replications"): ("--reps", args.reps),
             ("experiment", "methods"): ("--methods", args.methods),
             ("experiment", "emit_loadings"): ("--emit-loadings", args.emit_loadings),
             ("experiment", "varimax"): ("--varimax", args.varimax),
             ("simulation", "seed"): ("--seed", args.seed),
             **{("estimator", key): (flag, getattr(args, name))
                for name, (key, flag, *_) in OPTIONS.items()}}
    try:  # each flag given takes the place of its [section] key
        config = parse_experiment_config(args.config, flags)
    except ValueError as exc:  # named by its flag, its [section] key or the file
        return _usage_error("bench", exc)
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
