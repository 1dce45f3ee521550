"""Digests of the package's outputs from fixed seeds, one SHA-256 per group.

Usage, from the root of a checkout:

    python3 tools/digest.py [--src DIR]

``tuckerfactor`` is imported from ``DIR`` (this checkout's ``src`` by
default), and one line ``<group> <sha256>`` is printed per output group:

* ``simulate``: ``simulate_dataset`` for scenarios I-IV, series and truth;
* ``simulate-large``: one series whose tensors exceed
  ``tensor._CHUNK_ELEMS``, so that the simulator colours windows of a
  tensor and, where ``tensor._reads_at_once`` holds, draws on a second
  thread;
* ``fits``: the four fits with auto and explicit ranks, centred and not,
  and two fits of the large series (its moment pass in windows);
* ``ranks``: ``estimate_ranks`` with and without ``loadings``, and
  ``estimate_ranks_tipup``;
* ``layers``: the moment pass, the mode and projected covariances, the
  projections, factors and signals, and the tensor primitives;
* ``matrices``: ``top_k_eigensystem``, ``thin_left_singular``,
  ``subspace_distance``, ``column_space_distance`` and ``varimax``;
* ``cli``: the exit codes, stdout and output files of ``simulate``,
  ``rank``, ``estimate`` and ``reconstruct``, with ``seconds=`` removed;
* ``cli-large``: the same of ``rank``, ``estimate --method ipmopca`` and
  ``reconstruct --out`` on the large series written to a TNSF file, so
  that, where ``tensor._reads_at_once`` holds, the reader, the
  projections and the writes of ``reconstruct`` run on two threads.

Two trees whose outputs are bitwise equal print the same lines.  One
tree prints the same lines at 1 and at 2 BLAS threads
(``OPENBLAS_NUM_THREADS``), and ``tests/test_digest.py`` checks that.
That holds for these inputs only: the simulator's series with 128-wide
modes differ between thread counts, so compare trees at one count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FITS = ("mopca_fit", "pmopca_fit", "ipmopca_fit", "itipup_fit")
RANKS = (2, 3, 4)
# 66 * 64 * 64 elements a tensor, over tensor._CHUNK_ELEMS = 2**18
LARGE = (66, 64, 64)


def feed(h, value):
    """Add ``value`` to the hash ``h``: an array by its dtype, shape and
    bytes, bytes as they are, a list, tuple or dict item by item, and
    anything else by its ``repr``."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, bytes):
        h.update(b"bytes%d" % len(value))
        h.update(value)
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__}{len(value)}".encode())
        for item in value:
            feed(h, item)
    elif isinstance(value, dict):
        h.update(f"dict{len(value)}".encode())
        for key in sorted(value):
            feed(h, key)
            feed(h, value[key])
    else:
        h.update(repr(value).encode())


def _fit_fields(fit):
    return [fit.loadings, fit.factors, fit.eigvals, fit.iterations, fit.converged,
            fit.per_sweep_distance, fit.mean, fit.signals]


def _simulate(tf, data):
    out = []
    for name in sorted(tf.SCENARIOS):
        series, truth = tf.simulate_dataset(tf.scenario_config(name, 12, (6, 5, 4),
                                                               seed=7), 1)
        out += [series, truth.loadings, truth.cores, truth.signals]
    return out


def _simulate_large(tf, data):
    series, truth = data["large"]
    return [series, truth.loadings, truth.cores]


def _fits(tf, data):
    x, large = data["x"], data["large"][0]
    out = [_fit_fields(getattr(tf, name)(x, ranks, center=center))
           for name in FITS for ranks in ("auto", RANKS) for center in (True, False)]
    return out + [_fit_fields(getattr(tf, name)(large, (2, 2, 2)))
                  for name in ("mopca_fit", "ipmopca_fit")]


def _ranks(tf, data):
    x, a = data["x"], data["truth"].loadings
    return [tf.estimate_ranks(x), tf.estimate_ranks(x, center=True),
            tf.estimate_ranks(x, loadings=a), tf.estimate_ranks(x, 5, a, True),
            tf.estimate_ranks_tipup(x), tf.estimate_ranks_tipup(x, 5, 2, True)]


def _layers(tf, data):
    x, a = data["x"], data["truth"].loadings
    out = []
    for center in (True, False):
        moments = tf.series_moments(x, (0, 1, 2), center)
        out += [moments.mean, moments.grams]
    for d in range(len(a)):
        out += [tf.mode_covariance(x, d), tf.projected_series(x, a, d),
                tf.projected_series(x, a, d, True),
                tf.projected_mode_covariance(x, a, d, True),
                tf.tipup_mode_matrix(x, d), tf.tipup_mode_matrix(x, d, 2),
                tf.unfold(x[0], d), tf.mode_product(x, a[d].T, d + 1)]
    factors = tf.extract_factors(x, a, True)
    out += [tf.extract_factors(x, a), factors, tf.reconstruct_signals(factors, a),
            tf.fold(tf.unfold(x, 2), 2, x.shape),
            tf.multi_mode_product(x[0], a, transpose=True), tf.vectorize(x[0]),
            tf.kronecker(a[0], a[1]), tf.frobenius_norm(x)]
    return out


def _matrices(tf, data):
    rng = np.random.default_rng(11)
    s, m, b = (rng.standard_normal(shape) for shape in ((9, 9), (9, 4), (9, 4)))
    a_true, a_hat = data["truth"].loadings[2], tf.mopca_fit(data["x"], RANKS).loadings[2]
    es = tf.top_k_eigensystem(s @ s.T, 3)
    return [es.values, es.vectors, tf.top_k_eigensystem(s, 9).vectors,
            tf.thin_left_singular(m, 3), tf.thin_left_singular(m.T, 4),
            tf.subspace_distance(m, b), tf.subspace_distance(m, m @ s[:4, :4]),
            tf.subspace_distance(m, b[:, :2]), tf.column_space_distance(m, b),
            tf.column_space_distance(a_hat, a_true), tf.varimax(m), tf.varimax(a_hat)]


def _cli_runs(tf, argvs, series=None):
    """The exit code and stdout (``seconds=`` removed) of each CLI run of
    ``argvs``, then every file left, in a fresh directory where ``series``,
    if given, was first written to ``x.tnsf``."""
    cli = importlib.import_module("tuckerfactor.cli")
    out = []
    # relative paths in a fresh directory, as stdout names its files
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        if series is not None:
            tf.write_tensor_series("x.tnsf", series)
        for argv in argvs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            out += [argv[0], code, re.sub(r"seconds=\S*", "", stdout.getvalue())]
        out += [(path.name, path.read_bytes()) for path in sorted(Path().iterdir())]
    return out


def _cli(tf, data):
    x = "x.tnsf"
    return _cli_runs(tf, (["simulate", "--out", x, "--T", "15", "--dims", "7,6,5",
                           "--ranks", "2,2,3", "--scenario", "IV", "--seed", "4"],
                          ["rank", x], ["rank", x, "--method", "itipup", "--kmax", "4"],
                          ["estimate", x, "--out", "mopca", "--varimax"],
                          ["estimate", x, "--out", "ipmopca", "--method", "ipmopca",
                           "--ranks", "2,2,3"],
                          ["reconstruct", x, "--loadings", "ipmopca",
                           "--out", "signals.tnsf"],
                          ["reconstruct", x, "--loadings", "mopca",
                           "--out", "centred.tnsf", "--centered-output"]))


def _cli_large(tf, data):
    x = "x.tnsf"
    return _cli_runs(tf, (["rank", x],
                          ["estimate", x, "--out", "fit", "--method", "ipmopca"],
                          ["reconstruct", x, "--loadings", "fit", "--out", "signals.tnsf"]),
                     data["large"][0])


GROUPS = {"simulate": _simulate, "simulate-large": _simulate_large, "fits": _fits,
          "ranks": _ranks, "layers": _layers, "matrices": _matrices, "cli": _cli,
          "cli-large": _cli_large}


def digests(tf) -> dict[str, str]:
    """``{group: sha256 hex}`` of the outputs of the package ``tf``."""
    x, truth = tf.simulate_dataset(tf.scenario_config("II", 20, (9, 8, 7), seed=3))
    data = {"x": x, "truth": truth, "large": tf.simulate_dataset(
        tf.scenario_config("IV", 3, LARGE, ranks=(2, 2, 2), seed=5))}
    out = {}
    for name, group in GROUPS.items():
        h = hashlib.sha256()
        feed(h, group(tf, data))
        out[name] = h.hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the tuckerfactor package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    tf = importlib.import_module("tuckerfactor")
    if Path(tf.__file__).resolve().parent.parent != args.src.resolve():
        print(f"tuckerfactor came from {tf.__file__}, not from {args.src}",
              file=sys.stderr)
        return 1
    for name, value in digests(tf).items():
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
