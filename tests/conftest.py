"""Shared fixtures and small construction helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tuckerfactor
from tuckerfactor import generate_loadings, multi_mode_product


def make_orthonormal_loadings(rng, dims, ranks):
    """Scaled-orthonormal loading matrices, one per mode."""
    return [generate_loadings(p, k, rng) for p, k in zip(dims, ranks)]


def make_noiseless_series(rng, t_len, dims, ranks):
    """Noise-free observations plus their generating loadings and cores."""
    loadings = make_orthonormal_loadings(rng, dims, ranks)
    cores = rng.standard_normal((t_len,) + tuple(ranks))
    modes = list(range(1, len(dims) + 1))
    signals = multi_mode_product(cores, loadings, modes=modes)
    return signals, loadings, cores


def fortran_payload(arr):
    """TNSF payload bytes of a series by its definition: each tensor
    ravelled first index fastest, as little-endian f64."""
    return b"".join(arr[t].ravel(order="F").astype("<f8").tobytes()
                    for t in range(arr.shape[0]))


def qr_projector(a):
    """Orthogonal projector onto the column space of ``a``."""
    q, _ = np.linalg.qr(a)
    return q @ q.T


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)


# the BLAS thread counts of the peak tests: the default, and one thread,
# at which series of large tensors take the two-thread passes on two cores
# (tensor._reads_at_once)
BLAS_ENVS = pytest.mark.parametrize(
    "blas_env", [{}, {"OPENBLAS_NUM_THREADS": "1"}], ids=["default-blas", "one-blas-thread"])

needs_vmhwm = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="needs the Linux per-process peak RSS (VmHWM)")

_PEAK_PRELUDE = """
def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
"""


def run_peak_script(script, *args, env=None) -> str:
    """Run ``script`` in a fresh interpreter and return its stdout.

    The script sees ``peak_kib()``, the process's peak RSS in KiB so far,
    and imports tuckerfactor from this checkout.  A fresh process is used
    because ``ru_maxrss`` also carries the peak of the process that
    started it.  ``env`` adds to or overrides this process's environment.
    """
    src = str(Path(tuckerfactor.__file__).parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _PEAK_PRELUDE + script, *map(str, args)],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout
