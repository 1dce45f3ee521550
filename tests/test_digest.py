"""Tests for the output digests of ``tools/digest.py``."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tuckerfactor
from tuckerfactor import cli, tensor

_PATH = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
_SPEC = importlib.util.spec_from_file_location("digest", _PATH)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def sha(value):
    h = hashlib.sha256()
    digest.feed(h, value)
    return h.hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_script_prints_each_group_as_computed_in_process(threads):
    # on two cores the large cases take the two-thread passes at 1 BLAS thread
    # and run in turn at 2: the lines must not depend on which
    done = subprocess.run([sys.executable, str(_PATH), "--src",
                           str(Path(tuckerfactor.__file__).parents[1])],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
    printed = dict(line.split(" ") for line in done.stdout.splitlines())
    assert list(printed) == list(digest.GROUPS)
    assert list(printed) == ["simulate", "simulate-large", "fits", "ranks", "layers",
                             "matrices", "cli", "cli-large"]
    assert all(re.fullmatch("[0-9a-f]{64}", value) for value in printed.values())
    assert printed == digest.digests(tuckerfactor)


def test_a_changed_output_changes_its_group_alone(monkeypatch):
    before = digest.digests(tuckerfactor)
    varimax = tuckerfactor.varimax

    def nudged(a, *args, **kwargs):
        rotated, q = varimax(a, *args, **kwargs)
        return np.nextafter(rotated, np.inf), q

    monkeypatch.setattr(tuckerfactor, "varimax", nudged)
    after = digest.digests(tuckerfactor)
    assert [g for g in before if before[g] != after[g]] == ["matrices"]


def test_cli_large_alone_reads_tensors_that_may_be_read_at_once(monkeypatch):
    before = digest.digests(tuckerfactor)
    read = cli.read_tensor_series

    def nudged(path):
        x = read(path)
        return np.nextafter(x, np.inf) if x[0].size > tensor._AT_ONCE_ELEMS else x

    monkeypatch.setattr(cli, "read_tensor_series", nudged)
    after = digest.digests(tuckerfactor)
    assert [g for g in before if before[g] != after[g]] == ["cli-large"]


def test_feed_tells_apart_values_that_compare_equal():
    zero = np.zeros((2, 2))
    assert len({sha(zero), sha(-zero), sha(zero.reshape(4)),
                sha(zero.astype(np.float32))}) == 4
    assert sha(np.asfortranarray(zero)) == sha(zero)  # the memory layout does not count
    assert len({sha([1, 2]), sha((1, 2)), sha([[1, 2]]), sha(b"12"), sha("12")}) == 5
    assert sha({"b": 1, "a": 2}) == sha({"a": 2, "b": 1})


def test_a_tree_without_the_package_is_refused(tmp_path):
    done = subprocess.run([sys.executable, str(_PATH), "--src", str(tmp_path)],
                          capture_output=True, text=True, check=False)
    assert done.returncode == 1 and done.stdout == ""
    assert "tuckerfactor" in done.stderr
