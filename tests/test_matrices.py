"""Every matrix argument of the package is checked by one rule
(``tensor._matrix``): a complex or empty matrix, a vector, a 3-D array, or
a NaN or inf entry fails by name before any decomposition, and finite
matrices pass, as arrays or nested lists."""

import numpy as np
import pytest

from tuckerfactor import (
    column_space_distance,
    subspace_distance,
    thin_left_singular,
    top_k_eigensystem,
    varimax,
)

GOOD = np.eye(4, 2) + 0.5


def _with(value):
    bad = np.eye(4) + 0.5
    bad[1, 0] = value
    return bad


# (argument, call): each call is valid input with GOOD @ GOOD.T for ``s``
# and GOOD for every other argument
CASES = [
    ("s", lambda v: top_k_eigensystem(v, 1)),
    ("m", lambda v: thin_left_singular(v, 1)),
    ("a", lambda v: subspace_distance(v, GOOD)),
    ("b", lambda v: subspace_distance(GOOD, v)),
    ("a_hat", lambda v: column_space_distance(v, GOOD)),
    ("a_true", lambda v: column_space_distance(GOOD, v)),
    ("a", lambda v: varimax(v)),
]
IDS = [f"{name}-{i}" for i, (name, _) in enumerate(CASES)]

# (non-matrix, message after the argument's name)
BAD = [
    pytest.param(np.ones(4), r"must be a matrix, got shape \(4,\)", id="vector"),
    pytest.param(np.ones((4, 2, 2)), r"must be a matrix, got shape \(4, 2, 2\)", id="3-d"),
    pytest.param(_with(np.nan), "has non-finite entries", id="nan"),
    pytest.param(_with(np.inf), "has non-finite entries", id="inf"),
    pytest.param(GOOD * 1j, "must be real, got complex entries", id="complex"),
    pytest.param(GOOD + 0j, "must be real, got complex entries", id="complex-real"),
    pytest.param(np.ones((4, 0)), r"is empty, got shape \(4, 0\)", id="no-columns"),
    pytest.param(np.ones((0, 4)), r"is empty, got shape \(0, 4\)", id="no-rows"),
]


@pytest.fixture
def no_decompositions(monkeypatch):
    """Make every LAPACK decomposition that the matrix functions call fail."""
    def decomposition(*args, **kwargs):
        raise AssertionError("a decomposition ran before the arguments were checked")
    for name in ("eigh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, decomposition)


@pytest.mark.parametrize("value, message", BAD)
@pytest.mark.parametrize("name, call", CASES, ids=IDS)
def test_non_matrices_rejected_by_name_before_any_decomposition(
        no_decompositions, name, call, value, message):
    with pytest.raises(ValueError, match=f"^{name} {message}$"):
        call(value)


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
@pytest.mark.parametrize("name, call", CASES, ids=IDS)
def test_finite_matrices_accepted(name, call, as_list):
    value = GOOD @ GOOD.T if name == "s" else GOOD
    call(value.tolist() if as_list else value)


@pytest.mark.parametrize("shape", [(3, 0), (0, 2)])
def test_distances_between_no_subspaces_are_refused(shape):
    # they returned 0.0, or died with IndexError in column_space_distance
    for distance in (subspace_distance, column_space_distance):
        with pytest.raises(ValueError, match="is empty"):
            distance(np.ones(shape), np.ones(shape))


def test_complex_matrices_are_not_read_as_their_real_part():
    # the imaginary part was dropped with a ComplexWarning: distance 0.7071
    with pytest.raises(ValueError, match="^a must be real"):
        subspace_distance(1j * np.ones((3, 2)), np.ones((3, 2)))
