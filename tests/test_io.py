"""Round-trip and corruption tests for the tensor-series file format."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fortran_payload, needs_vmhwm, run_peak_script
from tuckerfactor import (
    BadMagicError,
    PayloadSizeError,
    TensorSeriesFormatError,
    VersionMismatchError,
    read_loadings,
    read_tensor_series,
    write_loadings,
    write_tensor_series,
)


@pytest.fixture
def sample_file(tmp_path, rng):
    path = tmp_path / "series.tnsf"
    data = rng.standard_normal((7, 3, 4, 5))
    write_tensor_series(path, data)
    return path, data


class TestRoundTrip:
    def test_bit_exact(self, sample_file):
        path, data = sample_file
        back = read_tensor_series(path)
        assert back.shape == data.shape
        assert np.array_equal(back, data)

    def test_one_way_series(self, tmp_path, rng):
        path = tmp_path / "vec.tnsf"
        data = rng.standard_normal((9, 6))
        write_tensor_series(path, data)
        assert np.array_equal(read_tensor_series(path), data)

    def test_list_input(self, tmp_path, rng):
        path = tmp_path / "list.tnsf"
        items = [rng.standard_normal((2, 3)) for _ in range(4)]
        write_tensor_series(path, items)
        assert np.array_equal(read_tensor_series(path), np.stack(items))

    def test_extreme_values_survive(self, tmp_path):
        path = tmp_path / "edge.tnsf"
        data = np.array([[np.finfo(float).max, np.finfo(float).tiny,
                          -np.finfo(float).eps, 0.0]])
        write_tensor_series(path, data)
        assert np.array_equal(read_tensor_series(path), data)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.lists(st.integers(0, 3), min_size=0, max_size=4))
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path_factory, shape):
        # a write either raises ValueError and leaves no file, or makes a
        # file that reads back bit-exactly; e.g. a zero-size mode (3, 0, 2)
        path = tmp_path_factory.mktemp("rt") / "series.tnsf"
        data = np.arange(float(np.prod(shape))).reshape(shape)
        try:
            write_tensor_series(path, data)
        except ValueError:
            assert not path.exists()
            return
        assert np.array_equal(read_tensor_series(path), data)

    def test_payload_layout_first_index_fastest(self, tmp_path):
        # byte-level check of the declared on-disk ordering
        path = tmp_path / "layout.tnsf"
        data = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")[np.newaxis]
        write_tensor_series(path, data)
        raw = path.read_bytes()
        header = 16 + 8 * 3
        values = struct.unpack("<8d", raw[header:])
        assert values == tuple(float(v) for v in range(1, 9))


@pytest.mark.parametrize("layout", ["contiguous", "reversed", "fortran", "strided"])
@pytest.mark.parametrize("shape", [(5, 7), (4, 3, 5), (3, 4, 2, 5), (2, 3, 2, 4, 3)])
def test_payload_bytes_match_a_fortran_ravel(tmp_path, rng, shape, layout):
    data = rng.standard_normal(shape)
    data = {"contiguous": data, "reversed": data[:, ::-1],
            "fortran": np.asfortranarray(data),
            "strided": np.repeat(data, 2, axis=-1)[..., ::2]}[layout]
    path = tmp_path / "series.tnsf"
    write_tensor_series(path, data)
    header = 16 + 8 * (len(shape) - 1)
    assert path.read_bytes()[header:] == fortran_payload(data)


class TestCorruption:
    def test_bad_magic(self, sample_file):
        path, _ = sample_file
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError, match="offset 0"):
            read_tensor_series(path)

    def test_version_mismatch(self, sample_file):
        path, _ = sample_file
        raw = bytearray(path.read_bytes())
        raw[4] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError, match="offset 4"):
            read_tensor_series(path)

    def test_truncated_payload(self, sample_file):
        path, _ = sample_file
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(PayloadSizeError) as err:
            read_tensor_series(path)
        # error names both the expected and the observed byte counts
        assert "3360" in str(err.value)
        assert "3344" in str(err.value)

    def test_trailing_garbage(self, sample_file):
        path, _ = sample_file
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(PayloadSizeError, match="trailing"):
            read_tensor_series(path)

    def test_reserved_bytes(self, sample_file):
        path, _ = sample_file
        raw = bytearray(path.read_bytes())
        raw[6] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorSeriesFormatError, match="reserved"):
            read_tensor_series(path)

    def test_zero_dims(self, tmp_path):
        header = b"TNSF" + bytes([1, 2, 0, 0]) + struct.pack("<Q", 1)
        header += struct.pack("<QQ", 0, 3)
        path = tmp_path / "zero.tnsf"
        path.write_bytes(header)
        with pytest.raises(PayloadSizeError, match="zero dimension"):
            read_tensor_series(path)

    def test_error_classes_are_distinct(self):
        classes = {BadMagicError, VersionMismatchError, PayloadSizeError}
        assert len(classes) == 3
        for cls in classes:
            assert issubclass(cls, TensorSeriesFormatError)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_tensor_series(tmp_path / "nope.tnsf")

    def test_huge_declared_size_is_payload_error(self, sample_file):
        # a flipped high byte of T declares exabytes; the reader must not
        # try to allocate them
        path, _ = sample_file
        raw = bytearray(path.read_bytes())
        raw[15] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(PayloadSizeError, match="header declares"):
            read_tensor_series(path)

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        cut=st.one_of(st.none(), st.integers(0, 10**6)),
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                       max_size=3),
    )
    def test_fuzzed_file_raises_only_format_errors(self, tmp_path_factory, shape,
                                                   seed, cut, flips):
        # random truncations and byte flips of a valid file either read
        # back as a series that rewrites to the same bytes, or raise a
        # TensorSeriesFormatError; never a raw numpy or struct error
        path = tmp_path_factory.mktemp("fuzz") / "series.tnsf"
        write_tensor_series(path, np.random.default_rng(seed).standard_normal(shape))
        raw = bytearray(path.read_bytes())
        for pos, mask in flips:
            raw[pos % len(raw)] ^= mask
        if cut is not None:
            raw = raw[:cut % len(raw)]
        path.write_bytes(bytes(raw))
        try:
            back = read_tensor_series(path)
        except TensorSeriesFormatError:
            return
        write_tensor_series(path, back)
        assert path.read_bytes() == bytes(raw)


_READ_PEAK_SCRIPT = """
import sys
from tuckerfactor import read_tensor_series

before = peak_kib()
series = read_tensor_series(sys.argv[1])
print((peak_kib() - before) * 1024 / series.nbytes)
"""


@needs_vmhwm
def test_read_holds_the_series_once(tmp_path):
    # peak RSS growth of a fresh process reading a 32 MiB file; a reader
    # that copies the payload once more grows by twice the payload
    path = tmp_path / "big.tnsf"
    write_tensor_series(path, np.ones((32, 64, 64, 32)))
    assert float(run_peak_script(_READ_PEAK_SCRIPT, path)) < 1.5


class TestLoadings:
    def test_round_trip(self, tmp_path, rng):
        prefix = tmp_path / "fit"
        loadings = [rng.standard_normal((5, 2)), rng.standard_normal((7, 3))]
        paths = write_loadings(prefix, loadings)
        assert [p.endswith(".A1") or p.endswith(".A2") for p in paths]
        back = read_loadings(prefix)
        assert len(back) == 2
        for a, b in zip(loadings, back):
            assert np.array_equal(a, b)

    def test_missing_prefix(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_loadings(tmp_path / "nothing")

    @pytest.mark.parametrize("missing", [1, 2])
    def test_gap_in_numbering_is_format_error(self, tmp_path, rng, missing):
        prefix = tmp_path / "fit"
        write_loadings(prefix, [rng.standard_normal((4, 2)) for _ in range(3)])
        os.remove(f"{prefix}.A{missing}")
        with pytest.raises(TensorSeriesFormatError, match=rf"fit\.A{missing} missing"):
            read_loadings(prefix)

    def test_unnumbered_siblings_are_ignored(self, tmp_path, rng):
        prefix = tmp_path / "fit"
        write_loadings(prefix, [rng.standard_normal((4, 2)) for _ in range(2)])
        (tmp_path / "fit.A3.bak").write_bytes(b"")
        (tmp_path / "fit.Ax").write_bytes(b"")
        assert len(read_loadings(prefix)) == 2


class TestComplexRefused:
    """The format holds reals: a complex series or loading matrix fails by
    name and leaves no file, where a cast would drop its imaginary parts."""

    def test_series(self, tmp_path):
        path = tmp_path / "series.tnsf"
        with pytest.raises(ValueError, match="cannot write complex entries to .*series"):
            write_tensor_series(path, np.ones((3, 2, 2)) * (1 + 1j))
        assert not path.exists()

    def test_loadings_name_their_mode(self, tmp_path):
        with pytest.raises(ValueError, match="loadings of mode 2 must be a real matrix, "
                                             "got complex128"):
            write_loadings(tmp_path / "fit", [np.ones((4, 2)), np.ones((3, 2)) * 1j])
        assert not list(tmp_path.iterdir())

    def test_nan_is_written(self, tmp_path):
        # reconstruct checks loadings itself, so NaN ones must reach the file
        a = np.full((4, 2), np.nan)
        write_loadings(tmp_path / "fit", [a])
        assert np.isnan(read_loadings(tmp_path / "fit")[0]).all()
