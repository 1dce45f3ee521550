"""Binary tensor-series file format.

Layout (all integers little-endian, independent of host byte order):

    offset  size  field
    0       4     magic bytes ``TNSF``
    4       1     format version (currently 1)
    5       1     D, number of tensor modes (1..255)
    6       2     reserved, must be zero
    8       8     u64 T, number of tensors
    16      8*D   u64 dims p_1 .. p_D
    16+8D   8*T*p f64 payload; tensor t contiguous, first index fastest

Loading matrices are stored in the same container as 2-way tensors with
T = 1, one file per mode with suffixes ``.A1``, ``.A2``, ...

The reader reads the payload tensor by tensor, each at its offset, into
the array it returns (the second half in a second thread, see
``tensor._in_halves``), so it holds the series once.  The writer goes
one tensor at a time too; its header and payload steps are separate, so
the CLI can write a series chunk by chunk as it computes it.
"""

from __future__ import annotations

import glob
import math
import os
import struct

import numpy as np

from .tensor import _in_halves

MAGIC = b"TNSF"
VERSION = 1
_HEADER_FIXED = 16  # magic + version + D + reserved + T


class TensorSeriesFormatError(Exception):
    """Malformed tensor-series file."""


class BadMagicError(TensorSeriesFormatError):
    """Leading magic bytes are not ``TNSF``."""


class VersionMismatchError(TensorSeriesFormatError):
    """Recognized container but unsupported format version."""


class PayloadSizeError(TensorSeriesFormatError):
    """Header dims and payload length disagree."""


def write_tensor_series(path, series) -> None:
    """Write a series of equal-shape tensors to ``path``.

    ``series`` is an array of shape ``(T, p_1, ..., p_D)`` (or a list of
    T equal-shape real tensors) with no zero-size axis.  Values are stored
    as little-endian f64; the round trip through :func:`read_tensor_series`
    is bit-exact.
    """
    if np.iscomplexobj(series):  # a cast would drop the imaginary parts
        raise ValueError(f"cannot write complex entries to {path}: the format holds reals")
    arr = np.asarray(series, dtype=float)
    header = _header(arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        _write_payload(fh, arr)


def _header(shape) -> bytes:
    """Header bytes for a series of ``shape``, refusing any shape that
    :func:`read_tensor_series` would reject."""
    if len(shape) < 2:
        raise ValueError("series must have shape (T, p_1, ..., p_D)")
    t_len, dims = shape[0], shape[1:]
    if 0 in shape:
        raise ValueError(f"series is empty, got shape {tuple(shape)}")
    if len(dims) > 255:
        raise ValueError("at most 255 modes supported")
    header = MAGIC + bytes([VERSION, len(dims), 0, 0]) + struct.pack("<Q", t_len)
    return header + struct.pack(f"<{len(dims)}Q", *dims)


def _write_payload(fh, arr) -> None:
    """Append the tensors of ``arr`` to an open file, one at a time, so
    consecutive chunks of a series write the bytes of the whole series.
    Each tensor is transposed into one reused buffer in the file's order."""
    buf = np.empty(arr.shape[:0:-1], dtype="<f8")
    for t in range(arr.shape[0]):
        buf[...] = arr[t].T
        fh.write(buf)


def read_tensor_series(path) -> np.ndarray:
    """Read a tensor series written by :func:`write_tensor_series`.

    Returns a C-ordered array of shape ``(T, p_1, ..., p_D)``.  Raises
    :class:`BadMagicError`, :class:`VersionMismatchError` or
    :class:`PayloadSizeError` on corrupted files, each naming the byte
    offset of the problem.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_FIXED)
        if len(head) < _HEADER_FIXED:
            raise PayloadSizeError(
                f"file ends at byte {len(head)}, expected at least "
                f"{_HEADER_FIXED} header bytes"
            )
        if head[:4] != MAGIC:
            raise BadMagicError(
                f"bad magic {head[:4]!r} at byte offset 0, expected {MAGIC!r}"
            )
        version = head[4]
        if version != VERSION:
            raise VersionMismatchError(
                f"unsupported version {version} at byte offset 4, expected {VERSION}"
            )
        d_count = head[5]
        if d_count < 1:
            raise PayloadSizeError("mode count of zero at byte offset 5")
        if head[6:8] != b"\x00\x00":
            raise TensorSeriesFormatError(
                "reserved bytes at offset 6 are not zero"
            )
        (t_len,) = struct.unpack("<Q", head[8:16])
        if t_len < 1:
            raise PayloadSizeError("tensor count of zero at byte offset 8")
        dim_bytes = fh.read(8 * d_count)
        if len(dim_bytes) < 8 * d_count:
            raise PayloadSizeError(
                f"file ends at byte {_HEADER_FIXED + len(dim_bytes)}, expected "
                f"{d_count} dimension entries"
            )
        dims = struct.unpack(f"<{d_count}Q", dim_bytes)
        if any(p < 1 for p in dims):
            raise PayloadSizeError(f"zero dimension in header dims {dims}")
        payload_offset = _HEADER_FIXED + 8 * d_count
        p = math.prod(dims)
        expected = t_len * p * 8
        # check sizes first, so a corrupt header cannot size the allocation
        held = os.fstat(fh.fileno()).st_size - payload_offset
        if held < expected:
            raise PayloadSizeError(
                f"payload starting at byte {payload_offset} holds "
                f"{held - held % 8} bytes, header declares {expected}"
            )
        if held > expected:
            raise PayloadSizeError(
                f"trailing bytes after declared payload of {expected} bytes "
                f"at offset {payload_offset}"
            )
        # the caller allocates each half's buffer: pages a worker allocates stay resident
        out, bufs = np.empty((t_len,) + dims), np.empty((min(t_len, 2), p), dtype="<f8")

        def read(ts, half):
            raw, fd = memoryview(bufs[half]).cast("B"), fh.fileno()
            for t in ts:
                # a read stops short past 2 GiB, and reads 0 bytes at the end
                got, start = 0, payload_offset + t * raw.nbytes
                while got < raw.nbytes and (n := os.preadv(fd, [raw[got:]], start + got)):
                    got += n
                if got < raw.nbytes:
                    raise PayloadSizeError(f"payload of {path} shrank while being read")
                # a tensor is stored first index fastest: C order with axes reversed
                out[t] = bufs[half].reshape(dims[::-1]).T
        _in_halves(out, read, range(t_len))
    return out


def write_loadings(prefix, loadings) -> list[str]:
    """Persist loading matrices as ``<prefix>.A1``, ``<prefix>.A2``, ...

    Each matrix is stored as a 2-way tensor series with T = 1.  Returns
    the written paths.
    """
    loadings = [np.asarray(a) for a in loadings]
    for d, a in enumerate(loadings):  # all checked before any file is written
        if a.ndim != 2 or np.iscomplexobj(a):
            raise ValueError(f"loadings of mode {d + 1} must be a real matrix, "
                             f"got {a.dtype} of shape {a.shape}")
    paths = [f"{prefix}.A{d + 1}" for d in range(len(loadings))]
    for path, a in zip(paths, loadings):
        write_tensor_series(path, a[np.newaxis])
    return paths


def read_loadings(prefix) -> list[np.ndarray]:
    """Read the ``.A1``, ``.A2``, ... loading files written by
    :func:`write_loadings`.

    A numbered file beyond the first missing one raises
    :class:`TensorSeriesFormatError` instead of being left out.
    """
    loadings = []
    while os.path.exists(path := f"{prefix}.A{len(loadings) + 1}"):
        arr = read_tensor_series(path)
        if arr.ndim != 3 or arr.shape[0] != 1:
            raise TensorSeriesFormatError(
                f"{path} does not hold a single loading matrix"
            )
        loadings.append(arr[0])
    stem = f"{prefix}.A"
    found = [name[len(stem):] for name in glob.glob(glob.escape(stem) + "*")]
    beyond = sorted(int(n) for n in found if n.isdigit() and int(n) > len(loadings))
    if beyond:
        raise TensorSeriesFormatError(f"{path} missing, but {stem}{beyond[0]} exists")
    if not loadings:
        raise FileNotFoundError(f"no loading files found at {prefix}.A1, ...")
    return loadings
