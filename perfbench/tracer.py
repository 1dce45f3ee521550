"""Outside-in span tracer for the tuckerfactor modules.

The tracer wraps every public function of every ``tuckerfactor`` module and
installs the wrapper in each module namespace that holds the function,
including the modules that imported it by name.  Calls made through
module globals (plain calls, lambdas, name imports) therefore reach the
wrapper; nothing under ``src/`` is edited.  Each call records a span
``[name, start, end, parent, work]`` in memory.  ``collect`` turns the
spans of one operation into per-function totals and clears them.

Work counts are computed from argument shapes, not measured: bytes moved
are the bytes of the operands read plus the result written, once each,
and flops count one multiply and one add per term of the contraction.
Cache misses and temporary copies are not included.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

PACKAGE = "tuckerfactor"

FIT_FUNCTIONS = frozenset({
    "estimation.mopca_fit",
    "estimation.pmopca_fit",
    "estimation.ipmopca_fit",
    "baseline.itipup_fit",
})


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _mode_product_work(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    mat = _arg(args, kwargs, 1, "mat")
    moved = 8 * (x.size + mat.size + result.size)
    return moved, 2 * result.size * mat.shape[1]


def _mode_covariance_work(args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    p_d = result.shape[0]
    return 8 * (x.size + result.size), 2 * x.size * p_d


def _projected_covariance_work(args, kwargs, result):
    # own contraction Y Y' of the projected series (T, p_d, k_-d); the
    # projecting mode products are counted under tensor.mode_product
    x = _arg(args, kwargs, 0, "x")
    loadings = _arg(args, kwargs, 1, "loadings")
    mode = _arg(args, kwargs, 2, "mode")
    k_other = math.prod(a.shape[1] for d, a in enumerate(loadings) if d != mode)
    p_d = result.shape[0]
    y_size = x.shape[0] * p_d * k_other
    return 8 * (y_size + result.size), 2 * y_size * p_d


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path")), 0


def _fit_iterations(args, kwargs, result):
    return result.iterations


WORK = {
    "tensor.mode_product": _mode_product_work,
    "estimation.mode_covariance": _mode_covariance_work,
    "estimation.projected_mode_covariance": _projected_covariance_work,
    "io.read_tensor_series": _file_bytes,
    "io.write_tensor_series": _file_bytes,
}
WORK.update({name: _fit_iterations for name in FIT_FUNCTIONS})


class OpTrace:
    """Per-function totals of the spans recorded during one operation."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.bytes: dict[str, int] = {}
        self.flops: dict[str, int] = {}
        self.fits: list[tuple[str, int]] = []  # outermost fits and sweeps
        self.top_level_s = 0.0

    def add(self, other: "OpTrace") -> None:
        for mine, theirs in ((self.calls, other.calls), (self.self_s, other.self_s),
                             (self.bytes, other.bytes), (self.flops, other.flops)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.fits.extend(other.fits)
        self.top_level_s += other.top_level_s


class Tracer:
    """Wraps the public functions of the loaded tuckerfactor modules."""

    def __init__(self):
        self.spans: list[list] = []
        self.last_spans: list[list] = []
        self._stack: list[int] = []
        self._modules = [m for name, m in sorted(sys.modules.items())
                         if name == PACKAGE or name.startswith(PACKAGE + ".")]
        self._wrappers: dict[int, tuple] = {}  # id -> (function, wrapper)
        self._installed: list[tuple[object, str, object]] = []
        for module in self._modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    self._wrappers[id(obj)] = (obj, self._wrap(name, obj))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Point every module global that names a wrapped function at its
        wrapper."""
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._installed.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed.clear()

    def collect(self) -> OpTrace:
        """Totals of the spans recorded since the last call; clears them."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = OpTrace()
        top_fit: list[int] = [-1] * len(spans)
        for i, (name, start, end, parent, work) in enumerate(spans):
            duration = end - start
            out.calls[name] = out.calls.get(name, 0) + 1
            out.self_s[name] = out.self_s.get(name, 0.0) + duration - child_s[i]
            if parent < 0:
                out.top_level_s += duration
            enclosing = top_fit[parent] if parent >= 0 else -1
            top_fit[i] = enclosing
            if name in FIT_FUNCTIONS and enclosing < 0:
                top_fit[i] = i
                out.fits.append((name.rpartition(".")[2], work))
            elif isinstance(work, tuple):
                out.bytes[name] = out.bytes.get(name, 0) + work[0]
                out.flops[name] = out.flops.get(name, 0) + work[1]
        self.last_spans = list(spans)
        spans.clear()
        return out
