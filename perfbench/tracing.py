"""Spans and counts recorded around qeei's public functions, from outside.

Tracer.install() replaces each listed function in every qeei module
namespace that binds it (qdet calls natural_submatrix through its own
globals, cli calls eigen.right_eigenvalues through the eigen module) and
wraps Quaternion.__mul__ with a counter.  Spans stay in memory as
[name, start, end, parent, op]; self time is a span's duration minus the
durations of its direct children.  A listed function that a later commit
no longer has is reported as absent and reads as zero.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

# (module, function, statistics reported per op)
LAYERS = (
    ("eigen", "symmetric_eig", ("calls_per_op", "self_ms_per_op", "distinct_ratio")),
    ("eigen", "right_eigenvalues", ("calls_per_op", "self_ms_per_op")),
    ("eigen", "eigenvector_from_qadj", ("calls_per_op", "total_ms_per_op")),
    ("eigen", "eei_report", ("total_ms_per_op",)),
    ("eigen", "verify_outer_product", ("total_ms_per_op",)),
    ("qdet", "row_expansion", ("calls_per_op", "self_ms_per_op")),
    ("qdet", "qadj", ("calls_per_op", "self_ms_per_op", "distinct_ratio")),
    ("qdet", "det", ("calls_per_op", "self_ms_per_op")),
    ("qmatrix", "real_lift", ("calls_per_op", "self_ms_per_op")),
    ("qmatrix", "matmul", ("calls_per_op", "self_ms_per_op")),
    ("qmatrix", "natural_submatrix", ("calls_per_op", "self_ms_per_op")),
    ("qmatrix", "validate_hermitian", ("calls_per_op", "self_ms_per_op")),
    ("qmatrix", "from_components", ("calls_per_op", "self_ms_per_op")),
    ("qmatrix", "minor", ("calls_per_op",)),
    ("cli", "load_matrix_file", ("self_ms_per_op",)),
    ("cli", "emit", ("self_ms_per_op",)),
    ("cli", "main", ("self_ms_per_op",)),
)
# k x k arguments of these cost k! permutation terms each
PERMUTATION_SUMS = ("qdet.row_expansion", "qdet.det")
OP = "op"

UNITS = {"calls_per_op": "count", "self_ms_per_op": "ms",
         "total_ms_per_op": "ms", "distinct_ratio": "ratio"}
EXTRA_METRICS = {"qdet.perm_terms_per_op": "count",
                 "quat.mul.calls_per_op": "count",
                 "trace.overhead_ratio": "ratio"}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{mod}.{fn}.{stat}": UNITS[stat]
             for mod, fn, stats in LAYERS for stat in stats}
    units.update(EXTRA_METRICS)
    return units


def argument_digest(value):
    """Digest of an argument's numbers: an array, or a matrix's components."""
    value = getattr(value, "inner", value)
    if hasattr(value, "components"):
        value = np.stack([np.asarray(c, dtype=float) for c in value.components()])
    if isinstance(value, np.ndarray):
        raw = repr(value.shape).encode() + np.ascontiguousarray(value).tobytes()
    else:
        raw = repr(value).encode()
    return hashlib.sha1(raw).digest()


def _square_size(value):
    value = getattr(value, "inner", value)
    shape = getattr(value, "shape", None)
    return shape[0] if shape else 0


class Tracer:
    """Spans and counts of the listed functions, recorded only inside an op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.mul_calls = 0
        self.perm_terms = 0
        self.digests = {}
        self.absent = []
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, distinct, perm):
        digests = self.digests.setdefault(name, set()) if distinct else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if digests is not None:
                digests.add(argument_digest(args[0]))
            if perm:
                self.perm_terms += math.factorial(_square_size(args[0]))
            span = [name, 0.0, 0.0, self._stack[-1], self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qeei" or name.startswith("qeei."))]
        for mod, fn, stats in LAYERS:
            name = f"{mod}.{fn}"
            target = getattr(sys.modules.get(f"qeei.{mod}"), fn, None)
            if not callable(target):
                self.absent.append(name)
                continue
            traced = self._wrap(name, target, "distinct_ratio" in stats,
                                name in PERMUTATION_SUMS)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, attr, traced)
                        self._undo.append((m, attr, target))
        quaternion = getattr(sys.modules.get("qeei.quat"), "Quaternion", None)
        mul = vars(quaternion).get("__mul__") if quaternion is not None else None
        if mul is None:
            self.absent.append("quat.mul")
            return

        def counted_mul(a, b):
            if self.op is not None:
                self.mul_calls += 1
            return mul(a, b)

        quaternion.__mul__ = counted_mul
        self._undo.append((quaternion, "__mul__", mul))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one operation; calls outside any op are not recorded."""
        span = [OP, 0.0, 0.0, None, op_id]
        self._stack = [len(self.spans)]
        self.spans.append(span)
        self.op = op_id
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.op = None
            self._stack = []

    def layer_times(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[idx]
        return out

    def metrics(self):
        """Per-layer metrics (name -> value) averaged over the recorded ops."""
        times = self.layer_times()
        n_ops = max(times.get(OP, [0])[0], 1)
        values = {}
        for mod, fn, stats in LAYERS:
            name = f"{mod}.{fn}"
            calls, total, self_s = times.get(name, [0, 0.0, 0.0])
            per_stat = {
                "calls_per_op": calls / n_ops,
                "self_ms_per_op": 1e3 * self_s / n_ops,
                "total_ms_per_op": 1e3 * total / n_ops,
                "distinct_ratio": len(self.digests.get(name, ())) / calls if calls else 0.0,
            }
            for stat in stats:
                values[f"{name}.{stat}"] = per_stat[stat]
        values["qdet.perm_terms_per_op"] = self.perm_terms / n_ops
        values["quat.mul.calls_per_op"] = self.mul_calls / n_ops
        return values

    def dump(self, path, **extra):
        doc = {"fields": ["name", "start_s", "end_s", "parent", "op"],
               "absent": self.absent, **extra, "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))
