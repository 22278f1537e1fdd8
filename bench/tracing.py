"""Spans around calls into congru's layers, recorded from outside.

Tracer.install() rebinds each traced function in every congru module
that holds it (``from .x import y`` copies the binding, so patching the
defining module alone would miss callers) and patches Matrix methods on
the class.  Modules are reached through sys.modules because the
package attribute ``congru.regularize`` is the function of that name,
not the module.  numpy.linalg.svd is wrapped as float_unitary calls it.

A span is (name, start, end, parent index, request id).  Spans stay in
memory until the run writes them out; self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name)
FUNCTIONS = (
    ("congru.cli", "run", "cli.run"),
    # the CLI's float reader (JSON and text); float_unitary has no
    # public function on the --json path
    ("congru.cli", "_load_float", "float_unitary.parse"),
    ("congru.matrix", "row_echelon_transform", "matrix.row_echelon_transform"),
    ("congru.matrix", "rank", "matrix.rank"),
    ("congru.matrix", "nullspace", "matrix.nullspace"),
    ("congru.matrix", "solve", "matrix.solve"),
    ("congru.matrix", "inverse", "matrix.inverse"),
    ("congru.matrix", "direct_sum", "matrix.direct_sum"),
    ("congru.regularize", "stage", "regularize.stage"),
    ("congru.sparse_form", "reduce_cde", "sparse_form.reduce_cde"),
    ("congru.sparse_form", "canonical_sparse_form",
     "sparse_form.canonical_sparse_form"),
    ("congru.sparse_form", "full_decomposition",
     "sparse_form.full_decomposition"),
    ("congru.float_unitary", "float_regularize",
     "float_unitary.float_regularize"),
    ("congru.float_unitary", "float_stage", "float_unitary.float_stage"),
    ("congru.float_unitary", "pattern_residual", "float_unitary.residuals"),
    ("congru.float_unitary", "unitarity_residual", "float_unitary.residuals"),
)

# Matrix attribute -> span name
METHODS = (
    ("__mul__", "matrix.mul"),
    ("star", "matrix.star"),
    ("block", "matrix.block"),
    ("from_blocks", "matrix.from_blocks"),
    ("from_json_dict", "matrix.from_json_dict"),
    ("from_text", "matrix.from_text"),
    ("to_json_dict", "matrix.to_json_dict"),
    ("to_text", "matrix.to_text"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._mul_operands: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
        return traced

    def _wrap_mul(self, fn):
        operands = self._mul_operands
        traced = self._wrap("matrix.mul", fn)

        @functools.wraps(fn)
        def mul(a, b):
            # counted after the request, outside every span
            operands.append((a, b))
            return traced(a, b)
        return mul

    def scalar_mults(self) -> int:
        """Scalar products the traced Matrix.__mul__ calls performed,
        sum_k nnz(A[:, k]) * nnz(B[k, :]); clears the operands."""
        total = 0
        for a, b in self._mul_operands:
            if not hasattr(b, "row"):
                continue  # NotImplemented path: no product
            col_nnz = [0] * a.cols
            for i in range(a.rows):
                for k, v in enumerate(a.row(i)):
                    if v:
                        col_nnz[k] += 1
            total += sum(c * sum(1 for v in b.row(k) if v)
                         for k, c in enumerate(col_nnz) if c)
        self._mul_operands.clear()
        return total

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        import numpy

        for mod_name, attr, name in FUNCTIONS:
            mod = sys.modules.get(mod_name)
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(name, original)
            for other_name, other in list(sys.modules.items()):
                if other is None or not (other_name == "congru"
                                         or other_name.startswith("congru.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._restore.append((other, key, value))
                        setattr(other, key, wrapped)

        matrix_cls = sys.modules["congru.matrix"].Matrix
        for attr, name in METHODS:
            raw = matrix_cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"Matrix.{attr}")
                continue
            if isinstance(raw, property):
                new = property(self._wrap(name, raw.fget))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            elif attr == "__mul__":
                new = self._wrap_mul(raw)
            else:
                new = self._wrap(name, raw)
            self._restore.append((matrix_cls, attr, raw))
            setattr(matrix_cls, attr, new)

        self._restore.append((numpy.linalg, "svd", numpy.linalg.svd))
        numpy.linalg.svd = self._wrap("float_unitary.svd",
                                      numpy.linalg.svd)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- summaries -----------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and total self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, req in self.spans:
                fh.write(f'{{"name": "{name}", "start": {start!r}, '
                         f'"end": {end!r}, "parent": {parent}, '
                         f'"request": {req}}}\n')
