"""Outside-in tracing of the ainfcat package.

The tracer rebinds the package's public functions, in every `ainfcat`
module namespace that holds them, to wrappers that record a span (name,
start, end, parent, counters) per call.  Nothing under `src/` changes.
Spans stay in memory until the run ends; per-layer metrics are derived
from them afterwards.  `AinfCategory.mu_key` is counted, not spanned: it
runs millions of times and a span per call would dominate the run.
"""

from __future__ import annotations

import functools
import sys
import time

# layer (package module) -> functions and methods that get a span
SPANNED = {
    "intlinalg": (
        "smith_normal_form",
        "solve_integer",
        "f2_rank",
        "IntMatrix.__matmul__",
        "HomologyData.__init__",
        "HomologyData.coords",
        "HomologyData.class_generators",
    ),
    "complexes": ("BasedComplex.matrix", "BasedComplex.validate", "verify_chain_map"),
    "core": ("verify_ainf",),
    "bimodules": ("verify_bimodule", "verify_bimodule_hom", "tensor_over_category"),
    "hochschild": ("truncated_cc", "hochschild_homology"),
    "cardy": ("telescoping_data", "solve_homotopy", "verify_homotopy_equation", "verify_cardy_on_homology"),
    "generation": ("generation_test", "replay_certificate", "build_universal_complex", "verify_cohomological_unit"),
    "fileformat": ("load_category",),
    "cli": ("main",),
}
COUNTED = {"core": ("AinfCategory.mu_key",)}

SNF = "intlinalg.smith_normal_form"
SNF_COUNTERS = ("cells", "nnz", "max_dim", "max_coeff_bits")
BASIS_SIZE = "complexes.basis_size"
TOP = "cli.main"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, names in SPANNED.items():
        for qual in names:
            base = f"{module}.{qual}"
            units[f"{base}.self_s"] = "s"
            units[f"{base}.total_s"] = "s"
            units[f"{base}.calls"] = "count"
    units.update({f"{SNF}.{c}": ("bits" if c == "max_coeff_bits" else "count") for c in SNF_COUNTERS})
    units[BASIS_SIZE] = "count"
    for module, names in COUNTED.items():
        units.update({f"{module}.{qual}.calls": "count" for qual in names})
    units.update({
        "run.untraced_wall_s": "s",
        "run.traced_wall_s": "s",
        "run.overhead_share": "ratio",
        "run.top_span_coverage": "ratio",
        "run.tracer_s": "s",
    })
    return units


def _max_bits(matrix) -> int:
    return max((max(max(row), -min(row)) for row in matrix.data if row), default=0).bit_length()


def _snf_counters(args, result) -> dict:
    a = args[0]
    return {
        "cells": a.rows * a.cols,
        "nnz": sum(len(row) - row.count(0) for row in a.data),
        "max_dim": max(a.rows, a.cols),
        "max_coeff_bits": max(_max_bits(result.U), _max_bits(result.V)),
    }


def _basis_counter(args, result) -> dict:
    return {"basis_size": sum(len(v) for v in args[0].basis.values())}


ATTRIBUTES = {
    SNF: _snf_counters,
    "complexes.BasedComplex.matrix": _basis_counter,
    "complexes.BasedComplex.validate": _basis_counter,
}


class Tracer:
    """Span recorder; `install` rebinds the package, `uninstall` restores it."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, counters or None,
        #             seconds spent inside it computing the counters of its descendants]
        self.spans: list[list] = []
        self.tracer_s = 0.0
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attributes is not None:
                # The counters run inside every enclosing span: charge their
                # time to the tracer, not to the program's spans.
                begin = clock()
                span[4] = attributes(args, result)
                spent = clock() - begin
                self.tracer_s += spent
                for i in stack:
                    spans[i][5] += spent
            return result

        return traced

    def _counted(self, name, fn):
        box = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, module: str, qual: str, make) -> None:
        home = sys.modules[f"ainfcat.{module}"]
        owner_name, _, attr = qual.rpartition(".")
        if owner_name:
            owner = getattr(home, owner_name)
            original = owner.__dict__[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(f"{module}.{qual}", original))
            return
        original = getattr(home, attr)
        wrapper = make(f"{module}.{qual}", original)
        # `from .x import f` copies the name, so rebind it wherever it is held
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "ainfcat" or mod_name.startswith("ainfcat."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def install(self) -> None:
        for module, names in SPANNED.items():
            for qual in names:
                self._rebind(module, qual, self._spanned)
        for module, names in COUNTED.items():
            for qual in names:
                self._rebind(module, qual, self._counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time, inclusive time and calls per span name, plus counters.

        A span's own time is its duration minus the time the tracer spent
        inside it computing counters.  Self time is a span's own time minus
        that of its direct children.  Inclusive time counts only the
        outermost span of a name, so a function that reaches itself again
        is not counted twice.
        """
        spans = self.spans
        values = {name: 0 for name in metric_units() if not name.startswith("run.")}
        own = [end - start - tracer for _, start, end, _, _, tracer in spans]
        child_time = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                child_time[span[3]] += own[i]
        for i, (name, _, _, parent, attrs, _) in enumerate(spans):
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += own[i] - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                values[f"{name}.total_s"] += own[i]
            if attrs is None:
                continue
            if name == SNF:
                for c in ("cells", "nnz"):
                    values[f"{SNF}.{c}"] += attrs[c]
                for c in ("max_dim", "max_coeff_bits"):
                    values[f"{SNF}.{c}"] = max(values[f"{SNF}.{c}"], attrs[c])
            else:
                values[BASIS_SIZE] = max(values[BASIS_SIZE], attrs["basis_size"])
        for name, box in self.counts.items():
            values[f"{name}.calls"] = box[0]
        return values

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent < 0)
