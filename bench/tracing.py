"""Span tracing of the coulombwf layers from outside the package.

``Tracer.install`` wraps the public functions listed in ``LAYER_FUNCTIONS``
and rebinds each wrapper in every ``coulombwf.*`` namespace that holds the
same object (``assemble_R1`` is imported by name into ``oracle``,
``shellmatch`` and ``cli``), and on the class for methods (``__rmul__`` is
the same function as ``__mul__``).  A listed name that the package no longer
has is skipped and reported in ``Tracer.absent``.

Spans live in flat arrays until the run ends: name, start, end, parent span,
request id.  Counts that need the arguments or the result (coefficient
products, Ei branches, failed reports, distinct forms) are taken at the same
boundaries.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute path, span name).  "Class.method" paths wrap methods.
LAYER_FUNCTIONS: list[tuple[str, str, str]] = [
    ("ratpoly", "RatPoly.__mul__", "ratpoly.mul"),
    ("ratpoly", "RatPoly.scale_arg", "ratpoly.scale_arg"),
    ("ratpoly", "RatPoly.eval_float", "ratpoly.eval_float"),
    ("closedform", "assemble_R1", "closedform.assemble"),
    ("closedform", "assemble_R2", "closedform.assemble"),
    ("closedform", "p2_doublesum", "closedform.p2_doublesum"),
    ("closedform", "laguerre_L1", "closedform.laguerre_L1"),
    ("closedform", "ExpEiForm.derivative", "closedform.derivative"),
    ("closedform", "apply_radial_operator", "closedform.apply_radial_operator"),
    ("numeval", "eval_form", "numeval.eval_form"),
    ("numeval", "ei_one_neg", "numeval.ei_one_neg"),
    ("oracle", "ode_residual_symbolic", "oracle.ode_residual_symbolic"),
    ("oracle", "wronskian_symbolic", "oracle.wronskian_symbolic"),
    ("oracle", "pv_closedform_check", "oracle.pv_closedform_check"),
    ("oracle", "pole_split_identity_check", "oracle.pole_split_identity_check"),
    ("oracle", "first_integral_closed_form_check", "oracle.first_integral_closed_form_check"),
    ("oracle", "golden_table_check", "oracle.golden_table_check"),
    ("shellmatch", "match_shell", "shellmatch.match_shell"),
    ("shellmatch", "exterior_logderiv", "shellmatch.exterior_logderiv"),
    ("shellmatch", "integrate_interior", "shellmatch.integrate_interior"),
    ("shellmatch", "continuity_residuals", "shellmatch.continuity_residuals"),
    ("shellmatch", "piecewise_grid", "shellmatch.piecewise_grid"),
    ("cli", "main", "cli.main"),
    ("cli", "run_verify", "cli.run_verify"),
]


def _coeff_bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Spans and counts of one process.  ``sampler`` is the calibration
    Sampler running alongside; time it spends inside a span is taken out of
    the span's duration, so a span's end can read early by that much."""

    def __init__(self, sampler) -> None:
        self._sampler = sampler
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        # 1 when a span of the same name was already open (recursion)
        self.span_nested = array("b")
        self._stack: list[int] = []
        self._open_by_name: Counter[int] = Counter()
        self.request_id = -1
        self.counts: Counter[str] = Counter()
        self.max_coeff_bits = 0
        self.forms: set[tuple] = set()
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, on_result=None):
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        stack, open_by_name = self._stack, self._open_by_name
        clock = time.perf_counter
        sampler = self._sampler

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_request.append(self.request_id)
            self.span_nested.append(1 if open_by_name[nid] else 0)
            self.span_end.append(0.0)
            open_by_name[nid] += 1
            stack.append(idx)
            paused = sampler.spent
            self.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                parent = self.span_parent[idx]
                if parent < 0 or not self.names[self.span_name[parent]].startswith(layer + "."):
                    self.counts[f"{layer}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.span_end[idx] = clock() - (sampler.spent - paused)
                stack.pop()
                open_by_name[nid] -= 1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- counts taken at the boundaries -----------------------------------

    def _on_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        a = len(args[0].coeffs)
        b = len(args[1].coeffs) if hasattr(args[1], "coeffs") else 1
        self.counts["ratpoly.mul.coeff_products"] += a * b
        if min(a, b) <= 3:
            self.counts["ratpoly.mul.short_operands"] += 1
        if result.coeffs:
            self.max_coeff_bits = max(self.max_coeff_bits, max(map(_coeff_bits, result.coeffs)))

    def _on_assemble(self, which: str):
        def hook(args, result) -> None:
            qn = args[0]
            self.forms.add((which, qn.n, qn.l))
        return hook

    def _on_ei(self, args, result) -> None:
        self.counts[f"numeval.ei_one_neg.{result.method}_calls"] += 1

    def _on_report(self, args, result) -> None:
        if isinstance(result, tuple):
            result = result[1]
        reports = result if isinstance(result, list) else [result]
        self.counts["oracle.failed_reports"] += sum(1 for rep in reports if not rep.passed)

    def _hook_for(self, attr: str, name: str):
        if name == "ratpoly.mul":
            return self._on_mul
        if name == "closedform.assemble":
            return self._on_assemble(attr)
        if name == "numeval.ei_one_neg":
            return self._on_ei
        if name.startswith("oracle."):
            return self._on_report
        return None

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        namespaces = [mod for key, mod in sys.modules.items()
                      if mod is not None and (key == "coulombwf" or key.startswith("coulombwf."))]
        for module_name, attr, name in LAYER_FUNCTIONS:
            module = sys.modules.get(f"coulombwf.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, name, self._hook_for(fn_name, name))
            targets = [owner] if owner_name else namespaces
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, key, value))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (outermost spans) and self seconds."""
        n = len(self.span_start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += self.span_end[i] - self.span_start[i]
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            s = stats[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            s["calls"] += 1
            s["self_s"] += dur - child_time[i]
            if not self.span_nested[i]:
                s["busy_s"] += dur
        return stats

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0
        pid, cid = self._name_ids[parent_name], self._name_ids[child_name]
        return sum(1 for i in range(len(self.span_start))
                   if self.span_name[i] == cid and self.span_parent[i] >= 0
                   and self.span_name[self.span_parent[i]] == pid)

    def write(self, path: str) -> None:
        """Write every span, columnar, as gzip-compressed JSON."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start_us": [round((t - t0) * 1e6, 3) for t in self.span_start],
            "end_us": [round((t - t0) * 1e6, 3) for t in self.span_end],
            "parent": self.span_parent.tolist(),
            "request": self.span_request.tolist(),
            "absent": self.absent,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
