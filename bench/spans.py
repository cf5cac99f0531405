"""Layer spans for the traced run.

The tracer wraps public `sympineq` functions at the module attributes
through which their callers look them up (for example both
`sympineq.cli.f_kr_all` and `sympineq.theorem1.f_kr_all`), so the program
itself is unchanged.  Spans (name, start, end, parent, request, round) are
kept in memory and written out when the run ends.  Times are process CPU
seconds; the run converts them to `ref` units per request.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable

# (module, attribute, layer).  A missing attribute is skipped, so the
# benchmark keeps running when the program moves a function.
WRAPS = [
    ("sympineq.families", "product_over_vector", "series.product"),
    ("sympineq.series", "product_over_vector", "series.product"),
    ("sympineq.cli", "catalyst_product", "series.product"),
    ("sympineq.cli", "f_kr_all", "families.f"),
    ("sympineq.theorem1", "f_kr_all", "families.f"),
    ("sympineq.families", "g_kr", "families.g"),
    ("sympineq.families", "m_kr", "families.m"),
    ("sympineq.cli", "theorem2_scan", "majorize.scan"),
    ("sympineq.cli", "check_hypotheses", "theorem1.hypotheses"),
    ("sympineq.cli", "check_hypotheses_coeffs", "theorem1.hypotheses"),
    ("sympineq.cli", "verify_conclusions", "theorem1.grid"),
    ("sympineq.cli", "gram", "spectral.gram"),
    ("sympineq.spectral", "det_I_plus_tA", "spectral.det"),
    ("sympineq.cli", "f_from_matrix", "spectral.f_matrix"),
    ("sympineq.spectral", "f_from_matrix", "spectral.f_matrix"),
    ("sympineq.cli", "identity_lhs", "mellin.quad"),
    ("sympineq.cli", "identity_check", "mellin.quad"),
    ("sympineq.cli", "integral_I", "mellin.quad"),
    ("sympineq.cli", "integral_J", "mellin.quad"),
    ("sympineq.cli", "load_vector", "cli.parse"),
    ("sympineq.cli", "load_matrix", "cli.parse"),
    ("sympineq.cli", "build_parser", "cli.parse"),
]
# counted, not timed: a span per call would cost more than the call
COUNTS = [
    ("sympineq.theorem1", "lp_mean", "vectors.lp_mean_calls"),
    ("sympineq.cli", "lp_mean", "vectors.lp_mean_calls"),
]

# per-layer metric -> unit, in BENCHMARK.json order
METRICS = {
    "series.product_ref": "ref", "series.products": "count",
    "series.coeff_bits_max": "bits",
    "families.f_ref": "ref", "families.g_ref": "ref", "families.m_ref": "ref",
    "families.evals": "count",
    "majorize.scan_self_ref": "ref", "majorize.cells": "count",
    "theorem1.hypotheses_self_ref": "ref", "theorem1.grid_ref": "ref",
    "theorem1.grid_points": "count", "vectors.lp_mean_calls": "count",
    "spectral.gram_ref": "ref", "spectral.det_ref": "ref",
    "spectral.f_matrix_ref": "ref", "spectral.f_matrix_calls": "count",
    "mellin.quad_ref": "ref", "mellin.calls": "count", "mellin.nodes": "count",
    "cli.parse_ref": "ref", "cli.self_ref": "ref", "cli.report_bytes": "bytes",
}


def _coeff_bits(series) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in series.coeffs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, parent, request, round, t0, t1]
        self.stack: list[int] = []
        self.request = -1
        self.round = -1
        self.counts: dict[tuple[int, int], dict[str, float]] = {}
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        for mod_name, attr, layer in WRAPS:
            self._patch(mod_name, attr, self._span_wrapper(layer))
        for mod_name, attr, counter in COUNTS:
            self._patch(mod_name, attr, self._count_wrapper(counter))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _patch(self, mod_name: str, attr: str, make: Callable) -> None:
        mod = importlib.import_module(mod_name)
        original = getattr(mod, attr, None)
        if original is None:
            return
        self._restore.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def _bump(self, name: str, amount: float) -> None:
        c = self.counts.setdefault((self.round, self.request), {})
        if name == "series.coeff_bits_max":
            c[name] = max(c.get(name, 0), amount)
        else:
            c[name] = c.get(name, 0) + amount

    def _count_wrapper(self, counter: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                self._bump(counter, 1)
                return fn(*args, **kwargs)
            return wrapped
        return make

    def _span_wrapper(self, layer: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                sid = self.open(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(sid)
                self._observe(layer, fn.__name__, result)
                return result
            return wrapped
        return make

    def _observe(self, layer: str, fn_name: str, result) -> None:
        """Counts read off a layer's return value, outside its span."""
        if layer == "series.product":
            self._bump("series.coeff_bits_max", _coeff_bits(result))
        elif layer == "majorize.scan":
            self._bump("majorize.cells", result.cells_checked)
        elif layer == "theorem1.grid":
            self._bump("theorem1.grid_points",
                       len(result.low_grid) + len(result.high_grid))
        elif layer == "mellin.quad" and fn_name in ("integral_I", "integral_J"):
            # the normalizer the report prints as normalizer.node_count
            self._bump("mellin.nodes", result.node_count)
        elif layer == "cli.parse" and fn_name == "build_parser":
            original = result.parse_args
            make = self._span_wrapper("cli.parse")
            result.parse_args = make(original)

    # -- spans --------------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, parent, self.request, self.round,
                           time.process_time(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][6] = time.process_time()
        self.stack.pop()

    def write(self, path: Path) -> None:
        keys = ("id", "name", "parent", "request", "round", "start", "end")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # -- metrics ------------------------------------------------------------
    def layer_metrics(self, ref_of: Callable[[int, int], float],
                      report_bytes: dict[tuple[int, int], int],
                      rounds: int) -> dict[str, float]:
        """Per-layer totals of each round, medians over rounds.  Busy time
        counts only a layer's outermost spans; self time is busy time less
        the time of direct child spans."""
        children: dict[int, float] = {}
        for sid, name, parent, req, rnd, t0, t1 in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (t1 - t0)
        per_round: list[dict[str, float]] = [dict.fromkeys(METRICS, 0.0)
                                             for _ in range(rounds)]
        def outermost(span) -> bool:
            parent = span[2]
            while parent is not None:
                if self.spans[parent][1] == span[1]:
                    return False
                parent = self.spans[parent][2]
            return True

        busy_metric = {
            "series.product": "series.product_ref", "families.f": "families.f_ref",
            "families.g": "families.g_ref", "families.m": "families.m_ref",
            "theorem1.grid": "theorem1.grid_ref", "spectral.gram": "spectral.gram_ref",
            "spectral.det": "spectral.det_ref", "spectral.f_matrix": "spectral.f_matrix_ref",
            "mellin.quad": "mellin.quad_ref", "cli.parse": "cli.parse_ref",
        }
        self_metric = {
            "majorize.scan": "majorize.scan_self_ref",
            "theorem1.hypotheses": "theorem1.hypotheses_self_ref",
            "cli.main": "cli.self_ref",
        }
        call_metric = {
            "series.product": "series.products", "families.g": "families.evals",
            "families.m": "families.evals", "spectral.f_matrix": "spectral.f_matrix_calls",
            "mellin.quad": "mellin.calls",
        }
        for span in self.spans:
            sid, name, parent, req, rnd, t0, t1 = span
            out = per_round[rnd]
            ref = ref_of(rnd, req)
            if name in call_metric:
                out[call_metric[name]] += 1
            if not outermost(span):
                continue
            if name in busy_metric:
                out[busy_metric[name]] += (t1 - t0) / ref
            if name in self_metric:
                out[self_metric[name]] += (t1 - t0 - children.get(sid, 0.0)) / ref
        for (rnd, req), counts in self.counts.items():
            for name, value in counts.items():
                if name == "series.coeff_bits_max":
                    per_round[rnd][name] = max(per_round[rnd][name], value)
                else:
                    per_round[rnd][name] += value
        for (rnd, req), size in report_bytes.items():
            per_round[rnd]["cli.report_bytes"] += size
        return {name: statistics.median(r[name] for r in per_round)
                for name in METRICS}
