"""Traced runs: spans recorded at pigouq's module boundaries, and the per-layer metrics.

pigouq's modules call each other through names bound by
``from .games import bimatrix``, so a call into a layer always goes
through a name that the *calling* module holds. :class:`Tracer` replaces
each such name with a wrapper that records a span (name, start, end,
parent), plus a few calls inside one module that the metrics split out.
Nothing in pigouq is edited; the wrappers are removed when the traced
phase ends. A layer's self time is the time of its spans minus the time
of their direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

LAYERS = ("strategies", "linalg", "ewl", "games", "equilibria", "metrics", "sweeps", "verification", "cli")

# Calls within one module that get their own span.
INNER = {
    "equilibria": {"support_enumeration", "pure_nash", "dominance_select"},
    "sweeps": {"series_to_csv", "series_to_json_obj"},
    "cli": {"main"},
}

# Spans that keep their call's arguments and result for the counters.
KEEP = {
    "ewl.ewl_outcomes",
    "games.bimatrix",
    "games.quantum_bimatrix",
    "games.classical_bimatrix",
    "equilibria.support_enumeration",
    "sweeps.sweep_k",
    "sweeps.sweep_gamma",
}

# The checks ``run_all`` runs, one ``verification.check.<name>_s`` metric each.
VERIFY_CHECKS = (
    "two_person_classical_grid",
    "two_person_phase_strategy_game",
    "two_person_miracle_strategy_game",
    "k_person_grids_closed_form",
    "protocol_outcome_vectors",
    "mixed_equilibrium_closed_form",
    "classical_sweep_series",
    "phase_strategy_sweep_series",
    "miracle_strategy_sweep_series",
    "property_batch",
    "sweep_determinism",
)

NAME, START, END, PARENT, KEPT = range(5)


def _traced_name(module_name: str, attr: str, fn) -> str | None:
    """Span name for ``module_name.attr`` if it is a boundary to trace."""
    if not inspect.isfunction(fn) or attr.startswith("_"):
        return None
    package, _, home = fn.__module__.partition(".")
    if package != "pigouq" or home not in LAYERS:
        return None
    if module_name == fn.__module__:
        if attr not in INNER.get(home, ()) and not (home == "verification" and attr.startswith("check_")):
            return None
    return f"{home}.{fn.__name__}"


class Tracer:
    """Holds the spans of one traced phase in memory."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, (args, result) or None]
        self._stack = [-1]

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if keep:
                rec[KEPT] = (args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name in the loaded pigouq modules; restore on exit."""
        modules = [sys.modules["pigouq"]] + [
            sys.modules[f"pigouq.{layer}"] for layer in LAYERS if f"pigouq.{layer}" in sys.modules
        ]
        saved = []
        try:
            for module in modules:
                for attr, fn in list(vars(module).items()):
                    name = _traced_name(module.__name__, attr, fn)
                    if name is not None:
                        saved.append((module, attr, fn))
                        setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def to_json_obj(self) -> dict:
        t0 = self.spans[0][START] if self.spans else 0
        return {
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT]] for s in self.spans],
        }


def _kept(spans, *names):
    return [s[KEPT] for s in spans if s[NAME] in names and s[KEPT] is not None]


def layer_metrics(spans, overhead_frac: float) -> dict:
    """Per-layer metrics from one traced phase's spans."""
    durations = [s[END] - s[START] for s in spans]
    child_ns = [0] * len(spans)
    for s, d in zip(spans, durations):
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += d
    calls, inclusive_ns, self_ns = Counter(), Counter(), Counter()
    under_report = []  # whether a metrics report encloses the span (parents come first)
    for i, (s, d) in enumerate(zip(spans, durations)):
        calls[s[NAME]] += 1
        inclusive_ns[s[NAME]] += d
        self_ns[s[NAME].partition(".")[0]] += d - child_ns[i]
        enclosed = s[NAME] in ("metrics.report", "metrics.analyze")
        under_report.append(enclosed or (s[PARENT] >= 0 and under_report[s[PARENT]]))
    layer_calls = Counter()
    for name, count in calls.items():
        layer_calls[name.partition(".")[0]] += count

    m = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}

    protocol_runs = _kept(spans, "ewl.ewl_outcomes")
    distinct = {
        tuple(np.asarray(x, dtype=complex).tobytes() for x in args[:2]) + (float(args[2]),)
        for args, _ in protocol_runs
    }
    m["ewl.calls"] = calls["ewl.ewl_outcomes"]
    m["ewl.distinct_input_frac"] = len(distinct) / len(protocol_runs) if protocol_runs else 0.0
    m["linalg.calls"] = layer_calls["linalg"]
    m["strategies.calls"] = layer_calls["strategies"]

    matrices = [r for _, r in _kept(spans, "games.bimatrix", "games.quantum_bimatrix", "games.classical_bimatrix")]
    values = [x for mat in matrices for row in mat.cells for cell in row for x in cell]
    m["games.bimatrix_calls"] = len(matrices)
    m["games.cells"] = sum(mat.size * mat.size for mat in matrices)
    m["games.exact_cell_frac"] = sum(isinstance(x, Fraction) for x in values) / len(values) if values else 0.0

    pairs = found = skipped = bits = 0
    for args, (profiles, diagnostics) in _kept(spans, "equilibria.support_enumeration"):
        pairs += (2 ** args[0].size - 1) ** 2
        found += len(profiles)
        skipped += len(diagnostics)
        for pr in profiles:
            for x in pr.alice_probs + pr.bob_probs + (pr.expected_cost_alice, pr.expected_cost_bob):
                bits = max(bits, Fraction(x).denominator.bit_length())
    m["equilibria.solve_calls"] = calls["equilibria.solve"]
    m["equilibria.support_enum_s"] = inclusive_ns["equilibria.support_enumeration"] / 1e9
    m["equilibria.pure_scan_s"] = inclusive_ns["equilibria.pure_nash"] / 1e9
    m["equilibria.support_pairs"] = pairs
    m["equilibria.degenerate_skipped"] = skipped
    m["equilibria.profiles_found"] = found
    m["equilibria.useful_pair_frac"] = found / pairs if pairs else 0.0
    m["equilibria.denominator_bits_max"] = bits

    reports = calls["metrics.report"] + calls["metrics.analyze"]
    solves_in_reports = sum(1 for s, u in zip(spans, under_report) if u and s[NAME] == "equilibria.solve")
    m["metrics.report_calls"] = reports
    m["metrics.solves_per_report"] = solves_in_reports / reports if reports else 0.0

    m["sweeps.calls"] = calls["sweeps.sweep_k"] + calls["sweeps.sweep_gamma"]
    m["sweeps.points"] = sum(len(r.values) for _, r in _kept(spans, "sweeps.sweep_k", "sweeps.sweep_gamma"))
    m["sweeps.emit_s"] = (inclusive_ns["sweeps.series_to_csv"] + inclusive_ns["sweeps.series_to_json_obj"]) / 1e9

    per_check = defaultdict(int)
    for s, d in zip(spans, durations):
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "verification.run_all":
            per_check[s[NAME]] += d
    for check in VERIFY_CHECKS:
        m[f"verification.check.{check}_s"] = per_check[f"verification.check_{check}"] / 1e9

    m["cli.calls"] = calls["cli.main"]
    m["trace.overhead_frac"] = overhead_frac
    return m
