"""Span tracing of the `coble` layers, built entirely in the benchmark.

`install` wraps public functions and methods of the `coble` modules.  Each
wrapper is put everywhere a caller looks the function up: module globals
(including names imported with `from ... import`) and class attributes
(including aliases such as `__rmul__ = __mul__`).  A wrapped call records a
span (name, start, end, parent) in flat in-memory arrays; `observe` hooks
add domain counters (matrix cells, charts, oracle grid cells).  Spans are
written out once, after the measured passes.

Per-layer time is the inclusive time of the outermost spans of a layer (a
span nested inside another span of the same layer is not counted twice).
Self time is a span's duration minus its children's; over one pass the self
times add up to the pass's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

# ----- the tracer ----------------------------------------------------------


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters = Counter()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name, fn, observe=None):
        nid = self.name_id(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock, counters = self.stack, time.perf_counter_ns, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def open(self, span_name):
        i = len(self.name)
        self.name.append(self.name_id(span_name))
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter_ns()
        if self.stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    def dump(self, path):
        """Write every span as columns; times in ns from the first span."""
        t0 = self.start[0] if self.start else 0
        with open(path, "w") as f:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(),
                       "start_ns": [s - t0 for s in self.start],
                       "end_ns": [e - t0 for e in self.end]}, f)


# ----- what is wrapped -----------------------------------------------------

def _observe_rref(counters, args, result):
    counters["linalg.rref.cells"] += args[0].rows * args[0].cols


def _observe_charts(counters, args, result):
    counters["nu.charts"] += len(result)


def _observe_nu_matrix(counters, args, result):
    m = result.matrix
    counters["nu.matrix.rows"] += m.rows
    counters["nu.matrix.nnz"] += sum(1 for row in m.entries for x in row if x)


def _observe_nu_rank(counters, args, result):
    rank, kernel, _ = result
    counters["nu.rank"] = rank
    counters["nu.kernel_dim"] = len(kernel)


def _observe_oracle(counters, args, result):
    p = result["p"]
    counters["hesse.oracle.cells"] += p * p + p + 1
    counters["hesse.oracle.points_checked"] += result["checked"]


# (span name, module, qualified name, observe hook)
TARGETS = [
    ("fields.qw_mul", "coble.fields", "Eisenstein.__mul__", None),
    ("fields.qw_inv", "coble.fields", "Eisenstein.inverse", None),
    ("poly.mul", "coble.poly", "Polynomial.__mul__", None),
    ("poly.substitute", "coble.poly", "Polynomial.substitute", None),
    ("poly.partial_derivative", "coble.poly", "Polynomial.partial_derivative", None),
    ("poly.coefficient_in_basis", "coble.poly", "coefficient_in_basis", None),
    ("linalg.rref", "coble.linalg", "ExactMatrix.rref", _observe_rref),
    ("linalg.solve", "coble.linalg", "ExactMatrix.solve", None),
    ("linalg.rank_and_kernel", "coble.linalg", "ExactMatrix.rank_and_kernel", None),
    ("heisenberg.action_matrix", "coble.heisenberg", "action_matrix", None),
    ("heisenberg.act_on_polynomial", "coble.heisenberg", "act_on_polynomial", None),
    ("invariants.pinned_basis", "coble.invariants", "pinned_basis", None),
    ("invariants.orbit_count", "coble.invariants", "orbit_count", None),
    ("coble_forms.identities", "coble.coble_forms", "verify_derivative_identity", None),
    ("nu.chart_build", "coble.nu", "fixed_plane_charts", _observe_charts),
    ("nu.restrict", "coble.nu", "FixedPlaneChart.restrict", None),
    ("nu.assemble", "coble.nu", "assemble_nu", _observe_nu_matrix),
    ("nu.rank_and_kernel", "coble.nu", "nu_rank_and_kernel", _observe_nu_rank),
    ("hesse.oracle", "coble.hesse", "finite_field_duality_oracle", _observe_oracle),
    ("cli.render", "coble.cli", "Certificate.render", None),
    ("cli.main", "coble.cli", "main", None),
]
# Every public function of these modules is a span "<module>.<function>";
# the layer's time is that of its outermost spans.
FAMILIES = ("enumerative", "prym")


def _resolve(module, qualname):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _family_targets():
    out = []
    for fam in FAMILIES:
        mod = importlib.import_module(f"coble.{fam}")
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                out.append((f"{fam}.{attr}", mod.__name__, attr, None))
    return out


def _namespaces():
    """Every module and class namespace of the coble package."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "coble" and not mod_name.startswith("coble."):
            continue
        yield mod
        for obj in vars(mod).values():
            if inspect.isclass(obj) and obj.__module__ == mod_name:
                yield obj


def install(tracer):
    """Wrap every target wherever it is looked up; returns the span names
    whose function was not found (their metrics then read 0)."""
    missing = []
    replacements = {}
    for span_name, module, qualname, observe in TARGETS + _family_targets():
        fn = _resolve(module, qualname)
        if fn is None:
            missing.append(span_name)
            continue
        replacements[id(fn)] = (fn, tracer.wrap(span_name, fn, observe))
    for ns in list(_namespaces()):
        for attr, value in list(vars(ns).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
    return missing


# ----- per-pass metrics ------------------------------------------------------

# (metric, unit, better): the per-layer metrics every traced run reports.
PER_LAYER = [
    ("fields.qw_mul.calls", "count", "lower"),
    ("fields.qw_mul.s", "s", "lower"),
    ("fields.qw_inv.calls", "count", "lower"),
    ("poly.substitute.calls", "count", "lower"),
    ("poly.substitute.s", "s", "lower"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.s", "s", "lower"),
    ("poly.coefficient_in_basis.calls", "count", "lower"),
    ("poly.coefficient_in_basis.s", "s", "lower"),
    ("poly.partial_derivative.s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("nu.charts", "count", "lower"),
    ("nu.chart_build.s", "s", "lower"),
    ("nu.restrict.calls", "count", "lower"),
    ("nu.restrict.s", "s", "lower"),
    ("nu.assemble.s", "s", "lower"),
    ("nu.elim.s", "s", "lower"),
    ("nu.report.s", "s", "lower"),
    ("nu.matrix.rows", "count", "lower"),
    ("nu.matrix.nnz", "count", "lower"),
    ("nu.rank", "count", "higher"),
    ("nu.kernel_dim", "count", "higher"),
    ("heisenberg.action_matrix.calls", "count", "lower"),
    ("heisenberg.action_matrix.s", "s", "lower"),
    ("heisenberg.act_on_polynomial.s", "s", "lower"),
    ("invariants.pinned_basis.calls", "count", "lower"),
    ("invariants.pinned_basis.s", "s", "lower"),
    ("invariants.orbit_count.s", "s", "lower"),
    ("coble_forms.identities.s", "s", "lower"),
    ("hesse.oracle.calls", "count", "lower"),
    ("hesse.oracle.s", "s", "lower"),
    ("hesse.oracle.cells", "count", "lower"),
    ("hesse.oracle.points_checked", "count", "higher"),
    ("hesse.oracle.cells_per_s", "1/s", "higher"),
    ("enumerative.s", "s", "lower"),
    ("prym.s", "s", "lower"),
    ("cli.render.s", "s", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("proc.trace_overhead_s", "s", "lower"),
]
# Counts that must repeat exactly between passes and between traced runs.
EXACT = [m for m, unit, _ in PER_LAYER if unit == "count"]


class PassSpans:
    """The spans of one traced pass: indices root..hi-1 of a Tracer."""

    def __init__(self, tracer, root, hi):
        self.t = tracer
        self.root, self.hi = root, hi
        self.by_name = defaultdict(list)
        for i in range(root, hi):
            self.by_name[tracer.names[tracer.name[i]]].append(i)

    def dur(self, i):
        return self.t.end[i] - self.t.start[i]

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def outer_ns(self, names):
        """Inclusive time of the spans named in `names` that are not inside
        another span named in `names`."""
        idx = sorted(i for n in names for i in self.by_name.get(n, ()))
        total, open_end = 0, -1
        for i in idx:
            if self.t.start[i] >= open_end:
                total += self.dur(i)
                open_end = self.t.end[i]
        return total

    def family(self, prefix):
        return [n for n in self.by_name if n.startswith(prefix + ".")]

    def nu_split_ns(self):
        """(elimination, report) time inside nu_rank_and_kernel: the report
        is the anti-invariance and span checks, i.e. what remains after
        assembly and elimination."""
        t, nid = self.t, self.t._ids.get("nu.rank_and_kernel")
        inner = Counter()
        elim = 0
        for child in ("nu.assemble", "linalg.rank_and_kernel"):
            for i in self.by_name.get(child, ()):
                if t.parent[i] >= 0 and t.name[t.parent[i]] == nid:
                    inner[t.parent[i]] += self.dur(i)
                    if child == "linalg.rank_and_kernel":
                        elim += self.dur(i)
        report = sum(self.dur(i) - inner[i]
                     for i in self.by_name.get("nu.rank_and_kernel", ()))
        return elim, report

    def self_times(self):
        """Self time per span name (ns), and the list of integrity problems:
        a child outside its parent's interval or a negative self time."""
        t = self.t
        child_ns = Counter()
        problems = []
        for i in range(self.root + 1, self.hi):
            p = t.parent[i]
            if not self.root <= p < i or t.start[i] < t.start[p] or t.end[i] > t.end[p]:
                problems.append(f"span {i} lies outside its parent {p}")
                break
            child_ns[p] += self.dur(i)
        by_name = Counter()
        for i in range(self.root, self.hi):
            own = self.dur(i) - child_ns[i]
            if own < 0:
                problems.append(f"span {i} has negative self time")
                break
            by_name[t.names[t.name[i]]] += own
        return by_name, problems


def pass_metrics(spans, counters, s):
    """Every traced per-layer metric of one pass, except the proc.* ones.
    `s` converts a span duration in ns to the seconds reported."""
    m = {}
    for name in ("fields.qw_mul", "fields.qw_inv", "poly.substitute", "poly.mul",
                 "poly.coefficient_in_basis", "linalg.rref", "linalg.solve",
                 "nu.restrict", "heisenberg.action_matrix",
                 "invariants.pinned_basis", "hesse.oracle"):
        m[f"{name}.calls"] = spans.calls(name)
    for name in ("fields.qw_mul", "poly.substitute", "poly.mul",
                 "poly.coefficient_in_basis", "poly.partial_derivative",
                 "linalg.rref", "nu.restrict", "nu.assemble",
                 "heisenberg.action_matrix", "heisenberg.act_on_polynomial",
                 "invariants.pinned_basis", "invariants.orbit_count",
                 "coble_forms.identities", "hesse.oracle", "cli.render"):
        m[f"{name}.s"] = spans.outer_ns([name]) * s
    m["nu.chart_build.s"] = spans.outer_ns(["nu.chart_build"]) * s
    elim, report = spans.nu_split_ns()
    m["nu.elim.s"], m["nu.report.s"] = elim * s, report * s
    for fam in FAMILIES:
        m[f"{fam}.s"] = spans.outer_ns(spans.family(fam)) * s
    for name in ("linalg.rref.cells", "nu.charts", "nu.matrix.rows",
                 "nu.matrix.nnz", "nu.rank", "nu.kernel_dim",
                 "hesse.oracle.cells", "hesse.oracle.points_checked"):
        m[name] = counters.get(name, 0)
    m["hesse.oracle.cells_per_s"] = (m["hesse.oracle.cells"] / m["hesse.oracle.s"]
                                     if m["hesse.oracle.s"] else 0.0)
    return m


def combine_passes(per_pass):
    """One value per metric: exact counts must agree across passes (the
    differing names are returned); times are the median over passes."""
    out, unsteady = {}, []
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name in EXACT:
            if len(set(values)) != 1:
                unsteady.append(name)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, unsteady
