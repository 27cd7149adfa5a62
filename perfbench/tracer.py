"""Span tracing of one `a5fano` process from outside the package.

Run as a program, it wraps the public entry points of every a5fano module,
runs the CLI with the remaining arguments, and writes the recorded spans to a
JSON file when the CLI returns:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json verify burkhardt

A span has a name, a start, an end and the index of the span that was open
when it began.  Spans are kept in memory until exit.  `summarize` turns the
span files of one iteration into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute path, span name, reported metrics).  The span name is
# also the metric stem: "s" is time, "calls" the number of calls.
TARGETS = (
    ("cli", "Context.burkhardt_model", "cli.Context.burkhardt_model", ("s",)),
    ("cli", "Context.burkhardt_gram", "cli.Context.burkhardt_gram", ("s",)),
    ("cli", "Context.barth_model", "cli.Context.barth_model", ("s",)),
    ("cli", "Context.barth_surfaces", "cli.Context.barth_surfaces", ("s",)),
    ("cli", "Context.barth_table2", "cli.Context.barth_table2", ("s",)),
    ("burkhardt", "build_model", "burkhardt.build_model", ("s",)),
    ("burkhardt", "verify_nodes", "burkhardt.verify_nodes", ("s",)),
    ("burkhardt", "plane_incidence", "burkhardt.plane_incidence", ("s",)),
    ("burkhardt", "build_gram", "burkhardt.build_gram", ("s",)),
    ("burkhardt", "invariant_ranks", "burkhardt.invariant_ranks", ("s",)),
    ("burkhardt", "plane_pair_meet", "burkhardt.plane_pair_meet", ("calls",)),
    ("barth", "build_barth", "barth.build_barth", ("s",)),
    ("barth", "verify_nodes_barth", "barth.verify_nodes_barth", ("s",)),
    ("barth", "verify_xi_restrictions", "barth.verify_xi_restrictions", ("s",)),
    ("barth", "verify_theta_restrictions", "barth.verify_theta_restrictions", ("s",)),
    ("barth", "verify_plane_classification", "barth.verify_plane_classification", ("s",)),
    ("barth", "build_solid_surfaces", "barth.build_solid_surfaces", ("s",)),
    ("barth", "verify_table1", "barth.verify_table1", ("s",)),
    ("barth", "build_table2", "barth.build_table2", ("s",)),
    ("barth", "surface_permutations", "barth.surface_permutations", ("s",)),
    ("barth", "rationality_checks", "barth.rationality_checks", ("s",)),
    ("barth", "transport_surface", "barth.transport_surface", ("calls",)),
    ("lattice", "rank", "lattice.rank", ("calls", "s")),
    ("lattice", "kernel_basis", "lattice.kernel_basis", ("calls", "s")),
    ("lattice", "determinant", "lattice.determinant", ("calls", "s")),
    ("lattice", "solve_right", "lattice.solve_right", ("calls", "s")),
    ("lattice", "invariant_dimension_via_trace", "lattice.invariant_dimension_via_trace", ("s",)),
    ("lattice", "orbit_sum_gram", "lattice.orbit_sum_gram", ("s",)),
    ("groups", "act_on_poly", "groups.act_on_poly", ("calls", "s")),
    ("groups", "generate_group", "groups.generate_group", ("s",)),
    ("groups", "orbit_of", "groups.orbit_of", ("s",)),
    ("groups", "MatElem.inverse", "groups.MatElem.inverse", ("calls",)),
    ("multipoly", "substitute", "multipoly.substitute", ("calls", "s")),
    ("multipoly", "evaluate", "multipoly.evaluate", ("calls", "s")),
    ("multipoly", "exact_square_root", "multipoly.exact_square_root", ("calls", "s")),
    ("multipoly", "sylvester_resultant", "multipoly.sylvester_resultant", ("calls", "s")),
    ("multipoly", "hessian_at", "multipoly.hessian_at", ("calls", "s")),
    ("multipoly", "ternary_cubic_is_smooth", "multipoly.ternary_cubic_is_smooth", ("calls", "s")),
    ("multipoly", "MPoly.__mul__", "multipoly.MPoly.mul", ("calls",)),
    ("exactfield", "FieldElement.__mul__", "exactfield.FieldElement.mul", ("calls",)),
    ("exactfield", "FieldElement.inverse", "exactfield.FieldElement.inverse", ("calls", "s")),
    ("exactfield", "sqrt_in_field", "exactfield.sqrt_in_field", ("calls", "s")),
    ("exactfield", "RationalFunction.__mul__", "exactfield.RationalFunction.mul", ("calls",)),
    ("exactfield", "RationalFunction.inverse", "exactfield.RationalFunction.inverse", ("calls",)),
)

MODULES = ("cli", "burkhardt", "barth", "lattice", "groups", "multipoly", "exactfield")
CHECKS = (
    "burkhardt/orbits", "burkhardt/nodes", "burkhardt/incidence", "burkhardt/meet-rule",
    "burkhardt/gram-rank", "burkhardt/invariant-ranks", "barth/orbits", "barth/invariance",
    "barth/nodes", "barth/restrictions", "barth/plane-classification", "barth/surfaces",
    "barth/table1", "barth/table2", "barth/invariant-rank", "barth/rationality",
)
# Spans whose time is reported net of the builder spans nested in them.
BOUNDARY_PREFIXES = ("cli.check.", "cli.Context.")


def check_span(name):
    return "cli.check." + name.replace("/", ".")


def metric_names():
    """Every per-layer metric of the traced run, with its unit."""
    units = {}
    for _, _, span, reported in TARGETS:
        for suffix in reported:
            units[f"{span}.{suffix}"] = "count" if suffix == "calls" else "s"
    for name in CHECKS:
        units[check_span(name) + ".self_s"] = "s"
    units["lattice.invariant_dimension_via_trace.perms"] = "count"
    units["barth.surface_permutations.useful_ratio"] = "ratio"
    for module in MODULES:
        units[module + ".self_share"] = "ratio"
    units["cli.process.cpu_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# recording, inside the traced process
# ---------------------------------------------------------------------------

class Recorder:
    """Spans in four parallel arrays, and the open-span stack."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.notes = {}

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, span, note=None):
        """`fn` recording one span per call; `span` is a name or a function of
        the call's arguments; `note(recorder, args, result)` sees each result."""
        clock = time.perf_counter
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self.stack
        fixed = None if callable(span) else self.name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(fixed if fixed is not None else self.name_id(span(args)))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                note(self, args, result)
            return result

        return traced

    def add(self, key, amount):
        self.notes[key] = self.notes.get(key, 0) + amount

    def dump(self, path, wall_s):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "notes": self.notes,
                "wall_s": wall_s,
            }, fh)


def _note_perms(rec, args, result):
    rec.add("lattice.invariant_dimension_via_trace.perms", len(args[1]))


def _note_distinct(rec, args, result):
    rec.add("barth.surface_permutations.distinct", len(set(map(tuple, result))))


NOTES = {
    "lattice.invariant_dimension_via_trace": _note_perms,
    "barth.surface_permutations": _note_distinct,
}


def _rebind(original, replacement, modules):
    """Replace `original` wherever an a5fano module or class binds it: the
    scenario modules import names directly, so patching the defining module
    alone would miss their calls."""
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, replacement)


def install(rec):
    import a5fano.cli as cli

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "a5fano" or name.startswith("a5fano.")]
    for module_name, path, span, _ in TARGETS:
        owner = sys.modules["a5fano." + module_name]
        for part in path.split("."):
            owner = getattr(owner, part)
        _rebind(owner, rec.wrap(owner, span, NOTES.get(span)), modules)
    _rebind(cli.run_check,
            rec.wrap(cli.run_check, lambda args: check_span(args[0])),
            modules)
    return cli


def main(argv):
    started = time.perf_counter()
    rec = Recorder()
    cli = install(rec)
    code = cli.main(argv[1:])
    rec.dump(argv[0], time.perf_counter() - started)
    return code


# ---------------------------------------------------------------------------
# summarizing, in the benchmark process
# ---------------------------------------------------------------------------

def _totals(data):
    names = data["names"]
    name = [names[i] for i in data["name"]]
    start, end, parent = data["start"], data["end"], data["parent"]
    n = len(name)
    dur = [end[i] - start[i] for i in range(n)]

    children = [0.0] * n          # time covered by direct children
    nested_boundary = [0.0] * n   # time covered by the nearest nested boundary spans
    boundary = [name[i].startswith(BOUNDARY_PREFIXES) for i in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children[p] += dur[i]
        if boundary[i]:
            while p >= 0 and not boundary[p]:
                p = parent[p]
            if p >= 0:
                nested_boundary[p] += dur[i]

    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    useful_transports = 0
    for i in range(n):
        nm = name[i]
        add(nm + ".calls", 1)
        add(nm.split(".", 1)[0] + ".self_time", dur[i] - children[i])
        if boundary[i]:
            add(nm + ".net", dur[i] - nested_boundary[i])
        # inclusive time of the outermost span of each name
        p = parent[i]
        while p >= 0 and name[p] != nm:
            p = parent[p]
        if p < 0:
            add(nm + ".s", dur[i])
        if nm == "barth.transport_surface":
            p = parent[i]
            while p >= 0 and name[p] != "barth.surface_permutations":
                p = parent[p]
            useful_transports += p >= 0
    add("barth.surface_permutations.transports", useful_transports)
    add("process.wall_s", data["wall_s"])
    add("trace.spans", n)
    for key, value in data["notes"].items():
        add(key, value)
    return totals


def summarize(paths):
    """Per-layer metrics of one iteration from the span files of its traced
    processes: times and counts are summed over the processes."""
    totals = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for key, value in _totals(json.load(fh)).items():
                totals[key] = totals.get(key, 0) + value
    out = {}
    for metric in metric_names():
        if metric.startswith("cli.check."):
            value = totals.get(metric[:-len(".self_s")] + ".net", 0.0)
        elif metric.startswith("cli.Context."):
            value = totals.get(metric[:-len(".s")] + ".net", 0.0)
        elif metric.endswith(".self_share"):
            module = metric[:-len(".self_share")]
            value = totals.get(module + ".self_time", 0.0) / totals["process.wall_s"]
        elif metric == "barth.surface_permutations.useful_ratio":
            transports = totals.get("barth.surface_permutations.transports", 0)
            distinct = totals.get("barth.surface_permutations.distinct", 0)
            value = distinct / transports if transports else 0.0
        else:
            value = totals.get(metric, 0)
        out[metric] = value
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
