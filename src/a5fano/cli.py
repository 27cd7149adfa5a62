"""Command-line verification runner.

Runs named checks against the built-in fixtures (or a fixture directory
override), emits a text or JSON report, and exits 0 only when every requested
check passes.  Check results are deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from . import __version__, barth, burkhardt


@dataclass
class CheckResult:
    name: str
    status: str
    expected: str
    actual: str
    millis: int

    def to_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "millis": self.millis,
        }


class Context:
    """Lazily built, cached scenario data shared by the checks."""

    def __init__(self, fixtures_dir=None):
        self.fixtures_dir = fixtures_dir
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def burkhardt_model(self):
        return self._get("bk_model", burkhardt.build_model)

    def burkhardt_gram(self):
        return self._get("bk_gram", lambda: burkhardt.build_gram(self.burkhardt_model()))

    def barth_model(self):
        return self._get("bt_model", lambda: barth.build_barth(self.fixtures_dir))

    def barth_surfaces(self):
        return self._get("bt_surfaces", lambda: barth.build_solid_surfaces(self.barth_model()))

    def barth_table2(self):
        def build():
            plus, minus = self.barth_surfaces()
            return barth.verify_table2_and_ranks(
                self.barth_model(), plus, minus, self.fixtures_dir
            )

        return self._get("bt_table2", build)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _bk_orbits(ctx):
    model = ctx.burkhardt_model()
    actual = (
        f"orbits {len(model.orbit30)}+{len(model.orbit15)}, "
        f"{len(model.singular_points)} distinct points"
    )
    return "orbits 30+15, 45 distinct points", actual


def _bk_nodes(ctx):
    report = burkhardt.verify_nodes(ctx.burkhardt_model())
    return "45/45 nodes", f"{report['nodes']}/{report['points']} nodes"


def _bk_incidence(ctx):
    report = burkhardt.plane_incidence(ctx.burkhardt_model())
    per_plane = sorted(set(report["per_plane"].values()))
    actual = (
        f"per-plane {per_plane}, per-point {report['per_point_counts']}, "
        f"{report['planes_on_quartic']}/40 planes on the quartic"
    )
    return "per-plane [9], per-point [8], 40/40 planes on the quartic", actual


def _bk_meet_rule(ctx):
    # build_gram raises RuleMismatch on the first disagreement
    ctx.burkhardt_gram()
    return "780/780 pairs match the meet rule", "780/780 pairs match the meet rule"


def _bk_gram_rank(ctx):
    gram, block_a, block_b = ctx.burkhardt_gram()
    actual = (
        f"full {gram.rank()}, block-without-5 {block_a.rank()}, "
        f"block-with-5 {block_b.rank()}"
    )
    # The certified values. The block of planes through the fixed coordinate
    # has rank 12, independently confirmed; see the package README.
    return "full 16, block-without-5 16, block-with-5 12", actual


def _bk_invariant_ranks(ctx):
    model = ctx.burkhardt_model()
    gram, _, _ = ctx.burkhardt_gram()
    ranks = burkhardt.invariant_ranks(model, gram)
    actual = ", ".join(
        f"{name} {info['invariant_rank']}"
        f"({info['orbit_sum_rank']}={info['trace_dimension']})"
        for name, info in ranks.items()
    )
    expected = "S6 1(1=1), A6 1(1=1), A5_standard 1(1=1), A5_nonstandard 2(2=2)"
    return expected, actual


def _bt_orbits(ctx):
    model = ctx.barth_model()
    actual = (
        f"group order {len(model.group3)}, orbits "
        f"{len(model.sigma15)}+{len(model.sigma20)}+{len(model.sigma30)}"
    )
    return "group order 60, orbits 15+20+30", actual


def _bt_invariance(ctx):
    scalars = barth.verify_invariance(ctx.barth_model())
    actual = ", ".join(f"{k}:{v}" for k, v in sorted(scalars.items()))
    return "M:1, N:1, R:1", actual


def _bt_nodes(ctx):
    report = barth.verify_nodes_barth(ctx.barth_model())
    return "65/65 nodes", f"{report['nodes']}/{report['points']} nodes"


def _bt_restrictions(ctx):
    model = ctx.barth_model()
    xi = barth.verify_xi_restrictions(model)
    theta = barth.verify_theta_restrictions(model)
    smooth = sum(1 for v in xi.values() if v["smooth"])
    irr = sum(1 for k, v in theta.items() if isinstance(v, dict)
              and v.get("conic_type") == "irreducible")
    actual = f"{smooth}/20 smooth doubled cubics, {irr}/6 doubled line+conic"
    return "20/20 smooth doubled cubics, 6/6 doubled line+conic", actual


def _bt_classification(ctx):
    report = barth.verify_plane_classification(ctx.barth_model())
    actual = (
        f"line multiplicity {report['line6_pencil']['line_multiplicity']}, "
        f"odd coefficients vanish {report['line10_pencil']['odd_coefficients_vanish']}, "
        f"control square {report['mu_one_control']['square_root']!r}"
    )
    return (
        "line multiplicity 1, odd coefficients vanish True, "
        "control square 'x^3 + -1*x'"
    ), actual


def _bt_surfaces(ctx):
    plus, minus = ctx.barth_surfaces()
    return "20+20 surfaces on the double solid", f"{len(plus)}+{len(minus)} surfaces on the double solid"


def _bt_table1(ctx):
    model = ctx.barth_model()
    plus, _ = ctx.barth_surfaces()
    report = barth.verify_table1(model, plus, ctx.fixtures_dir)
    return "20/20 transport words verified", f"{len(report)}/20 transport words verified"


def _bt_table2(ctx):
    report = ctx.barth_table2()
    actual = (
        f"{report['entries_matching']}/{report['entries_checked']} entries, "
        f"rows ok {report['row_multiset_ok']}, minus family equal "
        f"{report['minus_equals_plus']}, rank {report['rank']}"
    )
    return "400/400 entries, rows ok True, minus family equal True, rank 14", actual


def _bt_invariant_rank(ctx):
    report = ctx.barth_table2()
    actual = f"orbit-sum {report['orbit_sum_rank']}, trace {report['trace_dimension']}"
    return "orbit-sum 1, trace 1", actual


def _bt_rationality(ctx):
    report = barth.rationality_checks()
    actual = (
        f"identity {report['coordinate_change']}, lines on surface "
        f"{report['lines_on_surface']}, disjoint rank {report['lines_disjoint_rank']}"
    )
    return "identity True, lines on surface True, disjoint rank 4", actual


CATALOG = (
    ("burkhardt/orbits", "two singular orbits of lengths 30 and 15, 45 points total", _bk_orbits),
    ("burkhardt/nodes", "all 45 singular points are nodes (zero gradient, nondegenerate quadric)", _bk_nodes),
    ("burkhardt/incidence", "each plane holds 9 singular points, each point lies on 8 planes", _bk_incidence),
    ("burkhardt/meet-rule", "combinatorial meet rule equals linear-algebra meet type on all 780 pairs", _bk_meet_rule),
    ("burkhardt/gram-rank", "pairing matrix ranks of the 40 planes and the two 20-plane blocks", _bk_gram_rank),
    ("burkhardt/invariant-ranks", "invariant class ranks for the permutation subgroups, two methods", _bk_invariant_ranks),
    ("barth/orbits", "rotation group of order 60, singular orbits of lengths 15, 20, 30", _bt_orbits),
    ("barth/invariance", "the sextic is fixed up to scalar by every generator", _bt_invariance),
    ("barth/nodes", "all 65 singular points are nodes", _bt_nodes),
    ("barth/restrictions", "plane restrictions are doubled smooth cubics or doubled line+conic", _bt_restrictions),
    ("barth/plane-classification", "pencil family checks: closed forms, non-squares, controls", _bt_classification),
    ("barth/surfaces", "the 20+20 halved preimages lie on the double solid", _bt_surfaces),
    ("barth/table1", "transport words reproduce every surface in the plus family", _bt_table1),
    ("barth/table2", "20x20 intersection matrix matches the pinned fixture and has rank 14", _bt_table2),
    ("barth/invariant-rank", "invariant rank of the surface lattice is 1, two methods", _bt_invariant_rank),
    ("barth/rationality", "coordinate-change identity, factorizations, disjoint lines", _bt_rationality),
)

_CHECKS = {name: (desc, fn) for name, desc, fn in CATALOG}


def run_check(name, ctx):
    desc, fn = _CHECKS[name]
    start = time.monotonic()
    try:
        expected, actual = fn(ctx)
        status = "pass" if expected == actual else "fail"
    except Exception as exc:  # a failed build is a failed check, not a crash
        expected, actual = "completes", f"error: {type(exc).__name__}: {exc}"
        status = "fail"
    millis = int((time.monotonic() - start) * 1000)
    return CheckResult(name=name, status=status, expected=expected,
                       actual=actual, millis=millis)


def checks_for_suite(suite, only=None):
    names = [name for name, _, _ in CATALOG
             if suite == "all" or name.startswith(suite + "/")]
    if only:
        wanted = []
        for item in only:
            full = item if "/" in item else None
            matches = [n for n in names
                       if n == full or n == item or n.split("/", 1)[1] == item]
            if not matches:
                raise KeyError(item)
            wanted.extend(matches)
        names = [n for n in names if n in set(wanted)]
    return names


def run_suite(suite, only=None, fixtures_dir=None):
    ctx = Context(fixtures_dir)
    results = [run_check(name, ctx) for name in checks_for_suite(suite, only)]
    summary = {
        "pass": sum(1 for r in results if r.status == "pass"),
        "fail": sum(1 for r in results if r.status == "fail"),
        "skipped": sum(1 for r in results if r.status == "skipped"),
    }
    return {
        "suite": suite,
        "toolkit_version": __version__,
        "checks": [r.to_dict() for r in results],
        "summary": summary,
    }


def format_text(report):
    lines = [f"suite {report['suite']} (toolkit {report['toolkit_version']})"]
    for chk in report["checks"]:
        mark = "ok " if chk["status"] == "pass" else "FAIL"
        lines.append(f"  [{mark}] {chk['name']} ({chk['millis']} ms)")
        if chk["status"] != "pass":
            lines.append(f"         expected: {chk['expected']}")
            lines.append(f"         actual:   {chk['actual']}")
    s = report["summary"]
    lines.append(f"pass {s['pass']}, fail {s['fail']}, skipped {s['skipped']}")
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="a5fano",
        description="exact verification of the two icosahedral Fano threefold lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=["burkhardt", "barth", "all"])
    verify.add_argument("--check", action="append", default=None,
                        help="run only the named check(s); may be repeated")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--out", default=None, help="write the report to a file")
    verify.add_argument("--fixtures", default=None, help="fixture directory override")
    sub.add_parser("list-checks", help="print the catalog of checks")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-checks":
        for name, desc, _ in CATALOG:
            print(f"{name} - {desc}")
        return 0
    try:
        report = run_suite(args.suite, only=args.check, fixtures_dir=args.fixtures)
    except KeyError as exc:
        print(f"unknown check: {exc.args[0]}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2) if args.format == "json" else format_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["summary"]["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
