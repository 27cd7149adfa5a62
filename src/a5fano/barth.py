"""The 65-node icosahedral sextic surface in P^3, the double solid branched
over it, and the rank-14 lattice of its distinguished surfaces.

The golden-ratio field Q(phi) carries the sextic, its three rotation
generators, the 65 singular points, and the 20 + 6 special planes.  The
branch constant 2*sqrt(5*phi+3) never gets adjoined: surfaces store the sign
and the cubic separately and every identity is arranged so only its square
5*phi+3 appears.  A surface lies over a plane x3 = v.x, and its cubic is
written in the coordinates x0, x1, x2 that the projection forgetting x3 puts
on that plane, so the surface pairings and the check that a surface lies on
the double solid are computations in P^2.  The rationality construction runs
over the degree-4 field containing sqrt(2*phi+1) and a rational-function
field in one parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .exactfield import (
    RationalFunctionField,
    branch_root_field,
    golden_field,
    sqrt_in_field,
)
from .groups import (
    MatElem,
    Perm,
    act_on_poly,
    canonical_point,
    eval_word,
    generate_group,
    identity_matrix,
    index_orbits,
    orbit_of,
    parse_word,
)
from .lattice import (
    GramMatrix,
    invariant_dimension_via_trace,
    kernel_basis,
    orbit_sum_gram,
    rank,
)
from .multipoly import (
    MPoly,
    PolyRing,
    divmod_single,
    evaluate,
    exact_square_root,
    node_failure,
    restrict_to_line,
    substitute,
    ternary_conic_classify,
    ternary_cubic_is_smooth,
)


class NotInvariant(RuntimeError):
    pass


class RestrictionMismatch(RuntimeError):
    pass


class FamilyCheckFailed(RuntimeError):
    pass


class SurfaceNotOnSolid(RuntimeError):
    pass


class Table1Mismatch(RuntimeError):
    pass


class Table2Mismatch(RuntimeError):
    pass


class IdentityFailed(RuntimeError):
    pass


class FixtureError(ValueError):
    """A fixture file that does not hold the data it should."""


def _load_fixture(name, fixtures_dir=None):
    if fixtures_dir is not None:
        with open(f"{fixtures_dir}/{name}", "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = resources.files("a5fano.fixtures").joinpath(name).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{name}: malformed JSON: {exc}") from exc


_PLANE_COUNTS = {"xi_planes.json": 20, "theta_planes.json": 6}


def load_plane_vectors(name, field, phi, fixtures_dir=None):
    """Labels and vectors of a plane fixture (xi_planes.json or
    theta_planes.json); a coordinate [a, b] stands for a + b*phi."""
    data = _load_fixture(name, fixtures_dir)
    count = _PLANE_COUNTS[name]
    labels = data.get("labels") if isinstance(data, dict) else None
    vectors = data.get("vectors") if isinstance(data, dict) else None
    if not (isinstance(labels, list) and len(labels) == count
            and isinstance(vectors, list) and len(vectors) == count
            and all(isinstance(vec, list) and len(vec) == 3
                    and all(isinstance(c, list) and len(c) == 2
                            and all(type(x) is int for x in c) for c in vec)
                    for vec in vectors)):
        raise FixtureError(f"{name}: expected {count} labels and {count} vectors "
                           f"of 3 coordinates [a, b] with integer a, b")
    return labels, [tuple(field(a) + phi * b for a, b in vec) for vec in vectors]


_MAX_WORD_EXPONENT = 60  # the order of the rotation group


def load_table1_words(labels, fixtures_dir=None):
    """The transport word of each xi label: "Id" or a product of N, R, M
    with integer exponents of absolute value at most 60, such as "R^2 M^3"."""
    data = _load_fixture("table1_words.json", fixtures_dir)
    if not (isinstance(data, dict) and all(isinstance(w, str) for w in data.values())):
        raise FixtureError("table1_words.json: expected an object of string words")
    if set(data) != set(labels):
        raise FixtureError(f"table1_words.json: expected the {len(labels)} xi labels as keys")
    for label, word in data.items():
        try:
            ok = all(letter in {"N", "R", "M"} and abs(exp) <= _MAX_WORD_EXPONENT
                     for letter, exp in parse_word(word))
        except ValueError:  # an exponent that is not an integer
            ok = False
        if not ok:
            raise FixtureError(
                f"table1_words.json: word {word!r} for {label} is not a product of "
                f"N, R, M with exponents of absolute value at most {_MAX_WORD_EXPONENT}"
            )
    return data


def load_table2(labels, fixtures_dir=None):
    """The pinned 20x20 intersection matrix, its rows and columns in the
    order of the xi labels, which the fixture's own labels must repeat."""
    data = _load_fixture("table2.json", fixtures_dir)
    table_labels = data.get("labels") if isinstance(data, dict) else None
    rows = data.get("rows") if isinstance(data, dict) else None
    if not (isinstance(table_labels, list) and len(table_labels) == 20
            and isinstance(rows, list) and len(rows) == 20
            and all(isinstance(row, list) and len(row) == 20
                    and all(type(x) is int for x in row) for row in rows)):
        raise FixtureError("table2.json: expected 20 labels and 20 rows of 20 integers")
    if table_labels != list(labels):
        raise FixtureError("table2.json: labels are not the xi labels in xi-plane order")
    return data


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BarthModel:
    field: object
    phi: object
    ring4: PolyRing
    ring3: PolyRing
    sextic: MPoly
    gens3: dict            # N, R, M as 3x3 matrices
    gens4: dict            # same, extended by the fixed last coordinate
    group3: tuple          # all 60 rotation classes (3x3)
    sigma15: tuple
    sigma20: tuple
    sigma30: tuple
    xi_labels: tuple
    xi_vectors: tuple
    theta_labels: tuple
    theta_vectors: tuple


def _extend_to_4(field, mat3):
    rows = [list(row) + [field.zero] for row in mat3.entries]
    rows.append([field.zero] * 3 + [field.one])
    return MatElem(field, rows)


def icosahedral_generators(field, phi):
    half = Fraction(1, 2)
    n = MatElem(field, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    r = MatElem(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    m = MatElem(
        field,
        [
            [phi * half, (phi - 1) * half, field(half)],
            [(phi - 1) * half, field(half), -phi * half],
            [field(-half), phi * half, (phi - 1) * half],
        ],
    )
    return {"N": n, "R": r, "M": m}


def build_barth(fixtures_dir=None):
    field, phi = golden_field()
    ring4 = PolyRing(field, ("x0", "x1", "x2", "x3"))
    ring3 = PolyRing(field, ("x0", "x1", "x2"))
    x0, x1, x2, x3 = ring4.gens()
    phi2 = phi * phi
    # 4 l1...l6 - q3^2 with l1..l6 = phi x0 -+ x1, phi x1 -+ x2, phi x2 -+ x0
    # and q3^2 = (1 + 2 phi) x3^2 (x0^2 + x1^2 + x2^2 - x3^2)^2
    sextic = (
        4 * (x0 ** 2 * phi2 - x1 ** 2) * (x1 ** 2 * phi2 - x2 ** 2) * (x2 ** 2 * phi2 - x0 ** 2)
        - x3 ** 2 * (x0 ** 2 + x1 ** 2 + x2 ** 2 - x3 ** 2) ** 2 * (1 + 2 * phi)
    )

    gens3 = icosahedral_generators(field, phi)
    gens4 = {k: _extend_to_4(field, v) for k, v in gens3.items()}
    group3 = tuple(generate_group(list(gens3.values()), order_bound=60))

    def mat_act(g, pt):
        return g.apply(pt)

    def orbit_pts(seed):
        pt = tuple(field(c) for c in seed)
        orb = orbit_of(pt, list(gens4.values()), act=mat_act,
                       canonicalize=canonical_point, group_order=60)
        return tuple(sorted(orb.members, key=lambda p: tuple(str(c) for c in p)))

    sigma15 = orbit_pts((1, 0, 0, 0))
    sigma30 = orbit_pts((1, 0, 0, 1))
    sigma20 = orbit_pts((1, 1, 1, 1))

    xi_labels, xi_vectors = load_plane_vectors("xi_planes.json", field, phi, fixtures_dir)
    theta_labels, theta_vectors = load_plane_vectors("theta_planes.json", field, phi, fixtures_dir)

    return BarthModel(
        field=field,
        phi=phi,
        ring4=ring4,
        ring3=ring3,
        sextic=sextic,
        gens3=gens3,
        gens4=gens4,
        group3=group3,
        sigma15=sigma15,
        sigma20=sigma20,
        sigma30=sigma30,
        xi_labels=tuple(xi_labels),
        xi_vectors=tuple(xi_vectors),
        theta_labels=tuple(theta_labels),
        theta_vectors=tuple(theta_vectors),
    )


# ---------------------------------------------------------------------------
# invariance, orbits, nodes
# ---------------------------------------------------------------------------

def verify_invariance(model):
    """Each generator must carry the sextic to an exact scalar multiple."""
    scalars = {}
    le, lc = model.sextic.leading()
    for name, g in model.gens4.items():
        moved = act_on_poly(g, model.sextic)
        if moved.is_zero():
            raise NotInvariant(name)
        me, mc = moved.leading()
        if me != le:
            raise NotInvariant(f"{name}: leading monomial moved")
        c = mc / lc
        if moved != model.sextic * c:
            raise NotInvariant(f"{name}: image is not proportional to the sextic")
        scalars[name] = c
    return scalars


def verify_nodes_barth(model):
    pts = set(model.sigma15) | set(model.sigma20) | set(model.sigma30)
    failures = []
    for pt in sorted(pts, key=lambda p: tuple(str(c) for c in p)):
        if not evaluate(model.sextic, pt).is_zero():
            failures.append((tuple(str(c) for c in pt), "not on the sextic"))
            continue
        reason = node_failure(model.sextic, pt)
        if reason:
            failures.append((tuple(str(c) for c in pt), reason))
    return {
        "orbit_lengths": [len(model.sigma15), len(model.sigma20), len(model.sigma30)],
        "points": len(pts),
        "nodes": len(pts) - len(failures),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# plane restrictions
# ---------------------------------------------------------------------------

def restriction_constant(model):
    """-4*(5*phi+3), the factor in front of every squared plane cubic."""
    return model.field(-4) * (5 * model.phi + 3)


def pinned_cubic(model, variant):
    """The two pinned squared cubics for the planes through (1,1,1) and (1,-1,-1)."""
    x0, x1, x2 = model.ring3.gens()
    phi = model.phi
    cyc = x0 * x1 ** 2 + x1 * x2 ** 2 + x2 * x0 ** 2
    alt = x0 * x1 ** 2 - x1 * x2 ** 2 - x2 * x0 ** 2
    cyc_rev = x0 ** 2 * x1 + x1 ** 2 * x2 + x2 ** 2 * x0
    alt_rev = x0 ** 2 * x1 + x1 ** 2 * x2 - x2 ** 2 * x0
    mono = x0 * x1 * x2
    if variant == "+":
        return cyc * (phi - 2) + mono * (phi - 3) - cyc_rev
    if variant == "-":
        return alt * (2 - phi) + mono * (3 - phi) - alt_rev
    raise ValueError(variant)


def restrict_to_xi(model, v):
    x0, x1, x2 = model.ring3.gens()
    image3 = x0 * v[0] + x1 * v[1] + x2 * v[2]
    return substitute(model.sextic, [x0, x1, x2, image3])


def is_doubled_cubic(model, v, cubic):
    """Whether the sextic on the plane x3 = v.x is the restriction constant
    times cubic^2."""
    return restrict_to_xi(model, v) == cubic * cubic * restriction_constant(model)


def xi_cubic(model, v):
    """The cubic whose square (times the restriction constant) is the sextic
    restricted to the plane x3 = v.x; sign fixed by an in-field square root."""
    rest = restrict_to_xi(model, v)
    if rest.is_zero():
        raise RestrictionMismatch("restriction vanished")
    _, lead = rest.leading()
    monic = rest / lead
    root = exact_square_root(monic)
    if root is None:
        raise RestrictionMismatch("restriction is not a square times a constant")
    ratio = lead / restriction_constant(model)
    t = sqrt_in_field(ratio)
    if t is None:
        raise RestrictionMismatch("constant is not the expected square multiple")
    cubic = root * t
    if rest != cubic * cubic * restriction_constant(model):
        raise RestrictionMismatch("reassembled restriction disagrees")
    return cubic


def verify_xi_restrictions(model):
    out = {}
    for label, v in zip(model.xi_labels, model.xi_vectors):
        cubic = xi_cubic(model, v)
        smooth = ternary_cubic_is_smooth(cubic)
        out[label] = {"smooth": smooth}
        if not smooth:
            raise RestrictionMismatch(f"cubic for {label} is not smooth")
    # the two pinned closed forms, verbatim
    for variant, label in (("+", "(1,1,1)"), ("-", "(1,-1,-1)")):
        v = model.xi_vectors[model.xi_labels.index(label)]
        if not is_doubled_cubic(model, v, pinned_cubic(model, variant)):
            raise RestrictionMismatch(f"pinned closed form for {label} fails")
    return out


def restrict_to_theta(model, u):
    """Restriction of the sextic to the plane u.x = 0, in chart coordinates.

    Returns (poly, ring): a ternary polynomial in the two surviving
    first-three coordinates plus x3; the pivot coordinate is eliminated.
    """
    field = model.field
    pivot = next(i for i, c in enumerate(u) if not c.is_zero())
    keep = [i for i in range(3) if i != pivot]
    names = tuple(f"x{i}" for i in keep) + ("x3",)
    ring = PolyRing(field, names)
    g = ring.gens()
    by_index = {keep[0]: g[0], keep[1]: g[1], 3: g[2]}
    inv = u[pivot].inverse()
    by_index[pivot] = -(g[0] * u[keep[0]] + g[1] * u[keep[1]]) * inv
    images = [by_index[i] for i in range(4)]
    return substitute(model.sextic, images), ring


def theta_decomposition(model, u):
    """(constant, conic) with the restriction equal to const * x3^2 * conic^2."""
    rest, ring = restrict_to_theta(model, u)
    x3 = ring.gens()[2]
    q1, r1 = divmod_single(rest, x3)
    if not r1.is_zero():
        raise RestrictionMismatch("restriction not divisible by the fixed line")
    q2, r2 = divmod_single(q1, x3)
    if not r2.is_zero():
        raise RestrictionMismatch("fixed line does not appear doubly")
    _, r3 = divmod_single(q2, x3)
    if r3.is_zero():
        raise RestrictionMismatch("fixed line appears more than twice")
    _, lead = q2.leading()
    monic = q2 / lead
    conic = exact_square_root(monic)
    if conic is None:
        raise RestrictionMismatch("residual factor is not a squared conic")
    if rest != x3 * x3 * conic * conic * lead:
        raise RestrictionMismatch("reassembled restriction disagrees")
    return lead, conic, ring


def verify_theta_restrictions(model):
    out = {}
    for label, u in zip(model.theta_labels, model.theta_vectors):
        const, conic, ring = theta_decomposition(model, u)
        kind = ternary_conic_classify(conic)
        out[label] = {"constant": str(const), "conic_type": kind}
        if kind != "irreducible":
            raise RestrictionMismatch(f"conic for {label} is {kind}")
    # the worked plane: restriction proportional to x3^2 (x1^2+(1+phi^2)x2^2-x3^2)^2
    phi = model.phi
    u0 = model.theta_vectors[model.theta_labels.index("(-1,0,phi)")]
    const, conic, ring = theta_decomposition(model, u0)
    y1, y2, y3 = ring.gens()
    expected = y1 ** 2 + y2 ** 2 * (1 + phi * phi) - y3 ** 2
    if conic != expected and conic != -expected:
        raise RestrictionMismatch("worked conic does not match the pinned form")
    out["(-1,0,phi)"]["pinned_match"] = True
    return out


# ---------------------------------------------------------------------------
# the double-cover surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolidSurface:
    v: tuple          # plane coefficients: x3 = v . (x0,x1,x2)
    sign: str         # which square root of (2 sqrt(5 phi + 3))^2 multiplies the cubic
    cubic: MPoly

    def flipped(self):
        return SolidSurface(self.v, "-" if self.sign == "+" else "+", -self.cubic)


def transport_surface(surface, g3):
    """Move a surface by a rotation: planes by the inverse transpose, the
    cubic by composition with the inverse."""
    inv_t = g3.inverse().transpose()
    v = inv_t.apply(surface.v)
    cubic = act_on_poly(g3, surface.cubic)
    return SolidSurface(tuple(v), surface.sign, cubic)


def build_solid_surfaces(model):
    """The plus family: the 20-surface orbit of the seed over (1,1,1).

    A surface over the plane x3 = v.x lies on the double solid when the
    sextic restricted to that plane is the restriction constant times the
    surface's cubic squared (the constant is -C^2, C the branch constant).
    """
    seed = SolidSurface(
        tuple(model.xi_vectors[model.xi_labels.index("(1,1,1)")]),
        "+",
        pinned_cubic(model, "+"),
    )
    members = orbit_of(seed, list(model.gens3.values()),
                       act=lambda g, srf: transport_surface(srf, g),
                       canonicalize=lambda srf: srf).members
    if len(members) != 20:
        raise SurfaceNotOnSolid(f"orbit has {len(members)} members, expected 20")
    by_v = {}
    for srf in members:
        if srf.v in by_v:
            raise SurfaceNotOnSolid("two orbit members over one plane")
        by_v[srf.v] = srf
    if set(by_v) != set(model.xi_vectors):
        raise SurfaceNotOnSolid("orbit planes differ from the fixture planes")
    plus = tuple(by_v[v] for v in model.xi_vectors)
    minus = tuple(s.flipped() for s in plus)
    for srf in plus:
        if not is_doubled_cubic(model, srf.v, srf.cubic):
            raise SurfaceNotOnSolid(f"surface over {srf.v} misses the double solid")
    return plus, minus


def verify_table1(model, plus, fixtures_dir=None):
    words = load_table1_words(model.xi_labels, fixtures_dir)
    seed = plus[model.xi_labels.index("(1,1,1)")]
    ident = identity_matrix(model.field, 3)
    report = {}
    for label, srf in zip(model.xi_labels, plus):
        word = words[label]
        g = eval_word(word, model.gens3, identity=ident)
        moved = transport_surface(seed, g)
        if moved.v != srf.v or moved.cubic != srf.cubic:
            raise Table1Mismatch(f"word {word} does not reach the surface over {label}")
        report[label] = word
    return report


def surface_pair_intersection(model, a, b):
    """Pairing of two same-sign surfaces: -2, 1 (common curve), or 0.

    Forgetting x3 maps the plane x3 = v.x isomorphically onto P^2, and it
    maps the line where the planes of a and b meet onto (a.v - b.v).x = 0.
    Both cubics are written in those P^2 coordinates, so the two surfaces
    share a curve exactly when a.cubic - b.cubic vanishes on that line, that
    is, when the linear form divides it.
    """
    if a.sign != b.sign:
        raise ValueError("pairing is defined within one sign family")
    if a.v == b.v:
        if a.cubic == b.cubic:
            return -2
        raise ValueError("two surfaces over one plane")
    x = model.ring3.gens()
    line = sum((xi * (p - q) for xi, p, q in zip(x, a.v, b.v)), model.ring3.zero)
    _, remainder = divmod_single(a.cubic - b.cubic, line)
    return 1 if remainder.is_zero() else 0


def build_table2(model, family):
    labels = model.xi_labels
    n = len(family)
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = -2
        for j in range(i + 1, n):
            val = surface_pair_intersection(model, family[i], family[j])
            entries[i][j] = val
            entries[j][i] = val
    return GramMatrix(labels, entries)


def surface_permutations(model, plus):
    """The permutation of the plus family induced by every rotation.

    Only the 3 generators move the surfaces; the closure of their
    permutations under composition is the image of the whole group, since
    every rotation is a product of generators.  A generator that leaves the
    family raises.  A5 is simple, so its action on a 20-surface orbit is
    faithful and the closure must have exactly 60 elements.
    """
    index = {(s.v, s.cubic): i for i, s in enumerate(plus)}
    gens = []
    for g in model.gens3.values():
        images = [0] * len(plus)
        for i, s in enumerate(plus):
            moved = transport_surface(s, g)
            key = (moved.v, moved.cubic)
            if key not in index:
                raise SurfaceNotOnSolid("rotation leaves the plus family")
            images[i] = index[key]
        gens.append(Perm(images))
    order = len(model.group3)
    perms = generate_group(gens, order_bound=order)
    if len(perms) != order:
        raise SurfaceNotOnSolid(
            f"the rotations act on the plus family through {len(perms)} "
            f"permutations, expected {order}"
        )
    return [p.images for p in perms]


def verify_table2_and_ranks(model, plus, minus, fixtures_dir=None):
    """Compare the plus family's 20x20 intersection matrix with table2.json,
    and check that minus is plus flipped surface by surface: same plane,
    opposite sign, negated cubic.  That makes the minus matrix equal to the
    plus one without building it, since `surface_pair_intersection` depends
    only on the two planes and on whether a.cubic - b.cubic vanishes on their
    line, and flipping both surfaces only negates that difference."""
    if len(minus) != len(plus) or any(
        m.v != p.v or m.sign == p.sign or m.cubic != -p.cubic for p, m in zip(plus, minus)
    ):
        raise Table2Mismatch("minus family is not the plus family flipped")
    fixture = load_table2(model.xi_labels, fixtures_dir)
    gram_plus = build_table2(model, plus)
    mismatches = []
    for i in range(20):
        for j in range(20):
            if gram_plus.entries[i][j] != fixture["rows"][i][j]:
                mismatches.append((i, j, fixture["rows"][i][j], gram_plus.entries[i][j]))
    if mismatches:
        i, j, want, got = mismatches[0]
        raise Table2Mismatch(
            f"first mismatch at ({model.xi_labels[i]}, {model.xi_labels[j]}): "
            f"fixture {want}, computed {got}; {len(mismatches)} total"
        )
    row_ok = all(
        sorted(row) == [-2] + [0] * 7 + [1] * 12 for row in gram_plus.entries
    )
    perms = surface_permutations(model, plus)
    orbits = index_orbits(perms)
    osum_rank = rank(orbit_sum_gram(gram_plus, orbits))
    trace_dim = invariant_dimension_via_trace(gram_plus, [(p, 1) for p in perms], perms)
    return {
        "entries_checked": 400,
        "entries_matching": 400,
        "row_multiset_ok": row_ok,
        "minus_equals_plus": True,
        "rank": gram_plus.rank(),
        "orbit_sum_rank": osum_rank,
        "trace_dimension": trace_dim,
        "gram": gram_plus,
    }


# ---------------------------------------------------------------------------
# the plane-classification family checks
# ---------------------------------------------------------------------------

def _mu_field(model):
    return RationalFunctionField(model.field, "mu")


def classification_case_line6(model):
    """Pencil through a fixed line of the six-line configuration: for a
    transcendental pencil parameter the restriction contains that line with
    multiplicity exactly one, so it is never a doubled cubic."""
    F = _mu_field(model)
    mu = F.gen()
    ringF = PolyRing(F, ("x0", "x1", "x2"))
    x0, x1, x2 = ringF.gens()
    phi = F(model.phi)
    ringF4 = PolyRing(F, ("x0", "x1", "x2", "x3"))
    sexticF = _poly_over(model.sextic, F, ringF4)
    g0, g1, g2, _ = ringF4.gens()
    image3 = (g0 * phi + g1) * mu  # x3 = mu * (phi x0 + x1) on the pencil plane
    rest = substitute(sexticF, [g0, g1, g2, image3])
    rest = _drop_last_var(rest, ringF)
    line = x0 * phi + x1
    q1, r1 = divmod_single(rest, line)
    if not r1.is_zero():
        raise FamilyCheckFailed("pencil restriction misses the line")
    _, r2 = divmod_single(q1, line)
    if r2.is_zero():
        raise FamilyCheckFailed("line multiplicity is not exactly one")
    return {"line_multiplicity": 1}


def _poly_over(p, new_field, new_ring):
    terms = {}
    for exps, c in p.terms.items():
        c2 = new_field(c)
        if not c2.is_zero():
            terms[exps] = c2
    return MPoly(new_ring, terms)


def _drop_last_var(p, target_ring):
    terms = {}
    for exps, c in p.terms.items():
        if exps[-1] != 0:
            raise ValueError("polynomial still involves the dropped variable")
        terms[exps[:-1]] = c
    return MPoly(target_ring, terms)


def classification_case_line10(model):
    """Pencil through the line x0+x1+x2 = x3 = 0 with transcendental inverse
    parameter: the even sextic in one variable has the pinned closed form and
    is certifiably not a squared cubic."""
    F = _mu_field(model)
    mu = F.gen()
    ring1 = PolyRing(F, ("x",))
    (x,) = ring1.gens()
    phi = F(model.phi)
    phi2 = phi * phi
    mu2 = mu * mu
    # the sextic on the plane x3 = mu*(x0+x1+x2), specialized to (1, x, -x)
    ringF4 = PolyRing(F, ("x0", "x1", "x2", "x3"))
    sexticF = _poly_over(model.sextic, F, ringF4)
    f = substitute(sexticF, [ring1.one, x, -x, ring1(mu)])
    expected_f = (
        4 * (phi2 - x ** 2) * (x ** 2 * phi2 - x ** 2) * (x ** 2 * phi2 - 1)
        - (1 + 2 * phi) * mu2 * ((1 + 2 * x ** 2) - mu2) ** 2
    )
    if f != expected_f:
        raise FamilyCheckFailed("pencil restriction differs from the sextic")
    pinned = (
        -(8 * phi + 4) * x ** 6
        - (4 + 8 * phi) * (mu2 - 3) * x ** 4
        + (4 + 8 * phi) * (mu2 - phi) * (mu2 + phi - 1) * x ** 2
        - (1 + 2 * phi) * mu2 * (mu + 1) ** 2 * (mu - 1) ** 2
    )
    if f != pinned:
        raise FamilyCheckFailed("closed form of the pencil restriction differs")
    coeffs = [f.coefficient((k,)) for k in range(7)]
    checks = {
        "odd_coefficients_vanish": coeffs[1].is_zero() and coeffs[3].is_zero()
        and coeffs[5].is_zero(),
        "leading": str(coeffs[6]),
        "constant": str(coeffs[0]),
    }
    if not checks["odd_coefficients_vanish"]:
        raise FamilyCheckFailed("odd coefficients do not vanish")
    if coeffs[6].is_zero() or coeffs[0].is_zero():
        raise FamilyCheckFailed("leading or constant coefficient vanishes")
    if coeffs[0] != -(1 + 2 * phi) * mu2 * (mu + 1) ** 2 * (mu - 1) ** 2:
        raise FamilyCheckFailed("constant term does not factor as pinned")
    if coeffs[6] != -(8 * phi + 4):
        raise FamilyCheckFailed("leading coefficient differs from the pinned value")
    # a square q^2 with q cubic forces, from zero x and x^3 coefficients and a
    # nonzero constant, first c = 0 and then a = 0: impossible over any field
    if exact_square_root(f / coeffs[6]) is not None:
        raise FamilyCheckFailed("the monic sextic is unexpectedly a square")
    return checks


def classification_case_mu_one(model):
    """Positive control: at pencil parameter 1 the sextic becomes a square."""
    field, phi = model.field, model.phi
    ring1 = PolyRing(field, ("x",))
    (x,) = ring1.gens()
    phi2 = phi * phi
    f = (
        4 * (phi2 - x ** 2) * (x ** 2 * phi2 - x ** 2) * (x ** 2 * phi2 - 1)
        - (1 + 2 * phi) * (2 * x ** 2) ** 2
    )
    lead = f.coefficient((6,))
    root = exact_square_root(f / lead)
    if root is None:
        raise FamilyCheckFailed("control at parameter 1 is not a square")
    expected = x ** 3 - x
    if root != expected and root != -expected:
        raise FamilyCheckFailed("control square root has an unexpected value")
    return {"square_root": str(root)}


def classification_case_plane_sum_zero(model):
    """The plane x0+x1+x2 = 0: the pinned even sextic, again not a square."""
    field, phi = model.field, model.phi
    ring1 = PolyRing(field, ("x",))
    (x,) = ring1.gens()
    phi2 = phi * phi
    # the specialization x1 = x, x2 = -x, x3 = 1 forces x0 = -(x1+x2) = 0
    g = -(1 + 2 * phi) * (4 * x ** 6 + 4 * x ** 4 - 4 * x ** 2 + 1)
    direct = substitute(
        model.sextic,
        [ring1.zero, x, -x, ring1.one],
    )
    if direct != g:
        raise FamilyCheckFailed("pinned specialization differs from the sextic")
    if exact_square_root(g / g.coefficient((6,))) is not None:
        raise FamilyCheckFailed("specialization is unexpectedly a square")
    coeffs = [g.coefficient((k,)) for k in range(7)]
    if not (coeffs[1].is_zero() and coeffs[3].is_zero()):
        raise FamilyCheckFailed("odd coefficients do not vanish")
    if coeffs[0].is_zero() or coeffs[6].is_zero():
        raise FamilyCheckFailed("leading or constant coefficient vanishes")
    return {"constant": str(coeffs[0]), "leading": str(coeffs[6])}


def verify_plane_classification(model):
    return {
        "line6_pencil": classification_case_line6(model),
        "line10_pencil": classification_case_line10(model),
        "mu_one_control": classification_case_mu_one(model),
        "plane_sum_zero": classification_case_plane_sum_zero(model),
    }


# ---------------------------------------------------------------------------
# rationality of the double solid
# ---------------------------------------------------------------------------

def rationality_checks():
    """The coordinate-change identity, the two factorizations over the
    function field, line containment, and line disjointness."""
    S, s, tau = branch_root_field()
    report = {}

    ring5 = PolyRing(S, ("x0", "x1", "x2", "x3", "y"))
    x0, x1, x2, x3, y = ring5.gens()
    l1 = x0 * tau - x1
    l2 = x1 * tau - x2
    l3 = x2 * tau - x0
    l4 = x0 * tau + x1
    l5 = x1 * tau + x2
    l6 = x2 * tau + x0
    q3 = (x0 ** 2 + x1 ** 2 + x2 ** 2 - x3 ** 2) * x3 * s
    prod = l1 * l2 * l3 * l4 * l5 * l6
    lhs = (2 * y * l1 * l2 + q3) ** 2 + 4 * prod - q3 * q3
    rhs = 4 * l1 * l2 * (y ** 2 * l1 * l2 + y * q3 + l3 * l4 * l5 * l6)
    if lhs != rhs:
        raise IdentityFailed("coordinate-change identity (1)")
    report["coordinate_change"] = True

    F = RationalFunctionField(S, "lam")
    lam = F.gen()
    ring4F = PolyRing(F, ("x0", "x1", "x2", "x3"))
    g0, g1, g2, g3v = ring4F.gens()
    tauF = F(tau)
    sF = F(s)
    L1 = g0 * tauF - g1
    L2 = g1 * tauF - g2
    L3 = g2 * tauF - g0
    L4 = g0 * tauF + g1
    L5 = g1 * tauF + g2
    L6 = g2 * tauF + g0
    Q3 = (g0 ** 2 + g1 ** 2 + g2 ** 2 - g3v ** 2) * g3v * sF
    cubic_surface = L1 * L2 * L4 * lam ** 2 + Q3 * lam + L3 * L5 * L6

    def restrict(poly, image3):
        return substitute(poly, [g0, g1, g2, image3])

    factor_sign = None
    rest1 = restrict(cubic_surface, g0 + g1 + g2)
    for sign in (1, -1):
        fa = L4 * lam + L3 * (sF * (2 * tauF - 3) * sign)
        fb = L1 * L2 * lam + L5 * L6 * (sF * sign)
        if rest1 == fa * fb:
            factor_sign = sign
            break
    if factor_sign is None:
        raise IdentityFailed("restriction (2) does not factor")
    report["factorization_plus"] = {"sign": factor_sign}

    rest2 = restrict(cubic_surface, g0 - g1 - g2)
    factor_sign2 = None
    for sign in (1, -1):
        fa2 = L1 * lam + L6 * (sF * (2 * tauF - 3) * sign)
        fb2 = L2 * L4 * lam + L3 * L5 * (sF * sign)
        if rest2 == fa2 * fb2:
            factor_sign2 = sign
            break
    if factor_sign2 is None:
        raise IdentityFailed("restriction (3) does not factor")
    report["factorization_minus"] = {"sign": factor_sign2}

    # the two lines: x3 - (x0+x1+x2) = first factor of (2) = 0, and
    #                x3 - (x0-x1-x2) = first factor of (3) = 0
    line_forms = []
    fa = L4 * lam + L3 * (sF * (2 * tauF - 3) * factor_sign)
    fa2 = L1 * lam + L6 * (sF * (2 * tauF - 3) * factor_sign2)
    plane1 = g3v - g0 - g1 - g2
    plane2 = g3v - g0 + g1 + g2
    for form in (plane1, fa, plane2, fa2):
        line_forms.append([form.coefficient(tuple(1 if k == i else 0 for k in range(4)))
                           for i in range(4)])
    for idx, (pf, lf) in enumerate((((plane1, fa)), (plane2, fa2)), start=1):
        rows = [
            [pf.coefficient(tuple(1 if k == i else 0 for k in range(4))) for i in range(4)],
            [lf.coefficient(tuple(1 if k == i else 0 for k in range(4))) for i in range(4)],
        ]
        basis = kernel_basis(rows)
        if len(basis) != 2:
            raise IdentityFailed(f"line {idx} is not a line")
        restricted = restrict_to_line(cubic_surface, basis[0], basis[1])
        if not restricted.is_zero():
            raise IdentityFailed(f"line {idx} does not lie on the cubic surface")
    report["lines_on_surface"] = True

    r = rank(line_forms)
    if r != 4:
        raise IdentityFailed(f"line-form matrix has rank {r}, lines meet")
    report["lines_disjoint_rank"] = r
    return report
