"""The 45-node quartic threefold cut out by the first and fourth elementary
symmetric polynomials in P^5, its 40 distinguished planes, and the lattice
they span.

Everything is verified over Q(omega): the two singular orbits, the node
certificates, the nine-points-per-plane incidence, the combinatorial
meet-type rule for plane pairs (cross-checked against linear algebra for all
780 pairs), the Gram ranks of the full plane lattice and its two 20-plane
blocks, and the invariant ranks under the full coordinate-permutation group
and its alternating and icosahedral subgroups.  A plane is held as the three
coefficient rows of its linear forms (`plane_rows`); its incidences and
meets are linear algebra on those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exactfield import omega_field
from .groups import (
    A6_GENERATORS,
    NONSTANDARD_A5_GENERATORS,
    S6_GENERATORS,
    STANDARD_A5_GENERATORS,
    alternating_group_a6,
    canonical_point,
    cycle_type_counts,
    index_orbits,
    orbit_of,
    subgroup_nonstandard_A5,
    subgroup_standard_A5,
    symmetric_group_s6,
)
from .lattice import (
    GramMatrix,
    invariant_dimension_via_trace,
    kernel_basis,
    orbit_sum_gram,
    rank,
)
from .multipoly import PolyRing, evaluate, node_failure, substitute


class IdenticalPlanes(ValueError):
    pass


class NotCTwo(ValueError):
    pass


class RuleMismatch(RuntimeError):
    """Geometric meet-type disagrees with the combinatorial prediction."""


@dataclass(frozen=True)
class JPlane:
    """A plane on the quartic, indexed by a sorted triple and a sign.

    The plane identifies the three coordinates of the triple up to the two
    possible cube-root twists; which twist is which is encoded by the sign.
    """

    triple: tuple
    sign: str

    def cycle(self):
        i1, i2, i3 = self.triple
        return (i1, i2, i3) if self.sign == "+" else (i1, i3, i2)

    def contains_index(self, i):
        return i in self.triple

    def label(self):
        return self.sign + "".join(str(i) for i in self.triple)


def _canonical_cycle(cycle):
    m = min(cycle)
    k = cycle.index(m)
    a, b, c = cycle[k:] + cycle[:k]
    sign = "+" if b < c else "-"
    return JPlane((a,) + tuple(sorted((b, c))), sign)


def perm_on_plane(g, plane):
    """The image plane under a coordinate permutation."""
    a, b, c = plane.cycle()
    return _canonical_cycle((g(a), g(b), g(c)))


def all_planes():
    planes = []
    for triple in combinations(range(6), 3):
        for sign in ("+", "-"):
            planes.append(JPlane(triple, sign))
    return planes


@dataclass(frozen=True)
class BurkhardtModel:
    field: object
    omega: object
    ring6: PolyRing
    ring5: PolyRing
    sigma1: object
    sigma4: object
    quartic_p4: object
    orbit30: tuple
    orbit15: tuple
    singular_points: tuple
    planes: tuple


def elementary_symmetric(ring, k):
    gens = ring.gens()
    acc = ring.zero
    for combo in combinations(gens, k):
        term = ring.one
        for g in combo:
            term = term * g
        acc = acc + term
    return acc


def plane_rows(model, plane):
    """The coefficient rows of the three linear forms cutting out the plane
    inside P^5: x_b - omega x_a, x_c - omega^2 x_a and sigma1, for the
    plane's cycle (a, b, c)."""
    field, om = model.field, model.omega
    a, b, c = plane.cycle()
    twist_b = [field.zero] * 6
    twist_b[a], twist_b[b] = -om, field.one
    twist_c = [field.zero] * 6
    twist_c[a], twist_c[c] = -(om * om), field.one
    return [twist_b, twist_c, [field.one] * 6]


def build_model():
    field, om = omega_field()
    ring6 = PolyRing(field, tuple(f"x{i}" for i in range(6)))
    ring5 = PolyRing(field, tuple(f"x{i}" for i in range(5)))
    sigma1 = elementary_symmetric(ring6, 1)
    sigma4 = elementary_symmetric(ring6, 4)
    g5 = ring5.gens()
    minus_sum = -(g5[0] + g5[1] + g5[2] + g5[3] + g5[4])
    quartic_p4 = substitute(sigma4, list(g5) + [minus_sum])

    def perm_act(g, pt):
        return g.act_point(pt)

    pt30 = tuple(field(c) for c in (1, 1, om, om, om * om, om * om))
    pt15 = tuple(field(c) for c in (1, -1, 0, 0, 0, 0))
    orbit30 = orbit_of(pt30, S6_GENERATORS, act=perm_act, canonicalize=canonical_point,
                       group_order=720)
    orbit15 = orbit_of(pt15, S6_GENERATORS, act=perm_act, canonicalize=canonical_point,
                       group_order=720)
    points = tuple(sorted(orbit30.members | orbit15.members,
                          key=lambda p: tuple(str(c) for c in p)))
    return BurkhardtModel(
        field=field,
        omega=om,
        ring6=ring6,
        ring5=ring5,
        sigma1=sigma1,
        sigma4=sigma4,
        quartic_p4=quartic_p4,
        orbit30=tuple(orbit30.members),
        orbit15=tuple(orbit15.members),
        singular_points=points,
        planes=tuple(all_planes()),
    )


def certify_node(model, point):
    """Why a projective point of the quartic is not a node (in the P^4
    model), or None if it is one."""
    p4 = point[:5]
    if all(c.is_zero() for c in p4):
        return "point lies outside the P^4 chart cover"
    if not evaluate(model.sigma1, point).is_zero():
        return "point misses the hyperplane"
    if not evaluate(model.sigma4, point).is_zero():
        return "point misses the quartic"
    return node_failure(model.quartic_p4, p4)


def verify_nodes(model):
    failures = []
    for pt in model.singular_points:
        reason = certify_node(model, pt)
        if reason:
            failures.append((tuple(str(c) for c in pt), reason))
    return {
        "points": len(model.singular_points),
        "orbit_lengths": sorted((len(model.orbit30), len(model.orbit15)), reverse=True),
        "nodes": len(model.singular_points) - len(failures),
        "failures": failures,
    }


def point_on_plane(model, plane, point):
    zero = model.field.zero
    return all(sum((c * x for c, x in zip(row, point)), zero).is_zero()
               for row in plane_rows(model, plane))


def plane_lies_on_quartic(model, plane):
    """Whether sigma4 vanishes on the span of the plane's three kernel
    vectors."""
    b0, b1, b2 = kernel_basis(plane_rows(model, plane))
    t, u, v = PolyRing(model.field, ("t", "u", "v")).gens()
    images = [t * b0[i] + u * b1[i] + v * b2[i] for i in range(6)]
    return substitute(model.sigma4, images).is_zero()


def plane_incidence(model):
    per_plane = {}
    per_point = {i: 0 for i in range(len(model.singular_points))}
    for plane in model.planes:
        count = 0
        for idx, pt in enumerate(model.singular_points):
            if point_on_plane(model, plane, pt):
                count += 1
                per_point[idx] += 1
        per_plane[plane.label()] = count
    on_quartic = sum(1 for plane in model.planes if plane_lies_on_quartic(model, plane))
    return {
        "per_plane": per_plane,
        "per_point_counts": sorted(set(per_point.values())),
        "planes_on_quartic": on_quartic,
    }


def plane_pair_meet(model, a, b):
    """'line' or 'point' according to the projective dimension of the meet."""
    if a == b:
        raise IdenticalPlanes(a.label())
    r = rank(plane_rows(model, a) + plane_rows(model, b))
    if r == 4:
        return "line"
    if r == 5:
        return "point"
    raise RuleMismatch(f"unexpected meet rank {r} for {a.label()} vs {b.label()}")


def delta_rule(triple_a, triple_b):
    """The position-matching invariant for triples sharing two indices."""
    shared = set(triple_a) & set(triple_b)
    if len(shared) != 2:
        raise NotCTwo(f"{triple_a} and {triple_b} share {len(shared)} indices")
    for a in range(3):
        for b in range(a + 1, 3):
            for ap in range(3):
                for bp in range(ap + 1, 3):
                    if (
                        triple_a[a] == triple_b[ap]
                        and triple_a[b] == triple_b[bp]
                        and b - a == bp - ap
                    ):
                        return 1
    return 0


def predicted_pairing(a, b):
    """The combinatorial intersection value of two distinct planes."""
    shared = len(set(a.triple) & set(b.triple))
    if a.triple == b.triple:
        return 1  # opposite twists over one triple always meet along a line
    if shared == 2:
        delta = delta_rule(a.triple, b.triple)
        return delta if a.sign == b.sign else 1 - delta
    if shared == 1:
        return 0
    return 1


def plane_sort_key(plane):
    return (plane.contains_index(5), plane.triple, plane.sign)


def build_gram(model):
    """The 40x40 pairing matrix, with every entry cross-checked geometrically."""
    planes = sorted(model.planes, key=plane_sort_key)
    labels = [p.label() for p in planes]
    n = len(planes)
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = -2
        for j in range(i + 1, n):
            combinatorial = predicted_pairing(planes[i], planes[j])
            meet = plane_pair_meet(model, planes[i], planes[j])
            geometric = 1 if meet == "line" else 0
            if combinatorial != geometric:
                raise RuleMismatch(
                    f"{labels[i]} vs {labels[j]}: rule predicts {combinatorial}, "
                    f"geometry gives {geometric}"
                )
            entries[i][j] = geometric
            entries[j][i] = geometric
    gram = GramMatrix(labels, entries)
    block_without_5 = gram.submatrix(range(0, 20))
    block_with_5 = gram.submatrix(range(20, 40))
    assert all(not p.contains_index(5) for p in planes[:20])
    assert all(p.contains_index(5) for p in planes[20:])
    return gram, block_without_5, block_with_5


def _plane_index(gram):
    planes = {}
    for i, label in enumerate(gram.labels):
        sign = label[0]
        triple = tuple(int(ch) for ch in label[1:])
        planes[i] = JPlane(triple, sign)
    index = {(p.triple, p.sign): i for i, p in planes.items()}
    return planes, index


def plane_permutation(gram, g):
    """The permutation induced on the Gram labels by a coordinate permutation."""
    planes, index = _plane_index(gram)
    images = [0] * len(gram.labels)
    for i in range(len(gram.labels)):
        img = perm_on_plane(g, planes[i])
        images[i] = index[(img.triple, img.sign)]
    return tuple(images)


# each subgroup of S6 whose invariant rank is computed: its generators and
# the enumeration of its elements
SUBGROUPS = {
    "S6": (S6_GENERATORS, symmetric_group_s6),
    "A6": (A6_GENERATORS, alternating_group_a6),
    "A5_standard": (STANDARD_A5_GENERATORS, subgroup_standard_A5),
    "A5_nonstandard": (NONSTANDARD_A5_GENERATORS, subgroup_nonstandard_A5),
}


def plane_actions(gram):
    """The plane permutations that both invariant-rank methods need.

    Returns the images of S6's generators and, for each subgroup, a list of
    (plane permutation, weight) pairs, one per S6 cycle type that meets the
    subgroup, weighted by its number of elements of that type, together with
    the images of the subgroup's generators.  Cycle types are the conjugacy
    classes of S6, so one representative per type serves every subgroup.
    """
    elements = {name: enumerate_group() for name, (_, enumerate_group) in SUBGROUPS.items()}
    representative = {}
    for g in elements["S6"]:
        representative.setdefault(g.cycle_type(), g)
    needed = set(representative.values()).union(
        S6_GENERATORS, *(gens for gens, _ in SUBGROUPS.values())
    )
    images = {g: plane_permutation(gram, g) for g in needed}
    actions = {}
    for name, (gens, _) in SUBGROUPS.items():
        counts = cycle_type_counts(elements[name])
        weighted = [(images[representative[t]], count) for t, count in counts.items()]
        actions[name] = (weighted, [images[g] for g in gens])
    return [images[g] for g in S6_GENERATORS], actions


def invariant_ranks(model, gram):
    """Both invariant-dimension computations for each subgroup; they must agree.

    The trace method checks the form on S6's generators, not only on the
    subgroup's, since its cycle-type weighting needs K to be stable under all
    of S6.  The orbit-sum method takes its orbits from the subgroup's
    generators.
    """
    s6_gens, actions = plane_actions(gram)
    out = {}
    for name, (weighted, gens) in actions.items():
        orbits = index_orbits(gens)
        rank_method = rank(orbit_sum_gram(gram, orbits))
        trace_method = invariant_dimension_via_trace(gram, weighted, s6_gens)
        if rank_method != trace_method:
            raise RuleMismatch(
                f"{name}: orbit-sum rank {rank_method} != trace average {trace_method}"
            )
        out[name] = {
            "orbit_lengths": sorted(len(o) for o in orbits),
            "orbit_sum_rank": rank_method,
            "trace_dimension": trace_method,
            "invariant_rank": trace_method,
        }
    return out
