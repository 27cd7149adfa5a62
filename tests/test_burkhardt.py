import json
import random
from itertools import combinations

import pytest

from a5fano import burkhardt as bk
from a5fano.groups import Perm
from a5fano.lattice import rank
from a5fano.multipoly import evaluate, gradient


def test_singular_orbits(bk_model):
    assert len(bk_model.orbit30) == 30
    assert len(bk_model.orbit15) == 15
    assert len(bk_model.singular_points) == 45


def test_every_singular_point_is_a_node(bk_model):
    report = bk.verify_nodes(bk_model)
    assert report["nodes"] == 45
    assert report["failures"] == []
    assert report["orbit_lengths"] == [30, 15]


def test_nodes_certified_from_any_representative(bk_model):
    # every stored node has first nonzero coordinate 1; times omega it must
    # still be certified, which needs the scaling into the chart
    om = bk_model.omega
    for pt in bk_model.singular_points:
        assert bk.certify_node(bk_model, tuple(c * om for c in pt)) is None


def test_smooth_point_negative_control(bk_model):
    # a point of the quartic that is not one of the 45 singular points
    field, om = bk_model.field, bk_model.omega
    pt = tuple(field(c) for c in (1, om, om * om, 1, 1, -2))
    assert evaluate(bk_model.sigma1, pt).is_zero()
    assert evaluate(bk_model.sigma4, pt).is_zero()
    from a5fano.groups import canonical_point

    assert canonical_point(pt) not in set(bk_model.singular_points)
    p4 = pt[:5]
    grads = [evaluate(pd, p4) for pd in gradient(bk_model.quartic_p4)]
    assert any(not g.is_zero() for g in grads)


def test_incidence_counts(bk_model):
    report = bk.plane_incidence(bk_model)
    assert set(report["per_plane"].values()) == {9}
    assert report["per_point_counts"] == [8]
    assert report["planes_on_quartic"] == 40
    # dual count: 40 planes * 9 points = 45 points * 8 planes
    assert 40 * 9 == 45 * 8


def test_random_plane_misses_configuration(bk_model):
    rng = random.Random(71)
    field = bk_model.field
    for _ in range(3):
        forms = []
        for _ in range(3):
            coeffs = [field(rng.randint(-9, 9)) for _ in range(6)]
            forms.append(coeffs)
        hits = 0
        for pt in bk_model.singular_points:
            if all(
                sum((c * x for c, x in zip(f, pt)), field.zero).is_zero()
                for f in forms
            ):
                hits += 1
        assert hits == 0


def test_delta_rule_examples():
    assert bk.delta_rule((0, 1, 2), (0, 1, 3)) == 1
    assert bk.delta_rule((0, 1, 2), (1, 2, 3)) == 1
    assert bk.delta_rule((0, 1, 2), (0, 2, 3)) == 0
    with pytest.raises(bk.NotCTwo):
        bk.delta_rule((0, 1, 2), (0, 1, 2))
    with pytest.raises(bk.NotCTwo):
        bk.delta_rule((0, 1, 2), (3, 4, 5))


def test_plane_pair_meet_examples(bk_model):
    plus_012 = bk.JPlane((0, 1, 2), "+")
    plus_345 = bk.JPlane((3, 4, 5), "+")
    plus_034 = bk.JPlane((0, 3, 4), "+")
    minus_012 = bk.JPlane((0, 1, 2), "-")
    assert bk.plane_pair_meet(bk_model, plus_012, plus_345) == "line"
    assert bk.plane_pair_meet(bk_model, plus_012, plus_034) == "point"
    assert bk.plane_pair_meet(bk_model, plus_012, minus_012) == "line"
    with pytest.raises(bk.IdenticalPlanes):
        bk.plane_pair_meet(bk_model, plus_012, plus_012)


def test_gram_construction_and_blocks(bk_model, bk_gram):
    gram, block_without_5, block_with_5 = bk_gram
    assert gram.size == 40
    assert gram.rank() == 16
    assert block_without_5.rank() == 16
    # the block of planes through the fixed coordinate: rank 12, confirmed by
    # an independent elimination and by the spectral decomposition of the
    # triangular-graph structure of its off-diagonal part
    assert block_with_5.rank() == 12


def test_kernel_dimensions(bk_gram):
    from a5fano.lattice import kernel_basis

    gram, block_without_5, block_with_5 = bk_gram
    assert len(kernel_basis(gram.entries)) == 40 - 16
    assert len(kernel_basis(block_without_5.entries)) == 20 - 16
    assert len(kernel_basis(block_with_5.entries)) == 20 - 12


def test_gram_matches_sympy_oracle(bk_gram):
    """Rebuild the pairing from each plane's own linear forms with sympy.

    The plane over the cycle (i, j, k) is x_j = omega x_i, x_k = omega^2 x_i,
    sigma1 = 0; the sign of a label picks the cycle (a, b, c) or (a, c, b) of
    the sorted triple.  Two planes pair to 1 when they meet in a line (the
    six forms have rank 4) and to 0 when they meet in a point (rank 5).
    """
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.QQ.algebraic_field(sympy.sqrt(-3))
    omega = field.from_sympy((-1 + sympy.sqrt(-3)) / 2)
    forms = {}
    for a, b, c in combinations(range(6), 3):
        for sign, (i, j, k) in (("+", (a, b, c)), ("-", (a, c, b))):
            twist_j = [field.zero] * 6
            twist_j[i], twist_j[j] = -omega, field.one
            twist_k = [field.zero] * 6
            twist_k[i], twist_k[k] = -omega * omega, field.one
            forms[f"{sign}{a}{b}{c}"] = [twist_j, twist_k, [field.one] * 6]
    labels = sorted(forms)

    gram, block_without_5, block_with_5 = bk_gram
    assert sorted(gram.labels) == labels
    position = {label: i for i, label in enumerate(gram.labels)}
    pairing = {label: {label: -2} for label in labels}
    for p, q in combinations(labels, 2):
        meet = DomainMatrix(forms[p] + forms[q], (6, 6), field).rank()
        assert meet in (4, 5), (p, q, meet)
        pairing[p][q] = pairing[q][p] = 1 if meet == 4 else 0
        assert gram.entry(position[p], position[q]) == pairing[p][q], (p, q)

    def oracle_rank(subset):
        rows = [[sympy.QQ(pairing[p][q]) for q in subset] for p in subset]
        return DomainMatrix(rows, (len(subset), len(subset)), sympy.QQ).rank()

    assert oracle_rank(labels) == 16
    for letter in "012345":
        with_letter = [label for label in labels if letter in label]
        without_letter = [label for label in labels if letter not in label]
        assert (oracle_rank(with_letter), oracle_rank(without_letter)) == (12, 16)
    assert sorted(block_with_5.labels) == [label for label in labels if "5" in label]
    assert sorted(block_without_5.labels) == [label for label in labels if "5" not in label]


def test_planes_form_single_s6_orbit(bk_model, bk_gram):
    gram = bk_gram[0]
    from a5fano.groups import symmetric_group_s6, index_orbits

    perms = [bk.plane_permutation(gram, g) for g in symmetric_group_s6()]
    orbits = index_orbits(perms)
    assert [len(o) for o in orbits] == [40]


def test_standard_a5_splits_planes_by_fifth_coordinate(bk_model, bk_gram):
    gram = bk_gram[0]
    from a5fano.groups import index_orbits, subgroup_standard_A5

    perms = [bk.plane_permutation(gram, g) for g in subgroup_standard_A5()]
    orbits = index_orbits(perms)
    assert sorted(len(o) for o in orbits) == [20, 20]
    for orbit in orbits:
        labels = [gram.labels[i] for i in orbit]
        contains5 = {("5" in label) for label in labels}
        assert len(contains5) == 1


def closed_form_plane_basis(model, plane):
    """Three spanning points of the plane over the cycle (a, b, c), written
    down by hand: (1, omega, omega^2) on a, b, c, and two differences of unit
    vectors on the other three coordinates."""
    field, om = model.field, model.omega
    a, b, c = plane.cycle()
    k1, k2, k3 = [i for i in range(6) if i not in (a, b, c)]
    zero, one = field.zero, field.one
    b1 = [zero] * 6
    b1[a], b1[b], b1[c] = one, om, om * om
    b2 = [zero] * 6
    b2[k1], b2[k3] = one, -one
    b3 = [zero] * 6
    b3[k2], b3[k3] = one, -one
    return (tuple(b1), tuple(b2), tuple(b3))


def dot(row, point, field):
    return sum((c * x for c, x in zip(row, point)), field.zero)


def test_plane_rows_cut_out_the_closed_form_planes(bk_model):
    # three independent points in the kernel of three independent rows: the
    # rows cut out exactly the span of the points
    field = bk_model.field
    for plane in bk_model.planes:
        rows = bk.plane_rows(bk_model, plane)
        points = closed_form_plane_basis(bk_model, plane)
        assert rank(rows) == 3 and rank(points) == 3, plane
        for row in rows:
            for point in points:
                assert dot(row, point, field).is_zero(), plane


def test_plane_action_matches_geometry(bk_model):
    # g must move each plane onto the plane that perm_on_plane names as its
    # image: the moved rows and the image's rows span one 3-dimensional space,
    # and the moved spanning points satisfy the image's rows
    field = bk_model.field
    gens = [
        Perm.from_cycles(6, [(0, 1)]),
        Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)]),
        Perm.from_cycles(6, [(0, 3), (1, 4)]),
    ]
    for g in gens:
        for plane in bk_model.planes:
            image_rows = bk.plane_rows(bk_model, bk.perm_on_plane(g, plane))
            moved_rows = [g.act_point(row) for row in bk.plane_rows(bk_model, plane)]
            assert rank(moved_rows + image_rows) == 3, (g, plane)
            for vec in closed_form_plane_basis(bk_model, plane):
                moved = g.act_point(vec)
                assert all(dot(row, moved, field).is_zero() for row in image_rows), (g, plane)


def test_plane_permutation_is_functorial(bk_gram):
    import random

    gram = bk_gram[0]
    rng = random.Random(97)
    for _ in range(15):
        images_a = list(range(6))
        images_b = list(range(6))
        rng.shuffle(images_a)
        rng.shuffle(images_b)
        g, h = Perm(images_a), Perm(images_b)
        pg = bk.plane_permutation(gram, g)
        ph = bk.plane_permutation(gram, h)
        pgh = bk.plane_permutation(gram, g * h)
        composed = tuple(pg[ph[i]] for i in range(40))
        assert pgh == composed


def test_invariant_ranks(bk_ranks):
    assert bk_ranks["S6"]["invariant_rank"] == 1
    assert bk_ranks["A6"]["invariant_rank"] == 1
    assert bk_ranks["A5_standard"]["invariant_rank"] == 1
    assert bk_ranks["A5_nonstandard"]["invariant_rank"] == 2
    for info in bk_ranks.values():
        assert info["orbit_sum_rank"] == info["trace_dimension"]


def test_plane_actions_weight_one_representative_per_cycle_type(bk_gram):
    from a5fano.groups import S6_GENERATORS

    gram = bk_gram[0]
    s6_gens, actions = bk.plane_actions(gram)
    weights = {name: [w for _, w in weighted] for name, (weighted, _) in actions.items()}
    assert weights["S6"] == [1, 15, 45, 15, 40, 120, 40, 90, 90, 144, 120]
    assert {name: sum(w) for name, w in weights.items()} == {
        "S6": 720, "A6": 360, "A5_standard": 60, "A5_nonstandard": 60}
    assert len(weights["A6"]) == 6
    # 11 plane permutations in all, shared by the subgroups
    representatives = {images for images, _ in actions["S6"][0]}
    assert len(representatives) == 11
    for weighted, _ in actions.values():
        assert {images for images, _ in weighted} <= representatives
    assert s6_gens == [bk.plane_permutation(gram, g) for g in S6_GENERATORS]


def test_trivial_multiplicities_above_canonical_class(bk_ranks):
    # rank minus the canonical summand: 0 for the full symmetric group and the
    # coordinate-fixing icosahedral subgroup, 1 for the transitive one
    assert bk_ranks["S6"]["invariant_rank"] - 1 == 0
    assert bk_ranks["A5_standard"]["invariant_rank"] - 1 == 0
    assert bk_ranks["A5_nonstandard"]["invariant_rank"] - 1 == 1


def test_plane_count_and_labels(bk_model):
    assert len(bk_model.planes) == 40
    labels = {p.label() for p in bk_model.planes}
    assert len(labels) == 40
    assert "+012" in labels and "-012" in labels and "+345" in labels


def test_full_report_values_and_serializability(burkhardt_report):
    parsed = json.loads(json.dumps(burkhardt_report))
    actual = {chk["name"]: chk["actual"] for chk in parsed["checks"]}
    assert actual["burkhardt/orbits"] == "orbits 30+15, 45 distinct points"
    assert actual["burkhardt/nodes"] == "45/45 nodes"
    assert actual["burkhardt/incidence"].startswith("per-plane [9], ")
    assert actual["burkhardt/gram-rank"] == "full 16, block-without-5 16, block-with-5 12"
    assert "A5_nonstandard 2(2=2)" in actual["burkhardt/invariant-ranks"]
    assert actual["burkhardt/meet-rule"] == "780/780 pairs match the meet rule"
