from fractions import Fraction

import pytest

from a5fano.exactfield import golden_field, omega_field
from a5fano.groups import (
    ConstructionFailed,
    MatElem,
    OrderBoundExceeded,
    Perm,
    UnboundLetter,
    act_on_poly,
    alternating_group_a6,
    canonical_point,
    cycle_type_counts,
    eval_word,
    generate_group,
    identity_matrix,
    index_orbits,
    orbit_of,
    parse_word,
    subgroup_nonstandard_A5,
    subgroup_standard_A5,
    symmetric_group_s6,
)
from a5fano.multipoly import PolyRing


@pytest.fixture(scope="module")
def rotations():
    field, phi = golden_field()
    half = Fraction(1, 2)
    n = MatElem(field, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    r = MatElem(field, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    m = MatElem(field, [
        [phi * half, (phi - 1) * half, field(half)],
        [(phi - 1) * half, field(half), -phi * half],
        [field(-half), phi * half, (phi - 1) * half],
    ])
    return field, phi, {"N": n, "R": r, "M": m}


def proj_eq(a, b):
    """Whether two matrices are equal up to a nonzero scalar."""
    return a.projective_key() == b.projective_key()


def test_symmetric_group_order():
    gens = [Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])]
    assert len(generate_group(gens, order_bound=720)) == 720


def test_order_bound_enforced():
    gens = [Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])]
    with pytest.raises(OrderBoundExceeded):
        generate_group(gens, order_bound=100)


def test_cyclic_matrix_group(rotations):
    _, _, gens = rotations
    assert len(generate_group([gens["R"]], order_bound=3)) == 3


def test_icosahedral_closure_has_sixty_classes(rotations):
    _, _, gens = rotations
    group = generate_group(list(gens.values()), order_bound=60)
    assert len(group) == 60


def test_generator_orders(rotations):
    field, _, gens = rotations
    ident = identity_matrix(field, 3)
    n, r, m = gens["N"], gens["R"], gens["M"]
    assert proj_eq(n * n, ident)
    assert proj_eq(r * r * r, ident)
    m5 = m * m * m * m * m
    assert proj_eq(m5, ident)
    assert not proj_eq(m * m, ident)


def test_eval_word_matrices(rotations):
    field, phi, gens = rotations
    half = Fraction(1, 2)
    m3 = eval_word("M^3", gens)
    expected = MatElem(field, [
        [field(half), phi * half, (1 - phi) * half],
        [phi * half, (1 - phi) * half, field(half)],
        [(phi - 1) * half, field(-half), -phi * half],
    ])
    assert m3 == expected
    rn = eval_word("R N", gens)
    assert rn == MatElem(field, [[0, 0, 1], [-1, 0, 0], [0, -1, 0]])
    ident = identity_matrix(field, 3)
    assert eval_word("Id", gens, identity=ident) == ident
    assert eval_word("M^-1", gens) == gens["M"].inverse()
    with pytest.raises(UnboundLetter):
        eval_word("Q", gens)


def test_parse_word():
    assert parse_word("R^2 M^3") == (("R", 2), ("M", 3))
    assert parse_word("Id") == ()
    assert parse_word("M N") == (("M", 1), ("N", 1))


def test_singular_orbit_lengths_on_the_quartic():
    field, om = omega_field()
    gens = [Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])]
    act = lambda g, p: g.act_point(p)
    pt30 = tuple(field(c) for c in (1, 1, om, om, om * om, om * om))
    orb30 = orbit_of(pt30, gens, act=act, canonicalize=canonical_point, group_order=720)
    assert len(orb30) == 30 and orb30.stabilizer_order == 24
    pt15 = tuple(field(c) for c in (1, -1, 0, 0, 0, 0))
    orb15 = orbit_of(pt15, gens, act=act, canonicalize=canonical_point, group_order=720)
    assert len(orb15) == 15 and orb15.stabilizer_order == 48


def test_axis_orbit_of_rotation_group(rotations):
    field, _, gens = rotations
    group = generate_group(list(gens.values()), order_bound=60)
    pt = (field.one, field.zero, field.zero)
    orb = orbit_of(pt, group, act=lambda g, p: g.apply(p),
                   canonicalize=canonical_point, group_order=60)
    assert len(orb) == 15 and orb.stabilizer_order == 4


def test_standard_icosahedral_subgroup():
    group = subgroup_standard_A5()
    assert len(group) == 60
    assert all(g.is_even() for g in group)
    assert all(g(5) == 5 for g in group)


def test_nonstandard_icosahedral_subgroup():
    group = subgroup_nonstandard_A5()
    assert len(group) == 60
    assert all(g.is_even() for g in group)
    # transitive: the orbit of any letter is everything
    orbit = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for g in group:
            j = g(i)
            if j not in orbit:
                orbit.add(j)
                frontier.append(j)
    assert orbit == set(range(6))


def test_alternating_group():
    group = alternating_group_a6()
    assert len(group) == 360
    assert all(g.is_even() for g in group)
    # the closure of the generating pair is all of the even permutations
    assert set(group) == {g for g in symmetric_group_s6() if g.is_even()}


def test_cycle_type_counts():
    s6 = cycle_type_counts(symmetric_group_s6())
    assert list(s6.values()) == [1, 15, 45, 15, 40, 120, 40, 90, 90, 144, 120]
    assert list(s6)[:3] == [(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 1, 1)]
    assert all(sum(t) == 6 for t in s6)
    for group, order in ((symmetric_group_s6(), 720), (alternating_group_a6(), 360),
                         (subgroup_standard_A5(), 60), (subgroup_nonstandard_A5(), 60)):
        assert sum(cycle_type_counts(group).values()) == len(group) == order
    even = [t for t in s6 if sum(length - 1 for length in t) % 2 == 0]
    assert len(even) == 6
    assert cycle_type_counts(alternating_group_a6()) == {t: s6[t] for t in even}
    assert Perm.from_cycles(6, [(0, 5), (1, 4)]).cycle_type() == (2, 2, 1, 1)


def test_act_on_poly_with_permutation_fixes_symmetric_function():
    field, om = omega_field()
    ring = PolyRing(field, tuple(f"x{i}" for i in range(6)))
    gens6 = ring.gens()
    sigma1 = sum(gens6[1:], gens6[0])
    for g in (Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(2, 4, 5)])):
        assert act_on_poly(g, sigma1) == sigma1


def test_act_on_poly_is_an_action(rotations):
    field, phi, gens = rotations
    ring = PolyRing(field, ("x0", "x1", "x2"))
    x0, x1, x2 = ring.gens()
    p = x0 ** 2 * x1 + x2 ** 3 * phi - x0 * x1 * x2
    for g in gens.values():
        for h in gens.values():
            assert act_on_poly(g, act_on_poly(h, p)) == act_on_poly(g * h, p)


def test_act_on_poly_permutation_is_an_action():
    field, _ = omega_field()
    ring = PolyRing(field, tuple(f"x{i}" for i in range(4)))
    x = ring.gens()
    p = x[0] ** 2 * x[1] + x[3] * x[2] ** 2
    g = Perm.from_cycles(4, [(0, 1, 2)])
    h = Perm.from_cycles(4, [(1, 3)])
    assert act_on_poly(g, act_on_poly(h, p)) == act_on_poly(g * h, p)


def test_matrix_action_matches_point_action(rotations):
    # evaluating the moved polynomial at the moved point gives the original value
    field, phi, gens = rotations
    from a5fano.multipoly import evaluate

    ring = PolyRing(field, ("x0", "x1", "x2"))
    x0, x1, x2 = ring.gens()
    p = x0 ** 3 - x1 * x2 * phi + x2 ** 3
    pt = (field(1), field(2), phi)
    for g in gens.values():
        assert evaluate(act_on_poly(g, p), g.apply(pt)) == evaluate(p, pt)


def test_canonical_point():
    field, phi = golden_field()
    pt = (field.zero, 2 * phi, field(4))
    cp = canonical_point(pt)
    assert cp[1] == field.one
    assert canonical_point(cp) == cp
    with pytest.raises(ValueError):
        canonical_point((field.zero, field.zero))


def test_index_orbits():
    perms = [(1, 0, 2, 3), (0, 1, 3, 2)]
    assert index_orbits(perms) == [[0, 1], [2, 3]]


def test_orbit_length_must_divide_group_order():
    gens = [Perm.from_cycles(3, [(0, 1, 2)])]
    with pytest.raises(ConstructionFailed):
        orbit_of(0, gens, act=lambda g, i: g(i), canonicalize=lambda i: i,
                 group_order=4)


def test_matrix_inverse_and_singularity(rotations):
    field, phi, gens = rotations
    m = gens["M"]
    assert m * m.inverse() == identity_matrix(field, 3)
    with pytest.raises(ValueError):
        MatElem(field, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


def test_construction_failure_detected():
    with pytest.raises(ConstructionFailed):
        from a5fano.groups import _validated_a5

        _validated_a5([Perm.from_cycles(6, [(0, 1, 2)])], transitive=False)
