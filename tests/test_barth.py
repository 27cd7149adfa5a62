import json
from itertools import combinations

import pytest

from a5fano import barth as bt
from a5fano import cli
from a5fano.groups import canonical_point, eval_word
from a5fano.lattice import kernel_basis
from a5fano.multipoly import MPoly, evaluate, gradient, node_failure, restrict_to_line


def test_orbit_sizes_and_disjointness(bt_model):
    assert len(bt_model.sigma15) == 15
    assert len(bt_model.sigma20) == 20
    assert len(bt_model.sigma30) == 30
    union = set(bt_model.sigma15) | set(bt_model.sigma20) | set(bt_model.sigma30)
    assert len(union) == 65


def test_rotation_group_order(bt_model):
    assert len(bt_model.group3) == 60


def test_sextic_invariance_scalars(bt_model):
    scalars = bt.verify_invariance(bt_model)
    assert set(scalars) == {"N", "R", "M"}
    for value in scalars.values():
        assert value == bt_model.field.one


def test_all_sixty_five_points_are_nodes(bt_model):
    report = bt.verify_nodes_barth(bt_model)
    assert report["orbit_lengths"] == [15, 20, 30]
    assert report["nodes"] == 65
    assert report["failures"] == []


def test_nodes_certified_from_any_representative(bt_model):
    # every stored node has first nonzero coordinate 1; times phi it must
    # still be certified.  Unlike the Burkhardt nodes times omega, these would
    # pass without the scaling into the chart too: the dehomogenised Hessian
    # stays nonsingular at the unscaled points
    phi = bt_model.phi
    union = set(bt_model.sigma15) | set(bt_model.sigma20) | set(bt_model.sigma30)
    for pt in union:
        assert node_failure(bt_model.sextic, [c * phi for c in pt]) is None


def test_smooth_point_negative_control(bt_model):
    # a sextic point that is none of the 65 singular ones
    field = bt_model.field
    pt = (field.one, bt_model.phi, field.zero, field.zero)
    assert evaluate(bt_model.sextic, pt).is_zero()
    union = set(bt_model.sigma15) | set(bt_model.sigma20) | set(bt_model.sigma30)
    assert canonical_point(pt) not in union
    grads = [evaluate(pd, pt) for pd in gradient(bt_model.sextic)]
    assert any(not g.is_zero() for g in grads)


def test_xi_restrictions_are_doubled_smooth_cubics(bt_model):
    report = bt.verify_xi_restrictions(bt_model)
    assert len(report) == 20
    assert all(entry["smooth"] for entry in report.values())


def test_pinned_restriction_identities_verbatim(bt_model):
    # rebuilt here independently of the module helper, from the pinned forms
    x0, x1, x2 = bt_model.ring3.gens()
    phi = bt_model.phi
    const = bt_model.field(-4) * (5 * phi + 3)
    cubic_plus = (
        (x0 * x1 ** 2 + x1 * x2 ** 2 + x2 * x0 ** 2) * (phi - 2)
        + x0 * x1 * x2 * (phi - 3)
        - (x0 ** 2 * x1 + x1 ** 2 * x2 + x2 ** 2 * x0)
    )
    v = bt_model.xi_vectors[bt_model.xi_labels.index("(1,1,1)")]
    assert bt.restrict_to_xi(bt_model, v) == cubic_plus * cubic_plus * const
    cubic_minus = (
        (x0 * x1 ** 2 - x1 * x2 ** 2 - x2 * x0 ** 2) * (2 - phi)
        + x0 * x1 * x2 * (3 - phi)
        - (x0 ** 2 * x1 + x1 ** 2 * x2 - x2 ** 2 * x0)
    )
    v2 = bt_model.xi_vectors[bt_model.xi_labels.index("(1,-1,-1)")]
    assert bt.restrict_to_xi(bt_model, v2) == cubic_minus * cubic_minus * const


def test_theta_restrictions(bt_model):
    report = bt.verify_theta_restrictions(bt_model)
    assert all(entry["conic_type"] == "irreducible"
               for label, entry in report.items() if label in bt_model.theta_labels)
    assert report["(-1,0,phi)"]["pinned_match"] is True
    assert report["(-1,0,phi)"]["constant"] == "-1 - 2*phi"


def test_surface_families(bt_model, bt_surfaces):
    plus, minus = bt_surfaces
    assert len(plus) == len(minus) == 20
    assert {s.v for s in plus} == set(bt_model.xi_vectors)
    for p, m in zip(plus, minus):
        assert p.v == m.v and p.cubic == -m.cubic and p.sign != m.sign


def test_table1_words(bt_model, bt_surfaces):
    plus, _ = bt_surfaces
    report = bt.verify_table1(bt_model, plus)
    assert len(report) == 20
    assert report["(1,1,1)"] == "Id"
    assert report["(1,1,-1)"] == "M^3"
    assert report["(1,-1,-1)"] == "R N"


def test_worked_transports_match_pinned_equations(bt_model, bt_surfaces):
    plus, _ = bt_surfaces
    seed = plus[bt_model.xi_labels.index("(1,1,1)")]
    x0, x1, x2 = bt_model.ring3.gens()
    phi = bt_model.phi
    field = bt_model.field
    m3 = eval_word("M^3", bt_model.gens3)
    moved = bt.transport_surface(seed, m3)
    assert moved.v == tuple(field(c) for c in (1, 1, -1))
    assert moved.cubic == (
        (x0 * x1 ** 2 + x1 * x2 ** 2 - x2 * x0 ** 2) * (phi - 2)
        - x0 * x1 * x2 * (phi - 3)
        - (x0 ** 2 * x1 - x1 ** 2 * x2 + x2 ** 2 * x0)
    )
    rn = eval_word("R N", bt_model.gens3)
    moved_rn = bt.transport_surface(seed, rn)
    assert moved_rn.v == tuple(field(c) for c in (1, -1, -1))
    assert moved_rn.cubic == (
        (x0 * x1 ** 2 - x1 * x2 ** 2 - x2 * x0 ** 2) * (phi - 2)
        + x0 * x1 * x2 * (phi - 3)
        + (x0 ** 2 * x1 + x1 ** 2 * x2 - x2 ** 2 * x0)
    )


def test_pairing_examples(bt_model, bt_surfaces):
    plus, _ = bt_surfaces
    idx = {label: i for i, label in enumerate(bt_model.xi_labels)}
    a = plus[idx["(1,1,1)"]]
    assert bt.surface_pair_intersection(bt_model, a, plus[idx["(1,1,-1)"]]) == 1
    assert bt.surface_pair_intersection(bt_model, a, plus[idx["(1,-1,-1)"]]) == 0
    assert bt.surface_pair_intersection(bt_model, a, a) == -2


def p3_pairing(model, a, b):
    """The pairing of two distinct surfaces worked out in P^3: the line where
    their planes x3 = v.x meet, as the kernel of the two 4-wide plane rows,
    and the difference of the cubics, lifted to P^3, restricted to it."""
    one = model.field.one
    base, direction = kernel_basis([[-c for c in a.v] + [one], [-c for c in b.v] + [one]])
    diff = a.cubic - b.cubic
    lifted = MPoly(model.ring4, {exps + (0,): c for exps, c in diff.terms.items()})
    return 1 if restrict_to_line(lifted, base, direction).is_zero() else 0


def test_pairing_matches_the_p3_route(bt_model, bt_surfaces):
    plus, _ = bt_surfaces
    for a, b in combinations(plus, 2):
        assert bt.surface_pair_intersection(bt_model, a, b) == p3_pairing(bt_model, a, b)


def test_pairing_refuses_two_surfaces_over_one_plane(bt_model, bt_surfaces):
    plus, minus = bt_surfaces
    other = bt.SolidSurface(plus[0].v, plus[0].sign, minus[0].cubic)
    with pytest.raises(ValueError, match="one plane"):
        bt.surface_pair_intersection(bt_model, plus[0], other)
    with pytest.raises(ValueError, match="one sign family"):
        bt.surface_pair_intersection(bt_model, plus[0], minus[1])


def test_sextic_is_four_line_products_less_the_branch_square(bt_model):
    # the fact behind the surface-on-solid check, which compares the sextic's
    # plane restrictions with the squared cubics only
    x0, x1, x2, x3 = bt_model.ring4.gens()
    phi = bt_model.phi
    lines6 = (x0 * phi - x1, x1 * phi - x2, x2 * phi - x0,
              x0 * phi + x1, x1 * phi + x2, x2 * phi + x0)
    branch_cubed = x3 ** 2 * (x0 ** 2 + x1 ** 2 + x2 ** 2 - x3 ** 2) ** 2 * (1 + 2 * phi)
    product = bt_model.ring4.one
    for line in lines6:
        product = product * line
    assert product * 4 - branch_cubed == bt_model.sextic


def test_table2_fixture_rank_and_invariants(bt_table2):
    assert bt_table2["entries_matching"] == 400
    assert bt_table2["row_multiset_ok"] is True
    assert bt_table2["minus_equals_plus"] is True
    assert bt_table2["rank"] == 14
    assert bt_table2["orbit_sum_rank"] == 1
    assert bt_table2["trace_dimension"] == 1
    from a5fano.lattice import orbit_sum_gram

    assert len(kernel_basis(bt_table2["gram"].entries)) == 6
    # single-orbit compression: every row sums to -2 + 12 = 10, total 200
    osum = orbit_sum_gram(bt_table2["gram"], [list(range(20))])
    assert osum == [[200]]


def test_first_row_zero_pattern(bt_model, bt_table2):
    # the seven planes pairing to 0 against the one over (1,1,1)
    gram = bt_table2["gram"]
    zero_labels = {
        bt_model.xi_labels[j]
        for j in range(1, 20)
        if gram.entry(0, j) == 0
    }
    assert zero_labels == {
        "(1,-1,-1)", "(-1,1,-1)", "(-1,-1,1)", "(-1,-1,-1)",
        "(phi-1,-phi,0)", "(-phi,0,phi-1)", "(0,phi-1,-phi)",
    }


def test_pairing_is_group_equivariant(bt_model, bt_surfaces, bt_table2):
    # the permutation action of all 60 rotations preserves the pairing matrix:
    # surface_permutations feeds the trace computation, which raises when any
    # element fails; spot-check the generators directly on a few pairs too
    plus, _ = bt_surfaces
    perms = bt.surface_permutations(bt_model, plus)
    assert len(perms) == 60
    gram = bt_table2["gram"]
    for g, images in zip(bt_model.group3[:6], perms[:6]):
        for i in (0, 3, 7):
            for j in (1, 5, 11):
                assert gram.entry(i, j) == gram.entry(images[i], images[j])


def test_surface_permutations_match_all_rotations(bt_model, bt_surfaces):
    # oracle: move the plus family by each of the 60 rotations directly
    plus, _ = bt_surfaces
    index = {(s.v, s.cubic): i for i, s in enumerate(plus)}
    oracle = set()
    for g in bt_model.group3:
        moved = (bt.transport_surface(s, g) for s in plus)
        oracle.add(tuple(index[(m.v, m.cubic)] for m in moved))
    perms = bt.surface_permutations(bt_model, plus)
    assert len(perms) == 60 and len(oracle) == 60
    assert set(perms) == oracle
    assert tuple(range(20)) in oracle


def test_surface_permutations_need_the_whole_group(bt_model, bt_surfaces):
    # N and R alone generate A4, whose 12 permutations are not the action of A5
    from dataclasses import replace

    plus, _ = bt_surfaces
    gens = {k: bt_model.gens3[k] for k in ("N", "R")}
    with pytest.raises(bt.SurfaceNotOnSolid, match="12 permutations"):
        bt.surface_permutations(replace(bt_model, gens3=gens), plus)


def test_minus_family_matrix_equals_plus(bt_model, bt_surfaces, bt_table2):
    # oracle for the flip check that stands in for this rebuild
    _, minus = bt_surfaces
    gram_minus = bt.build_table2(bt_model, minus)
    assert gram_minus.entries == bt_table2["gram"].entries


def test_minus_family_must_be_plus_flipped(bt_model, bt_surfaces):
    plus, minus = bt_surfaces
    surface = bt.SolidSurface
    bad_families = {
        "plus": plus,
        "cubic not negated": tuple(surface(m.v, m.sign, p.cubic) for p, m in zip(plus, minus)),
        "sign not flipped": tuple(surface(m.v, p.sign, m.cubic) for p, m in zip(plus, minus)),
        "plane moved": (surface(minus[1].v, minus[0].sign, minus[0].cubic),) + minus[1:],
        "short": minus[:19],
    }
    for bad in bad_families.values():
        with pytest.raises(bt.Table2Mismatch, match="not the plus family flipped"):
            bt.verify_table2_and_ranks(bt_model, plus, bad)


def test_corrupted_fixture_detected(bt_model, bt_surfaces, tmp_path):
    import json
    import shutil
    from importlib import resources

    plus, minus = bt_surfaces
    src = resources.files("a5fano.fixtures")
    for name in ("xi_planes.json", "theta_planes.json", "table1_words.json", "table2.json"):
        shutil.copy(str(src.joinpath(name)), tmp_path / name)
    data = json.loads((tmp_path / "table2.json").read_text())
    data["rows"][0][1], data["rows"][1][0] = 0, 0
    (tmp_path / "table2.json").write_text(json.dumps(data))
    with pytest.raises(bt.Table2Mismatch):
        bt.verify_table2_and_ranks(bt_model, plus, minus, str(tmp_path))


def test_plane_classification_family_checks(bt_model):
    report = bt.verify_plane_classification(bt_model)
    assert report["line6_pencil"]["line_multiplicity"] == 1
    assert report["line10_pencil"]["odd_coefficients_vanish"] is True
    assert report["mu_one_control"]["square_root"] in ("x^3 + -1*x", "-1*x^3 + x")
    assert report["plane_sum_zero"]["constant"] == "-1 - 2*phi"


def test_line_counts_in_fixed_plane(bt_model):
    # each xi plane and its negative meet x3 = 0 in one line
    assert len({canonical_point(v) for v in bt_model.xi_vectors}) == 10
    assert len({canonical_point(u) for u in bt_model.theta_vectors}) == 6


def test_rationality_checks():
    report = bt.rationality_checks()
    assert report["coordinate_change"] is True
    assert report["lines_on_surface"] is True
    assert report["lines_disjoint_rank"] == 4
    # both factorizations hold for the conjugate square root of 2*phi+1
    assert report["factorization_plus"]["sign"] == -1
    assert report["factorization_minus"]["sign"] == -1


def test_xi_vectors_form_one_orbit(bt_model):
    # closure of the seed vector under inverse-transpose transport
    seen = {bt_model.xi_vectors[0]}
    frontier = [bt_model.xi_vectors[0]]
    while frontier:
        v = frontier.pop()
        for g in bt_model.gens3.values():
            w = tuple(g.inverse().transpose().apply(v))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert seen == set(bt_model.xi_vectors)


def test_theta_vectors_form_one_orbit(bt_model):
    seen = {canonical_point(bt_model.theta_vectors[0])}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for g in bt_model.gens3.values():
            w = canonical_point(tuple(g.inverse().transpose().apply(v)))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert seen == {canonical_point(u) for u in bt_model.theta_vectors}
    assert len(seen) == 6


def test_full_report_note_and_serializability():
    # the verdicts survive a JSON round trip of the report
    report = cli.run_suite("barth", only=["orbits", "invariance", "table2"])
    parsed = json.loads(json.dumps(report))
    actual = {chk["name"]: chk["actual"] for chk in parsed["checks"]}
    assert actual["barth/orbits"] == "group order 60, orbits 15+20+30"
    assert actual["barth/invariance"] == "M:1, N:1, R:1"
    assert actual["barth/table2"].endswith("minus family equal True, rank 14")
