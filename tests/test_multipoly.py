import random
from fractions import Fraction

import pytest

from a5fano.exactfield import golden_field, rationals
from a5fano.multipoly import (
    DegenerateLine,
    PolyRing,
    RingMismatch,
    dehomogenize,
    divmod_single,
    evaluate,
    exact_square_root,
    gradient,
    hessian_at,
    node_failure,
    partial_derivative,
    restrict_to_line,
    substitute,
    sylvester_resultant,
    ternary_conic_classify,
    ternary_cubic_is_smooth,
)

QQ = rationals()


def dense_univariate(p, var):
    """Dense coefficient list when p involves only the given variable."""
    for exps in p.terms:
        for i, e in enumerate(exps):
            if e and i != var:
                raise RingMismatch("polynomial is not univariate in the given variable")
    n = p.degree_in(var)
    out = [p.ring.field.zero] * (max(n, 0) + 1)
    for exps, c in p.terms.items():
        out[exps[var]] = c
    return out


def _sigma(ring, k):
    from itertools import combinations

    acc = ring.zero
    for combo in combinations(ring.gens(), k):
        term = ring.one
        for g in combo:
            term = term * g
        acc = acc + term
    return acc


def test_multiplication_by_zero():
    ring = PolyRing(QQ, tuple(f"x{i}" for i in range(6)))
    sigma1 = _sigma(ring, 1)
    assert (sigma1 * ring.zero).is_zero()


def test_difference_of_squares_with_minpoly_reduction():
    field, phi = golden_field()
    ring = PolyRing(field, ("x0", "x1"))
    x0, x1 = ring.gens()
    assert (x0 * phi - x1) * (x0 * phi + x1) == x0 ** 2 * (phi + 1) - x1 ** 2


def test_six_line_product_against_hand_expansion():
    field, phi = golden_field()
    ring = PolyRing(field, ("x0", "x1", "x2"))
    x0, x1, x2 = ring.gens()
    l = [x0 * phi - x1, x1 * phi - x2, x2 * phi - x0,
         x0 * phi + x1, x1 * phi + x2, x2 * phi + x0]
    product = ring.one
    for f in l:
        product = product * f
    # independent oracle: the same product collapses pairwise to three
    # difference-of-squares factors, expanded here term by term
    p2 = phi * phi
    a0, a1, a2 = x0 ** 2, x1 ** 2, x2 ** 2
    oracle = (
        a0 * a1 * a2 * (p2 ** 3)
        - a0 ** 2 * a1 * (p2 ** 2)
        - a0 * a2 ** 2 * (p2 ** 2)
        - a1 ** 2 * a2 * (p2 ** 2)
        + a0 ** 2 * a2 * p2
        + a0 * a1 ** 2 * p2
        + a1 * a2 ** 2 * p2
        - a0 * a1 * a2
    )
    assert product == oracle
    assert product.coefficient((2, 2, 2)) == 8 * phi + 4


def test_substitute_kills_symmetric_sum():
    ring6 = PolyRing(QQ, tuple(f"x{i}" for i in range(6)))
    ring5 = PolyRing(QQ, tuple(f"x{i}" for i in range(5)))
    sigma1 = _sigma(ring6, 1)
    g5 = ring5.gens()
    images = list(g5) + [-(g5[0] + g5[1] + g5[2] + g5[3] + g5[4])]
    assert substitute(sigma1, images).is_zero()


def test_substitute_identity_is_identity():
    ring = PolyRing(QQ, ("x", "y", "z"))
    rng = random.Random(17)
    gens = ring.gens()
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            terms[exps] = Fraction(rng.randint(-5, 5))
        p = ring(terms)
        assert substitute(p, list(gens)) == p


def test_substitution_preserves_homogeneity():
    field, phi = golden_field()
    ring = PolyRing(field, ("x", "y", "z"))
    x, y, z = ring.gens()
    rng = random.Random(23)
    p = (x + y * phi) * (y - z) * (x + z) + x * y * z
    assert p.is_homogeneous()
    for _ in range(10):
        images = []
        for _ in range(3):
            images.append(x * rng.randint(-3, 3) + y * rng.randint(-3, 3)
                          + z * rng.randint(-3, 3))
        q = substitute(p, images)
        assert q.is_zero() or (q.is_homogeneous() and q.total_degree() == 3)


def test_partial_derivatives():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    assert partial_derivative(x ** 2 * y, 0) == 2 * x * y
    ring6 = PolyRing(QQ, tuple(f"x{i}" for i in range(6)))
    sigma1 = _sigma(ring6, 1)
    for i in range(6):
        assert partial_derivative(sigma1, i) == ring6.one


def test_mixed_partials_commute():
    ring = PolyRing(QQ, ("x", "y", "z"))
    rng = random.Random(29)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 8)):
            exps = tuple(rng.randint(0, 4) for _ in range(3))
            terms[exps] = Fraction(rng.randint(-7, 7))
        p = ring(terms)
        for i in range(3):
            for j in range(3):
                assert partial_derivative(partial_derivative(p, i), j) == \
                    partial_derivative(partial_derivative(p, j), i)


def test_hessian_of_round_quadric():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.gens()
    h = hessian_at(x ** 2 + y ** 2 + z ** 2, [0, 0, 0])
    assert [[int(str(c)) for c in row] for row in h] == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]


def test_restrict_to_line():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.gens()
    r = restrict_to_line(z, [1, 0, 0], [0, 1, 0])
    assert r.is_zero()
    r2 = restrict_to_line(x + y, [1, 0, 0], [0, 1, 0])
    assert not r2.is_zero() and r2.total_degree() == 1
    with pytest.raises(DegenerateLine):
        restrict_to_line(z, [1, 2, 0], [2, 4, 0])


def test_exact_square_root_examples():
    field, phi = golden_field()
    ring = PolyRing(field, ("x",))
    (x,) = ring.gens()
    assert exact_square_root(x ** 6) == x ** 3
    cubic = x ** 3 + x * phi + 1
    got = exact_square_root(cubic * cubic)
    assert got in (cubic, -cubic)
    blocked = -(1 + 2 * phi) * (4 * x ** 6 + 4 * x ** 4 - 4 * x ** 2 + 1)
    assert exact_square_root(blocked) is None
    assert exact_square_root(4 * x ** 6 + 4 * x ** 4 - 4 * x ** 2 + 1) is None


def test_exact_square_root_random_roundtrip():
    field, phi = golden_field()
    ring = PolyRing(field, ("x",))
    (x,) = ring.gens()
    rng = random.Random(31)
    for _ in range(40):
        coeffs = [field((rng.randint(-5, 5), rng.randint(-5, 5))) for _ in range(7)]
        q = ring.zero
        for k, c in enumerate(coeffs[: rng.randint(2, 7)]):
            q = q + ring.monomial((k,), c)
        if q.is_zero():
            continue
        got = exact_square_root(q * q)
        assert got in (q, -q)


def test_exact_square_root_binary_and_ternary():
    field, phi = golden_field()
    ring = PolyRing(field, ("u", "t"))
    u, t = ring.gens()
    form = (u ** 2 - t ** 2 * phi) ** 2
    got = exact_square_root(form)
    assert got in (u ** 2 - t ** 2 * phi, -(u ** 2 - t ** 2 * phi))
    ring3 = PolyRing(field, ("x", "y", "z"))
    x, y, z = ring3.gens()
    cub = x * y * z + x ** 3 * phi - z ** 3
    got3 = exact_square_root(cub * cub)
    assert got3 in (cub, -cub)
    assert exact_square_root(cub * cub + x ** 6) is None


def test_sylvester_resultant_examples():
    ring = PolyRing(QQ, ("x", "a", "b"))
    x, a, b = ring.gens()
    assert sylvester_resultant(x - a, x - b, 0) == b - a
    ring1 = PolyRing(QQ, ("x",))
    (t,) = ring1.gens()
    assert sylvester_resultant(t ** 2 + 1, t + 1, 0) == ring1(2)


def test_resultant_vanishes_iff_common_factor():
    ring = PolyRing(QQ, ("x",))
    (x,) = ring.gens()
    rng = random.Random(37)
    for _ in range(30):
        def randpoly(deg):
            p = ring.zero
            for k in range(deg + 1):
                p = p + ring.monomial((k,), Fraction(rng.randint(-4, 4)))
            if p.is_zero() or p.degree_in(0) == 0:
                p = p + x ** deg
            return p

        p, q = randpoly(rng.randint(1, 3)), randpoly(rng.randint(1, 3))
        share = rng.random() < 0.5
        if share:
            common = x - rng.randint(-3, 3)
            p, q = p * common, q * common
        res = sylvester_resultant(p, q, 0)
        # gcd oracle over the dense representation
        a = dense_univariate(p, 0)
        bb = dense_univariate(q, 0)

        def gcd(a, b):
            a, b = list(a), list(b)

            def trim(c):
                while c and c[-1] == 0:
                    c.pop()
                return c

            a, b = trim(a), trim(b)
            while b:
                while len(a) >= len(b):
                    f = a[-1] / b[-1]
                    shift = len(a) - len(b)
                    for i in range(len(b)):
                        a[shift + i] -= f * b[i]
                    a = trim(a)
                    if not a:
                        break
                a, b = b, a
            return a

        g = gcd([Fraction(str(c)) for c in a], [Fraction(str(c)) for c in bb])
        assert res.is_zero() == (len(g) > 1)


def test_ternary_cubic_smoothness():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.gens()
    assert ternary_cubic_is_smooth(x ** 3 + y ** 3 + z ** 3) is True
    assert ternary_cubic_is_smooth(x ** 2 * y) is False
    assert ternary_cubic_is_smooth(x ** 3 + y ** 3 + z ** 3 - 3 * x * y * z) is False
    assert ternary_cubic_is_smooth(x * y * z) is False
    assert ternary_cubic_is_smooth(x ** 3 + y ** 3 + z ** 3 + x * y * z) is True
    # singular cubics that the former chart-by-chart certificate left undecided
    assert ternary_cubic_is_smooth(
        -2 * x ** 2 * z - x * y * z - 2 * x * z ** 2 - 2 * y ** 2 * z - 2 * y * z ** 2) is False
    assert ternary_cubic_is_smooth(
        2 * x ** 2 * z + x * y * z - x * z ** 2 + 2 * y ** 2 * z - y * z ** 2) is False
    assert ternary_cubic_is_smooth(
        2 * x ** 3 + x ** 2 * y - 2 * x ** 2 * z - x * y ** 2 - y ** 2 * z + y * z ** 2) is False


def _random_cubic(ring, rng):
    terms = {}
    for e0 in range(4):
        for e1 in range(4 - e0):
            e2 = 3 - e0 - e1
            terms[(e0, e1, e2)] = Fraction(rng.randint(-5, 5))
    return ring(terms)


def test_planted_rational_singularities_are_detected():
    from a5fano.lattice import solve_right

    ring = PolyRing(QQ, ("x", "y", "z"))
    rng = random.Random(59)
    monomials = [(e0, e1, 3 - e0 - e1) for e0 in range(4) for e1 in range(4 - e0)]
    found = 0
    while found < 12:
        point = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        if all(c == 0 for c in point):
            continue
        coeffs = {m: Fraction(rng.randint(-5, 5)) for m in monomials}
        # force the gradient to vanish at the point by solving for three
        # coefficients; Euler's relation then puts the point on the cubic
        adjust = [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
        rows, rhs = [], []
        for var in range(3):
            row = []
            for m in adjust:
                e = list(m)
                if e[var] == 0:
                    row.append(Fraction(0))
                else:
                    e[var] -= 1
                    val = Fraction(m[var])
                    for i, exp in enumerate(e):
                        val *= point[i] ** exp
                    row.append(val)
            rows.append(row)
            total = Fraction(0)
            for m, c in coeffs.items():
                if m in adjust:
                    continue
                e = list(m)
                if e[var] == 0:
                    continue
                e[var] -= 1
                val = c * m[var]
                for i, exp in enumerate(e):
                    val *= point[i] ** exp
                total += val
            rhs.append([-total])
        sol = solve_right(rows, rhs)
        if sol is None:
            continue
        for m, (value,) in zip(adjust, sol):
            coeffs[m] = value
        cubic = ring(coeffs)
        if cubic.is_zero() or cubic.total_degree() != 3 or not cubic.is_homogeneous():
            continue
        grads = [evaluate(g, point) for g in gradient(cubic)]
        assert all(v == 0 for v in grads)
        assert ternary_cubic_is_smooth(cubic) is False
        found += 1


def _sympy_is_smooth(sympy, expr, gens, **options):
    """A cubic is smooth iff on each chart x_i = 1 its partials generate (1)."""
    partials = [sympy.diff(expr, g) for g in gens]
    for g in gens:
        others = [h for h in gens if h != g]
        chart = [p.subs(g, 1) for p in partials]
        if list(sympy.groebner(chart, *others, order="grevlex", **options).exprs) != [1]:
            return False
    return True


def test_cubic_smoothness_matches_sympy_groebner(bt_model):
    sympy = pytest.importorskip("sympy")
    from a5fano import barth

    gens = sympy.symbols("x y z")

    def to_sympy(cubic, scalar):
        return sum(scalar(c) * sympy.prod([g ** e for g, e in zip(gens, exps)])
                   for exps, c in cubic.terms.items())

    ring = PolyRing(QQ, ("x", "y", "z"))
    monomials = [(e0, e1, 3 - e0 - e1) for e0 in range(4) for e1 in range(4 - e0)]
    rng = random.Random(67)
    verdicts = []
    while len(verdicts) < 200:
        # sparse supports with small coefficients hit the singular cubics often
        support = rng.sample(monomials, rng.randint(1, 10))
        cubic = ring({m: Fraction(rng.randint(-2, 2)) for m in support})
        if cubic.is_zero():
            continue
        got = ternary_cubic_is_smooth(cubic)
        assert got == _sympy_is_smooth(sympy, to_sympy(cubic, lambda c: sympy.Rational(str(c))), gens)
        verdicts.append(got)
    assert 50 < sum(verdicts) < 150

    phi = (1 + sympy.sqrt(5)) / 2

    def golden(c):
        return sum(sympy.Rational(q.numerator, q.denominator) * phi ** k
                   for k, q in enumerate(c.coords))

    pinned = barth.pinned_cubic(bt_model, "+")
    assert ternary_cubic_is_smooth(pinned) is True
    assert _sympy_is_smooth(sympy, sympy.expand(to_sympy(pinned, golden)), gens,
                            extension=sympy.sqrt(5))


def test_smoothness_invariant_under_coordinate_changes():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.gens()
    rng = random.Random(61)
    samples = [
        x ** 3 + y ** 3 + z ** 3,
        x ** 3 + y ** 3 + z ** 3 - 3 * x * y * z,
        x ** 2 * y,
        x ** 3 + y ** 2 * z,          # cuspidal
        x ** 3 + x * z ** 2 + y ** 3,
    ]
    for _ in range(5):
        samples.append(_random_cubic(ring, rng))
    transforms = [
        ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
        ((1, 2, 1), (0, 1, 1), (1, 1, 1)),
    ]
    for cubic in samples:
        if cubic.is_zero() or cubic.total_degree() != 3:
            continue
        base = ternary_cubic_is_smooth(cubic)
        gens = ring.gens()
        for mat in transforms:
            images = []
            for row in mat:
                img = ring.zero
                for coef, g in zip(row, gens):
                    img = img + g * coef
                images.append(img)
            assert ternary_cubic_is_smooth(substitute(cubic, images)) == base


def test_ternary_conic_classification():
    field, phi = golden_field()
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.gens()
    assert ternary_conic_classify(x ** 2 + y ** 2 - z ** 2) == "irreducible"
    assert ternary_conic_classify(x * y) == "line-pair"
    assert ternary_conic_classify(x ** 2) == "double-line"
    gring = PolyRing(field, ("x", "y", "z"))
    gx, gy, gz = gring.gens()
    conic = gx ** 2 + gy ** 2 * (1 + phi * phi) - gz ** 2
    assert ternary_conic_classify(conic) == "irreducible"


def test_divmod_single_reconstruction():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    rng = random.Random(41)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = Fraction(rng.randint(-5, 5))
        p = ring(terms)
        d = x + y * rng.randint(1, 3) + rng.randint(-2, 2)
        q, r = divmod_single(p, d)
        assert q * d + r == p


def test_ring_mismatch_raises():
    ring_a = PolyRing(QQ, ("x", "y"))
    ring_b = PolyRing(QQ, ("u", "v"))
    with pytest.raises(RingMismatch):
        _ = ring_a.gens()[0] + ring_b.gens()[0]


def test_canonical_printing_is_graded_lex_descending():
    field, phi = golden_field()
    ring = PolyRing(field, ("x0", "x1"))
    x0, x1 = ring.gens()
    p = x1 + x0 + x0 * x1 * phi + x0 ** 2
    assert str(p) == "x0^2 + phi*x0*x1 + x0 + x1"
    assert str(ring.zero) == "0"
    assert str(p) == str(x0 ** 2 + x0 * x1 * phi + x1 + x0)


def test_dehomogenize_and_evaluate():
    ring = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = ring.gens()
    p = x ** 2 * z + y * z ** 2
    aff = dehomogenize(p, 2)
    assert aff.ring.arity == 2
    assert evaluate(aff, [2, 3]) == evaluate(p, [2, 3, 1])
    assert evaluate(gradient(p)[0], [1, 1, 1]) == 2


def test_node_failure_scales_into_the_chart():
    # f = 3 x0 u^2 + 3 x0 x2^2 - u^3 with u = x1 - x0 has a node at (1:1:0).
    # On the chart x0 = 1 it reads 3(y1-1)^2 + 3 y2^2 - (y1-1)^3, whose
    # Hessian diag(6 - 6(y1-1), 6) is nonsingular at (1, 0) and singular at
    # (2, 0), where the unscaled representative (2, 2, 0) would land.
    R = PolyRing(QQ, ("x0", "x1", "x2"))
    x0, x1, x2 = R.gens()
    u = x1 - x0
    f = 3 * x0 * u ** 2 + 3 * x0 * x2 ** 2 - u ** 3
    for pt in ((1, 1, 0), (2, 2, 0), (Fraction(-1, 3), Fraction(-1, 3), 0)):
        assert node_failure(f, [QQ(c) for c in pt]) is None
    assert node_failure(f, [QQ(1), QQ(0), QQ(0)]) == "gradient does not vanish"
    cusp = x0 * x1 ** 2 - x2 ** 3
    assert node_failure(cusp, [QQ(5), QQ(0), QQ(0)]) == "degenerate quadratic part"
