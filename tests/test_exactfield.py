import random
from fractions import Fraction

import pytest

from a5fano.exactfield import (
    FieldMismatch,
    NumberField,
    RationalFunctionField,
    branch_root_field,
    golden_field,
    omega_field,
    rational_sqrt,
    rationals,
    sqrt_in_field,
)
from a5fano.multipoly import PolyRing


def embed(a, target, gen_image):
    """Map a field element into another field by sending its generator to gen_image."""
    acc = target.zero
    power = target.one
    for c in a.coords:
        if c:
            acc = acc + power * c
        power = power * gen_image
    return acc


def test_golden_field_construction():
    field, phi = golden_field()
    assert field.degree == 2
    assert phi * phi == phi + 1


def test_omega_field_construction():
    field, om = omega_field()
    assert field.degree == 2
    assert om * om + om + 1 == 0
    assert om ** 3 == 1


def test_branch_root_field_tower():
    field, s, tau = branch_root_field()
    assert field.degree == 4
    assert s ** 4 == 4 * s ** 2 + 1
    assert s * s == 2 * tau + 1
    assert tau * tau == tau + 1


def test_scalar_arithmetic_examples():
    _, phi = golden_field()
    assert (2 * phi + 1) * (2 * phi + 1) == 8 * phi + 5
    _, om = omega_field()
    assert om * (om * om) == 1
    field, s, _ = branch_root_field()
    assert (s * s) * (s * s) == 4 * s * s + 1


def test_division_and_errors():
    field, phi = golden_field()
    x = field((Fraction(3, 7), Fraction(-2, 5)))
    assert x / x == 1
    assert (phi / phi) == 1
    with pytest.raises(ZeroDivisionError):
        _ = phi / field.zero
    other, _ = omega_field()
    with pytest.raises(FieldMismatch):
        _ = phi + other.gen()


def test_reflected_division_coerces_first():
    field, phi = golden_field()
    R = RationalFunctionField(field, "mu")
    mu = R.gen()
    for x in (phi, field.zero, mu, R.zero):
        with pytest.raises(TypeError, match="unsupported operand"):
            _ = "a" / x
    for x in (phi, field((Fraction(3, 7), Fraction(-2, 5))), mu, mu + phi):
        assert 1 / x == x.inverse()
        assert 3 / x == x.inverse() * 3
    assert phi / mu == mu.inverse() * phi


def test_sqrt_examples():
    field, phi = golden_field()
    assert sqrt_in_field(field(4)) == 2
    r = sqrt_in_field(phi + 1)
    assert r is not None and r * r == phi + 1 and r in (phi, -phi)
    q = rationals()
    assert sqrt_in_field(q(Fraction(49, 9))) == Fraction(7, 3)
    assert sqrt_in_field(q(3)) is None


def test_branch_constant_square_is_not_in_golden_field():
    # Oracle: (p + q*phi)^2 = 12 + 20*phi forces p^2 + q^2 = 12 and
    # q(2p + q) = 20; eliminating p gives 5 z^2 - 88 z + 400 = 0 for z = q^2,
    # whose discriminant 88^2 - 8000 = -256 is negative, so no solution.
    disc = 88 ** 2 - 4 * 5 * 400
    assert disc < 0
    field, phi = golden_field()
    assert sqrt_in_field(12 + 20 * phi) is None


def test_sqrt_randomized_against_squaring():
    field, phi = golden_field()
    rng = random.Random(11)
    for _ in range(50):
        a = field((Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
        sq = a * a
        r = sqrt_in_field(sq)
        assert r is not None and r * r == sq


def test_rational_sqrt():
    assert rational_sqrt(Fraction(16, 25)) == Fraction(4, 5)
    assert rational_sqrt(2) is None
    assert rational_sqrt(Fraction(-4)) is None


FIELDS = [golden_field()[0], omega_field()[0], branch_root_field()[0]]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: repr(f))
def test_field_axioms_random(field):
    rng = random.Random(101)

    def rand():
        return field(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                           for _ in range(field.degree)))

    for _ in range(80):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == field.one


def test_cubic_field_arithmetic():
    # degree 3 sits between the two degrees the scenarios use; the kernel
    # supports it through the same reduction and inverse machinery
    field = NumberField((-2, 0, 0, 1), name="c")  # c^3 = 2
    c = field.gen()
    assert c ** 3 == 2
    assert c ** 6 == 4
    x = 1 + c + c * c
    assert x * x.inverse() == field.one
    assert (c - 1) * (c * c + c + 1) == 1  # c^3 - 1 = 1


def test_reduction_is_consistent_across_evaluation_orders():
    field, s, tau = branch_root_field()
    assert s ** 8 == (4 * s ** 2 + 1) ** 2
    assert (s ** 3) * (s ** 5) == s ** 8
    assert (s ** 2) * (s ** 2) * (s ** 2) == s ** 6
    assert len((s ** 7).coords) == 4
    gf, phi = golden_field()
    assert phi ** 6 == 8 * phi + 5
    assert (phi ** 3) * (phi ** 3) == phi ** 6


def test_embedding_golden_into_branch_field():
    gf, phi = golden_field()
    bf, s, tau = branch_root_field()
    rng = random.Random(5)
    for _ in range(25):
        a = gf((rng.randint(-9, 9), rng.randint(-9, 9)))
        b = gf((rng.randint(-9, 9), rng.randint(-9, 9)))
        ea, eb = embed(a, bf, tau), embed(b, bf, tau)
        assert embed(a + b, bf, tau) == ea + eb
        assert embed(a * b, bf, tau) == ea * eb
    assert embed(phi, bf, tau) == tau


def test_rational_function_examples():
    field, phi = golden_field()
    F = RationalFunctionField(field, "lam")
    lam = F.gen()
    assert lam / lam == F.one
    assert (lam ** 2 - 1) / (lam - 1) == lam + 1
    assert (1 / lam) * lam ** 2 == lam
    with pytest.raises(ZeroDivisionError):
        _ = F.one / F.zero


def test_rational_function_normalization():
    field, phi = golden_field()
    F = RationalFunctionField(field, "t")
    t = F.gen()
    rng = random.Random(3)

    def gcd_dense(a, b):
        a, b = list(a), list(b)
        while b:
            while a and a[-1].is_zero():
                a.pop()
            while b and b[-1].is_zero():
                b.pop()
            if not b:
                break
            if len(a) < len(b):
                a, b = b, a
                continue
            lead = b[-1]
            shift = len(a) - len(b)
            factor = a[-1] / lead
            for i in range(len(b)):
                a[shift + i] = a[shift + i] - factor * b[i]
            a.pop()
        while a and a[-1].is_zero():
            a.pop()
        return a

    for _ in range(30):
        num = [field(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        den = [field(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        if all(c.is_zero() for c in den):
            den[-1] = field.one
        f = F(num) / F(den) * (t ** 2 + 1) / (t + phi)
        assert f.den[-1] == field.one  # monic denominator
        g = gcd_dense(list(f.num), list(f.den))
        assert len(g) <= 1  # coprime


def test_field_element_printing_roundtrip_stability():
    field, phi = golden_field()
    assert str(2 * phi + 1) == "1 + 2*phi"
    assert str(field.zero) == "0"
    assert str(-phi) == "-phi"


def _membership_cases():
    field, phi = golden_field()
    R = RationalFunctionField(field, "mu")
    P = PolyRing(field, ("x", "y"))
    return {
        "int-in-field": (3, field(3)),
        "fraction-in-field": (Fraction(1, 2), field(Fraction(1, 2))),
        "field-in-rational-functions": (phi, R(phi)),
        "int-in-rational-functions": (3, R(3)),
        "zero-in-rational-functions": (0, R.zero),
        "int-in-polynomials": (1, P.one),
        "field-in-polynomials": (phi, P(phi)),
        "zero-in-polynomials": (0, P.zero),
    }


@pytest.mark.parametrize("case", sorted(_membership_cases()))
def test_hash_agrees_with_equality(case):
    # equal values must hash alike, or set and dict lookups miss them
    value, element = _membership_cases()[case]
    assert element == value
    assert hash(element) == hash(value)
    assert value in {element}
    assert element in {value}
