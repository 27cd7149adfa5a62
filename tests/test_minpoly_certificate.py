"""Irreducibility certificates for the minimal polynomials of the four number
fields the package builds.

`NumberField` takes irreducibility of its minimal polynomial on trust; this
file proves it for the pinned polynomials, with plain integers and no code
from `a5fano` beyond reading `field.minpoly`.

The certificate: a monic integer polynomial that is irreducible modulo a
prime p is irreducible over Q.  By Gauss's lemma a factorization over Q can
be taken over Z with monic factors, and reducing it mod p gives a
factorization of the same degrees.  Over F_p a polynomial of degree n is
irreducible iff it has no monic factor of degree 1..n//2, which is checked
here by dividing by every such factor.
"""

from itertools import product

import pytest

from a5fano.exactfield import branch_root_field, golden_field, omega_field, rationals

# field factory, and a prime modulo which its minimal polynomial is irreducible
PINNED = {
    "QQ": (rationals, 2),
    "phi": (lambda: golden_field()[0], 3),
    "omega": (lambda: omega_field()[0], 5),  # x^2 + x + 1 = (x - 1)^2 mod 3
    "s": (lambda: branch_root_field()[0], 3),
}


def integer_minpoly(field):
    """The field's minimal polynomial as ascending int coefficients; it must be
    monic with integer coefficients for the certificate to apply."""
    assert all(c.denominator == 1 for c in field.minpoly)
    coeffs = [int(c) for c in field.minpoly]
    assert coeffs[-1] == 1
    return coeffs


def remainder_mod(a, b, p):
    """Remainder of a by the monic b over F_p (ascending coefficient lists)."""
    a = [c % p for c in a]
    while len(a) >= len(b):
        lead, shift = a.pop(), len(a) + 1 - len(b)
        for i, c in enumerate(b[:-1]):
            a[shift + i] = (a[shift + i] - lead * c) % p
    return a


def irreducible_mod(coeffs, p):
    """Whether the monic integer polynomial `coeffs` is irreducible over F_p."""
    n = len(coeffs) - 1
    for d in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=d):
            if not any(remainder_mod(coeffs, list(tail) + [1], p)):
                return False
    return True


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_minimal_polynomial_is_irreducible_mod_p(name):
    factory, p = PINNED[name]
    assert irreducible_mod(integer_minpoly(factory()), p)


def test_checker_refuses_reducible_polynomials():
    for p in (3, 5, 7, 11):
        # x^4 + 1 is irreducible over Q and splits into quadratics modulo
        # every prime; modulo these it has no root, so only the degree-2
        # pass refuses it
        assert not irreducible_mod([1, 0, 0, 0, 1], p)
    for p in (2, 3, 5, 7, 11):
        assert not irreducible_mod([1, 0, 2, 0, 1], p)  # (x^2 + 1)^2
        assert not irreducible_mod([-1, 0, 0, 0, 1], p)  # x^4 - 1
        assert not irreducible_mod([-4, 0, 1], p)  # (x - 2)(x + 2)
        assert not irreducible_mod([2, 3, 1], p)  # (x + 1)(x + 2)
        assert not irreducible_mod([1, 2, 1], p)  # (x + 1)^2
        assert not irreducible_mod([-8, 0, 0, 1], p)  # x^3 - 8 has the root 2
    assert not irreducible_mod([1, 1, 1], 3)  # (x - 1)^2 mod 3
    assert irreducible_mod([1, 0, 1], 3) and irreducible_mod([2, 0, 0, 1], 7)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_minimal_polynomial_irreducible_in_sympy(name):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeffs = integer_minpoly(PINNED[name][0]())
    poly = sympy.Poly(list(reversed(coeffs)), x, domain=sympy.QQ)
    assert poly.is_irreducible
