"""Exact scalar arithmetic: rationals, small number fields, and univariate
rational-function fields.

Every coefficient in this package is one of these scalars; there is no
floating point anywhere.  A number field is Q[x]/(m(x)) for a monic
irreducible m of degree 1..4, with elements stored as coordinate vectors in
the power basis.  The degree-1 field is plain Q.  Rational functions are
reduced fractions of dense univariate polynomials over a number field.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldError(ValueError):
    pass


class FieldMismatch(FieldError):
    """Operands live in different fields."""


class ReduciblePolynomial(FieldError):
    """A minimal polynomial with a rational root or rational quadratic factor."""


# ---------------------------------------------------------------------------
# dense univariate helpers (coefficient lists, ascending degree)
# ---------------------------------------------------------------------------

def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return list(coeffs[:n])


def _poly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x - y)
    return _trim(out)


def _poly_mul(a, b, zero):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _poly_divmod(a, b):
    """Division with remainder; the divisor's leading coefficient must be a unit."""
    b = _trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = _trim(a)
    if len(r) < len(b):
        return [], r
    lead = b[-1]
    q = [r[0] * 0] * (len(r) - len(b) + 1)
    while len(r) >= len(b):
        factor = r[-1] / lead
        shift = len(r) - len(b)
        q[shift] = factor
        for i in range(len(b)):
            r[shift + i] = r[shift + i] - factor * b[i]
        r = _trim(r)
    return _trim(q), r


def _poly_gcd_monic(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_ext_gcd(a, b, zero, one):
    """Return (g, u, v) with u*a + v*b = g, g monic (or empty for a=b=0)."""
    r0, r1 = _trim(a), _trim(b)
    s0, s1 = [one], []
    t0, t1 = [], [one]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, zero))
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1, zero))
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        s0 = [c / lead for c in s0]
        t0 = [c / lead for c in t0]
    return r0, s0, t0


def _poly_eval(coeffs, point, zero):
    acc = zero
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


# ---------------------------------------------------------------------------
# rational helpers
# ---------------------------------------------------------------------------

def rational_sqrt(q):
    """Exact square root of a Fraction, or None if it is not a rational square."""
    q = Fraction(q)
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _rational_roots(coeffs):
    """All rational roots of a polynomial with Fraction coefficients."""
    coeffs = _trim([Fraction(c) for c in coeffs])
    if not coeffs:
        return []
    # strip trailing zero roots
    roots = []
    low = 0
    while low < len(coeffs) and coeffs[low] == 0:
        low += 1
    if low:
        roots.append(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) <= 1:
        return roots
    # clear denominators to integer coefficients
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = []
        i = 1
        while i * i <= n:
            if n % i == 0:
                out.append(i)
                out.append(n // i)
            i += 1
        return sorted(set(out))

    for p in divisors(a0):
        for q in divisors(an):
            if math.gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _poly_eval(ints, cand, Fraction(0)) == 0 and cand not in roots:
                    roots.append(cand)
    return roots


def _has_rational_quadratic_factor(coeffs):
    """Whether a monic quartic over Q has a monic quadratic factor x^2+a*x+b over Q.

    The remainder of m modulo x^2+a*x+b is R1(a,b)*x + R0(a,b); eliminating b
    from R1 = R0 = 0 leaves a univariate condition on a whose rational roots
    are tried explicitly.
    """
    m = [Fraction(c) for c in coeffs]
    assert len(m) == 5 and m[4] == 1
    m3, m2, m1, m0 = m[3], m[2], m[1], m[0]
    # long division of x^4+m3x^3+m2x^2+m1x+m0 by x^2+ax+b:
    #   quotient x^2 + (m3-a)x + (m2 - b - a(m3-a))
    #   R1 = m1 - b(m3-a) - a(m2 - b - a(m3-a))
    #   R0 = m0 - b(m2 - b - a(m3-a))
    # For each rational root a of the eliminant, solve for b.
    # Eliminate b: from R1 = 0, b*(a - m3 + a) ... solve linear in b when possible.
    # R1 = m1 - b*m3 + a*b - a*m2 + a*b + a^2*m3 - a^3
    #    = m1 - a*m2 + a^2*m3 - a^3 + b*(2a - m3)
    # R0 = m0 - b*(m2 - a*m3 + a^2) + b^2
    # Case 2a - m3 != 0: b = (a^3 - a^2*m3 + a*m2 - m1)/(2a - m3); substitute into R0.
    # The set of candidate a's: rational roots of the numerator of R0 after
    # substitution, a degree-6 rational polynomial; build it by clearing (2a-m3)^2.
    # N(a) = m0*(2a-m3)^2 - B(a)*(m2 - a*m3 + a^2)*(2a-m3) + B(a)^2
    # with B(a) = a^3 - a^2*m3 + a*m2 - m1.
    B = [-m1, m2, -m3, Fraction(1)]
    lin = [-m3, Fraction(2)]
    quad = [m2, -m3, Fraction(1)]
    z = Fraction(0)
    lin2 = _poly_mul(lin, lin, z)
    N = _poly_add(
        _poly_sub(_poly_mul([m0], lin2, z), _poly_mul(_poly_mul(B, quad, z), lin, z)),
        _poly_mul(B, B, z),
    )
    candidates = set(_rational_roots(N)) if N else set()
    # Case 2a - m3 == 0 handled separately: a = m3/2, R1 reduces to a constant.
    candidates.add(m3 / 2)
    for a in candidates:
        if 2 * a - m3 != 0:
            b = (a ** 3 - a ** 2 * m3 + a * m2 - m1) / (2 * a - m3)
            bs = [b]
        else:
            if m1 - a * m2 + a ** 2 * m3 - a ** 3 != 0:
                continue
            # R0 = b^2 - b*(m2 - a*m3 + a^2) + m0 = 0, quadratic in b
            p = m2 - a * m3 + a ** 2
            disc = p * p - 4 * m0
            r = rational_sqrt(disc)
            if r is None:
                continue
            bs = [(p + r) / 2, (p - r) / 2]
        for b in bs:
            _, rem = _poly_divmod(m, [b, a, Fraction(1)])
            if not rem:
                return True
    return False


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

class NumberField:
    """Q[x]/(m(x)) for a monic irreducible m of degree 1..4.

    Degree 1 is plain Q.  Elements are coordinate vectors in the power basis
    of the generator; two fields are interchangeable iff their minimal
    polynomials agree.
    """

    __slots__ = ("degree", "minpoly", "name", "_reduction", "_hash")

    def __init__(self, minpoly, name="a"):
        coeffs = tuple(Fraction(c) for c in minpoly)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise FieldError("minimal polynomial must be monic of degree >= 1")
        degree = len(coeffs) - 1
        if degree > 4:
            raise FieldError("only degrees 1..4 are supported")
        if degree >= 2 and _rational_roots(list(coeffs)):
            raise ReduciblePolynomial(f"{list(coeffs)} has a rational root")
        if degree == 4 and _has_rational_quadratic_factor(list(coeffs)):
            raise ReduciblePolynomial(f"{list(coeffs)} has a rational quadratic factor")
        self.degree = degree
        self.minpoly = coeffs
        self.name = name
        # x^k mod m for k = degree .. 2*degree-2, as power-basis vectors
        table = []
        rel = [-c for c in coeffs[:-1]]  # x^degree = rel[0] + rel[1] x + ...
        cur = list(rel)
        table.append(tuple(cur))
        for _ in range(degree - 2):
            shifted = [Fraction(0)] + cur[:-1]
            top = cur[-1]
            cur = [shifted[i] + top * rel[i] for i in range(degree)]
            table.append(tuple(cur))
        self._reduction = tuple(table)
        self._hash = hash(self.minpoly)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.degree == 1:
            return "QQ"
        return f"NumberField({self.name}, deg {self.degree})"

    @property
    def zero(self):
        return FieldElement(self, (Fraction(0),) * self.degree)

    @property
    def one(self):
        return FieldElement(self, (Fraction(1),) + (Fraction(0),) * (self.degree - 1))

    def gen(self):
        if self.degree == 1:
            return FieldElement(self, (-self.minpoly[0],))
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return FieldElement(self, tuple(coords))

    def __call__(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"cannot lift element of {value.field!r} into {self!r}")
            return value
        if isinstance(value, (int, Fraction)):
            coords = [Fraction(value)] + [Fraction(0)] * (self.degree - 1)
            return FieldElement(self, tuple(coords))
        coords = tuple(Fraction(c) for c in value)
        if len(coords) != self.degree:
            raise FieldError(f"expected {self.degree} coordinates, got {len(coords)}")
        return FieldElement(self, coords)

    def _reduce(self, conv):
        """Reduce a convolution (length <= 2*degree-1) to the power basis."""
        n = self.degree
        out = list(conv[:n]) + [Fraction(0)] * (n - len(conv[:n]))
        for k in range(n, len(conv)):
            c = conv[k]
            if not c:
                continue
            row = self._reduction[k - n]
            for i in range(n):
                out[i] += c * row[i]
        return tuple(out)


class FieldElement:
    """An element of a NumberField, immutable, with exact arithmetic."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self):
        if not self.is_rational():
            raise FieldError(f"{self} is not rational")
        return self.coords[0]

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.field.degree
        conv = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    conv[i + j] += a * b
        return FieldElement(self.field, self.field._reduce(conv))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if self.field.degree == 1:
            return FieldElement(self.field, (1 / self.coords[0],))
        a = _trim(list(self.coords))
        m = list(self.field.minpoly)
        g, u, _ = _poly_ext_gcd(a, m, Fraction(0), Fraction(1))
        if g != [Fraction(1)]:
            raise FieldError("element not invertible; minimal polynomial not irreducible?")
        if len(u) > self.field.degree:
            _, u = _poly_divmod(u, m)
        coords = tuple(u[i] if i < len(u) else Fraction(0) for i in range(self.field.degree))
        return FieldElement(self.field, coords)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field.minpoly, self.coords))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return self.__str__()

    def __str__(self):
        name = self.field.name
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = name if i == 1 else f"{name}^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def make_number_field(minpoly, name="a"):
    """Build Q[x]/(m(x)); raises ReduciblePolynomial when m factors over Q."""
    return NumberField(minpoly, name=name)


_QQ = NumberField((Fraction(0), Fraction(1)), name="x")


def rationals():
    """The rational field as a degree-1 NumberField."""
    return _QQ


def golden_field():
    """The field Q(phi) with phi^2 = phi + 1; returns (field, phi)."""
    fld = NumberField((-1, -1, 1), name="phi")
    return fld, fld.gen()


def omega_field():
    """The field Q(omega) with omega^2 + omega + 1 = 0; returns (field, omega)."""
    fld = NumberField((1, 1, 1), name="omega")
    return fld, fld.gen()


def branch_root_field():
    """The degree-4 field Q(s) with s^2 = 2*phi + 1.

    The absolute minimal polynomial is s^4 - 4 s^2 - 1; the golden ratio sits
    inside as (s^2 - 1)/2.  Returns (field, s, phi_inside).
    """
    fld = NumberField((-1, 0, -4, 0, 1), name="s")
    s = fld.gen()
    phi = (s * s - 1) / 2
    return fld, s, phi


def embed(a, target, gen_image):
    """Map a FieldElement into another field by sending its generator to gen_image."""
    acc = target.zero
    power = target.one
    for c in a.coords:
        if c:
            acc = acc + power * c
        power = power * gen_image
    return acc


def sqrt_in_field(a):
    """A square root of `a` inside its own field (degree <= 2), or None.

    For a quadratic field with x^2 = c1 x + c0 the equation (p + q x)^2 = a
    reduces to a rational quadratic in q^2, solved exactly.
    """
    field = a.field
    if field.degree == 1:
        r = rational_sqrt(a.coords[0])
        return None if r is None else field(r)
    if field.degree != 2:
        raise FieldError("square roots only implemented for degrees 1 and 2")
    a0, a1 = a.coords
    c0 = -field.minpoly[0]
    c1 = -field.minpoly[1]
    # q = 0 branch
    r = rational_sqrt(a0)
    if a1 == 0 and r is not None:
        return field(r)
    # q != 0 branch: (c1^2 + 4 c0) z^2 - (2 a1 c1 + 4 a0) z + a1^2 = 0 with z = q^2
    lead = c1 * c1 + 4 * c0
    mid = 2 * a1 * c1 + 4 * a0
    if lead == 0:
        if mid == 0:
            return None
        zs = [Fraction(a1 * a1, 1) / mid]
    else:
        disc = mid * mid - 4 * lead * a1 * a1
        rd = rational_sqrt(disc)
        if rd is None:
            return None
        zs = [(mid + rd) / (2 * lead), (mid - rd) / (2 * lead)]
    for z in zs:
        if z <= 0:
            continue
        q = rational_sqrt(z)
        if q is None:
            continue
        p = (a1 / q - c1 * q) / 2
        cand = field((p, q))
        if cand * cand == a:
            return cand
    return None


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunctionField:
    """Fraction field of univariate polynomials over a NumberField."""

    __slots__ = ("base", "var")

    def __init__(self, base, var):
        self.base = base
        self.var = var

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunctionField)
            and self.base == other.base
            and self.var == other.var
        )

    def __hash__(self):
        return hash((self.base.minpoly, self.var))

    def __repr__(self):
        return f"{self.base!r}({self.var})"

    @property
    def zero(self):
        return RationalFunction(self, (), (self.base.one,))

    @property
    def one(self):
        return RationalFunction(self, (self.base.one,), (self.base.one,))

    def gen(self):
        return RationalFunction(self, (self.base.zero, self.base.one), (self.base.one,))

    def __call__(self, value):
        if isinstance(value, RationalFunction):
            if value.field != self:
                raise FieldMismatch("rational function from another field")
            return value
        if isinstance(value, (int, Fraction)):
            value = self.base(value)
        if isinstance(value, FieldElement):
            if value.field != self.base:
                raise FieldMismatch("coefficient from another base field")
            if value.is_zero():
                return self.zero
            return RationalFunction(self, (value,), (self.base.one,))
        # a coefficient list for a polynomial in the transcendental
        num = tuple(self.base(c) for c in value)
        return RationalFunction(self, num, (self.base.one,)).normalized()

    def from_polys(self, num, den):
        return RationalFunction(
            self, tuple(self.base(c) for c in num), tuple(self.base(c) for c in den)
        ).normalized()


class RationalFunction:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = tuple(num)
        self.den = tuple(den)

    def normalized(self):
        zero, one = self.field.base.zero, self.field.base.one
        num, den = _trim(list(self.num)), _trim(list(self.den))
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return RationalFunction(self.field, (), (one,))
        g = _poly_gcd_monic(num, den)
        if len(g) > 1:
            num, _ = _poly_divmod(num, g)
            den, _ = _poly_divmod(den, g)
        lead = den[-1]
        if lead != one:
            num = [c / lead for c in num]
            den = [c / lead for c in den]
        return RationalFunction(self.field, tuple(num), tuple(den))

    def is_zero(self):
        return not self.num

    def is_polynomial(self):
        return self.den == (self.field.base.one,)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.field != self.field:
                raise FieldMismatch("rational functions over different fields")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        zero = self.field.base.zero
        num = _poly_add(
            _poly_mul(list(self.num), list(other.den), zero),
            _poly_mul(list(other.num), list(self.den), zero),
        )
        den = _poly_mul(list(self.den), list(other.den), zero)
        return RationalFunction(self.field, num, den).normalized()

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        zero = self.field.base.zero
        num = _poly_mul(list(self.num), list(other.num), zero)
        den = _poly_mul(list(self.den), list(other.den), zero)
        return RationalFunction(self.field, num, den).normalized()

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(self.field, self.den, self.num).normalized()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = self.field(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.field == other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field.var, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def _poly_str(self, coeffs):
        var = self.field.var
        parts = []
        for i, c in enumerate(coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
            else:
                mono = var if i == 1 else f"{var}^{i}"
                parts.append(mono if cs == "1" else f"({cs})*{mono}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        if self.is_polynomial():
            return self._poly_str(self.num)
        return f"({self._poly_str(self.num)})/({self._poly_str(self.den)})"
