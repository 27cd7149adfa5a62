"""Exact scalar arithmetic: rationals, small number fields, and univariate
rational-function fields.

Every coefficient in this package is one of these scalars; there is no
floating point anywhere.  A number field is Q[x]/(m(x)) for a monic
irreducible m of degree 1..4, with elements stored as coordinate vectors in
the power basis: integer numerators over one positive common denominator, as
in ANTIC's `nf_elem`.  Products are integer convolutions reduced by integer
rules for x^k mod m, unrolled for degree 2; inverses are
conjugate/norm for degree 2 and the adjugate of the integer multiplication
matrix for degrees 3 and 4.  The degree-1 field is plain Q.

`fractions.Fraction` remains where values enter and leave a field (the
field's constructor, `FieldElement.coords`, `rational_value` and `str`), and
in `rational_sqrt` and `sqrt_in_field`.  Rational functions are reduced
fractions of dense univariate polynomials over a number field.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldError(ValueError):
    pass


class FieldMismatch(FieldError):
    """Operands live in different fields."""


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


# ---------------------------------------------------------------------------
# number fields
# ---------------------------------------------------------------------------

def _minor_det(rows):
    """Determinant of a 2x2 or 3x3 integer matrix."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _reduced(field, num, den):
    """The element num/den of `field`, for integer numerators and den > 0."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return FieldElement(field, num, den)


class NumberField:
    """Q[x]/(m(x)) for a monic irreducible m of degree 1..4.

    Degree 1 is plain Q.  Elements are coordinate vectors in the power basis
    of the generator; two fields are interchangeable iff their minimal
    polynomials agree.  The minimal polynomial may have rational
    coefficients; the reduction rules x^k mod m (k = degree .. 2*degree-2)
    are kept as integer rows over one common denominator.

    Irreducibility of m is the caller's contract and is not checked here.
    The four fields the package builds (`rationals`, `golden_field`,
    `omega_field`, `branch_root_field`) are certified irreducible by
    `tests/test_minpoly_certificate.py`; a reducible m shows up as a
    `FieldError` when an element of norm zero is inverted.
    """

    __slots__ = ("degree", "minpoly", "name", "_rows", "_rows_den", "_hash")

    def __init__(self, minpoly, name="a"):
        coeffs = tuple(Fraction(c) for c in minpoly)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise FieldError("minimal polynomial must be monic of degree >= 1")
        degree = len(coeffs) - 1
        if degree > 4:
            raise FieldError("only degrees 1..4 are supported")
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
        den = math.lcm(*(c.denominator for row in table for c in row))
        self._rows = tuple(tuple(int(c * den) for c in row) for row in table)
        self._rows_den = den
        self._hash = hash(self.minpoly)

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField) and self.minpoly == other.minpoly)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.degree == 1:
            return "QQ"
        return f"NumberField({self.name}, deg {self.degree})"

    @property
    def zero(self):
        return FieldElement(self, (0,) * self.degree, 1)

    @property
    def one(self):
        return FieldElement(self, (1,) + (0,) * (self.degree - 1), 1)

    def gen(self):
        if self.degree == 1:
            return self(-self.minpoly[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def __call__(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"cannot lift element of {value.field!r} into {self!r}")
            return value
        if isinstance(value, int):
            return FieldElement(self, (int(value),) + (0,) * (self.degree - 1), 1)
        if isinstance(value, Fraction):
            return FieldElement(self, (value.numerator,) + (0,) * (self.degree - 1),
                                value.denominator)
        coords = tuple(Fraction(c) for c in value)
        if len(coords) != self.degree:
            raise FieldError(f"expected {self.degree} coordinates, got {len(coords)}")
        den = math.lcm(*(c.denominator for c in coords))
        return _reduced(self, tuple(c.numerator * (den // c.denominator) for c in coords), den)

    def _product(self, a, b):
        """Integer numerators over `_rows_den` of the product of two integer
        coordinate vectors."""
        n = self.degree
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        d = self._rows_den
        out = conv[:n] if d == 1 else [d * c for c in conv[:n]]
        for k, c in enumerate(conv[n:]):
            if c:
                row = self._rows[k]
                for i in range(n):
                    out[i] += c * row[i]
        return out


class FieldElement:
    """An element of a NumberField, immutable, with exact arithmetic.

    The element is stored as integer numerators `num`, one per power-basis
    coordinate, over one positive integer denominator `den`, always reduced
    so that gcd(den, *num) = 1 (zero is `(0, ..., 0), 1`); `==` and the hash
    therefore compare structure.  Arithmetic is done in integers; Fraction
    appears only at the boundaries: the field's constructor takes Fractions
    in, and `coords`, `rational_value` and `str` hand them out.  A rational
    element hashes like its Fraction.  Build elements through the field.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self):
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def rational_value(self):
        if not self.is_rational():
            raise FieldError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

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
        da, db = self.den, other.den
        if da == db:
            return _reduced(self.field, tuple(a + b for a, b in zip(self.num, other.num)), da)
        return _reduced(self.field,
                        tuple(a * db + b * da for a, b in zip(self.num, other.num)), da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _reduced(self.field, tuple(a - b for a, b in zip(self.num, other.num)), da)
        return _reduced(self.field,
                        tuple(a * db - b * da for a, b in zip(self.num, other.num)), da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        den = self.den * other.den
        if field.degree == 2:
            a0, a1 = self.num
            b0, b1 = other.num
            top = a1 * b1
            r0, r1 = field._rows[0]
            d = field._rows_den
            if d == 1:
                c0, c1 = a0 * b0 + top * r0, a0 * b1 + a1 * b0 + top * r1
            else:
                c0, c1 = d * a0 * b0 + top * r0, d * (a0 * b1 + a1 * b0) + top * r1
                den *= d
            if den != 1:
                g = math.gcd(den, c0, c1)
                if g != 1:
                    c0, c1, den = c0 // g, c1 // g, den // g
            return FieldElement(field, (c0, c1), den)
        return _reduced(field, tuple(field._product(self.num, other.num)), den * field._rows_den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        num, den = self.num, self.den
        n = field.degree
        if n == 1:
            a = num[0]
            return FieldElement(field, (den if a > 0 else -den,), abs(a))
        d = field._rows_den
        if n == 2:
            # conjugate over norm; with x^2 = (r0 + r1 x)/d the conjugate of
            # a0 + a1 x is (d a0 + r1 a1 - d a1 x)/d and its norm is norm/d
            a0, a1 = num
            r0, r1 = field._rows[0]
            norm = d * a0 * a0 + r1 * a0 * a1 - r0 * a1 * a1
            inv = (den * (d * a0 + r1 * a1), -den * d * a1)
        else:
            # the first column of the adjugate of d times the multiplication
            # matrix of the integer element num, expanded along its first row
            unit = [0] * n
            cols = []
            for j in range(n):
                unit[j] = 1
                cols.append(field._product(num, unit))
                unit[j] = 0
            cofactors = []
            for i in range(n):
                minor = [[cols[j][r] for j in range(n) if j != i] for r in range(1, n)]
                det = _minor_det(minor)
                cofactors.append(-det if i & 1 else det)
            norm = sum(cols[i][0] * c for i, c in enumerate(cofactors))
            inv = tuple(den * d * c for c in cofactors)
        if norm == 0:
            raise FieldError("element not invertible; minimal polynomial not irreducible?")
        if norm < 0:
            norm, inv = -norm, tuple(-c for c in inv)
        return _reduced(field, inv, norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_rational() and other.num[0] == other.den:  # other is one
            return self.inverse()
        return other * self.inverse()

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
        return (self.num == other.num and self.den == other.den
                and self.field == other.field)

    def __hash__(self):
        num, den = self.num, self.den
        if not any(num[1:]):
            return hash(num[0]) if den == 1 else hash(Fraction(num[0], den))
        return hash((self.field._hash, num, den))

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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num == other.den:  # other is one: num/den is reduced, den monic
            return self.inverse()
        return other * self.inverse()

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
        # a constant hashes like its coefficient, which it compares equal to
        if len(self.den) == 1 and len(self.num) <= 1:
            return hash(self.num[0]) if self.num else 0
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
