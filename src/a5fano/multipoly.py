"""Sparse multivariate polynomials over any exact scalar field.

Terms are stored as a map from exponent tuples to nonzero scalars; the
monomial order is graded lexicographic throughout, which fixes leading terms
for the square-root recursion and makes printing canonical.  The same engine
serves every base field in the package (Q, Q(omega), Q(phi), the degree-4
tower, and rational-function fields).  Plane curves are certified by ranks:
a conic by its symmetric matrix, a cubic's smoothness by one 6x6 resultant
matrix built from its gradient and its Hessian's gradient.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import FieldMismatch, NumberField, rational_sqrt, sqrt_in_field
from .lattice import _echelon, determinant


class RingMismatch(ValueError):
    pass


class DegenerateLine(ValueError):
    pass


def _grlex(exps):
    return (sum(exps), exps)


class PolyRing:
    """A polynomial ring: variable names plus a scalar field."""

    __slots__ = ("field", "names", "arity", "_hash")

    def __init__(self, field, names):
        self.field = field
        self.names = tuple(names)
        self.arity = len(self.names)
        self._hash = hash((field, self.names))

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PolyRing({','.join(self.names)}; {self.field!r})"

    @property
    def zero(self):
        return MPoly(self, {})

    @property
    def one(self):
        return MPoly(self, {(0,) * self.arity: self.field.one})

    def gens(self):
        out = []
        for i in range(self.arity):
            e = [0] * self.arity
            e[i] = 1
            out.append(MPoly(self, {tuple(e): self.field.one}))
        return tuple(out)

    def monomial(self, exps, coeff=1):
        c = self.field(coeff)
        exps = tuple(exps)
        if len(exps) != self.arity:
            raise RingMismatch("exponent arity mismatch")
        if c.is_zero():
            return self.zero
        return MPoly(self, {exps: c})

    def __call__(self, value):
        if isinstance(value, MPoly):
            if value.ring != self:
                raise RingMismatch("polynomial from another ring")
            return value
        if isinstance(value, dict):
            terms = {}
            for exps, c in value.items():
                c = self.field(c)
                if not c.is_zero():
                    terms[tuple(exps)] = c
            return MPoly(self, terms)
        c = self.field(value)
        if c.is_zero():
            return self.zero
        return MPoly(self, {(0,) * self.arity: c})


class MPoly:
    """Immutable sparse polynomial; no zero coefficients are ever stored."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def degree_in(self, var):
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ring != self.ring:
                raise RingMismatch("polynomials from different rings")
            return other
        try:
            return self.ring(other)
        except (FieldMismatch, TypeError, ValueError):
            return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s.is_zero():
                    del terms[e]
                else:
                    terms[e] = s
        return MPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MPoly):
            if other.ring != self.ring:
                raise RingMismatch("polynomials from different rings")
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    c = c1 * c2
                    s = terms.get(e)
                    if s is None:
                        terms[e] = c
                    else:
                        s = s + c
                        if s.is_zero():
                            del terms[e]
                        else:
                            terms[e] = s
            return MPoly(self.ring, {e: c for e, c in terms.items() if not c.is_zero()})
        # scalar multiplication
        try:
            c0 = self.ring.field(other)
        except (FieldMismatch, TypeError, ValueError):
            return NotImplemented
        if c0.is_zero():
            return self.ring.zero
        return MPoly(self.ring, {e: c * c0 for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c0 = self.ring.field(scalar)
        return MPoly(self.ring, {e: c / c0 for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.ring == other.ring and self.terms == other.terms
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self):
        if self._hash is None:
            terms = self.terms
            if len(terms) > 1 or (terms and any(next(iter(terms)))):
                self._hash = hash((self.ring, frozenset(terms.items())))
            else:
                # a constant hashes like its coefficient, which it compares equal to
                self._hash = hash(terms.get((0,) * self.ring.arity, 0))
        return self._hash

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _grlex(item[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = str(c)
            if not factors:
                parts.append(f"({cs})" if ("+" in cs or " - " in cs) else cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                wrapped = f"({cs})" if ("+" in cs or " " in cs or "-" in cs[1:]) else cs
                parts.append(wrapped + "*" + "*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def substitute(p, images):
    """Compose p with the given variable images (all in one target ring)."""
    if len(images) != p.ring.arity:
        raise RingMismatch("one image required per variable")
    target = images[0].ring
    for img in images:
        if img.ring != target:
            raise RingMismatch("images live in different rings")
    if target.field != p.ring.field:
        raise RingMismatch("scalar fields differ; embed coefficients first")
    powers = [{0: target.one} for _ in images]

    def power(i, e):
        cache = powers[i]
        if e not in cache:
            half = power(i, e // 2)
            sq = half * half
            cache[e] = sq if e % 2 == 0 else sq * images[i]
        return cache[e]

    acc = target.zero
    for exps, c in p.terms.items():
        term = target(c)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        acc = acc + term
    return acc


def partial_derivative(p, var):
    terms = {}
    for exps, c in p.terms.items():
        e = exps[var]
        if e == 0:
            continue
        new = list(exps)
        new[var] = e - 1
        c2 = c * e
        if not c2.is_zero():
            terms[tuple(new)] = c2
    return MPoly(p.ring, terms)


def gradient(p):
    return [partial_derivative(p, i) for i in range(p.ring.arity)]


def evaluate(p, point):
    """Evaluate at a point of scalars (length = arity)."""
    field = p.ring.field
    point = [field(c) for c in point]
    acc = field.zero
    for exps, c in p.terms.items():
        val = c
        for x, e in zip(point, exps):
            for _ in range(e):
                val = val * x
        acc = acc + val
    return acc


def hessian_at(p, point):
    """Matrix of second partials of p evaluated at the point."""
    n = p.ring.arity
    firsts = [partial_derivative(p, i) for i in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(evaluate(partial_derivative(firsts[i], j), point))
        rows.append(row)
    return rows


def node_failure(f, point):
    """Why `point` is not a node of the hypersurface f = 0, or None if it is.

    A node is a point where every first partial of f vanishes and the
    Hessian of f, dehomogenised on the first chart where the point is
    nonzero and taken at the point scaled into that chart, is nonsingular.
    """
    chart = next(i for i, c in enumerate(point) if not c.is_zero())
    scale = point[chart].inverse()
    point = [c * scale for c in point]
    for pd in gradient(f):
        if not evaluate(pd, point).is_zero():
            return "gradient does not vanish"
    affine_pt = [c for i, c in enumerate(point) if i != chart]
    if determinant(hessian_at(dehomogenize(f, chart), affine_pt)).is_zero():
        return "degenerate quadratic part"
    return None


def dehomogenize(p, var, names=None):
    """Set variable `var` to 1, returning a polynomial in the remaining variables."""
    keep = [i for i in range(p.ring.arity) if i != var]
    if names is None:
        names = tuple(p.ring.names[i] for i in keep)
    ring = PolyRing(p.ring.field, names)
    terms = {}
    for exps, c in p.terms.items():
        e = tuple(exps[i] for i in keep)
        s = terms.get(e)
        terms[e] = c if s is None else s + c
    return MPoly(ring, {e: c for e, c in terms.items() if not c.is_zero()})


def restrict_to_line(p, base, direction):
    """p evaluated on the line u*base + t*direction, as a binary form in (u, t)."""
    field = p.ring.field
    base = [field(c) for c in base]
    direction = [field(c) for c in direction]
    if len(base) != p.ring.arity or len(direction) != p.ring.arity:
        raise DegenerateLine("point arity mismatch")
    # proportionality check: all 2x2 minors vanish
    independent = False
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            if not (base[i] * direction[j] - base[j] * direction[i]).is_zero():
                independent = True
                break
        if independent:
            break
    if not independent:
        raise DegenerateLine("base and direction are projectively equal")
    ring2 = PolyRing(field, ("u", "t"))
    u, t = ring2.gens()
    images = [ring2(b) * u + ring2(d) * t for b, d in zip(base, direction)]
    return substitute(p, images)


def divmod_single(p, d):
    """Division by a single divisor in graded-lex order; returns (q, r).

    When d divides p exactly the remainder is zero, so this decides exact
    divisibility.
    """
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ring = p.ring
    if d.ring != ring:
        raise RingMismatch("divisor from another ring")
    de, dc = d.leading()
    q = ring.zero
    r = ring.zero
    work = p
    while not work.is_zero():
        we, wc = work.leading()
        diff = tuple(a - b for a, b in zip(we, de))
        if all(x >= 0 for x in diff):
            t = ring.monomial(diff, wc / dc)
            q = q + t
            work = work - t * d
        else:
            t = ring.monomial(we, wc)
            r = r + t
            work = work - t
    return q, r


def exact_divide(p, d):
    q, r = divmod_single(p, d)
    if not r.is_zero():
        raise ValueError("division is not exact")
    return q


# ---------------------------------------------------------------------------
# square roots
# ---------------------------------------------------------------------------

def scalar_sqrt(field, a):
    """A square root of scalar a in its number field, or None; raises when undecidable."""
    if isinstance(field, NumberField):
        if field.degree <= 2:
            return sqrt_in_field(a)
        if a.is_rational():
            r = rational_sqrt(a.rational_value())
            return None if r is None else field(r)
        raise FieldMismatch("square root undecidable in this field")
    raise FieldMismatch("unsupported scalar field")


def exact_square_root(p):
    """q with q*q == p, solved from the leading term down, or None.

    A monic p needs no scalar square root, so it may have coefficients in
    any field; otherwise the leading coefficient's root comes from
    `scalar_sqrt`, which knows number fields only.

    The loop ends.  The leading monomial of r = p - q*q lies below that of
    p, so each term added to q lies below t1, and each step cancels r's
    leading term and adds only terms below it.  So r's leading monomial
    strictly falls in grlex order while staying below p's, and only finitely
    many monomials lie below a given one.
    """
    if p.is_zero():
        return p
    ring = p.ring
    le, lc = p.leading()
    if any(e % 2 for e in le):
        return None
    root = ring.field.one if lc == ring.field.one else scalar_sqrt(ring.field, lc)
    if root is None:
        return None
    t1 = ring.monomial(tuple(e // 2 for e in le), root)
    q = t1
    r = p - q * q
    e1, c1 = t1.leading()
    while not r.is_zero():
        we, wc = r.leading()
        diff = tuple(a - b for a, b in zip(we, e1))
        if any(x < 0 for x in diff):
            return None
        t = ring.monomial(diff, wc / (2 * c1))
        q = q + t
        r = p - q * q
    return q


# ---------------------------------------------------------------------------
# resultants and plane-curve certificates
# ---------------------------------------------------------------------------

def _coefficients_in(p, var):
    """Coefficient list of p along one variable; entries are ring elements."""
    ring = p.ring
    n = p.degree_in(var)
    out = [ring.zero] * (n + 1)
    for exps, c in p.terms.items():
        e = list(exps)
        k = e[var]
        e[var] = 0
        out[k] = out[k] + MPoly(ring, {tuple(e): c})
    return out


def _bareiss_det_poly(rows):
    """Fraction-free (Bareiss) determinant: `MPoly` has no exact `/` for `lattice._echelon`.

    Serves the Sylvester matrices of `sylvester_resultant` and the Hessian
    determinant in `ternary_cubic_is_smooth`.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    ring = rows[0][0].ring
    m = [list(r) for r in rows]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot is None:
                return ring.zero
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev) if not num.is_zero() else ring.zero
            m[i][k] = ring.zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_resultant(p, q, var):
    """Resultant eliminating `var`, via fraction-free expansion of the Sylvester matrix."""
    if p.is_zero() or q.is_zero():
        return p.ring.zero
    ring = p.ring
    if q.ring != ring:
        raise RingMismatch("resultant operands from different rings")
    pc = _coefficients_in(p, var)
    qc = _coefficients_in(q, var)
    m, n = len(pc) - 1, len(qc) - 1
    if m == 0 and n == 0:
        return ring.one
    if m == 0:
        return pc[0] ** n
    if n == 0:
        return qc[0] ** m
    size = m + n
    rows = []
    for i in range(m):
        row = [ring.zero] * size
        for j, c in enumerate(reversed(qc)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [ring.zero] * size
        for j, c in enumerate(reversed(pc)):
            row[i + j] = c
        rows.append(row)
    return _bareiss_det_poly(rows)


def ternary_conic_classify(q):
    """Classify a ternary quadric by the rank of its symmetric matrix."""
    if q.ring.arity != 3 or q.is_zero() or q.total_degree() != 2 or not q.is_homogeneous():
        raise RingMismatch("expected a nonzero ternary quadratic form")
    field = q.ring.field
    half = field(Fraction(1, 2))
    mat = [[field.zero] * 3 for _ in range(3)]
    for exps, c in q.terms.items():
        idx = [i for i, e in enumerate(exps) for _ in range(e)]
        i, j = idx[0], idx[1]
        if i == j:
            mat[i][i] = c
        else:
            mat[i][j] = c * half
            mat[j][i] = c * half
    rank = len(_echelon(mat)[1])
    return {3: "irreducible", 2: "line-pair", 1: "double-line"}[rank]


_QUADRATIC_MONOMIALS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def ternary_cubic_is_smooth(c):
    """Whether a ternary cubic defines a smooth plane curve.

    In characteristic 0 the curve is smooth iff its three partials, plane
    conics, have no common zero in P^2, that is iff their resultant is
    nonzero.  By Sylvester's formula for three ternary quadrics (Cox, Little
    and O'Shea, *Using Algebraic Geometry*, ch. 3 sec. 2) that resultant is a
    nonzero constant times the 6x6 determinant of the coefficients, on the
    six quadratic monomials, of the three partials and of the three partials
    of their Jacobian, here the Hessian determinant H of c.
    """
    if c.ring.arity != 3 or c.total_degree() != 3 or not c.is_homogeneous():
        raise RingMismatch("expected a ternary cubic form")
    firsts = gradient(c)
    hessian = _bareiss_det_poly([gradient(p) for p in firsts])
    rows = [[q.coefficient(e) for e in _QUADRATIC_MONOMIALS]
            for q in firsts + gradient(hessian)]
    return len(_echelon(rows)[1]) == 6
