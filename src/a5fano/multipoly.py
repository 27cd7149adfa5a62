"""Sparse multivariate polynomials over any exact scalar field.

Terms are stored as a map from exponent tuples to nonzero scalars; the
monomial order is graded lexicographic throughout, which fixes leading terms
for the square-root recursion and makes printing canonical.  The same engine
serves every base field in the package (Q, Q(omega), Q(phi), the degree-4
tower, and rational-function fields).
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import (
    FieldMismatch,
    NumberField,
    RationalFunction,
    RationalFunctionField,
    _poly_gcd_monic,
    _trim,
    rational_sqrt,
    sqrt_in_field,
)
from .lattice import _echelon, determinant


class RingMismatch(ValueError):
    pass


class DegenerateLine(ValueError):
    pass


class UndecidedSmoothness(RuntimeError):
    """The resultant certificates stayed inconclusive on every chart tried."""


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
    """A square root of scalar a in its field, or None; raises when undecidable."""
    if isinstance(field, NumberField):
        if field.degree <= 2:
            return sqrt_in_field(a)
        if a.is_rational():
            r = rational_sqrt(a.rational_value())
            return None if r is None else field(r)
        raise FieldMismatch("square root undecidable in this field")
    if isinstance(field, RationalFunctionField):
        sn = _dense_sqrt(list(a.num), field.base)
        if sn is None:
            return None
        sd = _dense_sqrt(list(a.den), field.base)
        if sd is None:
            return None
        return RationalFunction(field, tuple(sn), tuple(sd)).normalized()
    raise FieldMismatch("unsupported scalar field")


def _dense_sqrt(coeffs, base):
    """Square root of a dense univariate polynomial over `base`, or None."""
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        return []
    deg = len(coeffs) - 1
    if deg % 2:
        return None
    lead = scalar_sqrt(base, coeffs[-1])
    if lead is None:
        return None
    half = deg // 2
    q = [base.zero] * (half + 1)
    q[half] = lead
    # coefficients from the top down: the x^(deg-k) term of q^2 is
    # 2*q[half]*q[half-k] plus ordered cross products of known entries
    for k in range(1, half + 1):
        idx = half - k
        cross = base.zero
        for i in range(idx + 1, half):
            cross = cross + q[i] * q[deg - k - i]
        q[idx] = (coeffs[deg - k] - cross) / (2 * lead)
    # verify the lower half
    sq = [base.zero] * (deg + 1)
    for i in range(half + 1):
        for j in range(half + 1):
            sq[i + j] = sq[i + j] + q[i] * q[j]
    if all((sq[i] - coeffs[i]).is_zero() if i < len(coeffs) else sq[i].is_zero() for i in range(deg + 1)):
        return q
    return None


def exact_square_root(p):
    """q with q*q == p, solved from the leading term down, or None."""
    if p.is_zero():
        return p
    ring = p.ring
    le, lc = p.leading()
    if any(e % 2 for e in le):
        return None
    try:
        root = scalar_sqrt(ring.field, lc)
    except FieldMismatch:
        if lc == ring.field.one:
            root = ring.field.one
        else:
            raise
    if root is None:
        return None
    t1 = ring.monomial(tuple(e // 2 for e in le), root)
    q = t1
    r = p - q * q
    e1, c1 = t1.leading()
    guard = 100000
    while not r.is_zero():
        guard -= 1
        if guard < 0:
            return None
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
    """Fraction-free (Bareiss) determinant: `MPoly` has no exact `/` for `lattice._echelon`."""
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


def _univariate_common_root(polys):
    """Whether nonzero dense univariates over a field share a root in C.

    Zero polynomials impose no constraint; an empty or all-zero family counts
    as having roots everywhere.
    """
    dense = [_trim(list(c)) for c in polys]
    dense = [d for d in dense if d]
    if not dense:
        return True
    g = dense[0]
    for d in dense[1:]:
        g = _poly_gcd_monic(g, d)
        if len(g) == 1:
            return False
    return len(g) > 1


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


_CHART_TRANSFORMS = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 1), (0, 1, 1), (0, 0, 1)),
    ((1, 2, 0), (0, 1, 1), (1, 0, 1)),
    ((1, 1, 1), (0, 1, 2), (0, 0, 1)),
    ((2, 1, 1), (1, 3, 1), (1, 1, 4)),
)


def _binary_common_root(forms):
    """Common projective root of binary forms (arity-2 MPolys) over C."""
    field = forms[0].ring.field
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        return True
    # the point [1:0]
    if all(evaluate(f, [field.one, field.zero]).is_zero() for f in nonzero):
        return True
    # points [t:1]
    dense = [binary_to_univariate_poly(f) for f in nonzero]
    return _univariate_common_root(dense)


def binary_to_univariate_poly(f):
    n = f.degree_in(0)
    out = [f.ring.field.zero] * (n + 1)
    for exps, c in f.terms.items():
        out[exps[0]] = out[exps[0]] + c
    return out


def _common_root_on_fiber(qs, beta, field):
    """Whether the three conics share a zero with first coordinate beta."""
    specialized = []
    for q in qs:
        coeffs = _coefficients_in(q, 1)
        vals = [evaluate(c, [beta, field.zero]) for c in coeffs]
        specialized.append(vals)
    nonzero = [v for v in specialized if any(not x.is_zero() for x in v)]
    if not nonzero:
        return True
    return _univariate_common_root(nonzero)


def _conics_have_common_zero(q0, q1, q2):
    """Decide a common affine zero of three conics in two variables.

    Returns True/False, or None when the resultant certificate is inconclusive
    for this chart.  A common zero forces the first coordinate to be a common
    root of the pairwise resultants against the pivot conic (away from the
    pivot's leading-coefficient locus, handled separately); candidate fibers
    cut out in degree one are then decided by direct substitution.
    """
    ring = q0.ring
    field = ring.field
    qs = [q0, q1, q2]
    degs = [q.degree_in(1) for q in qs]
    if max(degs) <= 0:
        # no second variable at all: common root of univariates in x1
        dense = [dense_univariate(q, 0) for q in qs if not q.is_zero()]
        if not dense:
            return True
        return _univariate_common_root(dense)
    star = max(range(3), key=lambda i: degs[i])
    others = [i for i in range(3) if i != star]
    resultants = []
    for j in others:
        if qs[j].is_zero():
            continue
        if qs[j].degree_in(1) == 0:
            resultants.append(qs[j])
        else:
            resultants.append(sylvester_resultant(qs[star], qs[j], 1))
    if not resultants:
        return True  # a single nonzero conic always has zeros over C
    if any(r.is_zero() for r in resultants):
        return None
    dense = [_trim(dense_univariate(r, 0)) for r in resultants]
    g = dense[0]
    for d in dense[1:]:
        g = _poly_gcd_monic(g, d)
    candidates = []
    undecided = False
    if len(g) == 2:
        candidates.append(-g[0] / g[1])
    elif len(g) > 2:
        undecided = True
    lead = _coefficients_in(qs[star], 1)[-1]
    if degs[star] == 1:
        # linear pivot: its leading coefficient may vanish along one fiber
        lc = dense_univariate(lead, 0)
        if len(lc) > 1:
            candidates.append(-lc[0] / lc[1])
    for beta in candidates:
        if _common_root_on_fiber(qs, beta, field):
            return True
    if undecided:
        return None
    return False


def ternary_cubic_is_smooth(c):
    """Whether a ternary cubic defines a smooth plane curve.

    Decided by resultant chains on the partial derivatives, retried under a
    fixed schedule of invertible integer coordinate changes when a chart
    certificate is inconclusive.
    """
    if c.ring.arity != 3 or c.total_degree() != 3 or not c.is_homogeneous():
        raise RingMismatch("expected a ternary cubic form")
    ring = c.ring
    gens = ring.gens()
    for mat in _CHART_TRANSFORMS:
        images = []
        for row in mat:
            img = ring.zero
            for coef, g in zip(row, gens):
                if coef:
                    img = img + g * coef
            images.append(img)
        cc = substitute(c, images)
        partials = gradient(cc)
        if any(p.is_zero() for p in partials):
            return False
        # points with x0 = 0
        binary_ring = PolyRing(ring.field, ("y1", "y2"))
        binaries = []
        for p in partials:
            terms = {}
            for exps, coef in p.terms.items():
                if exps[0] == 0:
                    terms[(exps[1], exps[2])] = coef
            binaries.append(MPoly(binary_ring, terms))
        if _binary_common_root(binaries):
            return False
        # points with x0 = 1
        chart = [dehomogenize(p, 0) for p in partials]
        got = _conics_have_common_zero(*chart)
        if got is True:
            return False
        if got is False:
            return True
    raise UndecidedSmoothness("no chart produced a conclusive certificate")
