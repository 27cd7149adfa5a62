"""Finite group machinery: coordinate permutations, exact projective matrices,
generator words, closure enumeration, and orbit computations.

Groups here are tiny (order <= 720), so they are enumerated in full; elements
are deduplicated by canonical forms (projective scaling for matrices).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .exactfield import FieldMismatch
from .lattice import _back_substitute, _echelon
from .multipoly import MPoly, RingMismatch, substitute


class OrderBoundExceeded(RuntimeError):
    pass


class UnboundLetter(KeyError):
    pass


class ConstructionFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

class Perm:
    """A permutation of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        self.images = images

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n, cycles):
        images = list(range(n))
        for cycle in cycles:
            for i, a in enumerate(cycle):
                images[a] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        # (p * q)(i) = p(q(i)): q acts first
        return Perm(tuple(self.images[other.images[i]] for i in range(len(self.images))))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Perm(inv)

    def cycle_type(self):
        """The cycle lengths, fixed points included, in decreasing order: a
        partition of the degree, equal on two permutations exactly when they
        are conjugate in the symmetric group."""
        seen = [False] * len(self.images)
        lengths = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def is_even(self):
        return sum(length - 1 for length in self.cycle_type()) % 2 == 0

    def fixed_points(self):
        return tuple(i for i, img in enumerate(self.images) if img == i)

    def act_point(self, coords):
        """Move coordinate i into slot images[i]."""
        out = [None] * len(coords)
        for i, c in enumerate(coords):
            out[self.images[i]] = c
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.images}"


# ---------------------------------------------------------------------------
# exact projective matrices
# ---------------------------------------------------------------------------

class MatElem:
    """A square invertible matrix over a number field, compared projectively."""

    __slots__ = ("entries", "field", "_inv")

    def __init__(self, field, rows):
        entries = tuple(tuple(field(c) for c in row) for row in rows)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix must be square")
        self.field = field
        self.entries = entries
        self._inv = None
        if len(_echelon(entries)[1]) < n:
            raise ValueError("matrix is singular")

    @property
    def size(self):
        return len(self.entries)

    def __mul__(self, other):
        if not isinstance(other, MatElem):
            return NotImplemented
        if other.field != self.field or other.size != self.size:
            raise FieldMismatch("matrix size or field mismatch")
        n = self.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.field.zero
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return MatElem(self.field, rows)

    def inverse(self):
        if self._inv is not None:
            return self._inv
        n = self.size
        one, zero = self.field.one, self.field.zero
        rows, pivots, inverses, _ = _echelon(
            [list(row) + [one if i == j else zero for j in range(n)]
             for i, row in enumerate(self.entries)])
        cols = [_back_substitute(rows, pivots, inverses, n, n + t) for t in range(n)]
        self._inv = MatElem(self.field, [[c[i] for c in cols] for i in range(n)])
        return self._inv

    def transpose(self):
        return MatElem(self.field, list(zip(*self.entries)))

    def apply(self, coords):
        """Matrix times column vector."""
        coords = [self.field(c) for c in coords]
        out = []
        for row in self.entries:
            acc = self.field.zero
            for a, x in zip(row, coords):
                acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def projective_key(self):
        flat = [c for row in self.entries for c in row]
        scale = next(c for c in flat if not c.is_zero()).inverse()
        return tuple(c * scale for c in flat)

    def __eq__(self, other):
        return (
            isinstance(other, MatElem)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        rows = ["[" + ", ".join(str(c) for c in row) + "]" for row in self.entries]
        return "Mat[" + "; ".join(rows) + "]"


def identity_matrix(field, n):
    return MatElem(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])


def canonical_point(coords):
    """Scale a projective point so its first nonzero coordinate is 1."""
    coords = tuple(coords)
    scale = None
    for c in coords:
        if not c.is_zero():
            scale = c.inverse()
            break
    if scale is None:
        raise ValueError("the zero vector is not a projective point")
    return tuple(c * scale for c in coords)


# ---------------------------------------------------------------------------
# words over named generators
# ---------------------------------------------------------------------------

def parse_word(text):
    """Parse a word like "R^2 M^3" or "R N" or "Id" into (letter, exponent) pairs."""
    text = text.strip()
    if not text or text == "Id":
        return ()
    out = []
    for token in text.split():
        if "^" in token:
            letter, exp = token.split("^", 1)
            out.append((letter, int(exp)))
        else:
            out.append((token, 1))
    return tuple(out)


def eval_word(word, assignment, identity=None):
    """Left-to-right product of the word under the generator assignment."""
    if isinstance(word, str):
        word = parse_word(word)
    result = identity
    for letter, exp in word:
        if letter not in assignment:
            raise UnboundLetter(letter)
        g = assignment[letter]
        if exp < 0:
            g = g.inverse()
            exp = -exp
        for _ in range(exp):
            result = g if result is None else result * g
    if result is None:
        if identity is None:
            raise ValueError("empty word with no identity supplied")
        result = identity
    return result


# ---------------------------------------------------------------------------
# closure and orbits
# ---------------------------------------------------------------------------

def _element_key(g):
    if isinstance(g, MatElem):
        return g.projective_key()
    return g


def generate_group(generators, order_bound):
    """Full closure of the generators under multiplication.

    Matrices are deduplicated projectively.  Raises OrderBoundExceeded as soon
    as the closure grows past order_bound.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("no generators")
    first = generators[0]
    if isinstance(first, MatElem):
        identity = identity_matrix(first.field, first.size)
    else:
        identity = Perm.identity(first.degree)
    elements = {_element_key(identity): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                prod = g * h
                key = _element_key(prod)
                if key not in elements:
                    if len(elements) >= order_bound:
                        raise OrderBoundExceeded(
                            f"closure exceeds the stated bound {order_bound}"
                        )
                    elements[key] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(elements.values())


@dataclass(frozen=True)
class Orbit:
    representative: object
    members: frozenset
    stabilizer_order: int | None

    def __len__(self):
        return len(self.members)


def orbit_of(x, generators, act, canonicalize, group_order=None):
    """Breadth-first closure of {x} under the generator action.

    `act(g, y)` applies a generator, `canonicalize` must be idempotent and
    constant on projective scalings.
    """
    start = canonicalize(x)
    members = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for y in frontier:
            for g in generators:
                z = canonicalize(act(g, y))
                if z not in members:
                    members.add(z)
                    nxt.append(z)
        frontier = nxt
    stab = None
    if group_order is not None:
        if group_order % len(members):
            raise ConstructionFailed(
                f"orbit length {len(members)} does not divide group order {group_order}"
            )
        stab = group_order // len(members)
    return Orbit(start, frozenset(members), stab)


def index_orbits(perm_images):
    """Orbits of {0..n-1} under permutations given as image tuples."""
    n = len(perm_images[0])
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        orbit = [start]
        while stack:
            i = stack.pop()
            for images in perm_images:
                j = images[i]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
                    stack.append(j)
        orbits.append(sorted(orbit))
    return orbits


def cycle_type_counts(elements):
    """The number of permutations of each cycle type, ordered by type."""
    return dict(sorted(Counter(g.cycle_type() for g in elements).items()))


def act_on_poly(g, p):
    """The polynomial p composed with g^{-1} on the variables."""
    ring = p.ring
    if isinstance(g, Perm):
        if g.degree != ring.arity:
            raise RingMismatch("permutation degree does not match ring arity")
        terms = {}
        for exps, c in p.terms.items():
            e = [0] * len(exps)
            for i, v in enumerate(exps):
                e[g.images[i]] = v
            terms[tuple(e)] = c
        return MPoly(ring, terms)
    if isinstance(g, MatElem):
        if g.size != ring.arity:
            raise RingMismatch("matrix size does not match ring arity")
        if g.field != ring.field:
            raise RingMismatch("matrix field does not match ring field")
        inv = g.inverse()
        gens = ring.gens()
        images = []
        for i in range(g.size):
            img = ring.zero
            for j in range(g.size):
                c = inv.entries[i][j]
                if not c.is_zero():
                    img = img + gens[j] * c
            images.append(img)
        return substitute(p, images)
    raise TypeError(f"cannot act with {type(g).__name__}")


# ---------------------------------------------------------------------------
# S6, A6 and the two conjugacy classes of icosahedral subgroups inside S6
# ---------------------------------------------------------------------------

S6_GENERATORS = (Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)]))
# (0 1 2) and (1 2 ... n-1) generate A_n for even n
A6_GENERATORS = (Perm.from_cycles(6, [(0, 1, 2)]), Perm.from_cycles(6, [(1, 2, 3, 4, 5)]))
STANDARD_A5_GENERATORS = (
    Perm.from_cycles(6, [(0, 1, 2, 3, 4)]),
    Perm.from_cycles(6, [(0, 1, 2)]),
)
NONSTANDARD_A5_GENERATORS = (
    Perm.from_cycles(6, [(0, 1, 2, 3, 4)]),
    Perm.from_cycles(6, [(0, 5), (1, 4)]),
)


def _validated_a5(generators, transitive):
    group = generate_group(generators, order_bound=60)
    if len(group) != 60:
        raise ConstructionFailed(f"expected order 60, got {len(group)}")
    if not all(g.is_even() for g in group):
        raise ConstructionFailed("group contains odd permutations")
    moved = orbit_of(
        0, group, act=lambda g, i: g(i), canonicalize=lambda i: i, group_order=60
    )
    common = set(range(6))
    for g in group:
        common &= set(g.fixed_points())
    if transitive:
        if len(moved) != 6 or common:
            raise ConstructionFailed("expected a transitive action on 6 letters")
    else:
        if not common:
            raise ConstructionFailed("expected a global fixed point")
    return group


def subgroup_standard_A5():
    """The even permutations of {0..4} fixing the letter 5, as a full list."""
    return _validated_a5(STANDARD_A5_GENERATORS, transitive=False)


def subgroup_nonstandard_A5():
    """A transitive icosahedral subgroup of S6 (the projective-line action)."""
    return _validated_a5(NONSTANDARD_A5_GENERATORS, transitive=True)


def symmetric_group_s6():
    group = generate_group(S6_GENERATORS, order_bound=720)
    if len(group) != 720:
        raise ConstructionFailed("failed to generate the full symmetric group")
    return group


def alternating_group_a6():
    """The closure of A6_GENERATORS, checked to be the 360 even permutations."""
    group = generate_group(A6_GENERATORS, order_bound=360)
    if len(group) != 360 or not all(g.is_even() for g in group):
        raise ConstructionFailed("failed to generate the alternating group")
    return group
