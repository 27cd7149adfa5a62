"""Exact linear algebra over the rationals and number fields.

Every rank, kernel, determinant and linear solve goes through one forward
Gaussian elimination over the fraction field of the entries, `_echelon`;
kernels and solutions are read off its echelon rows by back-substitution.
The Gram matrices of divisor classes live here, together with the two
independent ways of computing the dimension of the group-invariant part:
orbit-sum compression and trace averaging through the kernel of the pairing.

The trace average need not visit every element.  The permutations of the
classes that preserve the pairing make up a group, so when the generators of
a group G preserve it, all of G does, and G maps the kernel K to itself.  The
character of G on V/K (V the permutation module on the classes) is then a
class function of G (Serre, Linear Representations of Finite Groups, §2),
and for a subgroup H of G the average over H is the average over one
representative per G-conjugacy class, weighted by how many elements of H lie
in that class.

Every function takes a matrix as a list or tuple of equally long rows.  The
scalars are duck-typed: plain int/Fraction, FieldElement, and
RationalFunction entries all work, since every one of them supports exact
+, -, *, / and truth-testing.
"""

from __future__ import annotations

from fractions import Fraction


class InvalidPartition(ValueError):
    pass


class ActionNotGramPreserving(ValueError):
    pass


def _lift(x):
    # plain ints would fall into float division; everything else divides exactly
    return Fraction(x) if isinstance(x, int) else x


def _rows_of(m):
    a = [[_lift(x) for x in r] for r in m]
    if any(len(r) != len(a[0]) for r in a):
        raise ValueError("ragged matrix")
    return a


def _echelon(m):
    """Forward Gaussian elimination over the fraction field of the entries.

    Returns (rows, pivots, inverses, det): the rows in echelon form, the
    pivot column of each nonzero row, the inverse of each pivot, and the
    product of the pivots, negated once per row swap.  Only the rows below
    a pivot are reduced, and pivot rows are not normalised; the rows after
    the last pivot row are zero.
    """
    a = _rows_of(m)
    nrows = len(a)
    pivots, inverses = [], []
    det = 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][col]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            det = -det
        row = a[r]
        inv = 1 / row[col]
        det = det * row[col]
        for i in range(r + 1, nrows):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [x - f * y if y else x for x, y in zip(a[i], row)]
        pivots.append(col)
        inverses.append(inv)
    return a, pivots, inverses, det


def _back_substitute(rows, pivots, inverses, n, col):
    """The x of length n, zero at the free columns, for which each pivot row
    of `_echelon`'s output times x equals that row's entry in column col."""
    zero = rows[0][col] - rows[0][col]
    x = [zero] * n
    for i in range(len(pivots) - 1, -1, -1):
        row, c = rows[i], pivots[i]
        acc = row[col]
        for j in range(c + 1, n):
            if x[j]:
                acc = acc - row[j] * x[j]
        x[c] = acc * inverses[i]
    return x


def rank(m):
    """Number of pivots of the echelon form."""
    return len(_echelon(m)[1])


def _kernel(m):
    """The free columns of the echelon form of m and the kernel basis
    described in `kernel_basis`."""
    rows, pivots, inverses, _ = _echelon(m)
    if not rows:
        return [], []
    n = len(rows[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [-x for x in _back_substitute(rows, pivots, inverses, n, f)]
        v[f] += 1  # v[f] was zero
        basis.append(tuple(v))
    return free, basis


def kernel_basis(m):
    """Basis of the right kernel: vector a is 1 at the a-th free column of the
    echelon form and 0 at the other free columns."""
    return _kernel(m)[1]


def determinant(m):
    """Exact determinant: the signed product of the echelon pivots."""
    rows, pivots, _, det = _echelon(m)
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if len(rows[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    return det if len(pivots) == n else rows[-1][-1]  # a zero of the right type


def solve_right(a_rows, b_cols):
    """Solve A X = B column by column; returns X or None if inconsistent."""
    n = len(a_rows[0])
    rows, pivots, inverses, _ = _echelon([list(a) + list(b) for a, b in zip(a_rows, b_cols)])
    if pivots and pivots[-1] >= n:
        return None  # a pivot in B: the augmented matrix has the larger rank
    cols = [_back_substitute(rows, pivots, inverses, n, n + t) for t in range(len(b_cols[0]))]
    return [[c[i] for c in cols] for i in range(n)]


# ---------------------------------------------------------------------------
# Gram matrices of divisor classes
# ---------------------------------------------------------------------------

SELF_PAIRING = -2  # self-intersection of a smooth rational curve on a K3 section


class GramMatrix:
    """Symmetric pairing matrix of labelled divisor classes, diagonal -2.

    `entries` is the tuple of its rows."""

    __slots__ = ("labels", "entries", "_free_and_basis")

    def __init__(self, labels, entries):
        self.labels = tuple(labels)
        self.entries = tuple(tuple(row) for row in entries)
        n = len(self.labels)
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError("label/matrix size mismatch")
        for i in range(n):
            if self.entries[i][i] != SELF_PAIRING:
                raise ValueError(f"diagonal entry at {i} is not {SELF_PAIRING}")
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"pairing not symmetric at ({i},{j})")
        self._free_and_basis = None

    @property
    def size(self):
        return len(self.labels)

    def entry(self, i, j):
        return self.entries[i][j]

    def submatrix(self, indices):
        indices = list(indices)
        labels = [self.labels[i] for i in indices]
        entries = [[self.entries[i][j] for j in indices] for i in indices]
        return GramMatrix(labels, entries)

    def rank(self):
        """The size less the number of free columns of the cached kernel."""
        return self.size - len(self.kernel()[0])

    def kernel(self):
        """The free columns and the kernel basis of `_kernel`, computed once;
        a GramMatrix is not changed after it is made."""
        if self._free_and_basis is None:
            self._free_and_basis = _kernel(self.entries)
        return self._free_and_basis


def orbit_sum_gram(gram, orbits):
    """Rows of the pairing matrix of orbit sums for a partition of the class
    list."""
    n = gram.size
    seen = set()
    for orbit in orbits:
        for i in orbit:
            if i in seen or not (0 <= i < n):
                raise InvalidPartition("orbits must partition the class indices")
            seen.add(i)
    if len(seen) != n:
        raise InvalidPartition("orbits do not cover every class")
    return [[sum(gram.entries[i][j] for i in oa for j in ob) for ob in orbits]
            for oa in orbits]


def invariant_dimension_via_trace(gram, weighted, gens):
    """Dimension of the invariants of V/K under a group H of class permutations.

    V is the permutation module on the classes and K the kernel of the Gram
    form.  Permutations are tuples of images.  `gens` generate a group G that
    contains H.  `weighted` lists (permutation, weight) pairs: either one
    representative of each G-conjugacy class that meets H, weighted by the
    number of elements of H in that class (the module docstring says why that
    gives the same average), or every element of H with weight 1.  Every
    permutation given, weighted or generator, must preserve the form.
    The dimension is the weighted average of the fixed-point count on V minus
    the trace on K.  The kernel basis is the identity on its free columns, so
    each trace is read off those columns directly.
    """
    n = gram.size
    if not gens:
        raise ValueError("no generators")
    if not weighted or any(not isinstance(w, int) or w < 1 for _, w in weighted):
        raise ValueError("weights must be positive integers")
    entries = gram.entries
    for images in {images for images, _ in weighted}.union(gens):
        if sorted(images) != list(range(n)):
            raise ActionNotGramPreserving("element does not permute the classes")
        for i in range(n):
            row = entries[i]
            prow = entries[images[i]]
            for j in range(n):
                if row[j] != prow[images[j]]:
                    raise ActionNotGramPreserving(
                        f"pairing not preserved at classes ({i},{j})"
                    )
    free, basis = gram.kernel()
    total = order = 0
    for images, weight in weighted:
        inv_images = [0] * n
        for i, img in enumerate(images):
            inv_images[img] = i
        fix = sum(1 for i in range(n) if images[i] == i)
        # g moves coordinate j to images[j], so the coefficient of b_a in
        # g b_a is the entry of g b_a at free_a, which is b_a[g^-1(free_a)]
        total += weight * (fix - sum(v[inv_images[f]] for v, f in zip(basis, free)))
        order += weight
    value = Fraction(total) / order
    if value.denominator != 1:
        raise ValueError(f"trace average {value} is not an integer")
    return int(value)
