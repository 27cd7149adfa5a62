"""Exact linear algebra over the rationals and number fields.

Ranks are computed by fraction-free (Bareiss) elimination, kernels by
Gauss-Jordan over the fraction field.  The Gram matrices of divisor classes
live here, together with the two independent ways of computing the dimension
of the group-invariant part: orbit-sum compression and trace averaging
through the kernel of the pairing.

Scalars are duck-typed: plain int/Fraction, FieldElement, and
RationalFunction entries all work, since every one of them supports exact
+, -, *, / and truth-testing.
"""

from __future__ import annotations

import json
from fractions import Fraction


class InvalidPartition(ValueError):
    pass


class ActionNotGramPreserving(ValueError):
    pass


def _lift(x):
    # plain ints would fall into float division; everything else divides exactly
    return Fraction(x) if isinstance(x, int) else x


def _rows_of(m):
    if isinstance(m, ExactMatrix):
        return [[_lift(x) for x in r] for r in m.entries]
    return [[_lift(x) for x in r] for r in m]


class ExactMatrix:
    """A rectangular matrix of exact scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        if any(len(r) != self.cols for r in entries):
            raise ValueError("ragged matrix")

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def transpose(self):
        return ExactMatrix(list(zip(*self.entries)))


def rank(m):
    """Rank by fraction-free Bareiss elimination with column pivot search."""
    a = _rows_of(m)
    if not a or not a[0]:
        return 0
    nrows, ncols = len(a), len(a[0])
    r = 0
    prev = None  # denominator of the previous step; skipped on the first pivot
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][col]
        for i in range(r + 1, nrows):
            ai = a[i]
            if not ai[col] and prev is None:
                continue
            head = ai[col]
            for j in range(col + 1, ncols):
                num = ai[j] * p - head * a[r][j]
                ai[j] = num if prev is None else num / prev
            ai[col] = head - head  # exact zero of the right type
        prev = p
        r += 1
        if r == nrows:
            break
    return r


def kernel_basis(m):
    """Basis of the right kernel, computed over the fraction field."""
    a = _rows_of(m)
    if not a:
        return []
    nrows, ncols = len(a), len(a[0])
    pivots = []  # (row, col)
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][col]
        a[r] = [x / inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    pivot_cols = {col for _, col in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    one = Fraction(1)
    zero = Fraction(0)
    for row in a:
        for x in row:
            if x:
                one = x / x
                zero = x - x
                break
        else:
            continue
        break
    basis = []
    for f in free_cols:
        v = [zero] * ncols
        v[f] = one
        for rr, cc in pivots:
            v[cc] = -a[rr][f]
        basis.append(tuple(v))
    return basis


def determinant(m):
    """Exact determinant by fraction-free elimination."""
    a = _rows_of(m)
    n = len(a)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return a[k][k]  # a zero of the right type
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * p - a[i][k] * a[k][j]
                a[i][j] = num if prev is None else num / prev
            a[i][k] = a[i][k] - a[i][k]
        prev = p
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def solve_right(a_rows, b_cols):
    """Solve A X = B column by column; returns X or None if inconsistent."""
    a = [[_lift(x) for x in r] for r in a_rows]
    b = [[_lift(x) for x in r] for r in b_cols]
    nrows = len(a)
    ncols = len(a[0])
    width = len(b[0])
    aug = [a[i] + b[i] for i in range(nrows)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][col]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
    for i in range(r, nrows):
        if any(aug[i][ncols:]):
            return None
    x = [[Fraction(0)] * width for _ in range(ncols)]
    for rr, cc in pivots:
        x[cc] = aug[rr][ncols:]
    return x


# ---------------------------------------------------------------------------
# Gram matrices of divisor classes
# ---------------------------------------------------------------------------

SELF_PAIRING = -2  # self-intersection of a smooth rational curve on a K3 section


class GramMatrix:
    """Symmetric pairing matrix of labelled divisor classes, diagonal -2."""

    __slots__ = ("labels", "matrix")

    def __init__(self, labels, entries):
        self.labels = tuple(labels)
        mat = ExactMatrix(entries) if not isinstance(entries, ExactMatrix) else entries
        n = len(self.labels)
        if mat.rows != n or mat.cols != n:
            raise ValueError("label/matrix size mismatch")
        for i in range(n):
            if mat.entries[i][i] != SELF_PAIRING:
                raise ValueError(f"diagonal entry at {i} is not {SELF_PAIRING}")
            for j in range(i + 1, n):
                if mat.entries[i][j] != mat.entries[j][i]:
                    raise ValueError(f"pairing not symmetric at ({i},{j})")
        self.matrix = mat

    @classmethod
    def from_pairing(cls, labels, pairing):
        labels = tuple(labels)
        n = len(labels)
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = SELF_PAIRING
            for j in range(i + 1, n):
                v = pairing(labels[i], labels[j])
                entries[i][j] = v
                entries[j][i] = v
        return cls(labels, entries)

    @property
    def size(self):
        return len(self.labels)

    def entry(self, i, j):
        return self.matrix.entries[i][j]

    def submatrix(self, indices):
        indices = list(indices)
        labels = [self.labels[i] for i in indices]
        entries = [[self.matrix.entries[i][j] for j in indices] for i in indices]
        return GramMatrix(labels, entries)

    def rank(self):
        return rank(self.matrix)

    def to_json(self):
        return json.dumps(
            {"labels": [str(l) for l in self.labels],
             "rows": [[int(x) for x in row] for row in self.matrix.entries]},
            indent=0,
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(tuple(data["labels"]), data["rows"])


def orbit_sum_gram(gram, orbits):
    """Pairing matrix of orbit sums for a partition of the class list."""
    n = gram.size
    seen = set()
    for orbit in orbits:
        for i in orbit:
            if i in seen or not (0 <= i < n):
                raise InvalidPartition("orbits must partition the class indices")
            seen.add(i)
    if len(seen) != n:
        raise InvalidPartition("orbits do not cover every class")
    entries = []
    for oa in orbits:
        row = []
        for ob in orbits:
            total = 0
            for i in oa:
                gi = gram.matrix.entries[i]
                for j in ob:
                    total += gi[j]
            row.append(Fraction(total))
        entries.append(row)
    return ExactMatrix(entries)


def _perm_images(g):
    images = getattr(g, "images", g)
    return tuple(images)


def invariant_dimension_via_trace(gram, group_perms):
    """Dimension of the invariants of V/K under the class permutation action.

    V is the permutation module on the classes and K the kernel of the Gram
    form; the dimension is the averaged difference between fixed-point counts
    on V and traces on K, evaluated with an explicit kernel basis.
    """
    n = gram.size
    perms = [_perm_images(g) for g in group_perms]
    entries = gram.matrix.entries
    for images in perms:
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
    basis = kernel_basis(gram.matrix)
    k = len(basis)
    total = Fraction(0)
    if k == 0:
        for images in perms:
            total += sum(1 for i in range(n) if images[i] == i)
    else:
        cols = [list(v) for v in basis]  # k vectors of length n
        # pivot rows making the k x k submatrix invertible
        bt = [[cols[a][i] for i in range(n)] for a in range(k)]
        pivot_rows = []
        work = [row[:] for row in bt]
        r = 0
        for col in range(n):
            pivot = next((i for i in range(r, k) if work[i][col]), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            inv = work[r][col]
            work[r] = [x / inv for x in work[r]]
            for i in range(k):
                if i != r and work[i][col]:
                    f = work[i][col]
                    work[i] = [x - f * y for x, y in zip(work[i], work[r])]
            pivot_rows.append(col)
            r += 1
            if r == k:
                break
        if r != k:
            raise ValueError("kernel basis is degenerate")
        bp = [[cols[b][p] for b in range(k)] for p in pivot_rows]
        ident = [[Fraction(1) if i == j else Fraction(0) for j in range(k)] for i in range(k)]
        left = solve_right(bp, ident)
        if left is None:
            raise ValueError("failed to invert the pivot submatrix")
        for images in perms:
            inv_images = [0] * n
            for i, img in enumerate(images):
                inv_images[img] = i
            fix = sum(1 for i in range(n) if images[i] == i)
            tr = Fraction(0)
            for a in range(k):
                la = left[a]
                for b in range(k):
                    tr += la[b] * cols[a][inv_images[pivot_rows[b]]]
            total += fix - tr
    value = total / len(perms)
    if value.denominator != 1:
        raise ValueError(f"trace average {value} is not an integer")
    return int(value)
