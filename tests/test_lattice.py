import random
from fractions import Fraction

import pytest

from a5fano import barth as bt
from a5fano import burkhardt as bk
from a5fano.barth import load_table2
from a5fano.exactfield import golden_field, omega_field
from a5fano.groups import index_orbits
from a5fano.lattice import (
    ActionNotGramPreserving,
    GramMatrix,
    InvalidPartition,
    _kernel,
    determinant,
    invariant_dimension_via_trace,
    kernel_basis,
    orbit_sum_gram,
    rank,
    solve_right,
)


def naive_rref(rows):
    """Gauss-Jordan elimination to reduced row echelon form, the test-side
    oracle; returns the reduced rows and the pivot columns."""
    m = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    if not m:
        return m, []
    nr, nc = len(m), len(m[0])
    pivots = []
    for c in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def naive_rank(rows):
    return len(naive_rref(rows)[1])


def cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def test_rank_examples():
    assert rank([[1 if i == j else 0 for j in range(5)] for i in range(5)]) == 5
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1


def test_rank_matches_naive_elimination():
    rng = random.Random(13)
    for _ in range(120):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)]
        assert rank(rows) == naive_rank(rows)


def test_rank_over_number_field():
    field, phi = golden_field()
    # second row is phi times the first: phi*phi = phi+1
    rows = [
        [phi, field.one, field.zero],
        [phi + 1, phi, field.zero],
        [field.zero, field.zero, field.zero],
    ]
    assert rank(rows) == 1
    rows[1][1] = field.one
    assert rank(rows) == 2


def test_kernel_basis():
    assert len(kernel_basis([[0, 0, 0], [0, 0, 0], [0, 0, 0]])) == 3
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = kernel_basis(rows)
    assert len(basis) == 2
    for v in basis:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_determinant():
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        assert determinant(rows) == cofactor_det(rows)


def test_solve_right():
    a = [[1, 2], [3, 4]]
    x = solve_right(a, [[5], [6]])
    assert x is not None
    assert [Fraction(1) * a[i][0] * x[0][0] + a[i][1] * x[1][0] for i in range(2)] == [5, 6]
    assert solve_right([[1, 1], [1, 1]], [[0], [1]]) is None


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        GramMatrix(("a", "b"), [[-2, 1], [0, -2]])  # not symmetric
    with pytest.raises(ValueError):
        GramMatrix(("a", "b"), [[-1, 1], [1, -2]])  # wrong diagonal
    g = GramMatrix(("a", "b"), [[-2, 1], [1, -2]])
    assert g.rank() == 2


def test_gram_rank_from_kernel_matches_naive_elimination():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 7)
        rows = [[-2] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice((-2, 0, 1, 2))
        g = GramMatrix(range(n), rows)
        assert g.rank() == naive_rank(rows) == g.size - len(g.kernel()[1])


def test_orbit_sum_singletons_reproduce_matrix():
    g = GramMatrix(("a", "b", "c"), [[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    osum = orbit_sum_gram(g, [[0], [1], [2]])
    assert osum == [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]


def test_orbit_sum_partition_validation():
    g = GramMatrix(("a", "b"), [[-2, 1], [1, -2]])
    with pytest.raises(InvalidPartition):
        orbit_sum_gram(g, [[0]])
    with pytest.raises(InvalidPartition):
        orbit_sum_gram(g, [[0, 1], [1]])


def all_elements_trace_average(gram, perms):
    """The trace method as it stood before it took weighted class
    representatives: the form checked on every element, and the average of
    fixed points minus the trace on the kernel taken over every element."""
    n = gram.size
    entries = gram.entries
    for images in perms:
        if sorted(images) != list(range(n)):
            raise ActionNotGramPreserving("element does not permute the classes")
        for i in range(n):
            for j in range(n):
                if entries[i][j] != entries[images[i]][images[j]]:
                    raise ActionNotGramPreserving(f"pairing not preserved at ({i},{j})")
    free, basis = _kernel(gram.entries)
    total = Fraction(0)
    for images in perms:
        inv_images = [0] * n
        for i, img in enumerate(images):
            inv_images[img] = i
        fix = sum(1 for i in range(n) if images[i] == i)
        total += fix - sum(v[inv_images[f]] for v, f in zip(basis, free))
    value = total / len(perms)
    assert value.denominator == 1
    return int(value)


def each_once(perms):
    return [(p, 1) for p in perms]


def test_trace_method_on_trivial_group_gives_rank():
    g = GramMatrix(("a", "b", "c"), [[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert invariant_dimension_via_trace(g, [((0, 1, 2), 1)], [(0, 1, 2)]) == g.rank() == 3
    degenerate = GramMatrix(("a", "b"), [[-2, 2], [2, -2]])
    dimension = invariant_dimension_via_trace(degenerate, [((0, 1), 1)], [(0, 1)])
    assert dimension == degenerate.rank() == 1


def test_trace_method_rejects_non_preserving_action():
    g = GramMatrix(("a", "b", "c"), [[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    with pytest.raises(ActionNotGramPreserving):
        invariant_dimension_via_trace(g, [((0, 2, 1), 1)], [(0, 2, 1)])
    with pytest.raises(ActionNotGramPreserving):
        invariant_dimension_via_trace(g, [((0, 0, 1), 1)], [(0, 1, 2)])
    with pytest.raises(ValueError):
        invariant_dimension_via_trace(g, [((0, 1, 2), 0)], [(0, 1, 2)])
    # a weighted permutation that breaks the form, with generators that keep it
    with pytest.raises(ActionNotGramPreserving):
        invariant_dimension_via_trace(g, [((0, 1, 2), 1), ((0, 2, 1), 1)], [(2, 1, 0)])
    # no generators: nothing would vouch for the weighted permutations' group
    with pytest.raises(ValueError, match="no generators"):
        invariant_dimension_via_trace(g, [((0, 1, 2), 1)], [])


PATH = ((-2, 1, 0), (1, -2, 1), (0, 1, -2))
REFLECTION, SWAP_AB = (2, 1, 0), (1, 0, 2)  # SWAP_AB moves the pairing of a, c


@pytest.mark.parametrize("gens", [(REFLECTION, SWAP_AB), (SWAP_AB, REFLECTION)])
def test_trace_method_checks_every_generator(gens):
    # every weighted permutation preserves the form but one generator does
    # not: the check of either generator alone must raise, as the oracle
    # does on the group the two generate
    g = GramMatrix("abc", PATH)
    weighted = [((0, 1, 2), 1), (REFLECTION, 1)]
    assert invariant_dimension_via_trace(g, weighted, [REFLECTION]) == 2
    with pytest.raises(ActionNotGramPreserving):
        invariant_dimension_via_trace(g, weighted, gens)
    group = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    with pytest.raises(ActionNotGramPreserving):
        all_elements_trace_average(g, group)


def test_methods_agree_on_small_examples():
    g = GramMatrix(("a", "b"), [[-2, 1], [1, -2]])
    swap_group = [(0, 1), (1, 0)]
    assert invariant_dimension_via_trace(g, each_once(swap_group), swap_group) == 1
    assert rank(orbit_sum_gram(g, [[0, 1]])) == 1
    degenerate = GramMatrix(("a", "b"), [[-2, 2], [2, -2]])
    assert invariant_dimension_via_trace(degenerate, each_once(swap_group), swap_group) == 0
    assert rank(orbit_sum_gram(degenerate, [[0, 1]])) == 0


@pytest.mark.parametrize("name,dimension", [("S6", 1), ("A6", 1), ("A5_standard", 1),
                                            ("A5_nonstandard", 2)])
def test_cycle_type_traces_match_all_elements_oracle(bk_gram, name, dimension):
    gram = bk_gram[0]
    s6_gens, actions = bk.plane_actions(gram)
    weighted, _ = actions[name]
    elements = bk.SUBGROUPS[name][1]()
    oracle = all_elements_trace_average(gram, [bk.plane_permutation(gram, g) for g in elements])
    assert invariant_dimension_via_trace(gram, weighted, s6_gens) == oracle == dimension


def test_barth_trace_matches_all_elements_oracle(bt_model, bt_surfaces, bt_table2):
    perms = bt.surface_permutations(bt_model, bt_surfaces[0])
    gram = bt_table2["gram"]
    oracle = all_elements_trace_average(gram, perms)
    assert invariant_dimension_via_trace(gram, each_once(perms), perms) == oracle == 1
    assert bt_table2["trace_dimension"] == oracle


def test_rank_invariant_under_simultaneous_permutations_of_pinned_table(bt_model):
    data = load_table2(bt_model.xi_labels)
    rows = data["rows"]
    base_rank = rank(rows)
    assert base_rank == 14
    rng = random.Random(43)
    for _ in range(8):
        perm = list(range(20))
        rng.shuffle(perm)
        permuted = [[rows[perm[i]][perm[j]] for j in range(20)] for i in range(20)]
        assert rank(permuted) == base_rank


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError, match="ragged"):
        rank([[1, 2], [3]])
    with pytest.raises(ValueError, match="size mismatch"):
        GramMatrix(("a", "b"), [[-2, 1], [1]])
    g = GramMatrix(("a", "b"), [[-2, 1], [1, -2]])
    assert g.entries == ((-2, 1), (1, -2))


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("field_name", ["QQ", "omega"])
def test_elimination_matches_naive_gauss_jordan(field_name):
    """rank, kernel_basis, determinant and solve_right against Gauss-Jordan
    and cofactor expansion.  A matrix is drawn as a product C B with a short
    inner dimension, so rank-deficient matrices come up often."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    if field_name == "QQ":
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    else:
        field, w = omega_field()
        entry = st.builds(lambda a, b: field(a) + w * b, st.integers(-2, 2), st.integers(-1, 1))

    def matrix(nr, nc):
        return st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr)

    dims = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(1, 2))

    @hypothesis.settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @hypothesis.given(dims.flatmap(lambda d: st.tuples(
        matrix(d[0], d[2]), matrix(d[2], d[1]), matrix(d[1], d[3]), matrix(d[0], d[3]),
        st.booleans())))
    def check(drawn):
        c, b, x0, b_random, consistent = drawn
        a = matmul(c, b)
        nc = len(a[0])
        _, pivots = naive_rref(a)
        r = len(pivots)
        assert rank(a) == r

        basis = kernel_basis(a)
        free = [j for j in range(nc) if j not in pivots]
        assert len(basis) == nc - r
        for k, v in enumerate(basis):
            assert all(sum((x * y for x, y in zip(row, v)), Fraction(0)) == 0 for row in a)
            assert [v[f] for f in free] == [1 if i == k else 0 for i in range(len(free))]

        for mat in (a, b):  # b is drawn directly, so its zeros force row swaps
            m = min(len(mat), len(mat[0]))
            square = [row[:m] for row in mat[:m]]
            assert determinant(square) == cofactor_det(square)

        rhs = matmul(a, x0) if consistent else b_random
        x = solve_right(a, rhs)
        augmented_rank = naive_rank([ra + rb for ra, rb in zip(a, rhs)])
        assert (x is None) == (augmented_rank > r)
        if x is not None:
            assert matmul(a, x) == rhs

    check()


def circulant(first_row):
    n = len(first_row)
    return GramMatrix(range(n), [[first_row[(j - i) % n] for j in range(n)] for i in range(n)])


def rotations(n, step):
    return [tuple((i + s) % n for i in range(n)) for s in range(0, n, step)]


def reflections(n, step):
    return [tuple((s - i) % n for i in range(n)) for s in range(0, n, step)]


# symmetric circulants with diagonal -2 and a nonzero kernel, with its
# dimension; on the last three the free and the pivot columns of the kernel
# basis give different traces under nontrivial rotation groups
CIRCULANTS = (
    ((-2, 1, 0, 0, 0, 1), 1),
    ((-2, 0, 1, 0, 1, 0), 2),
    ((-2, 0, 0, 0, 2, 0, 0, 0), 4),
    ((-2, -1, 1, 2, 1, -1), 4),
    ((-2, -1, -1, -1, 0, -1, -1, -1), 3),
    ((-2, 0, -1, 2, 0, 2, -1, 0), 3),
)


@pytest.mark.parametrize("first_row,kernel_dim", CIRCULANTS,
                         ids=["_".join(map(str, row)) for row, _ in CIRCULANTS])
def test_trace_method_matches_orbit_sums_on_circulants(first_row, kernel_dim):
    g = circulant(first_row)
    n = g.size
    assert len(kernel_basis(g.entries)) == kernel_dim
    for step in (d for d in range(1, n + 1) if n % d == 0):
        for group in (rotations(n, step), rotations(n, step) + reflections(n, step)):
            expected = rank(orbit_sum_gram(g, index_orbits(group)))
            assert invariant_dimension_via_trace(g, each_once(group), group) == expected
            assert all_elements_trace_average(g, group) == expected
