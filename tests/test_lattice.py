"""Exact arithmetic and lattice linear algebra.

The elimination kernel is checked against independent oracles written here:
Laplace expansion for determinants and minors, and substitution for solves,
inverses and kernel vectors.
"""

import operator
import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from fraction_oracles import cone_coordinates
from toricstab.lattice import (
    adjugate,
    det,
    det_int,
    dot,
    eliminate,
    matrix_inverse,
    matrix_rank,
    primitivize,
    solve_linear,
)
from toricstab.workbench import load_builtin_fan


def laplace_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * laplace_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j] != 0
    )


def laplace_rank(m):
    """Size of the largest nonzero minor."""
    rows, cols = len(m), len(m[0]) if m else 0
    for size in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), size):
            for cs in combinations(range(cols), size):
                if laplace_det([[m[r][c] for c in cs] for r in rs]) != 0:
                    return size
    return 0


def random_matrix(rng, rows, cols, rational):
    """A random matrix of rank at most a random r, as a product B C."""
    def entry():
        x = rng.randint(-4, 4)
        return F(x, rng.randint(1, 5)) if rational else x

    r = rng.randint(0, min(rows, cols))
    b = [[entry() for _ in range(r)] for _ in range(rows)]
    c = [[entry() for _ in range(cols)] for _ in range(r)]
    if r == min(rows, cols) and rng.random() < 0.5:
        # also plain random entries, which are full rank far more often
        return [[entry() for _ in range(cols)] for _ in range(rows)]
    return [[sum((b[i][k] * c[k][j] for k in range(r)), 0) for j in range(cols)]
            for i in range(rows)]


def test_dot_refuses_vectors_of_different_lengths():
    assert dot((1, 2), (F(1, 2), 3)) == F(13, 2)
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 1$"):
        dot((1, 2), (1,))


def test_primitivize_examples():
    assert primitivize((-2, -4)) == (-1, -2)
    assert primitivize((1, 0)) == (1, 0)
    assert primitivize((-2, -3)) == (-2, -3)  # the weighted-plane ray is primitive


def test_primitivize_zero_vector():
    with pytest.raises(ValueError, match="zero vector has no direction"):
        primitivize((0, 0, 0))


def test_primitivize_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        v = tuple(rng.randint(-40, 40) for _ in range(n))
        if all(x == 0 for x in v):
            continue
        once = primitivize(v)
        assert primitivize(once) == once


def test_solve_linear_examples():
    assert solve_linear([[1, 0], [0, 1]], [5, 7]) == (F(5), F(7))
    # expresses w=(-1,0) in the cone spanned by (0,1), (-2,-3)
    assert solve_linear([[0, -2], [1, -3]], [-1, 0]) == (F(3, 2), F(1, 2))
    assert solve_linear([[2, 0], [0, 2]], [2, 2]) == (F(1), F(1))


def test_solve_linear_singular():
    with pytest.raises(ValueError, match="singular system"):
        solve_linear([[1, 2], [2, 4]], [1, 1])


def test_solve_linear_random():
    """A x = b holds after substitution; singular exactly when det = 0."""
    rng = random.Random(17)
    for trial in range(300):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, rational=trial % 2 == 1)
        b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        if laplace_det(m) == 0:
            with pytest.raises(ValueError, match="singular system"):
                solve_linear(m, b)
            continue
        x = solve_linear(m, b)
        assert all(isinstance(v, F) for v in x)
        assert [sum(a * v for a, v in zip(row, x)) for row in m] == b


def test_cone_coordinates_examples(p123):
    """Validates the test-side cone-coordinate oracle (and `solve_linear`)."""
    ci, coords = cone_coordinates(p123, (-1, 0))
    assert coords == (F(3, 2), F(1, 2))
    assert [p123.rays[i] for i in p123.max_cones[ci]] == [(0, 1), (-2, -3)]
    # sum of coordinates is the log discrepancy 2 of that valuation
    assert sum(coords) == 2
    assert cone_coordinates(p123, (0, 1)) == (0, (F(0), F(1)))
    assert cone_coordinates(load_builtin_fan("P1xP1"), (1, 1)) == (0, (F(1), F(1)))
    assert solve_linear([[0, -2], [1, -3]], [0, 1]) == (F(1), F(0))


def test_cone_coordinates_outside(p2):
    """Validates the test-side cone-coordinate oracle (and `solve_linear`)."""
    # (-1, -1) lies outside the first quadrant cone: a coordinate is negative
    assert solve_linear([[1, 0], [0, 1]], [-1, -1]) == (F(-1), F(-1))
    ci, coords = cone_coordinates(p2, (-1, -1))
    assert (-1, -1) in [p2.rays[i] for i in p2.max_cones[ci]]
    assert sorted(coords) == [0, 1]


def test_cone_coordinates_random_reconstruction(corpus_fans):
    """1000 random (w, simplicial cone) pairs in dims 2..5 reconstruct exactly
    through `solve_linear`, and the test-side cone-coordinate oracle puts
    random w in a cone of every fan with nonnegative coordinates."""
    rng = random.Random(20240817)
    done = 0
    while done < 1000:
        n = rng.randint(2, 5)
        gens = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n)]
        if laplace_det([list(g) for g in gens]) == 0:
            continue
        w = tuple(rng.randint(-30, 30) for _ in range(n))
        coords = solve_linear([[g[i] for g in gens] for i in range(n)], list(w))
        rebuilt = tuple(sum(c * g[i] for c, g in zip(coords, gens)) for i in range(n))
        assert rebuilt == w
        done += 1
    for fan in corpus_fans:
        for _ in range(50):
            w = tuple(rng.randint(-30, 30) for _ in range(fan.dimension))
            ci, coords = cone_coordinates(fan, w)
            assert all(c >= 0 for c in coords)
            gens = [fan.rays[i] for i in fan.max_cones[ci]]
            rebuilt = tuple(sum(c * g[i] for c, g in zip(coords, gens))
                            for i in range(fan.dimension))
            assert rebuilt == w


def test_rational_arithmetic_is_exact():
    """(a+b)-b == a with no drift; comparison is a total order."""
    rng = random.Random(3)
    values = [
        F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(300)
    ]
    for a, b in zip(values, values[1:]):
        assert (a + b) - b == a
        assert (a < b) + (a == b) + (a > b) == 1
    assert sorted(values) == sorted(sorted(values))


def test_rat_invariants_lowest_terms():
    x = F(6, -4)
    assert x.denominator > 0 and abs(x.numerator) == 3 and x.denominator == 2


def test_det_matches_laplace():
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, rational=trial % 2 == 1)
        expected = laplace_det(m)
        assert det(m) == expected
        if trial % 2 == 0:
            assert det_int(m) == expected
    # permutation matrices exercise the row swaps
    for perm in permutations(range(4)):
        m = [[int(perm[i] == j) for j in range(4)] for i in range(4)]
        assert det_int(m) == laplace_det(m)


def test_eliminate_takes_the_columns_in_the_order_given():
    """`eliminate(rows, cols)` as the fan's seed calls it.

    For a random order of a random square M's columns, d is the Laplace
    determinant of M with its columns in that order, and the table is
    |d| B^-1 M for B those columns.  On [B | v], v a combination of B's
    first k columns placed right after them in `cols`, v is skipped, the
    columns after it still pivot, and v's column of the table holds its
    coordinates times |det B|.
    """
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, rational=False)
        cols = rng.sample(range(n), n)
        b = [[row[c] for c in cols] for row in m]
        pivots, table, d = eliminate(m, cols)
        if laplace_det(b) == 0:
            assert len(pivots) < n
            continue
        assert (pivots, d) == (cols, laplace_det(b))
        for i in range(n):
            assert [sum(b[i][k] * table[k][j] for k in range(n)) for j in range(n)] == [abs(d) * x for x in m[i]]
    done = 0
    while done < 100:
        n = rng.randint(2, 5)
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if laplace_det(b) == 0:
            continue
        k = rng.randint(1, n - 1)
        coords = [rng.randint(-3, 3) for _ in range(k)] + [0] * (n - k)
        m = [[*row, sum(map(operator.mul, row, coords))] for row in b]
        pivots, table, d = eliminate(m, [*range(k), n, *range(k, n)])
        assert (pivots, d) == (list(range(n)), laplace_det(b))
        assert [row[n] for row in table] == [abs(d) * c for c in coords]
        done += 1


def test_adjugate_is_det_times_inverse():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, rational=False)
        d = laplace_det(m)
        result = adjugate(m)
        if d == 0:
            assert result is None
            continue
        got_det, adj = result
        assert got_det == d
        for i in range(n):
            for j in range(n):
                assert sum(adj[i][k] * m[k][j] for k in range(n)) == (d if i == j else 0)


def test_adjugate_on_rational_rows():
    """On rational rows d is the determinant of the rows scaled to integers,
    and adj = d * inverse; None exactly when the matrix is singular."""
    rng = random.Random(23)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, rational=True)
        result = adjugate(m)
        if laplace_det(m) == 0:
            assert result is None
            singular += 1
            continue
        d, adj = result
        assert d != 0 and all(type(x) is int for row in adj for x in row)
        for i in range(n):
            for j in range(n):
                assert sum(adj[i][k] * m[k][j] for k in range(n)) == (d if i == j else 0)
    assert 0 < singular < 200


def test_matrix_inverse_round_trip():
    rng = random.Random(13)
    for trial in range(300):
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n, rational=trial % 2 == 1)
        inv = matrix_inverse(m)
        if laplace_det(m) == 0:
            assert inv is None
            continue
        for i in range(n):
            for j in range(n):
                entry = sum(F(m[i][k]) * inv[k][j] for k in range(n))
                assert entry == (1 if i == j else 0)


def test_matrix_rank():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    rng = random.Random(23)
    for trial in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, rational=trial % 2 == 1)
        assert matrix_rank(m) == laplace_rank(m)
