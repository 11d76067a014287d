"""Vertex enumeration, hull round-trips, exact volume and centroid."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from toricstab.errors import BudgetExceeded, InvariantViolation
from toricstab.lattice import det, kernel_vector, matrix_rank, primitivize
from toricstab.polytopes import (
    RationalPolytope,
    enumerate_vertices,
    recession_direction,
    triangulate,
)


def hull_facets(points, dim):
    """Facet half-spaces of the convex hull of full-dimensional `points`.

    Brute force: every dim-subset spanning a hyperplane with all points on
    one side contributes its (primitive-integer-normal) half-space, oriented
    so the hull satisfies <u, a> >= b.
    """
    facets = set()
    for subset in itertools.combinations(points, dim):
        rows = [tuple(p - q for p, q in zip(point, subset[0])) for point in subset[1:]]
        if matrix_rank(rows) != dim - 1:
            continue
        a = primitivize(kernel_vector(rows, dim))
        b = sum(x * y for x, y in zip(subset[0], a))
        side = [sum(x * y for x, y in zip(p, a)) - b for p in points]
        if all(s >= 0 for s in side):
            facets.add((a, b))
        elif all(s <= 0 for s in side):
            facets.add((tuple(-x for x in a), -b))
    return sorted(facets)


def square_poly():
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-1, 0), F(-1)), ((0, -1), F(-1))]
    return RationalPolytope(hs, 2)


def test_vertex_enumeration_square():
    poly = square_poly()
    assert poly.vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))


def test_vertex_enumeration_weighted_triangle():
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-2, -3), F(-1))]
    poly = RationalPolytope(hs, 2)
    assert set(poly.vertices) == {(-1, -1), (-1, 1), (2, -1)}


def test_unbounded_rejected():
    hs = [((1, 0), F(0)), ((0, 1), F(0))]
    with pytest.raises(InvariantViolation, match="unbounded"):
        RationalPolytope(hs, 2)


def test_empty_rejected():
    hs = [((1, 0), F(1)), ((-1, 0), F(1)), ((0, 1), F(0)), ((0, -1), F(0))]
    with pytest.raises(InvariantViolation, match="empty"):
        RationalPolytope(hs, 2)


def test_recession_direction():
    assert recession_direction([(1, 0), (0, 1)], 2) is not None
    assert recession_direction([(1, 0), (-1, 0), (0, 1), (0, -1)], 2) is None
    assert recession_direction([(1, 1)], 2) is not None  # a full line remains


def test_volume_square_and_triangle():
    assert square_poly().volume() == 4
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-2, -3), F(-1))]
    assert RationalPolytope(hs, 2).volume() == 3


def test_volume_unit_square():
    hs = [((1, 0), F(0)), ((0, 1), F(0)), ((-1, 0), F(-1)), ((0, -1), F(-1))]
    assert RationalPolytope(hs, 2).volume() == 1


def test_barycenter_examples():
    assert square_poly().barycenter() == (0, 0)
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-2, -3), F(-1))]
    assert RationalPolytope(hs, 2).barycenter() == (0, F(-1, 3))


def test_barycenter_strictly_interior(corpus_fans):
    for fan in corpus_fans:
        poly = fan.anticanonical_polytope()
        assert poly.contains(poly.barycenter(), strict=True)


def test_max_linear_functional():
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-2, -3), F(-1))]
    poly = RationalPolytope(hs, 2)
    assert poly.max_linear_functional((-1, 0)) == 1
    assert poly.max_linear_functional((0, 0)) == 0
    assert poly.max_linear_functional((-2, -3)) == 5


def test_hull_round_trip_on_corpus(corpus_fans):
    """Facets recomputed from vertices reproduce the anticanonical h-rep."""
    for fan in corpus_fans:
        poly = fan.anticanonical_polytope()
        regenerated = set(hull_facets(poly.vertices, poly.dim))
        original = {(a, b) for a, b in poly.halfspaces}
        assert regenerated == original, fan.name


def _random_bounded_polytope(rng, dim):
    hs = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        hs.append((e, F(-rng.randint(1, 5))))
        hs.append((tuple(-x for x in e), F(-rng.randint(1, 5))))
    for _ in range(rng.randint(1, 3)):
        normal = tuple(rng.randint(-3, 3) for _ in range(dim))
        if all(x == 0 for x in normal):
            continue
        hs.append((normal, F(-rng.randint(1, 6))))
    return RationalPolytope(hs, dim)


def test_volume_triangulation_independent():
    """Fan-out simplices from an interior apex sum to the volume read from the
    cached vertex-apex triangulation, for 50 random polytopes in dims 2..4."""
    rng = random.Random(555)
    for trial in range(50):
        dim = 2 + trial % 3
        poly = _random_bounded_polytope(rng, dim)
        k = len(poly.vertices)
        average = tuple(sum(col, F(0)) / k for col in zip(*poly.vertices))
        shifted = tuple((a + v) / 2 for a, v in zip(average, poly.vertices[0]))
        assert poly.contains(shifted, strict=True)
        total = F(0)
        for simplex in triangulate(poly.halfspaces, poly.vertices, dim, apex=shifted):
            edges = [[p - q for p, q in zip(point, simplex[0])] for point in simplex[1:]]
            total += abs(det(edges)) / math.factorial(dim)
        assert total == poly.volume()
        assert sum(mass for _, mass in poly.triangulation) == math.factorial(dim) * total


def test_triangulate_simplex_count():
    hs = [((1, 0), F(0)), ((0, 1), F(0)), ((-1, -1), F(-1))]
    poly = RationalPolytope(hs, 2)
    simplices = triangulate(poly.halfspaces, poly.vertices, 2)
    total = sum(
        abs(
            (s[1][0] - s[0][0]) * (s[2][1] - s[0][1])
            - (s[2][0] - s[0][0]) * (s[1][1] - s[0][1])
        )
        / 2
        for s in simplices
    )
    assert total == F(1, 2)


def _simplex_volume(simplex):
    edges = [[p - q for p, q in zip(point, simplex[0])] for point in simplex[1:]]
    return abs(det(edges)) / math.factorial(len(edges))


CUBE = [
    (tuple(s if j == i else 0 for j in range(3)), F(-1)) for i in range(3) for s in (1, -1)
]

NON_SIMPLE_AND_REDUNDANT = {
    "octahedron": ([(s, F(-1)) for s in itertools.product((1, -1), repeat=3)], F(4, 3)),
    "square pyramid": (
        [((0, 0, 1), F(0)), ((0, 1, -1), F(-1)), ((0, -1, -1), F(-1)),
         ((1, 0, -1), F(-1)), ((-1, 0, -1), F(-1))],
        F(4, 3),
    ),
    "cube, redundant cut tight along an edge": (CUBE + [((-1, -1, 0), F(-2))], F(8)),
    "cube, redundant cut tight at a vertex": (CUBE + [((-1, -1, -1), F(-3))], F(8)),
}


@pytest.mark.parametrize("name", sorted(NON_SIMPLE_AND_REDUNDANT))
def test_triangulate_non_simple_and_redundant(name):
    """Full-size simplices summing to the volume, from every vertex and the default apex."""
    halfspaces, volume = NON_SIMPLE_AND_REDUNDANT[name]
    poly = RationalPolytope(halfspaces, 3)
    assert len(poly.halfspaces) == len(halfspaces)  # the redundant cut is kept
    for apex in (None, *poly.vertices):
        simplices = triangulate(poly.halfspaces, poly.vertices, 3, apex=apex)
        assert all(len(simplex) == 4 for simplex in simplices), apex
        volumes = [_simplex_volume(simplex) for simplex in simplices]
        assert all(v > 0 for v in volumes) and sum(volumes) == volume, apex
    assert poly.volume() == volume


@pytest.mark.parametrize(
    "halfspaces, dim",
    [
        ([((1, 0), F(0)), ((-1, 0), F(0)), ((0, 1), F(-1)), ((0, -1), F(-1))], 2),
        ([((0, 0, 1), F(0)), ((0, 0, -1), F(0))] + CUBE[:4], 3),
    ],
    ids=["segment in R2", "square z=0 in R3"],
)
def test_triangulate_lower_dimensional_is_empty(halfspaces, dim):
    poly = RationalPolytope(halfspaces, dim)
    for apex in (None, *poly.vertices):
        assert triangulate(poly.halfspaces, poly.vertices, dim, apex=apex) == []
    assert poly.triangulation == ()


CORPUS_SIMPLEX_COUNTS = {
    "P1": 1, "P2": 1, "P3": 1, "P4": 1, "P5": 1, "P1xP1": 2, "P1xP1xP1": 6,
    "dP8": 2, "dP7": 3, "dP6": 4, "P(1,2,3)": 1, "P(1,1,2)": 1, "Y(1,2,3)": 2,
}


def test_corpus_simplex_counts(corpus_fans):
    counts = {fan.name: len(fan.anticanonical_polytope().triangulation) for fan in corpus_fans}
    assert counts == CORPUS_SIMPLEX_COUNTS


def test_lower_dimensional_volume_warns():
    hs = [((1, 0), F(0)), ((-1, 0), F(0)), ((0, 1), F(-1)), ((0, -1), F(-1))]
    poly = RationalPolytope(hs, 2)
    with pytest.warns(UserWarning, match="lower-dimensional"):
        assert poly.volume() == 0


def test_lattice_points_square():
    assert len(square_poly().lattice_points()) == 9
    assert len(square_poly().lattice_points(scale=2)) == 25


def test_lattice_points_budget():
    with pytest.raises(BudgetExceeded, match="oracle budget exceeded"):
        square_poly().lattice_points(scale=100, budget=100)


def test_lattice_points_budget_env(monkeypatch):
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "4")
    with pytest.raises(BudgetExceeded):
        square_poly().lattice_points()
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "1000000")
    assert len(square_poly().lattice_points()) == 9


def test_ehrhart_leading_term_2d(corpus_fans):
    """Lattice counts of dilations approach k^n vol(P) at rate C/k."""
    for fan in corpus_fans:
        if fan.dimension != 2:
            continue
        poly = fan.anticanonical_polytope()
        vol = poly.volume()
        scaled_errors = []
        for k in range(1, 31):
            count = len(poly.lattice_points(scale=k))
            err = abs(F(count, k**2) - vol)
            scaled_errors.append(k * err)
        fitted = max(scaled_errors[:15])
        assert max(scaled_errors[15:]) <= fitted, fan.name
        assert scaled_errors[-1] / 30 < scaled_errors[0], fan.name


def test_ehrhart_leading_term_3d(p3):
    poly = p3.anticanonical_polytope()
    vol = poly.volume()
    scaled_errors = []
    for k in range(1, 13):
        count = len(poly.lattice_points(scale=k))
        scaled_errors.append(k * abs(F(count, k**3) - vol))
    assert max(scaled_errors[6:]) <= max(scaled_errors[:6])


def test_hull_facets_direct():
    points = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1, 2), F(1, 2))]
    facets = hull_facets(points, 2)
    assert len(facets) == 4
    for a, b in facets:
        assert math.gcd(abs(a[0]), abs(a[1])) == 1
        assert all(a[0] * p[0] + a[1] * p[1] >= b for p in points)


def test_enumerate_vertices_redundant_constraint():
    hs = [
        ((1, 0), F(-1)), ((0, 1), F(-1)), ((-1, 0), F(-1)), ((0, -1), F(-1)),
        ((1, 1), F(-10)),  # redundant
    ]
    assert enumerate_vertices(hs, 2) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
