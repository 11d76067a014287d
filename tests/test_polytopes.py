"""Vertex enumeration, hull round-trips, exact volume and centroid."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

import fraction_oracles
from fraction_oracles import contains
from toricstab import polytopes
from toricstab.corpus import builtin_fan_specs
from toricstab.errors import BudgetExceeded, InvariantViolation
from toricstab.fans import Fan
from toricstab.lattice import det, det_int, matrix_rank, primitivize
from toricstab.polytopes import RationalPolytope, enumerate_vertices, incidence_triangulation


def polytope(halfspaces, dim):
    """The polytope cut out by bounded `halfspaces`, its vertices by `enumerate_vertices`."""
    return RationalPolytope(halfspaces, enumerate_vertices(halfspaces, dim), dim)


def pulled(poly, apex):
    """The pulling triangulation for the point order apex, then the vertices,
    as point tuples: `incidence_triangulation` on the table of (apex,
    *vertices) against the half-space normals."""
    points = (tuple(apex), *poly.vertices)
    den = math.lcm(*(F(x).denominator for p in points for x in p))
    table = [[int(sum(x * y for x, y in zip(p, a)) * den) for a, _ in poly.halfspaces] for p in points]
    simplices = incidence_triangulation(poly.halfspaces, table, den, poly.dim)
    return [tuple(points[k] for k in s) for s in simplices]


def vertex_average(poly):
    return tuple(sum(col, F(0)) / len(poly.vertices) for col in zip(*poly.vertices))


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
        # the signed maximal minors span the kernel of the dim - 1 rows
        minors = [(-1) ** j * det([row[:j] + row[j + 1 :] for row in rows]) for j in range(dim)]
        scale = math.lcm(*(x.denominator for x in minors))
        a = primitivize(tuple(int(x * scale) for x in minors))
        b = sum(x * y for x, y in zip(subset[0], a))
        side = [sum(x * y for x, y in zip(p, a)) - b for p in points]
        if all(s >= 0 for s in side):
            facets.add((a, b))
        elif all(s <= 0 for s in side):
            facets.add((tuple(-x for x in a), -b))
    return sorted(facets)


def square_poly():
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-1, 0), F(-1)), ((0, -1), F(-1))]
    return polytope(hs, 2)


def test_vertex_enumeration_square():
    poly = square_poly()
    assert poly.vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))


def test_vertex_enumeration_weighted_triangle():
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-2, -3), F(-1))]
    poly = polytope(hs, 2)
    assert set(poly.vertices) == {(-1, -1), (-1, 1), (2, -1)}


def test_empty_rejected():
    hs = [((1, 0), F(1)), ((-1, 0), F(1)), ((0, 1), F(0)), ((0, -1), F(0))]
    with pytest.raises(InvariantViolation, match="empty"):
        polytope(hs, 2)


def test_volume_square_and_triangle():
    assert square_poly().volume() == 4
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-2, -3), F(-1))]
    assert polytope(hs, 2).volume() == 3


def test_volume_unit_square():
    hs = [((1, 0), F(0)), ((0, 1), F(0)), ((-1, 0), F(-1)), ((0, -1), F(-1))]
    assert polytope(hs, 2).volume() == 1


def test_barycenter_examples():
    assert square_poly().barycenter() == (0, 0)
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-2, -3), F(-1))]
    assert polytope(hs, 2).barycenter() == (0, F(-1, 3))


def test_barycenter_strictly_interior(corpus_fans):
    for fan in corpus_fans:
        poly = fan.anticanonical_polytope()
        assert contains(poly, poly.barycenter(), strict=True)


def test_max_linear_functional():
    hs = [((1, 0), F(-1)), ((0, 1), F(-1)), ((-2, -3), F(-1))]
    poly = polytope(hs, 2)
    d = poly.vertex_matrix[0]
    assert F(max(poly.vertex_values((-1, 0))), d) == 1
    assert F(max(poly.vertex_values((0, 0))), d) == 0
    assert F(max(poly.vertex_values((-2, -3))), d) == 5


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
    return polytope(hs, dim)


def test_volume_triangulation_independent():
    """Fan-out simplices from an interior apex sum to the volume read from the
    cached vertex-apex triangulation, for 50 random polytopes in dims 2..4."""
    rng = random.Random(555)
    for trial in range(50):
        dim = 2 + trial % 3
        poly = _random_bounded_polytope(rng, dim)
        average = vertex_average(poly)
        shifted = tuple((a + v) / 2 for a, v in zip(average, poly.vertices[0]))
        assert contains(poly, shifted, strict=True)
        total = F(0)
        for simplex in pulled(poly, shifted):
            edges = [[p - q for p, q in zip(point, simplex[0])] for point in simplex[1:]]
            total += abs(det(edges)) / math.factorial(dim)
        assert total == poly.volume()
        den, simplices = poly.indexed_triangulation
        assert F(sum(mass for _, mass in simplices), den) == math.factorial(dim) * total


def test_triangulate_simplex_count():
    hs = [((1, 0), F(0)), ((0, 1), F(0)), ((-1, -1), F(-1))]
    poly = polytope(hs, 2)
    d = poly.vertex_matrix[0]
    simplices = [
        [poly.vertices[k] for k in ks]
        for ks in incidence_triangulation(poly.halfspaces, poly.normal_table, d, 2)
    ]
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
    """Full-size simplices summing to the volume, pulled first from every
    vertex and from the vertex average."""
    halfspaces, volume = NON_SIMPLE_AND_REDUNDANT[name]
    poly = polytope(halfspaces, 3)
    assert len(poly.halfspaces) == len(halfspaces)  # the redundant cut is kept
    for apex in (vertex_average(poly), *poly.vertices):
        simplices = pulled(poly, apex)
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
    poly = polytope(halfspaces, dim)
    for apex in (vertex_average(poly), *poly.vertices):
        assert pulled(poly, apex) == []
    assert poly.indexed_triangulation[1] == ()
    with pytest.raises(InvariantViolation, match="^barycenter of a degenerate polytope$"):
        poly.barycenter()


CORPUS_SIMPLEX_COUNTS = {
    "P1": 1, "P2": 1, "P3": 1, "P4": 1, "P5": 1, "P1xP1": 2, "P1xP1xP1": 6,
    "dP8": 2, "dP7": 3, "dP6": 4, "P(1,2,3)": 1, "P(1,1,2)": 1, "Y(1,2,3)": 2,
}


def test_corpus_simplex_counts(corpus_fans):
    counts = {
        fan.name: len(fan.anticanonical_polytope().indexed_triangulation[1]) for fan in corpus_fans
    }
    assert counts == CORPUS_SIMPLEX_COUNTS


def test_every_simplex_contains_vertex_0(q_fano_fans):
    """The vertices are pulled in vertex order, so vertex 0 is in every simplex."""
    for fan in q_fano_fans:
        simplices = fan.anticanonical_polytope().indexed_triangulation[1]
        assert simplices and all(0 in ks for ks, _ in simplices), fan.name


def test_fan_triangulation_equals_the_incidence_triangulation(q_fano_fans, relabelled_fans):
    """On every Q-Fano test fan and every relabelled fan, the triangulation
    read off the cones, with masses from the vertex table, is the incidence
    triangulation of the same table with masses |det| of the integer edge
    rows.  Both list their simplices in lexicographic order."""
    for fan in [*q_fano_fans, *relabelled_fans]:
        poly = fan.anticanonical_polytope()
        d, rows = poly.vertex_matrix
        ks_list = incidence_triangulation(poly.halfspaces, poly.normal_table, d, poly.dim)
        expected = [
            (ks, abs(det_int([[x - y for x, y in zip(rows[k], rows[ks[0]])] for k in ks[1:]])))
            for ks in ks_list
        ]
        den, simplices = poly.indexed_triangulation
        assert ks_list == sorted(ks_list) and list(simplices) == sorted(simplices), fan
        assert den == d**poly.dim and list(simplices) == expected, fan


def test_fan_polytope_never_calls_det_int(monkeypatch, q_fano_fans):
    """A fan's polytope takes its simplex masses from its table alone."""

    def refuse(rows):
        raise AssertionError("det_int called")

    monkeypatch.setattr(polytopes, "det_int", refuse)
    for fan in q_fano_fans:
        poly = Fan(fan.dimension, fan.rays, fan.max_cones).anticanonical_polytope()
        assert poly.indexed_triangulation[1], fan.name
        assert poly.volume() == fan.anticanonical_polytope().volume(), fan.name


def test_a_tampered_vertex_multiplicity_breaks_the_mass():
    """A multiplicity that does not divide a simplex's product of table
    entries raises AssertionError: on P2 every product is 3 * 3."""
    spec = builtin_fan_specs()["P2"]
    poly = Fan(spec["dim"], spec["rays"], spec["cones"]).anticanonical_polytope()
    cones, mults = poly._cones
    assert mults == (1, 1, 1)
    poly._cones = (cones, (2, 2, 2))
    with pytest.raises(AssertionError, match="is not an integer"):
        poly.indexed_triangulation


def test_p1_to_the_6_has_720_simplices():
    """The cube [-1, 1]^6 of (P1)^6 is pulled into 6! simplices of volume 2^6 / 6! each."""
    rays = [[s * (i == j) for j in range(6)] for i in range(6) for s in (1, -1)]
    cones = [[2 * i + b for i, b in enumerate(bits)] for bits in itertools.product((0, 1), repeat=6)]
    poly = Fan(6, rays, cones).anticanonical_polytope()
    den, simplices = poly.indexed_triangulation
    assert den == 1 and len(simplices) == 720
    assert {mass for _, mass in simplices} == {2**6}
    assert poly.volume() == 2**6


def test_lower_dimensional_volume_warns():
    hs = [((1, 0), F(0)), ((-1, 0), F(0)), ((0, 1), F(-1)), ((0, -1), F(-1))]
    poly = polytope(hs, 2)
    with pytest.warns(UserWarning, match="lower-dimensional"):
        assert poly.volume() == 0


def test_lattice_points_square():
    assert len(square_poly().lattice_points()) == 9
    assert len(square_poly().lattice_points(scale=2)) == 25


def test_lattice_points_budget(monkeypatch):
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "100")
    with pytest.raises(BudgetExceeded, match="oracle budget exceeded"):
        square_poly().lattice_points(scale=100)


def test_lattice_points_budget_env(monkeypatch):
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "4")
    with pytest.raises(BudgetExceeded):
        square_poly().lattice_points()
    monkeypatch.setenv("TKS_ORACLE_BUDGET", "1000000")
    assert len(square_poly().lattice_points()) == 9


def test_lattice_points_budget_edge(monkeypatch):
    """A box exactly the size of the budget is scanned; one point more is refused.
    The box rounds the fractional vertex coordinates outward."""
    poly = polytope([((1, 0), F(-1, 2)), ((0, 1), F(-1)), ((-1, -1), F(-3))], 2)
    assert set(poly.vertices) == {(F(-1, 2), -1), (F(-1, 2), F(7, 2)), (4, -1)}
    box = 6 * 6  # x in [-1, 4], y in [-1, 4]
    monkeypatch.setenv("TKS_ORACLE_BUDGET", str(box))
    assert poly.lattice_points() == fraction_oracles.lattice_points(poly)
    monkeypatch.setenv("TKS_ORACLE_BUDGET", str(box - 1))
    with pytest.raises(BudgetExceeded, match="oracle budget exceeded"):
        poly.lattice_points()


FRACTIONAL_OFFSETS = [
    ([((1, 0), F(-1, 2)), ((0, 1), F(-1)), ((-1, -1), F(-3))], 2),
    ([((2, -1), F(-3, 2)), ((-1, 3), F(-5, 3)), ((-1, -2), F(-7, 4))], 2),
    ([((1, 0, 0), F(-1, 3)), ((0, 1, 0), F(-2, 3)), ((0, 0, 1), F(-1, 2)),
      ((-1, -1, -2), F(-5, 2))], 3),
    (CUBE + [((1, 1, 1), F(-3, 2)), ((-1, 2, 0), F(-7, 5))], 3),
]


def test_lattice_points_match_the_fraction_scan(q_fano_fans):
    """The integer scan returns the Fraction scan's point list, in its order,
    on every Q-Fano fan of dimension <= 3 and on polytopes with fractional
    offsets, at scales 1, 2, 5 and 9."""
    polys = [(fan.name, fan.anticanonical_polytope()) for fan in q_fano_fans]
    polys = [(name, poly) for name, poly in polys if poly.dim <= 3]
    polys += [(hs, polytope(hs, dim)) for hs, dim in FRACTIONAL_OFFSETS]
    for name, poly in polys:
        for scale in (1, 2, 5, 9):
            expected = fraction_oracles.lattice_points(poly, scale)
            assert poly.lattice_points(scale) == expected, (name, scale)


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


def test_fan_vertices_match_the_subset_scan(q_fano_fans):
    """The cone points m_sigma are the vertices the n-subset scan finds."""
    for fan in q_fano_fans:
        poly = fan.anticanonical_polytope()
        oracle = polytope([(ray, F(-1)) for ray in fan.rays], fan.dimension)
        assert poly.vertices == oracle.vertices, fan.name
        assert poly.halfspaces == oracle.halfspaces, fan.name
        assert poly.indexed_triangulation == oracle.indexed_triangulation, fan.name


def test_vertex_matrix_is_the_vertices_over_one_denominator(q_fano_fans):
    """rows / D are the vertices, D divides the lcm of the cone multiplicities
    (the denominator of m_sigma divides the multiplicity of sigma), and the
    integer maximum of <., w> equals the Fraction maximum over the vertices."""
    rng = random.Random(8)
    for fan in q_fano_fans:
        poly = fan.anticanonical_polytope()
        d, rows = poly.vertex_matrix
        assert len(rows) == len(poly.vertices)
        for row, v in zip(rows, poly.vertices):
            assert all(type(x) is int for x in row)
            assert tuple(F(x, d) for x in row) == v
        mults = [int(abs(det([fan.rays[i] for i in cone]))) for cone in fan.max_cones]
        assert math.lcm(*mults) % d == 0, fan.name
        n = fan.dimension
        for w in [*fan.rays, *(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(20))]:
            expected = max(sum(F(a) * b for a, b in zip(v, w)) for v in poly.vertices)
            assert F(max(poly.vertex_values(w)), d) == expected


def test_indexed_triangulation_and_volume_data_match_fraction_formulas(q_fano_fans):
    """Integer simplex masses over D^n are the Fraction determinants of the
    simplices' edges, and the volume and centroid read from them equal the
    Fraction sums over the simplices."""
    for fan in q_fano_fans:
        poly = fan.anticanonical_polytope()
        n = fan.dimension
        den, simplices = poly.indexed_triangulation
        assert den == poly.vertex_matrix[0] ** n
        total, weighted = F(0), [F(0)] * n
        for ks, mass in simplices:
            points = [poly.vertices[k] for k in ks]
            edges = [[p - q for p, q in zip(point, points[0])] for point in points[1:]]
            assert F(mass, den) == abs(det(edges)) > 0, fan.name
            total += F(mass, den)
            for i in range(n):
                weighted[i] += F(mass, den) * sum(p[i] for p in points) / (n + 1)
        assert poly.volume() == total / math.factorial(n), fan.name
        assert poly.barycenter() == tuple(x / total for x in weighted), fan.name
