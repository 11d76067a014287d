"""Fan validation, smoothness, anticanonical polytopes, star subdivision."""

import importlib
import itertools
import math
import operator
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import fraction_oracles
from fraction_oracles import cone_coordinates, contains, walls
from toricstab.corpus import builtin_fan_specs
from toricstab.errors import InvariantViolation
from toricstab.fans import Fan
from toricstab.lattice import adjugate, eliminate, matrix_inverse
from toricstab.polytopes import RationalPolytope
from toricstab.workbench import load_builtin_fan


def test_fan_rejects_non_primitive_ray():
    with pytest.raises(InvariantViolation, match="not primitive"):
        Fan(2, [[2, 0], [0, 1], [-2, -3]], [[0, 1], [1, 2], [2, 0]])


def test_fan_rejects_zero_ray():
    with pytest.raises(InvariantViolation, match="zero vector"):
        Fan(2, [[0, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]])


def test_fan_rejects_duplicate_ray():
    with pytest.raises(InvariantViolation, match="duplicate ray"):
        Fan(2, [[1, 0], [1, 0], [-1, -1]], [[0, 1], [1, 2], [2, 0]])


def test_fan_rejects_unused_ray():
    with pytest.raises(InvariantViolation, match="appear in no maximal cone"):
        Fan(2, [[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 1], [1, 2], [2, 0]])


def test_fan_rejects_non_int_entries():
    """Floats and bools are refused, never truncated into a valid fan."""
    rays = [[1, 0], [0, 1], [-1, -1]]
    cones = [[0, 1], [1, 2], [2, 0]]
    p2 = Fan(2, rays, cones)  # fine: P2
    with pytest.raises(InvariantViolation, match="ray coordinates"):
        Fan(2, [[1.5, 0], [0, 1], [-1, -1]], cones)
    with pytest.raises(InvariantViolation, match="ray coordinates"):
        Fan(2, [[True, False], [0, 1], [-1, -1]], cones)
    with pytest.raises(InvariantViolation, match="cone ray indices"):
        Fan(2, rays, [[0, 1.0], [1, 2], [2, 0]])
    with pytest.raises(InvariantViolation, match="cone ray indices"):
        Fan(2, rays, [[False, True], [1, 2], [2, 0]])
    with pytest.raises(InvariantViolation, match="dimension"):
        Fan(2.0, rays, cones)
    assert p2.ray_index((1, 0)) == 0
    for v in ((1.9, 0), (True, False)):
        with pytest.raises(InvariantViolation, match="must be ints"):
            p2.ray_index(v)
    with pytest.raises(InvariantViolation, match="must be ints"):
        p2.star_subdivision((1.5, 1.2))


def test_fan_rejects_gap():
    # missing the third quadrant cone
    with pytest.raises(InvariantViolation, match="fan not complete"):
        Fan(2, [[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1], [1, 2], [3, 0]])
    with pytest.raises(InvariantViolation, match="fan not complete"):
        Fan(2, [], [])


def test_fan_rejects_double_cover():
    # six cones winding twice around the origin: every ray lies in exactly two
    # cones and every wall separates its two cones, but the cover is double
    rays = [[1, 0], [-1, 2], [-1, -2], [1, 1], [-1, 0], [1, -2]]
    cones = [[i, (i + 1) % 6] for i in range(6)]
    assert all(sum(i in c for c in cones) == 2 for i in range(6))
    with pytest.raises(InvariantViolation, match="overlapping maximal cones"):
        Fan(2, rays, cones)


def test_fan_rejects_cones_on_one_side_of_a_wall():
    # a cycle of cones that folds back at (-1,-2) and again at (-1,0): every
    # ray lies in two cones and cone 0's interior in no other cone, but the
    # cones {1,2} and {2,3} lie on the same side of the wall through (-1,-2)
    rays = [[1, 0], [-1, 2], [-1, -2], [-1, 0], [1, -2]]
    with pytest.raises(InvariantViolation, match="overlapping maximal cones"):
        Fan(2, rays, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])


def test_probe_cross_check_on_corpus(corpus_fans):
    """1000 seeded random points per corpus fan: each lies in some closed
    maximal cone and in the interior of at most one."""
    rng = random.Random(271828)
    for fan in corpus_fans:
        n = fan.dimension
        inverses = [
            matrix_inverse([[fan.rays[j][i] for j in cone] for i in range(n)])
            for cone in fan.max_cones
        ]
        for _ in range(1000):
            point = tuple(rng.randint(-10**6, 10**6) for _ in range(n))
            if not any(point):
                continue
            coords = [[sum(a * x for a, x in zip(row, point)) for row in inv]
                      for inv in inverses]
            assert any(all(c >= 0 for c in cs) for cs in coords), (fan.name, point)
            assert sum(all(c > 0 for c in cs) for cs in coords) <= 1, (fan.name, point)


def test_anticanonical_polytope_requires_fano():
    cones = [[0, 1], [1, 2], [2, 3], [3, 0]]
    f1 = Fan(2, [[1, 0], [0, 1], [-1, 1], [0, -1]], cones)
    assert f1.degree() == 8
    for a in (2, 3):
        fan = Fan(2, [[1, 0], [0, 1], [-1, a], [0, -1]], cones)
        with pytest.raises(InvariantViolation, match="not Q-Fano"):
            fan.anticanonical_polytope()


def test_fan_rejects_non_simplicial():
    with pytest.raises(InvariantViolation, match="not simplicial"):
        Fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0], [0, 0]])


def test_fan_rejects_dependent_cone():
    rays = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]]
    cones = [[0, 4], [4, 1], [1, 2], [2, 3], [3, 0]]
    Fan(2, rays, cones)  # fine: the refined fan
    with pytest.raises(InvariantViolation):
        Fan(2, rays, [[0, 4], [4, 1], [1, 2], [2, 3], [3, 4]])


def rejection(dim, rays, cones):
    """The message of the InvariantViolation that Fan raises on this input."""
    with pytest.raises(InvariantViolation) as excinfo:
        Fan(dim, rays, cones)
    return str(excinfo.value)


def test_fan_reports_the_first_cone_fault_in_cone_order():
    """Length, index and singularity faults are reported for the lowest cone index."""
    rays = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    # cone 0 is singular ((1,0) and (-1,0) span a line), cone 2 has three rays
    assert rejection(2, rays, [[0, 1], [1, 2], [2, 3, 0], [3, 0]]) == (
        "maximal cone 0 is not simplicial"
    )
    # cone 1 has three rays, cone 2 is singular
    assert rejection(2, rays, [[0, 2], [0, 2, 3], [2, 3], [1, 3]]) == (
        "maximal cone 1 has 3 rays, expected 2 "
        "(non-simplicial or lower-dimensional cones are rejected)"
    )
    p3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    cones = [[0, 1, 2], [0, 0, 1], [0, 2, 3], [1, 2, 3]]
    assert rejection(3, p3, cones) == "maximal cone 1 is not simplicial"


def test_fan_reports_a_singular_cone_before_an_unused_ray():
    rays = [[1, 0], [0, 1], [-1, -1], [-1, 0], [1, 1]]
    cones = [[0, 1], [1, 2], [2, 0], [0, 3]]
    assert rejection(2, rays, cones) == "maximal cone 3 is not simplicial"


def test_fan_reaches_a_cone_behind_a_singular_cone():
    # cone 1 shares a ray only with cone 2, which is singular; cone 0 comes first
    rays = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    cones = [[0, 1], [2, 3], [1, 3]]
    assert rejection(2, rays, cones) == "maximal cone 2 is not simplicial"


def test_fan_rejects_a_wall_in_three_cones():
    rays = [[1, 0], [0, 1], [-1, -1], [1, -1]]
    cones = [[0, 1], [1, 2], [2, 0], [0, 3]]
    assert rejection(2, rays, cones) == "fan not complete"


def test_fan_rejects_dimension_zero():
    with pytest.raises(InvariantViolation, match="dimension must be at least 1"):
        Fan(0, [], [])


def test_fan_rejects_cone_of_wrong_size():
    with pytest.raises(InvariantViolation, match="has 3 rays, expected 2"):
        Fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1, 2], [1, 2], [2, 0]])


def test_fan_rejects_missing_ray_index():
    with pytest.raises(InvariantViolation, match="references a missing ray"):
        Fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 3], [2, 0]])


def test_fan_rejects_wrong_dimension_ray():
    with pytest.raises(InvariantViolation, match="length"):
        Fan(2, [[1, 0, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]])


def test_overlapping_cones_detected():
    # the duplicate quadrant overlaps; the wall count already catches it
    with pytest.raises(InvariantViolation):
        Fan(
            2,
            [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]],
            [[0, 1], [0, 4], [4, 1], [1, 2], [2, 3], [3, 0]],
        )


def test_double_cover_with_x0_on_a_second_sheet_face_is_rejected():
    """The eight rays of the octagon taken in order wind twice around the
    origin, and every wall has one cone on each side of it.  x0 = (1, 1),
    inside cone 0, lies on ray 4, a face of the two second-sheet cones
    (3, 4) and (4, 5): a point on a cone's face counts as covered."""
    rays = [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, 1], [-1, -1], [1, -1]]
    with pytest.raises(InvariantViolation, match="overlapping maximal cones"):
        Fan(2, rays, [[i, (i + 1) % 8] for i in range(8)])


def test_is_smooth(p2, p123, square, p3):
    assert p2.is_smooth()
    assert square.is_smooth()
    assert p3.is_smooth()
    assert not p123.is_smooth()
    assert not load_builtin_fan("P(1,1,2)").is_smooth()
    assert not load_builtin_fan("Y(1,2,3)").is_smooth()


def test_anticanonical_polytope_p123(p123):
    poly = p123.anticanonical_polytope()
    assert set(poly.vertices) == {(-1, -1), (-1, 1), (2, -1)}
    assert p123.degree() == 6


def test_anticanonical_polytope_p1(p1):
    poly = p1.anticanonical_polytope()
    assert poly.vertices == ((-1,), (1,))
    assert p1.degree() == 2


def test_anticanonical_polytope_pn():
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        poly = fan.anticanonical_polytope()
        expected = {tuple(-1 for _ in range(n))}
        for j in range(n):
            expected.add(tuple(n if i == j else -1 for i in range(n)))
        assert set(poly.vertices) == expected
        assert fan.degree() == (n + 1) ** n


def test_vertex_cones_pair_each_vertex_with_its_tight_rays(q_fano_fans):
    """On every Q-Fano test fan `vertex_cones` has one entry per vertex of P
    and is a permutation of the maximal cones, and its entry k is exactly
    the set of rays i with R_k . v_i = -D on the integer vertex rows.  A
    fresh fan whose first call is `vertex_cones` gives the same pairing."""
    assert len(q_fano_fans) == 67
    for fan in q_fano_fans:
        cones = Fan(fan.dimension, fan.rays, fan.max_cones).vertex_cones()
        assert cones == fan.vertex_cones(), fan.name
        d, rows = fan.anticanonical_polytope().vertex_matrix
        assert len(cones) == len(fan.anticanonical_polytope().vertices) == len(rows), fan.name
        assert sorted(cones) == sorted(fan.max_cones), fan.name
        for row, cone in zip(rows, cones):
            tight = tuple(i for i, ray in enumerate(fan.rays) if sum(map(operator.mul, row, ray)) == -d)
            assert cone == tight, (fan.name, row)


def test_integer_polytope_equals_the_fraction_construction(monkeypatch, q_fano_fans):
    """The polytope built in integers from the cone adjugates equals the one
    that `RationalPolytope.from_vertices` builds from sorted Fraction vertices
    (`fraction_oracles.anticanonical_polytope`):
    the same D, rows in the same order, vertices, half-spaces, vertex cones,
    normal table and triangulation, on every Q-Fano test fan and every
    relabelled spec of the three bench workloads for seeds 1-10.  The
    table's entries equal to -D are exactly the Fraction half-space test's
    tight pairs."""
    workloads = bench_workloads(monkeypatch)
    inputs = [(fan.dimension, fan.rays, fan.max_cones) for fan in q_fano_fans]
    inputs += [
        (spec["dim"], spec["rays"], spec["cones"])
        for name in workloads.WORKLOADS
        for seed in range(1, 11)
        for spec in workloads.build(name, seed).specs
    ]
    assert len(inputs) == len(q_fano_fans) + 270
    for dim, rays, cones in inputs:
        fan = Fan(dim, rays, cones)
        oracle, vertices, vertex_cones = fraction_oracles.anticanonical_polytope(fan)
        poly = fan.anticanonical_polytope()
        assert poly.vertex_matrix == oracle.vertex_matrix, fan
        d, rows = poly.vertex_matrix
        assert d == math.lcm(*(x.denominator for v in vertices for x in v)), fan
        assert tuple(tuple(F(x, d) for x in row) for row in rows) == vertices, fan
        assert poly.vertices == vertices, fan
        assert all(type(x) is F for v in poly.vertices for x in v), fan
        assert poly.halfspaces == oracle.halfspaces, fan
        assert fan.vertex_cones() == vertex_cones, fan
        assert poly.normal_table == oracle.normal_table, fan
        assert poly.indexed_triangulation == oracle.indexed_triangulation, fan
        tight = {(k, j) for k, row in enumerate(poly.normal_table) for j, t in enumerate(row) if t == -d}
        expected = {
            (k, j)
            for k, v in enumerate(vertices)
            for j, (a, b) in enumerate(oracle.halfspaces)
            if sum(F(x) * y for x, y in zip(v, a)) == b
        }
        assert tight == expected, fan


def test_every_fan_polytope_passes_through_the_constructor(monkeypatch, corpus_fans):
    """A fresh corpus fan builds its polytope with one call of
    `RationalPolytope.__init__`, so a call counter wrapped around the
    constructor, as the bench tracer wraps it, sees every fan polytope."""
    built, init = [], vars(RationalPolytope)["__init__"]

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RationalPolytope, "__init__", counted)
    for fan in corpus_fans:
        start = len(built)
        poly = Fan(fan.dimension, fan.rays, fan.max_cones).anticanonical_polytope()
        assert built[start:] == [poly], fan.name
    assert len(built) == len(corpus_fans) == 13


def test_degree_positive_origin_interior(corpus_fans):
    for fan in corpus_fans:
        poly = fan.anticanonical_polytope()
        assert fan.degree() > 0
        assert contains(poly, (0,) * fan.dimension, strict=True)


def test_corpus_degrees():
    expected = {
        "P1": 2, "P2": 9, "P3": 64, "P4": 625, "P5": 7776,
        "P1xP1": 8, "P1xP1xP1": 48,
        "dP8": 8, "dP7": 7, "dP6": 6,
        "P(1,2,3)": 6, "P(1,1,2)": 8, "Y(1,2,3)": F(16, 3),
    }
    for name, degree in expected.items():
        assert load_builtin_fan(name).degree() == degree, name


def test_corpus_barycenters():
    expected = {
        "P1": (0,),  # segment [-1, 1] balances at the origin
        "P2": (0, 0),
        "P1xP1": (0, 0),
        "dP6": (0, 0),
        "dP8": (F(1, 12), F(1, 12)),
        "P(1,2,3)": (0, F(-1, 3)),
        "P(1,1,2)": (F(1, 3), F(-1, 3)),
        "Y(1,2,3)": (F(-1, 6), F(-5, 18)),
    }
    for name, barycenter in expected.items():
        poly = load_builtin_fan(name).anticanonical_polytope()
        assert poly.barycenter() == barycenter, name


def test_walls_pair_cones(square):
    """Validates the test-side walls oracle that `wall_nef_threshold` uses."""
    pairs = walls(square)
    assert len(pairs) == 4
    for shared, ci, cj in pairs:
        assert ci != cj
        shared_set = set(shared)
        assert shared_set <= set(square.max_cones[ci])
        assert shared_set <= set(square.max_cones[cj])


def test_star_subdivision_reproduces_blowup_fan(p123):
    sub = p123.star_subdivision((-1, 0))
    assert set(sub.rays) == {(1, 0), (0, 1), (-1, 0), (-2, -3)}
    assert len(sub.max_cones) == 4
    # matches the built-in blowup fan
    y = load_builtin_fan("Y(1,2,3)")
    assert set(sub.rays) == set(y.rays)


def test_star_subdivision_rejects_existing_ray(p2):
    with pytest.raises(InvariantViolation, match="already a ray"):
        p2.star_subdivision((1, 0))


def test_star_subdivision_interior_point(p2):
    sub = p2.star_subdivision((1, 1))
    assert (1, 1) in sub.rays
    assert len(sub.max_cones) == 4


def test_containing_cone_and_minimal_dimension(p123):
    """Validates the test-side cone-coordinate oracle on P(1,2,3)."""
    ci, coords = cone_coordinates(p123, (-1, 0))
    assert sum(coords) == 2
    assert sorted(p123.max_cones[ci]) == [1, 2]


def test_dimension_one_complete():
    fan = Fan(1, [[1], [-1]], [[0], [1]])
    assert fan.degree() == 2
    with pytest.raises(InvariantViolation, match="fan not complete"):
        Fan(1, [[1]], [[0]])


# -- cone adjugates ---------------------------------------------------------------


def bench_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("workloads")


def test_cone_adjugates_equal_one_elimination_per_cone(monkeypatch, q_fano_fans):
    """`Fan(...)` eliminates only its seed cone, yet every cone's table is
    the one that eliminating that cone gives.

    Each fan makes exactly one `lattice.eliminate` call while it is built,
    the seed's, and the walk exchanges its way to every other cone;
    afterwards each cone's multiplicity and adjugate are those of `lattice.adjugate` on
    its ray matrix, and its table is adj . [I | V | x0], x0 the sum of cone
    0's rays.  The fans are every corpus fan, every Q-Fano star subdivision
    of the test corpus (which has cones of multiplicity > 1, so the walk
    divides by a multiplicity other than 1), every relabelled spec of the
    three bench workloads for seeds 1-10, and two fans whose seed cone 0
    tests the exchanges from the standard basis: P2 with first ray (0, 1),
    which cannot take position 0, and P(1,1,2) with cone 0 of multiplicity 2.
    """
    workloads = bench_workloads(monkeypatch)
    inputs = [(fan.dimension, fan.rays, fan.max_cones) for fan in q_fano_fans]
    inputs += [
        (spec["dim"], spec["rays"], spec["cones"])
        for name in workloads.WORKLOADS
        for seed in range(1, 11)
        for spec in workloads.build(name, seed).specs
    ]
    assert len(inputs) == len(q_fano_fans) + 270
    inputs += [(2, [[0, 1], [1, 0], [-1, -1]], [[0, 1], [1, 2], [0, 2]])]
    inputs += [(2, [[1, 0], [0, 1], [-1, -2]], [[0, 2], [0, 1], [1, 2]])]
    calls = []

    def counted(*args, **kwargs):
        calls[-1] += 1
        return eliminate(*args, **kwargs)

    fans = []
    with monkeypatch.context() as patch:
        patch.setattr("toricstab.fans.eliminate", counted)
        for dim, rays, cones in inputs:
            calls.append(0)
            fans.append(Fan(dim, rays, cones))
    assert calls == [1] * len(inputs)
    assert fans[-2].rays[fans[-2].max_cones[0][0]][0] == 0
    assert fans[-1]._cone_mults[0] == 2
    multiplicities = set()
    for fan in fans:
        x0 = [sum(col) for col in zip(*(fan.rays[j] for j in fan.max_cones[0]))]
        for ci, cone in enumerate(fan.max_cones):
            d, adj = adjugate([[fan.rays[j][i] for j in cone] for i in range(fan.dimension)])
            adj = tuple(tuple(x if d > 0 else -x for x in row) for row in adj)
            adjugate_columns = tuple(row[: fan.dimension] for row in fan._cone_tables[ci])
            assert (fan._cone_mults[ci], adjugate_columns) == (abs(d), adj), (fan, ci)
            columns = (*fan.rays, x0)
            table = [(*row, *(sum(map(operator.mul, row, v)) for v in columns)) for row in adj]
            assert fan._cone_tables[ci] == table, (fan, ci)
        multiplicities.update(fan._cone_mults)
    assert {1, 2, 3} <= multiplicities


def test_the_walk_on_relabelled_fans_equals_one_elimination_per_cone(relabelled_fans):
    """On every relabelled fan, where the walk starts from another cone and
    crosses the walls in another order, each cone's adjugate and
    multiplicity are those of `lattice.adjugate` on its ray matrix, its
    column sums are those of adj . [I | V], and the polytope's vertex
    matrix, normal table and vertex cones are the Fraction construction's."""
    for fan in relabelled_fans:
        n = fan.dimension
        for ci, cone in enumerate(fan.max_cones):
            d, adj = adjugate([[fan.rays[j][i] for j in cone] for i in range(n)])
            adj = tuple(tuple(x if d > 0 else -x for x in row) for row in adj)
            adjugate_columns = tuple(row[:n] for row in fan._cone_tables[ci])
            assert (fan._cone_mults[ci], adjugate_columns) == (abs(d), adj), (fan, ci)
            columns = [*zip(*adj), *([sum(map(operator.mul, row, v)) for row in adj] for v in fan.rays)]
            assert fan._cone_sums[ci][: n + len(fan.rays)] == [sum(col) for col in columns], (fan, ci)
        oracle, vertices, vertex_cones = fraction_oracles.anticanonical_polytope(fan)
        poly = fan.anticanonical_polytope()
        assert poly.vertex_matrix == oracle.vertex_matrix, fan
        assert poly.normal_table == oracle.normal_table, fan
        assert fan.vertex_cones() == vertex_cones, fan


def test_q_fano_is_checked_only_by_the_polytope(corpus_fans):
    """Every star subdivision of a corpus fan of dimension <= 3 at a nonzero
    point of {-1, 0, 1}^n constructs, Q-Fano or not.  Only
    `anticanonical_polytope` raises, with the message the Fraction
    construction raises, naming the same first cone: 23 of the 77 are not
    Q-Fano, and the other 54 are the star subdivisions in `q_fano_fans`."""
    failures = 0
    for fan in corpus_fans:
        if fan.dimension > 3:
            continue
        for w in itertools.product((-1, 0, 1), repeat=fan.dimension):
            if not any(w) or fan.ray_index(w) is not None:
                continue
            sub = fan.star_subdivision(w)
            fresh = Fan(sub.dimension, sub.rays, sub.max_cones)
            try:
                fraction_oracles.anticanonical_polytope(sub)
            except InvariantViolation as exc:
                failures += 1
                with pytest.raises(InvariantViolation) as excinfo:
                    fresh.anticanonical_polytope()
                assert str(excinfo.value) == str(exc), sub
            else:
                fresh.anticanonical_polytope()
    assert failures == 23


# -- automorphisms ---------------------------------------------------------------


def group_closure(generators, n):
    """The matrix group the generators generate, by closure from the identity."""
    group = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
    seen = set(group)
    for a in group:
        for g in generators:
            product = tuple(tuple(sum(map(operator.mul, row, col)) for col in zip(*a)) for row in g)
            if product not in seen:
                seen.add(product)
                group.append(product)
    return seen


def test_automorphisms_match_the_bench_reference(monkeypatch, corpus_fans, relabelled_fans):
    """The group that `Fan.automorphism_generators` generates equals the
    bench's search over all ordered ray tuples, on the corpus, on every
    relabelled fan and on the products P1xP2, P2xP2 and P1xP3.  There are at
    most log2 |G| generators: each lies outside the group of those before it."""
    workloads = bench_workloads(monkeypatch)
    specs = builtin_fan_specs()
    cases = [(fan, specs[fan.name]) for fan in corpus_fans]
    for a, b in (("P1", "P2"), ("P2", "P2"), ("P1", "P3")):
        spec = workloads.product_spec(specs[a], specs[b])
        cases.append((Fan(spec["dim"], spec["rays"], spec["cones"], name=spec["name"]), spec))
    cases += [(fan, {"dim": fan.dimension, "rays": fan.rays, "cones": fan.max_cones}) for fan in relabelled_fans]
    for fan, spec in cases:
        generators = fan.automorphism_generators()
        group = group_closure(generators, fan.dimension)
        assert group == set(workloads.automorphisms(spec)), fan.name
        assert 2 ** len(generators) <= len(group), fan.name  # each generator at least doubles the group


@pytest.mark.parametrize("name,order", [
    ("P1", 2), ("P2", 6), ("P3", 24), ("P4", 120), ("P5", 720), ("P1xP1", 8),
    ("dP6", 12), ("P1xP1xP1", 48), ("P(1,2,3)", 1), ("Y(1,2,3)", 1),
])
def test_automorphism_group_orders(name, order):
    fan = load_builtin_fan(name)
    assert len(group_closure(fan.automorphism_generators(), fan.dimension)) == order


class UnreadableTables:
    """Stands in for `Fan._cone_tables`: any read fails the test."""

    def __getitem__(self, index):
        raise AssertionError("cone table read over budget")

    def __iter__(self):
        raise AssertionError("cone table read over budget")


def test_automorphisms_bounded_by_the_oracle_budget(monkeypatch):
    """More candidates than the budget: no search runs, so no cone table is
    read, and there are no generators; at the budget the group is found."""
    fan = Fan(3, *[builtin_fan_specs()["P1xP1xP1"][k] for k in ("rays", "cones")])
    tables = fan._cone_tables
    monkeypatch.setenv("TKS_ORACLE_BUDGET", str(8 * 6 - 1))
    monkeypatch.setattr(fan, "_cone_tables", UnreadableTables())
    assert fan.automorphism_generators() == ()
    monkeypatch.setenv("TKS_ORACLE_BUDGET", str(8 * 6))
    monkeypatch.setattr(fan, "_cone_tables", tables)
    assert len(group_closure(fan.automorphism_generators(), 3)) == 48


def test_fan_and_polytope_reprs_give_the_sizes(p2):
    """A fan's repr names it only when it has a name; its polytope's repr
    counts facets and vertices."""
    assert repr(p2) == "Fan(dim=2 'P2', rays=3, cones=3)"
    assert repr(Fan(1, [[1], [-1]], [[0], [1]])) == "Fan(dim=1, rays=2, cones=2)"
    assert repr(p2.anticanonical_polytope()) == "RationalPolytope(dim=2, facets=3, vertices=3)"
