"""Fan validation, smoothness, anticanonical polytopes, star subdivision."""

import random
from fractions import Fraction as F

import pytest

from toricstab.errors import InvariantViolation
from toricstab.fans import Fan
from toricstab.lattice import matrix_inverse
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
            matrix_inverse([[fan.rays[j][i] for j in cone.ray_indices] for i in range(n)])
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


def test_degree_positive_origin_interior(corpus_fans):
    for fan in corpus_fans:
        poly = fan.anticanonical_polytope()
        assert fan.degree() > 0
        assert poly.contains((0,) * fan.dimension, strict=True)


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
    walls = square.walls()
    assert len(walls) == 4
    for shared, ci, cj in walls:
        assert ci != cj
        shared_set = set(shared)
        assert shared_set <= set(square.max_cones[ci].ray_indices)
        assert shared_set <= set(square.max_cones[cj].ray_indices)


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
    ci, coords = p123.cone_coordinates((-1, 0))
    assert sum(coords) == 2
    assert sorted(p123.max_cones[ci].ray_indices) == [1, 2]


def test_dimension_one_complete():
    fan = Fan(1, [[1], [-1]], [[0], [1]])
    assert fan.degree() == 2
    with pytest.raises(InvariantViolation, match="fan not complete"):
        Fan(1, [[1]], [[0]])
