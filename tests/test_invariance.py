"""Invariance under a change of lattice basis.

A unimodular g in GL_n(Z) maps a fan to an isomorphic one: ray j goes to
g v_j and the cones keep their ray indices.  The anticanonical polytope
goes to g^-T P, so what belongs to the variety is unchanged: the degree,
alpha and its witness ray, the automorphism group (conjugated by g), and at
g w every invariant of w, both certificates and the section count.  The
barycenter maps as b = g^T b'.  The screen's battery is the coordinate box
[-r, r]^n, which g does not preserve, so its verdict belongs to the fan's
coordinates and the radius; one such case is pinned, and the image's
witnesses are exactly the box vectors whose preimage is a witness.  The
lattice-point box of kP behind `section_count` depends on g the same way.
"""

import functools
import math
import operator
import random

import pytest

from test_fans import bench_workloads, group_closure

from toricstab.alpha import alpha_invariant
from toricstab.corpus import builtin_fan_specs
from toricstab.fans import Fan
from toricstab.lattice import matrix_inverse
from toricstab.polytopes import default_oracle_budget
from toricstab.valuations import (
    ToricValuation,
    beta_invariant,
    center_codim,
    certify_equality_case,
    certify_extremal_volume,
    log_discrepancy,
    nef_threshold,
    pseff_threshold,
    row_meets_equality_bound,
    section_count,
    volume_function,
)
from toricstab.workbench import battery_vectors, load_builtin_fan, screen_projective_space


def apply(g, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in g)


def unimodular(n, rng):
    """A seeded product of 2n + 1 elementary row additions and sign flips (n = 1:
    three flips), drawn again until it is not the identity."""
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    g = identity
    while g == identity:
        g = [list(row) for row in identity]
        for _ in range(2 * n + 1):
            i = rng.randrange(n)
            if n == 1 or rng.random() < 0.25:
                g[i] = [-a for a in g[i]]
            else:
                j = rng.choice([k for k in range(n) if k != i])
                k = rng.choice((-2, -1, 1, 2))
                g[i] = [a + k * b for a, b in zip(g[i], g[j])]
        g = tuple(map(tuple, g))
    return g


def moved(fan, g):
    return Fan(fan.dimension, [apply(g, v) for v in fan.rays], fan.max_cones, fan.name)


def box_points(fan, scale):
    """Points in the bounding box of scale * P that `lattice_points` scans."""
    d, rows = fan.anticanonical_polytope().vertex_matrix
    return math.prod(-(-scale * max(c) // d) - scale * min(c) // d + 1 for c in zip(*rows))


SECTION_BOX = 10**4  # the largest box of 2P on which section_count(., 2, 1) is compared


def pairs():
    rng = random.Random(41)
    for name in builtin_fan_specs():
        fan = load_builtin_fan(name)
        for k in range(4):
            yield pytest.param(fan, unimodular(fan.dimension, rng), id=f"{name}-{k}")


@pytest.mark.parametrize("fan, g", pairs())
def test_invariants_follow_a_change_of_basis(fan, g):
    n, image = fan.dimension, moved(fan, g)
    assert image.degree() == fan.degree()
    alpha, alpha_image = alpha_invariant(fan), alpha_invariant(image)
    assert (alpha_image.alpha, alpha_image.witness_ray_index) == (alpha.alpha, alpha.witness_ray_index)
    b, b_image = fan.anticanonical_polytope().barycenter(), image.anticanonical_polytope().barycenter()
    assert b == tuple(sum(g[k][i] * b_image[k] for k in range(n)) for i in range(n))
    for w in ((1,) + (0,) * (n - 1), (-1,) * n, tuple(range(1, n + 1))):
        val, val_image = ToricValuation(fan, w), ToricValuation(image, apply(g, w))
        for invariant in (
            log_discrepancy,
            pseff_threshold,
            nef_threshold,
            beta_invariant,
            volume_function,
            center_codim,
        ):
            assert invariant(val_image) == invariant(val), (invariant.__name__, w)


def test_invariants_follow_a_change_of_basis_on_subdivisions_and_products(monkeypatch, corpus_fans, q_fano_fans):
    """One seeded g for each of the 54 star subdivisions in `q_fano_fans` and
    for P1xP2, P1xP(1,2,3), P1xdP6 and P1xdP8, each taken through the checks
    of `test_invariants_follow_a_change_of_basis`."""
    specs, workloads = builtin_fan_specs(), bench_workloads(monkeypatch)
    products = [workloads.product_spec(specs["P1"], specs[b]) for b in ("P2", "P(1,2,3)", "dP6", "dP8")]
    fans = q_fano_fans[len(corpus_fans) :] + [Fan(s["dim"], s["rays"], s["cones"], s["name"]) for s in products]
    assert len(fans) == 58
    rng = random.Random(43)
    for fan in fans:
        test_invariants_follow_a_change_of_basis(fan, unimodular(fan.dimension, rng))


@pytest.mark.parametrize("fan, g", pairs())
def test_image_witnesses_are_the_mapped_witnesses_in_the_box(fan, g):
    """At radius 1, u in the image's box is a witness of the image's screen
    exactly when g^-1 u meets the bound on the fan (`row_meets_equality_bound`
    on its vertex row) and has beta <= 0 there (<M, g^-1 u> >= 0 for the
    moment form (E, M)); each witness carries A, tau and beta of g^-1 u."""
    n, image = fan.dimension, moved(fan, g)
    g_inverse = tuple(tuple(int(x) for x in row) for row in matrix_inverse(g))
    poly = fan.anticanonical_polytope()
    moment = poly.moment_form()[1]
    expected = []
    for u in battery_vectors(image, 1):
        w = apply(g_inverse, u)
        if row_meets_equality_bound(n, poly.vertex_values(w)) and sum(map(operator.mul, moment, w)) >= 0:
            expected.append(u)
    witnesses = screen_projective_space(image, 1).witnesses
    assert [s.w for s in witnesses] == expected
    for s in witnesses:
        val = ToricValuation(fan, apply(g_inverse, s.w))
        assert (s.log_discrepancy, s.pseff_threshold, s.beta) == (
            log_discrepancy(val),
            pseff_threshold(val),
            beta_invariant(val),
        ), s.w


def test_section_count_budget_depends_on_the_basis():
    """`section_count` scans the coordinate box of kP: on pair P5-1 the
    image's box of 2P exceeds the oracle budget and the original's does not."""
    fan, g = next(p.values for p in pairs() if p.id == "P5-1")
    assert box_points(moved(fan, g), 2) == 34_490_365 > default_oracle_budget()
    assert box_points(fan, 2) == 371_293 <= default_oracle_budget()


def times(a, b):
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in zip(*b)) for row in a)


@functools.cache
def corpus_group(name):
    fan = load_builtin_fan(name)
    return group_closure(fan.automorphism_generators(), fan.dimension)


@pytest.mark.parametrize("fan, g", pairs())
def test_certificates_group_and_sections_follow_a_change_of_basis(fan, g):
    """Both certificates (status, quantities, checks) at g w equal those at w; the
    image's automorphism group is g G g^-1: it has G's order and g^-1 h g lies in
    G for each of its generators h; and section_count(., 2, 1) agrees where the
    image's box of 2P is small enough."""
    n, image = fan.dimension, moved(fan, g)
    group, generators = corpus_group(fan.name), image.automorphism_generators()
    assert len(group_closure(generators, n)) == len(group)
    g_inverse = tuple(tuple(int(x) for x in row) for row in matrix_inverse(g))
    assert all(times(times(g_inverse, h), g) in group for h in generators)
    sections = box_points(image, 2) <= SECTION_BOX
    for w in ((1,) + (0,) * (n - 1), (-1,) * n, tuple(range(1, n + 1))):
        val, val_image = ToricValuation(fan, w), ToricValuation(image, apply(g, w))
        for certify in (certify_extremal_volume, certify_equality_case):
            assert certify(val_image) == certify(val), (certify.__name__, w)
        if sections:
            assert section_count(val_image, 2, 1) == section_count(val, 2, 1), w


def test_section_count_comparison_skips_ten_pairs():
    """The pairs whose image's box of 2P exceeds `SECTION_BOX`: 10 of 52."""
    skipped = [p.id for p in pairs() if box_points(moved(*p.values), 2) > SECTION_BOX]
    assert skipped == ["P3-0", *(f"P{n}-{k}" for n in (4, 5) for k in range(4)), "P1xP1xP1-3"]


def test_screen_verdict_depends_on_the_basis():
    """P2's three witnesses -v_k map under g to (5, 2), (-3, -1) and (-2, -1):
    none lies in the radius-1 box, and all three lie in the radius-5 box."""
    fan, g = load_builtin_fan("P2"), ((-5, 3), (-2, 1))
    image = moved(fan, g)
    assert screen_projective_space(fan, 1).verdict == "witnesses on projective space (equality case)"
    assert screen_projective_space(image, 1).verdict == "no witnesses"
    wide = screen_projective_space(image, 5)
    assert wide.verdict == "witnesses on projective space (equality case)"
    witnesses = {apply(g, s.w) for s in screen_projective_space(fan, 1).witnesses}
    assert {s.w for s in wide.witnesses} == witnesses == {(5, 2), (-3, -1), (-2, -1)}
