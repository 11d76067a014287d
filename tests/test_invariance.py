"""Invariance under a change of lattice basis.

A unimodular g in GL_n(Z) maps a fan to an isomorphic one: ray j goes to
g v_j and the cones keep their ray indices.  The anticanonical polytope
goes to g^-T P, so what belongs to the variety is unchanged: the degree,
alpha and its witness ray, and at g w every invariant of w.  The
barycenter maps as b = g^T b'.  The screen's battery is the coordinate box
[-r, r]^n, which g does not preserve, so its verdict belongs to the fan's
coordinates and the radius; one such case is pinned.
"""

import random

import pytest

from toricstab.alpha import alpha_invariant
from toricstab.corpus import builtin_fan_specs
from toricstab.fans import Fan
from toricstab.valuations import (
    ToricValuation,
    beta_invariant,
    center_codim,
    log_discrepancy,
    nef_threshold,
    pseff_threshold,
    volume_function,
)
from toricstab.workbench import load_builtin_fan, screen_projective_space


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
