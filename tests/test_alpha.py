"""Alpha invariant: values, witnesses, the ray-threshold identity, the
stability threshold n/(n+1)."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from toricstab.alpha import AlphaResult, alpha_invariant
from toricstab.lattice import dot
from toricstab.valuations import ToricValuation, pseff_threshold
from toricstab.workbench import load_builtin_fan, parse_fan_spec
from toricstab.corpus import projective_space_spec


def test_alpha_weighted_plane(p123):
    result = alpha_invariant(p123)
    assert result.alpha == F(1, 6)
    assert result.witness_ray_index == 2  # the ray (-2, -3)
    assert result.witness_m == (-1, -1)
    assert result.witness_divisor == (0, 0, 6)
    assert result.ray_thresholds == (3, 2, 6)


def test_alpha_result_checks_its_witness(p123):
    """A result whose alpha is not positive, whose witness divisor is not
    effective, or whose top coefficient is not 1/alpha raises."""
    result = alpha_invariant(p123)
    with pytest.raises(AssertionError, match="^alpha must be positive$"):
        replace(result, alpha=F(0))
    with pytest.raises(AssertionError, match="^witness divisor must be effective$"):
        replace(result, witness_divisor=(F(-1), F(0), F(6)))
    with pytest.raises(AssertionError, match="^witness extremal coefficient must equal 1/alpha$"):
        replace(result, alpha=F(1, 3))


def test_alpha_known_values():
    expected = {
        "P1": F(1, 2),
        "P2": F(1, 3),
        "P1xP1": F(1, 2),
        "P(1,2,3)": F(1, 6),
        "dP6": F(1, 2),
    }
    for name, alpha in expected.items():
        assert alpha_invariant(load_builtin_fan(name)).alpha == alpha, name


def test_alpha_projective_spaces_monotone():
    values = []
    for n in range(1, 7):
        fan = parse_fan_spec(projective_space_spec(n))
        result = alpha_invariant(fan)
        assert result.alpha == F(1, n + 1)
        values.append(result.alpha)
    assert values == sorted(values, reverse=True)


def test_alpha_equals_inverse_max_ray_threshold(corpus_fans):
    for fan in corpus_fans:
        result = alpha_invariant(fan)
        thresholds = [
            pseff_threshold(ToricValuation(fan, ray)) for ray in fan.rays
        ]
        assert tuple(thresholds) == result.ray_thresholds
        assert result.alpha == 1 / max(thresholds), fan.name


def test_alpha_witness_validity(corpus_fans):
    for fan in corpus_fans:
        result = alpha_invariant(fan)
        divisor = result.witness_divisor
        assert all(d >= 0 for d in divisor)
        # linear equivalence with the anticanonical class: d_i = 1 + <m, v_i>
        assert divisor == tuple(1 + dot(result.witness_m, ray) for ray in fan.rays)
        assert max(divisor) * result.alpha == 1


def test_alpha_stability_threshold(q_fano_fans):
    """alpha(X) < n/(n+1) on every smooth fan with n >= 2, alpha <= n/(n+1) on
    every fan, and P1 alone sits on the threshold, at 1/2.

    A Fano manifold with alpha = n/(n+1) and n >= 2 is K-stable (this paper),
    and so is a Q-Fano variety with alpha > n/(n+1) (Odaka-Sano, Adv. Math.
    2012); either way Aut(X) is finite.  A toric X contains its torus, so
    neither can hold.
    """
    counts = {"smooth": 0, "singular": 0, "P1": 0}
    for fan in q_fano_fans:
        n = fan.dimension
        alpha = alpha_invariant(fan).alpha
        threshold = F(n, n + 1)
        assert alpha <= threshold, fan.name
        if n == 1:
            assert fan.name == "P1" and alpha == F(1, 2)
            counts["P1"] += 1
        elif fan.is_smooth():
            assert alpha < threshold, fan.name
            counts["smooth"] += 1
        else:
            counts["singular"] += 1
    assert counts == {"smooth": 41, "singular": 25, "P1": 1}


def alpha_with_fraction_tie_break(fan):
    """`alpha_invariant` with its ties broken on the Fraction vertices, as before
    the integer rows D * u took their place."""
    poly = fan.anticanonical_polytope()
    d, rows = poly.vertex_matrix
    thresholds, argmax_vertices = [], []
    for ray in fan.rays:
        values = poly.vertex_values(ray)
        k = max(range(len(values)), key=lambda i: (values[i], poly.vertices[i]))
        thresholds.append(1 + F(values[k], d))
        argmax_vertices.append(k)
    worst = max(range(len(fan.rays)), key=lambda j: (thresholds[j], -j))
    k = argmax_vertices[worst]
    return AlphaResult(
        alpha=1 / thresholds[worst],
        witness_ray_index=worst,
        witness_divisor=tuple(1 + F(dot(rows[k], ray), d) for ray in fan.rays),
        witness_m=poly.vertices[k],
        ray_thresholds=tuple(thresholds),
    )


def test_alpha_tie_break_on_rows_equals_the_fraction_tie_break(q_fano_fans):
    """Ties on the largest value go to the lexicographically largest vertex,
    read off its integer row D * u with D > 0: the same vertex, the same result."""
    tied = 0
    for fan in q_fano_fans:
        assert alpha_invariant(fan) == alpha_with_fraction_tie_break(fan), fan.name
        poly = fan.anticanonical_polytope()
        for ray in fan.rays:
            values = poly.vertex_values(ray)
            tied += values.count(max(values)) > 1
    # the largest value is tied on over half of the rays
    assert tied > 150
