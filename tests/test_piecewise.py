"""Polynomial pieces: interpolation, calculus, root comparisons."""

import math
import random
from fractions import Fraction as F

import pytest

from toricstab.piecewise import (
    PiecewisePolynomial,
    int_nth_root,
    lagrange_interpolate,
    midpoint_root_concave,
    nth_root_bounds,
    poly_antiderivative,
    poly_derivative,
    poly_eval,
    poly_from_shifted,
    poly_linear_power,
    poly_trim,
    spline_cdf_jumps,
)


def test_lagrange_exact():
    # 6 - (2/3)x^2 through three points
    pts = [(F(0), F(6)), (F(1), F(16, 3)), (F(2), F(10, 3))]
    assert lagrange_interpolate(pts) == (F(6), F(0), F(-2, 3))


def test_poly_calculus():
    p = (F(6), F(0), F(-2, 3))
    assert poly_derivative(p) == (F(0), F(-4, 3))
    anti = poly_antiderivative(p)
    assert poly_eval(anti, F(3)) - poly_eval(anti, F(0)) == 12


def test_poly_trim():
    assert poly_trim([F(1), F(0), F(0)]) == (F(1),)
    assert poly_trim([F(0)]) == (F(0),)


def test_piecewise_merges_identical_pieces():
    fn = PiecewisePolynomial(
        (F(0), F(1), F(2)), ((F(1), F(2)), (F(1), F(2)))
    )
    assert fn.breakpoints == (F(0), F(2))
    assert len(fn.pieces) == 1


def test_piecewise_rejects_discontinuity():
    with pytest.raises(ValueError, match="discontinuity"):
        PiecewisePolynomial((F(0), F(1), F(2)), ((F(0),), (F(5),)))


def test_piecewise_eval_and_integral():
    fn = PiecewisePolynomial(
        (F(0), F(2), F(4)),
        ((F(8), F(0), F(-1)), (F(16), F(-8), F(1))),
    )
    assert fn(0) == 8 and fn(2) == 4 and fn(4) == 0
    assert fn(F(1, 2)) == 8 - F(1, 4)
    assert fn.integral() == 16
    assert fn.integral(0, 2) == 16 - F(8, 3)
    assert fn.is_c1()
    left, right = fn.one_sided_derivatives(F(2))
    assert left == right == -4


def test_piecewise_domain_errors():
    fn = PiecewisePolynomial((F(0), F(1)), ((F(1),),))
    with pytest.raises(ValueError, match="outside domain"):
        fn(F(2))
    with pytest.raises(ValueError, match="outside domain"):
        fn.integral(0, 2)


def test_int_nth_root():
    assert int_nth_root(0, 3) == 0
    assert int_nth_root(26, 3) == 2
    assert int_nth_root(27, 3) == 3
    assert int_nth_root(10**24, 2) == 10**12
    assert int_nth_root(7**30 - 1, 5) == 7**6 - 1


def test_nth_root_bounds_bracket():
    lo, hi = nth_root_bounds(F(2), 2, 10**12)
    assert lo**2 <= 2 <= hi**2
    assert hi - lo == F(1, 10**12)
    lo, hi = nth_root_bounds(F(8), 3, 10**12)
    assert lo == hi == 2 or (lo**3 <= 8 <= hi**3)


def test_poly_linear_power():
    # (x - 6)^2
    assert poly_linear_power((F(36), F(-12), F(1)), 2) == (F(1), F(-6))
    # (5 - x)^3 = -(x - 5)^3: odd power with negative leading coefficient
    assert poly_linear_power((F(125), F(-75), F(15), F(-1)), 3) == (F(-1), F(-5))
    # 2(x+1)^2
    assert poly_linear_power((F(2), F(4), F(2)), 2) == (F(2), F(1))
    # x^2 + 1 is not a linear power
    assert poly_linear_power((F(1), F(0), F(1)), 2) is None
    # negative leading with even power cannot be nonnegative
    assert poly_linear_power((F(-1), F(0), F(-1)), 2) is None


def test_midpoint_root_concave_strict_cases():
    # sqrt is strictly concave: q(x) = x on [0, 4]
    fn = PiecewisePolynomial((F(0), F(4)), ((F(0), F(1)),))
    assert midpoint_root_concave(fn, 2, F(1), F(3))
    # q(x) = x^2 has sqrt affine: equality case via the structural branch
    fn2 = PiecewisePolynomial((F(0), F(4)), ((F(0), F(0), F(1)),))
    assert midpoint_root_concave(fn2, 2, F(1), F(3))
    # decreasing cube: (5-x)^3 with m=3 (affine root, negative slope)
    fn3 = PiecewisePolynomial(
        (F(0), F(5)), ((F(125), F(-75), F(15), F(-1)),)
    )
    assert midpoint_root_concave(fn3, 3, F(1), F(2))
    # convex root violation: q(x) = x^4, sqrt = x^2 is convex
    fn4 = PiecewisePolynomial((F(0), F(4)), ((F(0), F(0), F(0), F(0), F(1)),))
    assert not midpoint_root_concave(fn4, 2, F(1), F(3))


def test_midpoint_root_concave_m1():
    fn = PiecewisePolynomial((F(0), F(2), F(4)), ((F(0), F(1)), (F(4), F(-1))))
    assert midpoint_root_concave(fn, 1, F(1), F(3))
    assert midpoint_root_concave(fn, 1, F(0), F(4))


def test_midpoint_root_concave_rejects_negative():
    fn = PiecewisePolynomial((F(0), F(4)), ((F(-1), F(1)),))
    with pytest.raises(ValueError, match="nonnegative"):
        midpoint_root_concave(fn, 2, F(0), F(2))


def cdf_on_piece(knots, left):
    """Ascending coefficients of the spline distribution function just above `left`."""
    total = [F(0)] * len(knots)
    for tau, jump in spline_cdf_jumps(knots).items():
        if tau <= left:
            for k, c in enumerate(poly_from_shifted(jump, tau)):
                total[k] += c
    return poly_trim(total)


def test_poly_from_shifted():
    assert poly_from_shifted([F(1), F(2), F(3)], F(1)) == (F(2), F(-4), F(3))
    assert poly_from_shifted([F(0), F(0), F(1)], F(-2)) == (F(4), F(4), F(1))
    assert poly_from_shifted([F(5)], F(7)) == (F(5),)


def test_spline_cdf_repeated_knots():
    """Confluent divided differences on (0, 1), where the knots 0 lie below x."""
    assert cdf_on_piece([F(0), F(1)], F(0)) == (F(0), F(1))
    # 1 - (1 - x)^2
    assert cdf_on_piece([F(0), F(0), F(1)], F(0)) == (F(0), F(2), F(-1))
    assert cdf_on_piece([F(0), F(1), F(1)], F(0)) == (F(0), F(0), F(1))
    assert cdf_on_piece([F(0), F(0), F(1), F(1)], F(0)) == (F(0), F(0), F(3), F(-2))
    # every knot at or below x: the whole mass
    for knots in ([F(0), F(0), F(1)], [F(0), F(1), F(1)], [F(0), F(0), F(1), F(1)]):
        assert cdf_on_piece(knots, F(1)) == (F(1),)
    with pytest.raises(ValueError, match="coincide"):
        spline_cdf_jumps([F(2), F(2), F(2)])


def test_spline_cdf_distinct_knots_random():
    """Distinct knots: the jumps sum to sum_i (x - t_i)^n / prod_{j!=i} (t_j - t_i)."""
    rng = random.Random(2024)
    for trial in range(40):
        n = 1 + trial % 5
        knots = sorted(F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(n + 1))
        if len(set(knots)) != n + 1:
            continue
        rng.shuffle(knots)
        for left in sorted(knots)[:-1]:
            expected = [F(0)] * (n + 1)
            for i, ti in enumerate(knots):
                if ti > left:
                    continue
                denom = math.prod(tj - ti for j, tj in enumerate(knots) if j != i)
                for k in range(n + 1):
                    expected[k] += math.comb(n, k) * (-ti) ** (n - k) / denom
            assert cdf_on_piece(knots, left) == poly_trim(expected)
