"""Polynomial pieces: interpolation, calculus, root comparisons."""

import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracles import (
    int_form,
    poly_antiderivative,
    poly_derivative,
    poly_eval,
    poly_from_shifted,
    poly_linear_power,
)
from fraction_oracles import spline_cdf_jumps as oracle_spline_cdf_jumps
from toricstab.piecewise import (
    PiecewisePolynomial,
    int_nth_root,
    lagrange_interpolate,
    midpoint_root_concave,
    nth_root_bounds,
    poly_trim,
    root_concave_certificate,
    root_floor,
    spline_cdf_jumps,
    taylor_shift,
)


def test_lagrange_exact():
    # 6 - (2/3)x^2 through three points
    pts = [(F(0), F(6)), (F(1), F(16, 3)), (F(2), F(10, 3))]
    assert lagrange_interpolate(pts) == (F(6), F(0), F(-2, 3))


def test_lagrange_through_seeded_distinct_points():
    """For n = 0..7 seeded distinct rational points the trimmed interpolant has at
    most max(n, 1) coefficients and takes every point's value."""
    rng = random.Random(42)
    candidates = sorted({F(p, q) for p in range(-9, 10) for q in range(1, 5)})
    for n in range(8):
        for _ in range(5):
            xs = rng.sample(candidates, n)
            points = [(x, F(rng.randint(-20, 20), rng.randint(1, 6))) for x in xs]
            result = lagrange_interpolate(points)
            assert 1 <= len(result) <= max(n, 1) and all(type(c) is F for c in result)
            assert all(poly_eval(result, x) == y for x, y in points)


def test_lagrange_empty_and_repeated():
    assert lagrange_interpolate([]) == (F(0),)
    with pytest.raises(ValueError, match="singular system"):
        lagrange_interpolate([(F(1), F(2)), (F(3), F(0)), (F(1), F(5))])


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


def test_piecewise_rejects_malformed_grids():
    with pytest.raises(ValueError, match="breakpoint/piece count mismatch"):
        PiecewisePolynomial((F(0), F(1), F(2)), ((F(1),),))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewisePolynomial((F(0), F(2), F(1)), ((F(1),), (F(1),)))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewisePolynomial((F(0), F(0)), ((F(1),),))


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
    assert fn.is_c1()


def test_piecewise_domain_errors():
    fn = PiecewisePolynomial((F(0), F(1)), ((F(1),),))
    with pytest.raises(ValueError, match="outside domain"):
        fn(F(2))


def test_int_nth_root():
    assert int_nth_root(0, 3) == 0
    assert int_nth_root(26, 3) == 2
    assert int_nth_root(27, 3) == 3
    assert int_nth_root(10**24, 2) == 10**12
    assert int_nth_root(7**30 - 1, 5) == 7**6 - 1
    with pytest.raises(ValueError, match="^negative radicand$"):
        int_nth_root(-1, 3)


def newton_nth_root(value, m):
    """The earlier int_nth_root: integer Newton from the power of two above the root."""
    if value == 0 or m == 1:
        return value
    r = 1 << (value.bit_length() // m + 1)
    while True:
        nxt = ((m - 1) * r + value // r ** (m - 1)) // m
        if nxt >= r:
            break
        r = nxt
    while r**m > value:
        r -= 1
    return r


def test_int_nth_root_matches_newton():
    """The root (the `math.isqrt` chain for even m, integer Newton from 2^ceil(b/m)
    for odd m) equals the earlier Newton root on random values and at perfect
    powers, for m = 2 to 9."""
    rng = random.Random(900)
    for m in range(2, 10):
        for v in range(200):
            assert int_nth_root(v, m) == newton_nth_root(v, m)
        for _ in range(300):
            v = rng.getrandbits(rng.randint(1, 900))
            assert int_nth_root(v, m) == newton_nth_root(v, m), (v, m)
            k = rng.getrandbits(rng.randint(1, 900 // m)) + 2
            assert int_nth_root(k**m, m) == newton_nth_root(k**m, m) == k
            assert int_nth_root(k**m - 1, m) == newton_nth_root(k**m - 1, m) == k - 1


def test_root_order_below_one_is_refused():
    """m < 1 raises the same ValueError as `midpoint_root_concave`, directly,
    through `root_floor`, and through `nth_root_bounds` at a nonzero f and
    at f = 0, which `nth_root_bounds` would otherwise return unrooted."""
    for m in (0, -1, -2):
        message = rf"^root order must be at least 1, got {m}$"
        with pytest.raises(ValueError, match=message):
            int_nth_root(27, m)
        with pytest.raises(ValueError, match=message):
            root_floor(27, 1, m, 10)
        with pytest.raises(ValueError, match=message):
            nth_root_bounds(F(2), m, 10)
        with pytest.raises(ValueError, match=message):
            nth_root_bounds(F(0), m, 10)


def test_nth_root_bounds_bracket():
    lo, hi = nth_root_bounds(F(2), 2, 10**12)
    assert lo**2 <= 2 <= hi**2
    assert hi - lo == F(1, 10**12)
    lo, hi = nth_root_bounds(F(8), 3, 10**12)
    assert lo == hi == 2 or (lo**3 <= 8 <= hi**3)


def test_poly_linear_power():
    cases = [
        # (x - 6)^2
        ((F(36), F(-12), F(1)), 2, (F(1), F(-6))),
        # (5 - x)^3 = -(x - 5)^3: odd power with negative leading coefficient
        ((F(125), F(-75), F(15), F(-1)), 3, (F(-1), F(-5))),
        # 2(x+1)^2
        ((F(2), F(4), F(2)), 2, (F(2), F(1))),
        # x^2 + 1 is not a linear power
        ((F(1), F(0), F(1)), 2, None),
        # negative leading with even power cannot be nonnegative
        ((F(-1), F(0), F(-1)), 2, None),
    ]
    for p, m, expected in cases:
        assert poly_linear_power(p, m) == expected


def test_midpoint_root_concave_strict_cases():
    # sqrt is strictly concave: q(x) = x on [0, 4]
    fn = PiecewisePolynomial((F(0), F(4)), ((F(0), F(1)),))
    assert midpoint_root_concave(fn, 2, F(1), F(3))
    # q(x) = x^2 has sqrt affine: an equality, t^2 = 4ac in the closed form
    fn2 = PiecewisePolynomial((F(0), F(4)), ((F(0), F(0), F(1)),))
    assert midpoint_root_concave(fn2, 2, F(1), F(3))
    # decreasing cube: (5-x)^3 with m=3 (affine root, negative slope), t^3 = 216abc
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


def test_midpoint_root_concave_zero_midpoint_below_every_bracket():
    """(x - 1)^2 / 10^400 on [0, 2], m = 2: the roots 10^-200, 0, 10^-200 are
    inside every bracket of width 10^-96; the closed form t = 4b - a - c < 0
    decides False with no bracket.  The zero-midpoint test of m >= 4 is
    exercised at m = 4 below."""
    tiny = F(1, 10**400)
    fn = PiecewisePolynomial((F(0), F(2)), ((tiny, -2 * tiny, tiny),))
    assert fn(1) == 0 and fn(0) == fn(2) == tiny
    assert midpoint_root_concave(fn, 2, F(0), F(2)) is False


def test_midpoint_root_concave_rejects_negative():
    fn = PiecewisePolynomial((F(0), F(4)), ((F(-1), F(1)),))
    with pytest.raises(ValueError, match="nonnegative"):
        midpoint_root_concave(fn, 2, F(0), F(2))


@pytest.mark.parametrize("m", [0, -1])
def test_midpoint_root_concave_rejects_root_order_below_1(monkeypatch, m):
    """m < 1 raises before any point is evaluated."""
    fn = PiecewisePolynomial((F(0), F(4)), ((F(0), F(1)),))

    def boom(*args):
        raise AssertionError("evaluated a point")

    monkeypatch.setattr(PiecewisePolynomial, "_value", boom)
    with pytest.raises(ValueError, match=rf"^root order must be at least 1, got {m}$"):
        midpoint_root_concave(fn, m, F(1), F(3))


def integer_jumps(knots):
    """The integer `spline_cdf_jumps` on rational knots, as Fraction jump lists.

    The knots are scaled to integers by the lcm s of their denominators; a
    coefficient c of (y - s tau)^j with y = s x is c s^j on (x - tau)^j.
    """
    s = math.lcm(*(t.denominator for t in knots))
    out = {}
    for t, (den, nums) in spline_cdf_jumps([int(k * s) for k in knots]).items():
        assert den > 0 and math.gcd(den, *nums) == 1
        out[F(t, s)] = [F(c * s**j, den) for j, c in enumerate(nums)]
    return out


def cdf_on_piece(knots, left):
    """Ascending coefficients of the spline distribution function just above `left`,
    after checking that the integer jumps equal the Fraction ones."""
    jumps = oracle_spline_cdf_jumps(knots)
    assert integer_jumps(knots) == jumps
    total = [F(0)] * len(knots)
    for tau, jump in jumps.items():
        if tau <= left:
            for k, c in enumerate(poly_from_shifted(jump, tau)):
                total[k] += c
    return poly_trim(total)


def test_poly_from_shifted():
    assert poly_from_shifted([F(1), F(2), F(3)], F(1)) == (F(2), F(-4), F(3))
    assert poly_from_shifted([F(0), F(0), F(1)], F(-2)) == (F(4), F(4), F(1))
    assert poly_from_shifted([F(5)], F(7)) == (F(5),)


def test_taylor_shift_matches_the_fraction_oracle():
    """The integer shift to p(y - t), in place, equals `poly_from_shifted` on
    seeded random integer polynomials of degree 0 to 6 at t < 0, t = 0 and t > 0."""
    rng = random.Random(41)
    for degree in range(7):
        for t in (-rng.randint(1, 50), 0, rng.randint(1, 50)):
            for _ in range(20):
                cs = [rng.randint(-99, 99) for _ in range(degree + 1)]
                given_list = list(cs)
                shifted = taylor_shift(given_list, t)
                assert shifted is given_list
                assert poly_trim(shifted) == poly_from_shifted(cs, t), (cs, t)


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
        spline_cdf_jumps([2, 2, 2])
    with pytest.raises(ValueError, match="coincide"):
        oracle_spline_cdf_jumps([F(2), F(2), F(2)])


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


def test_spline_cdf_integer_jumps_random_repeated_knots():
    """Knots drawn from a few rational values, so most have repeats: the integer
    jumps equal the Fraction series, and the jumps of each knot set sum to the
    constant 1 in powers of x (F = 1 beyond the last knot)."""
    rng = random.Random(77)
    multiplicities = set()
    for trial in range(300):
        n = 1 + trial % 5
        pool = [F(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(rng.randint(2, 3))]
        knots = [rng.choice(pool) for _ in range(n + 1)]
        if len(set(knots)) < 2:
            continue
        multiplicities.add(max(knots.count(t) for t in knots))
        assert cdf_on_piece(knots, max(knots)) == (F(1),)
    assert multiplicities == {1, 2, 3, 4, 5}


# -- integer evaluation against the Fraction path --------------------------------


def oracle_eval(fn, x):
    """fn(x) by a bisection over the Fraction breakpoints and `poly_eval`."""
    x = F(x)
    lo, hi = fn.domain
    if not lo <= x <= hi:
        raise ValueError(f"{x} outside domain [{lo}, {hi}]")
    return poly_eval(fn.pieces[oracle_piece_index(fn, x)], x)


def oracle_piece_index(fn, x):
    if x == fn.domain[0]:
        return 0
    return min(bisect_right(fn.breakpoints, x) - 1, len(fn.pieces) - 1)


def random_piecewise(rng, max_degree=5):
    """A continuous piecewise polynomial with rational breakpoints, pieces of degree <= max_degree."""
    return PiecewisePolynomial(*random_piecewise_parts(rng, max_degree))


def random_piecewise_parts(rng, max_degree=5):
    """The breakpoints and pieces of `random_piecewise`."""
    count = rng.randint(1, 5)
    start = F(rng.randint(-20, 20), rng.randint(1, 7))
    bps = [start]
    for _ in range(count):
        bps.append(bps[-1] + F(rng.randint(1, 30), rng.randint(1, 9)))
    degree = rng.randint(0, max_degree)
    pieces = [poly_trim([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)])]
    for b in bps[1:-1]:
        # add c * (x - b)^k, k >= 1: continuous at b, degree at most max_degree
        k = rng.randint(1, max_degree)
        bump = poly_from_shifted([F(0)] * k + [F(rng.randint(-9, 9), rng.randint(1, 5))], b)
        prev = pieces[-1] + (F(0),) * (len(bump) - len(pieces[-1]))
        pieces.append(poly_trim([c + (bump[i] if i < len(bump) else 0) for i, c in enumerate(prev)]))
    return tuple(bps), tuple(pieces)


def test_integer_evaluation_matches_fraction_path():
    rng = random.Random(6)
    degrees = set()
    for _ in range(200):
        fn = random_piecewise(rng)
        degrees.update(len(p) - 1 for p in fn.pieces)
        lo, hi = fn.domain
        points = list(fn.breakpoints)
        for _ in range(12):
            points.append(lo + (hi - lo) * F(rng.randint(0, 997), 997))
        points.append(lo + (hi - lo) / 3)
        for x in points:
            assert fn(x) == oracle_eval(fn, x)
            assert type(fn(x)) is F
        for outside in (lo - F(1, 10**9), hi + F(1, 10**9), lo - 1, hi + 5):
            with pytest.raises(ValueError, match="outside domain"):
                fn(outside)
    assert degrees == set(range(6))


def test_integer_evaluation_accepts_ints_and_floats():
    fn = PiecewisePolynomial((F(-1), F(1, 2), F(3)), ((F(1), F(2)), (F(3, 2), F(1))))
    assert fn(0) == 1 and fn(0.25) == F(3, 2) and fn(F(2)) == F(7, 2)


def test_full_integral_is_cached_and_exact():
    fn = PiecewisePolynomial((F(0), F(2), F(4)), ((F(8), F(0), F(-1)), (F(16), F(-8), F(1))))
    assert fn.integral() == 16
    assert fn.integral() is fn.integral()


def oracle_integral(fn):
    total = F(0)
    for left, right, piece in zip(fn.breakpoints, fn.breakpoints[1:], fn.pieces):
        anti = poly_antiderivative(piece)
        total += poly_eval(anti, right) - poly_eval(anti, left)
    return total


def oracle_slopes(fn, i):
    x = fn.breakpoints[i]
    return tuple(poly_eval(poly_derivative(p), x) for p in fn.pieces[i - 1 : i + 1])


def test_integer_checks_match_fraction_checks():
    """Continuity, C^1 and integrals on random functions whose breakpoints
    and pieces have unrelated denominators, against the Fraction versions;
    a piece shifted by a constant is rejected with the Fraction values in
    the message."""
    rng = random.Random(12)
    c1 = set()
    for _ in range(200):
        fn = random_piecewise(rng)
        interior = range(1, len(fn.breakpoints) - 1)
        expected = all(oracle_slopes(fn, i)[0] == oracle_slopes(fn, i)[1] for i in interior)
        assert fn.is_c1() is expected
        c1.add(expected)
        assert fn.integral() == oracle_integral(fn)
        if len(fn.pieces) > 1:
            i = rng.randrange(1, len(fn.pieces))
            bad = list(fn.pieces)
            bad[i] = (bad[i][0] + F(rng.randint(1, 9), rng.randint(1, 7)),) + bad[i][1:]
            x = fn.breakpoints[i]
            message = f"discontinuity at breakpoint {x}: {poly_eval(bad[i - 1], x)} != {poly_eval(bad[i], x)}"
            with pytest.raises(ValueError) as exc:
                PiecewisePolynomial(fn.breakpoints, tuple(bad))
            assert str(exc.value) == message
    assert c1 == {True, False}


def test_derivative_equals_the_fraction_constructor():
    """(num / den) f', built in one pass with no merge and no grid gcd, equals
    the Fraction constructor's function from f's breakpoints and the scaled
    derivative pieces, in its integer form, on seeded random functions; where
    the slopes jump both raise the same ValueError, and `is_c1` says so."""
    rng = random.Random(48)
    outcomes = set()
    for _ in range(300):
        fn = random_piecewise(rng)
        num, den = rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 6)
        pieces = tuple(tuple(F(num, den) * c for c in poly_derivative(p)) for p in fn.pieces)
        try:
            want = PiecewisePolynomial(fn.breakpoints, pieces)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                fn.derivative(num, den)
            assert str(got.value) == str(exc) and not fn.is_c1()
            outcomes.add(False)
            continue
        got = fn.derivative(num, den)
        assert (got._grid, got._int_pieces) == (want._grid, want._int_pieces)
        assert got._grid is fn._grid and fn.derivative(num, den) is got and fn.is_c1()
        outcomes.add(True)
    assert outcomes == {True, False}


def test_integer_checks_on_denominators_unlike_the_pieces():
    with pytest.raises(ValueError) as exc:
        PiecewisePolynomial((F(0), F(1, 3), F(2)), ((F(1, 2), F(1)), (F(5, 7),)))
    assert str(exc.value) == "discontinuity at breakpoint 1/3: 5/6 != 5/7"
    # x^2 on [0, 2/3], then a line through (2/3, 4/9): C^0 always, C^1 only at slope 4/3
    square = (F(0), F(0), F(1))
    for slope, smooth in ((F(5, 4), False), (F(4, 3), True)):
        line = (F(4, 9) - slope * F(2, 3), slope)
        fn = PiecewisePolynomial((F(0), F(2, 3), F(3, 2)), (square, line))
        assert fn.is_c1() is smooth
        assert fn.integral() == F(8, 81) + F(4, 9) * F(5, 6) + slope * F(5, 6) ** 2 / 2


def unreduced_int_form(rng, fn):
    """An integer form of `fn` with spare factors, zero tails and one piece split in two."""
    split = rng.randrange(len(fn.pieces))
    left, right = fn.breakpoints[split : split + 2]
    bps = list(fn.breakpoints)
    bps.insert(split + 1, left + (right - left) * F(rng.randint(1, 6), 7))
    pieces = list(fn.pieces)
    pieces.insert(split, pieces[split])
    den = math.lcm(*(b.denominator for b in bps)) * rng.randint(1, 6)
    grid = [int(b * den) for b in bps]
    form = []
    for piece in pieces:
        e = math.lcm(*(c.denominator for c in piece)) * rng.randint(1, 6)
        form.append((e, [int(c * e) for c in piece] + [0] * rng.randint(0, 2)))
    return den, grid, form


def test_integer_form_constructor_matches_the_fraction_constructor():
    """`_from_int_form` on an unreduced form, with trailing zeros and a piece
    split at an extra breakpoint, gives the same function, Fractions and
    integer form as the Fraction constructor, whose form is the one read
    off the Fractions; a discontinuous or malformed form raises the same
    ValueError text on both paths."""
    rng = random.Random(25)
    for _ in range(200):
        fn = random_piecewise(rng)
        den, grid, form = unreduced_int_form(rng, fn)
        got = PiecewisePolynomial._from_int_form(den, grid, form)
        assert got == fn
        assert all(type(b) is F for b in got.breakpoints)
        assert all(type(c) is F for piece in got.pieces for c in piece)
        assert (got._grid, got._int_pieces) == (fn._grid, fn._int_pieces) == int_form(fn)
        i = rng.randrange(1, len(form))
        e, cs = form[i]
        form[i] = (e, [cs[0] + rng.choice((-1, 1)) * rng.randint(1, e)] + cs[1:])
        fractions = (
            tuple(F(b, den) for b in grid),
            tuple(tuple(F(c, e) for c in cs) for e, cs in form),
        )
        with pytest.raises(ValueError) as want:
            PiecewisePolynomial(*fractions)
        with pytest.raises(ValueError) as exc:
            PiecewisePolynomial._from_int_form(den, grid, form)
        assert str(exc.value) == str(want.value)
        assert str(exc.value).startswith("discontinuity at breakpoint ")
    with pytest.raises(ValueError) as exc:
        PiecewisePolynomial._from_int_form(6, [0, 2, 12], [(4, [2, 4, 0]), (14, [10])])
    assert str(exc.value) == "discontinuity at breakpoint 1/3: 5/6 != 5/7"
    with pytest.raises(ValueError, match="breakpoint/piece count mismatch"):
        PiecewisePolynomial._from_int_form(1, [0, 1, 2], [(1, [1])])
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewisePolynomial._from_int_form(1, [0, 2, 1], [(1, [1]), (1, [1])])


def eager_fields(breakpoints, pieces):
    """The Fraction fields the constructor once built eagerly: each piece
    trimmed and identical neighbours merged."""
    bps, ps = [F(breakpoints[0])], []
    for right, piece in zip(breakpoints[1:], pieces):
        piece = poly_trim(piece)
        if ps and ps[-1] == piece:
            bps[-1] = F(right)
        else:
            ps.append(piece)
            bps.append(F(right))
    return tuple(bps), tuple(ps)


@st.composite
def piecewise_pairs(draw):
    """Two (breakpoints, pieces) inputs: a random continuous function and
    the same function written another way, a multiple of it, it plus
    c (x - b)^k right of an interior breakpoint b, or another function."""
    rng = draw(st.randoms(use_true_random=False))
    bps, pieces = random_piecewise_parts(rng, max_degree=draw(st.integers(1, 4)))
    kind = draw(st.sampled_from(("split", "scale", "bump", "other")))
    if kind == "split":
        # one piece split at an inner point, zero tails, ints where exact
        i = draw(st.integers(0, len(pieces) - 1))
        mid = bps[i] + (bps[i + 1] - bps[i]) * F(draw(st.integers(1, 6)), 7)
        other_bps = bps[: i + 1] + (mid,) + bps[i + 1 :]
        padded = tuple(
            tuple(int(c) if c.denominator == 1 else c for c in p) + (0,) * draw(st.integers(0, 2))
            for p in pieces
        )
        return (bps, pieces), (other_bps, padded[: i + 1] + padded[i:])
    if kind == "scale":
        r = F(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        return (bps, pieces), (bps, tuple(tuple(r * c for c in p) for p in pieces))
    if kind == "bump" and len(bps) > 2:
        i = draw(st.integers(1, len(bps) - 2))
        bump = poly_from_shifted([F(0)] * draw(st.integers(1, 3)) + [F(draw(st.integers(-2, 2)), 3)], bps[i])
        bumped = tuple(
            p if j < i else tuple(a + b for a, b in itertools.zip_longest(p, bump, fillvalue=F(0)))
            for j, p in enumerate(pieces)
        )
        return (bps, pieces), (bps, bumped)
    return (bps, pieces), random_piecewise_parts(rng)


def test_equality_and_hash_of_the_integer_form_follow_the_fraction_fields():
    """Two functions compare equal, have equal integer forms and have equal
    hashes exactly when the Fraction fields once built at construction are
    equal; `breakpoints` and `pieces`, derived when read, equal those
    fields, and a function is rebuilt from them.  Against anything else,
    equality is NotImplemented."""
    seen = set()

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(pair=piecewise_pairs())
    def check(pair):
        (a, b), want = pair, eager_fields(*pair[0]) == eager_fields(*pair[1])
        f, g = PiecewisePolynomial(*a), PiecewisePolynomial(*b)
        assert (f == g) is want and (f != g) is not want
        assert ((f._grid, f._int_pieces) == (g._grid, g._int_pieces)) is want
        assert (hash(f) == hash(g)) is want
        assert f.__eq__(0) is NotImplemented and f != 0
        for fn, parts in ((f, a), (g, b)):
            assert "breakpoints" not in vars(fn) and "pieces" not in vars(fn)
            assert (fn.breakpoints, fn.pieces) == eager_fields(*parts)
            assert all(type(x) is F for x in fn.breakpoints + sum(fn.pieces, ()))
            assert PiecewisePolynomial(fn.breakpoints, fn.pieces) == fn
        seen.add(want)

    check()
    assert seen == {True, False}


# -- midpoint_root_concave against the Fraction implementation -------------------


def oracle_pieces_covering(fn, a, b):
    """Distinct piece polynomials meeting the closed interval [a, b]."""
    out = []
    for i, piece in enumerate(fn.pieces):
        if fn.breakpoints[i] < b and fn.breakpoints[i + 1] > a:
            if piece not in out:
                out.append(piece)
    return out


def oracle_midpoint_root_concave(fn, m, x, y):
    """The Fraction implementation: three `poly_eval` values, covering pieces, brackets."""
    mid = (x + y) / 2
    qa, qm, qb = oracle_eval(fn, x), oracle_eval(fn, mid), oracle_eval(fn, y)
    if min(qa, qm, qb) < 0:
        raise ValueError("root concavity needs nonnegative values")
    if m == 1:
        return 2 * qm >= qa + qb
    if qa == qm == qb:
        return True
    covering = oracle_pieces_covering(fn, x, y)
    found = poly_linear_power(covering[0], m) if len(covering) == 1 else None
    # c (x + r)^m has the root c^(1/m) (x + r) for odd m, c^(1/m) |x + r| for even m
    if found is not None and (m % 2 == 1 or (x + found[1]) * (y + found[1]) >= 0):
        return True
    for exponent in (12, 24, 48, 96):
        scale = 10**exponent
        lo_a, hi_a = nth_root_bounds(qa, m, scale)
        lo_b, hi_b = nth_root_bounds(qb, m, scale)
        lo_m, hi_m = nth_root_bounds(qm, m, scale)
        if 2 * lo_m >= hi_a + hi_b:
            return True
        if 2 * hi_m < lo_a + lo_b:
            return False
    # an exact progression 2 qm^(1/m) = qa^(1/m) + qb^(1/m) needs both
    # (qa/qm)^(1/m) and (qb/qm)^(1/m) rational
    if qm == 0:
        return qa == qb == 0
    roots = [oracle_rational_root(q / qm, m) for q in (qa, qb)]
    if None in roots:
        raise ArithmeticError(f"m-th roots of {qa}, {qm}, {qb} not separable at width 1e-96")
    return 2 >= roots[0] + roots[1]


def oracle_rational_root(q, m):
    """q^(1/m) for q >= 0 when it is rational: count up to p^m = numerator, d^m = denominator."""
    p = next(p for p in itertools.count() if p**m >= q.numerator)
    d = next(d for d in itertools.count(1) if d**m >= q.denominator)
    return F(p, d) if (p**m, d**m) == (q.numerator, q.denominator) else None


def poly_power(p, m):
    """p^m by repeated Fraction products."""
    out = (F(1),)
    for _ in range(m):
        nxt = [F(0)] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                nxt[i + j] += a * b
        out = nxt
    return poly_trim(out)


def random_piecewise_affine(rng):
    """A continuous piecewise-affine function on 2 to 5 random breakpoints, or None."""
    bps = sorted({F(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(rng.randint(2, 5))})
    if len(bps) < 2:
        return None
    heights = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in bps]
    lines = []
    for (a, ha), (b, hb) in zip(zip(bps, heights), zip(bps[1:], heights[1:])):
        slope = (hb - ha) / (b - a)
        lines.append(poly_trim([ha - slope * a, slope]))
    return PiecewisePolynomial(tuple(bps), tuple(lines))


def powered(fn, m, c=1):
    """c fn^m, piece by piece."""
    return PiecewisePolynomial(fn.breakpoints, tuple(tuple(c * a for a in poly_power(p, m)) for p in fn.pieces))


def verdict(check, fn, m, x, y):
    """The boolean result, or the message of the ValueError or ArithmeticError raised."""
    try:
        return check(fn, m, x, y)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.fixture
def per_triple(monkeypatch):
    """Refuse every root-concavity certificate, so each `midpoint_root_concave`
    call takes the per-triple path: values, closed forms, tie test, brackets.
    A volume function keeps its Q, and Q its verdicts, so the cache is
    cleared before (every Q here is fresh) and after (none leaves refused)."""
    from toricstab.valuations import volume_function

    monkeypatch.setattr("toricstab.piecewise.root_concave_certificate", lambda fn, m: False)
    volume_function.cache_clear()
    yield
    volume_function.cache_clear()


def test_midpoint_root_concave_matches_oracle_on_criterion_6(per_triple):
    from toricstab.corpus import builtin_fan_specs
    from toricstab.valuations import restricted_volume
    from toricstab.verification import concavity_battery
    from toricstab.workbench import load_builtin_fan

    total = 0
    for name in builtin_fan_specs():
        fan = load_builtin_fan(name)
        n = fan.dimension
        if n < 2:
            continue
        for val in concavity_battery(fan):
            q_fn = restricted_volume(val)
            tau = q_fn.breakpoints[-1]
            points = [tau * F(i, 101) for i in range(102)]
            for i in range(1, 101):
                x, y = points[i - 1], points[i + 1]
                assert midpoint_root_concave(q_fn, n - 1, x, y) is oracle_midpoint_root_concave(
                    q_fn, n - 1, x, y
                ) is True
                total += 1
    assert total == 15000


def test_midpoint_root_concave_matches_oracle_on_random_triples():
    rng = random.Random(61)
    seen = set()
    for _ in range(150):
        fn = random_piecewise(rng, max_degree=4)
        lo, hi = fn.domain
        for _ in range(8):
            m = rng.randint(1, 6)
            x = lo + (hi - lo) * F(rng.randint(0, 60), 60)
            y = lo + (hi - lo) * F(rng.randint(0, 60), 60)
            if x > y:
                x, y = y, x
            got = verdict(midpoint_root_concave, fn, m, x, y)
            assert got == verdict(oracle_midpoint_root_concave, fn, m, x, y)
            seen.add((m == 1, got))
    # squares of random nonnegative-on-domain pieces never raise
    for _ in range(150):
        fn = random_piecewise(rng, max_degree=2)
        sq = powered(fn, 2)
        lo, hi = sq.domain
        for m in (1, 2, 3):
            x = lo + (hi - lo) * F(rng.randint(0, 40), 40)
            y = lo + (hi - lo) * F(rng.randint(0, 40), 40)
            got = midpoint_root_concave(sq, m, min(x, y), max(x, y))
            assert got is oracle_midpoint_root_concave(sq, m, min(x, y), max(x, y))
            seen.add((m == 1, got))
    assert {(True, True), (True, False), (False, True), (False, False)} <= seen
    assert "ValueError: root concavity needs nonnegative values" in {g for _, g in seen}
    # c l^m for piecewise-affine l and c = 1 or 3, m = 4..6: m-th root c^(1/m) l
    # (|l| for even m), so exact ties across pieces and V-shapes across zeros
    powers = set()
    for k in range(120):
        line = random_piecewise_affine(rng)
        if line is None:
            continue
        m = rng.randint(4, 6)
        fn = powered(line, m, 1 + 2 * (k % 2))
        lo, hi = fn.domain
        for _ in range(6):
            x, y = sorted(lo + (hi - lo) * F(rng.randint(0, 24), 24) for _ in range(2))
            got = verdict(midpoint_root_concave, fn, m, x, y)
            assert got == verdict(oracle_midpoint_root_concave, fn, m, x, y), (fn, m, x, y)
            powers.add((m % 2, got))
    assert {(0, True), (0, False), (1, True), (1, False)} <= powers
    assert (1, "ValueError: root concavity needs nonnegative values") in powers


@pytest.mark.parametrize("check", [midpoint_root_concave, oracle_midpoint_root_concave])
def test_midpoint_root_concave_square_changing_sign(check):
    """(x - r)^2 has the V-shaped square root |x - r|: not concave where x - r
    changes sign inside [x, y], affine where it keeps its sign."""

    def square(r, lo, hi):
        return PiecewisePolynomial((F(lo), F(hi)), ((F(r * r), F(-2 * r), F(1)),))

    # square roots 1, 0, 1 and 1, 1/2, 2
    assert check(square(1, 0, 2), 2, F(0), F(2)) is False
    assert check(square(2, 1, 4), 2, F(1), F(4)) is False
    # one-sided: the root is 2 - x or x - 2, affine
    assert check(square(2, 0, 2), 2, F(0), F(2)) is True
    assert check(square(2, 2, 4), 2, F(2), F(4)) is True


def test_midpoint_root_concave_on_squares_of_affine_pieces():
    """The square root of l^2 is |l| for a continuous piecewise-affine l, so
    2 |l(mid)| >= |l(x)| + |l(y)| decides every triple with no shortcut."""
    rng = random.Random(12)
    seen = set()
    for _ in range(200):
        line = random_piecewise_affine(rng)
        if line is None:
            continue
        sq = powered(line, 2)
        lo, hi = sq.domain
        for _ in range(8):
            x = lo + (hi - lo) * F(rng.randint(0, 24), 24)
            y = lo + (hi - lo) * F(rng.randint(0, 24), 24)
            x, y = min(x, y), max(x, y)
            lx, lm, ly = (oracle_eval(line, t) for t in (x, (x + y) / 2, y))
            expected = 2 * abs(lm) >= abs(lx) + abs(ly)
            assert midpoint_root_concave(sq, 2, x, y) is expected
            assert oracle_midpoint_root_concave(sq, 2, x, y) is expected
            seen.add((lx * ly < 0 and len(oracle_pieces_covering(sq, x, y)) == 1, expected))
    # sign changes inside one square piece occur, and are decided False
    assert {(True, False), (False, True), (False, False)} <= seen
    assert (True, True) not in seen


def test_midpoint_root_concave_non_adjacent_equal_pieces():
    """x^2, 3x - 2, x^2 on [0, 1], [1, 2], [2, 3]: the outer pieces coincide."""
    square = (F(0), F(0), F(1))
    fn = PiecewisePolynomial((F(0), F(1), F(2), F(3)), (square, (F(-2), F(3)), square))
    assert len(fn.pieces) == 3 and fn.pieces[0] == fn.pieces[2]
    thirds = [F(k, 3) for k in range(10)]
    verdicts = set()
    for x in thirds:
        for y in thirds:
            if x <= y:
                for m in (1, 2):
                    got = verdict(midpoint_root_concave, fn, m, x, y)
                    assert got == verdict(oracle_midpoint_root_concave, fn, m, x, y)
                    verdicts.add(got)
    # sqrt is 0, 1, 2 at 0, 1, 2 and 1, 2, 3 at 1, 2, 3: exact equalities
    # across two pieces, t^2 = 4ac in the closed form
    assert {True, False} == verdicts
    assert midpoint_root_concave(fn, 2, F(0), F(2)) is True
    assert midpoint_root_concave(fn, 2, F(1), F(3)) is True
    # inside one square piece the root is affine: again t^2 = 4ac
    assert midpoint_root_concave(fn, 2, F(2), F(3)) is True
    assert midpoint_root_concave(fn, 2, F(0), F(1)) is True
    assert midpoint_root_concave(fn, 2, F(1, 2), F(5, 2)) is True
    assert oracle_pieces_covering(fn, F(0), F(3)) == [square, (F(-2), F(3))]


@pytest.mark.parametrize("m, line", [(2, (F(-4), F(6))), (3, (F(-12), F(14)))])
def test_midpoint_root_concave_irrational_roots_in_progression(m, line):
    """2x^m, 6x - 4 or 14x - 12, 2x^m on [0, 1], [1, 2], [2, 3]: the m-th roots
    at 0, 1, 2 and at 1, 2, 3 are 2^(1/m) times 0, 1, 2 and 1, 2, 3, irrational
    but in arithmetic progression across two pieces: equalities of the closed
    form, t^m = 4ac or 216abc."""
    outer = (F(0),) * m + (F(2),)
    fn = PiecewisePolynomial((F(0), F(1), F(2), F(3)), (outer, line, outer))
    assert len(fn.pieces) == 3
    assert midpoint_root_concave(fn, m, F(0), F(2)) is True
    assert midpoint_root_concave(fn, m, F(1), F(3)) is True
    thirds = [F(k, 3) for k in range(10)]
    verdicts = set()
    for x in thirds:
        for y in thirds:
            if x <= y:
                got = verdict(midpoint_root_concave, fn, m, x, y)
                assert got == verdict(oracle_midpoint_root_concave, fn, m, x, y)
                verdicts.add(got)
    assert {True, False} == verdicts


# -- the closed form for m <= 3; the tie test, then the brackets, for m >= 4 -----


def piecewise_through(values):
    """The piecewise-linear function through (k, values[k]) for k = 0, 1, ..."""
    lines = tuple((F(a - k * (b - a)), F(b - a)) for k, (a, b) in enumerate(zip(values, values[1:])))
    return PiecewisePolynomial(tuple(F(k) for k in range(len(values))), lines)


@pytest.mark.parametrize("m, ends", [(1, (1, 3)), (2, (1, 3)), (2, (0, 5)), (3, (1, 3)), (3, (2, 0))])
def test_midpoint_root_concave_closed_form_at_exact_ties(m, ends, per_triple):
    """Values s p^m, s ((p + r) / 2)^m + d, s r^m at 0, 1, 2 with s = 10^6: the
    m-th roots are in exact progression for d = 0, and d = -1 or d = 1 moves
    the midpoint root just below or above it; t^m sits within 10^-5 of its
    bound 4ac or 216abc, closer than 215/216."""
    p, r = ends
    s = 10**6 * 2**m
    tie = s * (p + r) ** m // 2**m
    for d, expected in ((0, True), (-1, False), (1, True)):
        fn = piecewise_through((s * p**m, tie + d, s * r**m))
        assert midpoint_root_concave(fn, m, F(0), F(2)) is expected, d
        assert oracle_midpoint_root_concave(fn, m, F(0), F(2)) is expected, d


def test_midpoint_root_concave_brackets_for_m4():
    """m = 4 runs the zero-midpoint test, the rational-ratio tie test and the
    brackets: each decides some of these triples."""
    # (x - 1)^4 on [0, 2]: fourth root |x - 1|, V-shaped across 1, affine on [1, 2]
    fn = PiecewisePolynomial((F(0), F(2)), ((F(1), F(-4), F(6), F(-4), F(1)),))
    cases = [(fn, F(0), F(2), False), (fn, F(1), F(2), True)]
    # the same over 10^400: roots 10^-100, 0, 10^-100 inside every bracket, and
    # the zero value at the midpoint decides False
    tiny = F(1, 10**400)
    cases.append((PiecewisePolynomial(fn.breakpoints, (tuple(c * tiny for c in fn.pieces[0]),)), F(0), F(2), False))
    # 1, 1, 16 over 10^400: rational fourth roots 1, 1, 2 (times 10^-100) inside
    # every bracket, out of progression, decided by the rational ratios 1 and 2
    cases.append((PiecewisePolynomial((F(0), F(1), F(2)), ((tiny,), (-14 * tiny, 15 * tiny))), F(0), F(2), False))
    for fn, x, y, expected in cases:
        assert midpoint_root_concave(fn, 4, x, y) is expected, (fn, x, y)
        assert oracle_midpoint_root_concave(fn, 4, x, y) is expected, (fn, x, y)
    # c x^4, c (15x - 14), c x^4 on [0, 1], [1, 2], [2, 3]: fourth roots c^(1/4)
    # times 0, 1, 2 at 0, 1, 2 and 1, 2, 3 at 1, 2, 3, in progression across pieces
    thirds = [F(k, 3) for k in range(10)]
    for c in (1, 2):
        outer = (F(0),) * 4 + (F(c),)
        fn = PiecewisePolynomial((F(0), F(1), F(2), F(3)), (outer, (F(-14 * c), F(15 * c)), outer))
        assert midpoint_root_concave(fn, 4, F(0), F(2)) is True
        assert midpoint_root_concave(fn, 4, F(1), F(3)) is True
        verdicts = set()
        for x in thirds:
            for y in thirds:
                if x <= y:
                    got = verdict(midpoint_root_concave, fn, 4, x, y)
                    assert got == verdict(oracle_midpoint_root_concave, fn, 4, x, y)
                    verdicts.add(got)
        assert verdicts == {True, False}


def test_midpoint_root_concave_decides_ties_before_the_brackets(monkeypatch, per_triple):
    """For m >= 4 every zero midpoint and every exact tie is decided before any
    bracket, the ties by the rational-ratio test: with `root_floor` patched to
    raise, each verdict still equals the oracle's (computed before the patch)."""
    from toricstab import piecewise
    from toricstab.valuations import ToricValuation, restricted_volume
    from toricstab.workbench import load_builtin_fan

    # (x - 1)^4 on [0, 2]: fourth roots 1, 0, 1 (V-shaped) and 0, 1/2, 1 (affine)
    quartic = PiecewisePolynomial((F(0), F(2)), ((F(1), F(-4), F(6), F(-4), F(1)),))
    cases = [(quartic, 4, F(0), F(2), False), (quartic, 4, F(1), F(2), True)]
    # c x^4, c (15x - 14), c x^4: a tie across three pieces
    for c in (1, 2):
        outer = (F(0),) * 4 + (F(c),)
        fn = PiecewisePolynomial((F(0), F(1), F(2), F(3)), (outer, (F(-14 * c), F(15 * c)), outer))
        cases += [(fn, 4, F(0), F(2), True), (fn, 4, F(1), F(3), True)]
    cases.append((PiecewisePolynomial((F(0), F(1)), ((F(5),),)), 4, F(0), F(1), True))
    # 3 (x + 1)^5: fifth root 3^(1/5) (x + 1), affine at every pair of thirds
    quintic = powered(PiecewisePolynomial((F(0), F(3)), ((F(1), F(1)),)), 5, 3)
    thirds = [F(k, 3) for k in range(10)]
    cases += [(quintic, 5, x, y, True) for x in thirds for y in thirds if x <= y]
    # 3 (x - 1)^6 on [0, 2]: sixth root V-shaped across 1
    sextic = powered(PiecewisePolynomial((F(0), F(2)), ((F(-1), F(1)),)), 6, 3)
    cases.append((sextic, 6, F(0), F(2), False))
    # the restricted volume x^4 of P5 at w = (1, ..., 1), on the criterion-6 sweep
    q_fn = restricted_volume(ToricValuation(load_builtin_fan("P5"), (1,) * 5))
    points = [q_fn.breakpoints[-1] * F(i, 101) for i in range(102)]
    cases += [(q_fn, 4, points[i - 1], points[i + 1], True) for i in range(1, 101)]
    for fn, m, x, y, expected in cases:
        assert oracle_midpoint_root_concave(fn, m, x, y) is expected, (fn, m, x, y)

    def boom(*args):
        raise AssertionError("reached a bracket")

    monkeypatch.setattr(piecewise, "root_floor", boom)
    for fn, m, x, y, expected in cases:
        assert midpoint_root_concave(fn, m, x, y) is expected, (fn, m, x, y)


def test_midpoint_root_concave_takes_no_root_for_m_up_to_3(monkeypatch, per_triple):
    """m = 1, 2, 3 never reach the brackets, the rational roots or any integer
    root: with all three patched to raise, every verdict still equals the
    oracle's (computed before the patch, since the oracle brackets too)."""
    from toricstab import piecewise
    from toricstab.corpus import builtin_fan_specs
    from toricstab.valuations import restricted_volume
    from toricstab.verification import concavity_battery
    from toricstab.workbench import load_builtin_fan

    cases = []
    rng = random.Random(19)
    for _ in range(150):
        fn = random_piecewise(rng, max_degree=4)
        lo, hi = fn.domain
        for _ in range(6):
            x, y = sorted(lo + (hi - lo) * F(rng.randint(0, 60), 60) for _ in range(2))
            cases.append((fn, rng.randint(1, 3), x, y))
    for name in builtin_fan_specs():
        fan = load_builtin_fan(name)
        if 2 <= fan.dimension <= 4:
            for val in concavity_battery(fan):
                q_fn = restricted_volume(val)
                points = [q_fn.breakpoints[-1] * F(i, 101) for i in range(102)]
                cases += [(q_fn, fan.dimension - 1, points[i - 1], points[i + 1]) for i in range(1, 101)]
    cube = (F(0), F(0), F(0), F(1))
    progression = PiecewisePolynomial((F(0), F(1), F(2), F(3)), (cube, (F(-6), F(7)), cube))
    cases += [(progression, 3, F(0), F(2)), (progression, 3, F(1), F(3))]
    expected = [verdict(oracle_midpoint_root_concave, *case) for case in cases]
    assert expected[-2:] == [True, True]
    assert {True, False, "ValueError: root concavity needs nonnegative values"} == set(expected)
    assert {m for _, m, _, _ in cases} == {1, 2, 3}

    def boom(*args):
        raise AssertionError("reached a root extraction")

    monkeypatch.setattr(piecewise, "root_floor", boom)
    monkeypatch.setattr(piecewise, "_rational_root", boom)
    monkeypatch.setattr(piecewise, "int_nth_root", boom)
    assert [verdict(midpoint_root_concave, *case) for case in cases] == expected


def test_midpoint_root_concave_m4_unseparated_roots_raise(monkeypatch):
    """With `root_floor` patched to 0 no bracket separates, so x on [0, 4] at
    (1, 3) with m = 4, roots of 1, 2, 3 with irrational ratios, is not
    separable; m = 3 is decided without the brackets.  A convex kink at 4,
    outside [1, 3], keeps the root-concavity certificate from concluding."""
    fn = PiecewisePolynomial((F(0), F(4), F(5)), ((F(0), F(1)), (F(-4), F(2))))
    monkeypatch.setattr("toricstab.piecewise.root_floor", lambda num, den, m, scale: 0)
    with pytest.raises(ArithmeticError, match=r"^m-th roots of 1, 2, 3 not separable at width 1e-96$"):
        midpoint_root_concave(fn, 4, F(1), F(3))
    assert midpoint_root_concave(fn, 3, F(1), F(3)) is True


def bracket_boundary_case(monkeypatch, floors):
    """1 + x on [0, 2] at (0, 2) with m = 4: the values 1, 2, 3 have ratios
    that are no 4th powers, so only the brackets decide; `root_floor` is
    patched to floors[v] at value v, at every width.  The convex kink at 2,
    into 2x - 1 on [2, 3], keeps the root-concavity certificate from concluding."""
    monkeypatch.setattr("toricstab.piecewise.root_floor", lambda num, den, m, scale: floors[num // den])
    return PiecewisePolynomial((F(0), F(2), F(3)), ((F(1), F(1)), (F(-1), F(2)))), 4, F(0), F(2)


def test_midpoint_root_concave_concave_at_the_bracket_boundary(monkeypatch):
    """Floors 1, 2, 1: the midpoint's lower end 2 * 2 equals the outer upper
    ends 1 + 1 + 1 + 1, which already proves 2 b^(1/m) >= a^(1/m) + c^(1/m)."""
    assert midpoint_root_concave(*bracket_boundary_case(monkeypatch, {1: 1, 2: 2, 3: 1})) is True


def test_midpoint_root_concave_not_separated_at_the_bracket_boundary(monkeypatch):
    """Floors 1, 0, 1: the midpoint's upper end 2 * 0 + 2 equals the outer
    lower ends 1 + 1, which does not yet prove convexity, so every width is
    tried and the roots are not separable."""
    with pytest.raises(ArithmeticError, match=r"^m-th roots of 1, 2, 3 not separable at width 1e-96$"):
        midpoint_root_concave(*bracket_boundary_case(monkeypatch, {1: 1, 2: 0, 3: 1}))


# -- the carried values of a concavity sweep --------------------------------------


def criterion_6_triples(q_fn):
    """The 100 criterion-6 triples of q_fn on [0, tau], as (x, y) pairs."""
    points = [q_fn.breakpoints[-1] * F(i, 101) for i in range(102)]
    return [(points[i - 1], points[i + 1]) for i in range(1, 101)]


def criterion_6_qs(name):
    """(Q, m) for every valuation criterion 6 samples on the corpus fan `name`."""
    from toricstab.valuations import restricted_volume
    from toricstab.verification import concavity_battery
    from toricstab.workbench import load_builtin_fan

    fan = load_builtin_fan(name)
    return [(restricted_volume(val), fan.dimension - 1) for val in concavity_battery(fan)]


def test_concavity_sweep_evaluates_each_point_once(monkeypatch):
    """A certified Q's criterion-6 sweep evaluates no point.  With the
    certificate refused, a 100-triple sweep evaluates its 102 points once
    each: three on the first call, then only y; a second sweep over the same
    Q again 102."""
    q_fn, m = criterion_6_qs("P(1,2,3)")[0]
    certified = PiecewisePolynomial(q_fn.breakpoints, q_fn.pieces)
    calls = []
    value = PiecewisePolynomial._value

    def counted(self, p, q):
        calls.append(F(p, q))
        return value(self, p, q)

    monkeypatch.setattr(PiecewisePolynomial, "_value", counted)
    assert all(midpoint_root_concave(certified, m, x, y) for x, y in criterion_6_triples(certified))
    assert calls == [] and certified._certified == {m: True}
    monkeypatch.setattr("toricstab.piecewise.root_concave_certificate", lambda fn, m: False)
    q_fn = PiecewisePolynomial(q_fn.breakpoints, q_fn.pieces)
    for sweep in range(2):
        del calls[:]
        assert all(midpoint_root_concave(q_fn, m, x, y) for x, y in criterion_6_triples(q_fn))
        assert len(calls) == 102, sweep
        assert calls == [q_fn.breakpoints[-1] * F(i, 101) for i in range(102)]


def test_midpoint_root_concave_carry_never_changes_a_result(per_triple):
    """On the first three criterion-6 Q of P2, dP6, P(1,2,3), P3 and P4, and
    on each Q shifted down to take negative values, every verdict, exception
    type and message equals the stateless oracle's when the triples come in
    order, shuffled, reversed, each twice in a row, interleaved call by call
    with another Q's, or each followed by a call whose x alone matches the
    carried midpoint and by calls that raise (a point outside the domain)."""
    rng = random.Random(24)
    oracle, seen = {}, set()

    def check(calls):
        for fn, m, x, y in calls:
            key = (id(fn), m, x, y)
            if key not in oracle:
                oracle[key] = verdict(oracle_midpoint_root_concave, fn, m, x, y)
            assert verdict(midpoint_root_concave, fn, m, x, y) == oracle[key], (fn, m, x, y)
            seen.add(oracle[key])

    qs = [q for name in ("P2", "dP6", "P(1,2,3)", "P3", "P4") for q in criterion_6_qs(name)[:3]]
    shifted = []
    for q_fn, m in qs:
        drop = q_fn(q_fn.breakpoints[-1] / 2) / 2
        pieces = tuple((p[0] - drop, *p[1:]) for p in q_fn.pieces)
        shifted.append((PiecewisePolynomial(q_fn.breakpoints, pieces), m))
    sweeps = [[(fn, m, x, y) for x, y in criterion_6_triples(fn)] for fn, m in qs + shifted]
    for sweep, other in zip(sweeps, sweeps[1:] + sweeps[:1]):
        fn, m = sweep[0][:2]
        tau = fn.breakpoints[-1]
        check(sweep)
        check(rng.sample(sweep, len(sweep)))
        check(sweep[::-1])
        check([call for call in sweep for _ in range(2)])
        check([call for pair in zip(sweep, other) for call in pair])
        # after each triple: x at the carried mid but a wider y, so only x
        # matches; y past tau (with x and mid the carried mid and y on the
        # last triple); x below 0.  The next triple reuses the carry.
        wider = [(fn, m, x + (y - x) / 2, min(y + (y - x), tau)) for _, _, x, y in sweep]
        beyond = [(fn, m, x + (y - x) / 2, tau * F(102, 101)) for _, _, x, y in sweep]
        below = [(fn, m, -tau / 101, y) for _, _, x, y in sweep]
        check([c for calls in zip(sweep, wider, sweep, beyond, below) for c in calls])
    assert {True, "ValueError: root concavity needs nonnegative values"} <= seen
    assert any(str(v).endswith(f"outside domain [0, {tau}]") for v in seen)
    assert {m for _, m in qs} == {1, 2, 3}


def test_midpoint_root_concave_m4_sweep_with_unseparated_roots(monkeypatch, per_triple):
    """With `root_floor` patched to 0 as in the test above, and the
    root-concavity certificate refused so that every triple takes the
    per-triple path, the m = 4 sweep of P5's equality-case Q (c x^4, every
    triple an exact tie) is still decided by the rational roots, and the
    sweep of x on [0, 4] raises at every triple with the oracle's message,
    built from the values reduced."""
    from toricstab.valuations import ToricValuation, restricted_volume
    from toricstab.workbench import load_builtin_fan

    q_fn = restricted_volume(ToricValuation(load_builtin_fan("P5"), (1,) * 5))
    line = PiecewisePolynomial((F(0), F(4)), ((F(0), F(1)),))
    monkeypatch.setattr("toricstab.piecewise.root_floor", lambda num, den, m, scale: 0)
    assert all(midpoint_root_concave(q_fn, 4, x, y) is True for x, y in criterion_6_triples(q_fn))
    got = [verdict(midpoint_root_concave, line, 4, x, y) for x, y in criterion_6_triples(line)]
    assert got == [verdict(oracle_midpoint_root_concave, line, 4, x, y) for x, y in criterion_6_triples(line)]
    assert got[0] == "ArithmeticError: m-th roots of 0, 4/101, 8/101 not separable at width 1e-96"
    assert got[50] == "ArithmeticError: m-th roots of 200/101, 204/101, 208/101 not separable at width 1e-96"


# -- the root-concavity certificate -----------------------------------------------


@pytest.mark.parametrize(
    "breakpoints, pieces, m, certified",
    [
        ((0, 1), [(1, 0, 1)], 1, False),  # 1 + x^2: convex
        ((-1, 0, 1), [(1, -1), (1, 1)], 1, False),  # 1 + |x|: a kink up
        ((0, 3), [(1, -2, 1)], 2, False),  # (1 - x)^2: square root |1 - x|, zero inside
        ((0, 1), [(0, 0, 0, 0, 0, 1)], 4, False),  # x^5: fourth root x^(5/4)
        ((0, 1, 2), [(0,), (-1, 1)], 1, False),  # 0, then x - 1: a piece with Q = 0
        ((-1, 0, 1), [(0, 0, 1), (0, 0, 1, -1)], 2, False),  # zero at the knot, both slopes 0
        ((0, 1), [(0, 0, 0, 0, 1)], 4, True),  # x^4: fourth root x
        ((0, 2), [(1, 3)], 3, True),  # 1 + 3x: linear
        ((-1, 0, 1), [(1, 1), (1, -1)], 1, True),  # 1 - |x|: a kink down
        ((0, 1), [(0, 1, 0, -1)], 2, True),  # x - x^3, zero at both ends
    ],
)
def test_root_concave_certificate_controls(breakpoints, pieces, m, certified):
    """Each refusal fails one condition of the certificate and has a triple of
    a 24-point grid where the oracle finds the midpoint inequality false;
    on each accepted function the oracle finds it true at every triple."""
    fn = PiecewisePolynomial(tuple(map(F, breakpoints)), tuple(tuple(map(F, p)) for p in pieces))
    assert root_concave_certificate(fn, m) is certified
    lo, hi = fn.domain
    grid = [lo + (hi - lo) * F(k, 23) for k in range(24)]
    verdicts = {oracle_midpoint_root_concave(fn, m, x, y) for i, x in enumerate(grid) for y in grid[i:]}
    assert verdicts == ({True} if certified else {True, False})


def test_root_concave_certificate_refuses_a_zero_function():
    """Q = 0 is root-concave, but the certificate asks for Q > 0 inside."""
    assert not root_concave_certificate(PiecewisePolynomial((F(0), F(1)), ((F(0),),)), 3)


def test_root_concave_certificate_covers_criterion_6(monkeypatch):
    """All 150 criterion-6 Q certify at m = n - 1, so their 15,000 triples
    are decided True with no value computed."""
    from toricstab.corpus import builtin_fan_specs
    from toricstab.valuations import restricted_volume
    from toricstab.verification import concavity_battery
    from toricstab.workbench import load_builtin_fan

    qs = []
    for name in builtin_fan_specs():
        fan = load_builtin_fan(name)
        if fan.dimension >= 2:
            qs += [(restricted_volume(val), fan.dimension - 1) for val in concavity_battery(fan)]
    assert len(qs) == 150
    assert all(root_concave_certificate(q_fn, m) for q_fn, m in qs)

    def boom(*args):
        raise AssertionError("computed a value")

    monkeypatch.setattr(PiecewisePolynomial, "_value", boom)
    assert all(midpoint_root_concave(q_fn, m, x, y) is True for q_fn, m in qs for x, y in criterion_6_triples(q_fn))


def test_root_concave_certificate_is_sound_on_random_functions():
    """Whenever the certificate holds on a seeded random piecewise polynomial
    at m in 1..6, the oracle finds the midpoint inequality true at every
    triple of a 24-point grid, and `midpoint_root_concave` agrees."""
    rng = random.Random(47)
    certified, count = set(), 0
    for _ in range(400):
        fn = random_piecewise(rng, max_degree=4)
        m = rng.randint(1, 6)
        if not root_concave_certificate(fn, m):
            continue
        lo, hi = fn.domain
        grid = [lo + (hi - lo) * F(k, 23) for k in range(24)]
        for i, x in enumerate(grid):
            for y in grid[i:]:
                assert oracle_midpoint_root_concave(fn, m, x, y) is True, (fn, m, x, y)
                assert midpoint_root_concave(fn, m, x, y) is True
        certified.add((len(fn.pieces) > 1, max(map(len, fn.pieces)) > 2))
        count += 1
    # one piece and several, of degree 2 and above among them
    assert count >= 20 and {(False, True), (True, True)} <= certified


def test_certified_function_keeps_the_domain_error():
    """On a certified function a point outside the domain, at x or at y,
    still raises the per-triple path's ValueError."""
    fn = PiecewisePolynomial((F(0), F(2)), ((F(1), F(3)),))
    assert midpoint_root_concave(fn, 3, F(0), F(2)) is True and fn._certified == {3: True}
    assert midpoint_root_concave(fn, 3, F(2), F(1, 10**9)) is True
    for x, y, point in ((F(-1, 3), F(1), "-1/3"), (F(1), F(7, 3), "7/3")):
        with pytest.raises(ValueError, match=rf"^{point} outside domain \[0, 2\]$"):
            midpoint_root_concave(fn, 3, x, y)
