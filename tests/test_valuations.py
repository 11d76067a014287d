"""Per-valuation invariants: discrepancy, thresholds, volume functions, beta."""

import math
import operator
from dataclasses import fields, replace
from fractions import Fraction as F
from itertools import product

import pytest

from fraction_oracles import cone_coordinates, poly_antiderivative, poly_derivative, poly_eval
from fraction_oracles import int_form, poly_from_shifted, walls
from fraction_oracles import spline_cdf_jumps as oracle_spline_cdf_jumps
from screen_reference import qualifying_vertices
import toricstab.valuations as valuations
from toricstab.errors import InvariantViolation
from toricstab.corpus import builtin_fan_specs
from toricstab.fans import Fan
from toricstab.lattice import dot, primitivize, solve_linear
from toricstab.piecewise import PiecewisePolynomial, lagrange_interpolate, poly_trim, spline_cdf_jumps
from toricstab.valuations import (
    ToricValuation,
    ValuationProfile,
    beta_invariant,
    center_codim,
    integrated_volume,
    log_discrepancy,
    meets_equality_bound,
    nef_threshold,
    pseff_threshold,
    restricted_volume,
    section_count,
    valuation_profile,
    volume_function,
)
from toricstab.workbench import load_builtin_fan, valuation_battery


def val(fan, w):
    return ToricValuation(fan, w)


def test_valuation_rejects_zero(p2):
    with pytest.raises(InvariantViolation, match="nonzero"):
        val(p2, (0, 0))


def test_valuation_rejects_dimension_mismatch(p2):
    with pytest.raises(InvariantViolation, match="dimension"):
        val(p2, (1, 0, 0))


def test_valuation_rejects_non_int_entries(p2):
    """Floats and bools are refused, never truncated to a lattice vector."""
    assert val(p2, [1, 0]).w == (1, 0)
    for w in ((1.9, 0), (True, False), (F(1), 0)):
        with pytest.raises(InvariantViolation, match="int entries"):
            val(p2, w)


def test_invariants_require_q_fano():
    """A is -min_P <u, w>, so it needs the anticanonical polytope: on the
    non-Q-Fano Hirzebruch surface F2 it raises instead of returning a value."""
    f2 = Fan(2, [[1, 0], [0, 1], [-1, 2], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]])
    with pytest.raises(InvariantViolation, match="not Q-Fano"):
        log_discrepancy(val(f2, (1, 1)))


def test_log_discrepancy_examples(p123, corpus_fans):
    assert log_discrepancy(val(p123, (-1, 0))) == 2
    for fan in corpus_fans:
        for ray in fan.rays:
            assert log_discrepancy(val(fan, ray)) == 1
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        assert log_discrepancy(val(fan, (1,) * n)) == n


def test_pseff_threshold_examples(p123):
    assert pseff_threshold(val(p123, (-1, 0))) == 3
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        assert pseff_threshold(val(fan, (1,) * n)) == n + 1


def test_pseff_threshold_scaling(p123, square):
    for fan in (p123, square):
        for v in valuation_battery(fan, 2):
            doubled = val(fan, tuple(2 * x for x in v.w))
            assert pseff_threshold(doubled) == 2 * pseff_threshold(v)


def test_volume_function_weighted_plane(p123):
    fn = volume_function(val(p123, (-1, 0)))
    assert fn.breakpoints == (F(0), F(3))
    assert fn.pieces == ((F(6), F(0), F(-2, 3)),)
    # the other axis directions, frozen from hand slab integration
    assert volume_function(val(p123, (1, 0))).pieces == ((F(6), F(-4), F(2, 3)),)
    assert volume_function(val(p123, (0, 1))).pieces == ((F(6), F(-6), F(3, 2)),)
    assert volume_function(val(p123, (0, -1))).pieces == ((F(6), F(0), F(-3, 2)),)


def test_volume_function_value_at_zero_is_degree(corpus_fans):
    for fan in corpus_fans:
        for v in valuation_battery(fan, 1)[:6]:
            fn = volume_function(v)
            assert fn(0) == fan.degree()
            assert fn(fn.breakpoints[-1]) == 0


def test_volume_function_projective_spaces():
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        fn = volume_function(val(fan, (1,) * n))
        expected = (F((n + 1) ** n),) + (F(0),) * (n - 1) + (F(-1),)
        assert fn.breakpoints == (F(0), F(n + 1))
        assert fn.pieces == (expected,)


def test_volume_function_square_diagonal(square):
    fn = volume_function(val(square, (1, 1)))
    assert fn.breakpoints == (F(0), F(2), F(4))
    assert fn.pieces == ((F(8), F(0), F(-1)), (F(16), F(-8), F(1)))
    assert fn.is_c1()


def test_volume_function_is_c1_and_monotone(square, cube, dp8):
    for fan in (square, cube, dp8):
        for v in valuation_battery(fan, 1):
            fn = volume_function(v)
            assert fn.is_c1()
            tau = fn.breakpoints[-1]
            samples = [tau * F(i, 23) for i in range(24)]
            values = [fn(x) for x in samples]
            assert all(a >= b for a, b in zip(values, values[1:]))


def sliced_volume_function(v):
    """The slice-and-interpolate volume function, kept as an independent oracle.

    Each piece is the Lagrange interpolant of n + 1 exact volumes of P cut
    by <u, w> >= x - A(w) at interior points x of the piece.
    """
    n = v.fan.dimension
    poly = v.fan.anticanonical_polytope()
    a_disc = log_discrepancy(v)
    values = sorted({a_disc + dot(u, v.w) for u in poly.vertices})
    pieces = []
    for left, right in zip(values, values[1:]):
        points = []
        for i in range(n + 1):
            x = left + (right - left) * F(i + 1, n + 2)
            points.append((x, math.factorial(n) * poly.sliced(v.w, x - a_disc).volume()))
        pieces.append(lagrange_interpolate(points))
    return PiecewisePolynomial(tuple(values), tuple(pieces))


def test_volume_function_matches_sliced_oracle():
    """Closed-form pieces equal the slice-and-interpolate ones exactly.

    Every corpus fan of dimension <= 3 at radius 1, and P4 at w orthogonal
    to edges of P, where simplices have repeated low and high knots.
    """
    cases = []
    for name in builtin_fan_specs():
        fan = load_builtin_fan(name)
        if fan.dimension <= 3:
            cases.extend(valuation_battery(fan, 1))
    p4 = load_builtin_fan("P4")
    cases.extend(val(p4, w) for w in ((1, 0, 0, 0), (1, 1, 0, 0), (1, -1, 0, 0)))
    for v in cases:
        assert volume_function(v) == sliced_volume_function(v), (v.fan.name, v.w)


def fraction_volume_function(v):
    """The closed form in Fraction arithmetic, kept as an oracle for the integer one.

    Knots A(w) + <u, w> from Fraction dot products, jumps from the Fraction
    spline series, each simplex weighted by its Fraction mass, and each
    breakpoint's total jump expanded from powers of (x - t).
    """
    n = v.fan.dimension
    poly = v.fan.anticanonical_polytope()
    a_disc = log_discrepancy(v)
    at = {u: a_disc + dot(u, v.w) for u in poly.vertices}
    values = sorted(set(at.values()))
    shifted = {t: [F(0)] * (n + 1) for t in values[:-1]}
    den, simplices = poly.indexed_triangulation
    for ks, mass in simplices:
        for t, jump in oracle_spline_cdf_jumps([at[poly.vertices[k]] for k in ks]).items():
            if t in shifted:
                for j, c in enumerate(jump):
                    shifted[t][j] += F(mass, den) * c
    current = [math.factorial(n) * poly.volume()] + [F(0)] * n
    pieces = []
    for left in values[:-1]:
        for j, c in enumerate(poly_from_shifted(shifted[left], left)):
            current[j] -= c
        pieces.append(tuple(current))
    return PiecewisePolynomial(tuple(values), tuple(pieces))


def test_volume_function_matches_fraction_closed_form(corpus_fans, q_fano_fans):
    """The integer closed form equals the Fraction one exactly, and so do the
    restricted volume and the integral taken from it.

    Every nonzero w, primitive or not, of the box of radius 2 on the corpus
    fans of dimension <= 3 and of radius 1 above, and of radius 1 on the 54
    Q-Fano star subdivisions.
    """
    cases = []
    for fan in q_fano_fans:
        radius = 2 if fan in corpus_fans and fan.dimension <= 3 else 1
        box = product(range(-radius, radius + 1), repeat=fan.dimension)
        cases.extend(val(fan, w) for w in box if any(w))
    assert len(cases) == 766 + 990
    repeated = 0
    for v in cases:
        got, want = volume_function(v), fraction_volume_function(v)
        assert got.breakpoints == want.breakpoints, (v.fan.name, v.w)
        assert got.pieces == want.pieces, (v.fan.name, v.w)
        n = v.fan.dimension
        derivative = tuple(
            tuple(-c / n for c in poly_derivative(piece)) for piece in want.pieces
        )
        assert restricted_volume(v) == PiecewisePolynomial(want.breakpoints, derivative)
        integral = F(0)
        for left, right, piece in zip(want.breakpoints, want.breakpoints[1:], want.pieces):
            anti = poly_antiderivative(piece)
            integral += poly_eval(anti, right) - poly_eval(anti, left)
        assert integrated_volume(v) == integral, (v.fan.name, v.w)
        poly = v.fan.anticanonical_polytope()
        knots = [{dot(poly.vertices[k], v.w) for k in ks} for ks, _ in poly.indexed_triangulation[1]]
        repeated += any(len(k) < n + 1 for k in knots)
    # most cases have a simplex with repeated knots: the confluent branch runs
    assert repeated > len(cases) // 2


def corpus_batteries(corpus_fans):
    """Each corpus fan with its battery: radius 3 up to dimension 2, radius 1 above."""
    return [(fan, valuation_battery(fan, 3 if fan.dimension <= 2 else 1)) for fan in corpus_fans]


def test_volume_functions_hold_the_derived_integer_form(corpus_fans):
    """vol and Q are built from integer forms; the Fraction constructor,
    given their Fractions, rebuilds them with the same integer form, and
    that form is the one read off the Fractions by lowest common
    denominators.  So evaluation and the concavity sweep see the integers
    they saw when the form was derived from the Fractions."""
    count = 0
    for fan, battery in corpus_batteries(corpus_fans):
        for v in battery:
            for fn in (volume_function(v), restricted_volume(v)):
                again = PiecewisePolynomial(fn.breakpoints, fn.pieces)
                assert again == fn, (fan.name, v.w)
                assert (fn._grid, fn._int_pieces) == (again._grid, again._int_pieces) == int_form(fn)
                assert all(type(b) is F for b in fn.breakpoints)
                assert all(type(c) is F for piece in fn.pieces for c in piece)
            count += 1
    assert count == 632


def perturbed_jumps(top, change):
    """`spline_cdf_jumps` with `change(numerators, t)` applied once: at the
    first knot t < top, in the first simplex, for which it returns True."""
    done = []

    def jumps(knots):
        out = spline_cdf_jumps(knots)
        for t in sorted(out):
            den, nums = out[t][0], list(out[t][1])
            if not done and t < top and change(nums, t, top):
                out[t] = (den, nums)
                done.append(t)
        return out

    return jumps, done


def bump_value(nums, t, top):
    """Add 1 at an interior knot: vol jumps there."""
    nums[0] += 1
    return t > 0


def bump_top_power(nums, t, top):
    """Add (y - t)^n: continuous and C^1 at t, but vol(tau) moves."""
    nums[-1] += 1
    return True


def bump_slope(nums, t, top):
    """Add (top - t)(y - t) - (y - t)^2 at an interior knot: zero at t and at
    top, so both endpoints and continuity hold, but the slope jumps at t."""
    nums[1] += top - t
    nums[2] -= 1
    return t > 0


EXPECTED_FAILURE = {
    bump_value: (ValueError, "discontinuity at breakpoint "),
    bump_top_power: (AssertionError, "volume function endpoint values are wrong"),
    bump_slope: (AssertionError, "volume function is not C^1 at a breakpoint"),
}


def test_volume_function_checks_catch_a_perturbed_jump(monkeypatch):
    """One spline jump off by an integer polynomial makes `volume_function`
    raise, never return, so its integer checks are not vacuous: the
    continuity check of `_from_int_form`, the endpoint check and the C^1
    check each catch a perturbation that the other two pass."""
    caught = dict.fromkeys(EXPECTED_FAILURE, 0)
    for name in ("P2", "dP6", "P(1,2,3)", "Y(1,2,3)", "P3", "P1xP1xP1"):
        fan = load_builtin_fan(name)
        for v in valuation_battery(fan, 1):
            row = v._values[1]
            for change, (error, message) in EXPECTED_FAILURE.items():
                jumps, done = perturbed_jumps(max(row) - min(row), change)
                monkeypatch.setattr(valuations, "spline_cdf_jumps", jumps)
                try:
                    volume_function.__wrapped__(v)
                except error as exc:
                    assert done and str(exc).startswith(message), (name, v.w, change.__name__)
                    caught[change] += 1
                else:
                    assert not done, (name, v.w, change.__name__)
                finally:
                    monkeypatch.undo()
    assert all(count >= 20 for count in caught.values()), caught


def test_volume_function_of_minus_w_is_the_complement(corpus_fans):
    """Slicing P from the other side: tau(-w) = tau(w) and
    vol_{-w}(x) = degree - vol_w(tau - x), checked as an identity of
    polynomials on every piece by an exact Taylor shift, for every battery
    pair.  Both sides are canonical, so their breakpoints mirror exactly."""
    pairs = 0
    for fan, battery in corpus_batteries(corpus_fans):
        by_w = {v.w: v for v in battery}
        degree = fan.degree()
        for v in battery:
            other = by_w[tuple(-x for x in v.w)]
            tau = pseff_threshold(v)
            assert pseff_threshold(other) == tau
            vol, mirrored = volume_function(v), volume_function(other)
            assert mirrored.breakpoints == tuple(tau - b for b in reversed(vol.breakpoints))
            for piece, image in zip(reversed(vol.pieces), mirrored.pieces):
                # p(tau - x) = sum_k c_k (-1)^k (x - tau)^k
                flipped = poly_from_shifted([c * (-1) ** k for k, c in enumerate(piece)], tau)
                expected = [-c for c in flipped]
                expected[0] += degree
                assert image == poly_trim(expected), (fan.name, v.w)
            pairs += 1
    assert pairs == 632


def test_section_count_oracle(p123):
    v = val(p123, (-1, 0))
    assert section_count(v, 1, 0) == 7  # all lattice points of P
    assert section_count(v, 1, 3) == 3  # exactly the points with u1 = -1
    assert section_count(v, 1, 4) == 0  # beyond k*tau
    assert section_count(v, 2, 0) == 19


def test_section_count_validation(p123):
    v = val(p123, (-1, 0))
    with pytest.raises(InvariantViolation):
        section_count(v, 0, 1)
    with pytest.raises(InvariantViolation):
        section_count(v, 1, -1)


def test_integrated_volume_examples(p123):
    assert integrated_volume(val(p123, (-1, 0))) == 12
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        assert integrated_volume(val(fan, (1,) * n)) == n * (n + 1) ** n


def test_integrated_volume_homogeneity(p123, square):
    for fan in (p123, square):
        for v in valuation_battery(fan, 1):
            base = integrated_volume(v)
            for lam in (2, 3):
                scaled = val(fan, tuple(lam * x for x in v.w))
                assert integrated_volume(scaled) == lam * base


def test_beta_examples(p123):
    assert beta_invariant(val(p123, (-1, 0))) == 0
    assert beta_invariant(val(p123, (1, 0))) == 0
    assert beta_invariant(val(p123, (0, 1))) == 2
    assert beta_invariant(val(p123, (0, -1))) == -2
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        assert beta_invariant(val(fan, (1,) * n)) == 0


def test_beta_barycenter_identity(corpus_fans):
    """Integration route equals the exact centroid formula on radius-2 batteries."""
    for fan in corpus_fans:
        if fan.dimension > 3:
            continue
        degree = fan.degree()
        barycenter = fan.anticanonical_polytope().barycenter()
        radius = 2 if fan.dimension <= 2 else 1
        for v in valuation_battery(fan, radius):
            assert beta_invariant(v) == -degree * dot(barycenter, v.w), (fan.name, v.w)


def test_beta_riemann_brute_force(p123, p2):
    """Verify the integral behind beta against finite-level section counts.

    The Riemann sum (n!/k^(n+1)) * sum_j h0(k, j) must approach the exact
    integrated volume; thresholds were fixed from the measured error decay
    (10.3%, 5.1%, 3.4% at k = 10, 20, 30).
    """
    cases = [(p123, (-1, 0)), (p2, (1, 1))]
    for fan, w in cases:
        v = val(fan, w)
        n = fan.dimension
        a_disc = log_discrepancy(v)
        exact = integrated_volume(v)
        poly = fan.anticanonical_polytope()
        errors = {}
        for k in range(1, 31):
            total = 0
            for u in poly.lattice_points(scale=k):
                level = dot(u, w) + k * a_disc
                if level > 0:
                    total += math.floor(level)
            riemann = F(math.factorial(n) * total, k ** (n + 1))
            errors[k] = abs(riemann - exact) / exact
        assert errors[10] >= errors[20] >= errors[30]
        assert errors[30] <= F(1, 20)
        # the j-sum really is the histogram total used above
        k = 7
        j_sum = sum(section_count(v, k, j) for j in range(1, 7 * 4 + 1))
        direct = 0
        for u in poly.lattice_points(scale=k):
            level = dot(u, w) + k * a_disc
            if level > 0:
                direct += math.floor(level)
        assert j_sum == direct


def test_section_count_convergence_coarse(p123):
    """Normalized counts sit within 20% of the volume already at k=10."""
    v = val(p123, (-1, 0))
    fn = volume_function(v)
    for x in (F(1, 2), F(1), F(3, 2), F(2)):
        approx = F(2 * section_count(v, 10, math.ceil(10 * x)), 100)
        assert abs(approx - fn(x)) / fn(x) <= F(1, 5)


def test_beta_antisymmetry_and_homogeneity(p123, square, dp8):
    for fan in (p123, square, dp8):
        for v in valuation_battery(fan, 2):
            beta = beta_invariant(v)
            assert beta_invariant(val(fan, tuple(-x for x in v.w))) == -beta
            for lam in (2, 3, 5):
                scaled = val(fan, tuple(lam * x for x in v.w))
                assert beta_invariant(scaled) == lam * beta
                assert log_discrepancy(scaled) == lam * log_discrepancy(v)


def test_restricted_volume_examples(p123):
    q_fn = restricted_volume(val(p123, (-1, 0)))
    assert q_fn.pieces == ((F(0), F(2, 3)),)
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        q_n = restricted_volume(val(fan, (1,) * n))
        expected = (F(0),) * (n - 1) + (F(1),)
        assert q_n.pieces == (expected,)


def test_restricted_volume_positive_inside(square, cube, p123):
    for fan in (square, cube, p123):
        for v in valuation_battery(fan, 1):
            q_fn = restricted_volume(v)
            tau = q_fn.breakpoints[-1]
            for i in range(1, 20):
                assert q_fn(tau * F(i, 20)) > 0
            assert q_fn(0) >= 0 and q_fn(tau) >= 0


def test_nef_threshold_examples(p123, square, cube, dp8, p2):
    assert nef_threshold(val(p123, (-1, 0))) == 3
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        assert nef_threshold(val(fan, (1,) * n)) == n + 1
    # the diagonal of the square: the first positive knot is exactly 2
    # (cross-checked by blowup intersection theory and by the wall oracle)
    assert nef_threshold(val(square, (1, 1))) == 2
    assert nef_threshold(val(cube, (1, 1, 1))) == 2
    # ray cases: the divisor already lives on X
    assert nef_threshold(val(p2, (1, 0))) == 3
    assert nef_threshold(val(dp8, (1, 0))) == 1
    # the exceptional ray: the first positive knot and intersection theory
    # both give 2
    assert nef_threshold(val(dp8, (1, 1))) == 2


def test_nef_threshold_ray_multiple_scales(p123, p2):
    assert nef_threshold(val(p123, (2, 0))) == 2 * nef_threshold(val(p123, (1, 0)))
    assert nef_threshold(val(p2, (3, 3))) == 3 * nef_threshold(val(p2, (1, 1)))
    assert nef_threshold(val(p123, (-2, 0))) == 6


def wall_nef_threshold(v):
    """The star-subdivision nef threshold, kept as an independent oracle.

    For primitive w not a fan ray the model is the star subdivision at w;
    the divisor has support value 1 on original rays and A(w) - eps at w,
    and nefness is convexity of that support function across every wall.
    Each wall gives one affine inequality in eps; the threshold is the least
    upper bound.  Ray multiples are handled on the original fan (the divisor
    already lives on X) and non-primitive w scales linearly.
    """
    fan = v.fan
    w0 = primitivize(v.w)
    ray_idx = fan.ray_index(w0)
    if ray_idx is not None:
        model, special = fan, ray_idx
        a_disc = F(1)
    else:
        model = fan.star_subdivision(w0)
        special = model.ray_index(w0)
        a_disc = log_discrepancy(val(fan, w0))

    def support(e):
        return [a_disc - e if i == special else F(1) for i in range(len(model.rays))]

    h0, h1 = support(F(0)), support(F(1))
    bounds = []
    for shared, ci, cj in walls(model):
        cone = model.max_cones[ci]
        m_at_0 = solve_linear([model.rays[i] for i in cone], [h0[i] for i in cone])
        m_at_1 = solve_linear([model.rays[i] for i in cone], [h1[i] for i in cone])
        opposite = next(i for i in model.max_cones[cj] if i not in shared)
        v_opp = model.rays[opposite]
        # h(v_opp) - <m(e), v_opp> = c0 + c1 * e must stay >= 0
        c0 = h0[opposite] - dot(m_at_0, v_opp)
        c1 = h1[opposite] - dot(m_at_1, v_opp) - c0
        assert c0 >= 0, "pullback of the anticanonical divisor must be nef"
        if c1 < 0:
            bounds.append(-c0 / c1)
    return v.multiplicity * min(bounds)


def test_nef_threshold_matches_wall_oracle(corpus_fans):
    """The first positive knot equals the star-subdivision wall bound exactly.

    Every nonzero w, primitive or not, on every corpus fan (radius 2 in
    dimension <= 2, radius 1 above); then every nonzero w in {-1,0,1}^n on
    each Fano star subdivision of a corpus fan of dimension <= 3 at a
    u in {-1,0,1}^n.
    """

    def nonzero(n, radius):
        return [w for w in product(range(-radius, radius + 1), repeat=n) if any(w)]

    cases = []
    for fan in corpus_fans:
        cases.extend((fan, w) for w in nonzero(fan.dimension, 2 if fan.dimension <= 2 else 1))
    assert len(cases) == 570
    subdivisions = []
    for fan in corpus_fans:
        if fan.dimension > 3:
            continue
        for u in nonzero(fan.dimension, 1):
            if fan.ray_index(u) is not None:
                continue
            sub = fan.star_subdivision(u)
            try:
                sub.anticanonical_polytope()
            except InvariantViolation:
                continue
            subdivisions.append(sub)
    assert len(subdivisions) == 54
    for sub in subdivisions:
        cases.extend((sub, w) for w in nonzero(sub.dimension, 1))
    assert len(cases) == 570 + 990
    for fan, w in cases:
        v = val(fan, w)
        assert nef_threshold(v) == wall_nef_threshold(v), (fan.name, w)


def test_nef_threshold_bounded_by_tau(corpus_fans):
    for fan in corpus_fans:
        if fan.dimension > 3:
            continue
        for v in valuation_battery(fan, 1):
            eps = nef_threshold(v)
            assert 0 < eps <= pseff_threshold(v), (fan.name, v.w)


def test_equality_bound_matches_the_fraction_test(q_fano_fans):
    """The bound read off the vertex row decides A >= (n/(n+1)) tau in
    Fractions, tau taken as A plus the maximum over the vertices (integer
    rows over their lcm, built here from the Fraction vertices), on
    the radius-3 battery of every fan.  Where w has max-norm <= 2, or the fan
    has dimension <= 3, A and the center codim are also checked against an
    oracle that uses neither adjugates nor the vertex matrix: w's coordinates
    in the first maximal cone containing it, solved per cone, give A as their
    sum and the codim as their support."""
    outcomes = set()
    for fan in q_fano_fans:
        n = fan.dimension
        vertices = fan.anticanonical_polytope().vertices
        lcm = math.lcm(*(c.denominator for u in vertices for c in u))
        rows = [[c.numerator * (lcm // c.denominator) for c in u] for u in vertices]
        for v in valuation_battery(fan, 3):
            a_disc = log_discrepancy(v)
            if n <= 3 or max(abs(x) for x in v.w) <= 2:
                _, coords = cone_coordinates(fan, v.w)
                assert a_disc == sum(coords), (fan.name, v.w)
                assert center_codim(v) == sum(1 for c in coords if c > 0), (fan.name, v.w)
            tau = a_disc + F(max(sum(map(operator.mul, row, v.w)) for row in rows), lcm)
            assert pseff_threshold(v) == tau, (fan.name, v.w)
            expected = a_disc >= F(n, n + 1) * tau
            assert meets_equality_bound(v) is expected, (fan.name, v.w)
            outcomes.add((n, expected))
    assert {(n, b) for n in range(2, 6) for b in (True, False)} <= outcomes


# per corpus fan, the vertices m_sigma with <m_sigma, v_i> >= n at some ray v_i
QUALIFYING_VERTEX_COUNTS = {
    "P1": 2, "P2": 3, "P3": 4, "P4": 5, "P5": 6,
    "dP8": 2, "dP7": 1, "P(1,2,3)": 2, "P(1,1,2)": 2, "Y(1,2,3)": 1,
    "P1xP1": 0, "P1xP1xP1": 0, "dP6": 0,
}


def test_equality_bound_vertices_radius_free(q_fano_fans):
    """Fact 2 on every Q-Fano test fan: a fan with no qualifying vertex has no
    battery w meeting the bound at radius 3 (1 above dimension 3), and over
    the radius-2 battery (1 above dimension 3) the bound holds exactly on the
    cones C_sigma = {w : <n v + m_sigma, w> <= 0 for every vertex v}, each
    nonzero one at a qualifying vertex."""
    empty, pinned = 0, set()
    for fan in q_fano_fans:
        n = fan.dimension
        rows = fan.anticanonical_polytope().vertex_matrix[1]
        qualifying = qualifying_vertices(fan)
        if fan.name in QUALIFYING_VERTEX_COUNTS:
            assert len(qualifying) == QUALIFYING_VERTEX_COUNTS[fan.name], fan.name
            pinned.add(fan.name)
        if not qualifying:
            empty += 1
            for v in valuation_battery(fan, 3 if n <= 3 else 1):
                assert not meets_equality_bound(v), (fan.name, v.w)
        for v in valuation_battery(fan, 2 if n <= 3 else 1):
            cones = [
                k
                for k, m in enumerate(rows)
                if all(dot([n * x + y for x, y in zip(row, m)], v.w) <= 0 for row in rows)
            ]
            assert meets_equality_bound(v) is bool(cones), (fan.name, v.w)
            assert set(cones) <= set(qualifying), (fan.name, v.w)
    assert empty == 16
    assert pinned == set(QUALIFYING_VERTEX_COUNTS)


def test_first_breakpoint_not_below_nef_threshold(corpus_fans):
    """The first chamber wall of the volume function is the nef threshold."""
    for fan in corpus_fans:
        if fan.dimension > 3:
            continue
        for v in valuation_battery(fan, 1):
            fn = volume_function(v)
            if len(fn.breakpoints) > 2:
                assert fn.breakpoints[1] >= nef_threshold(v), (fan.name, v.w)


def test_center_codim(p123):
    assert center_codim(val(p123, (-1, 0))) == 2  # center is a point
    assert center_codim(val(p123, (1, 0))) == 1  # center is the ray divisor
    assert center_codim(val(p123, (2, 3))) == 2
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        assert center_codim(val(fan, (1,) * n)) == n


def test_valuation_profile_bundle(p123):
    profile = valuation_profile(val(p123, (-1, 0)))
    assert profile.log_discrepancy == 2
    assert profile.pseff_threshold == 3
    assert profile.nef_threshold == 3
    assert profile.integrated_volume == 12
    assert profile.beta == 0
    assert profile.center_codim == 2
    assert profile.degree == 6
    assert profile.is_primitive
    scaled = valuation_profile(val(p123, (-2, 0)))
    assert not scaled.is_primitive
    assert scaled.beta == 0 and scaled.log_discrepancy == 4


def test_profile_beta_is_checked_by_the_barycenter_identity(p123):
    """beta is computed, never passed, and each copy checks it at its own w."""
    profile = valuation_profile(val(p123, (0, 1)))
    assert profile.beta == 2 and replace(profile, w=(0, 1)) == profile
    with pytest.raises(AssertionError, match=r"^beta of \(0, 1\) breaks the barycenter identity$"):
        replace(profile, integrated_volume=profile.integrated_volume + 1)
    # beta(1, 0) = 0 != beta(0, 1) = 2
    with pytest.raises(AssertionError, match=r"^beta of \(1, 0\) breaks the barycenter identity$"):
        replace(profile, w=(1, 0))
    kwargs = {f.name: getattr(profile, f.name) for f in fields(profile) if f.init}
    assert ValuationProfile(**kwargs) == profile
    with pytest.raises(TypeError):
        ValuationProfile(**kwargs, beta=profile.beta)


def test_profile_refuses_a_nef_threshold_outside_its_range(p123):
    """The nef threshold lies in (0, tau]: above tau or at 0 the profile raises."""
    profile = valuation_profile(val(p123, (0, 1)))
    assert profile.pseff_threshold == 2
    for nef in (profile.pseff_threshold + 1, F(0)):
        with pytest.raises(AssertionError, match=rf"^nef threshold {nef} outside \(0, 2\]$"):
            replace(profile, nef_threshold=nef)


def test_valuation_profile_builds_q_from_its_own_vol(monkeypatch, p123, cube):
    """`valuation_profile` looks vol up once and differentiates that vol, with
    the same Q as `restricted_volume`."""
    original = valuations.volume_function
    calls = []

    def counted(v):
        calls.append(v.w)
        return original(v)

    monkeypatch.setattr(valuations, "volume_function", counted)
    for v in (val(p123, (-1, 0)), val(p123, (2, 1)), val(cube, (1, -1, 1))):
        calls.clear()
        profile = valuation_profile(v)
        assert calls == [v.w]
        assert profile.restricted_volume_fn == restricted_volume(v)
        assert profile.restricted_volume_fn._int_pieces == restricted_volume(v)._int_pieces


def test_c1_is_checked_once_per_volume_function(monkeypatch, p123, cube):
    """vol's C^1 check builds its derivative once, and Q scales that
    derivative: building Q checks no continuity again, directly or in a
    profile."""
    built = []
    original = PiecewisePolynomial._from_int_form.__func__

    def counted(cls, den, grid, pieces):
        built.append(len(grid))
        return original(cls, den, grid, pieces)

    for v in (val(p123, (2, 1)), val(cube, (1, -1, 1)), val(cube, (-1, 0, 0))):
        vol = volume_function(v)
        assert "_derivative" in vars(vol) and vol.is_c1()
        monkeypatch.setattr(PiecewisePolynomial, "_from_int_form", classmethod(counted))
        q_fn = restricted_volume(v)
        assert valuation_profile(v).restricted_volume_fn == q_fn and built == []
        monkeypatch.undo()
        n = v.fan.dimension
        derivative = tuple(tuple(-c / n for c in poly_derivative(p)) for p in vol.pieces)
        assert q_fn == PiecewisePolynomial(vol.breakpoints, derivative)


def test_profile_battery_consistency(square, dp8):
    for fan in (square, dp8):
        for v in valuation_battery(fan, 2):
            profile = valuation_profile(v)
            assert 0 < profile.nef_threshold <= profile.pseff_threshold
            assert (
                profile.beta
                == profile.log_discrepancy * profile.degree - profile.integrated_volume
            )
