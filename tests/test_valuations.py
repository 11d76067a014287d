"""Per-valuation invariants: discrepancy, thresholds, volume functions, beta."""

import math
from fractions import Fraction as F
from itertools import product

import pytest

from toricstab.errors import InvariantViolation
from toricstab.corpus import builtin_fan_specs
from toricstab.lattice import dot, primitivize
from toricstab.piecewise import PiecewisePolynomial, lagrange_interpolate
from toricstab.valuations import (
    ToricValuation,
    beta_invariant,
    center_codim,
    integrated_volume,
    log_discrepancy,
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
    for shared, ci, cj in model.walls():
        cone = model.max_cones[ci].ray_indices
        m_at_0 = model.linear_form(ci, [h0[i] for i in cone])
        m_at_1 = model.linear_form(ci, [h1[i] for i in cone])
        opposite = next(i for i in model.max_cones[cj].ray_indices if i not in shared)
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


def test_profile_battery_consistency(square, dp8):
    for fan in (square, dp8):
        for v in valuation_battery(fan, 2):
            profile = valuation_profile(v)
            assert 0 < profile.nef_threshold <= profile.pseff_threshold
            assert (
                profile.beta
                == profile.log_discrepancy * profile.degree - profile.integrated_volume
            )
