"""Fraction reference implementations kept as oracles for the tests.

The package evaluates, differentiates and integrates piecewise polynomials,
computes spline jumps and recognizes pieces of the form c*(x + r)^m in
integers over common denominators; the plain Fraction versions it replaced
live here.  So do the geometric queries the package no longer needs: cone
coordinates of a vector, from each maximal cone's Fraction inverse, the
walls of a fan and half-space membership in a polytope.
The lattice points of a dilated polytope are found by the Fraction scan of
its bounding box that the package's integer scan replaced.  A fan's
anticanonical polytope is built from sorted Fraction vertex tuples, as
`Fan.anticanonical_polytope` built it before it worked on integer rows.  The integer
form a piecewise polynomial holds is read back off its Fractions by lowest
common denominators, as the package once derived it.  The integer volume
function is kept as it was before one spline served each sorted knot
tuple: one `spline_cdf_jumps` call per simplex (`per_simplex_volume_function`).
"""

import math
import operator
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from toricstab.errors import InvariantViolation
from toricstab.lattice import dot, solve_linear
from toricstab.piecewise import PiecewisePolynomial, poly_trim, spline_cdf_jumps as int_spline_cdf_jumps, taylor_shift
from toricstab.polytopes import RationalPolytope


@cache
def _cone_inverses(fan):
    """Per maximal cone, the Fraction inverse of its ray-column matrix, solved
    by `solve_linear` against each of the n unit vectors once per fan, as
    (d, rows): integer rows over the common denominator d of its entries."""
    n = fan.dimension
    inverses = []
    for cone in fan.max_cones:
        columns = [[fan.rays[j][i] for j in cone] for i in range(n)]
        solved = [solve_linear(columns, [int(i == k) for i in range(n)]) for k in range(n)]
        d = math.lcm(*(x.denominator for col in solved for x in col))
        rows = tuple(zip(*([x.numerator * (d // x.denominator) for x in col] for col in solved)))
        inverses.append((d, rows))
    return tuple(inverses)


def cone_coordinates(fan, w):
    """(index of the first maximal cone containing w, w's coordinates in its rays).

    The coordinates in a cone are its inverse (`_cone_inverses`) times w,
    summed over the inverse's denominator d > 0; the first cone giving
    nonnegative coordinates contains w.
    """
    for ci, (d, rows) in enumerate(_cone_inverses(fan)):
        coords = [sum(map(operator.mul, row, w)) for row in rows]
        if all(c >= 0 for c in coords):
            return ci, tuple(Fraction(c, d) for c in coords)
    raise AssertionError(f"no maximal cone contains {tuple(w)}")


def anticanonical_polytope(fan):
    """(P, vertices, vertex cones): the Fraction vertices m_sigma sorted as
    tuples, each one's cone, and P built from them by `RationalPolytope.from_vertices`."""
    paired = []
    for ci, cone in enumerate(fan.max_cones):
        # mult * m_sigma = adj^T (-1, ..., -1), so <m_sigma, v> <= -1 is an integer test
        mult = fan._cone_mults[ci]
        m = [-sum(col) for col in zip(*(row[: fan.dimension] for row in fan._cone_tables[ci]))]
        outside = (v for j, v in enumerate(fan.rays) if j not in cone)
        if any(sum(map(operator.mul, m, v)) <= -mult for v in outside):
            raise InvariantViolation(f"not Q-Fano: -K is not ample on maximal cone {ci}")
        paired.append((tuple(Fraction(x, mult) for x in m), cone))
    paired.sort()  # the vertices are distinct, so no two cones are compared
    halfspaces = [(ray, Fraction(-1)) for ray in fan.rays]
    vertices = tuple(m for m, _ in paired)
    vertex_cones = tuple(cone for _, cone in paired)
    return RationalPolytope.from_vertices(halfspaces, vertices, fan.dimension), vertices, vertex_cones


def walls(fan):
    """All walls as (shared ray index set, cone index, adjacent cone index), sorted."""
    by_facet = {}
    for ci, cone in enumerate(fan.max_cones):
        for facet in combinations(cone, fan.dimension - 1):
            by_facet.setdefault(frozenset(facet), []).append(ci)
    return sorted(((key, ci, cj) for key, (ci, cj) in by_facet.items()), key=lambda w: sorted(w[0]))


def contains(poly, point, strict=False):
    """Whether `point` satisfies every half-space of `poly` (strictly, if asked)."""
    if strict:
        return all(dot(point, a) > b for a, b in poly.halfspaces)
    return all(dot(point, a) >= b for a, b in poly.halfspaces)


def lattice_points(poly, scale=1):
    """Integer points of scale * P, in box order: the bounding box of the
    Fraction vertices, cut down one half-space at a time by the Fraction
    test <pt, a> >= scale * b, decided once per distinct value of <pt, a>."""
    ranges = []
    for i in range(poly.dim):
        values = [scale * v[i] for v in poly.vertices]
        ranges.append(range(math.floor(min(values)), math.ceil(max(values)) + 1))
    points = list(product(*ranges))
    for a, b in poly.halfspaces:
        dots = [sum(map(operator.mul, pt, a)) for pt in points]
        keep = {v: v >= scale * b for v in set(dots)}
        points = [pt for pt, v in zip(points, dots) if keep[v]]
    return points


def int_form(fn):
    """((D, [B_i]), ((e, (c_k)), ...)) of a piecewise polynomial, read off its Fractions.

    D is the lcm of the breakpoint denominators and each e the lcm of its
    piece's coefficient denominators, so B_i / D and c_k / e are the values.
    """
    den = math.lcm(*(b.denominator for b in fn.breakpoints))
    pieces = []
    for piece in fn.pieces:
        e = math.lcm(*(c.denominator for c in piece))
        pieces.append((e, tuple(c.numerator * (e // c.denominator) for c in piece)))
    return (den, [b.numerator * (den // b.denominator) for b in fn.breakpoints]), tuple(pieces)


def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs):
    return poly_trim([k * c for k, c in enumerate(coeffs)][1:] or [Fraction(0)])


def poly_antiderivative(coeffs):
    return poly_trim([Fraction(0)] + [c / (k + 1) for k, c in enumerate(coeffs)])


def poly_linear_power(coeffs, m):
    """(c, r) when a polynomial is c*(x + r)^m with rational c != 0 and r, else None.

    The oracle's affine-root shortcut for root concavity: for even m the
    sign of c must be positive (odd m allows decreasing roots with c < 0),
    and the full binomial expansion is compared coefficient by coefficient.
    """
    cs = poly_trim(coeffs)
    if len(cs) != m + 1:
        return None
    c = cs[m]
    if c == 0 or (c < 0 and m % 2 == 0):
        return None
    r = cs[m - 1] / (m * c)
    expect = tuple(c * math.comb(m, i) * r ** (m - i) for i in range(m + 1))
    return (c, r) if expect == cs else None


def poly_from_shifted(coeffs, shift):
    """Ascending coefficients of sum_j coeffs[j] * (x - shift)^j."""
    acc = []
    for c in reversed(coeffs):
        # acc <- acc * (x - shift) + c
        nxt = [Fraction(0)] * (len(acc) + 1)
        for k, a in enumerate(acc):
            nxt[k + 1] += a
            nxt[k] -= shift * a
        nxt[0] += c
        acc = nxt
    return poly_trim(acc)


def spline_cdf_jumps(knots):
    """Jumps of the B-spline distribution function of rational `knots`, as Fraction lists.

    The jump at a knot tau of multiplicity m is the coefficient of h^(m-1)
    in (x - tau - h)^n * prod_{t_i != tau} (tau - t_i + h)^-1, each inverse
    power expanded as a Fraction series; jumps[tau][j] is the coefficient
    of (x - tau)^j.
    """
    n = len(knots) - 1
    counts = {}
    for t in knots:
        counts[t] = counts.get(t, 0) + 1
    if len(counts) < 2:
        raise ValueError("spline knots must not all coincide")
    jumps = {}
    for tau, m in counts.items():
        series = [Fraction(1)] + [Fraction(0)] * (m - 1)
        for sigma, mu in counts.items():
            if sigma == tau:
                continue
            inv = 1 / (tau - sigma)
            # (d + h)^-mu = d^-mu * sum_l C(mu + l - 1, l) (-h/d)^l
            factor = [inv**mu * math.comb(mu + l - 1, l) * (-inv) ** l for l in range(m)]
            series = [
                sum((series[i] * factor[l - i] for i in range(l + 1)), Fraction(0))
                for l in range(m)
            ]
        jump = [Fraction(0)] * (n + 1)
        for k in range(m):
            sign = -1 if (n + k) % 2 else 1
            jump[n - k] = sign * math.comb(n, k) * series[m - 1 - k]
        jumps[tau] = jump
    return jumps


def per_simplex_volume_function(val):
    """vol of `valuations.volume_function`, with each simplex's spline jumps
    computed on its own and weighted by its own mass, summed per breakpoint
    over one common denominator, then accumulated into integer pieces."""
    n = val.fan.dimension
    poly = val.fan.anticanonical_polytope()
    scale, row = val._values
    knots = [s - min(row) for s in row]
    values = sorted(set(knots))
    mass_den, simplices = poly.indexed_triangulation
    listed = [
        (t, mass, den, jump)
        for simplex, mass in simplices
        for t, (den, jump) in int_spline_cdf_jumps([knots[i] for i in simplex]).items()
        if t != values[-1]
    ]
    common = math.lcm(*(den for _, _, den, _ in listed))
    sums = {t: [0] * (n + 1) for t in values[:-1]}
    for t, mass, den, jump in listed:
        for j, c in enumerate(jump):
            sums[t][j] += mass * (common // den) * c
    current = [sum(mass for _, mass in simplices) * common] + [0] * n
    pieces = []
    for t in values[:-1]:
        current = list(map(operator.sub, current, taylor_shift(sums[t], t)))
        pieces.append((mass_den * common, [c * scale**j for j, c in enumerate(current)]))
    return PiecewisePolynomial._from_int_form(scale, values, pieces)
