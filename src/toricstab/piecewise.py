"""Exact univariate polynomials and continuous piecewise polynomials.

Polynomials are tuples of Fraction coefficients in ascending degree order,
trimmed of trailing zeros.  A PiecewisePolynomial is a list of pieces over a
strictly increasing breakpoint grid; adjacent pieces with identical
polynomials are merged at construction and exact continuity at interior
breakpoints is enforced.

An instance is its integer form only: the breakpoints as integers B_i
over one common denominator D, and each piece as integer numerators c_k
over one denominator e.  The constructor reads it off its Fractions;
`_from_int_form` takes it from callers that compute in integers.  One
canonicalisation serves both: it trims, reduces by gcds (to the lowest
common denominators), merges identical neighbours and checks continuity.
The canonical form is what equality and hashing compare; the Fraction
`breakpoints` and `pieces` are built only when read.
Evaluation and every check run on this form.  A point x = p/q (q > 0)
lies at or right of breakpoint i exactly when B_i <= floor(p*D/q), so
locating it is one floor division and an integer bisection; the value
there is the homogeneous Horner sum sum_k c_k p^k q^(d-k) over e * q^d,
with d the piece degree.  One Fraction is built per value returned, and
the root-concavity comparison works on the (numerator, denominator)
pairs: in closed form for m <= 3; for m >= 4 by an exact test on rational
m-th roots of the value ratios, which decides every tie, and otherwise by
integer root brackets.  It reuses its last call's values at mid and y
when they are exactly this call's x and mid, so a sweep of adjacent
triples evaluates each point once.

Continuity compares the two pieces' Horner sums at each interior
breakpoint by cross-multiplication.  `is_c1` is the construction of the
derivative (numerators k c_k), cached for callers that scale it.  The
integral sums integer antiderivatives, scaled by lcm(1, ..., d + 1), at
the breakpoints over one common denominator: one Fraction in all.

The B-spline jumps behind the closed-form volume functions
(`spline_cdf_jumps`) take integer knots and return integer numerators over
an integer denominator per knot; `taylor_shift` re-expands their sums, and
mirrored pieces, about a new origin.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .lattice import solve_linear

Poly = tuple[Fraction, ...]


def _fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def poly_trim(coeffs: Sequence[Fraction]) -> Poly:
    cs = [_fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs) if cs else (Fraction(0),)


def _homogeneous(cs: Sequence[int], p: int, q: int) -> tuple[int, int]:
    """(sum_k cs[k] p^k q^(d-k), q^d) with d = len(cs) - 1: the value at p/q times q^d."""
    acc = cs[-1]
    q_power = 1
    for c in cs[-2::-1]:
        q_power *= q
        acc = acc * p + c * q_power
    return acc, q_power


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Exact interpolating polynomial through distinct rational points, by one Vandermonde
    solve: a repeated x raises ValueError("singular system")."""
    vandermonde = [[x**k for k in range(len(points))] for x, _ in points]
    return poly_trim(solve_linear(vandermonde, [y for _, y in points]))


def taylor_shift(cs: list[int], t: int) -> list[int]:
    """The coefficients cs of p(y), ascending, made those of p(y - t) in place; returns cs."""
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] -= t * cs[j + 1]
    return cs


def spline_cdf_jumps(knots: Sequence[int]) -> dict[int, tuple[int, list[int]]]:
    """The B-spline distribution function of integer `knots`, as one jump per distinct knot.

    For n + 1 knots t_i (repeats allowed, not all equal) let F be the
    distribution of <u, w> for u uniform on a simplex whose vertices have
    values t_i (Curry-Schoenberg).  F is a piecewise polynomial of degree n;
    for distinct knots F(x) = sum_i (x - t_i)_+^n / prod_{j!=i} (t_j - t_i).
    In general F(x) = sum over distinct knots tau <= x of
    sum_j (nums[j] / den) * (x - tau)^j, where (den, nums) = jumps[tau] is
    the exact confluent divided difference: with m the multiplicity of tau,
    it is (-1)^n times the residue at z = tau of (x - z)^n / prod_i (z - t_i),
    i.e. the coefficient of h^(m-1) in the Taylor product
    (x - tau - h)^n * prod_{t_i != tau} (tau - t_i + h)^-1.

    Everything is an integer: for another knot sigma of multiplicity mu and
    d = tau - sigma, (d + h)^-mu agrees up to h^(m-1) with
    sum_l (-1)^l C(mu + l - 1, l) d^(m-1-l) h^l over d^(mu+m-1), so den is
    the product of those powers, reduced with the numerators to lowest
    terms and made positive.  A simple knot (m = 1) needs no series or gcd.
    """
    n = len(knots) - 1
    counts: dict[int, int] = {}
    for t in knots:
        counts[t] = counts.get(t, 0) + 1
    if len(counts) < 2:
        raise ValueError("spline knots must not all coincide")
    jumps = {}
    for tau, m in counts.items():
        if m == 1:
            den = math.prod((tau - sigma) ** mu for sigma, mu in counts.items() if sigma != tau)
            jumps[tau] = (abs(den), [0] * n + [-1 if (n % 2 == 1) != (den < 0) else 1])
            continue
        # series[l] / den: coefficient of h^l in the product over the other knots
        series = [1] + [0] * (m - 1)
        den = 1
        for sigma, mu in counts.items():
            if sigma == tau:
                continue
            d = tau - sigma
            den *= d ** (mu + m - 1)
            factor = [(-1) ** l * math.comb(mu + l - 1, l) * d ** (m - 1 - l) for l in range(m)]
            series = [sum(series[i] * factor[l - i] for i in range(l + 1)) for l in range(m)]
        # (x - tau - h)^n = sum_k C(n, k) (-h)^k (x - tau)^(n-k)
        jump = [0] * (n + 1)
        for k in range(m):
            sign = -1 if (n + k) % 2 else 1
            jump[n - k] = sign * math.comb(n, k) * series[m - 1 - k]
        g = math.gcd(den, *jump)
        if den < 0:
            g = -g
        jumps[tau] = (den // g, [c // g for c in jump])
    return jumps


class PiecewisePolynomial:
    """A continuous piecewise polynomial on [breakpoints[0], breakpoints[-1]], called
    for exact values.  Its state is the canonical integer form `_grid` = (D, [B_i])
    and `_int_pieces` = ((e, (c_k)), ...); `integral()` is over the whole domain."""

    def __init__(self, breakpoints: Sequence[Fraction], pieces: Sequence[Poly]):
        int_pieces = []
        for piece in pieces:
            cs = [_fraction(c) for c in piece]
            e = math.lcm(*(c.denominator for c in cs))
            int_pieces.append((e, [c.numerator * (e // c.denominator) for c in cs]))
        bps = [_fraction(b) for b in breakpoints]
        den = math.lcm(*(b.denominator for b in bps))
        self._canonicalise(den, [b.numerator * (den // b.denominator) for b in bps], int_pieces)

    @classmethod
    def _from_int_form(cls, den: int, grid: Sequence[int], pieces) -> "PiecewisePolynomial":
        """Breakpoints B_i / den and pieces (e, [c_k]), e > 0, as a function.

        Raises the Fraction constructor's ValueErrors for the same input."""
        fn = object.__new__(cls)
        fn._canonicalise(den, grid, pieces)
        return fn

    def _canonicalise(self, den: int, grid: Sequence[int], pieces) -> None:
        """Trim, reduce and merge an integer form, check continuity, then keep it.

        A trimmed piece becomes (e / g, (c_k / g)) with g = gcd(e, c_0, ...),
        so equal polynomials have equal forms; the merged grid becomes
        (D / g, [B_i / g]) with g = gcd(D, B_0, ...)."""
        if len(grid) != len(pieces) + 1:
            raise ValueError("breakpoint/piece count mismatch")
        if not all(map(operator.lt, grid, grid[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        bps = [grid[0]]
        ps: list[tuple[int, tuple[int, ...]]] = []
        for right, (e, cs) in zip(grid[1:], pieces):
            end = len(cs)
            while end > 1 and cs[end - 1] == 0:
                end -= 1
            cs = tuple(cs[:end]) or (0,)
            g = math.gcd(e, *cs)
            piece = (e // g, tuple(c // g for c in cs)) if g > 1 else (e, cs)
            if ps and ps[-1] == piece:
                bps[-1] = right
            else:
                ps.append(piece)
                bps.append(right)
        g = math.gcd(den, *bps)
        den, bps = den // g, [b // g for b in bps]
        self._grid, self._int_pieces = (den, bps), tuple(ps)
        for i in range(1, len(bps) - 1):
            (e, cs), (f, ds) = ps[i - 1], ps[i]
            (a, qa), (b, qb) = _homogeneous(cs, bps[i], den), _homogeneous(ds, bps[i], den)
            if a * f * qb != b * e * qa:
                left, right = Fraction(a, e * qa), Fraction(b, f * qb)
                raise ValueError(f"discontinuity at breakpoint {Fraction(bps[i], den)}: {left} != {right}")

    @cached_property
    def breakpoints(self) -> tuple[Fraction, ...]:
        den, grid = self._grid
        return tuple(Fraction(b, den) for b in grid)

    @cached_property
    def pieces(self) -> tuple[Poly, ...]:
        return tuple(tuple(Fraction(c, e) for c in cs) for e, cs in self._int_pieces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        return self._grid == other._grid and self._int_pieces == other._int_pieces

    def __hash__(self) -> int:
        return hash((self._grid[0], tuple(self._grid[1]), self._int_pieces))

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    @cached_property
    def _carry(self) -> list:
        """[None], then [the last `midpoint_root_concave` call's (mid p, q, y p, q, value at mid, y)]."""
        return [None]

    def _locate(self, p: int, q: int) -> int:
        """Index of the piece holding x = p/q (q > 0); ValueError outside the domain."""
        den, grid = self._grid
        t = p * den
        if not grid[0] * q <= t <= grid[-1] * q:
            lo, hi = self.domain
            raise ValueError(f"{Fraction(p, q)} outside domain [{lo}, {hi}]")
        return min(bisect_right(grid, t // q) - 1, len(self._int_pieces) - 1)

    def _value(self, p: int, q: int) -> tuple[int, int]:
        """fn(p/q) for q > 0, as a (numerator, positive denominator) pair."""
        e, cs = self._int_pieces[self._locate(p, q)]
        acc, q_power = _homogeneous(cs, p, q)
        return acc, e * q_power

    def __call__(self, x) -> Fraction:
        x = _fraction(x)
        return Fraction(*self._value(x.numerator, x.denominator))

    @cached_property
    def _integral(self) -> Fraction:
        """The integral over the domain, summed in integers on the breakpoint grid.

        Every breakpoint is B_i / D.  With t the most coefficients of a piece
        and lam = lcm(1, ..., t), the antiderivative of sum_k (c_k / e) x^k is
        sum_k (c_k * lam / (k + 1)) x^(k+1) over e * lam, whose value at B_i / D
        is a homogeneous Horner sum over e * lam * D^t.  One Fraction is built.
        """
        den, grid = self._grid
        top = max(len(cs) for _, cs in self._int_pieces)
        lam = math.lcm(*range(1, top + 1))
        common = math.lcm(*(e for e, _ in self._int_pieces))
        total = 0
        for (e, cs), left, right in zip(self._int_pieces, grid, grid[1:]):
            anti = [0] + [c * (lam // k) for k, c in enumerate(cs, 1)] + [0] * (top - len(cs))
            total += (_homogeneous(anti, right, den)[0] - _homogeneous(anti, left, den)[0]) * (common // e)
        return Fraction(total, common * lam * den**top)

    def integral(self) -> Fraction:
        """Exact integral over the domain, computed once."""
        return self._integral

    @cached_property
    def _derivative(self) -> "PiecewisePolynomial":
        """The derivative, (e, [k c_k]) per piece; building it raises where slopes jump."""
        slopes = [(e, [k * c for k, c in enumerate(cs)][1:] or [0]) for e, cs in self._int_pieces]
        return PiecewisePolynomial._from_int_form(*self._grid, slopes)

    def is_c1(self) -> bool:
        """Exact one-sided derivative agreement at every interior breakpoint."""
        try:
            self._derivative
        except ValueError:
            return False
        return True

    def _scaled(self, num: int, den: int) -> "PiecewisePolynomial":
        """num / den (num != 0 < den) times the function: only each piece needs reducing."""
        fn, pieces = object.__new__(PiecewisePolynomial), []
        for e, cs in self._int_pieces:
            g = math.gcd(e * den, *(c * num for c in cs))
            pieces.append((e * den // g, tuple(c * num // g for c in cs)))
        fn._grid, fn._int_pieces = self._grid, tuple(pieces)
        return fn


# -- exact m-th root comparison -------------------------------------------------


def int_nth_root(value: int, m: int) -> int:
    """Largest r with r^m <= value: `math.isqrt` for even m, else integer Newton.

    For even m = 2k the answer is the k-th root of isqrt(value), as
    floor(floor(v^(1/2))^(1/k)) = floor(v^(1/(2k))).  For odd m Newton starts
    above the answer, at 2^ceil(b/m) for b = value.bit_length(); no step falls
    below it (AM-GM) and each step from above decreases strictly, so the
    first that does not decrease starts at it.  m < 1 raises ValueError.
    """
    if m < 1:
        raise ValueError(f"root order must be at least 1, got {m}")
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0 or m == 1:
        return value
    if m % 2 == 0:
        return int_nth_root(math.isqrt(value), m // 2)
    r = 1 << -(-value.bit_length() // m)
    while True:
        nxt = ((m - 1) * r + value // r ** (m - 1)) // m
        if nxt >= r:
            return r
        r = nxt


def root_floor(num: int, den: int, m: int, scale: int) -> int:
    """floor(scale * (num / den)^(1/m)) for num >= 0 and den > 0."""
    return int_nth_root(num * scale**m // den, m)


def nth_root_bounds(f: Fraction, m: int, scale: int) -> tuple[Fraction, Fraction]:
    """Rational bracket lo <= f^(1/m) <= hi of width 1/scale, exactly verified; m < 1 raises ValueError."""
    if m < 1:
        raise ValueError(f"root order must be at least 1, got {m}")
    if f < 0:
        raise ValueError("negative radicand")
    if m == 1 or f == 0:
        return f, f
    r = root_floor(f.numerator, f.denominator, m, scale)
    return Fraction(r, scale), Fraction(r + 1, scale)


def midpoint_root_concave(fn: PiecewisePolynomial, m: int, x: Fraction, y: Fraction) -> bool:
    """Exact test of fn(mid)^(1/m) >= (fn(x)^(1/m) + fn(y)^(1/m)) / 2, for m >= 1.

    With a, b, c the values at x, mid, y over one positive denominator and
    t = 2^m b - a - c, m <= 3 is decided with no root taken: t >= 0 for
    m = 1; t >= 0 and t^2 >= 4ac (squared once) for m = 2; t^3 >= 216abc,
    so also t >= 0, for m = 3.  The last is the identity
    u^3 + v^3 + w^3 - 3uvw = (u + v + w)((u - v)^2 + (v - w)^2 + (w - u)^2) / 2
    at u = a^(1/3), v = c^(1/3), w = -2 b^(1/3): u + v + w <= 0 exactly when
    a + c - 8b + 6 (abc)^(1/3) <= 0, the second factor being 0 only at
    a = b = c = 0.  No such single-radical identity exists for m >= 4.

    For m >= 4 a tie 2 fn(mid)^(1/m) = fn(x)^(1/m) + fn(y)^(1/m) is ruled
    in or out first, exactly.  fn(mid) = 0 gives True only when
    fn(x) = fn(y) = 0.  Otherwise, divided by fn(mid)^(1/m), the tie reads
    2 = r_a + r_b with r_a = (fn(x)/fn(mid))^(1/m) and r_b likewise; real
    m-th roots of positive rationals from distinct classes modulo (Q*)^m are
    linearly independent over Q (Besicovitch, 1940), so it can hold only
    when both ratios are perfect m-th powers of rationals (`_rational_root`).
    Then 2 >= r_a + r_b is compared exactly.  In every other case the roots
    are not in progression, and integer brackets of width 10^-12 ... 10^-96
    (`root_floor`) separate them until one side is certain; roots closer
    than that raise ArithmeticError, so never for m <= 3.  No comparison is
    decided by tolerance alone.  Every test cross-multiplies integers; a
    Fraction is built only for that error's message.  m < 1 raises ValueError.

    Each call stores its mid, y and their values on `fn` as one tuple.  A
    call whose x and mid equal the stored mid and y (cross-multiplied, so
    exactly) reuses those values and evaluates only y.  `fn` is immutable
    and a value depends only on the rational point, so no call order can
    make a reused value differ from a fresh one.
    """
    if m < 1:
        raise ValueError(f"root order must be at least 1, got {m}")
    x, y = _fraction(x), _fraction(y)
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    mn, md = xn * yd + yn * xd, 2 * xd * yd
    last = fn._carry[0]
    if last is not None and xn * last[1] == last[0] * xd and mn * last[3] == last[2] * md:
        (na, da), (nm, dm) = last[4], last[5]
    else:
        g = math.gcd(mn, md)
        (na, da), (nm, dm) = fn._value(xn, xd), fn._value(mn // g, md // g)
    nb, db = fn._value(yn, yd)
    fn._carry[0] = (mn, md, yn, yd, (nm, dm), (nb, db))
    if na < 0 or nm < 0 or nb < 0:
        raise ValueError("root concavity needs nonnegative values")
    if m <= 3:
        # 2 b^(1/m) >= a^(1/m) + c^(1/m) over one positive denominator, no root taken
        a, b, c = na * dm * db, nm * da * db, nb * da * dm
        t = 2**m * b - a - c
        if m == 1:
            return t >= 0
        if m == 2:
            return t >= 0 and t * t >= 4 * a * c
        return t**3 >= 216 * a * b * c  # false for t < 0, as abc >= 0
    if nm == 0:
        return na == nb == 0
    # 2 = r_a + r_b with r_a = (fn(x)/fn(mid))^(1/m): decided exactly when both are rational
    qa = _rational_root(na * dm, da * nm, m)
    qb = None if qa is None else _rational_root(nb * dm, db * nm, m)
    if qb is not None:
        return 2 * qa[1] * qb[1] >= qa[0] * qb[1] + qb[0] * qa[1]
    for exponent in (12, 24, 48, 96):
        # the brackets of `nth_root_bounds` times scale, compared as integers:
        # [r, r + 1] for a positive value, [0, 0] for a zero one
        scale = 10**exponent
        ra, rm, rb = (root_floor(n, d, m, scale) for n, d in ((na, da), (nm, dm), (nb, db)))
        if 2 * rm >= ra + rb + (na > 0) + (nb > 0):
            return True
        if 2 * rm + 2 < ra + rb:
            return False
    values = ", ".join(str(Fraction(n, d)) for n, d in ((na, da), (nm, dm), (nb, db)))
    raise ArithmeticError(f"m-th roots of {values} not separable at width 1e-96")


def _rational_root(num: int, den: int, m: int) -> Optional[tuple[int, int]]:
    """(num / den)^(1/m) as (numerator, denominator) when it is rational, else None.

    For num >= 0 and den > 0: in lowest terms, both must be perfect m-th
    powers; the numerator is tried first, so most irrational ratios take one
    root.
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    a = int_nth_root(num, m)
    if a**m != num:
        return None
    b = int_nth_root(den, m)
    return (a, b) if b**m == den else None
