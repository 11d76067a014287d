"""Fraction reference implementations of the integer polynomial code in `piecewise`.

The package evaluates, differentiates and integrates piecewise polynomials,
and computes spline jumps, in integers over common denominators.  These are
the plain Fraction versions it replaced, kept as oracles for the tests.
"""

import math
from fractions import Fraction

from toricstab.piecewise import poly_trim


def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs):
    return poly_trim([k * c for k, c in enumerate(coeffs)][1:] or [Fraction(0)])


def poly_antiderivative(coeffs):
    return poly_trim([Fraction(0)] + [c / (k + 1) for k, c in enumerate(coeffs)])


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
