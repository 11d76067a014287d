"""Exact oracles computed from fan data alone, independent of toricstab.

For a complete simplicial fan whose anticanonical divisor is ample, every
maximal cone sigma has one vertex m_sigma of the anticanonical polytope
P = {u : <u, v_i> >= -1}, fixed by <m_sigma, v_i> = -1 on the rays of
sigma.  Ampleness is checked exactly at every wall: the ray of the adjacent
cone that is not on the wall must satisfy <m_sigma, v> > -1, i.e. the
support function of -K is strictly convex there (Cox-Little-Schenck,
Toric Varieties, ch. 6).

P is then simple, and Lawrence's formula (Math. Comp. 57, 1991) gives its
volume and first moments from the vertices and their tangent cones:

    vol(P)           = sum_sigma <c, m>^n     / (n!     |det M| prod_j (-g_j))
    int_P <c, u> du  = sum_sigma <c, m>^(n+1) / ((n+1)! |det M| prod_j (-g_j))

where M has the rays of sigma as rows and g = M^-T c, for any c with every
g_j nonzero.  That yields degree, barycenter and alpha without any of the
package's polytope code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product


def solve(rows, rhs):
    """Exact solution of the square system rows . x = rhs, None if singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def det(rows) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * det([row[:j] + row[j + 1:] for row in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class NotAmple(ValueError):
    """The fan's anticanonical divisor is not ample (the variety is not Fano)."""


@dataclass(frozen=True)
class FanOracle:
    """Exact invariants of one fan spec, computed from its rays and cones."""

    dim: int
    degree: Fraction
    barycenter: tuple[Fraction, ...]
    alpha: Fraction
    smooth: bool

    def beta(self, w) -> Fraction:
        """beta(w) = -degree * <barycenter, w>, the exact barycenter identity."""
        return -self.degree * _dot(self.barycenter, w)


def cone_vertices(spec: dict) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """m_sigma for every maximal cone, keyed by the cone's sorted ray indices."""
    n = spec["dim"]
    rays = [tuple(r) for r in spec["rays"]]
    out = {}
    for cone in spec["cones"]:
        key = tuple(sorted(cone))
        m = solve([rays[i] for i in key], [-1] * n)
        if m is None:
            raise ValueError(f"cone {key} is not full-dimensional")
        out[key] = m
    return out


def check_ample(spec: dict) -> int:
    """Raise NotAmple unless -K is strictly convex across every wall.

    Returns the number of (wall, side) inequalities checked.
    """
    n = spec["dim"]
    rays = [tuple(r) for r in spec["rays"]]
    vertices = cone_vertices(spec)
    by_wall: dict[frozenset, list[tuple[int, ...]]] = {}
    for key in vertices:
        for facet in combinations(key, n - 1):
            by_wall.setdefault(frozenset(facet), []).append(key)
    checked = 0
    for wall, cones in by_wall.items():
        if len(cones) != 2:
            raise ValueError(f"wall {sorted(wall)} lies in {len(cones)} cones")
        for here, there in (cones, cones[::-1]):
            (opposite,) = set(there) - wall
            if _dot(vertices[here], rays[opposite]) <= -1:
                raise NotAmple(
                    f"{spec.get('name', '?')}: support function of -K not strictly "
                    f"convex across wall {sorted(wall)}"
                )
            checked += 1
    return checked


def _generic_directions(cones, n: int) -> list[tuple[int, ...]]:
    """n linearly independent c = (1, t, ..., t^(n-1)) generic for every cone."""
    out = []
    t = 2
    while len(out) < n:
        c = tuple(t**k for k in range(n))
        if all(all(g != 0 for g in solve(_transpose(rows), c)) for rows in cones):
            out.append(c)
        t += 1
    return out


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


def fan_oracle(spec: dict) -> FanOracle:
    """Degree, barycenter and alpha of an ample fan by Lawrence's formula."""
    n = spec["dim"]
    check_ample(spec)
    rays = [tuple(r) for r in spec["rays"]]
    vertices = cone_vertices(spec)
    cones = [[list(rays[i]) for i in key] for key in vertices]
    dets = [abs(det(rows)) for rows in cones]
    directions = _generic_directions(cones, n)
    volume = None
    moments = []
    for c in directions:
        vol_c = Fraction(0)
        first = Fraction(0)
        for rows, d, m in zip(cones, dets, vertices.values()):
            g = solve(_transpose(rows), c)
            denom = d * math.prod(-x for x in g)
            cm = _dot(c, m)
            vol_c += cm**n / denom
            first += cm ** (n + 1) / denom
        vol_c /= math.factorial(n)
        first /= math.factorial(n + 1)
        if volume is None:
            volume = vol_c
        elif vol_c != volume:
            raise ArithmeticError("Lawrence volumes disagree between directions")
        moments.append(first / volume)
    barycenter = solve(directions, moments)
    tau_max = max(1 + max(_dot(m, v) for m in vertices.values()) for v in rays)
    return FanOracle(
        dim=n,
        degree=math.factorial(n) * volume,
        barycenter=barycenter,
        alpha=1 / tau_max,
        smooth=all(d == 1 for d in dets),
    )


def battery_size(dim: int, radius: int) -> int:
    """Number of primitive integer vectors of max-norm at most radius."""
    count = 0
    for w in product(range(-radius, radius + 1), repeat=dim):
        g = 0
        for x in w:
            g = math.gcd(g, x)
        count += g == 1
    return count
