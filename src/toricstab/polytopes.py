"""Exact rational polytopes: triangulation, volume, centroid, lattice points.

A polytope carries both an H-representation (half-spaces ``<u, normal> >=
offset`` with integer normals and rational offsets) and a V-representation,
and is built from the two together.  A slice of a polytope, which only the
tests take, finds its vertices by `enumerate_vertices`, the n-subset
intersection of boundary hyperplanes with feasibility filtering.

The vertices are kept as integer rows over one common denominator D
(`vertex_matrix`), with one integer table T[k][j] = D <v_k, a_j> over the
vertices and the half-space normals a_j (`normal_table`).  The one
constructor takes this integer form: a fan's anticanonical polytope passes
it with each vertex's cone and multiplicity (see `fans`), `from_vertices`
derives it from Fraction vertices, and the Fraction vertices are derived
when read.  On a fan's polytope D divides the lcm of the cone multiplicities.

Each polytope triangulates itself once, lazily, on first use: the pulling
triangulation for its lex-sorted vertex order (De Loera-Rambau-Santos,
*Triangulations*, 2010, Sec. 4.3), a fan-out from vertex 0 over the facets
that avoid it, each facet pulled the same way from its own lowest vertex.
A fan's polytope is read off its cones (`triangulate`), any other off the
table's tight entries with `det_int` masses (`incidence_triangulation`).
`indexed_triangulation` keeps each simplex, sorted, as vertex indices with
dim! times its volume, an integer over D^dim, for volume, centroid, first
moment (`moment_form`) and the volume functions in `valuations`.

Lattice points of a dilation k P are scanned over the bounding box of the
vertex matrix, and each half-space <u, a> >= b with b = p / q is tested in
integers as q <u, a> >= k p.  Every solve and determinant here goes through
the fraction-free elimination kernel in `lattice`.
"""

from __future__ import annotations

import math
import operator
import os
import warnings
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Optional, Sequence

from .errors import BudgetExceeded, InvariantViolation
from .lattice import RatVec, det_int, dot, solve_linear

HalfSpace = tuple[tuple[int, ...], Fraction]  # (normal a, offset b): <u, a> >= b


def enumerate_vertices(halfspaces: Sequence[HalfSpace], dim: int) -> list[RatVec]:
    """All vertices of the intersection of half-spaces, lexicographically sorted.

    A vertex is the unique solution of some dim-subset of the boundary
    hyperplanes that satisfies every remaining constraint.
    """
    seen: dict[RatVec, None] = {}
    for subset in combinations(halfspaces, dim):
        try:
            point = solve_linear([a for a, _ in subset], [b for _, b in subset])
        except ValueError:
            continue  # singular: the hyperplanes do not meet in one point
        if all(dot(point, a) >= b for a, b in halfspaces):
            seen.setdefault(point)
    return sorted(seen)


def triangulate(table, den: int, cones, mults) -> list[tuple[tuple[int, ...], int]]:
    """The pulling triangulation of a fan's polytope P, read off its cones.

    Vertex k is m_sigma for sigma = cones[k], of multiplicity mults[k], and
    table[k][j] = den <m_k, v_j> is -den exactly on sigma's rays.  So P is
    simple: a face F_tau = {k : tau in cones[k]} meets the facet F_j (tight[j])
    of a ray j off tau in a facet of F_tau or not at all: no maximality filter
    (Cox-Little-Schenck, ch. 6).  A simplex (v_0, ..., v_n) cut by rays j_1,
    ..., j_n has mass den^n n! vol = prod_k (table[v_(k-1)][j_k] + den) /
    mults[v_n]: u -> (<u, v_(j_i)>)_i has |det| mults[v_n] (the j_i span v_n's
    cone) and sends v_(k-1) - v_n to 0 before entry k and table[v_(k-1)][j_k]
    / den + 1 at entry k, a triangular image.  An inexact division raises
    AssertionError.  off[k] pairs each F_j off vertex k with its factor.
    """
    tight = [0] * len(table[0])
    for k, cone in enumerate(cones):
        for j in cone:
            tight[j] |= 1 << k
    off = [[(t, row[j] + den) for j, t in enumerate(tight) if not t >> k & 1] for k, row in enumerate(table)]
    simplices = []

    def pull(face: int, head: tuple[int, ...], num: int) -> None:
        top = (face & -face).bit_length() - 1
        head += (top,)
        cuts = [(face & t, num * h) for t, h in off[top] if face & t]
        if not cuts:  # a vertex: the rays cut so far are its cone's
            mass, rest = divmod(num, mults[top])
            if rest:
                raise AssertionError(f"simplex {head}: mass {num}/{mults[top]} is not an integer")
            simplices.append((head, mass))
        for g, m in cuts:
            pull(g, head, m)

    pull((1 << len(table)) - 1, (), 1)
    return sorted(simplices)


def incidence_triangulation(halfspaces: Sequence[HalfSpace], table, den: int, dim: int) -> list[tuple[int, ...]]:
    """The pulling triangulation of the points p_k given as table[k][j] = den <p_k, a_j>.

    The points are pulled in their given order, so the triangulation fans
    out from point 0 over the facets that do not contain it, and each facet
    is triangulated the same way from its own lowest point.  Only incidence
    is used: a face is the set of points on it, and its facets are the
    maximal proper, nonempty intersections of it with the tight sets (the
    points on each half-space's boundary, q * table[k][j] == den * p for its
    normal a_j and offset b = p / q).  Each simplex is returned as a (dim+1)-tuple of point
    indices and is nondegenerate, so a lower-dimensional polytope gives []; they are sorted.
    """
    tight = {
        frozenset(k for k, row in enumerate(table) if q * row[j] == p)
        for j, (p, q) in enumerate((den * b.numerator, b.denominator) for _, b in halfspaces)
    }

    def pull(face: frozenset) -> list[tuple[int, ...]]:
        top = min(face)
        cuts = {face & t for t in tight} - {face, frozenset()}
        facets = [g for g in cuts if not any(g < h for h in cuts)]
        if not facets:
            return [(top,)]
        return [(top,) + rest for g in facets if top not in g for rest in pull(g)]

    return sorted(simplex for simplex in pull(frozenset(range(len(table)))) if len(simplex) == dim + 1)


class RationalPolytope:
    """A bounded rational polytope carrying both H- and V-representations.

    The constructor takes the integer form: the half-spaces, the lex-sorted
    vertices of their bounded intersection as rows over the denominator d,
    the table T[k][j] = d <v_k, a_j>, and, on a fan's polytope, cones =
    (vertex cones, multiplicities).  Instances are immutable in use and
    cache their triangulation and volume data.
    """

    def __init__(self, halfspaces: tuple[HalfSpace, ...], d: int, rows, table, dim: int, cones=None):
        if not rows:
            raise InvariantViolation("empty polytope")
        self.dim, self.halfspaces, self._cones = dim, halfspaces, cones
        self.vertex_matrix, self.normal_table = (d, tuple(rows)), tuple(table)

    @classmethod
    def from_vertices(cls, halfspaces: Sequence[HalfSpace], vertices: Sequence[RatVec], dim: int):
        """The polytope of the half-spaces and the lex-sorted Fraction vertices of their intersection."""
        halfspaces = tuple((tuple(a), Fraction(b)) for a, b in halfspaces)
        d = math.lcm(*(x.denominator for v in vertices for x in v))
        rows = [tuple(x.numerator * (d // x.denominator) for x in v) for v in vertices]
        table = [tuple(sum(map(operator.mul, row, a)) for a, _ in halfspaces) for row in rows]
        return cls(halfspaces, d, rows, table, dim)

    # -- basic queries ----------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[RatVec, ...]:
        """The vertices as Fraction tuples, rows / D; built on first use."""
        d, rows = self.vertex_matrix
        return tuple(tuple(Fraction(x, d) for x in row) for row in rows)

    def vertex_values(self, w: Sequence[int]) -> list[int]:
        """D * <v, w> for each vertex v, in vertex order: one integer dot product each."""
        return [sum(map(operator.mul, row, w)) for row in self.vertex_matrix[1]]

    # -- volume and centroid ----------------------------------------------

    @cached_property
    def indexed_triangulation(self) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
        """(D^dim, simplices): the cached triangulation on the vertex matrix.

        Each simplex is its vertex indices and dim! times its volume, an
        integer over D^dim: read off the cones on a fan's polytope, else
        |det| of its integer edge rows.  The vertices are pulled in vertex
        order, so every simplex contains vertex 0.  Built once, on first use.
        """
        d, rows = self.vertex_matrix
        if self._cones is not None:
            return d**self.dim, tuple(triangulate(self.normal_table, d, *self._cones))
        simplices = incidence_triangulation(self.halfspaces, self.normal_table, d, self.dim)
        edges = [[[x - y for x, y in zip(rows[k], rows[ks[0]])] for k in ks[1:]] for ks in simplices]
        return d**self.dim, tuple((ks, abs(det_int(e))) for ks, e in zip(simplices, edges))

    @cached_property
    def _volume_data(self) -> tuple[Fraction, Optional[RatVec], tuple[int, tuple[int, ...]]]:
        den, simplices = self.indexed_triangulation
        if not simplices:
            warnings.warn("lower-dimensional polytope: volume 0", stacklevel=4)
            return Fraction(0), None, (1, (0,) * self.dim)
        d, rows = self.vertex_matrix
        total = sum(mass for _, mass in simplices)
        # a simplex's centroid is the sum of its vertex rows over (dim + 1) * D
        weighted = [0] * self.dim
        for ks, mass in simplices:
            for k in ks:
                for i, x in enumerate(rows[k]):
                    weighted[i] += mass * x
        return (
            Fraction(total, den * math.factorial(self.dim)),
            tuple(Fraction(x, total * (self.dim + 1) * d) for x in weighted),
            ((self.dim + 1) * d * den, tuple(weighted)),
        )

    def volume(self) -> Fraction:
        """Exact Euclidean volume: the sum over the cached triangulation."""
        return self._volume_data[0]

    def barycenter(self) -> RatVec:
        """Exact centroid: volume-weighted average of the cached simplices' centroids."""
        if not self.indexed_triangulation[1]:
            raise InvariantViolation("barycenter of a degenerate polytope")
        return self._volume_data[1]

    def moment_form(self) -> tuple[int, tuple[int, ...]]:
        """(E, M): dim! times the integral of u over P, as integer numerators
        M over E = (dim + 1) D^(dim + 1).  It is dim! vol(P) times the
        barycenter: degree * b on a fan's anticanonical polytope, so there
        beta(w) = -<M, w> / E (Blum-Jonsson 2020, Sec. 7)."""
        return self._volume_data[2]

    # -- derived structure -------------------------------------------------

    def sliced(self, normal: Sequence[int], offset: Fraction) -> "RationalPolytope":
        """The sub-polytope {u : <u, normal> >= offset} (bounded by construction)."""
        halfspaces = self.halfspaces + ((tuple(normal), Fraction(offset)),)
        return RationalPolytope.from_vertices(halfspaces, enumerate_vertices(halfspaces, self.dim), self.dim)

    def lattice_points(self, scale: int = 1) -> list[tuple[int, ...]]:
        """Integer points of `scale * P` in box order, by a scan of the vertices' bounding box.

        Each half-space <u, a> >= b with b = p / q is tested in integers as
        q <u, a> >= scale * p, one box line at a time: along a line the last
        coordinate x varies and q <u, a> is the prefix's part plus q a_n x.
        Raises BudgetExceeded when the box holds more points than
        `default_oracle_budget()`.
        """
        d, rows = self.vertex_matrix
        ranges = [range(scale * min(c) // d, -(-scale * max(c) // d) + 1) for c in zip(*rows)]
        if math.prod(map(len, ranges)) > default_oracle_budget():
            raise BudgetExceeded("oracle budget exceeded")
        tests = [(a, b.denominator, scale * b.numerator) for a, b in self.halfspaces]
        points = []
        for prefix in product(*ranges[:-1]):
            line = ranges[-1]
            for a, q, p in tests:
                # map stops at the shorter prefix, so this is q <prefix, a> - scale * p
                rest, step = q * sum(map(operator.mul, prefix, a)) - p, q * a[-1]
                line = [x for x in line if rest + step * x >= 0]
            points.extend(prefix + (x,) for x in line)
        return points

    def __repr__(self) -> str:
        return (
            f"RationalPolytope(dim={self.dim}, facets={len(self.halfspaces)}, "
            f"vertices={len(self.vertex_matrix[1])})"
        )


def default_oracle_budget() -> int:
    """Lattice enumeration budget; TKS_ORACLE_BUDGET overrides the default 10^7."""
    raw = os.environ.get("TKS_ORACLE_BUDGET")
    if raw is None:
        return 10_000_000
    try:
        return int(raw)
    except ValueError as exc:
        raise InvariantViolation(f"bad TKS_ORACLE_BUDGET value: {raw!r}") from exc
