"""Exact rational polytopes: triangulation, volume, centroid, lattice points.

A polytope carries both an H-representation (half-spaces ``<u, normal> >=
offset`` with integer normals and rational offsets) and a V-representation
(rational vertex tuples), and is built from the two together.  The
anticanonical polytope of a fan gets its vertices from the fan's cones (see
`fans`); a slice of a polytope, which only the tests take, finds its
vertices by `enumerate_vertices`, the n-subset intersection of boundary
hyperplanes with feasibility filtering.

On first use a polytope also keeps its vertices once as an integer matrix
over one common denominator D (`vertex_matrix`), so a linear functional
<v, w> at integer w is one integer dot product per vertex.  For the
anticanonical polytope D divides the lcm of the cone multiplicities: the
denominator of the vertex m_sigma divides the multiplicity of sigma.

Each polytope triangulates itself once, lazily, on first use: the pulling
triangulation for its lex-sorted vertex order (De Loera-Rambau-Santos,
*Triangulations*, 2010, Sec. 4.3), a fan-out from vertex 0 over the facets
that avoid it, each facet pulled the same way from its own lowest vertex.
`triangulate` reads it off which rows of the vertex matrix lie on which
half-space boundaries, decided in integers, and returns vertex indices, so
no coordinate is projected out and every simplex vertex is a vertex of the
polytope.  The cached form (`indexed_triangulation`) keeps each simplex as
vertex indices with dim! times its volume, `det_int` of its edge rows in
the vertex matrix, an integer over D^dim.  Volume, centroid and the
closed-form volume functions in `valuations` all read it; the volume and
centroid are integer sums with one Fraction per value.

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
from .lattice import (
    RatVec,
    det_int,
    dot,
    solve_linear,
)

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


def triangulate(
    halfspaces: Sequence[HalfSpace], rows: Sequence[Sequence[int]], den: int, dim: int
) -> list[tuple[int, ...]]:
    """The pulling triangulation of the polytope spanned by the points rows / den.

    The points are pulled in their given order, so the triangulation fans
    out from point 0 over the facets that do not contain it, and each facet
    is triangulated the same way from its own lowest point.  Only incidence
    is used: a face is the set of points on it, and its facets are the
    maximal proper, nonempty intersections of it with the tight sets (the
    points on each half-space's boundary, <row, a> * q == den * p for the
    offset b = p / q).  Each simplex is returned as a (dim+1)-tuple of point
    indices and is nondegenerate, so a lower-dimensional polytope gives [].
    """
    tight = {
        frozenset(
            k for k, row in enumerate(rows)
            if b.denominator * sum(map(operator.mul, row, a)) == b.numerator * den
        )
        for a, b in halfspaces
    }

    def pull(face: frozenset) -> list[tuple[int, ...]]:
        top = min(face)
        cuts = {face & t for t in tight} - {face, frozenset()}
        facets = [g for g in cuts if not any(g < h for h in cuts)]
        if not facets:
            return [(top,)]
        return [(top,) + rest for g in facets if top not in g for rest in pull(g)]

    return [simplex for simplex in pull(frozenset(range(len(rows)))) if len(simplex) == dim + 1]


class RationalPolytope:
    """A bounded rational polytope carrying both H- and V-representations.

    The caller supplies both: the half-spaces and the lex-sorted vertices
    of their intersection, which must be bounded.  Instances are immutable
    in use (nothing mutates after construction) and cache their
    triangulation and volume data.
    """

    def __init__(self, halfspaces: Sequence[HalfSpace], vertices: Sequence[RatVec], dim: int):
        self.dim = dim
        self.halfspaces: tuple[HalfSpace, ...] = tuple(
            (tuple(a), Fraction(b)) for a, b in halfspaces
        )
        self.vertices: tuple[RatVec, ...] = tuple(vertices)
        if not self.vertices:
            raise InvariantViolation("empty polytope")

    # -- basic queries ----------------------------------------------------

    @cached_property
    def vertex_matrix(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, rows): the vertices as integer rows over one common denominator.

        D is the least common denominator of all vertex coordinates and
        vertices[i] == rows[i] / D.  Built once, on first use.
        """
        d = math.lcm(*(x.denominator for v in self.vertices for x in v))
        return d, tuple(tuple(x.numerator * (d // x.denominator) for x in v) for v in self.vertices)

    def vertex_values(self, w: Sequence[int]) -> list[int]:
        """D * <v, w> for each vertex v, in vertex order: one integer dot product each."""
        return [sum(map(operator.mul, row, w)) for row in self.vertex_matrix[1]]

    # -- volume and centroid ----------------------------------------------

    @cached_property
    def indexed_triangulation(self) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
        """(D^dim, simplices): the cached triangulation on the vertex matrix.

        Each simplex is its vertex indices and dim! times its volume, an
        integer over D^dim: |det| of its integer edge rows.  The vertices
        are pulled in vertex order, so every simplex contains vertex 0.
        Built once, on first use.
        """
        d, rows = self.vertex_matrix
        simplices = []
        for ks in triangulate(self.halfspaces, rows, d, self.dim):
            base = rows[ks[0]]
            edges = [[x - y for x, y in zip(rows[k], base)] for k in ks[1:]]
            simplices.append((ks, abs(det_int(edges))))
        return d**self.dim, tuple(simplices)

    @cached_property
    def _volume_data(self) -> tuple[Fraction, Optional[RatVec]]:
        den, simplices = self.indexed_triangulation
        if not simplices:
            warnings.warn("lower-dimensional polytope: volume 0", stacklevel=4)
            return Fraction(0), None
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
        )

    def volume(self) -> Fraction:
        """Exact Euclidean volume: the sum over the cached triangulation."""
        return self._volume_data[0]

    def barycenter(self) -> RatVec:
        """Exact centroid: volume-weighted average of the cached simplices' centroids."""
        if not self.indexed_triangulation[1]:
            raise InvariantViolation("barycenter of a degenerate polytope")
        return self._volume_data[1]

    # -- derived structure -------------------------------------------------

    def sliced(self, normal: Sequence[int], offset: Fraction) -> "RationalPolytope":
        """The sub-polytope {u : <u, normal> >= offset} (bounded by construction)."""
        halfspaces = self.halfspaces + ((tuple(normal), Fraction(offset)),)
        return RationalPolytope(halfspaces, enumerate_vertices(halfspaces, self.dim), self.dim)

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
            f"vertices={len(self.vertices)})"
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
