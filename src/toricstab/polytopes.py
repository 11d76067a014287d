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
*Triangulations*, 2010, Sec. 4.3), a fan-out from the first vertex over
the facets that avoid it, each facet pulled the same way from its own
first vertex.  It is read off which vertices lie on which half-space
boundaries, decided in integers over the points' common denominator, so no
coordinate is projected out and every simplex vertex is a vertex of the
polytope.  The cached form is indexed (`indexed_triangulation`): each
simplex as vertex indices with dim! times its volume, `det_int` of its
edge rows in the vertex matrix, an integer over D^dim.  Volume, centroid
and the closed-form volume functions in `valuations` all read it; the
volume and centroid are integer sums with one Fraction per value.  Every
solve and determinant here goes through the fraction-free elimination
kernel in `lattice`.
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
    solve_or_none,
)

HalfSpace = tuple[tuple[int, ...], Fraction]  # (normal a, offset b): <u, a> >= b


def enumerate_vertices(halfspaces: Sequence[HalfSpace], dim: int) -> list[RatVec]:
    """All vertices of the intersection of half-spaces, lexicographically sorted.

    A vertex is the unique solution of some dim-subset of the boundary
    hyperplanes that satisfies every remaining constraint.
    """
    seen: dict[RatVec, None] = {}
    for subset in combinations(halfspaces, dim):
        point = solve_or_none([a for a, _ in subset], [b for _, b in subset])
        if point is None:
            continue
        if all(dot(point, a) >= b for a, b in halfspaces):
            seen.setdefault(point)
    return sorted(seen)


def triangulate(
    halfspaces: Sequence[HalfSpace],
    vertices: Sequence[RatVec],
    dim: int,
    apex: Optional[RatVec] = None,
) -> list[tuple[RatVec, ...]]:
    """Triangulate a full-dimensional polytope into rational simplices.

    The triangulation fans out from `apex` (default: the vertex average,
    which lies in the interior; any point of the polytope will do) over the
    facets that do not contain it, and each facet is triangulated the same
    way from its own first vertex: the pulling triangulation for the point
    order apex, then `vertices` as given.  Only incidence is used: a face is
    the set of points on it, and its facets are the maximal proper, nonempty
    intersections of it with the tight sets (the points on each half-space's
    boundary).  Every returned simplex is a nondegenerate (dim+1)-tuple of
    points, so a lower-dimensional polytope gives [].
    """
    if not vertices:
        return []
    if apex is None:
        apex = _average(vertices)
    points = (apex, *vertices)
    # tight sets in integers: the points as rows over their common denominator
    den = math.lcm(*(x.denominator for p in points for x in p))
    rows = [[x.numerator * (den // x.denominator) for x in p] for p in points]
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

    return [
        tuple(points[k] for k in simplex)
        for simplex in pull(frozenset(range(len(points))))
        if len(simplex) == dim + 1
    ]


def _average(points: Sequence[RatVec]) -> RatVec:
    n = len(points)
    return tuple(sum(col, Fraction(0)) / n for col in zip(*points))


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

    def is_full_dimensional(self) -> bool:
        """True iff the polytope has interior points, i.e. a nonempty triangulation."""
        return bool(self.indexed_triangulation[1])

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
        integer over D^dim: |det| of its integer edge rows.  The fan-out
        apex is the first vertex, so every simplex vertex is a vertex of the
        polytope.  Built once, on first use.
        """
        d, rows = self.vertex_matrix
        index = {v: i for i, v in enumerate(self.vertices)}
        simplices = []
        for simplex in triangulate(self.halfspaces, self.vertices, self.dim, apex=self.vertices[0]):
            ks = tuple(index[p] for p in simplex)
            base = rows[ks[0]]
            edges = [[x - y for x, y in zip(rows[k], base)] for k in ks[1:]]
            simplices.append((ks, abs(det_int(edges))))
        return d**self.dim, tuple(simplices)

    @cached_property
    def triangulation(self) -> tuple[tuple[tuple[RatVec, ...], Fraction], ...]:
        """Simplices covering the polytope as vertex tuples, each with dim! times its volume."""
        den, simplices = self.indexed_triangulation
        return tuple(
            (tuple(self.vertices[k] for k in ks), Fraction(mass, den)) for ks, mass in simplices
        )

    @cached_property
    def _volume_data(self) -> tuple[Fraction, RatVec]:
        den, simplices = self.indexed_triangulation
        if not simplices:
            warnings.warn("lower-dimensional polytope: volume 0", stacklevel=4)
            return Fraction(0), _average(self.vertices)
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
        if not self.is_full_dimensional():
            raise InvariantViolation("barycenter of a degenerate polytope")
        return self._volume_data[1]

    # -- derived structure -------------------------------------------------

    def sliced(self, normal: Sequence[int], offset: Fraction) -> "RationalPolytope":
        """The sub-polytope {u : <u, normal> >= offset} (bounded by construction)."""
        halfspaces = self.halfspaces + ((tuple(normal), Fraction(offset)),)
        return RationalPolytope(halfspaces, enumerate_vertices(halfspaces, self.dim), self.dim)

    def lattice_points(self, scale: int = 1, budget: Optional[int] = None) -> list[tuple[int, ...]]:
        """Integer points of `scale * P`, by bounding-box enumeration.

        Raises BudgetExceeded when the box holds more than `budget` points
        (default from the oracle budget, see workbench).
        """
        if budget is None:
            budget = default_oracle_budget()
        lo, hi = [], []
        box = 1
        for i in range(self.dim):
            values = [scale * v[i] for v in self.vertices]
            a = math.floor(min(values))
            b = math.ceil(max(values))
            lo.append(a)
            hi.append(b)
            box *= b - a + 1
        if box > budget:
            raise BudgetExceeded("oracle budget exceeded")
        points = []
        for pt in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            if all(dot(pt, a) >= scale * b for a, b in self.halfspaces):
                points.append(pt)
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
