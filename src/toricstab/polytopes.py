"""Exact rational polytopes: vertex enumeration, triangulation, volume.

Polytopes are handled in H-representation (a list of half-spaces
``<u, normal> >= offset`` with integer normals and rational offsets) and
V-representation (rational vertex tuples).  Vertex enumeration is the
exhaustive n-subset intersection of facet hyperplanes with feasibility
filtering: exact and perfectly adequate at the facet counts this package
sees (< 20).

Each polytope triangulates itself once, lazily, on first use: the pulling
triangulation for its lex-sorted vertex order (De Loera-Rambau-Santos,
*Triangulations*, 2010, Sec. 4.3), a fan-out from the first vertex over
the facets that avoid it, each facet pulled the same way from its own
first vertex.  It is read off which vertices lie on which half-space
boundaries, so no coordinate is projected out and every simplex vertex is
a vertex of the polytope.  Volume, centroid and the closed-form volume
functions in `valuations` all read that cached triangulation.  Every
solve, determinant and kernel vector here goes through the fraction-free
elimination kernel in `lattice`; simplex determinants are `det_int` of the
edge vectors scaled to integers.
"""

from __future__ import annotations

import math
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
    gcd_vec,
    integer_rows,
    kernel_vector,
    solve_or_none,
    vec_sub,
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


def recession_direction(normals: Sequence[Sequence[int]], dim: int) -> Optional[tuple]:
    """A nonzero direction in {u : <u, a_i> >= 0 for all i}, or None.

    None means the recession cone is trivial, i.e. the polyhedron with these
    normals is bounded.
    """
    line = kernel_vector(normals, dim)
    if line is not None:
        # the constraints fix fewer than dim directions: a full line remains
        return line
    # pointed cone: any nonzero element lies on a face, so scanning the
    # candidate extreme rays (kernels of dim-1 active constraints) finds a
    # direction whenever one exists
    for rows in combinations(normals, dim - 1):
        direction = kernel_vector(rows, dim)
        for cand in (direction, tuple(-x for x in direction)):
            if all(dot(cand, a) >= 0 for a in normals):
                return cand
    return None


def _det_cols(vectors: Sequence[RatVec]) -> Fraction:
    """Determinant with the given columns (equal to the one with them as rows)."""
    rows, scale = integer_rows(vectors)
    return Fraction(det_int(rows), scale)


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
    tight = {
        frozenset(k for k, p in enumerate(points) if dot(p, a) == b) for a, b in halfspaces
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


def _dedupe(halfspaces: Sequence[HalfSpace]) -> list[HalfSpace]:
    """Canonical constraint list: primitive integer normals, one (binding) copy each.

    Two half-spaces with parallel normals reduce to the larger offset, so
    the H-representation a polytope keeps has one half-space per normal.
    """
    binding: dict[tuple[int, ...], Fraction] = {}
    for a, b in halfspaces:
        g = gcd_vec(a)
        if g == 0:
            continue
        prim = tuple(x // g for x in a)
        off = Fraction(b, g)
        if prim not in binding or off > binding[prim]:
            binding[prim] = off
    return [(a, b) for a, b in binding.items()]


def _average(points: Sequence[RatVec]) -> RatVec:
    n = len(points)
    return tuple(sum(col, Fraction(0)) / n for col in zip(*points))


class RationalPolytope:
    """A bounded rational polytope carrying both H- and V-representations.

    Constructed from half-spaces; vertices are enumerated exactly on
    construction.  Instances are immutable in use (nothing mutates after
    construction) and cache their triangulation and volume data.
    """

    def __init__(
        self,
        halfspaces: Sequence[HalfSpace],
        dim: int,
        *,
        assume_bounded: bool = False,
    ):
        self.dim = dim
        self.halfspaces: tuple[HalfSpace, ...] = tuple(
            (tuple(a), Fraction(b)) for a, b in _dedupe(halfspaces)
        )
        self.vertices: tuple[RatVec, ...] = tuple(
            enumerate_vertices(self.halfspaces, dim)
        )
        if not self.vertices:
            raise InvariantViolation("empty polytope")
        if not assume_bounded and recession_direction(
            [a for a, _ in self.halfspaces], dim
        ) is not None:
            raise InvariantViolation("unbounded polyhedron")

    # -- basic queries ----------------------------------------------------

    def contains(self, point: Sequence, strict: bool = False) -> bool:
        if strict:
            return all(dot(point, a) > b for a, b in self.halfspaces)
        return all(dot(point, a) >= b for a, b in self.halfspaces)

    def is_full_dimensional(self) -> bool:
        """True iff the polytope has interior points, i.e. a nonempty triangulation."""
        return bool(self.triangulation)

    def max_linear_functional(self, w: Sequence) -> Fraction:
        """Exact maximum of <., w> over the polytope (attained at a vertex)."""
        return max(dot(v, w) for v in self.vertices)

    # -- volume and centroid ----------------------------------------------

    @cached_property
    def triangulation(self) -> tuple[tuple[tuple[RatVec, ...], Fraction], ...]:
        """Simplices covering the polytope, each with dim! times its volume.

        The fan-out apex is the first vertex, so every simplex vertex is a
        vertex of the polytope.  Built once, on first use.
        """
        return tuple(
            (simplex, abs(_det_cols([vec_sub(p, simplex[0]) for p in simplex[1:]])))
            for simplex in triangulate(self.halfspaces, self.vertices, self.dim, apex=self.vertices[0])
        )

    @cached_property
    def _volume_data(self) -> tuple[Fraction, RatVec]:
        if not self.is_full_dimensional():
            warnings.warn("lower-dimensional polytope: volume 0", stacklevel=4)
            return Fraction(0), _average(self.vertices)
        total = Fraction(0)
        weighted = [Fraction(0)] * self.dim
        for simplex, mass in self.triangulation:
            total += mass
            centroid = _average(simplex)
            for i in range(self.dim):
                weighted[i] += mass * centroid[i]
        return total / math.factorial(self.dim), tuple(w / total for w in weighted)

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
        return RationalPolytope(
            list(self.halfspaces) + [(tuple(normal), Fraction(offset))],
            self.dim,
            assume_bounded=True,
        )

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
