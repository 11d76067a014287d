"""Complete simplicial fans and their anticanonical polytopes.

A fan is given by primitive integer ray generators and maximal cones listed
as ray index sets.  Validation enforces, eagerly and exactly:

  * a dimension, ray coordinates and cone indices of exact type int;
  * primitive, nonzero, pairwise distinct rays, each used by some cone;
  * every maximal cone simplicial and full-dimensional;
  * completeness: every wall (facet of a maximal cone) is shared by exactly
    two cones lying on opposite sides of it, and an interior point of the
    first cone lies in no other cone.  Crossing a wall then never changes
    how many cones cover a generic point, so that number is 1 everywhere:
    the cones cover R^n without overlapping.

The anticanonical polytope is { u : <u, v_i> >= -1 for all rays v_i }; it is
built only for Q-Fano fans, where the support function of -K is strictly
convex.  Its lattice points at dilation k index the degree-k anticanonical
sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import InvariantViolation
from .lattice import LatticeVec, RatVec, adjugate, dot, primitivize
from .polytopes import RationalPolytope


def _int_vector(v: Sequence[int], what: str = "vector entries") -> tuple[int, ...]:
    """v as a tuple, refusing any entry whose type is not exactly int."""
    v = tuple(v)
    if any(type(x) is not int for x in v):
        raise InvariantViolation(f"{what} must be ints")
    return v


@dataclass(frozen=True)
class Cone:
    """A maximal cone of a fan, as indices into the host fan's ray table."""

    ray_indices: tuple[int, ...]


class Fan:
    """A complete simplicial fan in Z^n defining a projective toric variety."""

    def __init__(
        self,
        dimension: int,
        rays: Sequence[Sequence[int]],
        max_cones: Sequence[Sequence[int]],
        name: str = "",
    ):
        # exact types, as for FanSpec documents: never truncate a float or bool
        if type(dimension) is not int:
            raise InvariantViolation(f"dimension {dimension!r} is not an int")
        rays = tuple(_int_vector(r, "ray coordinates") for r in rays)
        max_cones = tuple(_int_vector(c, "cone ray indices") for c in max_cones)
        self.dimension = dimension
        self.name = name
        self.rays: tuple[LatticeVec, ...] = rays
        self.max_cones: tuple[Cone, ...] = tuple(Cone(tuple(sorted(c))) for c in max_cones)
        # per cone, the multiplicity |det| and |det| * inverse of the
        # ray-column matrix, from one kernel call: adj . w is w's cone
        # coordinates times |det|, so sign tests decide membership without
        # any rational arithmetic
        self._cone_adjugates: list[tuple[tuple[int, ...], ...]] = []
        self._cone_mults: list[int] = []
        self._walls: list[tuple[frozenset, int, int]] = []
        self._ray_lookup = {ray: i for i, ray in enumerate(self.rays)}
        self._polytope: Optional[RationalPolytope] = None
        self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        n = self.dimension
        if n < 1:
            raise InvariantViolation("dimension must be at least 1")
        seen: dict[LatticeVec, int] = {}
        for i, ray in enumerate(self.rays):
            if len(ray) != n:
                raise InvariantViolation(f"ray {i} has length {len(ray)}, expected {n}")
            if all(x == 0 for x in ray):
                raise InvariantViolation(f"ray {i} is the zero vector")
            if primitivize(ray) != ray:
                raise InvariantViolation(f"ray {i} = {ray} is not primitive")
            if ray in seen:
                raise InvariantViolation(f"duplicate ray {ray} at indices {seen[ray]}, {i}")
            seen[ray] = i
        used = set()
        for ci, cone in enumerate(self.max_cones):
            if len(cone.ray_indices) != n:
                raise InvariantViolation(
                    f"maximal cone {ci} has {len(cone.ray_indices)} rays, expected {n} "
                    "(non-simplicial or lower-dimensional cones are rejected)"
                )
            if any(i < 0 or i >= len(self.rays) for i in cone.ray_indices):
                raise InvariantViolation(f"maximal cone {ci} references a missing ray")
            cols = [[self.rays[j][i] for j in cone.ray_indices] for i in range(n)]
            solved = adjugate(cols)
            if solved is None:
                raise InvariantViolation(f"maximal cone {ci} is not simplicial")
            d, adj = solved
            self._cone_mults.append(abs(d))
            self._cone_adjugates.append(
                tuple(tuple(x if d > 0 else -x for x in row) for row in adj)
            )
            used.update(cone.ray_indices)
        if used != set(range(len(self.rays))):
            unused = sorted(set(range(len(self.rays))) - used)
            raise InvariantViolation(f"rays {unused} appear in no maximal cone")
        self._check_complete()

    def _check_complete(self) -> None:
        n = self.dimension
        by_facet: dict[frozenset, list[int]] = {}
        for ci, cone in enumerate(self.max_cones):
            for facet in combinations(cone.ray_indices, n - 1):
                by_facet.setdefault(frozenset(facet), []).append(ci)
        if not by_facet or any(len(pair) != 2 for pair in by_facet.values()):
            raise InvariantViolation("fan not complete")
        self._walls = sorted(
            ((key, ci, cj) for key, (ci, cj) in by_facet.items()),
            key=lambda wall: sorted(wall[0]),
        )
        for shared, ci, cj in self._walls:
            # the ray of cj off the wall must lie beyond the wall, seen from ci
            cone = self.max_cones[ci].ray_indices
            pos = next(p for p, i in enumerate(cone) if i not in shared)
            opposite = next(i for i in self.max_cones[cj].ray_indices if i not in shared)
            if self._scaled_coords(ci, self.rays[opposite])[pos] >= 0:
                raise InvariantViolation("overlapping maximal cones")
        inner = [sum(col) for col in zip(*(self.rays[i] for i in self.max_cones[0].ray_indices))]
        for ci in range(1, len(self.max_cones)):
            if all(s >= 0 for s in self._scaled_coords(ci, inner)):
                raise InvariantViolation("overlapping maximal cones")

    # -- cone queries ---------------------------------------------------------

    def _scaled_coords(self, cone_index: int, w: Sequence) -> tuple:
        """w's coordinates in the cone's ray basis, times the cone's |det|."""
        adj = self._cone_adjugates[cone_index]
        return tuple(sum(a * x for a, x in zip(row, w)) for row in adj)

    def containing_cone(self, w: Sequence[int]) -> int:
        """Index of a maximal cone containing w (complete fans always have one)."""
        for ci in range(len(self.max_cones)):
            if all(s >= 0 for s in self._scaled_coords(ci, w)):
                return ci
        raise AssertionError(f"complete fan has no cone containing {tuple(w)}")

    def cone_coordinates(self, w: Sequence[int]) -> tuple[int, RatVec]:
        """(cone index, nonnegative coordinates of w in that cone)."""
        ci = self.containing_cone(w)
        mult = self._cone_mults[ci]
        return ci, tuple(Fraction(x, mult) for x in self._scaled_coords(ci, w))

    def ray_index(self, v: Sequence[int]) -> Optional[int]:
        return self._ray_lookup.get(_int_vector(v))

    def is_smooth(self) -> bool:
        """True iff every maximal cone's rays form a lattice basis (|det| = 1)."""
        return all(d == 1 for d in self._cone_mults)

    def linear_form(self, cone_index: int, values: Sequence) -> RatVec:
        """The m with <m, v> = values[k] on the k-th ray v of the cone: adj^T values / |det|."""
        adj = self._cone_adjugates[cone_index]
        mult = self._cone_mults[cone_index]
        return tuple(
            Fraction(sum(row[k] * h for row, h in zip(adj, values)), mult)
            for k in range(self.dimension)
        )

    # -- derived geometry -------------------------------------------------------

    def anticanonical_polytope(self) -> RationalPolytope:
        """The polytope { u : <u, v_i> >= -1 }, computed once and cached.

        Requires Q-Fano, i.e. -K ample: for each maximal cone, the m with
        <m, v> = -1 on its rays must satisfy <m, v_j> > -1 at every other ray.
        """
        if self._polytope is None:
            for ci, cone in enumerate(self.max_cones):
                m = self.linear_form(ci, [-1] * self.dimension)
                outside = (v for j, v in enumerate(self.rays) if j not in cone.ray_indices)
                if any(dot(m, v) <= -1 for v in outside):
                    raise InvariantViolation(f"not Q-Fano: -K is not ample on maximal cone {ci}")
            halfspaces = [(ray, Fraction(-1)) for ray in self.rays]
            self._polytope = RationalPolytope(halfspaces, self.dimension)
        return self._polytope

    def degree(self) -> Fraction:
        """The anticanonical self-intersection number n! * vol(P)."""
        return math.factorial(self.dimension) * self.anticanonical_polytope().volume()

    def walls(self) -> list[tuple[frozenset, int, int]]:
        """All walls as (shared ray index set, cone index, adjacent cone index)."""
        return list(self._walls)

    def star_subdivision(self, w: Sequence[int]) -> "Fan":
        """The stellar refinement inserting the primitive ray w.

        Every maximal cone containing w is replaced by the cones obtained by
        swapping w for each generator it has positive coordinate on; cones
        not containing w survive unchanged.
        """
        w = _int_vector(w)
        if primitivize(w) != w:
            raise InvariantViolation("star subdivision requires a primitive vector")
        if self.ray_index(w) is not None:
            raise InvariantViolation(f"{w} is already a ray of the fan")
        new_rays = list(self.rays) + [w]
        w_index = len(self.rays)
        new_cones: list[tuple[int, ...]] = []
        for ci, cone in enumerate(self.max_cones):
            signs = self._scaled_coords(ci, w)
            if any(s < 0 for s in signs):
                new_cones.append(cone.ray_indices)
                continue
            for pos, s in enumerate(signs):
                if s > 0:
                    replaced = list(cone.ray_indices)
                    replaced[pos] = w_index
                    new_cones.append(tuple(sorted(replaced)))
        return Fan(
            self.dimension,
            new_rays,
            new_cones,
            name=f"{self.name}*{w}" if self.name else f"star{w}",
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Fan(dim={self.dimension}{label}, rays={len(self.rays)}, "
            f"cones={len(self.max_cones)})"
        )
