"""Invariants of torus-invariant divisorial valuations on toric Fano varieties.

A nonzero integer vector w in the cocharacter lattice encodes a
torus-invariant divisorial valuation over the variety X of a complete
simplicial fan.  With P the anticanonical polytope, every invariant is an
exact polytope computation:

  * log discrepancy    A(w)  = sum of the coordinates of w inside the
                               simplicial cone containing it;
  * valuation of the section indexed by a lattice point u:
                       <u, w> + A(w), which is nonnegative exactly on P;
  * volume function    vol(x) = n! * vol(P cut to {<u, w> >= x - A(w)});
  * pseudo-effective threshold  tau(w) = A(w) + max_P <u, w>;
  * beta invariant     beta(w) = A(w) * degree - integral of vol over [0, tau];
  * nef threshold      eps(w) = A(w) + the second-smallest distinct value of
                       <v, w> over the vertices v of P, the first positive
                       knot of vol.

The volume function is piecewise polynomial with breakpoints exactly at the
values A(w) + <vertex, w>.  It is read in closed form from the triangulation
of P cached on the polytope (Lawrence, Math. Comp. 57, 1991): pushed
forward along u -> A(w) + <u, w>, the uniform measure on a simplex S has a
B-spline density whose knots are the values at the vertices of S
(Curry-Schoenberg, 1966).  Every simplex vertex is a vertex of P, so every
knot is a breakpoint, and on each piece vol is dim! * sum_S vol(S) *
(1 - F_S(x)), where F_S is the exact confluent divided difference of
(x - t)^n over the knots of S at or below the piece's left end
(`piecewise.spline_cdf_jumps`).  Repeated knots are handled exactly, with
no perturbation, so every coefficient is an exact rational number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InvariantViolation
from .fans import Fan
from .lattice import LatticeVec, dot, gcd_vec, primitivize
from .piecewise import PiecewisePolynomial, poly_from_shifted, spline_cdf_jumps


@dataclass(frozen=True)
class ToricValuation:
    """A torus-invariant divisorial valuation, encoded by w in the fan's lattice.

    w need not be primitive (homogeneity tests rescale it), but only a
    primitive w corresponds to a prime divisor.
    """

    fan: Fan
    w: LatticeVec

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        if any(type(x) is not int for x in self.w):
            raise InvariantViolation(f"valuation vector {self.w} must have int entries")
        if len(self.w) != self.fan.dimension:
            raise InvariantViolation(
                f"valuation vector length {len(self.w)} != fan dimension {self.fan.dimension}"
            )
        if all(x == 0 for x in self.w):
            raise InvariantViolation("valuation vector must be nonzero")

    @property
    def multiplicity(self) -> int:
        return gcd_vec(self.w)

    @property
    def is_primitive(self) -> bool:
        return self.multiplicity == 1

    def primitivized(self) -> "ToricValuation":
        return ToricValuation(self.fan, primitivize(self.w))

    @cached_property
    def _cone_coordinates(self) -> tuple[int, tuple[Fraction, ...]]:
        """(index of a maximal cone containing w, w's coordinates in it), located once."""
        return self.fan.cone_coordinates(self.w)


def log_discrepancy(val: ToricValuation) -> Fraction:
    """Sum of the cone coordinates of w in a containing maximal cone.

    Well-defined on shared faces: coordinates on rays outside the minimal
    containing cone vanish.
    """
    _, coords = val._cone_coordinates
    total = sum(coords, Fraction(0))
    if total <= 0:
        raise AssertionError(f"log discrepancy of {val.w} not positive")
    return total


def pseff_threshold(val: ToricValuation) -> Fraction:
    """Largest x with vol(x) > 0: equals A(w) + max over P of <u, w>."""
    poly = val.fan.anticanonical_polytope()
    return log_discrepancy(val) + poly.max_linear_functional(val.w)


@lru_cache(maxsize=None)
def volume_function(val: ToricValuation) -> PiecewisePolynomial:
    """Exact piecewise polynomial x -> vol(-K - x w) on [0, tau].

    Each simplex S of the cached triangulation of P contributes
    dim! vol(S) * (1 - F_S(x)), with F_S the spline distribution function of
    its knots A(w) + <v, w>.  The knots are breakpoints, so each piece is the
    degree minus the jumps of every F_S at the breakpoints up to its left end.
    """
    fan = val.fan
    n = fan.dimension
    poly = fan.anticanonical_polytope()
    a_disc = log_discrepancy(val)
    at = {v: a_disc + dot(v, val.w) for v in poly.vertices}
    values = sorted(set(at.values()))
    if values[0] != 0:
        raise AssertionError("volume function must start at x = 0")
    # shifted[t][j]: coefficient of (x - t)^j in the total jump at breakpoint t
    shifted = {t: [Fraction(0)] * (n + 1) for t in values[:-1]}
    for simplex, mass in poly.triangulation:
        for t, jump in spline_cdf_jumps([at[v] for v in simplex]).items():
            if t in shifted:
                total = shifted[t]
                for j, c in enumerate(jump):
                    total[j] += mass * c
    degree = math.factorial(n) * poly.volume()
    current = [degree] + [Fraction(0)] * n
    pieces = []
    for left in values[:-1]:
        for j, c in enumerate(poly_from_shifted(shifted[left], left)):
            current[j] -= c
        pieces.append(tuple(current))
    result = PiecewisePolynomial(tuple(values), tuple(pieces))
    if result(0) != degree or result(values[-1]) != 0:
        raise AssertionError("volume function endpoint values are wrong")
    if not result.is_c1():
        raise AssertionError("volume function is not C^1 at a breakpoint")
    return result


def section_count(val: ToricValuation, k: int, j: int) -> int:
    """Finite-level section-count oracle behind the volume limit.

    Counts lattice points u of k*P with vanishing order <u, w> + k*A(w) at
    least j.  Enumeration is bounding-box based and budget-guarded.
    """
    if k < 1:
        raise InvariantViolation("dilation k must be a positive integer")
    if j < 0:
        raise InvariantViolation("order cutoff j must be nonnegative")
    poly = val.fan.anticanonical_polytope()
    a_disc = log_discrepancy(val)
    return sum(
        1 for u in poly.lattice_points(scale=k) if dot(u, val.w) + k * a_disc >= j
    )


def integrated_volume(val: ToricValuation) -> Fraction:
    """Exact integral of the volume function over [0, tau]."""
    return volume_function(val).integral()


def beta_invariant(val: ToricValuation) -> Fraction:
    """A(w) * degree - integrated volume; positive for all w on K-stable X."""
    return log_discrepancy(val) * val.fan.degree() - integrated_volume(val)


def restricted_volume(val: ToricValuation) -> PiecewisePolynomial:
    """Q(x) = -(1/n) d/dx vol(x), extended to the closed interval [0, tau]."""
    return volume_function(val).derivative().scale(Fraction(-1, val.fan.dimension))


def center_codim(val: ToricValuation) -> int:
    """Dimension of the minimal fan cone containing w.

    This equals the codimension of the valuation's center: the center is a
    point exactly when the result is the fan dimension.
    """
    _, coords = val._cone_coordinates
    return sum(1 for c in coords if c > 0)


@lru_cache(maxsize=None)
def nef_threshold(val: ToricValuation) -> Fraction:
    """Largest eps with (pullback of -K) - eps*E nef on the extraction model.

    This is A(w) plus the second-smallest distinct value of <v, w> over the
    vertices v of P: the first positive knot of the volume function.  On a
    complete toric variety D is nef exactly when it is basepoint free, i.e.
    when every Cartier datum m_sigma lies in the polytope of D
    (Cox-Little-Schenck, *Toric Varieties*, Thms 6.1.7 and 6.3.12).  For D_x = pi*(-K) - x*E that
    polytope is P cut to {<u, w> >= x - A(w)}.  A cone not containing w has
    m_sigma a vertex of P off the face minimising <., w>; a cone containing
    w has m_sigma on that face at x = 0, sliding along an edge of P towards
    a vertex off it as x grows.  So nefness ends at the first such vertex.
    The formula is homogeneous in w, so non-primitive w and ray multiples
    need no special case.
    """
    values = sorted({dot(v, val.w) for v in val.fan.anticanonical_polytope().vertices})
    return log_discrepancy(val) + values[1]


# -- bundled profile ----------------------------------------------------------


@dataclass(frozen=True)
class ValuationProfile:
    """All per-valuation invariants, cross-validated at construction."""

    w: LatticeVec
    degree: Fraction
    log_discrepancy: Fraction
    pseff_threshold: Fraction
    nef_threshold: Fraction
    integrated_volume: Fraction
    beta: Fraction
    volume_fn: PiecewisePolynomial
    restricted_volume_fn: PiecewisePolynomial
    center_codim: int
    is_primitive: bool

    def __post_init__(self):
        if not 0 < self.nef_threshold <= self.pseff_threshold:
            raise AssertionError(
                f"nef threshold {self.nef_threshold} outside (0, {self.pseff_threshold}]"
            )
        expected = self.log_discrepancy * self.degree - self.integrated_volume
        if self.beta != expected:
            raise AssertionError("beta does not match A * degree - integrated volume")


def valuation_profile(val: ToricValuation) -> ValuationProfile:
    return ValuationProfile(
        w=val.w,
        degree=val.fan.degree(),
        log_discrepancy=log_discrepancy(val),
        pseff_threshold=pseff_threshold(val),
        nef_threshold=nef_threshold(val),
        integrated_volume=integrated_volume(val),
        beta=beta_invariant(val),
        volume_fn=volume_function(val),
        restricted_volume_fn=restricted_volume(val),
        center_codim=center_codim(val),
        is_primitive=val.is_primitive,
    )


# -- structural certificates ---------------------------------------------------


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of a structural certificate check.

    status is "pass", "fail", or "hypothesis not met"; quantities carries
    the exact numbers entering the check and checks the per-conclusion
    verdicts.
    """

    name: str
    status: str
    quantities: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def certify_extremal_volume(val: ToricValuation) -> CertificateResult:
    """Check the certificate forced by (n/(n+1)) tau V <= integral of vol.

    When the hypothesis holds, the inequality must be an equality, the nef
    and pseudo-effective thresholds must agree, the center must be a point,
    and the volume function must be exactly V - (V/tau^n) x^n.  The check is
    scale-invariant, so w is primitivized first.
    """
    val = val.primitivized()
    fan = val.fan
    n = fan.dimension
    degree = fan.degree()
    tau = pseff_threshold(val)
    total = integrated_volume(val)
    lhs = Fraction(n, n + 1) * tau * degree
    quantities = {"threshold_bound": lhs, "integrated_volume": total, "tau": tau}
    if lhs > total:
        return CertificateResult("extremal_volume", "hypothesis not met", quantities)
    eps = nef_threshold(val)
    quantities["eps"] = eps
    expected_vol = PiecewisePolynomial(
        (Fraction(0), tau),
        ((degree,) + (Fraction(0),) * (n - 1) + (-degree / tau**n,),),
    )
    checks = {
        "inequality_is_equality": lhs == total,
        "tau_equals_eps": tau == eps,
        "center_is_point": center_codim(val) == n,
        "volume_is_pure_power": volume_function(val) == expected_vol,
    }
    status = "pass" if all(checks.values()) else "fail"
    return CertificateResult("extremal_volume", status, quantities, checks)


def certify_equality_case(val: ToricValuation) -> CertificateResult:
    """Check the certificate forced by A >= (n/(n+1)) tau together with beta <= 0.

    When both hypotheses hold the invariants must take the projective-space
    values A = n and tau = eps = n + 1, with a point center.  Conclusions
    are stated for the underlying prime divisor, so w is primitivized first.
    """
    val = val.primitivized()
    fan = val.fan
    n = fan.dimension
    a_disc = log_discrepancy(val)
    tau = pseff_threshold(val)
    beta = beta_invariant(val)
    quantities = {"A": a_disc, "tau": tau, "beta": beta}
    if a_disc < Fraction(n, n + 1) * tau or beta > 0:
        return CertificateResult("equality_case", "hypothesis not met", quantities)
    eps = nef_threshold(val)
    quantities["eps"] = eps
    checks = {
        "A_equals_n": a_disc == n,
        "tau_is_n_plus_1": tau == n + 1,
        "eps_is_n_plus_1": eps == n + 1,
        "center_is_point": center_codim(val) == n,
    }
    status = "pass" if all(checks.values()) else "fail"
    return CertificateResult("equality_case", status, quantities, checks)
