"""Invariants of torus-invariant divisorial valuations on toric Fano varieties.

A nonzero integer vector w in the cocharacter lattice encodes a
torus-invariant divisorial valuation over the variety X of a complete
simplicial Q-Fano fan.  With P the anticanonical polytope, every invariant
is read off one integer row, D <v, w> over the vertices v of P, computed
once per valuation from the polytope's vertex matrix (`vertex_values`, D
its common denominator).  The support function of -K is -min_P <u, w>
(Cox-Little-Schenck, *Toric Varieties*, ch. 4 and 6): for w in a cone
sigma the vertex m_sigma attains the minimum, and <m_sigma, w> = -A(w).
So, with min and max taken over the row:

  * log discrepancy    A(w)  = -min / D;
  * valuation of the section indexed by a lattice point u:
                       <u, w> + A(w), which is nonnegative exactly on P;
  * volume function    vol(x) = n! * vol(P cut to {<u, w> >= x - A(w)});
  * pseudo-effective threshold  tau(w) = A(w) + max_P <u, w>
                       = (max - min) / D, so the equality-case bound
                       A >= (n/(n+1)) tau is equivalent to -min >= n max
                       (`meets_equality_bound`), met by no w when
                       alpha > 1/(n+1) and, when alpha = 1/(n+1), on the
                       cones of the negated alpha-extremal rays
                       (`equality_bound_rays`);
  * beta invariant     beta(w) = A(w) * degree - integral of vol over [0, tau];
  * nef threshold      eps(w) = (second-smallest distinct value - min) / D,
                       the first positive knot of vol;
  * center codimension the number of rays common to the cones of the
                       vertices attaining the min (`Fan.vertex_cones`), whose
                       face of P is dual to the minimal cone containing w.

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

The closed form runs on one integer knot scale D: the knots are
(s_v - min) / D for the row entries s_v, looked up by vertex index.  In the
variable y = D x the knots are the integers s_v - min, and the spline
jumps, being homogeneous of degree 0, are integer vectors over integer
denominators.  The simplex masses dim! vol(S) are integers over the shared
denominator D^dim (`RationalPolytope.indexed_triangulation`).  The jumps
of all simplices are brought to one common denominator L, summed per
breakpoint, expanded in powers of y by `piecewise.taylor_shift` and
accumulated into the pieces, numerators c_j D^j over D^dim L on the grid
k / D.  `PiecewisePolynomial._from_int_form` reduces them and checks
continuity, and the endpoint values are checked, all in integers.  C^1 is
checked once, by building Q = -vol'/n, which vol keeps, in one pass
(`PiecewisePolynomial.derivative`).  No Fraction is built for the pieces.
The profile of -w gives w's with no spline (`mirrored_profile`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InvariantViolation
from .fans import Fan
from .lattice import LatticeVec, primitivize
from .piecewise import PiecewisePolynomial, spline_cdf_jumps, taylor_shift

# Entries kept by the volume-function and nef-threshold caches.  Their keys
# hold a Fan hashed by identity, so a fan parsed again never hits and only a
# bound stops them growing in a long-lived process; one valuation's hits all
# come within its own profile, well inside this many entries.
CACHE_SIZE = 256


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
        return math.gcd(*self.w)

    @property
    def is_primitive(self) -> bool:
        return self.multiplicity == 1

    def primitivized(self) -> "ToricValuation":
        return ToricValuation(self.fan, primitivize(self.w))

    @cached_property
    def _values(self) -> tuple[int, list[int]]:
        """(D, D <v, w> for each vertex v of P): the one integer row every invariant reads."""
        poly = self.fan.anticanonical_polytope()
        return poly.vertex_matrix[0], positive_row(self.w, poly.vertex_values(self.w))


def positive_row(w: LatticeVec, values: list[int]) -> list[int]:
    """w's vertex row, once checked to give a positive A(w) = -min / D."""
    if min(values) >= 0:
        raise AssertionError(f"log discrepancy of {w} not positive")
    return values


def log_discrepancy(val: ToricValuation) -> Fraction:
    """A(w) = -min_P <u, w>, the support function of -K at w.

    It is the sum of the coordinates of w in any cone containing it: the
    vertex m_sigma of a cone sigma containing w has <m_sigma, v> = -1 on its
    rays and attains the minimum of <., w> over P.
    """
    d, values = val._values
    return Fraction(-min(values), d)


def pseff_threshold(val: ToricValuation) -> Fraction:
    """Largest x with vol(x) > 0: A(w) + max_P <u, w>, i.e. (max - min) / D over the row."""
    d, values = val._values
    return Fraction(max(values) - min(values), d)


def row_meets_equality_bound(n: int, values: list[int]) -> bool:
    """The equality-case hypothesis A(w) >= (n/(n+1)) tau(w), decided in integers.

    Since tau = A + max_P <u, w>, the bound is equivalent to A >= n max_P <u, w>,
    and with A = -min / D and max_P <u, w> = max / D over w's vertex row
    `values` in dimension n, that is -min >= n * max.  No Fraction is built.
    """
    return -min(values) >= n * max(values)


def meets_equality_bound(val: ToricValuation) -> bool:
    """`row_meets_equality_bound` on the valuation's own row."""
    return row_meets_equality_bound(val.fan.dimension, val._values[1])


def equality_bound_rays(fan: Fan) -> list[LatticeVec] | None:
    """The primitive generators, in battery order, of the cones K_sigma of
    the w in sigma that meet the bound, when each is {0} or a ray; else None.

    Read off the polytope's table T[v][k] = R_v . v_k over the vertex rows
    R_v (denominator D) and the rays v_k (`normal_table`): with
    t_k = max_v T[v][k], tau(v_k) = 1 + t_k / D.
    Every t_k < n D (alpha > 1/(n+1)) gives []; some t_k > n D
    (alpha < 1/(n+1)), or a row equal to n D at two rays, gives None;
    otherwise the result is the -v_k with t_k = n D, the negated rays that
    set alpha = 1/(n+1).

    Proof.  For w in sigma the vertex m_sigma attains the minimum, so w
    meets -min >= n max exactly when u_0 = -m_sigma / n has
    <u_0, w> >= <u, w> on P.  P's normal fan is the fan (Cox-Little-Schenck,
    *Toric Varieties*, ch. 6), so -v_k lies in sigma exactly when m_sigma
    maximises <., v_k>: when row sigma attains t_k.  If it attains some
    t_k > n D, then <u_0, -v_k> = t_k / (n D) > 1 = max_P <u, -v_k>, so
    K_sigma holds a neighbourhood of -v_k in sigma.  Otherwise u_0 lies in
    P = {u : <u, v_i> >= -1} and the bound holds exactly when u_0
    maximises <., w> on P, that is, on cone(-v_i : T[sigma][i] = n D).
    Each of these -v_i lies in sigma, so that cone is K_sigma.
    """
    n, poly = fan.dimension, fan.anticanonical_polytope()
    bound, table = n * poly.vertex_matrix[0], poly.normal_table
    tops = [max(column) for column in zip(*table)]
    if max(tops) > bound or any(row.count(bound) > 1 for row in table):
        return None
    rays = (tuple(-x for x in ray) for ray, top in zip(fan.rays, tops) if top == bound)
    return sorted(rays, key=lambda g: (max(map(abs, g)), g))


@lru_cache(maxsize=CACHE_SIZE)
def volume_function(val: ToricValuation) -> PiecewisePolynomial:
    """Exact piecewise polynomial x -> vol(-K - x w) on [0, tau].

    Each simplex S of the cached triangulation of P contributes
    dim! vol(S) * (1 - F_S(x)), with F_S the spline distribution function of
    its sorted knots A(w) + <v, w>: one spline per knot tuple, times its
    simplices' summed mass.  The knots are breakpoints, so each piece is the
    degree minus the jumps of every F_S at the breakpoints up to its left end.
    All of it runs in integers on the knot scale y = D x (module docstring).
    """
    n = val.fan.dimension
    poly = val.fan.anticanonical_polytope()
    scale, row = val._values
    low = min(row)
    knots = [s - low for s in row]
    values = sorted(set(knots))
    top = values[-1]
    # the masses per sorted knot tuple; each tuple's jumps below the top, listed once,
    # then summed per breakpoint t over one common denominator: sum_j J_j (y - t)^j
    mass_den, simplices = poly.indexed_triangulation
    masses: dict[tuple[int, ...], int] = {}
    for simplex, mass in simplices:
        key = tuple(sorted(map(knots.__getitem__, simplex)))
        masses[key] = masses.get(key, 0) + mass
    listed = [(t, mass, den, jump) for key, mass in masses.items()
              for t, (den, jump) in spline_cdf_jumps(key).items() if t != top]
    common = math.lcm(*(den for _, _, den, _ in listed))
    sums = {t: [0] * (n + 1) for t in values[:-1]}
    for t, mass, den, jump in listed:
        acc, factor = sums[t], mass * (common // den)
        for j, c in enumerate(jump):
            acc[j] += factor * c
    # every piece over mass_den * common: the degree minus the jumps so far, each
    # expanded in powers of y; in x = y / D the coefficient of x^j is c_j D^j
    degree = sum(mass for _, mass in simplices)
    current = [degree * common] + [0] * n
    powers = [scale**j for j in range(n + 1)]
    pieces = []
    for t in values[:-1]:
        current = list(map(operator.sub, current, taylor_shift(sums[t], t)))
        pieces.append((mass_den * common, list(map(operator.mul, current, powers))))
    vol = PiecewisePolynomial._from_int_form(scale, values, pieces)
    return _checked_volume(vol, Fraction(degree, mass_den), n)


def _checked_volume(vol: PiecewisePolynomial, degree: Fraction, n: int) -> PiecewisePolynomial:
    """vol, once vol(0) = degree, vol(tau) = 0 and vol is C^1 (building the Q = -vol'/n it keeps)."""
    # the grid starts at 0, so vol(0) is the first piece's constant term
    e, first = vol._int_pieces[0]
    den, grid = vol._grid
    if first[0] * degree.denominator != degree.numerator * e or vol._value(grid[-1], den)[0] != 0:
        raise AssertionError("volume function endpoint values are wrong")
    try:
        vol.derivative(-1, n)
    except ValueError:
        raise AssertionError("volume function is not C^1 at a breakpoint") from None
    return vol


def section_count(val: ToricValuation, k: int, j: int) -> int:
    """Finite-level section-count oracle behind the volume limit.

    Counts lattice points u of k*P with vanishing order <u, w> + k*A(w) at
    least j.  With A = -min / D over the valuation's row, the order is
    decided in integers as D <u, w> - k min >= j D.  The lattice points come
    from `RationalPolytope.lattice_points`, a budget-guarded box scan.
    """
    if k < 1:
        raise InvariantViolation("dilation k must be a positive integer")
    if j < 0:
        raise InvariantViolation("order cutoff j must be nonnegative")
    d, values = val._values
    least = k * min(values) + j * d
    return sum(
        1
        for u in val.fan.anticanonical_polytope().lattice_points(scale=k)
        if d * sum(map(operator.mul, u, val.w)) >= least
    )


def integrated_volume(val: ToricValuation) -> Fraction:
    """Exact integral of the volume function over [0, tau]."""
    return volume_function(val).integral()


def beta_invariant(val: ToricValuation) -> Fraction:
    """A(w) * degree - integrated volume; positive for all w on K-stable X."""
    return log_discrepancy(val) * val.fan.degree() - integrated_volume(val)


def restricted_volume(val: ToricValuation) -> PiecewisePolynomial:
    """Q(x) = -(1/n) d/dx vol(x), extended to the closed interval [0, tau].

    Built in integers on vol's breakpoints: vol's piece sum_k (c_k / e) x^k
    gives numerators -k c_k (k >= 1) over n e, reduced once: vol's C^1 check
    built Q, which vol keeps, so no continuity is checked again.
    """
    return volume_function(val).derivative(-1, val.fan.dimension)


def center_codim(val: ToricValuation) -> int:
    """Dimension of the minimal fan cone containing w.

    The vertices attaining min_P <u, w> are the m_sigma of the maximal cones
    sigma containing w (`Fan.vertex_cones`); they span the face of P dual to
    the minimal cone tau containing w.  A ray is tight at m_sigma exactly
    when it is a ray of sigma, since -K is ample, so tau's rays are those
    common to these cones.  The result is the codimension of the valuation's
    center: the center is a point exactly when it is the fan dimension.
    """
    values = val._values[1]
    low = min(values)
    face = [set(cone) for cone, s in zip(val.fan.vertex_cones(), values) if s == low]
    return len(face[0].intersection(*face[1:]))


@lru_cache(maxsize=CACHE_SIZE)
def nef_threshold(val: ToricValuation) -> Fraction:
    """Largest eps with (pullback of -K) - eps*E nef on the extraction model.

    This is A(w) plus the second-smallest distinct value of <v, w> over the
    vertices v of P, (second - min) / D over the row: the first positive
    knot of the volume function.  On a
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
    d, values = val._values
    low, second = sorted(set(values))[:2]
    return Fraction(second - low, d)


# -- bundled profile ----------------------------------------------------------


@dataclass(frozen=True)
class ValuationProfile:
    """All per-valuation invariants, checked at construction: beta is
    A * degree - integral of vol, and must equal -degree <b, w> = -<M, w> / E by
    the barycenter identity, read off `beta_form`, the polytope's `moment_form`."""

    w: LatticeVec
    degree: Fraction
    log_discrepancy: Fraction
    pseff_threshold: Fraction
    nef_threshold: Fraction
    integrated_volume: Fraction
    beta: Fraction = field(init=False)
    volume_fn: PiecewisePolynomial
    restricted_volume_fn: PiecewisePolynomial
    center_codim: int
    is_primitive: bool
    beta_form: tuple[int, tuple[int, ...]] = field(compare=False, repr=False)

    def __post_init__(self):
        if not 0 < self.nef_threshold <= self.pseff_threshold:
            raise AssertionError(f"nef threshold {self.nef_threshold} outside (0, {self.pseff_threshold}]")
        a, v, i = self.log_discrepancy, self.degree, self.integrated_volume  # beta as one Fraction
        num = a.numerator * v.numerator * i.denominator - i.numerator * a.denominator * v.denominator
        object.__setattr__(self, "beta", Fraction(num, a.denominator * v.denominator * i.denominator))
        self._check_beta()

    def _check_beta(self) -> None:
        den, form = self.beta_form
        if -sum(map(operator.mul, form, self.w)) * self.beta.denominator != self.beta.numerator * den:
            raise AssertionError(f"beta of {self.w} breaks the barycenter identity")

    def moved(self, w: LatticeVec) -> "ValuationProfile":
        """This profile at w, an automorphism image of its own w: only beta is checked again."""
        copy = object.__new__(ValuationProfile)
        copy.__dict__.update(self.__dict__, w=w)
        copy._check_beta()
        return copy


def valuation_profile(val: ToricValuation) -> ValuationProfile:
    vol = volume_function(val)
    return _profile(val, vol, vol.integral(), pseff_threshold(val))


def mirrored_profile(val: ToricValuation, other: ValuationProfile) -> ValuationProfile:
    """The profile of val from `other`, that of -w: vol_w(x) = V - vol_{-w}(tau - x)
    (proof at `workbench.orbit_profiles`), so each piece p on [B_i, B_(i+1)] / D,
    T / D = tau, becomes V - p(tau - x) on [T - B_(i+1), T - B_i] / D by an integer
    Taylor shift.  vol passes `volume_function`'s endpoint and C^1 checks."""
    degree, (den, grid) = other.degree, other.volume_fn._grid
    top, pieces = grid[-1], []
    for e, cs in reversed(other.volume_fn._int_pieces):
        d = len(cs) - 1
        shifted = taylor_shift([(-c if k % 2 else c) * den ** (d - k) for k, c in enumerate(cs)], top)
        # V - p(tau - x), over V's denominator times e D^d
        nums = [-degree.denominator * c * den**j for j, c in enumerate(shifted)]
        nums[0] += degree.numerator * e * den**d
        pieces.append((degree.denominator * e * den**d, nums))
    vol = PiecewisePolynomial._from_int_form(den, [top - b for b in reversed(grid)], pieces)
    _checked_volume(vol, degree, val.fan.dimension)
    tau = other.pseff_threshold
    return _profile(val, vol, degree * tau - other.integrated_volume, tau)


def _profile(val: ToricValuation, vol: PiecewisePolynomial, integral: Fraction, tau: Fraction):
    return ValuationProfile(
        w=val.w,
        degree=val.fan.degree(),
        log_discrepancy=log_discrepancy(val),
        pseff_threshold=tau,
        nef_threshold=nef_threshold(val),
        integrated_volume=integral,
        volume_fn=vol,
        restricted_volume_fn=vol.derivative(-1, val.fan.dimension),
        center_codim=center_codim(val),
        is_primitive=val.is_primitive,
        beta_form=val.fan.anticanonical_polytope().moment_form(),
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


def _certificate(name: str, val: ToricValuation, quantities: dict, met: bool, checks) -> CertificateResult:
    """The verdict both certificates share: once the hypothesis is met, eps joins
    the quantities, and "pass" means that checks(eps) and a point center all hold."""
    if not met:
        return CertificateResult(name, "hypothesis not met", quantities)
    eps = nef_threshold(val)
    quantities["eps"] = eps
    checks = {**checks(eps), "center_is_point": center_codim(val) == val.fan.dimension}
    return CertificateResult(name, "pass" if all(checks.values()) else "fail", quantities, checks)


def certify_extremal_volume(val: ToricValuation) -> CertificateResult:
    """Check the certificate forced by (n/(n+1)) tau V <= integral of vol.

    When the hypothesis holds, the inequality must be an equality, the nef
    and pseudo-effective thresholds must agree, the center must be a point,
    and the volume function must be exactly V - (V/tau^n) x^n.  The check is
    scale-invariant, so w is primitivized first.
    """
    val = val.primitivized()
    n = val.fan.dimension
    degree = val.fan.degree()
    tau = pseff_threshold(val)
    total = integrated_volume(val)
    lhs = Fraction(n, n + 1) * tau * degree
    quantities = {"threshold_bound": lhs, "integrated_volume": total, "tau": tau}

    def checks(eps: Fraction) -> dict:
        pure_power = (degree,) + (Fraction(0),) * (n - 1) + (-degree / tau**n,)
        expected_vol = PiecewisePolynomial((Fraction(0), tau), (pure_power,))
        return {
            "inequality_is_equality": lhs == total,
            "tau_equals_eps": tau == eps,
            "volume_is_pure_power": volume_function(val) == expected_vol,
        }

    return _certificate("extremal_volume", val, quantities, lhs <= total, checks)


def certify_equality_case(val: ToricValuation) -> CertificateResult:
    """Check the certificate forced by A >= (n/(n+1)) tau together with beta <= 0.

    When both hypotheses hold the invariants must take the projective-space
    values A = n and tau = eps = n + 1, with a point center.  Conclusions
    are stated for the underlying prime divisor, so w is primitivized first.
    """
    val = val.primitivized()
    n = val.fan.dimension
    a_disc = log_discrepancy(val)
    tau = pseff_threshold(val)
    beta = beta_invariant(val)
    quantities = {"A": a_disc, "tau": tau, "beta": beta}

    def checks(eps: Fraction) -> dict:
        return {"A_equals_n": a_disc == n, "tau_is_n_plus_1": tau == n + 1, "eps_is_n_plus_1": eps == n + 1}

    return _certificate("equality_case", val, quantities, meets_equality_bound(val) and beta <= 0, checks)
