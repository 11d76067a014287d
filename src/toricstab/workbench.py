"""Orchestration: fan documents, valuation batteries, reports, screening, CSV.

FanSpec documents are JSON objects with fields `name` (string), `dim`
(integer), `rays` (array of integer arrays) and `cones` (array of ray-index
arrays); unknown fields are ignored with a warning.  All rational values in
emitted reports are serialized as exact "p/q" strings; reports are
byte-deterministic for a fixed input.

The projective-space screen refuses a bad radius or an over-budget battery
first.  It then takes the generators of the cones of vectors that meet the
equality-case bound, the negated rays that set the alpha invariant when it
is 1/(n+1) (`equality_bound_rays`); where a cone is larger than a ray, it
tests the battery vectors' integer vertex rows instead.  A witness's A and
tau come from its row and its beta from the barycenter identity: no
valuation is built and no volume function computed.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence, TextIO

from .alpha import AlphaResult, alpha_invariant
from .corpus import builtin_fan_specs
from .errors import BudgetExceeded, InvariantViolation, ParseError
from .fans import Fan
from .lattice import RatVec
from .piecewise import PiecewisePolynomial
from .polytopes import default_oracle_budget
from .valuations import (
    ToricValuation,
    ValuationProfile,
    equality_bound_rays,
    mirrored_profile,
    positive_row,
    restricted_volume,
    row_meets_equality_bound,
    valuation_profile,
    volume_function,
)

KNOWN_FANSPEC_FIELDS = ("name", "dim", "rays", "cones", "metadata")

ASSUMPTION_LEDGER = (
    "dreaminess: torus-invariant valuations on toric varieties are always dreamy "
    "(finitely generated section rings); assumed, not computed",
    "alpha reduction: the alpha invariant infimum is computed over torus-invariant "
    "anticanonical divisors only, which suffices for toric varieties",
    "semistability verdict: quantifies over torus-invariant divisorial valuations; "
    "for toric varieties this is equivalent to the full valuative criterion",
    "verdict provenance: the semistability verdict rests on the exact barycenter "
    "identity beta(w) = -degree * <barycenter, w> (a global statement); the finite "
    "battery is an independent cross-check, not the source of the claim",
)


# -- fan documents -------------------------------------------------------------


def parse_fan_spec(document: dict, name_fallback: str = "") -> Fan:
    """Validate a FanSpec dict and build the fan (all invariants enforced)."""
    if not isinstance(document, dict):
        raise ParseError("fan spec must be a JSON object")
    unknown = [k for k in document if k not in KNOWN_FANSPEC_FIELDS]
    if unknown:
        warnings.warn(f"ignoring unknown fan spec fields: {sorted(unknown)}", stacklevel=2)
    try:
        name = document.get("name", name_fallback)
        dim = document["dim"]
        rays = document["rays"]
        cones = document["cones"]
    except KeyError as exc:
        raise ParseError(f"fan spec is missing required field {exc.args[0]!r}") from exc
    # exact type checks: JSON true/false load as bool, a subclass of int
    if type(dim) is not int:
        raise ParseError("field 'dim' must be an integer")
    if not isinstance(rays, list) or not all(
        isinstance(r, list) and all(type(x) is int for x in r) for r in rays
    ):
        raise ParseError("field 'rays' must be a list of integer vectors")
    if not isinstance(cones, list) or not all(
        isinstance(c, list) and all(type(i) is int for i in c) for c in cones
    ):
        raise ParseError("field 'cones' must be a list of ray index lists")
    return Fan(dim, rays, cones, name=str(name))


def load_fan(path: str) -> Fan:
    """Load and validate a fan from a FanSpec JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read fan spec {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"fan spec {path!r} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc
    return parse_fan_spec(document, name_fallback=path)


@lru_cache(maxsize=None)
def load_builtin_fan(name: str) -> Fan:
    """Validated fan from the built-in corpus (cached: fans are immutable)."""
    specs = builtin_fan_specs()
    if name not in specs:
        raise ParseError(f"unknown builtin fan {name!r}; options: {sorted(specs)}")
    return parse_fan_spec(specs[name])


# -- valuation battery ---------------------------------------------------------


def check_battery_radius(fan: Fan, radius: int) -> None:
    """Refuse a radius below 1, or a (2 radius + 1)^n box over the oracle budget."""
    if radius < 1:
        raise InvariantViolation("battery radius must be at least 1")
    box = (2 * radius + 1) ** fan.dimension
    if box > default_oracle_budget():
        raise BudgetExceeded(f"oracle budget exceeded: radius-{radius} battery scans {box} points")


def battery_vectors(fan: Fan, radius: int) -> list[tuple[int, ...]]:
    """All primitive integer vectors of max-norm <= radius, in shell-lex order.

    Raises before any work when `check_battery_radius` refuses the radius.
    """
    check_battery_radius(fan, radius)
    box = product(range(-radius, radius + 1), repeat=fan.dimension)
    return sorted((w for w in box if math.gcd(*w) == 1), key=lambda w: (max(map(abs, w)), w))


def valuation_battery(fan: Fan, radius: int) -> list[ToricValuation]:
    """The `battery_vectors` as validated valuations, for `analyze` and `verify`."""
    return [ToricValuation(fan, w) for w in battery_vectors(fan, radius)]


# -- projective-space screening --------------------------------------------------


@dataclass(frozen=True)
class ScreenWitness:
    w: tuple[int, ...]
    log_discrepancy: Fraction
    pseff_threshold: Fraction
    beta: Fraction


@dataclass(frozen=True)
class ScreenResult:
    """Search for valuations with A >= (n/(n+1)) tau and beta <= 0.

    On a smooth fan such a witness forces the variety to be projective
    space, so there `recognized_projective_space` asks for n + 1 rays (a
    complete smooth fan with n + 1 rays is P^n's), and a witness without
    them is a VIOLATION; a singular fan can carry a witness without the
    conclusion, and is flagged instead, with None.  The bound is
    decided in integers as A >= n max_P <u, w> (`row_meets_equality_bound`).
    The screen checks the radius and the battery budget first.  Its
    candidates are the generators of the bound's cones in the radius,
    read off the rays that set alpha (`equality_bound_rays`), and each is
    checked again on its own row; where that gives None, they are the
    battery vectors whose row meets the bound.  A and tau are read off the
    row, and beta = -degree <b, w> off the polytope's `moment_form`.
    """

    fan_name: str
    dimension: int
    radius: int
    smooth: bool
    witnesses: tuple[ScreenWitness, ...]
    recognized_projective_space: Optional[bool]
    verdict: str


def screen_projective_space(fan: Fan, radius: int = 4) -> ScreenResult:
    check_battery_radius(fan, radius)
    poly, n = fan.anticanonical_polytope(), fan.dimension
    d = poly.vertex_matrix[0]
    generators = equality_bound_rays(fan)
    if generators is None:
        vectors = battery_vectors(fan, radius)
    else:
        vectors = [g for g in generators if max(map(abs, g)) <= radius]
    witnesses = []
    for w in vectors:
        if row_meets_equality_bound(n, row := positive_row(w, poly.vertex_values(w))):
            den, moment = poly.moment_form()  # beta(w) = -<moment, w> / den
            if (moment_w := sum(map(operator.mul, moment, w))) >= 0:
                a_disc, tau = Fraction(-min(row), d), Fraction(max(row) - min(row), d)
                witnesses.append(ScreenWitness(w, a_disc, tau, Fraction(-moment_w, den)))
        elif generators is not None:
            raise AssertionError(f"cone generator {w} does not meet the equality-case bound")
    smooth, recognized = fan.is_smooth(), None
    if not witnesses:
        verdict = "no witnesses" if smooth else "no witnesses (singular fan)"
    elif not smooth:
        verdict = (
            "singular counterexample: equality-case witness on a singular fan; "
            "the projective-space conclusion is not asserted"
        )
    elif recognized := len(fan.rays) == n + 1:
        verdict = "witnesses on projective space (equality case)"
    else:
        verdict = "VIOLATION: equality-case witness on a smooth fan that is not projective space"
    return ScreenResult(fan.name, n, radius, smooth, tuple(witnesses), recognized, verdict)


# -- stability report ------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    fan_name: str
    dimension: int
    degree: Fraction
    alpha: AlphaResult
    barycenter: RatVec
    battery_radius: int
    profiles: tuple[ValuationProfile, ...]
    toric_divisorial_semistable: bool
    min_beta: Fraction
    min_beta_witness: tuple[int, ...]
    instability_witness: Optional[ScreenWitness]
    strictly_stable_over_toric: bool
    strict_stability_reason: str
    projective_space_screen: ScreenResult
    assumptions: tuple[str, ...]


def orbit_profiles(fan: Fan, battery: Sequence[ToricValuation]) -> tuple[ValuationProfile, ...]:
    """`valuation_profile` of every battery valuation, once per orbit of the
    fan automorphisms, and mirrored (below) for an orbit's negative.

    Every invariant is the same at w and at A w for an automorphism A, so
    the first member of each orbit in battery order gets a profile and the
    others a copy at their own w (`ValuationProfile.moved`) whose beta is
    checked there: a map that is no automorphism raises.  Orbits are closed
    under `Fan.automorphism_generators` over all points, not only the box's.
    A first member whose -w has a profile gets the mirrored one
    (`mirrored_profile`): f = <u, w> + A(w) runs over [0, tau] on P, and
    <u, -w> + A(-w) = tau - f as A(w) + A(-w) = max <u, w> - min <u, w>.
    So tau(-w) = tau, {tau - f >= tau - x} is the complement of {f > x} in
    P, and vol_w(x) = V - vol_{-w}(tau - x); integrating, beta(w) = -beta(-w).
    """
    generators = fan.automorphism_generators()
    members = {val.w for val in battery}
    profiles: dict[tuple[int, ...], ValuationProfile] = {}
    for val in battery:
        if val.w in profiles:
            continue
        minus = profiles.get(tuple(-x for x in val.w))
        profile = valuation_profile(val) if minus is None else mirrored_profile(val, minus)
        orbit = {val.w}  # the group need not preserve the battery's box
        for w in (queue := [val.w]):
            fresh = {tuple(sum(map(operator.mul, row, w)) for row in a) for a in generators} - orbit
            orbit |= fresh
            queue += fresh
        profiles.update({image: profile if image == val.w else profile.moved(image) for image in members & orbit})
    return tuple(profiles[val.w] for val in battery)


def analyze(fan: Fan, radius: int = 4) -> StabilityReport:
    """Full stability report over the primitive valuation battery.

    Profiles are computed once per orbit of the automorphisms, closed under
    the fan's generators, or mirrored from -w's (`orbit_profiles`); each
    beta is checked against the exact barycenter identity, the source of the
    semistability verdict: the battery holds every +-e_i, so its minimum beta
    is negative exactly when b != 0.  The screen is `screen_projective_space`'s.
    """
    poly = fan.anticanonical_polytope()
    barycenter = poly.barycenter()
    battery = valuation_battery(fan, radius)
    profiles = orbit_profiles(fan, battery)
    min_profile = min(profiles, key=lambda p: (p.beta, p.w))
    semistable = all(x == 0 for x in barycenter)
    witness = None
    if not semistable:
        negatives = [p for p in profiles if p.beta < 0]
        cited = min(
            negatives,
            key=lambda p: (max(abs(x) for x in p.w), sum(abs(x) for x in p.w), p.w),
        )
        witness = ScreenWitness(cited.w, cited.log_discrepancy, cited.pseff_threshold, cited.beta)
    reason = (
        "beta(-w) = -beta(w) exactly for every valuation, so the minimum battery "
        "beta is never positive; toric Fano varieties are at best semistable over "
        "torus-invariant valuations"
    )
    return StabilityReport(
        fan_name=fan.name,
        dimension=fan.dimension,
        degree=fan.degree(),
        alpha=alpha_invariant(fan),
        barycenter=barycenter,
        battery_radius=radius,
        profiles=profiles,
        toric_divisorial_semistable=semistable,
        min_beta=min_profile.beta,
        min_beta_witness=min_profile.w,
        instability_witness=witness,
        strictly_stable_over_toric=False,
        strict_stability_reason=reason,
        projective_space_screen=screen_projective_space(fan, radius),
        assumptions=ASSUMPTION_LEDGER,
    )


# -- serialization -----------------------------------------------------------------


def rat_str(x: Fraction | int) -> str:
    """An exact rational as "p/q" in lowest terms (an int n as "n/1")."""
    if type(x) is not Fraction and type(x) is not int:
        raise InvariantViolation(f"{type(x).__name__} {x!r} is not an exact rational")
    return f"{x.numerator}/{x.denominator}"


def _json_lines(items: Sequence[str], indent: int, brackets: str = "[]") -> str:
    """JSON texts as the items of an indent=2 array (or object) `indent` spaces in."""
    if not items:
        return brackets
    pad = "\n" + " " * indent
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _rat_json(x: Fraction | int) -> str:
    return f'"{rat_str(x)}"'  # rat_str yields only digits, "-" and "/"


def _ratio_json(p: int, q: int) -> str:
    """p / q (q > 0) as `_rat_json` writes it, with one gcd."""
    g = math.gcd(p, q)
    return f'"{p // g}/{q // g}"'


def _piecewise_json(fn: PiecewisePolynomial) -> str:
    """A piecewise polynomial's report text, as the value of a member six spaces
    in, written from its integer form."""
    den, grid = fn._grid
    breakpoints = _json_lines([_ratio_json(b, den) for b in grid], 10)
    pieces = _json_lines([_json_lines([_ratio_json(c, e) for c in cs], 12) for e, cs in fn._int_pieces], 10)
    return '{\n        "breakpoints": ' + breakpoints + ',\n        "pieces": ' + pieces + "\n      }"


def _profile_json(p: ValuationProfile, rendered: dict[int, str]) -> str:
    """The profile's report entry; `rendered` holds each piecewise text by object id."""
    for fn in (p.volume_fn, p.restricted_volume_fn):
        if id(fn) not in rendered:
            rendered[id(fn)] = _piecewise_json(fn)
    return _json_lines([
        '"w": ' + _json_lines([str(x) for x in p.w], 8),
        '"log_discrepancy": ' + _rat_json(p.log_discrepancy),
        '"pseff_threshold": ' + _rat_json(p.pseff_threshold),
        '"nef_threshold": ' + _rat_json(p.nef_threshold),
        '"integrated_volume": ' + _rat_json(p.integrated_volume),
        '"beta": ' + _rat_json(p.beta),
        '"center_codim": ' + str(p.center_codim),
        '"primitive": ' + ("true" if p.is_primitive else "false"),
        '"volume_fn": ' + rendered[id(p.volume_fn)],
        '"restricted_volume_fn": ' + rendered[id(p.restricted_volume_fn)],
    ], 6, "{}")


def _witness_json(w: Optional[ScreenWitness], indent: int) -> str:
    """A screen witness (or null) as the value of a member `indent` spaces in."""
    if w is None:
        return "null"
    return _json_lines([
        '"w": ' + _json_lines([str(x) for x in w.w], indent + 4),
        '"log_discrepancy": ' + _rat_json(w.log_discrepancy),
        '"pseff_threshold": ' + _rat_json(w.pseff_threshold),
        '"beta": ' + _rat_json(w.beta),
    ], indent + 2, "{}")


def screen_json(s: ScreenResult, indent: int = 0) -> str:
    """The screen's JSON text as the value of a member `indent` spaces in; at 0,
    the text of `toricstab screen`."""
    return _json_lines([
        '"fan": ' + json.dumps(s.fan_name),
        '"dimension": ' + json.dumps(s.dimension),
        '"radius": ' + json.dumps(s.radius),
        '"smooth": ' + json.dumps(s.smooth),
        '"witnesses": ' + _json_lines([_witness_json(w, indent + 4) for w in s.witnesses], indent + 4),
        '"recognized_projective_space": ' + json.dumps(s.recognized_projective_space),
        '"verdict": ' + json.dumps(s.verdict),
    ], indent + 2, "{}")


def report_json(r: StabilityReport) -> str:
    """The report's JSON text and a newline, in the bytes of `json.dumps(..., indent=2)`, from
    `_json_lines`, `_rat_json`, `_profile_json`, `screen_json` and `json.dumps` of single values."""
    rendered: dict[int, str] = {}
    return _json_lines([
        '"fan": ' + json.dumps(r.fan_name),
        '"dimension": ' + json.dumps(r.dimension),
        '"degree": ' + _rat_json(r.degree),
        '"alpha": ' + _json_lines([
            '"alpha": ' + _rat_json(r.alpha.alpha),
            '"witness_ray_index": ' + json.dumps(r.alpha.witness_ray_index),
            '"witness_divisor": ' + _json_lines([_rat_json(x) for x in r.alpha.witness_divisor], 6),
            '"witness_m": ' + _json_lines([_rat_json(x) for x in r.alpha.witness_m], 6),
            '"ray_thresholds": ' + _json_lines([_rat_json(x) for x in r.alpha.ray_thresholds], 6),
        ], 4, "{}"),
        '"barycenter": ' + _json_lines([_rat_json(x) for x in r.barycenter], 4),
        '"battery_radius": ' + json.dumps(r.battery_radius),
        '"valuations": ' + _json_lines([_profile_json(p, rendered) for p in r.profiles], 4),
        '"verdicts": ' + _json_lines([
            '"toric_divisorial_semistable": ' + json.dumps(r.toric_divisorial_semistable),
            '"min_beta": ' + _rat_json(r.min_beta),
            '"min_beta_witness": ' + _json_lines([str(x) for x in r.min_beta_witness], 6),
            '"instability_witness": ' + _witness_json(r.instability_witness, 4),
            '"strictly_stable_over_toric": ' + json.dumps(r.strictly_stable_over_toric),
            '"strict_stability_reason": ' + json.dumps(r.strict_stability_reason),
            '"projective_space_screen": ' + screen_json(r.projective_space_screen, 4),
        ], 4, "{}"),
        '"assumptions": ' + _json_lines([json.dumps(x) for x in r.assumptions], 4),
    ], 2, "{}") + "\n"


# -- CSV export ----------------------------------------------------------------------


def _decimal_12(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def check_sample_count(samples: int) -> None:
    """Refuse a CSV sample count below 2 or above the oracle budget."""
    if samples < 2:
        raise InvariantViolation("samples must be at least 2")
    if samples > default_oracle_budget():
        raise BudgetExceeded(f"oracle budget exceeded: {samples} volume samples requested")


def export_volume_csv(
    fan: Fan, w: Sequence[int], samples: int, stream: TextIO
) -> None:
    """Write `x,vol,Q` rows at evenly spaced rationals on [0, tau].

    Decimal columns carry 12 significant digits for plotting; the trailing
    exact-fraction columns are authoritative.
    """
    check_sample_count(samples)
    val = ToricValuation(fan, tuple(w))
    vol = volume_function(val)
    q_fn = restricted_volume(val)
    tau = vol.breakpoints[-1]
    stream.write("x,vol,Q,x_exact,vol_exact,Q_exact\n")
    for i in range(samples):
        x = tau * Fraction(i, samples - 1)
        vx, qx = vol(x), q_fn(x)
        stream.write(
            f"{_decimal_12(x)},{_decimal_12(vx)},{_decimal_12(qx)},"
            f"{rat_str(x)},{rat_str(vx)},{rat_str(qx)}\n"
        )
