"""Built-in verification suite: every fixed expectation the artifact must hit.

Each check returns a CheckOutcome; run_builtin_suite prints one PASS/FAIL
line per check and exits nonzero on any mismatch.  Output is deterministic
(exact values only, no timing), so two consecutive runs produce
byte-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TextIO

from .alpha import alpha_invariant
from .corpus import (
    ORACLE_BATTERY_NAMES,
    SMOOTH_TORIC_DEL_PEZZO_NAMES,
    builtin_fan_specs,
)
from .fans import Fan
from .lattice import dot
from .piecewise import midpoint_root_concave
from .valuations import (
    ToricValuation,
    beta_invariant,
    integrated_volume,
    log_discrepancy,
    nef_threshold,
    pseff_threshold,
    restricted_volume,
    section_count,
    volume_function,
)
from .workbench import (
    analyze,
    load_builtin_fan,
    screen_projective_space,
    valuation_battery,
)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str


def _outcome(name: str, mismatches: list[str], detail_ok: str) -> CheckOutcome:
    if mismatches:
        return CheckOutcome(name, False, "; ".join(mismatches))
    return CheckOutcome(name, True, detail_ok)


# -- criterion 1: the singular equality-case example, bit exact -------------------


def check_example_regression() -> CheckOutcome:
    fan = load_builtin_fan("P(1,2,3)")
    val = ToricValuation(fan, (-1, 0))
    vol = volume_function(val)
    checks = (
        ("A", log_discrepancy(val), Fraction(2)),
        ("tau", pseff_threshold(val), Fraction(3)),
        ("eps", nef_threshold(val), Fraction(3)),
        ("vol_breakpoints", vol.breakpoints, (Fraction(0), Fraction(3))),
        ("vol_pieces", vol.pieces, ((Fraction(6), Fraction(0), Fraction(-2, 3)),)),
        ("S", integrated_volume(val), Fraction(12)),
        ("beta", beta_invariant(val), Fraction(0)),
        ("degree", fan.degree(), Fraction(6)),
        ("alpha", alpha_invariant(fan).alpha, Fraction(1, 6)),
    )
    mismatches = [f"{key}: expected {want}, got {got}" for key, got, want in checks if got != want]
    return _outcome(
        "example_regression",
        mismatches,
        "P(1,2,3), w=(-1,0): A=2 tau=eps=3 vol=6-(2/3)x^2 S=12 beta=0 degree=6 alpha=1/6",
    )


# -- criterion 2: projective spaces n=2..5 ---------------------------------------


def check_projective_space_equality() -> CheckOutcome:
    mismatches = []
    for n in range(2, 6):
        fan = load_builtin_fan(f"P{n}")
        val = ToricValuation(fan, (1,) * n)
        values = (
            log_discrepancy(val),
            pseff_threshold(val),
            nef_threshold(val),
            beta_invariant(val),
        )
        expected = (Fraction(n), Fraction(n + 1), Fraction(n + 1), Fraction(0))
        if values != expected:
            mismatches.append(f"P{n}: expected (A,tau,eps,beta)={expected}, got {values}")
        screen = screen_projective_space(fan, radius=1)
        if not screen.recognized_projective_space or not any(
            w.w == (1,) * n for w in screen.witnesses
        ):
            mismatches.append(f"P{n}: screen failed to recognize the equality case")
    return _outcome(
        "projective_space_equality",
        mismatches,
        "P2..P5 with w=(1,..,1): A=n, tau=eps=n+1, beta=0, fan recognized",
    )


# -- criterion 3: contrapositive screen over the smooth del Pezzo surfaces ---------


def check_del_pezzo_screen() -> CheckOutcome:
    mismatches = []
    for name in SMOOTH_TORIC_DEL_PEZZO_NAMES:
        screen = screen_projective_space(load_builtin_fan(name), radius=4)
        if name == "P2":
            if not screen.witnesses or not screen.recognized_projective_space:
                mismatches.append("P2: expected an equality-case witness")
        elif screen.witnesses:
            found = [w.w for w in screen.witnesses]
            mismatches.append(f"{name}: unexpected witnesses {found}")
    singular = screen_projective_space(load_builtin_fan("P(1,2,3)"), radius=4)
    if not singular.witnesses:
        mismatches.append("P(1,2,3): expected a witness")
    if not singular.verdict.startswith("singular counterexample"):
        mismatches.append(f"P(1,2,3): verdict {singular.verdict!r}")
    return _outcome(
        "del_pezzo_screen",
        mismatches,
        "radius-4 witnesses only on P2 among smooth surfaces; P(1,2,3) flagged "
        "singular counterexample",
    )


# -- criterion 4: barycenter oracle equivalence ------------------------------------


def check_barycenter_oracle() -> CheckOutcome:
    mismatches = []
    for name in ORACLE_BATTERY_NAMES:
        fan = load_builtin_fan(name)
        degree = fan.degree()
        barycenter = fan.anticanonical_polytope().barycenter()
        betas = {}
        for val in valuation_battery(fan, radius=3):
            by_integration = beta_invariant(val)
            by_barycenter = -degree * dot(barycenter, val.w)
            if by_integration != by_barycenter:
                mismatches.append(
                    f"{name} w={val.w}: integration {by_integration} != "
                    f"barycenter {by_barycenter}"
                )
            betas[val.w] = by_integration
        for w, beta in betas.items():
            neg = tuple(-x for x in w)
            if betas[neg] != -beta:
                mismatches.append(f"{name}: beta({neg}) != -beta({w})")
            doubled = beta_invariant(ToricValuation(fan, tuple(2 * x for x in w)))
            if doubled != 2 * beta:
                mismatches.append(f"{name}: beta(2*{w}) = {doubled} != 2*{beta}")
    return _outcome(
        "barycenter_oracle",
        mismatches[:8],
        "10 fans, radius 3: beta by integration == -degree*<barycenter, w>, "
        "antisymmetric and 2-homogeneous",
    )


# -- criterion 5: lattice-count limit ----------------------------------------------


def check_lattice_count_limit() -> CheckOutcome:
    fan = load_builtin_fan("P(1,2,3)")
    val = ToricValuation(fan, (-1, 0))
    mismatches = []
    for x in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        exact = 6 - Fraction(2, 3) * x * x
        errors = []
        for k in (10, 20, 30):
            j = math.ceil(k * x)
            approx = Fraction(2 * section_count(val, k, j), k * k)
            errors.append(abs(approx - exact) / exact)
        if errors[-1] > Fraction(7, 100):
            mismatches.append(f"x={x}: error at k=30 is {errors[-1]} > 7%")
        if not errors[0] >= errors[1] >= errors[2]:
            mismatches.append(f"x={x}: error sequence {errors} not non-increasing")
    return _outcome(
        "lattice_count_limit",
        mismatches,
        "normalized section counts within 7% of 6-(2/3)x^2 at k=30, errors "
        "non-increasing over k=10,20,30",
    )


# -- criterion 6: concavity of the restricted volume root ---------------------------


def concavity_battery(fan: Fan) -> list[ToricValuation]:
    """Profiles sampled by the concavity suite: full radius-1 battery up to
    dimension 3; above, the first member of each coordinate-permutation
    orbit in the battery's lexicographic order."""
    battery = valuation_battery(fan, radius=1)
    if fan.dimension <= 3:
        return battery
    reps = {}
    for val in battery:
        reps.setdefault(tuple(sorted(val.w)), val)
    return list(reps.values())


def check_concavity() -> CheckOutcome:
    mismatches = []
    total = 0
    for name in builtin_fan_specs():
        fan = load_builtin_fan(name)
        n = fan.dimension
        if n < 2:
            continue
        for val in concavity_battery(fan):
            q_fn = restricted_volume(val)
            tau = q_fn.breakpoints[-1]
            points = [Fraction(i * tau.numerator, 101 * tau.denominator) for i in range(102)]
            for i in range(1, 101):
                total += 1
                if not midpoint_root_concave(q_fn, n - 1, points[i - 1], points[i + 1]):
                    mismatches.append(
                        f"{name} w={val.w}: concavity fails at midpoint {points[i]}"
                    )
            if not q_fn._certified.get(n - 1):  # the sweep's certificate: Q > 0 inside [0, tau]
                for x in points:
                    value = q_fn(x)
                    if value < 0 or (value == 0 and 0 < x < tau):
                        mismatches.append(f"{name} w={val.w}: Q({x}) = {value}")
    return _outcome(
        "concavity",
        mismatches[:8],
        f"Q^(1/(n-1)) midpoint-concave at {total} sample triples, zero violations",
    )


# -- criterion 7: alpha cross-checks -------------------------------------------------


def check_alpha() -> CheckOutcome:
    mismatches = []
    expected = {
        "P1": Fraction(1, 2),
        "P2": Fraction(1, 3),
        "P3": Fraction(1, 4),
        "P4": Fraction(1, 5),
        "P5": Fraction(1, 6),
        "P1xP1": Fraction(1, 2),
        "P(1,2,3)": Fraction(1, 6),
    }
    for name in builtin_fan_specs():
        fan = load_builtin_fan(name)
        result = alpha_invariant(fan)
        if name in expected and result.alpha != expected[name]:
            mismatches.append(
                f"{name}: alpha expected {expected[name]}, got {result.alpha}"
            )
        worst = max(
            pseff_threshold(ToricValuation(fan, ray)) for ray in fan.rays
        )
        if result.alpha != 1 / worst:
            mismatches.append(f"{name}: alpha != 1/max_j tau(v_j)")
        divisor = tuple(1 + dot(result.witness_m, ray) for ray in fan.rays)
        if divisor != result.witness_divisor or any(d < 0 for d in divisor):
            mismatches.append(f"{name}: witness divisor invalid")
        if result.alpha * max(divisor) != 1:
            mismatches.append(f"{name}: witness extremal coefficient != 1/alpha")
    return _outcome(
        "alpha_cross_checks",
        mismatches,
        "alpha(P1)=1/2, alpha(P(1,2,3))=1/6, identity alpha = 1/max_j tau(v_j) "
        "and witness validity on the whole corpus",
    )


# -- criterion 8: scope statement -----------------------------------------------------


def check_scope_statement() -> CheckOutcome:
    report = analyze(load_builtin_fan("P2"), radius=1)
    mismatches = []
    if not any("dreaminess" in a for a in report.assumptions):
        mismatches.append("report does not state the dreaminess assumption")
    if not any("alpha reduction" in a for a in report.assumptions):
        mismatches.append("report does not state the alpha reduction")
    if not any("barycenter identity" in a for a in report.assumptions):
        mismatches.append("report does not state the verdict provenance")
    return _outcome(
        "scope_statement",
        mismatches,
        "non-toric Fano manifolds (e.g. degree n+1 hypersurfaces with alpha "
        "n/(n+1)) are outside this artifact's input domain; they are covered "
        "only by the property suites on the toric corpus, a deliberate "
        "substitution stated in every report",
    )


ALL_CHECKS: tuple[tuple[str, Callable[[], CheckOutcome]], ...] = (
    ("1", check_example_regression),
    ("2", check_projective_space_equality),
    ("3", check_del_pezzo_screen),
    ("4", check_barycenter_oracle),
    ("5", check_lattice_count_limit),
    ("6", check_concavity),
    ("7", check_alpha),
    ("8", check_scope_statement),
)


def run_builtin_suite(stream: TextIO) -> int:
    """Run every check, print one PASS/FAIL line each, return 0 or 1."""
    failures = 0
    for number, check in ALL_CHECKS:
        outcome = check()
        status = "PASS" if outcome.ok else "FAIL"
        stream.write(f"{status} criterion {number} [{outcome.name}]: {outcome.detail}\n")
        if not outcome.ok:
            failures += 1
    stream.write(
        "verification: all criteria passed\n"
        if failures == 0
        else f"verification: {failures} criteria FAILED\n"
    )
    return 0 if failures == 0 else 1
