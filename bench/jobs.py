"""Job runners and the exact output checks applied to each job's results.

A job calls only toricstab's public functions, looked up on their modules at
call time so that tracing wrappers take effect.  Checks run after the job's
timer stops and compare its results with the oracles of oracles.py; they
read result objects, never the report text, so report layout changes do
not affect them.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from oracles import FanOracle


class Program:
    """The toricstab modules a job calls into (imported on construction)."""

    def __init__(self):
        self.workbench = importlib.import_module("toricstab.workbench")
        self.valuations = importlib.import_module("toricstab.valuations")
        self.piecewise = importlib.import_module("toricstab.piecewise")
        self.alpha = importlib.import_module("toricstab.alpha")


SWEEP_POINTS = 101  # criterion 6: Q sampled at tau * i / 101, 100 midpoint checks


def run_analyze(program: Program, spec: dict, radius: int):
    """toricstab analyze: parse, full stability report, JSON serialization."""
    wb = program.workbench
    report = wb.analyze(wb.parse_fan_spec(spec), radius)
    wb.report_json(report)
    return report


def run_profile(program: Program, spec: dict, w: tuple[int, ...]):
    """Per-valuation invariants, both certificates and the concavity sweep."""
    va, pw = program.valuations, program.piecewise
    fan = program.workbench.parse_fan_spec(spec)
    val = va.ToricValuation(fan, w)
    profile = va.valuation_profile(val)
    certificates = (va.certify_extremal_volume(val), va.certify_equality_case(val))
    q = profile.restricted_volume_fn
    tau = q.breakpoints[-1]
    points = [tau * Fraction(i, SWEEP_POINTS) for i in range(SWEEP_POINTS + 1)]
    sweep = [
        pw.midpoint_root_concave(q, fan.dimension - 1, points[i - 1], points[i + 1])
        for i in range(1, SWEEP_POINTS)
    ]
    return profile, certificates, sweep


@dataclass(frozen=True)
class ScreenOutcome:
    degree: Fraction
    barycenter: tuple
    semistable: bool
    alpha: object
    screen: object


def run_screen(program: Program, spec: dict, radius: int) -> ScreenOutcome:
    """Validation, polytope, semistability verdict, alpha, projective-space screen."""
    fan = program.workbench.parse_fan_spec(spec)
    polytope = fan.anticanonical_polytope()
    degree = fan.degree()
    barycenter = polytope.barycenter()
    alpha = program.alpha.alpha_invariant(fan)
    screen = program.workbench.screen_projective_space(fan, radius)
    return ScreenOutcome(degree, barycenter, all(x == 0 for x in barycenter), alpha, screen)


class Checks:
    """Counts every assertion by check name and keeps the failed ones."""

    NAMES = (
        "degree_oracle", "barycenter_oracle", "alpha_oracle", "semistable_verdict",
        "battery_size", "beta_identity", "vol0_degree", "screen_witnesses",
        "pinned_p123", "pinned_pn", "certificates", "concavity",
    )

    def __init__(self):
        self.counts: Counter = Counter({name: 0 for name in self.NAMES})
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, context: str) -> bool:
        self.counts[name] += 1
        if not ok:
            self.failures.append(f"{context}: {name}")
        return ok

    # -- per workload ------------------------------------------------------------

    def analyze(self, ctx: str, result, oracle: FanOracle, projective: bool,
                name: str, battery: int) -> bool:
        report = result
        n = oracle.dim
        ok = self._polytope(ctx, report.degree, report.barycenter, report.alpha.alpha, oracle)
        ok &= self.expect("semistable_verdict", report.toric_divisorial_semistable
                          == all(x == 0 for x in oracle.barycenter), ctx)
        ok &= self.expect("battery_size", len(report.profiles) == battery, ctx)
        by_w = {}
        for p in report.profiles:
            by_w[p.w] = p
            ok &= self.expect("beta_identity", p.beta == oracle.beta(p.w), f"{ctx} w={p.w}")
            ok &= self.expect("vol0_degree", p.volume_fn(0) == oracle.degree, f"{ctx} w={p.w}")
        ok &= self._screen(ctx, report.projective_space_screen, oracle, projective, name)
        if name == "P(1,2,3)":
            p = by_w.get((-1, 0))
            ok &= self.expect("pinned_p123", p is not None and (
                p.volume_fn.breakpoints == (0, 3)
                and p.volume_fn.pieces == ((6, 0, Fraction(-2, 3)),)
                and p.beta == 0
            ), ctx)
        if projective:
            p = by_w.get((1,) * n)
            ok &= self.expect("pinned_pn", p is not None and (
                p.log_discrepancy == n and p.pseff_threshold == n + 1
                and p.nef_threshold == n + 1
            ), ctx)
        return ok

    def profile(self, ctx: str, result, oracle: FanOracle, w, equality: bool) -> bool:
        profile, certificates, sweep = result
        n = oracle.dim
        ok = self.expect("beta_identity", profile.beta == oracle.beta(w), ctx)
        ok &= self.expect("vol0_degree", profile.volume_fn(0) == oracle.degree, ctx)
        ok &= self.expect("certificates", all(c.status != "fail" for c in certificates), ctx)
        for i, verdict in enumerate(sweep):
            ok &= self.expect("concavity", verdict is True, f"{ctx} midpoint {i + 1}")
        if equality:
            ok &= self.expect("pinned_pn", (
                profile.log_discrepancy == n and profile.pseff_threshold == n + 1
                and profile.nef_threshold == n + 1
                and all(c.status == "pass" for c in certificates)
            ), ctx)
        return ok

    def screen(self, ctx: str, result: ScreenOutcome, oracle: FanOracle,
               projective: bool, name: str) -> bool:
        ok = self._polytope(ctx, result.degree, result.barycenter, result.alpha.alpha, oracle)
        ok &= self.expect("semistable_verdict", result.semistable
                          == all(x == 0 for x in oracle.barycenter), ctx)
        ok &= self._screen(ctx, result.screen, oracle, projective, name)
        return ok

    # -- shared ------------------------------------------------------------------

    def _polytope(self, ctx, degree, barycenter, alpha, oracle: FanOracle) -> bool:
        ok = self.expect("degree_oracle", degree == oracle.degree, ctx)
        ok &= self.expect("barycenter_oracle", tuple(barycenter) == oracle.barycenter, ctx)
        ok &= self.expect("alpha_oracle", alpha == oracle.alpha, ctx)
        return ok

    def _screen(self, ctx, screen, oracle: FanOracle, projective: bool, name: str) -> bool:
        """Witnesses only on P^n among smooth fans, and there (1,...,1) with A=n, tau=n+1."""
        n = oracle.dim
        ok = True
        for wit in screen.witnesses:
            ok &= self.expect("beta_identity", wit.beta == oracle.beta(wit.w), f"{ctx} w={wit.w}")
        found = {wit.w: wit for wit in screen.witnesses}
        if oracle.smooth and projective:
            ones = found.get((1,) * n)
            ok &= self.expect("screen_witnesses", (
                screen.recognized_projective_space is True and ones is not None
            ), ctx)
            if ones is not None:
                ok &= self.expect("pinned_pn", (
                    ones.log_discrepancy == n and ones.pseff_threshold == n + 1
                ), ctx)
        elif oracle.smooth:
            ok &= self.expect("screen_witnesses", not screen.witnesses, ctx)
        elif name == "P(1,2,3)":
            ok &= self.expect("screen_witnesses", (-1, 0) in found, ctx)
        return ok
