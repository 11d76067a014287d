"""The built-in verification suite as a harness: determinism and self-test."""

import hashlib
import io
import sys
from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from toricstab import verification
from toricstab.cli import main
from toricstab.verification import run_builtin_suite
from toricstab.workbench import ScreenWitness


def test_builtin_suite_passes_and_is_deterministic():
    first = io.StringIO()
    assert run_builtin_suite(first) == 0
    second = io.StringIO()
    assert run_builtin_suite(second) == 0
    assert first.getvalue() == second.getvalue()
    lines = first.getvalue().splitlines()
    assert len(lines) == 9  # one line per criterion plus the summary
    assert all(line.startswith("PASS criterion") for line in lines[:8])
    assert lines[-1] == "verification: all criteria passed"


def _inverted_screen(real, *args, **kwargs):
    """The screen with a witness exactly where it finds none, and no verdict."""
    screen = real(*args, **kwargs)
    fake = ScreenWitness((1,) * screen.dimension, F(1), F(1), F(0))
    return replace(screen, witnesses=() if screen.witnesses else (fake,), verdict="")


def _doubled_alpha(real, fan):
    """alpha doubled and the witness divisor rotated: no AlphaResult can hold them."""
    result = real(fan)
    rotated = result.witness_divisor[1:] + result.witness_divisor[:1]
    return SimpleNamespace(alpha=2 * result.alpha, witness_m=result.witness_m, witness_divisor=rotated)


def _beta_one(real, val):
    return F(1)


# (criterion, a name it imports, wrong(real, *args), every kind of line in its FAIL detail)
MISMATCHES = [
    ("1", "beta_invariant", _beta_one, ["beta: expected 0, got 1"]),
    ("2", "beta_invariant", _beta_one, ["P2: expected (A,tau,eps,beta)"]),
    ("2", "screen_projective_space", _inverted_screen, ["P2: screen failed to recognize the equality case"]),
    ("3", "screen_projective_space", _inverted_screen, [
        "P2: expected an equality-case witness", "P1xP1: unexpected witnesses [(1, 1)]",
        "P(1,2,3): expected a witness", "P(1,2,3): verdict ''",
    ]),
    ("4", "beta_invariant", _beta_one, [
        "P1 w=(-1,): integration 1 != barycenter 0", "P1: beta((1,)) != -beta((-1,))",
        "P1: beta(2*(-1,)) = 1 != 2*1",
    ]),
    ("5", "section_count", lambda real, val, k, j: real(val, k, j) + k * k * (k == 30), [
        "x=1/2: error at k=30 is", "x=1/2: error sequence",
    ]),
    ("6", "midpoint_root_concave", lambda real, *args: False, ["concavity fails at midpoint"]),
    ("7", "alpha_invariant", _doubled_alpha, [
        "P1: alpha expected 1/2, got 1", "P1: alpha != 1/max_j tau(v_j)", "P1: witness divisor invalid",
        "P1: witness extremal coefficient != 1/alpha",
    ]),
    ("8", "analyze", lambda real, *args, **kwargs: replace(real(*args, **kwargs), assumptions=()), [
        "the dreaminess assumption", "the alpha reduction", "the verdict provenance",
    ]),
]


@pytest.mark.parametrize(
    "number, name, wrong, messages", MISMATCHES, ids=[f"{k}-{name}" for k, name, *_ in MISMATCHES]
)
def test_builtin_suite_reports_mismatch(monkeypatch, number, name, wrong, messages):
    """A wrong value of a name that criterion k imports, seen by criterion k
    only, fails criterion k alone, shows each diff and flips the exit code."""
    check, real = dict(verification.ALL_CHECKS)[number], getattr(verification, name)

    def patched(*args, **kwargs):
        if sys._getframe(1).f_code is check.__code__:
            return wrong(real, *args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(verification, name, patched, raising=True)
    buf = io.StringIO()
    assert run_builtin_suite(buf) == 1
    lines = buf.getvalue().splitlines()
    assert [line.split(" [")[0] for line in lines if line.startswith("FAIL")] == [f"FAIL criterion {number}"]
    assert all(message in lines[int(number) - 1] for message in messages), lines[int(number) - 1]
    assert lines[-1] == "verification: 1 criteria FAILED"


def test_concavity_reads_q_values_only_where_the_certificate_fails(monkeypatch):
    """Criterion 6 reads no Q value for a Q the sweep's certificate proves
    positive inside [0, tau]; with the certificate refused it reads all 102
    sample values of each of its 150 Q.  The outcome is the same PASS."""
    from toricstab.piecewise import PiecewisePolynomial
    from toricstab.valuations import volume_function

    reads = []
    value = PiecewisePolynomial.__call__

    def counted(fn, x):
        reads.append(x)
        return value(fn, x)

    monkeypatch.setattr(PiecewisePolynomial, "__call__", counted)
    outcomes = []
    for refused in (False, True):
        if refused:
            monkeypatch.setattr("toricstab.piecewise.root_concave_certificate", lambda fn, m: False)
        volume_function.cache_clear()  # each Q is kept on its vol with its verdicts
        del reads[:]
        outcomes.append(verification.check_concavity())
        outcomes.append(len(reads))
    volume_function.cache_clear()
    passed = verification.CheckOutcome(
        "concavity", True, "Q^(1/(n-1)) midpoint-concave at 15000 sample triples, zero violations"
    )
    assert outcomes == [passed, 0, passed, 150 * 102]


def test_concavity_reports_a_q_that_vanishes_inside(monkeypatch):
    """Q = 0 on [0, 1] passes every sweep triple (0 >= 0) but not the
    certificate, so the nonnegativity pass runs and reports its zeros
    inside the domain, from the first valuation of P2 on."""
    from toricstab.piecewise import PiecewisePolynomial

    monkeypatch.setattr(verification, "restricted_volume", lambda val: PiecewisePolynomial((F(0), F(1)), ((F(0),),)))
    outcome = verification.check_concavity()
    assert not outcome.ok
    assert outcome.detail == "; ".join(f"P2 w=(-1, -1): Q({i}/101) = 0" for i in range(1, 9))


# SHA-256 of `toricstab verify` stdout, recorded before the alpha gate and the
# one-caller solve layers of `lattice` were deleted
VERIFY_DIGEST = "062f1279c8a207742c7f92b9a33c9359aee75402aed60f55a962589973947e9d"


def test_cli_verify_exit_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS criterion") == 8
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGEST
