"""The built-in verification suite as a harness: determinism and self-test."""

import hashlib
import io
from fractions import Fraction as F

from toricstab import verification
from toricstab.cli import main
from toricstab.verification import run_builtin_suite


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


def test_builtin_suite_reports_mismatch(monkeypatch):
    """Perturbing a computed value must flip the exit code and show the diff."""
    monkeypatch.setattr(
        verification, "beta_invariant", lambda val: F(1), raising=True
    )
    buf = io.StringIO()
    assert run_builtin_suite(buf) == 1
    text = buf.getvalue()
    assert "FAIL criterion 1" in text
    assert "beta: expected 0, got 1" in text


# SHA-256 of `toricstab verify` stdout, recorded before the alpha gate and the
# one-caller solve layers of `lattice` were deleted
VERIFY_DIGEST = "062f1279c8a207742c7f92b9a33c9359aee75402aed60f55a962589973947e9d"


def test_cli_verify_exit_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS criterion") == 8
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGEST
