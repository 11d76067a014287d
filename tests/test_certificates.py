"""Structural certificates forced by the extremal threshold inequalities."""

from fractions import Fraction as F

from toricstab import valuations
from toricstab.valuations import (
    ToricValuation,
    certify_equality_case,
    certify_extremal_volume,
)
from toricstab.workbench import load_builtin_fan


def test_extremal_volume_projective_spaces():
    for n in range(1, 6):
        fan = load_builtin_fan(f"P{n}")
        result = certify_extremal_volume(ToricValuation(fan, (1,) * n))
        assert result.status == "pass"
        assert result.quantities["threshold_bound"] == result.quantities[
            "integrated_volume"
        ]
        assert all(result.checks.values())


def test_extremal_volume_weighted_plane(p123):
    result = certify_extremal_volume(ToricValuation(p123, (-1, 0)))
    assert result.status == "pass"
    # hypothesis holds with equality: (2/3)*3*6 = 12 = S
    assert result.quantities["threshold_bound"] == 12
    assert result.quantities["integrated_volume"] == 12
    assert result.quantities["eps"] == 3
    assert result.checks["volume_is_pure_power"]


def test_extremal_volume_hypothesis_not_met(square):
    result = certify_extremal_volume(ToricValuation(square, (1, 0)))
    assert result.status == "hypothesis not met"
    # frozen by hand: (2/3)*tau*V = 32/3 > S = 8
    assert result.quantities["threshold_bound"] == F(32, 3)
    assert result.quantities["integrated_volume"] == 8


def test_extremal_volume_scale_invariant(p123):
    doubled = certify_extremal_volume(ToricValuation(p123, (-2, 0)))
    assert doubled.status == "pass"


def test_equality_case_projective_spaces():
    for n in range(1, 6):
        fan = load_builtin_fan(f"P{n}")
        result = certify_equality_case(ToricValuation(fan, (1,) * n))
        assert result.status == "pass"
        assert result.quantities["A"] == n
        assert result.quantities["tau"] == n + 1
        assert result.quantities["eps"] == n + 1


def test_equality_case_weighted_plane(p123):
    """The singular example also meets the projective-space numerics."""
    result = certify_equality_case(ToricValuation(p123, (-1, 0)))
    assert result.status == "pass"
    assert result.quantities == {
        "A": F(2),
        "tau": F(3),
        "beta": F(0),
        "eps": F(3),
    }


def test_equality_case_hypothesis_not_met(square):
    result = certify_equality_case(ToricValuation(square, (1, 1)))
    assert result.status == "hypothesis not met"
    # A = 2 < (2/3) * 4 = 8/3
    assert result.quantities["A"] == 2
    assert result.quantities["tau"] == 4


def test_equality_case_primitivizes(p123):
    result = certify_equality_case(ToricValuation(p123, (-3, 0)))
    assert result.status == "pass"
    assert result.quantities["A"] == 2  # conclusions stated for the prime divisor


def test_certificates_battery_never_fail(corpus_fans):
    """Wherever hypotheses hold on the corpus, conclusions follow (no "fail")."""
    from toricstab.workbench import valuation_battery

    for fan in corpus_fans:
        if fan.dimension > 3:
            continue
        for v in valuation_battery(fan, 1):
            for certify in (certify_extremal_volume, certify_equality_case):
                assert certify(v).status in ("pass", "hypothesis not met"), (
                    fan.name,
                    v.w,
                    certify.__name__,
                )


def test_unmet_hypothesis_gives_no_eps_and_no_checks(square):
    for certify, w in ((certify_extremal_volume, (1, 0)), (certify_equality_case, (1, 1))):
        result = certify(ToricValuation(square, w))
        assert result.status == "hypothesis not met", certify.__name__
        assert result.checks == {}, certify.__name__
        assert "eps" not in result.quantities, certify.__name__


def test_certificates_fail_when_the_center_is_not_a_point(monkeypatch, p2, p123):
    """With center_codim patched to n - 1, each certificate whose hypothesis
    holds fails on center_is_point alone, and still records eps."""
    monkeypatch.setattr(valuations, "center_codim", lambda val: val.fan.dimension - 1)
    for certify, val in (
        (certify_equality_case, ToricValuation(p2, (1, 1))),
        (certify_extremal_volume, ToricValuation(p123, (-1, 0))),
    ):
        result = certify(val)
        assert result.status == "fail", certify.__name__
        assert result.checks["center_is_point"] is False, certify.__name__
        assert all(ok for name, ok in result.checks.items() if name != "center_is_point"), result.checks
        assert "eps" in result.quantities, certify.__name__
