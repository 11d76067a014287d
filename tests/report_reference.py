"""The report as a plain dict, kept as the reference for `report_json`.

`workbench.report_json` writes the valuations array itself and renders
each shared piecewise polynomial once; the text it must equal is
`reference_json(r)`, the dict below dumped by `json.dumps(..., indent=2)`.
It writes its own "p/q" strings and screen block, sharing no serializer
with `workbench`.
"""

import json
from fractions import Fraction


def rat_str(x) -> str:
    """An exact rational as "p/q" in lowest terms."""
    assert type(x) is Fraction or type(x) is int, f"{x!r} is not an exact rational"
    return f"{x.numerator}/{x.denominator}"


def _piecewise_dict(fn) -> dict:
    return {
        "breakpoints": [rat_str(b) for b in fn.breakpoints],
        "pieces": [[rat_str(c) for c in piece] for piece in fn.pieces],
    }


def _profile_dict(p) -> dict:
    return {
        "w": list(p.w),
        "log_discrepancy": rat_str(p.log_discrepancy),
        "pseff_threshold": rat_str(p.pseff_threshold),
        "nef_threshold": rat_str(p.nef_threshold),
        "integrated_volume": rat_str(p.integrated_volume),
        "beta": rat_str(p.beta),
        "center_codim": p.center_codim,
        "primitive": p.is_primitive,
        "volume_fn": _piecewise_dict(p.volume_fn),
        "restricted_volume_fn": _piecewise_dict(p.restricted_volume_fn),
    }


def _witness_dict(w):
    if w is None:
        return None
    return {
        "w": list(w.w),
        "log_discrepancy": rat_str(w.log_discrepancy),
        "pseff_threshold": rat_str(w.pseff_threshold),
        "beta": rat_str(w.beta),
    }


def _screen_dict(s) -> dict:
    return {
        "fan": s.fan_name,
        "dimension": s.dimension,
        "radius": s.radius,
        "smooth": s.smooth,
        "witnesses": [_witness_dict(w) for w in s.witnesses],
        "recognized_projective_space": s.recognized_projective_space,
        "verdict": s.verdict,
    }


def report_dict(r) -> dict:
    return {
        "fan": r.fan_name,
        "dimension": r.dimension,
        "degree": rat_str(r.degree),
        "alpha": {
            "alpha": rat_str(r.alpha.alpha),
            "witness_ray_index": r.alpha.witness_ray_index,
            "witness_divisor": [rat_str(d) for d in r.alpha.witness_divisor],
            "witness_m": [rat_str(x) for x in r.alpha.witness_m],
            "ray_thresholds": [rat_str(t) for t in r.alpha.ray_thresholds],
        },
        "barycenter": [rat_str(x) for x in r.barycenter],
        "battery_radius": r.battery_radius,
        "valuations": [_profile_dict(p) for p in r.profiles],
        "verdicts": {
            "toric_divisorial_semistable": r.toric_divisorial_semistable,
            "min_beta": rat_str(r.min_beta),
            "min_beta_witness": list(r.min_beta_witness),
            "instability_witness": _witness_dict(r.instability_witness),
            "strictly_stable_over_toric": r.strictly_stable_over_toric,
            "strict_stability_reason": r.strict_stability_reason,
            "projective_space_screen": _screen_dict(r.projective_space_screen),
        },
        "assumptions": list(r.assumptions),
    }


def reference_json(r) -> str:
    return json.dumps(report_dict(r), indent=2) + "\n"
