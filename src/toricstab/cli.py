"""Command-line interface.

Commands: analyze, beta, alpha, volfn, screen, verify.  Exit codes: 0
success, 1 verification mismatch, 2 to 5 for a failure as `errors` states.
Every failure is one line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .alpha import alpha_invariant
from .errors import ParseError, ToricstabError
from .valuations import ToricValuation, valuation_profile
from .verification import run_builtin_suite
from .workbench import (
    analyze,
    check_sample_count,
    export_volume_csv,
    load_fan,
    rat_str,
    report_json,
    screen_json,
    screen_projective_space,
)


def _parse_vector(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in raw.split(","))
    except ValueError as exc:
        raise ParseError(f"bad vector {raw!r}: expected comma-separated integers") from exc


def _write_file(path: str, write) -> None:
    """Call write(fh) on `path` opened for text output; ParseError if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ParseError(f"cannot write {path!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricstab",
        description="Exact K-stability invariants of toric Fano varieties from fan data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full stability report for a fan spec")
    p.add_argument("fanspec")
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("beta", help="invariants of one toric valuation")
    p.add_argument("fanspec")
    p.add_argument("--w", required=True, help='valuation vector, e.g. "-1,0"')

    p = sub.add_parser("alpha", help="alpha invariant with witness divisor")
    p.add_argument("fanspec")

    p = sub.add_parser("volfn", help="volume function of one valuation")
    p.add_argument("fanspec")
    p.add_argument("--w", required=True)
    p.add_argument("--samples", type=int, default=11)
    p.add_argument("--csv", default=None, help="write x,vol,Q samples here")

    p = sub.add_parser("screen", help="equality-case witness screen")
    p.add_argument("fanspec")
    p.add_argument("--radius", type=int, default=4)

    sub.add_parser("verify", help="run the built-in verification suite")
    return parser


def _cmd_analyze(args) -> int:
    report = report_json(analyze(load_fan(args.fanspec), radius=args.radius))
    if args.out:
        _write_file(args.out, lambda fh: fh.write(report))
    else:
        sys.stdout.write(report)
    return 0


def _cmd_beta(args) -> int:
    fan = load_fan(args.fanspec)
    val = ToricValuation(fan, _parse_vector(args.w))
    profile = valuation_profile(val)
    for label, value in (
        ("A", profile.log_discrepancy),
        ("tau", profile.pseff_threshold),
        ("eps", profile.nef_threshold),
        ("S", profile.integrated_volume),
        ("beta", profile.beta),
    ):
        print(f"{label} = {rat_str(value)}")
    print(f"center_codim = {profile.center_codim}")
    if not profile.is_primitive:
        print("note: w is not primitive; invariants scale with its multiplicity")
    return 0


def _cmd_alpha(args) -> int:
    fan = load_fan(args.fanspec)
    result = alpha_invariant(fan)
    print(f"alpha = {rat_str(result.alpha)}")
    print(f"witness_ray_index = {result.witness_ray_index}")
    print(f"witness_divisor = [{', '.join(rat_str(d) for d in result.witness_divisor)}]")
    print(f"ray_thresholds = [{', '.join(rat_str(t) for t in result.ray_thresholds)}]")
    return 0


def _cmd_volfn(args) -> int:
    fan = load_fan(args.fanspec)
    val = ToricValuation(fan, _parse_vector(args.w))
    if args.csv:
        check_sample_count(args.samples)
    profile = valuation_profile(val)
    fn = profile.volume_fn
    print(f"breakpoints = [{', '.join(rat_str(b) for b in fn.breakpoints)}]")
    for i, piece in enumerate(fn.pieces):
        coeffs = ", ".join(rat_str(c) for c in piece)
        print(f"piece[{i}] = [{coeffs}]  (ascending powers of x)")
    if args.csv:
        _write_file(args.csv, lambda fh: export_volume_csv(fan, val.w, args.samples, fh))
        print(f"wrote {args.samples} samples to {args.csv}")
    return 0


def _cmd_screen(args) -> int:
    result = screen_projective_space(load_fan(args.fanspec), radius=args.radius)
    sys.stdout.write(screen_json(result) + "\n")
    return 0


def _merge_vector_options(argv: list[str]) -> list[str]:
    """Rewrite ['--w', '-1,0'] as ['--w=-1,0'] so negative entries parse."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--w" and i + 1 < len(argv):
            out.append(f"--w={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_vector_options(list(argv)))
    handlers = {
        "analyze": _cmd_analyze,
        "beta": _cmd_beta,
        "alpha": _cmd_alpha,
        "volfn": _cmd_volfn,
        "screen": _cmd_screen,
        "verify": lambda a: run_builtin_suite(sys.stdout),
    }
    try:
        return handlers[args.command](args)
    except ToricstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except AssertionError as exc:
        print(f"internal error: {str(exc) or 'assertion failed'}", file=sys.stderr)
        return 5
    except (ArithmeticError, ValueError) as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 5


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
