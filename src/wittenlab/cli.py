"""Command-line surface for the spectral shift and index pipeline.

Four subcommands: ssf-1d and ssf-2d emit sampled curves, witten runs
the full index pipeline, and verify executes the invariant suite with
one PASS/FAIL line per identity.  Exit codes are scriptable: 0 for
success, 1 for usage or configuration problems, 2 when a computation
refused to proceed without more resolution, 3 when a verification
identity failed.

All emitted floating-point text is rounded to 12 significant digits,
CSV uses LF endings, and JSON keys are sorted, so identical configs
produce byte-identical outputs.  Each determinant sweep is one
vectorized pass, so there is no thread count to set.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .determinants import NearSingularError, RefinementNeededError
from .invariants import INVARIANTS
from .profiles import PotentialProfile, builtin_profile, c0, profile_from_descriptor
from .ssf import CoverageError, _nu_grid, ssf_2d_curve, ssf_mollified
from .witten import witten_index

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, complex):
        return {"re": float(_fmt(obj.real)), "im": float(_fmt(obj.imag))}
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_json(path: str, payload) -> None:
    _write_text(path, json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n")


def _load_profile(args) -> PotentialProfile:
    if getattr(args, "profile", None) is None:
        return builtin_profile("gaussian", 1.0, 1.0)
    path = args.profile
    try:
        with open(path, "r", encoding="utf-8") as handle:
            descriptor = json.load(handle)
    except FileNotFoundError:
        raise FileNotFoundError(f"profile file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"profile file {path} is not valid JSON: {exc}") from None
    return profile_from_descriptor(descriptor)


def _nu_points(args) -> Optional[int]:
    """The sweep node count, checked; unset (witten, verify) stays None, the library's default."""
    if args.nu_max <= 0.0:
        raise ValueError("--nu-max must be positive")
    if args.nu_points is not None and args.nu_points < 3:
        raise ValueError("--nu-points must be at least 3")
    return args.nu_points


def _sweep_grid(args) -> np.ndarray:
    return _nu_grid(args.nu_max, _nu_points(args), args.nodes)


def cmd_ssf1d(args) -> int:
    profile = _load_profile(args)
    curve = ssf_mollified(profile, args.n, _sweep_grid(args), args.nodes)
    sidecar = {
        "c0": c0(profile),
        "endpoint_magnitude": curve.endpoint_magnitude,
        "kind": curve.kind.value,
        "provenance": dict(curve.provenance),
    }
    if args.format == "csv":
        _write_text(args.out + ".csv", curve.to_csv())
        _write_json(args.out + ".json", sidecar)
        print(f"wrote {args.out}.csv and {args.out}.json ({len(curve.grid)} points)")
    else:
        _write_json(args.out + ".json", {"curve": curve.to_json_dict(), **sidecar})
        print(f"wrote {args.out}.json ({len(curve.grid)} points)")
    print(f"c0 = {_fmt(c0(profile))}, endpoint magnitude = {_fmt(curve.endpoint_magnitude)}")
    return 0


def cmd_ssf2d(args) -> int:
    profile = _load_profile(args)
    if args.lambda_min <= 0.0 or args.lambda_max <= args.lambda_min:
        raise ValueError("need 0 < --lambda-min < --lambda-max")
    if args.lambda_points < 2:
        raise ValueError("--lambda-points must be at least 2")
    lam_grid = np.geomspace(args.lambda_min, args.lambda_max, args.lambda_points)
    if args.constant_input:
        curve = ssf_2d_curve(c0(profile), lam_grid)
    else:
        base = ssf_mollified(profile, args.n, _sweep_grid(args), args.nodes)
        curve = ssf_2d_curve(base, lam_grid, eta_correction=not args.keep_eta_term)
    spread = float(np.max(curve.values) - np.min(curve.values))
    if args.format == "csv":
        _write_text(args.out + ".csv", curve.to_csv())
        _write_json(
            args.out + ".json",
            {"c0": c0(profile), "spread": spread, "provenance": dict(curve.provenance)},
        )
        print(f"wrote {args.out}.csv and {args.out}.json ({len(curve.grid)} points)")
    else:
        _write_json(args.out + ".json", {"curve": curve.to_json_dict(), "c0": c0(profile)})
        print(f"wrote {args.out}.json ({len(curve.grid)} points)")
    print(f"c0 = {_fmt(c0(profile))}, curve spread = {_fmt(spread)}")
    return 0


def cmd_witten(args) -> int:
    profile = _load_profile(args)
    schedule = tuple(int(s) for s in args.n_schedule.split(","))
    report = witten_index(
        profile,
        schedule,
        N=args.nodes,
        nu_max=args.nu_max,
        nu_points=_nu_points(args),
    )
    _write_json(args.out + ".json", report.to_json_dict())
    print(f"{'lambda':>14}  {'Delta_r':>16}")
    for lam, val in zip(report.lambda_samples, report.delta_r_values):
        print(f"{_fmt(lam):>14}  {_fmt(val):>16}")
    print(f"extrapolated index: {_fmt(report.extrapolated_index)}")
    print(f"reference c0:       {_fmt(report.reference_c0)}")
    print(f"abs error:          {_fmt(report.abs_error)}")
    if report.observed_order_n:
        orders = ", ".join(_fmt(o) for o in report.observed_order_n)
        print(f"observed n-orders:  {orders}")
    print(f"low confidence:     {'yes' if report.low_confidence else 'no'}")
    print(f"wrote {args.out}.json")
    return 0


def cmd_verify(args) -> int:
    profile = _load_profile(args)
    nu_points = _nu_points(args)
    all_ok = True
    for name, check in INVARIANTS:
        try:
            ok, detail = check(profile, args.nodes, args.nu_max, nu_points)
        except (RefinementNeededError, NearSingularError, CoverageError, ValueError) as exc:
            ok, detail = False, f"aborted: {exc}"
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<20} {detail}")
    print("verification " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittenlab",
        description="Spectral shift functions and the resolvent-regularized "
        "Witten index of a one-dimensional model operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out=None, nu_points=None):
        p.add_argument("--profile", help="path to a JSON profile descriptor")
        p.add_argument("--nodes", type=int, default=400, help="quadrature nodes (default 400)")
        p.add_argument("--nu-max", type=float, default=12.0, help="sweep half-width (default 12)")
        points_help = f"sweep node count (default {nu_points or 'nodes + 1'})"
        p.add_argument("--nu-points", type=int, default=nu_points, help=points_help)
        if default_out is not None:
            p.add_argument("--out", default=default_out, help="output basename")

    p1 = sub.add_parser("ssf-1d", help="mollified 1-D spectral shift curve")
    common(p1, "ssf1d", 401)
    p1.add_argument("--format", choices=("csv", "json"), default="csv")
    p1.add_argument("--n", type=int, default=8, help="mollifier index (default 8)")
    p1.set_defaults(func=cmd_ssf1d)

    p2 = sub.add_parser("ssf-2d", help="2-D spectral shift curve via the arcsine transform")
    common(p2, "ssf2d", 401)
    p2.add_argument("--format", choices=("csv", "json"), default="csv")
    p2.add_argument("--n", type=int, default=16, help="mollifier index (default 16)")
    p2.add_argument("--lambda-min", type=float, default=0.1)
    p2.add_argument("--lambda-max", type=float, default=100.0)
    p2.add_argument("--lambda-points", type=int, default=61)
    p2.add_argument(
        "--constant-input",
        action="store_true",
        help="bypass the determinant pipeline and transform the constant c0",
    )
    p2.add_argument(
        "--keep-eta-term",
        action="store_true",
        help="transform the raw mollified curve without replacing the trace "
        "term by its limit",
    )
    p2.set_defaults(func=cmd_ssf2d)

    p3 = sub.add_parser("witten", help="resolvent-regularized index pipeline")
    common(p3, "witten")
    p3.add_argument(
        "--n-schedule",
        default="2,4,8,16,32",
        help="comma-separated mollifier schedule (default 2,4,8,16,32)",
    )
    p3.set_defaults(func=cmd_witten)

    p4 = sub.add_parser("verify", help="run the invariant suite, PASS/FAIL per identity")
    common(p4)
    p4.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 1 is this tool's usage code
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except RefinementNeededError as exc:
        interval = f" (interval {exc.interval[0]:g} .. {exc.interval[1]:g})" if exc.interval else ""
        print(f"refinement needed: {exc}{interval}", file=sys.stderr)
        return 2
    except (NearSingularError, CoverageError) as exc:
        print(f"refinement needed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
