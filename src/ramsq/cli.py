"""Command-line interface.

Subcommands emit deterministic CSV datasets (stdout or ``--out PATH``
plus ``PATH.manifest.json``) or run the validation suite.  Exit codes:
0 success, 1 failed validation or scan integrity, 2 parameter errors
and output files that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .core import ParameterError
from .datasets import (
    FIG2_DEFAULTS,
    FIG3_DEFAULTS,
    FIG4_DEFAULTS,
    FIGXR_DEFAULTS,
    SNL_REGION_DEFAULTS,
    coeffs_rows,
    fig2_rows,
    fig3_rows,
    fig4_rows,
    figxr_rows,
    grid,
    snl_region_rows,
)
from .manifest import RunManifest, manifest_json, render_csv
from .validation import run_validation


def _emit(header, rows, manifest: RunManifest, out: str | None) -> None:
    csv_bytes = render_csv(header, rows, manifest)
    if out is None:
        sys.stdout.buffer.write(csv_bytes)
        return
    with open(out, "wb") as fh:
        fh.write(csv_bytes)
    with open(out + ".manifest.json", "wb") as fh:
        fh.write(manifest_json(manifest, csv_bytes))
    print(f"wrote {out} and {out}.manifest.json", file=sys.stderr)


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write CSV here plus PATH.manifest.json")


def _add_grid_flags(parser, prefix: str, lo: float, hi: float, steps: int) -> None:
    parser.add_argument(f"--{prefix}-min", type=float, default=lo)
    parser.add_argument(f"--{prefix}-max", type=float, default=hi)
    parser.add_argument(f"--{prefix}-steps", type=int, default=steps)


def _cmd_coeffs(args) -> int:
    params = {"L_over_l": args.L_over_l, "L_over_La": args.L_over_La}
    header, rows = coeffs_rows(args.L_over_l, args.L_over_La)
    _emit(header, rows, RunManifest("coeffs", params), args.out)
    return 0


def _cmd_fig2(args) -> int:
    gain_grid = grid(args.L_over_La_min, args.L_over_La_max, args.L_over_La_steps)
    lo, hi, steps = (
        FIG2_DEFAULTS["r_grid"] if args.panel == "a" else FIG2_DEFAULTS["thickness_grid"]
    )
    x_min = args.x_min if args.x_min is not None else lo
    x_max = args.x_max if args.x_max is not None else hi
    x_steps = args.x_steps if args.x_steps is not None else steps
    x_grid = grid(x_min, x_max, x_steps)
    params = {
        "panel": args.panel,
        "L_over_l": args.L_over_l,
        "squeeze_r": args.squeeze_r,
        "x_min": x_min, "x_max": x_max, "x_steps": x_steps,
        "L_over_La_min": args.L_over_La_min,
        "L_over_La_max": args.L_over_La_max,
        "L_over_La_steps": args.L_over_La_steps,
    }
    header, rows = fig2_rows(
        args.panel,
        thickness_fixed=args.L_over_l,
        squeeze_fixed=args.squeeze_r,
        r_grid=x_grid,
        gain_grid=gain_grid,
        thickness_grid=x_grid,
    )
    _emit(header, rows, RunManifest("fig2", params), args.out)
    return 0


def _cmd_fig3(args) -> int:
    preset = FIG3_DEFAULTS[args.panel]
    fixed = {
        "a": args.L_over_La,
        "b": args.L_over_l,
        "c": args.L_over_l,
        "d": args.squeeze_r,
    }[args.panel]
    curves = (
        [float(v) for v in args.curve_values.split(",")]
        if args.curve_values
        else list(preset["curves"])
    )
    lo, hi, steps = preset["x_grid"]
    x_min = args.x_min if args.x_min is not None else lo
    x_max = args.x_max if args.x_max is not None else hi
    x_steps = args.x_steps if args.x_steps is not None else steps
    params = {
        "panel": args.panel,
        "L_over_l": args.L_over_l,
        "L_over_La": args.L_over_La,
        "squeeze_r": args.squeeze_r,
        "curve_values": ",".join(repr(c) for c in curves),
        "x_min": x_min, "x_max": x_max, "x_steps": x_steps,
    }
    header, rows = fig3_rows(args.panel, fixed, curves, grid(x_min, x_max, x_steps))
    _emit(header, rows, RunManifest("fig3", params), args.out)
    return 0


def _cmd_fig4(args) -> int:
    lo, hi, steps = (
        FIG4_DEFAULTS["r_grid"] if args.panel == "a" else FIG4_DEFAULTS["gain_grid"]
    )
    x_min = args.x_min if args.x_min is not None else lo
    x_max = args.x_max if args.x_max is not None else hi
    x_steps = args.x_steps if args.x_steps is not None else steps
    params = {
        "panel": args.panel,
        "L_over_l": args.L_over_l,
        "L_over_La": args.L_over_La,
        "squeeze_r": args.squeeze_r,
        "x_min": x_min, "x_max": x_max, "x_steps": x_steps,
    }
    header, rows = fig4_rows(
        args.panel,
        thickness=args.L_over_l,
        gain_fixed=args.L_over_La,
        squeeze_fixed=args.squeeze_r,
        x_grid=grid(x_min, x_max, x_steps),
    )
    _emit(header, rows, RunManifest("fig4", params), args.out)
    return 0


def _cmd_figxr(args) -> int:
    lo, hi, steps = (
        FIGXR_DEFAULTS["r_grid"] if args.panel == "a" else FIGXR_DEFAULTS["thickness_grid"]
    )
    x_min = args.x_min if args.x_min is not None else lo
    x_max = args.x_max if args.x_max is not None else hi
    x_steps = args.x_steps if args.x_steps is not None else steps
    params = {
        "panel": args.panel,
        "L_over_l": args.L_over_l,
        "L_over_La": args.L_over_La,
        "squeeze_r": args.squeeze_r,
        "x_min": x_min, "x_max": x_max, "x_steps": x_steps,
    }
    header, rows = figxr_rows(
        args.panel,
        thickness_fixed=args.L_over_l,
        gain_amp=args.L_over_La,
        squeeze_fixed=args.squeeze_r,
        x_grid=grid(x_min, x_max, x_steps),
    )
    _emit(header, rows, RunManifest("figxr", params), args.out)
    return 0


def _cmd_snl_region(args) -> int:
    params = {
        "squeeze_r": args.squeeze_r,
        "L_over_l_min": args.L_over_l_min,
        "L_over_l_max": args.L_over_l_max,
        "L_over_l_steps": args.L_over_l_steps,
        "L_over_La_min": args.L_over_La_min,
        "L_over_La_max": args.L_over_La_max,
        "L_over_La_steps": args.L_over_La_steps,
    }
    header, rows = snl_region_rows(
        grid(args.L_over_l_min, args.L_over_l_max, args.L_over_l_steps),
        grid(args.L_over_La_min, args.L_over_La_max, args.L_over_La_steps),
        args.squeeze_r,
    )
    preset = (
        "large-squeezing"
        if args.squeeze_r == SNL_REGION_DEFAULTS["squeeze_r"]
        else None
    )
    _emit(header, rows, RunManifest("snl-region", params, preset=preset), args.out)
    return 0


def _cmd_validate(args) -> int:
    report = run_validation(
        channels=args.channels,
        seed=args.seed,
        realizations=args.realizations,
        sampler=args.sampler,
        corrupt_constraint=args.corrupt_constraint,
    )
    payload = json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
    if report.status == "fail":
        names = [c.name for c in report.checks if c.status == "fail"]
        print(f"validation FAILED: {', '.join(names)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsq",
        description="Quadrature noise of squeezed light behind random amplifying media",
    )
    parser.add_argument("--version", action="version", version=f"ramsq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="ensemble-averaged slab weights for one (L/l, L/La)")
    p.add_argument("--L-over-l", type=float, required=True)
    p.add_argument("--L-over-La", type=float, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("fig2", help="shaping benefit surface over (r, L/La) or (L/l, L/La)")
    p.add_argument("--panel", choices=("a", "b"), default="a")
    p.add_argument("--L-over-l", type=float, default=FIG2_DEFAULTS["thickness_fixed"],
                   help="fixed thickness for panel a")
    p.add_argument("--squeeze-r", type=float, default=FIG2_DEFAULTS["squeeze_fixed"],
                   help="fixed squeezing for panel b")
    p.add_argument("--x-min", type=float, help="surface x axis: r (panel a) or L/l (panel b)")
    p.add_argument("--x-max", type=float)
    p.add_argument("--x-steps", type=int)
    _add_grid_flags(p, "L-over-La", *FIG2_DEFAULTS["gain_grid"])
    _add_out(p)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig3", help="rescaled squeezed-quadrature fluctuation curves")
    p.add_argument("--panel", choices=("a", "b", "c", "d"), default="a")
    p.add_argument("--L-over-La", type=float, default=2.5, help="fixed gain for panel a")
    p.add_argument("--L-over-l", type=float, default=10.0, help="fixed thickness for panels b, c")
    p.add_argument("--squeeze-r", type=float, default=1.0, help="fixed squeezing for panel d")
    p.add_argument("--curve-values", help="comma-separated family values overriding the preset")
    p.add_argument("--x-min", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--x-steps", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("fig4", help="averaged output variances vs r or vs L/La")
    p.add_argument("--panel", choices=("a", "b"), default="a")
    p.add_argument("--L-over-l", type=float, default=FIG4_DEFAULTS["thickness"])
    p.add_argument("--L-over-La", type=float, default=FIG4_DEFAULTS["gain_fixed"],
                   help="fixed gain for panel a")
    p.add_argument("--squeeze-r", type=float, default=FIG4_DEFAULTS["squeeze_fixed"],
                   help="fixed squeezing for panel b")
    p.add_argument("--x-min", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--x-steps", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("figxr", help="amplifying vs gain-free squeezed quadrature, five series")
    p.add_argument("--panel", choices=("a", "b"), default="a")
    p.add_argument("--L-over-l", type=float, default=FIGXR_DEFAULTS["thickness_fixed"],
                   help="fixed thickness for panel a")
    p.add_argument("--L-over-La", type=float, default=FIGXR_DEFAULTS["gain_amp"],
                   help="gain of the amplifying series")
    p.add_argument("--squeeze-r", type=float, default=FIGXR_DEFAULTS["squeeze_fixed"],
                   help="fixed squeezing for panel b")
    p.add_argument("--x-min", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--x-steps", type=int)
    _add_out(p)
    p.set_defaults(func=_cmd_figxr)

    p = sub.add_parser("snl-region", help="sub-shot-noise region map and boundary")
    p.add_argument("--squeeze-r", type=float, default=SNL_REGION_DEFAULTS["squeeze_r"],
                   help='default is the "large-squeezing" preset e^(-2r) = 1e-8')
    _add_grid_flags(p, "L-over-l", *SNL_REGION_DEFAULTS["thickness_grid"])
    _add_grid_flags(p, "L-over-La", *SNL_REGION_DEFAULTS["gain_grid"])
    _add_out(p)
    p.set_defaults(func=_cmd_snl_region)

    p = sub.add_parser("validate", help="closed-form identities plus Monte Carlo oracle")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--realizations", type=int, default=10_000)
    p.add_argument("--sampler", choices=("mean", "exponential", "both"), default="both")
    p.add_argument("--corrupt-constraint", action="store_true", help=argparse.SUPPRESS)
    _add_out(p)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
