"""Command-line interface.

Each dataset subcommand is one ``COMMANDS`` entry: flags with their
defaults (the figure presets), its panels and the builder.  Each figure
panel is declared once, as a ``Panel`` naming the coordinates it sweeps;
every coordinate of the point (L/l, L/La, r) that a panel does not sweep
is the flag of the same name (``--squeeze-r`` for r).  One handler resolves the flags, records them unchanged as the
manifest's ``parameters`` and calls the builder; the CSV goes to stdout
or to ``--out PATH`` plus ``PATH.manifest.json``.  ``validate`` runs the
validation suite.  Exit codes: 0 success, 1 failed validation or scan
integrity, 2 parameter errors and output files that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from typing import Callable, NamedTuple

from . import __version__
from .core import ParameterError
from .datasets import (
    coeffs_rows, fig2_rows, fig3_rows, fig4_rows, figxr_rows, grid, snl_region_rows, sweep,
)
from .manifest import RunManifest, manifest_json, render_csv
from .snl import LARGE_SQUEEZING_R
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


def _flag(name: str, default=None, help: str | None = None, type=float, **extra) -> tuple:
    """One option of a dataset command: its name and ``add_argument`` keywords."""
    return name, dict(default=default, help=help, type=type, **extra)


class Panel(NamedTuple):
    """Which coordinates of the point (L/l, L/La, r) one figure panel sweeps.

    ``x`` is the CSV column its x grid sweeps and ``x_grid`` the (min,
    max, steps) of an unset ``--x-*``.  A fig3 panel also names the
    column its curves sweep and the values of an unset
    ``--curve-values``.
    """

    x: str
    x_grid: tuple[float, float, int]
    curve: str | None = None
    curves: tuple[float, ...] = ()


class Command(NamedTuple):
    """One dataset subcommand.

    ``panels`` maps each ``--panel`` choice to its declaration.
    ``preset`` is a (label, parameters) pair naming a parameter set, and
    ``build`` gets the resolved flags as attributes and the chosen panel
    (None for a command without panels).
    """

    help: str
    flags: tuple[tuple, ...]
    build: Callable[[argparse.Namespace, Panel | None], tuple]
    panels: dict[str, Panel] | None = None
    preset: tuple[str, dict] | None = None


def _axis(prefix: str, lo: float, hi: float, steps: int) -> tuple[tuple, ...]:
    """The min, max and steps flags of one grid axis."""
    return (_flag(f"--{prefix}-min", lo), _flag(f"--{prefix}-max", hi),
            _flag(f"--{prefix}-steps", steps, type=int))


def _grid(p, axis: str) -> list[float]:
    return grid(getattr(p, f"{axis}_min"), getattr(p, f"{axis}_max"), getattr(p, f"{axis}_steps"))


def _curve_values(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        msg = f"--curve-values must be comma-separated numbers (got {text!r})"
        raise ParameterError(msg) from None


_X_FLAGS = _axis("x", None, None, None)
_R_GRID = (0.0, 2.0, 41)
_GAIN_GRID = (0.0, 3.0, 31)
_R_PANEL = Panel("r", _R_GRID)

# Builders are looked up at call time, so wrappers on module names see every call.
COMMANDS = {
    "coeffs": Command(
        "ensemble-averaged slab weights for one (L/l, L/La)",
        (_flag("--L-over-l", required=True), _flag("--L-over-La", required=True)),
        lambda p, _: coeffs_rows(p.L_over_l, p.L_over_La),
    ),
    "fig2": Command(
        "shaping benefit surface over (r, L/La) or (L/l, L/La)",
        (_flag("--L-over-l", 6.0, "fixed thickness for panel a"),
         _flag("--squeeze-r", 1.5, "fixed squeezing for panel b"),
         _flag("--x-min", help="surface x axis: r (panel a) or L/l (panel b)"),
         *_X_FLAGS[1:],
         *_axis("L-over-La", *_GAIN_GRID)),
        lambda p, panel: fig2_rows(
            p.panel, sweep(p, (panel.x, _grid(p, "x")), ("L_over_La", _grid(p, "L_over_La")))
        ),
        {"a": _R_PANEL, "b": Panel("L_over_l", (2.0, 12.0, 41))},
    ),
    "fig3": Command(
        "rescaled squeezed-quadrature fluctuation curves",
        (_flag("--L-over-La", 2.5, "fixed gain for panel a"),
         _flag("--L-over-l", 10.0, "fixed thickness for panels b, c"),
         _flag("--squeeze-r", 1.0, "fixed squeezing for panel d"),
         _flag("--curve-values", help="comma-separated family values overriding the preset",
               type=str),
         *_X_FLAGS),
        lambda p, panel: fig3_rows(
            p.panel,
            panel.x,
            sweep(p, (panel.curve, _curve_values(p.curve_values)), (panel.x, _grid(p, "x"))),
        ),
        {"a": Panel("r", _R_GRID, "L_over_l", (2.0, 5.0, 10.0, 20.0)),
         "b": Panel("r", _R_GRID, "L_over_La", (0.5, 1.0, 2.0, 2.5)),
         "c": Panel("L_over_La", _GAIN_GRID, "r", (0.5, 1.0, 1.5, 2.0)),
         "d": Panel("L_over_La", _GAIN_GRID, "L_over_l", (2.0, 5.0, 10.0, 20.0))},
    ),
    "fig4": Command(
        "averaged output variances vs r or vs L/La",
        (_flag("--L-over-l", 10.0),
         _flag("--L-over-La", 2.5, "fixed gain for panel a"),
         _flag("--squeeze-r", 0.7, "fixed squeezing for panel b"),
         *_X_FLAGS),
        lambda p, panel: fig4_rows(p.panel, panel.x, sweep(p, (panel.x, _grid(p, "x")))),
        {"a": _R_PANEL, "b": Panel("L_over_La", _GAIN_GRID)},
    ),
    "figxr": Command(
        "amplifying vs gain-free squeezed quadrature, five series",
        (_flag("--L-over-l", 2.0, "fixed thickness for panel a"),
         _flag("--L-over-La", 1.0, "gain of the amplifying series"),
         _flag("--squeeze-r", 1.0, "fixed squeezing for panel b"),
         *_X_FLAGS),
        lambda p, panel: figxr_rows(p.panel, panel.x, sweep(p, (panel.x, _grid(p, "x")))),
        {"a": _R_PANEL, "b": Panel("L_over_l", (2.0, 20.0, 37))},
    ),
    "snl-region": Command(
        "sub-shot-noise region map and boundary",
        (_flag("--squeeze-r", LARGE_SQUEEZING_R,
               'default is the "large-squeezing" preset e^(-2r) = 1e-8'),
         *_axis("L-over-l", 1.2, 12.0, 55),
         *_axis("L-over-La", 0.05, 3.1, 62)),
        lambda p, _: snl_region_rows(_grid(p, "L_over_l"), _grid(p, "L_over_La"), p.squeeze_r),
        preset=("large-squeezing", {"squeeze_r": LARGE_SQUEEZING_R}),
    ),
}


def _run_dataset(args) -> int:
    """Resolve the flags, record them as the manifest's parameters, build."""
    spec = COMMANDS[args.command]
    params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    panel = spec.panels[params["panel"]] if spec.panels else None
    if panel:
        defaults = zip(("x_min", "x_max", "x_steps"), panel.x_grid)
        params.update((k, v) for k, v in defaults if params[k] is None)
    if panel and panel.curve:
        text = params["curve_values"]
        curves = panel.curves if text is None else _curve_values(text)
        params["curve_values"] = ",".join(repr(c) for c in curves)
    label, named = spec.preset or (None, {})
    preset = label if all(params[k] == v for k, v in named.items()) else None
    header, rows = spec.build(argparse.Namespace(**params), panel)
    _emit(header, rows, RunManifest(args.command, params, preset=preset), args.out)
    return 0


def _cmd_validate(args) -> int:
    # Open --out before the oracle runs, so an unwritable path fails at
    # once.  Append mode leaves an existing report intact until the new
    # one replaces it; a file opened here is removed if the run raises.
    # Only a regular file is emptied first: a device, pipe or FIFO
    # (/dev/null, /dev/stdout, process substitution) cannot be truncated.
    created = bool(args.out) and not os.path.exists(args.out)
    out = open(args.out, "a") if args.out else None
    try:
        report = run_validation(
            channels=args.channels,
            seed=args.seed,
            realizations=args.realizations,
            sampler=args.sampler,
            corrupt_constraint=args.corrupt_constraint,
        )
    except BaseException:
        if out:
            out.close()
            if created:
                os.remove(args.out)
        raise
    payload = json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"
    if out:
        with out:
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(0)
            out.write(payload)
    else:
        sys.stdout.write(payload)
    # One stderr line either way: a failure names the report file itself.
    if report.status == "fail":
        names = [c.name for c in report.checks if c.status == "fail"]
        where = f" (report in {args.out})" if args.out else ""
        print(f"validation FAILED: {', '.join(names)}{where}", file=sys.stderr)
        return 1
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsq",
        description="Quadrature noise of squeezed light behind random amplifying media",
    )
    parser.add_argument("--version", action="version", version=f"ramsq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        if spec.panels:
            p.add_argument("--panel", default="a", type=str, choices=tuple(spec.panels))
        for flag, keywords in spec.flags:
            p.add_argument(flag, **keywords)
        p.add_argument("--out", metavar="PATH", help="write CSV here plus PATH.manifest.json")
        p.set_defaults(func=_run_dataset)

    p = sub.add_parser("validate", help="closed-form identities plus Monte Carlo oracle")
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--realizations", type=int, default=10_000)
    p.add_argument("--sampler", choices=("mean", "exponential", "both"), default="both")
    p.add_argument("--corrupt-constraint", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", metavar="PATH", help="write the JSON report here")
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
