"""Command-line interface: elicit, validate, eval, surface, reproduce.

Exit codes: 0 success, 1 a computation ran but failed (no rule fired, or a
reproduction missed its tolerance), 2 usage, data or schema problems.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from importlib import resources

import numpy as np

from . import __version__
from .dataio import Catalog, _overwrite, load_catalog, load_fis, load_training_csv, save_catalog
from .elicit import elicit_variable
from .errors import LingmapError, NoRuleFiredError
from .inference import FuzzyInferenceSystem, evaluate
from .variables import VARIABLE_KINDS, CodeList, Interval, coverage_gaps

# Largest |expected - actual| the reproduce command accepts, in output units.
REPRODUCE_TOLERANCE = 5.0

# Most cells the surface command tabulates, on one axis or over both.  A
# larger STEPS is refused before any array is allocated; a mistyped one
# would otherwise end in numpy's out-of-memory error.
SURFACE_MAX_CELLS = 10**6

_CASE_FIXTURES = {
    "1": "case1_distance.json",
    "2": "case2_distance_gender.json",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="lingmap",
        description="Fuzzy linguistic variables, if-then rules, and Mamdani inference.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elicit", help="derive a linguistic variable from a CSV of samples")
    p.add_argument("--data", required=True, help="CSV with header 'label,value' or 'value'")
    p.add_argument("--domain", required=True, metavar="LO,HI", help="variable domain, e.g. 0,100")
    p.add_argument("--radius", type=float, default=0.5,
                   help="cluster radius as a fraction of the data span (default 0.5)")
    p.add_argument("--name", default=None,
                   help="variable name (default: derived from the data file name)")
    p.add_argument("--kind", choices=VARIABLE_KINDS, default="interval",
                   help="level of measurement (default interval)")
    p.add_argument("--out", required=True,
                   help="catalog JSON to write; an existing file is overwritten in place")

    p = sub.add_parser("validate", help="check a catalog document and report problems")
    p.add_argument("catalog", help="catalog JSON to check")

    p = sub.add_parser("eval", help="run an inference system on one input profile")
    p.add_argument("--fis", required=True, help="catalog JSON containing an inference system")
    p.add_argument("--in", dest="assignments", required=True, metavar="VAR=VALUE,...",
                   help="comma-separated input assignments, e.g. individualism=38,gender=0")

    p = sub.add_parser("surface", help="tabulate an inference system over 1 or 2 input axes")
    p.add_argument("--fis", required=True, help="catalog JSON containing an inference system")
    p.add_argument("--axis", action="append", required=True, metavar="VAR=LO:HI:STEPS",
                   help="axis to sweep (give once or twice)")
    p.add_argument("--fix", default=None, metavar="VAR=VALUE,...",
                   help="values for inputs that are not swept")
    p.add_argument("--out", default=None,
                   help="write CSV here instead of stdout; an existing file is overwritten "
                        "in place and cut to the new length (not atomically)")

    p = sub.add_parser("reproduce", help="re-run a packaged case study and check its anchors")
    p.add_argument("--case", required=True, choices=sorted(_CASE_FIXTURES),
                   help="which case study to reproduce")
    return parser


def _parse_assignments(text: str, fis: FuzzyInferenceSystem) -> dict:
    """VAR=VALUE pairs, each value read by its input variable's domain.

    Interval values become floats.  Code-list values stay text, because a
    catalog stores its codes as strings, so g=1 selects the code "1".  A
    value that is not a number, and a name that is not an input, is passed
    on as text for evaluate to report.
    """
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, raw = part.partition("=")
        name = name.strip()
        raw = raw.strip()
        if not sep or not name or not raw:
            raise LingmapError(f"bad assignment {part!r}: expected VAR=VALUE")
        values[name] = raw
        var = fis.inputs.get(name)
        if var is not None and isinstance(var.domain, Interval):
            try:
                values[name] = float(raw)
            except ValueError:
                pass
    if not values:
        raise LingmapError("no input assignments given")
    return values


def _parse_axis(text: str) -> tuple:
    """VAR=LO:HI:STEPS as (VAR, LO, HI, STEPS), each checked."""
    name, sep, rest = text.partition("=")
    parts = rest.split(":")
    if not sep or not name.strip() or len(parts) != 3:
        raise LingmapError(f"bad axis {text!r}: expected VAR=LO:HI:STEPS")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise LingmapError(f"bad axis {text!r}: expected VAR=LO:HI:STEPS") from None
    if not np.isfinite(hi - lo):
        raise LingmapError(f"bad axis {text!r}: LO, HI and HI - LO must be finite")
    if steps < 1:
        raise LingmapError(f"bad axis {text!r}: steps must be at least 1")
    if steps > SURFACE_MAX_CELLS:
        raise LingmapError(f"bad axis {text!r}: steps must be at most {SURFACE_MAX_CELLS}")
    return name.strip(), lo, hi, steps


def _default_variable_name(data_path: str) -> str:
    stem = os.path.splitext(os.path.basename(data_path))[0]
    name = re.sub(r"[^A-Za-z0-9_]", "_", stem)
    if not name or not name[0].isalpha():
        name = "x" + name
    return name


def _cmd_elicit(args) -> int:
    lo_hi = args.domain.split(",")
    if len(lo_hi) != 2:
        raise LingmapError(f"bad domain {args.domain!r}: expected LO,HI")
    try:
        domain = Interval(float(lo_hi[0]), float(lo_hi[1]))
    except ValueError:
        raise LingmapError(f"bad domain {args.domain!r}: expected LO,HI") from None

    data = load_training_csv(args.data)
    name = args.name or _default_variable_name(args.data)
    result = elicit_variable(data, name, domain, radius=args.radius, kind=args.kind)

    print(f"observations: {len(data)}")
    print(f"clusters: {len(result.clusters.centers)}")
    print("centers: " + ", ".join(f"{c:.6f}" for c in result.clusters.centers))
    for term, fit in zip(result.variable.terms, result.fits):
        state = "converged" if fit.converged else "did not converge"
        print(f"term {term}: rms residual {fit.residual:.4f} ({state}, {fit.iterations} iterations)")
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    save_catalog(Catalog(variables={name: result.variable}), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    catalog = load_catalog(args.catalog)
    names = ", ".join(catalog.variables)
    print(f"{args.catalog}: OK")
    print(f"variables: {len(catalog.variables)} ({names})")
    if catalog.fis is not None:
        fis = catalog.fis
        print(
            f"fis: {len(fis.inputs)} input(s), {len(fis.outputs)} output(s), "
            f"{len(fis.rules)} rule(s), resolution {fis.defuzz_resolution}"
        )
    for name, var in catalog.variables.items():
        gaps = coverage_gaps(var)
        if gaps:
            first = gaps[0] if isinstance(var.domain, CodeList) else f"{gaps[0]:.4g}"
            more = f" (and {len(gaps) - 1} more points)" if len(gaps) > 1 else ""
            print(
                f"warning: no term covers '{name}' at {first}{more}",
                file=sys.stderr,
            )
    return 0


def _cmd_eval(args) -> int:
    fis = load_fis(args.fis)
    values = _parse_assignments(args.assignments, fis)
    outputs = evaluate(fis, values)
    for name, value in outputs.items():
        print(f"{name} = {value:.4f}")
    return 0


def _sweep_output(fis: FuzzyInferenceSystem) -> str:
    if len(fis.outputs) != 1:
        raise LingmapError(
            "surface needs an inference system with exactly one output, "
            f"this one has {len(fis.outputs)}"
        )
    return next(iter(fis.outputs))


def _cmd_surface(args) -> int:
    fis = load_fis(args.fis)
    out_name = _sweep_output(fis)
    if len(args.axis) not in (1, 2):
        raise LingmapError("give --axis once or twice")
    axes = [_parse_axis(a) for a in args.axis]
    if math.prod(steps for *_, steps in axes) > SURFACE_MAX_CELLS:
        raise LingmapError(
            f"a surface of {axes[0][3]} x {axes[1][3]} cells is more than {SURFACE_MAX_CELLS}"
        )
    axes = [(name, np.linspace(lo, hi, steps)) for name, lo, hi, steps in axes]
    fixed = _parse_assignments(args.fix, fis) if args.fix else {}
    for name, _ in axes:
        if name in fixed:
            raise LingmapError(f"'{name}' is both an axis and fixed")
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        raise LingmapError(f"'{axes[0][0]}' is on both axes")

    if len(axes) == 1:
        (xname, xs), = axes
        values = evaluate(fis, {**fixed, xname: xs})[out_name]
        lines = [f"{xname},{out_name}"]
        lines += [f"{x!r},{v!r}" for x, v in zip(xs.tolist(), values.tolist())]
    else:
        (rname, rows), (cname, cols) = axes
        grid = {rname: np.repeat(rows, cols.size), cname: np.tile(cols, rows.size)}
        values = evaluate(fis, {**fixed, **grid})[out_name].reshape(rows.size, cols.size)
        lines = [f"{rname}\\{cname}," + ",".join(repr(c) for c in cols.tolist())]
        lines += [
            ",".join(map(repr, [r] + row)) for r, row in zip(rows.tolist(), values.tolist())
        ]
    text = "\n".join(lines) + "\n"

    if args.out:
        _overwrite(args.out, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return 0


def _fixture_catalog(case: str) -> Catalog:
    ref = resources.files("lingmap").joinpath("fixtures", _CASE_FIXTURES[case])
    with resources.as_file(ref) as path:
        return load_catalog(path)


def _cmd_reproduce(args) -> int:
    catalog = _fixture_catalog(args.case)
    if catalog.fis is None or "anchors" not in catalog.metadata:
        raise LingmapError(f"case {args.case} fixture is missing its inference system or anchors")
    title = catalog.metadata.get("title", f"case {args.case}")
    units = catalog.metadata.get("units", "")
    print(f"case {args.case}: {title}")

    rows = []
    all_pass = True
    for anchor in catalog.metadata["anchors"]:
        inputs = {k: float(v) for k, v in anchor["inputs"].items()}
        expected = float(anchor["expected"])
        (actual,) = evaluate(catalog.fis, inputs).values()
        diff = abs(actual - expected)
        ok = diff <= REPRODUCE_TOLERANCE
        all_pass &= ok
        label = ", ".join(f"{k}={v:g}" for k, v in inputs.items())
        rows.append((label, expected, actual, diff, "pass" if ok else "FAIL"))

    width = max(len(r[0]) for r in rows)
    print(f"{'input':<{width}}  {'expected':>9}  {'actual':>9}  {'|diff|':>7}  status")
    for label, expected, actual, diff, status in rows:
        print(f"{label:<{width}}  {expected:>9.2f}  {actual:>9.2f}  {diff:>7.2f}  {status}")
    print(f"tolerance: {REPRODUCE_TOLERANCE} {units}".rstrip())
    print("PASS" if all_pass else "FAIL")
    return 0 if all_pass else 1


_COMMANDS = {
    "elicit": _cmd_elicit,
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "surface": _cmd_surface,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except NoRuleFiredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LingmapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
