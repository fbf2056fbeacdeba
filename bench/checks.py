"""Output checks for every workload; each returns a list of problems.

An empty list means the output passed. The checks use the formulas in
``oracle.py`` and never lingmap's own code, so a fault in lingmap cannot
hide itself by being repeated in its check.
"""

from __future__ import annotations

import json
import math

from oracle import bezdek_memberships, gauss2_rms

# Largest |lingmap - oracle| accepted for one crisp output, in output units.
# The two sum the same terms in different orders; 400 seeded profiles on
# each packaged case differed by at most 1e-13.
ORACLE_TOL = 1e-9
# Largest gap accepted between lingmap's memberships and Bezdek's formula,
# and between a membership row sum and 1.
MEMBERSHIP_TOL = 1e-9
# Largest RMS of an elicited term against its membership column.
RMS_CEILING = 0.15
# Every packaged case maps onto distances in this range (cm).
OUTPUT_RANGE = (45.0, 120.0)
# A response that should rise may still fall by rounding noise this large.
MONOTONE_SLACK = 1e-9


def profile_problems(oracle, profile: dict, output: dict) -> list[str]:
    """One ``evaluate`` result against the oracle."""
    expected = oracle.evaluate(profile)
    problems = []
    for name, want in expected.items():
        got = output.get(name)
        if got is None or not abs(got - want) <= ORACLE_TOL:
            problems.append(f"evaluate({profile}) gave {name}={got!r}, oracle {want!r}")
    return problems


def expected_axis(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _axis_problems(what, got, want) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} points, expected {len(want)}"]
    for g, w in zip(got, want):
        if not abs(g - w) <= 1e-9 * max(1.0, abs(w)):
            return [f"{what}: point {g!r}, expected {w!r}"]
    return []


def _range_problems(what, values) -> list[str]:
    lo, hi = OUTPUT_RANGE
    bad = [v for v in values if not lo <= v <= hi]
    return [f"{what}: {len(bad)} value(s) outside [{lo}, {hi}], e.g. {bad[0]!r}"] if bad else []


def _rising_problems(what, values) -> list[str]:
    for k in range(1, len(values)):
        if values[k] < values[k - 1] - MONOTONE_SLACK:
            return [f"{what}: falls from {values[k - 1]!r} to {values[k]!r} at step {k}"]
    return []


def sweep_problems(text: str, oracle, axis, output: str, samples) -> list[str]:
    """A one-axis surface CSV: ``x,output`` rows over ``axis = (name, lo, hi, steps)``.

    Every value must lie in the output range and rise with the axis; the
    rows at the indices in ``samples`` must match the oracle.
    """
    name, lo, hi, steps = axis
    lines = text.splitlines()
    if not lines or lines[0] != f"{name},{output}":
        return [f"sweep header {lines[:1]!r}, expected '{name},{output}'"]
    rows = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
    if any(len(r) != 2 for r in rows):
        return ["sweep row without exactly two columns"]
    xs = [r[0] for r in rows]
    values = [r[1] for r in rows]
    problems = _axis_problems(f"sweep axis {name}", xs, expected_axis(lo, hi, steps))
    problems += _range_problems("sweep", values)
    problems += _rising_problems(f"sweep over {name}", values)
    if problems:
        return problems
    for k in samples:
        want = oracle.evaluate({name: xs[k]})[output]
        if not abs(values[k] - want) <= ORACLE_TOL:
            problems.append(f"sweep at {name}={xs[k]!r}: {values[k]!r}, oracle {want!r}")
    return problems


def grid_problems(text: str, oracle, row_axis, col_axis, rising_at, samples) -> list[str]:
    """A two-axis surface CSV with a ``row\\col`` header.

    Every cell must lie in the output range; the columns whose value is in
    ``rising_at`` must rise down the rows; the cells (row, col) in
    ``samples`` must match the oracle.
    """
    rname, rlo, rhi, rsteps = row_axis
    cname, clo, chi, csteps = col_axis
    lines = text.splitlines()
    head = lines[0].split(",") if lines else [""]
    if head[0] != f"{rname}\\{cname}":
        return [f"grid header starts {head[0]!r}, expected '{rname}\\{cname}'"]
    cols = [float(c) for c in head[1:]]
    rows, cells = [], []
    for line in lines[1:]:
        parts = [float(c) for c in line.split(",")]
        if len(parts) != len(cols) + 1:
            return [f"grid row with {len(parts)} cells, expected {len(cols) + 1}"]
        rows.append(parts[0])
        cells.append(parts[1:])
    problems = _axis_problems(f"grid axis {cname}", cols, expected_axis(clo, chi, csteps))
    problems += _axis_problems(f"grid axis {rname}", rows, expected_axis(rlo, rhi, rsteps))
    problems += _range_problems("grid", [v for row in cells for v in row])
    for j, c in enumerate(cols):
        if c in rising_at:
            problems += _rising_problems(
                f"grid over {rname} at {cname}={c!r}", [row[j] for row in cells]
            )
    if problems:
        return problems
    (output,) = oracle.outputs
    for i, j in samples:
        want = oracle.evaluate({rname: rows[i], cname: cols[j]})[output]
        if not abs(cells[i][j] - want) <= ORACLE_TOL:
            problems.append(
                f"grid at {rname}={rows[i]!r}, {cname}={cols[j]!r}: {cells[i][j]!r}, oracle {want!r}"
            )
    return problems


def elicitation_problems(
    values,
    loaded,
    centers,
    memberships,
    catalog_text: str,
    reloaded_text: str,
    *,
    modes=None,
    max_offset: float = 0.0,
    terms: int | None = None,
    fuzzifier: float = 2.0,
) -> list[str]:
    """One load -> elicit -> dump chain.

    values: what the benchmark wrote to the CSV; loaded: what
    load_training_csv returned; centers and memberships: the fuzzy c-means
    result; catalog_text: dumps_catalog's output; reloaded_text: that text
    loaded and dumped again. With ``modes``, there must be one cluster per
    mode, each centre within ``max_offset`` of its mode; with ``terms``,
    exactly that many terms.
    """
    problems = []
    if list(loaded) != list(values):
        return ["load_training_csv did not return the values written"]
    centers = [float(c) for c in centers]
    rows = [list(map(float, r)) for r in memberships]
    if terms is not None and len(centers) != terms:
        problems.append(f"{len(centers)} clusters, expected {terms} terms")
    if modes is not None:
        if len(centers) != len(modes):
            problems.append(f"{len(centers)} clusters for {len(modes)} generating modes")
        else:
            for c, mode in zip(sorted(centers), sorted(modes)):
                if not abs(c - mode) <= max_offset:
                    problems.append(f"centre {c:.4f} is more than {max_offset} from mode {mode}")
    if len(rows) != len(values) or any(len(r) != len(centers) for r in rows):
        return problems + ["membership matrix does not have one row per value, one column per centre"]

    want = bezdek_memberships(values, centers, fuzzifier)
    for i, (got_row, want_row) in enumerate(zip(rows, want)):
        if not abs(math.fsum(got_row) - 1.0) <= MEMBERSHIP_TOL:
            problems.append(f"membership row {i} sums to {math.fsum(got_row)!r}")
            break
        if any(not abs(g - w) <= MEMBERSHIP_TOL for g, w in zip(got_row, want_row)):
            problems.append(f"membership row {i} is {got_row}, Bezdek gives {want_row}")
            break

    doc = json.loads(catalog_text)
    (variable,) = doc["variables"]
    names = [t["name"] for t in variable["terms"]]
    if names != [f"LC{k + 1}" for k in range(len(centers))]:
        problems.append(f"terms {names} for {len(centers)} clusters")
    else:
        for j, term in enumerate(variable["terms"]):
            rms = gauss2_rms(term["mf"], values, [r[j] for r in want])
            if not rms <= RMS_CEILING:
                problems.append(f"term {term['name']} has RMS {rms:.4f} against its memberships")
    if reloaded_text != catalog_text:
        problems.append("the dumped catalog does not reload to the same bytes")
    return problems
