#!/usr/bin/env python3
"""Print one SHA-256 over the output bits of lingmap on fixed inputs.

Two source trees that print the same digest on one host compute the same
bits for:

* seeded `evaluate` batches of 1, 17, 65, 66 and 1000 profiles on each
  packaged case (sizes on both sides of the kernel's chunk step);
* 200 single-profile `evaluate` calls, 100 on each case;
* five elicitations, each hashed as its catalog text, cluster centres
  and membership matrix: the packaged individualism scores, a seeded
  two-mode sample of 2000 distinct values (the shape of the benchmark's
  `elicit-large` samples), 200 000 seeded integers from 0 to 100, and two
  samples of 110 integer scores on which the Gauss2 fit once stepped to a
  width whose square overflows (`bench/data/gauss2_overflow.csv`) or is 0
  (`COLLAPSE` below);
* the values `load_training_csv` reads from four files: the packaged
  scores (`label,value`), `bench/data/gauss2_overflow.csv` (`value`), a
  seeded 2000-row `value` file of `repr` floats, the way the benchmark
  writes its `elicit-large` samples, and the packaged scores as a
  spreadsheet exports them, with a byte-order mark, CR LF line ends, a
  quoted label holding a comma and a blank row, which only the `csv` row
  loop reads; the last two are written to a temporary directory.

A change that claims "the same bits" runs this on the parent and on the
change and compares the two lines.  lingmap is imported from the `src`
directory next to this script, not from an installed copy.

Run:  python3 tools/digest.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lingmap import (  # noqa: E402
    Catalog,
    Interval,
    TrainingSet,
    dumps_catalog,
    elicit_variable,
    evaluate,
    load_catalog,
    load_training_csv,
)

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = os.path.join(ROOT, "src", "lingmap", "fixtures")
BATCH_SIZES = (1, 17, 65, 66, 1000)
SINGLE_CALLS = 100  # per case
# 110 integer scores from two modes on which the fit once collapsed a width to 0
COLLAPSE = [
    47, 48, 38, 30, 62, 56, 40, 39, 40, 51, 43, 41, 35, 38, 45, 43, 41, 56, 35, 40,
    50, 48, 51, 44, 40, 48, 46, 45, 40, 47, 48, 36, 52, 39, 44, 36, 58, 36, 43, 45,
    38, 50, 35, 45, 50, 32, 51, 43, 42, 42, 61, 40, 39, 35, 52, 59, 59, 68, 58, 61,
    57, 62, 60, 52, 59, 48, 66, 64, 52, 59, 64, 62, 73, 50, 51, 56, 41, 63, 49, 52,
    62, 59, 66, 56, 51, 79, 48, 54, 70, 54, 50, 59, 56, 60, 66, 56, 62, 60, 68, 59,
    69, 50, 50, 56, 62, 55, 66, 64, 61, 55,
]  # fmt: skip


def profiles(case: int, n: int, seed: int) -> dict:
    """n seeded profiles for case 1 or 2; gender avoids 0.5, where no rule fires."""
    rng = np.random.default_rng([case, n, seed])
    values = {"individualism": rng.uniform(0.0, 100.0, n)}
    if case == 2:
        gender = rng.uniform(0.0, 1.0, n)
        gender[gender == 0.5] = 0.25
        values["gender"] = gender
    return values


def elicitation_samples() -> list:
    """(name, TrainingSet) of each elicitation that is hashed."""
    scores = load_training_csv(os.path.join(FIXTURES, "hofstede_individualism.csv"))
    rng = np.random.default_rng(2000)
    two_modes = np.concatenate([rng.normal(30.0, 8.0, 1000), rng.normal(70.0, 8.0, 1000)])
    two_modes = np.unique(np.clip(two_modes, 0.0, 100.0))
    integers = np.random.default_rng(200_000).integers(0, 101, 200_000).astype(float)
    return [
        ("individualism", scores),
        ("two_modes", TrainingSet(two_modes)),
        ("integers", TrainingSet(integers)),
        ("overflow", load_training_csv(os.path.join(ROOT, "bench", "data", "gauss2_overflow.csv"))),
        ("collapse", TrainingSet(np.array(COLLAPSE, dtype=float))),
    ]


def training_files(folder: str) -> list:
    """The training CSVs whose loaded values are hashed; two are written to folder."""
    rng = np.random.default_rng(2001)
    values = np.concatenate([rng.normal(30.0, 8.0, 1000), rng.normal(70.0, 8.0, 1000)])
    written = os.path.join(folder, "repr.csv")
    with open(written, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("value\n")
        fh.writelines(f"{v!r}\n" for v in values.tolist())
    scores = os.path.join(FIXTURES, "hofstede_individualism.csv")
    with open(scores, encoding="utf-8") as fh:
        header, first, *rows = fh.read().splitlines()
    exported = os.path.join(folder, "exported.csv")
    with open(exported, "w", encoding="utf-8-sig", newline="\r\n") as fh:
        label, value = first.split(",")
        fh.writelines(f"{line}\n" for line in [header, f'"{label}, Republic",{value}', ",", *rows])
    return [
        scores,
        os.path.join(ROOT, "bench", "data", "gauss2_overflow.csv"),
        written,
        exported,
    ]


def main() -> None:
    digest = hashlib.sha256()
    systems = {
        1: load_catalog(os.path.join(FIXTURES, "case1_distance.json")).fis,
        2: load_catalog(os.path.join(FIXTURES, "case2_distance_gender.json")).fis,
    }
    for case, fis in systems.items():
        for n in BATCH_SIZES:
            out = evaluate(fis, profiles(case, n, seed=0))["distance"]
            digest.update(np.ascontiguousarray(out, dtype=float).tobytes())
        batch = profiles(case, SINGLE_CALLS, seed=1)
        for k in range(SINGLE_CALLS):
            one = {name: float(column[k]) for name, column in batch.items()}
            digest.update(np.float64(evaluate(fis, one)["distance"]).tobytes())

    for name, data in elicitation_samples():
        result = elicit_variable(data, name, Interval(0.0, 100.0))
        digest.update(dumps_catalog(Catalog(variables={name: result.variable})).encode())
        digest.update(np.ascontiguousarray(result.clusters.centers, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(result.clusters.memberships, dtype=float).tobytes())
    with tempfile.TemporaryDirectory() as folder:
        for path in training_files(folder):
            digest.update(load_training_csv(path).values.tobytes())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
