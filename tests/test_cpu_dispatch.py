"""The same outputs, within a stated bound, on each CPU code path of one build.

numpy picks its SIMD loops (`exp` among them) by CPU features, and OpenBLAS
its kernels by core type, so lingmap's bits are fixed per numpy build and
CPU, not across CPUs.  Each test here runs one probe in a child process with
one of those choices forced through the environment, set in that child only:
`OPENBLAS_CORETYPE`, or `NPY_DISABLE_CPU_FEATURES` turning numpy's dispatch
down one level at a time.  It compares the child's outputs with those of a
child with neither set:

* 500 case-2 `evaluate` outputs and the packaged scores' elicited Gauss2
  parameters agree within 1e-12 relative, the bound `TestFitStability` puts
  on a 1-ulp change to a membership column.  On an x86-64 Xeon with AVX-512
  the parameters moved by at most 1.6e-15 (`OPENBLAS_CORETYPE=Haswell`) and
  the outputs by 5.9e-16 (numpy's AVX-512 loops off);
* the subtractive-clustering centres are equal as bytes: they are data
  points, chosen on exact comparisons of potentials.

A setting whose instructions the CPU lacks is skipped, by name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import dataclasses
import json
from importlib import resources

import numpy as np

from lingmap import Interval, elicit_variable, evaluate, load_catalog, load_training_csv

fixtures = resources.files("lingmap").joinpath("fixtures")
with resources.as_file(fixtures.joinpath("case2_distance_gender.json")) as path:
    fis = load_catalog(path).fis
rng = np.random.default_rng(500)
gender = rng.uniform(0.0, 1.0, 500)
gender[gender == 0.5] = 0.25  # no rule fires at 0.5
outputs = evaluate(fis, {"individualism": rng.uniform(0.0, 100.0, 500), "gender": gender})
with resources.as_file(fixtures.joinpath("hofstede_individualism.csv")) as path:
    scores = load_training_csv(path)
result = elicit_variable(scores, "individualism", Interval(0.0, 100.0))
print(json.dumps({
    "outputs": outputs["distance"].tolist(),
    "params": [dataclasses.astuple(fit.params) for fit in result.fits],
    "centres": result.clusters.centers.tobytes().hex(),
}))
"""

# each core type with the numpy feature its kernels need
CORETYPES = {
    "Prescott": "SSE3",
    "Nehalem": "SSE42",
    "Sandybridge": "AVX",
    "Haswell": "AVX2",
    "SkylakeX": "AVX512_SKX",
}
# numpy's dispatch targets from the top down; each level turns off one more
DISPATCH = ["AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3"]
SETTINGS = [("OPENBLAS_CORETYPE", core, feature) for core, feature in CORETYPES.items()] + [
    ("NPY_DISABLE_CPU_FEATURES", " ".join(DISPATCH[: i + 1]), feature)
    for i, feature in enumerate(DISPATCH)
]


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def run_probe(**setting) -> dict:
    forced = {"OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"}
    env = {k: v for k, v in os.environ.items() if k not in forced}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(setting)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def unset():
    return run_probe()


@pytest.mark.parametrize(
    "variable, value, feature", SETTINGS, ids=[f"{var}={value}" for var, value, _ in SETTINGS]
)
def test_outputs_agree_across_cpu_code_paths(unset, variable, value, feature):
    if not _cpu_features().get(feature):
        pytest.skip(f"this CPU lacks {feature}, which {variable}={value} needs")
    child = run_probe(**{variable: value})
    np.testing.assert_allclose(child["outputs"], unset["outputs"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(child["params"], unset["params"], rtol=1e-12, atol=0)
    assert child["centres"] == unset["centres"]
