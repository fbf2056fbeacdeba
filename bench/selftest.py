"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

Every workload runs once at a small size, traced and untraced, and each
check is handed a deliberately wrong output and must report it. The file
is not named ``test_*.py``, so the package's own test run does not pick it
up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import lingmap.cli  # noqa: E402
import workloads  # noqa: E402
from oracle import MamdaniOracle  # noqa: E402


END_TO_END = {"setup_s", "peak_rss_mb", "op_p50_us", "op_p90_us", "items_per_s"}


def _oracle(path: Path) -> MamdaniOracle:
    return MamdaniOracle(json.loads(path.read_text(encoding="utf-8")))


# -- every workload at a small size ------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_is_correct(name):
    result = workloads.measure(name, seed=3, seconds=0.05, trace=False, short=True)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == END_TO_END - {"setup_s"}
    assert all(m["value"] > 0 for m in metrics.values())
    if name == "elicit-scores":
        # one fixed sample per round of packaged + 1 permutation + that sample
        assert result["failed"] * 3 == result["attempted"]
        assert result["failures"] == ["OverflowError: (34, 'Numerical result out of range')"]
    else:
        assert result["failed"] == 0, result["failures"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    runs = [workloads.measure(name, seed=5, seconds=0.05, trace=True, short=True) for _ in range(2)]
    expected = {m[0] for m in workloads.PER_LAYER}
    for run in runs:
        assert run["correct"], run["problems"]
        assert set(run["metrics"]) == expected
        assert all(m["value"] is not None for m in run["metrics"].values())
    counts = [
        {k: m["value"] for k, m in run["metrics"].items() if m["unit"] == "count"} for run in runs
    ]
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_tracer_restores_what_it_patched():
    before = (lingmap.cli.evaluate, lingmap.membership.Gauss2.__call__)
    tracer = workloads.Tracer()
    tracer.install()
    assert lingmap.cli.evaluate is not before[0]
    tracer.uninstall()
    assert (lingmap.cli.evaluate, lingmap.membership.Gauss2.__call__) == before


# -- the checks catch wrong outputs ------------------------------------------

@pytest.fixture
def workdir():
    """A directory inside the source tree, removed afterwards."""
    path = workloads.OUT / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)



def test_profile_check_catches_a_shift():
    oracle = _oracle(workloads.CASE2)
    fis = lingmap.load_catalog(workloads.CASE2).fis
    profile = {"individualism": 41.25, "gender": 1.0}
    got = lingmap.evaluate(fis, profile)
    assert checks.profile_problems(oracle, profile, got) == []
    shifted = {"distance": oracle.evaluate(profile)["distance"] + 1e-6}
    assert checks.profile_problems(oracle, profile, shifted)


def _surface(workdir, fis, *axes) -> str:
    out = workdir / "surface.csv"
    argv = ["surface", "--fis", str(fis), "--out", str(out)]
    for name, lo, hi, steps in axes:
        argv += ["--axis", f"{name}={lo!r}:{hi!r}:{steps}"]
    assert lingmap.cli.main(argv) == 0
    return out.read_text(encoding="utf-8")


def _replace_cell(text: str, row: int, col: int, new: float) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col + 1] = repr(new)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_grid_check_catches_wrong_cells(workdir):
    oracle = _oracle(workloads.CASE2)
    rows, cols = ("individualism", 2.5, 97.5, 7), ("gender", 0.0, 1.0, 4)
    text = _surface(workdir, workloads.CASE2, rows, cols)
    samples = [(3, 1), (6, 3)]

    def problems(t):
        return checks.grid_problems(t, oracle, rows, cols, rising_at=(0.0, 1.0), samples=samples)

    assert problems(text) == []
    value = float(text.splitlines()[4].split(",")[2])
    assert problems(_replace_cell(text, 3, 1, value + 1e-6))  # off the oracle
    assert problems(_replace_cell(text, 2, 2, 121.0))  # out of range
    first = float(text.splitlines()[1].split(",")[1])
    assert problems(_replace_cell(text, 5, 0, first - 1.0))  # falls at gender 0
    assert problems(text.replace("individualism\\gender", "gender\\individualism"))


def test_sweep_check_catches_wrong_rows(workdir):
    oracle = _oracle(workloads.CASE1)
    axis = ("individualism", 1.0, 99.0, 9)
    text = _surface(workdir, workloads.CASE1, axis)
    assert checks.sweep_problems(text, oracle, axis, "distance", samples=[4]) == []
    lines = text.splitlines()
    x, v = lines[5].split(",")
    shifted = "\n".join(lines[:5] + [f"{x},{float(v) + 1e-6!r}"] + lines[6:]) + "\n"
    assert checks.sweep_problems(shifted, oracle, axis, "distance", samples=[4])
    assert checks.sweep_problems(text, oracle, ("individualism", 1.0, 98.0, 9), "distance", [])
    backwards = "\n".join(lines[:1] + lines[:0:-1]) + "\n"
    assert checks.sweep_problems(backwards, oracle, axis, "distance", [])


@pytest.fixture(scope="module")
def elicited():
    data = lingmap.load_training_csv(workloads.SCORES)
    result = lingmap.elicit_variable(data, "x", lingmap.Interval(0.0, 100.0))
    text = lingmap.dumps_catalog(lingmap.Catalog(variables={"x": result.variable}))
    return {
        "values": data.values.tolist(),
        "centers": result.clusters.centers.tolist(),
        "memberships": result.clusters.memberships.tolist(),
        "text": text,
    }


def _elicit_problems(e, modes=None, max_offset=0.0, terms=None, **wrong):
    out = {
        "values": e["values"], "loaded": e["values"], "centers": e["centers"],
        "memberships": e["memberships"], "catalog_text": e["text"], "reloaded_text": e["text"],
    }
    out.update(wrong)
    return checks.elicitation_problems(**out, modes=modes, max_offset=max_offset, terms=terms)


def test_elicitation_check_passes_the_real_output(elicited):
    assert _elicit_problems(elicited, terms=2) == []
    assert _elicit_problems(elicited, modes=(20.0, 65.0), max_offset=8.0) == []


def test_elicitation_check_catches_wrong_outputs(elicited):
    e = elicited
    rows = [r[:] for r in e["memberships"]]
    rows[7][0] += 1e-6
    assert _elicit_problems(e, memberships=rows)  # row does not sum to 1
    rows = [r[:] for r in e["memberships"]]
    rows[7] = rows[7][::-1]
    assert _elicit_problems(e, memberships=rows)  # sums to 1, not Bezdek's
    moved = [e["centers"][0] + 1e-6, e["centers"][1]]
    assert _elicit_problems(e, centers=moved)
    assert _elicit_problems(e, terms=3)
    assert _elicit_problems(e, modes=(20.0, 65.0), max_offset=1.0)
    assert _elicit_problems(e, modes=(20.0, 45.0, 65.0), max_offset=8.0)
    assert _elicit_problems(e, loaded=e["values"][:-1] + [e["values"][-1] + 1.0])
    assert _elicit_problems(e, reloaded_text=e["text"].replace("\n", "\r\n"))
    doc = json.loads(e["text"])
    doc["variables"][0]["terms"][0]["mf"].update(alpha1=0.0, alpha2=0.0)  # LC1 is 0 everywhere
    assert _elicit_problems(e, catalog_text=json.dumps(doc), reloaded_text=json.dumps(doc))


def test_oracle_matches_evaluate_on_both_cases():
    for path, names in ((workloads.CASE1, ("individualism",)),
                        (workloads.CASE2, ("individualism", "gender"))):
        oracle, fis = _oracle(path), lingmap.load_catalog(path).fis
        for k in range(41):
            profile = {"individualism": 2.5 * k}
            if len(names) == 2:
                profile["gender"] = float(k % 2)
            want = lingmap.evaluate(fis, profile)["distance"]
            assert abs(oracle.evaluate(profile)["distance"] - want) <= checks.ORACLE_TOL


# -- the command ---------------------------------------------------------------

def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in workloads.PER_LAYER
    ]
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in spec["end_to_end"])


def test_command_prints_the_result_last():
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "profiles", "--seed", "2",
         "--seconds", "0.3", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == END_TO_END
    assert result["correct"] and result["failed"] == 0


def test_command_fails_without_the_sources(workdir):
    shutil.copytree(BENCH, workdir / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "profiles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=workdir, timeout=120,
    )
    assert run.returncode != 0
    assert run.stdout == ""
