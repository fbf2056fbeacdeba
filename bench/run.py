"""lingmap benchmark: one command, four workloads, every output checked.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a lingmap source tree; it imports lingmap from
``src/`` and exits with status 2 if there is none. Each workload runs in a
child process of its own (``workloads.py``). Before that, ``setup_s`` is
measured on fresh interpreters, each timed from start until it has
imported lingmap and, where the workload evaluates a catalog, loaded the
case-2 catalog.

With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer ones. Metric lines are printed by name with
their unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit status is 0 when every
output passed its check and 1 when one did not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
CASE2 = SRC / "lingmap" / "fixtures" / "case2_distance_gender.json"
WORKLOADS = ("profiles", "surface", "elicit-scores", "elicit-large")
EVALUATES_CATALOG = {"profiles", "surface"}

# setup_s is the median of SETUP_SAMPLES samples, each the mean of
# SETUP_STARTS interpreters started one after another. A single start takes
# about 0.2 s, less than the host usually stays at one of its two speeds
# (see BATCH_NS in workloads.py), so a median of single starts can jump
# between the two; a mean over four starts spans both.
SETUP_SAMPLES = 5
SETUP_STARTS = 4
SETUP_CODE = (
    "import sys, lingmap\n"
    "if len(sys.argv) > 1:\n"
    "    lingmap.load_catalog(sys.argv[1])\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)
# A run must end within 180 s; what the child may take is what is left.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run or could not read a child's result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def setup_seconds(env: dict, catalog: Path | None) -> float:
    """Time from starting an interpreter to lingmap being ready (see SETUP_SAMPLES)."""
    argv = [sys.executable, "-c", SETUP_CODE] + ([str(catalog)] if catalog else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        ready = 0.0
        for _ in range(SETUP_STARTS):
            start = time.perf_counter()
            with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
                line = proc.stdout.readline()
                ready += time.perf_counter() - start
                proc.wait(timeout=60)
            if line != b"ready\n" or proc.returncode != 0:
                raise BenchError(f"set-up interpreter exited with {proc.returncode}")
        samples.append(ready / SETUP_STARTS)
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    env = _env()
    metrics = {}
    if not trace:
        catalog = CASE2 if name in EVALUATES_CATALOG else None
        metrics["setup_s"] = {"value": setup_seconds(env, catalog), "unit": "s"}
    argv = [
        sys.executable, str(BENCH / "workloads.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    left = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        child = subprocess.run(
            argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=left
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload {name} did not finish within {left:.0f} s") from None
    if child.returncode != 0:
        raise BenchError(f"workload {name} exited with {child.returncode}:\n{child.stderr[-2000:]}")
    try:
        result = json.loads(child.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"workload {name} printed no result:\n{child.stderr[-2000:]}") from None
    result["metrics"] = {**metrics, **result["metrics"]}
    return result


def report(name: str, result: dict) -> None:
    print(f"[{name}] attempted {result['attempted']}, failed {result['failed']}, "
          f"outputs {'correct' if result['correct'] else 'WRONG'}")
    for metric, m in result["metrics"].items():
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
    for line in result.get("problems", []) + result.get("failures", []):
        print(f"[{name}] {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lingmap" / "__init__.py").is_file():
        print(f"error: no lingmap sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
