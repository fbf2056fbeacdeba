"""The four benchmark workloads, measured in one process with one caller.

Run by ``run.py`` in a child process with lingmap's ``src`` on the path:

    python3 bench/workloads.py --workload profiles --seed 1 --seconds 18 --trace 0

The loop is closed: each operation starts when the previous one returns.
Operations come in rounds whose inputs depend only on the seed and the
round's index. A run times each operation, and stops at the end of the
first round (the second, at the earliest) after which the timed
operations add up to ``--seconds``.
Outputs are checked after each round, outside the timed region.

With ``--trace 1`` even rounds run traced and odd rounds untraced, and the
per-layer metrics come from the traced rounds (see ``tracer.py``). Counts
are taken over the first traced round, so they repeat exactly for a seed.
A layer the workload never reaches is measured on a fixed probe run after
the loop: a case-1 surface through the CLI and an elicitation of the
packaged scores, run once untraced and once traced. The last line of
output is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "lingmap" / "fixtures"
CASE1 = FIXTURES / "case1_distance.json"
CASE2 = FIXTURES / "case2_distance_gender.json"
SCORES = FIXTURES / "hofstede_individualism.csv"
# 110 integer scores from two modes on which fit_gauss2 raises
# OverflowError: a damped trial step puts a log-width near 556, and
# squaring exp(556) overflows a Python float.
OVERFLOW = ROOT / "bench" / "data" / "gauss2_overflow.csv"
OUT = ROOT / "bench" / "_out"

import lingmap  # noqa: E402
import lingmap.cli  # noqa: E402
import lingmap.dataio  # noqa: E402
import lingmap.elicit  # noqa: E402
import lingmap.inference  # noqa: E402

import checks  # noqa: E402
from oracle import MamdaniOracle  # noqa: E402
from tracer import Tracer  # noqa: E402


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Profiles:
    """Single-profile ``evaluate`` calls on the packaged case-2 system.

    Individualism is uniform on [0, 100] and gender is a code in {0, 1}, so
    no two profiles repeat. This is a robot's runtime path: inference,
    variables and membership do all the work.
    """

    def __init__(self, out: Path, seed: int, short: bool = False):
        self.seed = seed
        self.round_size = 40 if short else 1000

    def setup(self) -> None:
        self.fis = lingmap.dataio.load_catalog(CASE2).fis
        self.oracle = MamdaniOracle(_load_json(CASE2))

    def make_round(self, index: int) -> list:
        rng = random.Random(f"profiles/{self.seed}/{index}")
        return [
            {"individualism": rng.uniform(0.0, 100.0), "gender": rng.choice((0.0, 1.0))}
            for _ in range(self.round_size)
        ]

    def run(self, profile):
        return lingmap.inference.evaluate(self.fis, profile)

    def items(self, profile) -> int:
        return 1

    def problems(self, profile, output) -> list[str]:
        return checks.profile_problems(self.oracle, profile, output)


class Surface:
    """``lingmap surface`` run in-process, one operation being two commands.

    The first tabulates case 2 over an individualism x gender grid, the
    second sweeps case 1 over individualism; the individualism range of
    each is drawn from the seed. The gender axis has an even number of
    steps, so 0.5, where both gender terms are 0 and no rule fires, is
    never a cell.
    """

    def __init__(self, out: Path, seed: int, short: bool = False):
        self.seed = seed
        self.rows, self.cols, self.sweep = (6, 4, 8) if short else (20, 6, 40)
        self.grid_out = out / "grid.csv"
        self.sweep_out = out / "sweep.csv"

    def setup(self) -> None:
        lingmap.dataio.load_catalog(CASE2)
        self.case1 = MamdaniOracle(_load_json(CASE1))
        self.case2 = MamdaniOracle(_load_json(CASE2))

    def make_round(self, index: int) -> list:
        rng = random.Random(f"surface/{self.seed}/{index}")
        grid = ("individualism", rng.uniform(0.0, 10.0), rng.uniform(90.0, 100.0), self.rows)
        sweep = ("individualism", rng.uniform(0.0, 10.0), rng.uniform(90.0, 100.0), self.sweep)
        cells = [(rng.randrange(self.rows), rng.randrange(self.cols)) for _ in range(4)]
        rows = [rng.randrange(self.sweep) for _ in range(3)]
        return [(grid, sweep, cells, rows)]

    @staticmethod
    def _axis(axis) -> str:
        name, lo, hi, steps = axis
        return f"{name}={lo!r}:{hi!r}:{steps}"

    def run(self, op):
        grid, sweep, _, _ = op
        codes = (
            lingmap.cli.main(
                ["surface", "--fis", str(CASE2), "--axis", self._axis(grid),
                 "--axis", f"gender=0:1:{self.cols}", "--out", str(self.grid_out)]
            ),
            lingmap.cli.main(
                ["surface", "--fis", str(CASE1), "--axis", self._axis(sweep),
                 "--out", str(self.sweep_out)]
            ),
        )
        if codes != (0, 0):
            raise RuntimeError(f"lingmap surface exited with {codes}")
        return codes

    def items(self, op) -> int:
        return self.rows * self.cols + self.sweep

    def problems(self, op, output) -> list[str]:
        grid, sweep, cells, rows = op
        problems = checks.grid_problems(
            self.grid_out.read_text(encoding="utf-8"), self.case2, grid,
            ("gender", 0.0, 1.0, self.cols), rising_at=(0.0, 1.0), samples=cells,
        )
        problems += checks.sweep_problems(
            self.sweep_out.read_text(encoding="utf-8"), self.case1, sweep,
            "distance", samples=rows,
        )
        return problems


def _write_values(path: Path, values) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("value\n")
        fh.writelines(f"{v!r}\n" for v in values)


class _Elicit:
    """``load_training_csv`` -> ``elicit_variable`` -> ``dumps_catalog``, one CSV per operation."""

    # how far a cluster centre may sit from the mode that generated it
    max_offset = 0.0

    def __init__(self, out: Path, seed: int, short: bool = False):
        self.seed = seed
        self.out = out
        self.short = short

    def setup(self) -> None:
        self.written: dict[Path, tuple] = {}

    def run(self, path: Path):
        data = lingmap.dataio.load_training_csv(path)
        result = lingmap.elicit.elicit_variable(data, "x", lingmap.Interval(0.0, 100.0))
        text = lingmap.dataio.dumps_catalog(
            lingmap.Catalog(variables={"x": result.variable})
        )
        return data, result, text

    def items(self, path) -> int:
        return 1

    def problems(self, path: Path, output) -> list[str]:
        data, result, text = output
        values, modes, terms = self.written[path]
        reloaded = lingmap.dataio.dumps_catalog(lingmap.dataio.catalog_from_doc(json.loads(text)))
        return checks.elicitation_problems(
            values, data.values.tolist(), result.clusters.centers.tolist(),
            result.clusters.memberships.tolist(), text, reloaded,
            modes=modes, max_offset=self.max_offset, terms=terms,
        )


class ElicitScores(_Elicit):
    """The packaged 110 individualism scores, then seeded permutations of them.

    The scores are integers, 53 of the 110 distinct. The Gauss2 fit does
    most of the work here. Permuting the rows changes only the order of the
    sums, and the fits take the same path; two-mode integer samples drawn
    afresh would make some fits overflow (see ``OVERFLOW``), so each round
    instead ends with that one fixed sample, whose elicitation fails every
    time and is counted as failed.
    """

    def setup(self) -> None:
        super().setup()
        self.packaged = self._read(SCORES)
        self.written[SCORES] = (self.packaged, None, 2)
        self.written[OVERFLOW] = (self._read(OVERFLOW), None, None)
        self.per_round = 1 if self.short else 6

    @staticmethod
    def _read(path: Path) -> list[float]:
        with open(path, newline="", encoding="utf-8") as fh:
            return [float(row["value"]) for row in csv.DictReader(fh)]

    def make_round(self, index: int) -> list:
        rng = random.Random(f"elicit-scores/{self.seed}/{index}")
        paths = [SCORES]
        for k in range(self.per_round):
            path = self.out / f"scores-{k}.csv"
            values = self.packaged[:]
            rng.shuffle(values)
            _write_values(path, values)
            self.written[path] = (values, None, 2)
            paths.append(path)
        return paths + [OVERFLOW]


class ElicitLarge(_Elicit):
    """One seeded sample of continuous values from two modes per operation.

    Half the values come from N(30, 8) and half from N(70, 8), redrawn
    until they fall in [0, 100]; no value repeats. Subtractive
    clustering's n x n matrices do most of the work and set the peak
    memory.
    """

    modes = (30.0, 70.0)
    # at n = 2000, 300 samples put the centres 0.35 outside their modes on
    # average, with a standard deviation of 0.25 and at most 1.06
    max_offset = 3.0

    def make_round(self, index: int) -> list:
        rng = random.Random(f"elicit-large/{self.seed}/{index}")
        n = 300 if self.short else 2000
        values: list[float] = []
        for mode, count in zip(self.modes, (n // 2, n - n // 2)):
            drawn = 0
            while drawn < count:
                v = rng.gauss(mode, 8.0)
                if 0.0 <= v <= 100.0:
                    values.append(v)
                    drawn += 1
        rng.shuffle(values)
        if len(set(values)) != n:
            raise RuntimeError("a continuous sample repeated a value")
        path = self.out / "large.csv"
        _write_values(path, values)
        self.written = {path: (values, self.modes, None)}
        return [path]


WORKLOADS = {
    "profiles": Profiles,
    "surface": Surface,
    "elicit-scores": ElicitScores,
    "elicit-large": ElicitLarge,
}

# name, unit, better, kind, span, counter
#   total/self: mean duration or self time per call of span
#   count: counter over the first traced round
#   peak: largest tracemalloc peak of one call of span
#   per_point: self time of span per surface point
PER_LAYER = [
    ("dataio.load_catalog_us", "us", "lower", "total", "dataio.load_catalog", None),
    ("rules.parse_rules_us", "us", "lower", "total", "rules.parse_rules", None),
    ("variables.fuzzify_us", "us", "lower", "total", "variables.fuzzify", None),
    ("variables.fuzzify_calls", "count", "lower", "count", "variables.fuzzify", "variables.fuzzify_calls"),
    ("membership.self_us", "us", "lower", "self", ("membership.gauss2", "membership.trapezoid"), None),
    ("membership.grid_calls", "count", "lower", "count", "membership.trapezoid", "membership.grid_calls"),
    ("membership.grid_points", "count", "lower", "count", "membership.trapezoid", "membership.grid_points"),
    ("inference.firing_strengths_self_us", "us", "lower", "self", "inference.firing_strengths", None),
    ("inference.infer_self_us", "us", "lower", "self", "inference.infer", None),
    ("inference.defuzzify_coa_us", "us", "lower", "total", "inference.defuzzify_coa", None),
    ("inference.output_grid_calls", "count", "lower", "count", "inference.output_grid", "inference.output_grid_calls"),
    ("inference.evaluate_us", "us", "lower", "total", "inference.evaluate", None),
    ("inference.rules_fired", "count", "lower", "count", "inference.firing_strengths", "inference.rules_fired"),
    ("cli.surface_self_us", "us", "lower", "per_point", "cli.main", "cli.surface_points"),
    ("elicit.subtractive_clusters_ms", "ms", "lower", "total", "elicit.subtractive_clusters", None),
    ("elicit.subtractive_clusters_peak_mb", "MB", "lower", "peak", "elicit.subtractive_clusters", None),
    ("elicit.fcm_ms", "ms", "lower", "total", "elicit.fcm", None),
    ("elicit.fcm_iterations", "count", "lower", "count", "elicit.fcm", "elicit.fcm_iterations"),
    ("elicit.fit_gauss2_ms", "ms", "lower", "total", "elicit.fit_gauss2", None),
    ("elicit.fit_gauss2_iterations", "count", "lower", "count", "elicit.fit_gauss2", "elicit.fit_gauss2_iterations"),
    ("elicit.elicit_variable_self_ms", "ms", "lower", "self", "elicit.elicit_variable", None),
    ("elicit.clusters", "count", "lower", "count", "elicit.fcm", "elicit.clusters"),
    ("dataio.load_training_csv_ms", "ms", "lower", "total", "dataio.load_training_csv", None),
    ("dataio.dumps_catalog_ms", "ms", "lower", "total", "dataio.dumps_catalog", None),
    ("trace.overhead_pct", "%", "lower", "overhead", None, None),
]
_SCALE = {"us": 1e-3, "ms": 1e-6}


def _layer_value(kind, spans, counter, unit, tracer: Tracer, counts: dict):
    """The metric from one tracer, or None if that tracer never saw the layer."""
    names = (spans,) if isinstance(spans, str) else spans
    calls = sum(tracer.stats[n].calls for n in names if n in tracer.stats)
    if kind == "count":
        return counts.get(counter) or None
    if not calls:
        return None
    if kind == "total":
        return sum(tracer.stats[n].total_ns for n in names) / calls * _SCALE[unit]
    if kind == "self":
        return sum(tracer.stats[n].self_ns for n in names) / calls * _SCALE[unit]
    if kind == "peak":
        return tracer.peaks[spans]
    if kind == "per_point":
        return tracer.stats[spans].self_ns / tracer.counts[counter] * _SCALE[unit]
    raise ValueError(kind)


def layer_metrics(work: Tracer, window: dict, probe: Tracer, overhead_pct: float) -> dict:
    metrics = {}
    for name, unit, _, kind, spans, counter in PER_LAYER:
        if kind == "overhead":
            value = overhead_pct
        else:
            value = _layer_value(kind, spans, counter, unit, work, window)
            if value is None:
                value = _layer_value(kind, spans, counter, unit, probe, probe.counts)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# The host this benchmark was built on alternates between two speeds about
# 2x apart, staying in each for about 0.3 s on average and in the slow one
# for up to 13 s. A statistic over a whole run mixes the two in a share that
# changes from run to run (the median over 20 s windows spread by 55% of
# itself), so latency is read from the fastest stretch of a run instead:
# successful operations are cut, in order, into batches of at least
# BATCH_NS of busy time, short enough that most batches see one speed.
BATCH_NS = 20_000_000


def fastest_batch(latencies, items) -> tuple[float, float, float]:
    """(lowest batch median ns, lowest batch p90 ns, highest batch items/s).

    A run too short to fill one batch is taken as one batch.
    """
    batches, start, busy = [], 0, 0
    for end, ns in enumerate(latencies, start=1):
        busy += ns
        if busy >= BATCH_NS:
            batches.append((start, end, busy))
            start, busy = end, 0
    if not batches:
        batches = [(0, len(latencies), sum(latencies))]
    p50 = p90 = math.inf
    per_s = 0.0
    for lo, hi, ns in batches:
        lat = sorted(latencies[lo:hi])
        p50 = min(p50, statistics.median(lat))
        p90 = min(p90, lat[min(len(lat) - 1, math.ceil(0.9 * len(lat)) - 1)])
        per_s = max(per_s, sum(items[lo:hi]) / (ns / 1e9))
    return p50, p90, per_s


def _probe(out: Path) -> list[str]:
    """Reach every layer once: a case-1 CLI surface and the packaged-score elicitation."""
    sweep = Surface(out, seed=0, short=True)
    sweep.setup()
    axis = ("individualism", 0.0, 100.0, 11)
    if lingmap.cli.main(["surface", "--fis", str(CASE1), "--axis", Surface._axis(axis),
                         "--out", str(sweep.sweep_out)]) != 0:
        return ["probe surface failed"]
    problems = checks.sweep_problems(
        sweep.sweep_out.read_text(encoding="utf-8"), sweep.case1, axis, "distance", range(11)
    )
    scores = ElicitScores(out, seed=0, short=True)
    scores.setup()
    return problems + scores.problems(SCORES, scores.run(SCORES))


def measure(name: str, seed: int, seconds: float, trace: bool, short: bool = False) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    out = OUT / f"{name}-{seed}-{'trace' if trace else 'time'}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(WORKLOADS[name](out, seed, short), name, seed, seconds, trace, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _measure(workload, name, seed, seconds, trace, out) -> dict:
    tracer = Tracer()
    if trace:
        tracer.install()
    workload.setup()
    tracer.uninstall()

    # latency and items of each operation that succeeded, untraced and traced
    timed = {False: array("q"), True: array("q")}
    done = {False: array("q"), True: array("q")}
    busy_ns = attempted = 0
    problems: list[str] = []
    failures: list[str] = []
    window = None
    index = 0
    # two rounds at least: a traced and an untraced one, or two latencies
    while busy_ns < seconds * 1e9 or index < 2:
        ops = workload.make_round(index)
        traced = trace and index % 2 == 0
        if traced:
            tracer.install()
        results = []
        for op in ops:
            tracer.op += 1
            start = time.perf_counter_ns()
            try:
                output = workload.run(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                output = exc
            elapsed = time.perf_counter_ns() - start
            busy_ns += elapsed
            results.append((op, output, elapsed))
        tracer.uninstall()
        if traced and window is None:
            window = dict(tracer.counts)
        for op, output, elapsed in results:
            attempted += 1
            if isinstance(output, Exception):
                failures.append(f"{type(output).__name__}: {output}")
                continue
            timed[traced].append(elapsed)
            done[traced].append(workload.items(op))
            problems += workload.problems(op, output)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        # the probe's first pass pays for first calls; the second is traced
        problems += _probe(out)
        probe = Tracer()
        probe.install()
        try:
            problems += _probe(out)
        finally:
            probe.uninstall()
        traced_p50 = fastest_batch(timed[True], done[True])[0]
        overhead = 100.0 * (traced_p50 / fastest_batch(timed[False], done[False])[0] - 1.0)
        metrics = layer_metrics(tracer, window, probe, overhead)
        tracer.write_spans(OUT / f"trace-{name}-{seed}.jsonl")
    else:
        p50_ns, p90_ns, per_s = fastest_batch(timed[False], done[False])
        metrics = {
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "op_p50_us": {"value": p50_ns / 1e3, "unit": "us"},
            "op_p90_us": {"value": p90_ns / 1e3, "unit": "us"},
            "items_per_s": {"value": per_s, "unit": "1/s"},
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "problems": problems[:20],
        "failures": sorted(set(failures))[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(lingmap.__file__).resolve().parents:
        print(f"lingmap was imported from {lingmap.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
