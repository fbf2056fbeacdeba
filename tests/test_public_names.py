"""The names lingmap exports, and the names the benchmark's tracer patches."""

import importlib.util
from importlib import resources
from pathlib import Path

import lingmap
import lingmap.dataio
import lingmap.elicit
import lingmap.inference

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("lingmap_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_export_is_bound():
    assert [name for name in lingmap.__all__ if not hasattr(lingmap, name)] == []


def test_tracer_targets_exist():
    # the tracer replaces each name in its owner's own namespace, so a traced
    # function that is deleted, renamed or only inherited breaks the benchmark
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in load_tracer()._TARGETS
        if attr not in vars(owner)
    ]
    assert missing == []


def test_traced_evaluate_reaches_every_inference_layer():
    # each per-layer metric of the benchmark's profiles and surface workloads
    # comes from one of these spans or counts; a layer that is no longer
    # called through the name the tracer patches leaves its metric empty
    # and the traced benchmark run fails
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        # loaded fresh, so the consequents are sampled under this infer
        with resources.as_file(
            resources.files("lingmap").joinpath("fixtures", "case2_distance_gender.json")
        ) as path:
            fis = lingmap.dataio.load_catalog(path).fis
        lingmap.inference.evaluate(fis, {"individualism": 38.0, "gender": 1.0})
        lingmap.inference.evaluate(fis, {"individualism": [20.0, 50.0, 80.0], "gender": 0.0})
    finally:
        tracer.uninstall()
    spans = {
        "inference.evaluate": 2,
        "inference.infer": 2,
        "inference.firing_strengths": 2,
        "variables.fuzzify": 4,
        "inference.defuzzify_coa": 2,
    }
    assert {name: tracer.stats[name].calls for name in spans} == spans
    assert tracer.stats["inference.output_grid"].calls > 0
    assert tracer.counts["membership.grid_calls"] > 0
    assert tracer.counts["inference.rules_fired"] > 0


def test_traced_elicitation_reaches_every_elicit_layer():
    # the same contract for the benchmark's elicit-* workloads: each elicit.*
    # and training-data metric comes from one of these spans, counts or the
    # clustering peak, and a step run through a private name leaves it empty
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        with resources.as_file(
            resources.files("lingmap").joinpath("fixtures", "hofstede_individualism.csv")
        ) as path:
            data = lingmap.dataio.load_training_csv(path)
        result = lingmap.elicit.elicit_variable(data, "individualism", lingmap.Interval(0.0, 100.0))
        lingmap.dataio.dumps_catalog(lingmap.Catalog(variables={"individualism": result.variable}))
    finally:
        tracer.uninstall()
    spans = {
        "elicit.elicit_variable": 1,
        "elicit.subtractive_clusters": 1,
        "elicit.fcm": 1,
        "elicit.fit_gauss2": 2,
        "dataio.load_training_csv": 1,
        "dataio.dumps_catalog": 1,
    }
    assert {name: tracer.stats[name].calls for name in spans} == spans
    counts = {"elicit.fcm_iterations": 18, "elicit.fit_gauss2_iterations": 42, "elicit.clusters": 2}
    assert {name: tracer.counts[name] for name in counts} == counts
    assert tracer.peaks["elicit.subtractive_clusters"] > 0
