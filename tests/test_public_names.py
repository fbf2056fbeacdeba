"""The names lingmap exports, and the names the benchmark's tracer patches."""

import importlib.util
from pathlib import Path

import lingmap

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
