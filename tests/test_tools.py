"""The scripts under tools/, run in a copy of the tree so that they cannot write to it."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tree_copy(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tools"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    return tmp_path


def _fixture_states(tree: Path) -> dict:
    fixtures = tree / "src" / "lingmap" / "fixtures"
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in fixtures.iterdir()}


@pytest.mark.parametrize(
    "argv, code, stream",
    [(["--help"], 0, "stdout"), (["--no-such-option"], 2, "stderr")],
    ids=["help", "unknown-argument"],
)
def test_calibrate_fixtures_parses_before_writing(tree_copy, argv, code, stream):
    before = _fixture_states(tree_copy)
    proc = subprocess.run(
        [sys.executable, str(tree_copy / "tools" / "calibrate_fixtures.py"), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert getattr(proc, stream).startswith("usage: calibrate_fixtures.py")
    assert _fixture_states(tree_copy) == before
