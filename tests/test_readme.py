"""The README's examples: its catalog documents load, and its quick tour prints what it says."""

import json
import re
from pathlib import Path

import numpy as np

from lingmap import dumps_catalog
from lingmap.dataio import catalog_from_doc

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(text: str, lang: str) -> list[str]:
    """The body of each fenced block of text opened with ```lang."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_examples_load_and_print_what_they_say(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    catalogs = [catalog_from_doc(json.loads(block)) for block in blocks(text, "json")]
    assert catalogs

    # the first python block is the quick tour; it writes fan.json
    tour = blocks(text, "python")[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, str(README), "exec"), {})
    one, batch = capsys.readouterr().out.splitlines()
    comment_one, comment_batch = re.findall(r"print\(.*\)\s+# (.*)", tour)
    # {'fan': 8.145...} is the printed dict cut short
    assert one.startswith(comment_one.removesuffix("...}"))
    # ~[1.854 ...] is the printed array to 3 decimals
    printed = np.array(batch.strip("[]").split(), float)
    documented = np.array(comment_batch.strip("~[]").split(), float)
    assert np.round(printed, 3).tolist() == documented.tolist()

    # the catalog example is the tour's fan.json, laid out by hand
    saved = (tmp_path / "fan.json").read_text(encoding="utf-8")
    assert dumps_catalog(catalogs[0]) == saved
