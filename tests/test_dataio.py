"""Catalog JSON serialization, schema validation, and CSV loading."""

import csv
import dataclasses
import json
import math
import os
import threading
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingmap import (
    Catalog,
    CodeList,
    CrispLabel,
    DatasetError,
    DefinitionError,
    Gauss2,
    Interval,
    LinguisticVariable,
    SchemaError,
    Trapezoid,
    dumps_catalog,
    load_catalog,
    load_fis,
    load_training_csv,
    save_catalog,
)
from lingmap import dataio
from lingmap.dataio import catalog_from_doc
from lingmap.inference import MAX_DEFUZZ_RESOLUTION
from lingmap.membership import SHAPES


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "metadata": {},
        "variables": [
            {
                "name": "x",
                "kind": "ratio",
                "domain": [0.0, 10.0],
                "terms": [
                    {"name": "low", "mf": {"type": "trapezoid", "a": 0, "b": 0, "c": 3, "d": 6}},
                    {"name": "high", "mf": {"type": "trapezoid", "a": 4, "b": 7, "c": 10, "d": 10}},
                ],
            },
            {
                "name": "y",
                "kind": "ratio",
                "domain": [0.0, 1.0],
                "terms": [
                    {"name": "t", "mf": {"type": "trapezoid", "a": 0, "b": 0.4, "c": 0.6, "d": 1}}
                ],
            },
        ],
        "fis": {
            "inputs": ["x"],
            "outputs": ["y"],
            "rules": "if x is low then y is t\n",
            "defuzz_resolution": 101,
        },
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="cat.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestRoundTrip:
    def test_save_load_preserves_catalog(self, tmp_path):
        cat = Catalog(
            variables={
                "v": LinguisticVariable(
                    "v", "interval", Interval(-1.0, 1.0),
                    {"g": Gauss2(0.5, 0.0, 0.3, 0.5, 0.1, 0.4)},
                ),
                "n": LinguisticVariable(
                    "n", "nominal", CodeList(["a", "b"]), {"isa": CrispLabel(["a"])}
                ),
            },
            metadata={"note": "round trip", "count": 2},
        )
        path = tmp_path / "cat.json"
        save_catalog(cat, path)
        loaded = load_catalog(path)
        assert loaded.variables == cat.variables
        assert loaded.metadata == cat.metadata
        assert loaded.fis is None

    @pytest.mark.parametrize(
        "bad",
        [
            # a lone surrogate has no UTF-8 encoding
            Catalog(variables={
                "c": LinguisticVariable(
                    "c", "nominal", CodeList(["\ud800"]), {"t": CrispLabel(["\ud800"])}
                ),
            }),
            # JSON has no NaN and no sets
            Catalog(variables={}, metadata={"weight": float("nan")}),
            Catalog(variables={}, metadata={"tags": {"a"}}),
        ],
        ids=["surrogate", "nan-metadata", "set-metadata"],
    )
    def test_failed_save_keeps_the_old_file(self, tmp_path, bad):
        path = tmp_path / "cat.json"
        path.write_text("old catalog\n", encoding="utf-8")
        with pytest.raises(DefinitionError, match="cannot be saved"):
            save_catalog(bad, path)
        assert path.read_bytes() == b"old catalog\n"

    def test_save_over_a_longer_catalog(self, tmp_path, case2_catalog):
        # the file is overwritten in place, so the old tail must be cut off
        path = tmp_path / "cat.json"
        save_catalog(case2_catalog, path)
        small = load_catalog(write_doc(tmp_path, minimal_doc(), name="small.json"))
        assert len(dumps_catalog(small)) < path.stat().st_size
        save_catalog(small, path)
        assert path.read_bytes() == dumps_catalog(small).encode("utf-8")
        assert load_catalog(path).variables == small.variables

    def test_byte_stable(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc())
        first = dumps_catalog(load_catalog(path))
        (tmp_path / "second.json").write_text(first, encoding="utf-8")
        second = dumps_catalog(load_catalog(tmp_path / "second.json"))
        assert first == second

    def test_packaged_fixtures_byte_stable(self, tmp_path):
        for name in ("case1_distance.json", "case2_distance_gender.json"):
            with resources.as_file(
                resources.files("lingmap").joinpath("fixtures", name)
            ) as path:
                original = path.read_text(encoding="utf-8")
                assert dumps_catalog(load_catalog(path)) == original

    def test_integers_normalized_to_floats(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc())
        loaded = load_catalog(path)
        mf = loaded.variables["x"].terms["low"]
        assert isinstance(mf.c, float) and mf.c == 3.0
        assert '"c": 3.0' in dumps_catalog(loaded)

    def test_trailing_newline_and_indent(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc())
        text = dumps_catalog(load_catalog(path))
        assert text.endswith("}\n")
        assert '\n  "schema_version": 1,\n' in text

    def test_fis_round_trip(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc())
        fis = load_fis(path)
        out = tmp_path / "fis.json"
        save_catalog(Catalog(metadata={"via": "save_catalog"}, fis=fis), out)
        again = load_fis(out)
        assert again.rules == fis.rules
        assert again.defuzz_resolution == fis.defuzz_resolution
        assert again.inputs == fis.inputs

    def test_catalog_of_a_system_reloads_byte_identically(self, tmp_path, case1_catalog):
        out = tmp_path / "case1.json"
        save_catalog(Catalog(fis=case1_catalog.fis), out)
        text = out.read_text(encoding="utf-8")
        assert dumps_catalog(load_catalog(out)) == text
        # the system's variables, inputs first, are the fixture's own
        whole = Catalog(metadata=case1_catalog.metadata, fis=case1_catalog.fis)
        assert dumps_catalog(whole) == dumps_catalog(case1_catalog)

    def test_catalog_variable_must_match_its_system(self, case1_catalog):
        fis = case1_catalog.fis
        ind = fis.inputs["individualism"]
        swapped = {"LC1": ind.terms["LC2"], "LC2": ind.terms["LC1"]}
        other = dataclasses.replace(ind, terms=swapped)
        with pytest.raises(DefinitionError, match="'individualism' differs"):
            Catalog(variables={"individualism": other}, fis=fis)

    def test_catalog_key_must_be_the_variable_name(self, case1_catalog):
        ind = case1_catalog.variables["individualism"]
        with pytest.raises(
            DefinitionError, match="catalog key 'idv' does not match variable name 'individualism'"
        ):
            Catalog(variables={"idv": ind})

    simple_float = st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    )
    width = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False)
    shapes = {
        "trapezoid": st.lists(simple_float, min_size=4, max_size=4).map(
            lambda abcd: Trapezoid(*sorted(abcd))
        ),
        "gauss2": st.builds(
            Gauss2, simple_float, simple_float, width, simple_float, simple_float, width
        ),
        "crisp": st.sets(st.text(), min_size=1, max_size=5).map(CrispLabel),
    }

    def test_every_shape_has_a_strategy(self):
        assert set(self.shapes) == set(SHAPES)

    @given(st.one_of(*shapes.values()), simple_float)
    def test_any_shape_round_trips_exactly(self, mf, note):
        if isinstance(mf, CrispLabel):
            domain, kind = CodeList(sorted(mf.levels)), "nominal"
        else:
            domain, kind = Interval(-2e9, 2e9), "ratio"
        var = LinguisticVariable("v", kind, domain, {"t": mf})
        cat = Catalog(variables={"v": var}, metadata={"note": note})
        text = dumps_catalog(cat)
        reparsed = catalog_from_doc(json.loads(text))
        assert reparsed.variables == cat.variables
        assert dumps_catalog(reparsed) == text


def golden_doc():
    """A valid catalog with each kind of node: interval and code-list domains, a
    trapezoid, a gauss2 and two crisp terms, and a fis section."""
    return {
        "schema_version": 1,
        "metadata": {"source": "golden"},
        "variables": [
            {
                "name": "dist",
                "kind": "ratio",
                "domain": [0.0, 10.0],
                "terms": [
                    {"name": "near", "mf": {"type": "trapezoid", "a": 0, "b": 0, "c": 3, "d": 6}},
                    {
                        "name": "far",
                        "mf": {
                            "type": "gauss2",
                            "alpha1": 1, "beta1": 8, "gamma1": 2,
                            "alpha2": 0.5, "beta2": 10, "gamma2": 1,
                        },
                    },
                ],
            },
            {
                "name": "gender",
                "kind": "nominal",
                "domain": {"codes": ["f", "m"]},
                "terms": [
                    {"name": "female", "mf": {"type": "crisp", "levels": ["f"]}},
                    {"name": "male", "mf": {"type": "crisp", "levels": ["m"]}},
                ],
            },
            {
                "name": "y",
                "kind": "ratio",
                "domain": [0.0, 1.0],
                "terms": [
                    {"name": "t", "mf": {"type": "trapezoid", "a": 0, "b": 0.4, "c": 0.6, "d": 1}}
                ],
            },
        ],
        "fis": {
            "inputs": ["dist", "gender"],
            "outputs": ["y"],
            "rules": "if dist is near and gender is female then y is t\n",
            "defuzz_resolution": 101,
        },
    }


DELETE = object()
# written into the file as an integer of 4301 digits, which json.dumps cannot write
DIGITS_4301 = "<4301 digits>"


def edit_doc(doc, pointer, value):
    """doc with the node at a JSON pointer set to value, or removed if value is DELETE;
    the pointer "" replaces doc."""
    if not pointer:
        return value
    *parents, last = pointer.split("/")[1:]
    node = doc
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    if isinstance(node, list):
        last = int(last)
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


# mutation name -> ({pointer: value}, str() of the SchemaError load_catalog raises).
# A row with two edits pins which fault is reported first.
GOLDEN_ERRORS = {
    "root_array": ({"": []}, "/: expected an object, got list"),
    "root_unknown_key_before_version": (
        {"/extra": 1, "/schema_version": 2},
        "/: unknown key 'extra'",
    ),
    "version_missing": ({"/schema_version": DELETE}, "/: missing required key 'schema_version'"),
    "version_2": (
        {"/schema_version": 2},
        "/schema_version: unsupported schema version 2 (expected 1)",
    ),
    "version_string": (
        {"/schema_version": "1"},
        "/schema_version: unsupported schema version '1' (expected 1)",
    ),
    "version_true": (
        {"/schema_version": True},
        "/schema_version: unsupported schema version True (expected 1)",
    ),
    "version_float": (
        {"/schema_version": 1.0},
        "/schema_version: unsupported schema version 1.0 (expected 1)",
    ),
    "metadata_array": ({"/metadata": []}, "/metadata: expected an object, got list"),
    "variables_missing": ({"/variables": DELETE}, "/: missing required key 'variables'"),
    "variables_object": ({"/variables": {}}, "/variables: expected an array, got dict"),
    "variables_empty": ({"/variables": []}, "/variables: needs at least one variable"),
    "variable_string": ({"/variables/0": "dist"}, "/variables/0: expected an object, got str"),
    "variable_duplicate": (
        {"/variables/2/name": "dist"},
        "/variables/2/name: duplicate variable name 'dist'",
    ),
    "variable_unknown_key_before_name": (
        {"/variables/0/color": "red", "/variables/0/name": DELETE},
        "/variables/0: unknown key 'color'",
    ),
    "name_missing": ({"/variables/0/name": DELETE}, "/variables/0: missing required key 'name'"),
    "name_before_kind": (
        {"/variables/0/name": 7, "/variables/0/kind": "numeric"},
        "/variables/0/name: expected a string, got int",
    ),
    "name_empty": ({"/variables/0/name": ""}, "/variables/0: variable name must be nonempty"),
    "name_not_an_identifier": (
        {"/variables/0/name": "distance to robot"},
        "/variables/0: variable name 'distance to robot' must be a letter followed by letters, "
        "digits or '_'",
    ),
    "kind_missing": ({"/variables/0/kind": DELETE}, "/variables/0: missing required key 'kind'"),
    "kind_int": ({"/variables/0/kind": 3}, "/variables/0/kind: expected a string, got int"),
    "kind_before_domain": (
        {"/variables/0/kind": "numeric", "/variables/0/domain": "wide"},
        "/variables/0/kind: unknown kind 'numeric' (use one of nominal, ordinal, interval, ratio)",
    ),
    "domain_missing": (
        {"/variables/0/domain": DELETE},
        "/variables/0: missing required key 'domain'",
    ),
    "domain_string": (
        {"/variables/0/domain": "wide"},
        '/variables/0/domain: domain must be a [lo, hi] pair or {"codes": [...]}',
    ),
    "domain_three_bounds": (
        {"/variables/0/domain": [0, 5, 10]},
        "/variables/0/domain: interval domain must be a [lo, hi] pair",
    ),
    "domain_hi_null": (
        {"/variables/0/domain": [0, None]},
        "/variables/0/domain/1: expected a number, got NoneType",
    ),
    "domain_lo_bool": (
        {"/variables/0/domain": [True, 10]},
        "/variables/0/domain/0: expected a number, got bool",
    ),
    "domain_lo_before_hi": (
        {"/variables/0/domain": ["0", None]},
        "/variables/0/domain/0: expected a number, got str",
    ),
    "domain_hi_infinite": (
        {"/variables/0/domain": [0, math.inf]},
        "/variables/0/domain/1: expected a finite number, got inf",
    ),
    "domain_lo_nan": (
        {"/variables/0/domain": [math.nan, 10]},
        "/variables/0/domain/0: expected a finite number, got nan",
    ),
    "domain_hi_401_digits": (
        {"/variables/0/domain": [0, 10**400]},
        "/variables/0/domain/1: expected a finite number, got an integer too large for a float",
    ),
    "domain_reversed": (
        {"/variables/0/domain": [10.0, 0.0]},
        "/variables/0/domain: interval needs finite lo < hi, got [10.0, 0.0]",
    ),
    "domain_width_overflows": (
        {"/variables/2/domain": [-1.7e308, 1.7e308]},
        "/variables/2/domain: interval needs a finite width hi - lo, got [-1.7e+308, 1.7e+308]",
    ),
    "domain_before_terms": (
        {"/variables/0/domain": [5.0], "/variables/0/terms": DELETE},
        "/variables/0/domain: interval domain must be a [lo, hi] pair",
    ),
    "codes_missing": (
        {"/variables/1/domain": {}},
        "/variables/1/domain: missing required key 'codes'",
    ),
    "codes_unknown_key_before_codes": (
        {"/variables/1/domain": {"order": "asc"}},
        "/variables/1/domain: unknown key 'order'",
    ),
    "codes_string": (
        {"/variables/1/domain/codes": "fm"},
        "/variables/1/domain/codes: expected an array, got str",
    ),
    "codes_int": (
        {"/variables/1/domain/codes/1": 2},
        "/variables/1/domain/codes/1: expected a string, got int",
    ),
    "codes_empty": (
        {"/variables/1/domain/codes": []},
        "/variables/1/domain: code list must be nonempty",
    ),
    "codes_duplicate": (
        {"/variables/1/domain/codes": ["f", "f"]},
        "/variables/1/domain: code list contains duplicates",
    ),
    "terms_missing": ({"/variables/0/terms": DELETE}, "/variables/0: missing required key 'terms'"),
    "terms_object": ({"/variables/0/terms": {}}, "/variables/0/terms: expected an array, got dict"),
    "terms_empty": (
        {"/variables/0/terms": []},
        "/variables/0: variable 'dist' needs at least one term",
    ),
    "term_string": (
        {"/variables/0/terms/0": "near"},
        "/variables/0/terms/0: expected an object, got str",
    ),
    "term_unknown_key": (
        {"/variables/0/terms/0/weight": 1},
        "/variables/0/terms/0: unknown key 'weight'",
    ),
    "term_name_missing": (
        {"/variables/0/terms/0/name": DELETE},
        "/variables/0/terms/0: missing required key 'name'",
    ),
    "term_name_before_mf": (
        {"/variables/0/terms/0/name": 1, "/variables/0/terms/0/mf": DELETE},
        "/variables/0/terms/0/name: expected a string, got int",
    ),
    "term_name_empty": (
        {"/variables/0/terms/0/name": ""},
        "/variables/0: variable 'dist': term names must be nonempty",
    ),
    "term_name_not_an_identifier": (
        {"/variables/0/terms/0/name": "very near"},
        "/variables/0: variable 'dist': term name 'very near' must be a letter followed by "
        "letters, digits or '_'",
    ),
    "term_duplicate": (
        {"/variables/0/terms/1/name": "near"},
        "/variables/0/terms/1/name: duplicate term name 'near'",
    ),
    "mf_missing": (
        {"/variables/0/terms/0/mf": DELETE},
        "/variables/0/terms/0: missing required key 'mf'",
    ),
    "mf_array": (
        {"/variables/0/terms/0/mf": [0, 0, 3, 6]},
        "/variables/0/terms/0/mf: expected an object, got list",
    ),
    "mf_type_missing": (
        {"/variables/0/terms/0/mf/type": DELETE},
        "/variables/0/terms/0/mf: missing required key 'type'",
    ),
    "mf_type_int": (
        {"/variables/0/terms/0/mf/type": 1},
        "/variables/0/terms/0/mf/type: expected a string, got int",
    ),
    "mf_type_before_unknown_key": (
        {"/variables/0/terms/0/mf/type": "triangle", "/variables/0/terms/0/mf/e": 1},
        "/variables/0/terms/0/mf/type: unknown membership type 'triangle' (use one of "
        "trapezoid, gauss2, crisp)",
    ),
    "mf_unknown_key_before_missing": (
        {"/variables/0/terms/0/mf/e": 1, "/variables/0/terms/0/mf/a": DELETE},
        "/variables/0/terms/0/mf: unknown key 'e'",
    ),
    "mf_key_of_other_shape": (
        {"/variables/0/terms/0/mf/gamma1": 1},
        "/variables/0/terms/0/mf: unknown key 'gamma1'",
    ),
    "trapezoid_c_missing": (
        {"/variables/0/terms/0/mf/c": DELETE},
        "/variables/0/terms/0/mf: missing required key 'c'",
    ),
    "trapezoid_a_before_d": (
        {"/variables/0/terms/0/mf/a": "x", "/variables/0/terms/0/mf/d": DELETE},
        "/variables/0/terms/0/mf/a: expected a number, got str",
    ),
    "trapezoid_a_minus_infinity": (
        {"/variables/0/terms/0/mf/a": -math.inf},
        "/variables/0/terms/0/mf/a: expected a finite number, got -inf",
    ),
    "trapezoid_a_huge_digits": (
        {"/variables/0/terms/0/mf/a": DIGITS_4301},
        "/: not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: value"
        " has 4301 digits; use sys.set_int_max_str_digits() to increase the limit",
    ),
    "trapezoid_out_of_order": (
        {"/variables/0/terms/0/mf/a": 5, "/variables/0/terms/0/mf/b": 1},
        "/variables/0/terms/0/mf: trapezoid breakpoints must satisfy a <= b <= c <= d, with "
        "finite edge widths b - a and d - c, one ulp if vertical, got (5.0, 1.0, 3.0, 6.0)",
    ),
    "trapezoid_edge_overflows": (
        {
            "/variables/0/terms/0/mf/a": -1.7e308,
            "/variables/0/terms/0/mf/b": 1.7e308,
            "/variables/0/terms/0/mf/c": 1.7e308,
            "/variables/0/terms/0/mf/d": 1.7e308,
        },
        "/variables/0/terms/0/mf: trapezoid breakpoints must satisfy a <= b <= c <= d, with "
        "finite edge widths b - a and d - c, one ulp if vertical, got (-1.7e+308, 1.7e+308, "
        "1.7e+308, 1.7e+308)",
    ),
    "gauss2_gamma2_missing": (
        {"/variables/0/terms/1/mf/gamma2": DELETE},
        "/variables/0/terms/1/mf: missing required key 'gamma2'",
    ),
    "gauss2_alpha1_string": (
        {"/variables/0/terms/1/mf/alpha1": "1"},
        "/variables/0/terms/1/mf/alpha1: expected a number, got str",
    ),
    "gauss2_gamma1_zero": (
        {"/variables/0/terms/1/mf/gamma1": 0},
        "/variables/0/terms/1/mf: gauss2 widths must be positive with a finite nonzero square, "
        "got gamma1=0.0, gamma2=1.0",
    ),
    "gauss2_gamma1_square_underflows": (
        {"/variables/0/terms/1/mf/gamma1": 1e-200},
        "/variables/0/terms/1/mf: gauss2 widths must be positive with a finite nonzero square, "
        "got gamma1=1e-200, gamma2=1.0",
    ),
    "crisp_on_interval": (
        {"/variables/0/terms/0/mf": {"type": "crisp", "levels": ["f"]}},
        "/variables/0: variable 'dist': term 'near' must be a trapezoid or gauss2 shape on an "
        "interval domain",
    ),
    "trapezoid_on_codes": (
        {"/variables/1/terms/0/mf": {"type": "trapezoid", "a": 0, "b": 0, "c": 1, "d": 1}},
        "/variables/1: variable 'gender': term 'female' must be a crisp label on a code-list "
        "domain",
    ),
    "crisp_levels_missing": (
        {"/variables/1/terms/0/mf/levels": DELETE},
        "/variables/1/terms/0/mf: missing required key 'levels'",
    ),
    "crisp_unknown_key": (
        {"/variables/1/terms/0/mf/a": 1},
        "/variables/1/terms/0/mf: unknown key 'a'",
    ),
    "crisp_levels_string": (
        {"/variables/1/terms/0/mf/levels": "f"},
        "/variables/1/terms/0/mf/levels: expected an array, got str",
    ),
    "crisp_levels_empty": (
        {"/variables/1/terms/0/mf/levels": []},
        "/variables/1/terms/0/mf/levels: needs at least one code",
    ),
    "crisp_level_int": (
        {"/variables/1/terms/0/mf/levels": ["f", 0]},
        "/variables/1/terms/0/mf/levels/1: expected a string, got int",
    ),
    "crisp_level_repeated": (
        {"/variables/1/terms/1/mf/levels": ["m", "m"]},
        "/variables/1/terms/1/mf: crisp label contains duplicate levels",
    ),
    "crisp_level_outside_domain": (
        {"/variables/1/terms/0/mf/levels": ["x"]},
        "/variables/1: variable 'gender': term 'female' matches codes ['x'] outside the domain "
        "{f, m}",
    ),
    "fis_array": ({"/fis": []}, "/fis: expected an object, got list"),
    "fis_unknown_key": ({"/fis/method": "mamdani"}, "/fis: unknown key 'method'"),
    "fis_inputs_missing": ({"/fis/inputs": DELETE}, "/fis: missing required key 'inputs'"),
    "fis_inputs_string": ({"/fis/inputs": "dist"}, "/fis/inputs: expected an array, got str"),
    "fis_inputs_empty": ({"/fis/inputs": []}, "/fis/inputs: needs at least one variable"),
    "fis_input_int": ({"/fis/inputs/1": 1}, "/fis/inputs/1: expected a string, got int"),
    "fis_input_unknown_before_int": (
        {"/fis/inputs": ["age", 1]},
        "/fis/inputs/0: unknown variable 'age'",
    ),
    "fis_input_unknown_after_repeat": (
        {"/fis/inputs": ["dist", "dist", "age"]},
        "/fis/inputs/2: unknown variable 'age'",
    ),
    "fis_input_repeated": (
        {"/fis/inputs": ["dist", "gender", "dist"]},
        "/fis/inputs/2: duplicate variable name 'dist'",
    ),
    "fis_input_repeat_before_outputs": (
        {"/fis/inputs": ["dist", "dist"], "/fis/outputs": ["speed"]},
        "/fis/inputs/1: duplicate variable name 'dist'",
    ),
    "fis_inputs_before_outputs": (
        {"/fis/inputs/0": "age", "/fis/outputs": DELETE},
        "/fis/inputs/0: unknown variable 'age'",
    ),
    "fis_outputs_missing": ({"/fis/outputs": DELETE}, "/fis: missing required key 'outputs'"),
    "fis_outputs_empty": ({"/fis/outputs": []}, "/fis/outputs: needs at least one variable"),
    "fis_output_unknown": ({"/fis/outputs/0": "speed"}, "/fis/outputs/0: unknown variable 'speed'"),
    "fis_output_repeated": (
        {"/fis/outputs": ["y", "y"]},
        "/fis/outputs/1: duplicate variable name 'y'",
    ),
    "fis_output_also_input": (
        {"/fis/outputs/0": "dist"},
        "/fis: variables cannot be both input and output: ['dist']",
    ),
    "fis_output_on_codes": (
        {
            "/fis/inputs": ["dist"],
            "/fis/outputs": ["gender"],
            "/fis/rules": "if dist is near then gender is female\n",
        },
        "/fis: output variable 'gender' must have an interval domain",
    ),
    "fis_rules_missing": ({"/fis/rules": DELETE}, "/fis: missing required key 'rules'"),
    "fis_rules_array": (
        {"/fis/rules": ["if dist is near then y is t"]},
        "/fis/rules: expected a string, got list",
    ),
    "fis_rules_before_resolution": (
        {"/fis/rules": 1, "/fis/defuzz_resolution": "x"},
        "/fis/rules: expected a string, got int",
    ),
    "fis_rules_empty": ({"/fis/rules": ""}, "/fis/rules: 1:1: no rules found in input"),
    "fis_rules_unknown_term": (
        {"/fis/rules": "if dist is enormous then y is t\n"},
        "/fis/rules: 1:4: variable 'dist' has no term 'enormous' (known terms: near, far)",
    ),
    "fis_resolution_float": (
        {"/fis/defuzz_resolution": 101.0},
        "/fis/defuzz_resolution: expected an integer",
    ),
    "fis_resolution_one": (
        {"/fis/defuzz_resolution": 1},
        "/fis: defuzz_resolution must be an integer from 2 to 1000000",
    ),
    "fis_resolution_past_the_bound": (
        {"/fis/defuzz_resolution": MAX_DEFUZZ_RESOLUTION + 1},
        "/fis: defuzz_resolution must be an integer from 2 to 1000000",
    ),
    "fis_rules_parsed_before_resolution_range": (
        {"/fis/defuzz_resolution": 1, "/fis/rules": "if dist near"},
        "/fis/rules: 1:9: expected 'is', got 'near'",
    ),
}


class TestSchemaErrors:
    def assert_path(self, tmp_path, doc, path_fragment):
        file = write_doc(tmp_path, doc)
        with pytest.raises(SchemaError) as err:
            load_catalog(file)
        assert path_fragment in err.value.path
        return err.value

    def test_golden_doc_loads(self):
        catalog = catalog_from_doc(golden_doc())
        assert list(catalog.variables) == ["dist", "gender", "y"]

    @pytest.mark.parametrize("mutation", list(GOLDEN_ERRORS))
    def test_first_error_word_for_word(self, tmp_path, mutation):
        edits, expected = GOLDEN_ERRORS[mutation]
        doc = golden_doc()
        for pointer, value in edits.items():
            doc = edit_doc(doc, pointer, value)
        file = tmp_path / "cat.json"
        text = json.dumps(doc).replace(f'"{DIGITS_4301}"', "1" + "0" * 4300)
        file.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_catalog(file)
        assert str(err.value) == expected

    def test_wrong_version(self, tmp_path):
        self.assert_path(tmp_path, minimal_doc(schema_version=2), "/schema_version")

    def test_missing_version(self, tmp_path):
        doc = minimal_doc()
        del doc["schema_version"]
        file = write_doc(tmp_path, doc)
        with pytest.raises(SchemaError):
            load_catalog(file)

    def test_missing_variables(self, tmp_path):
        doc = minimal_doc()
        del doc["variables"]
        file = write_doc(tmp_path, doc)
        with pytest.raises(SchemaError) as err:
            load_catalog(file)
        assert "variables" in str(err.value)

    def test_bad_variable_name_type(self, tmp_path):
        doc = minimal_doc()
        doc["variables"][0]["name"] = 7
        err = self.assert_path(tmp_path, doc, "/variables/0/name")
        assert "string" in err.message

    def test_bad_kind(self, tmp_path):
        doc = minimal_doc()
        doc["variables"][1]["kind"] = "numeric"
        self.assert_path(tmp_path, doc, "/variables/1/kind")

    def test_bad_domain(self, tmp_path):
        doc = minimal_doc()
        doc["variables"][0]["domain"] = [5.0]
        self.assert_path(tmp_path, doc, "/variables/0/domain")

    def test_reversed_interval(self, tmp_path):
        doc = minimal_doc()
        doc["variables"][0]["domain"] = [10.0, 0.0]
        self.assert_path(tmp_path, doc, "/variables/0/domain")

    def test_unknown_mf_type(self, tmp_path):
        doc = minimal_doc()
        doc["variables"][0]["terms"][0]["mf"] = {"type": "triangle", "a": 1}
        err = self.assert_path(tmp_path, doc, "/variables/0/terms/0/mf")
        assert "triangle" in err.message

    def test_bad_trapezoid_parameter_path(self, tmp_path):
        doc = minimal_doc()
        doc["variables"][0]["terms"][0]["mf"]["b"] = "wide"
        self.assert_path(tmp_path, doc, "/variables/0/terms/0/mf/b")

    def test_out_of_order_trapezoid(self, tmp_path):
        doc = minimal_doc()
        doc["variables"][0]["terms"][0]["mf"].update(a=5, b=1)
        err = self.assert_path(tmp_path, doc, "/variables/0/terms/0/mf")
        assert "a <= b <= c <= d" in err.message

    def test_non_finite_number_rejected(self, tmp_path):
        file = tmp_path / "inf.json"
        text = json.dumps(minimal_doc()).replace('"a": 0', '"a": -Infinity', 1)
        file.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError):
            load_catalog(file)

    @pytest.mark.parametrize("digits", [401, 4301])
    @pytest.mark.parametrize("pointer", ["/variables/0/domain/1", "/variables/0/terms/0/mf/d"])
    def test_integer_too_large_for_a_float(self, tmp_path, pointer, digits):
        doc = edit_doc(minimal_doc(), pointer, "<digits>")
        file = tmp_path / "cat.json"
        file.write_text(json.dumps(doc).replace('"<digits>"', "9" * digits), encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_catalog(file)
        if digits == 401:
            too_large = "expected a finite number, got an integer too large for a float"
            assert (err.value.path, err.value.message) == (pointer, too_large)
        else:
            assert err.value.path == "/"
            assert err.value.message.startswith("not valid JSON: Exceeds the limit (4300 digits)")

    def test_duplicate_variable(self, tmp_path):
        doc = minimal_doc()
        doc["variables"].append(doc["variables"][0])
        self.assert_path(tmp_path, doc, "/variables/2/name")

    def test_duplicate_term(self, tmp_path):
        doc = minimal_doc()
        doc["variables"][0]["terms"].append(doc["variables"][0]["terms"][0])
        self.assert_path(tmp_path, doc, "/variables/0/terms/2/name")

    def test_unknown_key_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["variables"][0]["color"] = "red"
        self.assert_path(tmp_path, doc, "/variables/0")

    @pytest.mark.parametrize("key", ["inputs", "outputs"])
    def test_fis_needs_inputs_and_outputs(self, tmp_path, key):
        doc = minimal_doc()
        doc["fis"][key] = []
        err = self.assert_path(tmp_path, doc, f"/fis/{key}")
        assert err.path == f"/fis/{key}"

    def test_fis_unknown_variable(self, tmp_path):
        doc = minimal_doc()
        doc["fis"]["inputs"] = ["z"]
        self.assert_path(tmp_path, doc, "/fis/inputs/0")

    def test_fis_bad_rules_reported_at_rules_path(self, tmp_path):
        doc = minimal_doc()
        doc["fis"]["rules"] = "if x low then y is t"
        err = self.assert_path(tmp_path, doc, "/fis/rules")
        assert "expected" in err.message

    def test_fis_rule_term_must_exist(self, tmp_path):
        doc = minimal_doc()
        doc["fis"]["rules"] = "if x is enormous then y is t"
        self.assert_path(tmp_path, doc, "/fis/rules")

    def test_not_json(self, tmp_path):
        file = tmp_path / "broken.json"
        file.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_catalog(file)
        assert "JSON" in str(err.value)

    def test_load_fis_requires_fis_section(self, tmp_path):
        doc = minimal_doc()
        del doc["fis"]
        file = write_doc(tmp_path, doc)
        load_catalog(file)  # valid as a catalog
        with pytest.raises(SchemaError) as err:
            load_fis(file)
        assert err.value.path == "/fis"


def reference_load_training_csv(path) -> list[float]:
    """The row loop load_training_csv had before its fast path, as an oracle.

    It looks for a blank row first, as the loop does again; the other oracle,
    row_loop_load_training_csv, looks only in a row it cannot take.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: file is empty") from None
        cols = [h.strip().lower() for h in header]
        if cols not in (["label", "value"], ["value"]):
            raise DatasetError(
                f"{path}: header must be 'label,value' or 'value', got {','.join(header)!r}"
            )
        values: list[float] = []
        for row_no, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(cols):
                raise DatasetError(
                    f"{path}: row {row_no}: expected {len(cols)} column(s), got {len(row)}"
                )
            raw = row[-1].strip()
            try:
                value = float(raw)
            except ValueError:
                raise DatasetError(
                    f"{path}: row {row_no}: could not parse {raw!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DatasetError(f"{path}: row {row_no}: non-finite value {raw!r}")
            values.append(value)
    if not values:
        raise DatasetError(f"{path}: no data rows")
    return values


def row_loop_load_training_csv(path) -> list[float]:
    """load_training_csv's csv row loop as it read every file before its one-pass conversion.

    An oracle: it reads the file as text, fails on text that is not UTF-8
    and on csv errors as that loop did, and returns plain floats.
    """
    row_no = 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{path}: file is empty") from None
            row_no = 1
            cols = [h.strip().lower() for h in header]
            if cols not in (["label", "value"], ["value"]):
                raise DatasetError(
                    f"{path}: header must be 'label,value' or 'value', got {','.join(header)!r}"
                )
            width = len(cols)
            values: list[float] = []
            for row_no, row in enumerate(reader, start=2):
                if len(row) != width:
                    if not any(cell.strip() for cell in row):
                        continue
                    raise DatasetError(
                        f"{path}: row {row_no}: expected {width} column(s), got {len(row)}"
                    )
                raw = row[-1].strip()
                try:
                    value = float(raw)
                except ValueError:
                    if not any(cell.strip() for cell in row):
                        continue
                    raise DatasetError(
                        f"{path}: row {row_no}: could not parse {raw!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise DatasetError(f"{path}: row {row_no}: non-finite value {raw!r}")
                values.append(value)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DatasetError(f"{path}: row {row_no + 1}: {exc}") from None
    if not values:
        raise DatasetError(f"{path}: no data rows")
    return values


def assert_loads_as_the_row_loop(path):
    """load_training_csv gives the row loop's values bit for bit, or its DatasetError message."""
    try:
        want = row_loop_load_training_csv(path)
    except DatasetError as err:
        with pytest.raises(DatasetError) as got:
            load_training_csv(path)
        assert str(got.value) == str(err)
    else:
        assert load_training_csv(path).values.tobytes() == np.array(want).tobytes()


# whitespace str.strip() removes, ASCII and not: no-break space, em space
# and the information separators \x1c-\x1f
_pads = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u2003", "\x1c", "\x1f"])
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["1e3", "-0.0", ".5", "1_000", "+7"]),
)
_padded_numbers = st.tuples(_pads, _numbers, _pads).map("".join)
_blank_cells = st.sampled_from(["", " ", "\t", "\u00a0"])
_bad_values = st.one_of(
    st.sampled_from(["nan", "NaN", " inf", "-inf ", "Infinity", "1e999"]),
    st.sampled_from(["oops", "1..2", "0x10", "-", "e3", '"1,5"']),
    _blank_cells,
)
_labels = st.one_of(
    st.sampled_from(["Guatemala", " padded ", "", '"Costa Rica, San José"', '"a,b,c"']),
    _blank_cells,
)
_blank_rows = st.sampled_from(["", ",", " , ", "\t,\t", ",,", " "])


@st.composite
def csv_texts(draw):
    """CSV text for load_training_csv: mostly well-formed, with every kind of bad row.

    Each choice is drawn as an integer whose small values pick a good row
    or cell, so about 1 row in 6 is bad and 1 in 12 blank, 1 header in 4
    is bad, and Hypothesis shrinks towards good text.
    """
    headers = ["value", "label,value", " Label , VALUE ", "value,label"]
    header = headers[draw(st.integers(0, 3))]
    width = 1 if header == "value" else 2
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 11))
        if kind < 10:
            labels = draw(st.lists(_labels, min_size=width - 1, max_size=width - 1))
            value = draw(_padded_numbers if kind < 9 else _bad_values)
            rows.append(",".join([*labels, value]))
        elif kind == 10:
            rows.append(draw(_blank_rows))
        else:
            cells = draw(st.lists(st.one_of(_labels, _padded_numbers), max_size=3))
            rows.append(",".join(cells) if len(cells) != width else ",".join(cells) + ",x")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *rows]) + draw(st.sampled_from(["", newline]))


# the cells and rows the one-pass conversion takes, and those it hands to
# the row loop: quotes, blank rows, separators, non-finite values, widths
_loop_cells = st.sampled_from(
    ['"Korea, South"', '"say ""hi"""', '"1"', '"', "", " ", "nan", "-inf", "Infinity",
     "1e999", "1_000", "\x1c1\x1f", "\x1d2\x1e", "1\x00", "\u00a03\u2003", "\ufeff4",
     "0x10", "oops", "5\u2028", "\u0661\u0662"]
)
_row_cells = st.one_of(_padded_numbers, _labels, _loop_cells)


@st.composite
def csv_bytes(draw):
    """Training CSV bytes: plain rows, or any mix of the rows only the row loop reads.

    Each row is a label and a number most of the time; any cell can be
    drawn from every kind the loop alone handles, any row can have a wrong
    width or a trailing comma, and the text can start with a byte-order
    mark, end its lines with CR LF or CR, or hold a byte that is not UTF-8.
    """
    header = draw(st.sampled_from(["value", "label,value", " Label , VALUE ", "value,label", "val"]))
    width = 1 if header.strip() == "value" else 2
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 7))
        if kind < 5:
            rows.append(",".join([draw(_labels)] * (width - 1) + [draw(_padded_numbers)]))
        elif kind == 5:
            rows.append(",".join(draw(st.lists(_row_cells, min_size=width, max_size=width))))
        elif kind == 6:
            rows.append(",".join(draw(st.lists(_row_cells, max_size=4))))
        else:
            rows.append(draw(_blank_rows))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = newline.join([header, *rows]) + draw(st.sampled_from(["", newline]))
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestTrainingCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_labelled(self, tmp_path):
        path = self.write(tmp_path, "label,value\nGuatemala,6\nEcuador,8\n")
        ts = load_training_csv(path)
        assert ts.values.tolist() == [6.0, 8.0]

    def test_unlabelled(self, tmp_path):
        path = self.write(tmp_path, "value\n1.5\n2.5\n")
        ts = load_training_csv(path)
        assert ts.values.tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("text", ["value\n1.5\n2.5\n", "label,value\na,1.5\nb,2.5\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text):
        # spreadsheet "CSV UTF-8" exports start the file with U+FEFF
        path = self.write(tmp_path, "\ufeff" + text)
        assert load_training_csv(path).values.tolist() == [1.5, 2.5]

    def test_header_case_insensitive(self, tmp_path):
        path = self.write(tmp_path, "Label,Value\na,1\n")
        assert load_training_csv(path).values.tolist() == [1.0]

    def test_blank_rows_skipped(self, tmp_path):
        path = self.write(tmp_path, "value\n1\n\n2\n")
        assert load_training_csv(path).values.tolist() == [1.0, 2.0]

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "country,score\na,1\n")
        with pytest.raises(DatasetError) as err:
            load_training_csv(path)
        assert "header" in str(err.value)

    def test_bad_value_reports_row_number(self, tmp_path):
        path = self.write(tmp_path, "label,value\na,1\nb,oops\n")
        with pytest.raises(DatasetError) as err:
            load_training_csv(path)
        assert "row 3" in str(err.value)
        assert "oops" in str(err.value)

    def test_non_finite_rejected(self, tmp_path):
        path = self.write(tmp_path, "value\nnan\n")
        with pytest.raises(DatasetError) as err:
            load_training_csv(path)
        assert "row 2" in str(err.value)

    def test_wrong_column_count(self, tmp_path):
        path = self.write(tmp_path, "value\n1,2\n")
        with pytest.raises(DatasetError) as err:
            load_training_csv(path)
        assert "row 2" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DatasetError):
            load_training_csv(path)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "value\n")
        with pytest.raises(DatasetError) as err:
            load_training_csv(path)
        assert "no data rows" in str(err.value)

    def test_fixture_loads(self, individualism_data):
        assert len(individualism_data) == 110
        assert individualism_data.values.min() == 6.0
        assert individualism_data.values.max() == 91.0

    @pytest.mark.parametrize("where, row", [("label", 3), ("header", 1)])
    def test_oversized_field_names_its_row(self, tmp_path, where, row):
        # csv.field_size_limit() is 131 072 characters
        big = "x" * 200_000
        header = big if where == "header" else "label,value"
        label = big if where == "label" else "b"
        path = self.write(tmp_path, f"{header}\na,1\n{label},2\n")
        with pytest.raises(DatasetError, match=rf"data.csv: row {row}: field larger than field limit"):
            load_training_csv(path)

    @settings(max_examples=300)
    @given(text=csv_texts())
    def test_loop_matches_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_text(text, encoding="utf-8")
        try:
            want = reference_load_training_csv(path)
        except DatasetError as err:
            with pytest.raises(DatasetError) as got:
                load_training_csv(path)
            assert str(got.value) == str(err)
        else:
            assert load_training_csv(path).values.tobytes() == np.array(want).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(data=csv_bytes())
    def test_matches_the_row_loop(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(data)
        assert_loads_as_the_row_loop(path)

    @pytest.mark.parametrize(
        "text",
        [
            'label,value\n"Korea, South",60\n"say ""hi""",5\n',
            'label,value\n"x,1\n5",7\n',
            "\ufefflabel,value\na,1\n",
            "\ufeffvalue\n1\n",
            "value\r\n1\r\n2\r\n",
            "value\r1\r2\r",
            "label,value\nx\r5,7\n",
            "value\n1\n\n2\n\n",
            "label,value\na,1\n , \n,\n\t,\u00a0\nb,2\n",
            "value\n\x1c1\x1f\n\x1d2\x1e\n",
            "label,value\na,\x1c1\n",
            "value\n1_000\n2\n",
            "value\n\u00a01\u2003\n\u0661\u0662\n",
            "value\n1\nnan\n",
            "label,value\na,1\nb,-inf\n",
            "value\n1e999\n",
            "label,value\na,1,2\n",
            "label,value\na\n",
            "value\n1,\n",
            "label,value\na,1,\n",
            "value\n",
            "value",
            "",
            "\n",
            "country,score\na,1\n",
            "value\n1\x00\n",
            "label,value\na\x00b,1\n",
            f"label,value\na,1\n{'x' * 200_000},2\n",
            "value\n" + "1\n" * 70_000 + "2" * 140_000 + "\n",
        ],
        ids=[
            "quoted-labels", "quoted-newline", "bom-labelled", "bom", "crlf", "cr", "cr-inside-a-row", "blank-rows", "blank-cells",
            "separators", "separator-in-label-row", "underscore", "unicode-spaces-and-digits",
            "nan", "inf", "overflow", "too-wide", "too-narrow", "trailing-comma",
            "trailing-comma-labelled", "header-only", "header-without-newline", "empty",
            "blank-header", "bad-header", "nul-value", "nul-label", "oversized-field",
            "oversized-field-in-a-long-file",
        ],
    )
    def test_each_kind_of_text_matches_the_row_loop(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_loads_as_the_row_loop(path)

    @pytest.mark.parametrize(
        "data",
        [
            b"value\n1\n\xff\n",
            b"\xffvalue\n1\n",
            b"label,value\na\xff,1\n",
            b"value\n" + b"1\n" * 5000 + b"\xff2\n",
        ],
        ids=["in-a-row", "in-the-header", "in-a-label", "past-the-first-chunk"],
    )
    def test_text_that_is_not_utf8_matches_the_row_loop(self, tmp_path, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert_loads_as_the_row_loop(path)
        with pytest.raises(DatasetError, match="not UTF-8 text"):
            load_training_csv(path)

    @pytest.mark.parametrize(
        "text, want",
        [
            ("value\n1.5\n-2\n", [1.5, -2.0]),
            ("value\n1.5\n-2", [1.5, -2.0]),
            ("label,value\nGuatemala,6\n,8\n", [6.0, 8.0]),
            (" Label , VALUE \na b,\t1_000 \n", [1000.0]),
            ("value\n" + "0.1\n" * 70_000, [0.1] * 70_000),
        ],
        ids=["values", "no-final-newline", "labelled", "padded", "longer-than-the-field-limit"],
    )
    def test_plain_text_skips_the_row_loop(self, tmp_path, monkeypatch, text, want):
        def row_loop(fh):
            raise AssertionError("plain text went to the row loop")

        path = self.write(tmp_path, text)
        assert row_loop_load_training_csv(path) == want
        monkeypatch.setattr(dataio.csv, "reader", row_loop)
        assert load_training_csv(path).values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "label,value\na\x00b,1\n",
            "value\n1\x00\n",
            'label,value\n"a",1\n',
            "value\n1\r\n2\r",
            "value\n1\n\u00a02\n3\n",
            "value\n1\n\n\u00a02\n3\n",
            "value\n1,\n2\n",
            "value\n1\nnan\n",
            "\ufeffvalue\n1.5\n-2",
            "value\r\n1.5\r\n-2\r\n",
            "label,value\r\na,1.5\r\nb,-2",
            "value\n1.5\n-2\n\n \n",
            "label,value\na,1.5\nb,-2\n,\n \t, \r\n,,\n",
            "value\n1.5\n\n-2\n",
            "label,value\na,1.5\n , \nb,-2\n,,\nc,3\n",
            "label,value\nGuatemala,6\nC\u00f4te d'Ivoire,71\n",
        ],
        ids=["nul-label", "nul-value", "quoted", "mixed-line-ends", "unicode-space",
             "unicode-space-after-a-blank-row", "too-wide", "nan", "bom", "crlf",
             "crlf-labelled", "trailing-blank-rows", "trailing-blank-cells",
             "blank-row-inside", "blank-cells-inside", "non-ascii-label"],
    )
    def test_rows_only_the_loop_reads_go_to_it(self, tmp_path, text):
        # on every Python: csv before 3.11 refuses NUL, which float() of
        # the bytes after a label would never see
        path = self.write(tmp_path, text)
        assert dataio._plain_values(path.read_bytes()) is None
        assert_loads_as_the_row_loop(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is missing")
    @pytest.mark.parametrize(
        "text, want",
        [('label,value\n"Korea, South",60\nb,5\n', [60.0, 5.0]), ("value\r\n1.5\r\n-2\r\n", [1.5, -2.0])],
        ids=["quoted-label", "crlf"],
    )
    def test_file_from_a_pipe_is_read_once(self, tmp_path, text, want):
        # a FIFO gives its bytes to the first reader only; the writer answers
        # any later open with an empty file, so a second read would fail
        fifo = tmp_path / "data.csv"
        os.mkfifo(fifo)
        done = threading.Event()

        def write():
            first = True
            while not done.is_set():
                with open(fifo, "w", encoding="utf-8", newline="") as fh:  # waits for a reader
                    if first:
                        fh.write(text)
                        first = False

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            got = load_training_csv(fifo)
        finally:
            done.set()
            deadline = time.monotonic() + 10.0
            while writer.is_alive() and time.monotonic() < deadline:
                # a reader that opens and goes lets the writer's open return
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
                writer.join(0.01)
        assert not writer.is_alive()
        assert got.values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", ["packaged-scores", "gauss2-overflow", "repr-values"])
    def test_benchmark_files_skip_the_row_loop(self, tmp_path, monkeypatch, name):
        # the files the benchmark's elicit workloads read: the packaged
        # scores, its overflow sample, and values written as it writes them
        if name == "repr-values":
            values = np.random.default_rng(23).normal(50.0, 10.0, 2000)
            path = tmp_path / "values.csv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("value\n")
                fh.writelines(f"{v!r}\n" for v in values.tolist())
        elif name == "gauss2-overflow":
            path = Path(__file__).resolve().parents[1] / "bench" / "data" / "gauss2_overflow.csv"
        else:
            path = resources.files("lingmap").joinpath("fixtures", "hofstede_individualism.csv")

        def row_loop(fh):
            raise AssertionError("plain text went to the row loop")

        with resources.as_file(path) as path:
            want = row_loop_load_training_csv(path)
            monkeypatch.setattr(dataio.csv, "reader", row_loop)
            assert load_training_csv(path).values.tobytes() == np.array(want).tobytes()

    def test_plain_file_is_read_without_a_list_of_lines(self, tmp_path):
        # a list of 100 000 line strings alone would hold about 6 MB, more
        # than three times the file; the bytes, their decoded text while
        # it is checked, and the growing array of values stay below that
        values = np.random.default_rng(8).normal(50.0, 10.0, 100_000)
        path = self.write(tmp_path, "value\n" + "".join(f"{v!r}\n" for v in values.tolist()))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            got = load_training_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.values.tobytes() == values.tobytes()
        assert peak < 3 * size, (peak, size)
