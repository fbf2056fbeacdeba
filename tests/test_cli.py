"""Command-line behaviour: exit codes, output shapes, error reporting."""

import json
import os
import tracemalloc
from importlib import resources

import pytest

from lingmap import (
    Catalog,
    CodeList,
    CrispLabel,
    FuzzyInferenceSystem,
    Interval,
    LinguisticVariable,
    Trapezoid,
    evaluate,
    load_catalog,
    parse_rules,
    save_catalog,
)
from lingmap import cli


@pytest.fixture
def case1_path(tmp_path, case1_catalog):
    path = tmp_path / "case1.json"
    save_catalog(case1_catalog, path)
    return str(path)


@pytest.fixture
def case2_path(tmp_path, case2_catalog):
    path = tmp_path / "case2.json"
    save_catalog(case2_catalog, path)
    return str(path)


@pytest.fixture
def coded_fis():
    """x on [0, 10] and g with the numeric-looking codes "0" and "1"."""
    x = LinguisticVariable("x", "ratio", Interval(0, 10), {"any": Trapezoid(0, 0, 10, 10)})
    g = LinguisticVariable(
        "g", "nominal", CodeList(["0", "1"]),
        {"zero": CrispLabel(["0"]), "one": CrispLabel(["1"])},
    )
    y = LinguisticVariable(
        "y", "ratio", Interval(0, 10),
        {"low": Trapezoid(0, 0, 2, 4), "high": Trapezoid(6, 8, 10, 10)},
    )
    return FuzzyInferenceSystem(
        inputs={"x": x, "g": g},
        outputs={"y": y},
        rules=parse_rules(
            "if x is any and g is zero then y is low\n"
            "if x is any and g is one then y is high"
        ),
    )


@pytest.fixture
def coded_path(tmp_path, coded_fis):
    path = tmp_path / "coded.json"
    save_catalog(Catalog(fis=coded_fis), path)
    return str(path)


@pytest.fixture
def csv_path(tmp_path):
    ref = resources.files("lingmap").joinpath("fixtures", "hofstede_individualism.csv")
    path = tmp_path / "individualism.csv"
    path.write_text(ref.read_text(encoding="utf-8"), encoding="utf-8")
    return str(path)


class TestReproduce:
    def test_case1_passes(self, capsys):
        assert cli.main(["reproduce", "--case", "1"]) == 0
        out = capsys.readouterr().out
        assert "case 1" in out
        assert "expected" in out and "actual" in out
        assert "tolerance: 5.0 cm" in out
        assert out.rstrip().endswith("PASS")
        assert "FAIL" not in out

    def test_case2_passes(self, capsys):
        assert cli.main(["reproduce", "--case", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 4
        assert out.rstrip().endswith("PASS")

    def test_unknown_case_is_usage_error(self, capsys):
        assert cli.main(["reproduce", "--case", "3"]) == 2
        assert "invalid choice" in capsys.readouterr().err


class TestEval:
    def test_single_input(self, capsys, case1_path):
        assert cli.main(["eval", "--fis", case1_path, "--in", "individualism=38"]) == 0
        out = capsys.readouterr().out
        name, value = out.split("=")
        assert name.strip() == "distance"
        assert float(value) == pytest.approx(69.9, abs=1.0)

    def test_two_inputs(self, capsys, case2_path):
        args = ["eval", "--fis", case2_path, "--in", "individualism=38, gender=0"]
        assert cli.main(args) == 0
        value = float(capsys.readouterr().out.split("=")[1])
        assert value == pytest.approx(63.8, abs=1.0)

    def test_missing_input_variable(self, capsys, case2_path):
        assert cli.main(["eval", "--fis", case2_path, "--in", "individualism=38"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "gender" in err

    def test_no_rule_fired_is_exit_1(self, capsys, case2_path):
        args = ["eval", "--fis", case2_path, "--in", "individualism=38,gender=0.5"]
        assert cli.main(args) == 1
        assert "no rule fired" in capsys.readouterr().err

    def test_out_of_domain_value(self, capsys, case1_path):
        args = ["eval", "--fis", case1_path, "--in", "individualism=250"]
        assert cli.main(args) == 2
        assert "outside the domain" in capsys.readouterr().err

    def test_string_value_against_interval_domain(self, capsys, case2_path):
        args = ["eval", "--fis", case2_path, "--in", "individualism=38,gender=female"]
        assert cli.main(args) == 2
        assert "outside the domain" in capsys.readouterr().err

    def test_numeric_looking_code_selects_code(self, capsys, coded_fis, coded_path):
        assert cli.main(["eval", "--fis", coded_path, "--in", "x=5,g=1"]) == 0
        expected = evaluate(coded_fis, {"x": 5.0, "g": "1"})["y"]
        assert capsys.readouterr().out == f"y = {expected:.4f}\n"

    def test_code_not_in_list(self, capsys, coded_path):
        assert cli.main(["eval", "--fis", coded_path, "--in", "x=5,g=1.0"]) == 2
        assert "outside the domain" in capsys.readouterr().err

    def test_unknown_variable_is_reported(self, capsys, case1_path):
        args = ["eval", "--fis", case1_path, "--in", "individualism=38,bogus=1"]
        assert cli.main(args) == 2
        assert "'bogus' is not an input variable" in capsys.readouterr().err

    def test_bad_assignment_syntax(self, capsys, case1_path):
        assert cli.main(["eval", "--fis", case1_path, "--in", "individualism"]) == 2
        assert "bad assignment" in capsys.readouterr().err

    def test_catalog_without_fis(self, capsys, tmp_path, case1_catalog):
        bare = tmp_path / "bare.json"
        save_catalog(type(case1_catalog)(variables=case1_catalog.variables), bare)
        assert cli.main(["eval", "--fis", str(bare), "--in", "individualism=38"]) == 2
        assert "does not define an inference system" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert cli.main(["eval", "--fis", missing, "--in", "x=1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_multi_output_eval(self, capsys, tmp_path):
        x = LinguisticVariable("x", "ratio", Interval(0, 10), {"low": Trapezoid(0, 0, 4, 8)})
        y = LinguisticVariable("y", "ratio", Interval(0, 10), {"t": Trapezoid(2, 4, 6, 8)})
        z = LinguisticVariable("z", "ratio", Interval(0, 10), {"t": Trapezoid(0, 2, 4, 6)})
        fis = FuzzyInferenceSystem(
            inputs={"x": x},
            outputs={"y": y, "z": z},
            rules=parse_rules("if x is low then y is t\nif x is low then z is t"),
        )
        path = tmp_path / "two_out.json"
        save_catalog(Catalog(fis=fis), path)
        assert cli.main(["eval", "--fis", str(path), "--in", "x=1"]) == 0
        out = capsys.readouterr().out
        assert "y = " in out and "z = " in out


class TestSurface:
    def test_one_axis(self, capsys, case1_path):
        args = ["surface", "--fis", case1_path, "--axis", "individualism=0:100:5"]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "individualism,distance"
        assert len(lines) == 6
        assert lines[1].startswith("0.0,")
        assert lines[-1].startswith("100.0,")

    def test_single_step_axis_uses_lo(self, capsys, case1_path):
        args = ["surface", "--fis", case1_path, "--axis", "individualism=38:90:1"]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("38.0,")

    def test_two_axes_grid(self, capsys, case2_path):
        args = [
            "surface", "--fis", case2_path,
            "--axis", "individualism=0:100:4",
            "--axis", "gender=0:1:2",
        ]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "individualism\\gender,0.0,1.0"
        assert len(lines) == 5
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_fix_plus_axis(self, capsys, case2_path):
        args = [
            "surface", "--fis", case2_path,
            "--axis", "individualism=0:100:3",
            "--fix", "gender=1",
        ]
        assert cli.main(args) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_fix_code_list_value(self, capsys, coded_fis, coded_path):
        args = ["surface", "--fis", coded_path, "--axis", "x=0:10:2", "--fix", "g=0"]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = evaluate(coded_fis, {"x": 10.0, "g": "0"})["y"]
        assert lines[-1] == f"10.0,{expected!r}"

    def test_cells_equal_single_evaluations(self, capsys, case2_path, case2_fis):
        args = [
            "surface", "--fis", case2_path,
            "--axis", "individualism=3:97:9",
            "--axis", "gender=0:1:4",
        ]
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        genders = [float(g) for g in lines[0].split(",")[1:]]
        for line in lines[1:]:
            ind, *cells = (float(v) for v in line.split(","))
            for gender, cell in zip(genders, cells):
                profile = {"individualism": ind, "gender": gender}
                assert cell == evaluate(case2_fis, profile)["distance"]
        ind, cell = float(lines[4].split(",")[0]), float(lines[4].split(",")[2])
        assert cli.main(
            ["eval", "--fis", case2_path, "--in", f"individualism={ind!r},gender={genders[1]!r}"]
        ) == 0
        assert capsys.readouterr().out == f"distance = {cell:.4f}\n"

    def test_no_rule_fired_names_the_cell(self, capsys, case2_path):
        args = [
            "surface", "--fis", case2_path,
            "--axis", "individualism=0:100:3",
            "--axis", "gender=0:1:3",
        ]
        assert cli.main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no rule fired" in captured.err
        assert "individualism=0.0, gender=0.5" in captured.err

    def test_output_is_byte_stable(self, capsys, case2_path):
        args = [
            "surface", "--fis", case2_path,
            "--axis", "individualism=0:100:7",
            "--fix", "gender=0",
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_out_file_matches_stdout(self, capsys, tmp_path, case1_path):
        args = ["surface", "--fis", case1_path, "--axis", "individualism=20:80:4"]
        assert cli.main(args) == 0
        printed = capsys.readouterr().out
        out_file = tmp_path / "surface.csv"
        assert cli.main(args + ["--out", str(out_file)]) == 0
        assert out_file.read_text(encoding="utf-8") == printed

    @pytest.mark.parametrize("old", [b"x" * 10_000, b"x\n"], ids=["longer", "shorter"])
    def test_out_overwrites_an_existing_file(self, capsys, tmp_path, case1_path, old):
        args = ["surface", "--fis", case1_path, "--axis", "individualism=20:80:4"]
        assert cli.main(args) == 0
        printed = capsys.readouterr().out
        out_file = tmp_path / "surface.csv"
        out_file.write_bytes(old)
        assert cli.main(args + ["--out", str(out_file)]) == 0
        assert out_file.read_bytes() == printed.encode("utf-8")

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason=f"no {os.devnull}")
    def test_out_to_the_null_device(self, capsys, case1_path):
        args = ["surface", "--fis", case1_path, "--axis", "individualism=20:80:4"]
        assert cli.main(args + ["--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_out_naming_a_directory(self, capsys, tmp_path, case1_path):
        args = ["surface", "--fis", case1_path, "--axis", "individualism=20:80:4"]
        assert cli.main(args + ["--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and str(tmp_path) in captured.err

    def test_axis_and_fix_conflict(self, capsys, case2_path):
        args = [
            "surface", "--fis", case2_path,
            "--axis", "individualism=0:100:3",
            "--fix", "individualism=50,gender=0",
        ]
        assert cli.main(args) == 2
        assert "both an axis and fixed" in capsys.readouterr().err

    def test_one_variable_on_both_axes(self, capsys, case2_path):
        args = [
            "surface", "--fis", case2_path,
            "--axis", "individualism=0:100:3",
            "--axis", "individualism=0:100:2",
            "--fix", "gender=0",
        ]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert "'individualism' is on both axes" in captured.err
        assert captured.out == ""

    def test_misspelt_axis_is_named(self, capsys, case2_path):
        # 'foo' stands where 'individualism' should, so that input is also
        # missing; the name to fix is the unknown one
        args = ["surface", "--fis", case2_path, "--axis", "foo=0:1:2", "--fix", "gender=0"]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert "'foo' is not an input variable" in captured.err
        assert captured.out == ""

    def test_three_axes_rejected(self, capsys, case2_path):
        args = ["surface", "--fis", case2_path]
        for spec in ("individualism=0:100:3", "gender=0:1:2", "individualism=0:1:2"):
            args += ["--axis", spec]
        assert cli.main(args) == 2
        assert "once or twice" in capsys.readouterr().err

    def test_bad_axis_spec(self, capsys, case1_path):
        # a non-finite end, or a span that overflows, made linspace warn and
        # then report a NaN input
        for spec in ("0:100", "0:inf:3", "nan:1:3", "-1e308:1e308:3"):
            args = ["surface", "--fis", case1_path, "--axis", f"individualism={spec}"]
            assert cli.main(args) == 2
            assert "bad axis" in capsys.readouterr().err

    def test_zero_steps_rejected(self, capsys, case1_path):
        args = ["surface", "--fis", case1_path, "--axis", "individualism=0:100:0"]
        assert cli.main(args) == 2
        assert "steps must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axes, message",
        [
            # one axis of 10**15 steps asked numpy for 7.11 PiB
            (["individualism=0:100:1000000000000000"], "steps must be at most 1000000"),
            (["individualism=0:100:1000001"], "steps must be at most 1000000"),
            (["individualism=0:100:1000000", "gender=0:1:2"], "1000000 x 2 cells is more than"),
        ],
    )
    def test_too_many_cells_refused_before_allocating(self, capsys, case2_path, axes, message):
        args = ["surface", "--fis", case2_path]
        for axis in axes:
            args += ["--axis", axis]
        tracemalloc.start()
        try:
            assert cli.main(args) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message in capsys.readouterr().err
        # one axis of 10**6 steps would take 8 MB
        assert peak < 2**20

    def test_multi_output_system_rejected(self, capsys, tmp_path):
        x = LinguisticVariable("x", "ratio", Interval(0, 10), {"low": Trapezoid(0, 0, 4, 8)})
        y = LinguisticVariable("y", "ratio", Interval(0, 10), {"t": Trapezoid(2, 4, 6, 8)})
        z = LinguisticVariable("z", "ratio", Interval(0, 10), {"t": Trapezoid(0, 2, 4, 6)})
        fis = FuzzyInferenceSystem(
            inputs={"x": x},
            outputs={"y": y, "z": z},
            rules=parse_rules("if x is low then y is t\nif x is low then z is t"),
        )
        path = tmp_path / "two_out.json"
        save_catalog(Catalog(fis=fis), path)
        args = ["surface", "--fis", str(path), "--axis", "x=0:10:3"]
        assert cli.main(args) == 2
        assert "exactly one output" in capsys.readouterr().err


class TestElicit:
    def test_happy_path(self, capsys, tmp_path, csv_path):
        out = tmp_path / "elicited.json"
        args = [
            "elicit", "--data", csv_path, "--domain", "0,100",
            "--name", "individualism", "--kind", "interval", "--out", str(out),
        ]
        assert cli.main(args) == 0
        printed = capsys.readouterr().out
        assert "observations: 110" in printed
        assert "clusters: 2" in printed
        assert "term LC1" in printed and "term LC2" in printed

        catalog = load_catalog(out)
        var = catalog.variables["individualism"]
        assert list(var.terms) == ["LC1", "LC2"]
        assert var.kind == "interval"

    def test_deterministic_output_file(self, capsys, tmp_path, csv_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            args = ["elicit", "--data", csv_path, "--domain", "0,100",
                    "--name", "v", "--out", str(out)]
            assert cli.main(args) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_default_name_from_file_stem(self, capsys, tmp_path, csv_path):
        out = tmp_path / "cat.json"
        args = ["elicit", "--data", csv_path, "--domain", "0,100", "--out", str(out)]
        assert cli.main(args) == 0
        capsys.readouterr()
        assert "individualism" in load_catalog(out).variables

    def test_too_few_observations(self, capsys, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("value\n42\n", encoding="utf-8")
        out = tmp_path / "cat.json"
        args = ["elicit", "--data", str(data), "--domain", "0,100", "--out", str(out)]
        assert cli.main(args) == 2
        assert "dataset too small" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_domain(self, capsys, tmp_path, csv_path):
        out = tmp_path / "cat.json"
        args = ["elicit", "--data", csv_path, "--domain", "0..100", "--out", str(out)]
        assert cli.main(args) == 2
        assert "bad domain" in capsys.readouterr().err

    def test_data_outside_domain(self, capsys, tmp_path, csv_path):
        out = tmp_path / "cat.json"
        args = ["elicit", "--data", csv_path, "--domain", "0,50", "--out", str(out)]
        assert cli.main(args) == 2
        assert "outside the domain" in capsys.readouterr().err

    def test_radius_must_be_positive(self, capsys, tmp_path, csv_path):
        out = tmp_path / "cat.json"
        args = ["elicit", "--data", csv_path, "--domain", "0,100", "--radius", "0",
                "--out", str(out)]
        assert cli.main(args) == 2
        assert "radius must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_radius_out_of_range(self, capsys, tmp_path, csv_path):
        out = tmp_path / "cat.json"
        args = ["elicit", "--data", csv_path, "--domain", "0,100", "--radius", "1e-200",
                "--out", str(out)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: radius 1e-200 is out of range")
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_span(self, capsys, tmp_path):
        data = tmp_path / "huge.csv"
        data.write_text("value\n" + "-1e308\n" * 3 + "1e308\n" * 3, encoding="utf-8")
        out = tmp_path / "cat.json"
        args = ["elicit", "--data", str(data), "--domain=-1e308,1e308", "--out", str(out)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "interval needs a finite width hi - lo, got [-1e+308, 1e+308]" in err
        assert not out.exists()

    def test_data_not_utf8(self, capsys, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"label,value\nSp\xe4in,51\n\xff,20\n")
        out = tmp_path / "cat.json"
        args = ["elicit", "--data", str(data), "--domain", "0,100", "--out", str(out)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: not UTF-8 text: ")
        assert "Traceback" not in err
        assert not out.exists()


class TestValidate:
    def test_ok_catalog(self, capsys, case1_path):
        assert cli.main(["validate", case1_path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "variables: 2" in out
        assert "fis: 1 input(s), 1 output(s), 2 rule(s)" in out

    def test_coverage_warnings_on_stderr(self, capsys, case2_path):
        assert cli.main(["validate", case2_path]) == 0
        err = capsys.readouterr().err
        assert "no term covers 'gender'" in err

    def test_schema_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "variables": []}), encoding="utf-8")
        assert cli.main(["validate", str(bad)]) == 2
        assert "/variables" in capsys.readouterr().err

    def test_fis_without_inputs_is_schema_error(self, capsys, tmp_path, case1_path):
        with open(case1_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["fis"]["inputs"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", str(bad)]) == 2
        assert "/fis/inputs" in capsys.readouterr().err

    def test_not_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("][", encoding="utf-8")
        assert cli.main(["validate", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, case1_path):
        # it exited 2 with "Unexpected UTF-8 BOM"
        with open(case1_path, "rb") as fh:
            text = fh.read()
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert cli.main(["validate", str(marked)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"schema_version": 1, "metadata": {"by": "M\xfcller"}}')
        assert cli.main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: /: {bad}: not UTF-8 text: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command", [["validate"], ["eval", "--in", "individualism=38", "--fis"]]
    )
    def test_width_whose_square_overflows(self, capsys, tmp_path, case1_path, command):
        with open(case1_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["variables"][0]["terms"][0]["mf"]["gamma1"] = 1e200
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main([*command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /variables/0/terms/0/mf: gauss2 widths")
        assert "Traceback" not in err

    @pytest.mark.parametrize("digits", [401, 4301])
    @pytest.mark.parametrize("where", ["domain", "mf"])
    def test_integer_too_large_for_a_float(self, capsys, tmp_path, case1_path, where, digits):
        with open(case1_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        distance = doc["variables"][1]
        if where == "domain":
            distance["domain"][1] = "<digits>"
        else:
            distance["terms"][0]["mf"]["d"] = "<digits>"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"<digits>"', "1" + "0" * (digits - 1)))
        assert cli.main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        if digits == 401:
            path = "/variables/1/domain/1" if where == "domain" else "/variables/1/terms/0/mf/d"
            assert err.startswith(f"error: {path}: expected a finite number, got an integer too")
        else:
            assert err.startswith("error: /: not valid JSON: Exceeds the limit (4300 digits)")
        assert "Traceback" not in err

    def test_trapezoid_edge_width_that_overflows(self, capsys, tmp_path, case1_path):
        with open(case1_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["variables"][1]["terms"][0]["mf"].update(a=-1e308, b=1e308, c=1e308, d=1e308)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /variables/1/terms/0/mf: trapezoid breakpoints")
        assert "finite edge widths" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command", [["validate"], ["eval", "--in", "individualism=38", "--fis"]]
    )
    def test_resolution_above_the_bound(self, capsys, tmp_path, case1_path, command):
        # 10**12 points passed validate, and eval asked numpy for 7.28 TiB
        with open(case1_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["fis"]["defuzz_resolution"] = 10**12
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        tracemalloc.start()
        try:
            assert cli.main([*command, str(bad)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("error: /fis: defuzz_resolution must be an integer from 2 to 1000000")
        assert "Traceback" not in err
        assert peak < 2**20


class TestTopLevel:
    def test_version(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "lingmap" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert cli.main(["shrink"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_parser_is_built_once(self, capsys, case1_path):
        parser = cli.build_parser()
        assert cli.main(["eval", "--fis", case1_path, "--in", "individualism=38"]) == 0
        assert cli.build_parser() is parser
