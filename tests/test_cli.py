"""Command line tests against the bundled fixtures and their goldens."""

import io
import json
from importlib import resources

import pytest

from snakegraphs.cli import main

FIXTURES = resources.files("snakegraphs") / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def golden(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


class TestGoldens:
    @pytest.mark.parametrize("name,argv", [
        ("annulus", ["expand"]),
        ("selffolded_disk", ["expand", "--keep-boundary"]),
        ("punctured_torus", ["expand"]),
        ("hexagon", ["expand"]),
        ("skein_octagon", ["skein-check"]),
    ])
    def test_fixture_matches_golden(self, name, argv):
        code, text = run(argv + [fixture(name + ".json")])
        assert code == 0
        assert text == golden(name + ".golden")

    def test_output_is_byte_stable(self):
        runs = {run(["expand", fixture("annulus.json")])[1]
                for _ in range(3)}
        assert len(runs) == 1


class TestExpand:
    def test_json_format_round_trips(self):
        code, text = run(["expand", "--format", "json",
                          fixture("hexagon.json")])
        assert code == 0
        doc = json.loads(text)
        names = [row["name"] for row in doc["curves"]]
        assert names == ["short-chord", "long-chord"]
        short = next(r for r in doc["curves"] if r["name"] == "short-chord")
        assert short["X"] == "x:0-2^-1*x:0-3*y:0-2 + x:0-2^-1"
        assert short["F"] == "y:0-2 + 1"

    def test_curve_filter(self):
        code, text = run(["expand", "--curve", "short-chord",
                          fixture("hexagon.json")])
        assert code == 0
        assert text.startswith("curve: short-chord\n")
        assert "long-chord" not in text

    def test_unknown_curve_name(self, capsys):
        code, _ = run(["expand", "--curve", "nope",
                       fixture("hexagon.json")])
        assert code == 1
        assert "CLIError" in capsys.readouterr().err

    def test_max_tiles_guard(self, capsys):
        code, _ = run(["expand", "--max-tiles", "2",
                       fixture("hexagon.json")])
        assert code == 1
        assert "max-tiles" in capsys.readouterr().err


class TestOtherVerbs:
    def test_bmatrix_rows(self):
        code, text = run(["bmatrix", fixture("annulus.json")])
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("1: ")
        rows = [[int(v) for v in l.split(":")[1].split()] for l in lines]
        for i in range(4):
            assert rows[i][i] == 0
            for j in range(4):
                assert rows[i][j] == -rows[j][i]
        assert sum(abs(v) for v in rows[0]) == 2

    def test_bmatrix_json(self):
        code, text = run(["bmatrix", "--format", "json",
                          fixture("annulus.json")])
        assert code == 0
        doc = json.loads(text)
        assert doc["arcs"] == ["1", "2", "3", "4"]
        assert all(len(row) == 4 for row in doc["b"])

    def test_matchings_counts(self):
        code, text = run(["matchings", fixture("annulus.json")])
        assert code == 0
        lines = text.splitlines()
        assert sum(1 for l in lines if l.startswith("core:")) == 6
        assert sum(1 for l in lines if l.startswith("bridge:")) == 2

    @pytest.mark.parametrize("name,expected", [
        ("annulus",
         "core: x(P)=x:1^2*x:2*x:4 y(P)=1\n"
         "core: x(P)=x:1^2*b:b3*b:b4 y(P)=Y:3\n"
         "core: x(P)=x:1*x:3*b:b1*b:b3 y(P)=Y:2*Y:3\n"
         "core: x(P)=x:1*x:3*b:b2*b:b4 y(P)=Y:3*Y:4\n"
         "core: x(P)=x:3^2*b:b1*b:b2 y(P)=Y:2*Y:3*Y:4\n"
         "core: x(P)=x:2*x:3^2*x:4 y(P)=Y:1*Y:2*Y:3*Y:4\n"
         "bridge: x(P)=b:b1*b:b2 y(P)=1\n"
         "bridge: x(P)=x:2*x:4 y(P)=Y:1\n"),
        ("hexagon",
         "short-chord: x(P)=b:0-1*b:2-3 y(P)=1\n"
         "short-chord: x(P)=x:0-3*b:1-2 y(P)=Y:0-2\n"
         "long-chord: x(P)=x:0-2*x:0-3*b:0-1*b:4-5 y(P)=1\n"
         "long-chord: x(P)=x:0-2*b:0-1*b:0-5*b:3-4 y(P)=Y:0-4\n"
         "long-chord: x(P)=x:0-4*b:0-1*b:0-5*b:2-3 y(P)=Y:0-3*Y:0-4\n"
         "long-chord: x(P)=x:0-3*x:0-4*b:0-5*b:1-2"
         " y(P)=Y:0-2*Y:0-3*Y:0-4\n"),
    ])
    def test_matchings_text(self, name, expected):
        code, text = run(["matchings", fixture(name + ".json")])
        assert code == 0
        assert text == expected

    def test_snake_dot(self):
        code, text = run(["snake-dot", "--curve", "bridge",
                          fixture("annulus.json")])
        assert code == 0
        assert text.startswith("graph")
        assert "x:1" in text

    def test_verify(self):
        code, text = run(["verify", fixture("annulus.json")])
        assert code == 0
        assert text == ("curve core: methods agree\n"
                        "curve bridge: methods agree\n")

    def test_verify_skips_special_kinds(self):
        code, text = run(["verify", fixture("punctured_torus.json")])
        assert code == 0
        assert "curve around-puncture: skipped" in text

    def test_selftest_exit_code(self, monkeypatch):
        monkeypatch.setenv("SNAKE_SELFTEST_TRIALS", "3")
        code1, text1 = run(["selftest", "--seed", "2"])
        code2, text2 = run(["selftest", "--seed", "2"])
        assert code1 == code2 == 0
        assert text1 == text2
        assert text1.endswith("result: PASS\n")


class TestErrors:
    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{ nope", encoding="utf-8")
        code, _ = run(["expand", str(p)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ParseError" in err and "line 1" in err

    def test_unknown_document_key(self, tmp_path, capsys):
        p = tmp_path / "odd.json"
        doc = json.loads(golden("annulus.json"))
        doc["extra"] = True
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run(["expand", str(p)])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code, _ = run(["expand", "/nonexistent/surface.json"])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    def test_skein_check_needs_both_keys(self, tmp_path, capsys):
        p = tmp_path / "half.json"
        p.write_text(json.dumps({"surface": {}}), encoding="utf-8")
        code, _ = run(["skein-check", str(p)])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    def test_one_crossing_loop(self, tmp_path, capsys):
        p = tmp_path / "short.json"
        doc = json.loads(golden("annulus.json"))
        doc["curves"] = [{"name": "short", "kind": "loop",
                          "crossings": ["1"], "basepoint_triangle": 3}]
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run(["expand", str(p)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("DegenerateBand: ")
        assert err.count("\n") == 1

    def test_bad_step_line_in_skein_check(self, tmp_path, capsys):
        p = tmp_path / "steps.json"
        doc = {"surface": json.loads(golden("annulus.json")),
               "instance": {"variant": "ARC_ARC", "sigma1": "9 cw x:a"}}
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run(["skein-check", str(p)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("StepFormatError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name,edit", [
        ("annulus", lambda d: d["curves"][1].update(start_triangle=9)),
        ("annulus", lambda d: d["curves"][1].update(start_triangle="3")),
        ("annulus", lambda d: d["curves"][1].update(end_triangle="0")),
        ("annulus", lambda d: d["curves"][0].update(basepoint_triangle=9)),
        ("annulus", lambda d: d["arcs"].__setitem__(0, {"ends": []})),
        ("annulus", lambda d: d["curves"][1].update(kinks="x")),
        ("selffolded_disk", lambda d: d["self_folded"][0].pop("radius")),
        ("selffolded_disk",
         lambda d: d["self_folded"].__setitem__(0, ["l", "r", "p"])),
        ("annulus", lambda d: d["triangles"].__setitem__(0, 5)),
        ("annulus", lambda d: d["triangles"].__setitem__(0, {})),
        ("annulus", lambda d: d.update(arcs=3)),
        ("annulus", lambda d: d.update(boundary=3)),
        ("annulus", lambda d: d.update(punctures=3)),
        ("annulus", lambda d: d.update(self_folded=3)),
        ("annulus", lambda d: d.update(curves=3)),
        ("annulus", lambda d: d["curves"][0].update(crossings=3)),
        ("annulus",
         lambda d: d["arcs"].__setitem__(0, {"name": "1", "ends": 3})),
        ("annulus", lambda d: d["arcs"].__setitem__(0, {"name": ["1"]})),
        ("skein_octagon", lambda d: d["instance"].update(curves=3)),
        ("skein_octagon", lambda d: d["instance"].update(sigma1=5)),
        ("skein_octagon", lambda d: d["instance"].update(sigma2=5)),
        ("skein_octagon", lambda d: d["instance"].update(insert=5)),
        ("skein_octagon",
         lambda d: d["instance"].update(lamination_counts=3)),
        ("annulus", lambda d: d["arcs"].__setitem__(0, ["1"])),
        ("annulus", lambda d: d["boundary"].__setitem__(0, ["b1"])),
        ("annulus", lambda d: d.update(punctures=[["p"]])),
        ("annulus", lambda d: d["triangles"][0].__setitem__(0, ["1"])),
        ("punctured_torus",
         lambda d: d["arcs"].__setitem__(0, {"name": "1",
                                             "ends": [["p"], "p"]})),
        ("selffolded_disk", lambda d: d["self_folded"][0].update(noose=["l"])),
        ("skein_octagon",
         lambda d: d["instance"]["lamination_counts"].update(alpha1=3)),
        ("skein_octagon",
         lambda d: d["instance"]["lamination_counts"]["alpha1"].update(
             {"0-2": "1"})),
        ("skein_octagon",
         lambda d: d["instance"]["lamination_counts"]["alpha1"].update(
             {"0-2": 1.5})),
    ], ids=["start-range", "start-type", "end-type", "basepoint-range",
            "arc-without-name", "kinks-type", "self-folded-no-radius",
            "self-folded-not-object", "triangle-number",
            "triangle-without-sides", "arcs-number", "boundary-number",
            "punctures-number", "self-folded-number", "curves-number",
            "crossings-number", "ends-number", "arc-name-list",
            "instance-curves-number", "sigma1-number", "sigma2-number",
            "insert-number", "lamination-counts-number", "arc-label-list",
            "boundary-label-list", "puncture-label-list", "side-label-list",
            "ends-label-list", "self-folded-label-list",
            "role-counts-number", "count-string", "count-fraction"])
    def test_malformed_input_is_one_line(self, tmp_path, capsys, name, edit):
        doc = json.loads(golden(name + ".json"))
        edit(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        # the skein fixture is a skein-check document, the others surfaces
        verb = "skein-check" if name == "skein_octagon" else "expand"
        code, _ = run([verb, str(p)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.split(": ")[0] in ("ParseError", "ValidationError")

    @pytest.mark.parametrize("argv", [
        ["bmatrix", "--seed", "5"],
        ["bmatrix", "--keep-boundary"],
        ["bmatrix", "--curve", "core"],
        ["matchings", "--keep-boundary"],
        ["skein-check", "--max-tiles", "2"],
    ])
    def test_flags_a_verb_ignores_are_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + [fixture("annulus.json")])
        assert exc.value.code == 2
