"""Command line tests against the bundled fixtures and their goldens."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from snakegraphs import cli
from snakegraphs.algebra import Poly, format_mono, format_poly, parse_poly
from snakegraphs.cli import main
from snakegraphs.surface import graph_for

from test_snakecore import neen_snake

FIXTURES = resources.files("snakegraphs") / "fixtures"
SURFACES = ("annulus", "selffolded_disk", "punctured_torus", "hexagon")


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

    @pytest.mark.parametrize("verb", ["expand", "matchings", "snake-dot",
                                      "verify"])
    def test_negative_max_tiles_is_one_line(self, capsys, verb):
        code, text = run([verb, "--max-tiles", "-1",
                          fixture("hexagon.json")])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == (
            "CLIError: --max-tiles must be 0 or more, not -1\n")

    def test_flags_do_not_leak_between_calls(self):
        # the parser is built once per process; each call reads its own
        # flags from it
        path = fixture("selffolded_disk.json")
        kept = golden("selffolded_disk.golden")
        plain = run(["expand", path])
        assert run(["expand", "--keep-boundary", path]) == (0, kept)
        assert run(["expand", path]) == plain
        assert run(["expand", "--keep-boundary", path]) == (0, kept)
        assert plain[0] == 0 and "b:" in kept and "b:" not in plain[1]
        assert cli.build_parser() is cli.build_parser()


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

    @pytest.mark.parametrize("name", ["annulus", "hexagon",
                                      "punctured_torus", "selffolded_disk"])
    def test_matchings_rows_are_format_mono_per_row(self, name):
        # the verb prints a graph's rows from one variable order; each
        # text is still the one format_mono gives its monomial alone
        code, text = run(["matchings", "--format", "json",
                          fixture(name + ".json")])
        assert code == 0
        tri, curves = cli._load_surface(fixture(name + ".json"))
        want = []
        for curve in curves:
            if curve.has_graph():
                g = graph_for(tri, curve)
                triples = (g.good_matchings() if curve.kind == "loop"
                           else g.weighted_matchings())
                want += [{"curve": curve.name or "", "x": format_mono(w),
                          "y": format_mono(h)} for _, w, h in triples]
        assert want and json.loads(text)["matchings"] == want

    def test_matchings_rows_of_the_neen_snake(self):
        triples = neen_snake().weighted_matchings()
        assert len(triples) == 987
        assert cli._matching_rows("neen", triples) == [
            {"curve": "neen", "x": format_mono(w), "y": format_mono(h)}
            for _, w, h in triples]

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

    def test_verify_reports_a_method_mismatch(self, monkeypatch, capsys):
        expand_by_matrices = cli.expand_by_matrices

        def off_by_one(tri, curve, keep_boundary=False):
            element = expand_by_matrices(tri, curve, keep_boundary)
            element.reading = element.reading + Poly.one()
            return element

        monkeypatch.setattr(cli, "expand_by_matrices", off_by_one)
        code, _ = run(["verify", fixture("annulus.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("MethodMismatch: curve")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("name", SURFACES)
    def test_verify_compares_readings_only(self, monkeypatch, name):
        # one reading per route and graph curve, and no division by the
        # crossing monomial or specialization, which the routes share
        calls = {"expand": 0, "expand_by_matrices": 0, "substitute": 0,
                 "div_mono": 0}

        def counted(owner, attr):
            original = getattr(owner, attr)

            def counting(*args, **kwargs):
                calls[attr] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counting)

        for owner, attr in ((cli, "expand"), (cli, "expand_by_matrices"),
                            (Poly, "substitute"), (Poly, "div_mono")):
            counted(owner, attr)
        code, text = run(["verify", fixture(name + ".json")])
        _, curves = cli._load_surface(fixture(name + ".json"))
        graphs = sum(c.has_graph() for c in curves)
        assert code == 0 and text.count("methods agree") == graphs > 0
        assert calls == {"expand": graphs, "expand_by_matrices": graphs,
                         "substitute": 0, "div_mono": 0}

    def test_verify_skips_special_kinds(self):
        code, text = run(["verify", fixture("punctured_torus.json")])
        assert code == 0
        assert "curve around-puncture: skipped" in text

    @pytest.mark.parametrize("verb", ["matchings", "snake-dot"])
    def test_graph_verbs_skip_curves_without_graph(self, verb, capsys):
        # punctured_torus declares a puncture loop, which has no graph
        code, text = run([verb, fixture("punctured_torus.json")])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert "around-puncture" not in text
        if verb == "snake-dot":
            assert text.count("graph snake {") == 1
        else:
            assert text.startswith("short: ")

    def test_selftest_exit_code(self, monkeypatch):
        monkeypatch.setenv("SNAKE_SELFTEST_TRIALS", "3")
        code1, text1 = run(["selftest", "--seed", "2"])
        code2, text2 = run(["selftest", "--seed", "2"])
        assert code1 == code2 == 0
        assert text1 == text2
        assert text1.endswith("result: PASS\n")


# Runs each command line call in-process and prints its exit status after
# its output; the test below starts one child per hash seed.
HASH_SEED_CHILD = """\
import json, sys
from snakegraphs.cli import main
for argv in json.loads(sys.argv[1]):
    sys.stdout.write("$ %s\\n" % " ".join(argv))
    sys.stdout.write("exit %d\\n" % main(argv))
"""


def test_output_does_not_depend_on_the_hash_seed():
    # packed keys, monomial hashes and the walk's hash sums depend on
    # string hashes, so the printed order must be checked across seeds
    calls = [verb + [fixture(name + ".json")] for name in SURFACES
             for verb in (["expand"], ["expand", "--format", "json"],
                          ["matchings"], ["matchings", "--format", "json"],
                          ["snake-dot"], ["verify"])]
    calls += [["skein-check", fixture("skein_octagon.json")],
              ["selftest", "--seed", "3"]]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_CHILD, json.dumps(calls)],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, check=True)
        assert done.stderr == b""
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    statuses = [l for l in outputs[0].splitlines() if l.startswith(b"exit ")]
    assert statuses == [b"exit 0"] * len(calls)


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

    @pytest.mark.parametrize("content", [
        b"[" * 100000, b"\xff\xfe{}", b'{"arcs": 1' + b"0" * 5000 + b"}"],
        ids=["nested-too-deep", "utf-16-mark", "5001-digit-number"])
    def test_unreadable_json_is_one_line(self, tmp_path, capsys, content):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        code, _ = run(["expand", str(p)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ParseError: %s: " % p)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("part,edit", [
        ("surface", lambda d: d.update(arcs=5)),
        ("surface", lambda d: d["curves"][0].update(crossings=3)),
        ("instance", lambda d: d.update(curves=3)),
        ("instance", lambda d: d.update(sigma1=5)),
        ("instance", lambda d: d["curves"].update(delta="alpha1")),
    ], ids=["arcs-number", "crossings-number", "curves-number",
            "sigma1-number", "unknown-role"])
    def test_malformed_skein_document_names_its_path(
            self, tmp_path, capsys, part, edit):
        # stricter than test_malformed_input_is_one_line: a skein document
        # is refused like a surface, as a ParseError naming the file
        doc = json.loads(golden("skein_octagon.json"))
        edit(doc[part])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run(["skein-check", str(p)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ParseError: %s: " % p)
        assert err.count("\n") == 1

    def test_skein_check_needs_both_keys(self, tmp_path, capsys):
        p = tmp_path / "half.json"
        p.write_text(json.dumps({"surface": {}}), encoding="utf-8")
        code, _ = run(["skein-check", str(p)])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("instance,message", [
        ({"variant": "BOGUS", "mystery": 1}, "unknown variant 'BOGUS'"),
        ({"curves": {}}, "unknown variant None"),
    ], ids=["unknown", "missing"])
    def test_skein_check_names_a_bad_variant(self, tmp_path, capsys,
                                             instance, message):
        doc = json.loads(golden("skein_octagon.json"))
        doc["instance"] = instance
        p = tmp_path / "variant.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = run(["skein-check", str(p)])
        assert code == 1
        assert capsys.readouterr().err == "ParseError: %s: %s\n" % (
            p, message)

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

    def test_duplicate_punctures(self, tmp_path, capsys):
        p = tmp_path / "twice.json"
        doc = json.loads(golden("annulus.json"))
        doc["punctures"] = ["p", "p"]
        p.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(["expand", str(p)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "ParseError: %s: duplicate puncture labels\n" % p)

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
        ("annulus", lambda d: d["curves"][1].update(kinks=-3)),
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
        ("annulus", lambda d: d["curves"][0].update(name=["core"])),
        ("annulus", lambda d: d["curves"][1].update(puncture=3)),
        ("annulus",
         lambda d: d["curves"][1].update(crossings=[["1"], ["1"]])),
        ("annulus", lambda d: d["curves"][1].update(crossings=[1, 2])),
        ("skein_octagon", lambda d: d["instance"].update(split_index="1")),
        ("skein_octagon", lambda d: d["instance"].update(split_index=1.5)),
        ("skein_octagon",
         lambda d: d["instance"].update(loop_rotation=None)),
        ("skein_octagon",
         lambda d: d["instance"].update(loop_rotation=True)),
        ("skein_octagon",
         lambda d: d["instance"].update(insert="2 cw x:0-3")),
        ("skein_octagon", lambda d: d["instance"].update(loop_rotation=7)),
        ("skein_octagon", lambda d: d["instance"].update(split_index=1)),
        ("skein_octagon",
         lambda d: d["instance"]["curves"].update(delta="alpha1")),
        ("skein_octagon",
         lambda d: d["instance"]["lamination_counts"].update(
             delta={"0-2": 1})),
    ], ids=["start-range", "start-type", "end-type", "basepoint-range",
            "arc-without-name", "kinks-type", "kinks-negative",
            "self-folded-no-radius",
            "self-folded-not-object", "triangle-number",
            "triangle-without-sides", "arcs-number", "boundary-number",
            "punctures-number", "self-folded-number", "curves-number",
            "crossings-number", "ends-number", "arc-name-list",
            "instance-curves-number", "sigma1-number", "sigma2-number",
            "insert-number", "lamination-counts-number", "arc-label-list",
            "boundary-label-list", "puncture-label-list", "side-label-list",
            "ends-label-list", "self-folded-label-list",
            "role-counts-number", "count-string", "count-fraction",
            "curve-name-list", "curve-puncture-number",
            "crossing-label-list", "crossing-label-number",
            "split-index-string", "split-index-fraction",
            "loop-rotation-null", "loop-rotation-bool",
            "arc-arc-insert", "arc-arc-loop-rotation", "arc-arc-split-index",
            "unknown-curve-role", "unknown-counts-role"])
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

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_selftest_trials_is_one_line(self, monkeypatch, capsys,
                                             value):
        monkeypatch.setenv("SNAKE_SELFTEST_TRIALS", value)
        code, _ = run(["selftest", "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("SnakeGraphsError: ")

    @pytest.mark.parametrize("argv", [
        ["bmatrix", "--seed", "5"],
        ["bmatrix", "--keep-boundary"],
        ["bmatrix", "--curve", "core"],
        ["matchings", "--keep-boundary"],
        ["verify", "--keep-boundary"],
        ["skein-check", "--max-tiles", "2"],
    ])
    def test_flags_a_verb_ignores_are_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + [fixture("annulus.json")])
        assert exc.value.code == 2


def renamed(doc, old, new):
    """``doc`` with every string equal to ``old`` replaced by ``new``."""
    if isinstance(doc, dict):
        return {k: renamed(v, old, new) for k, v in doc.items()}
    if isinstance(doc, list):
        return [renamed(v, old, new) for v in doc]
    return new if doc == old else doc


def expand_renamed(name, old, new):
    """Run ``expand --keep-boundary`` on a fixture with one label renamed;
    return the exit code, stdout and stderr."""
    doc = renamed(json.loads(golden(name + ".json")), old, new)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "renamed.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stderr(err):
            code, out = run(["expand", "--keep-boundary", path])
    return code, out, err.getvalue()


def assert_refused_or_read_back(code, out, err):
    if code == 1:
        assert err.count("\n") == 1
        return
    assert code == 0 and err == ""
    for line in out.splitlines():
        key, _, text = line.partition(": ")
        if key in ("X", "F", "x"):
            assert format_poly(parse_poly(text)) == text


class TestLabelsReadBack:
    """Every label a document may use prints as text that parses back."""

    @pytest.mark.parametrize("label", ["", " ", "a*b", "a^2", "a + b"])
    def test_unreadable_label_is_refused(self, label):
        code, out, err = expand_renamed("hexagon", "0-2", label)
        assert (code, out) == (1, "")
        assert err.startswith("ParseError: ") and err.count("\n") == 1
        assert "a label is a nonempty string" in err

    def test_colon_in_label_reads_back(self):
        code, out, err = expand_renamed("hexagon", "0-2", "a:b")
        assert code == 0 and "x:a:b" in out
        assert_refused_or_read_back(code, out, err)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_renamed_label(self, data):
        name = data.draw(st.sampled_from(
            ("hexagon", "annulus", "selffolded_disk")))
        doc = json.loads(golden(name + ".json"))
        old = data.draw(st.sampled_from(sorted(
            doc["arcs"] + doc["boundary"] + doc["punctures"])))
        new = data.draw(st.sampled_from(("", " ", "a*b", "a^2", "a + b",
                                         "a:b", "(", "-"))
                        | st.text(max_size=5))
        assert_refused_or_read_back(*expand_renamed(name, old, new))


SURFACE_VERBS = (["expand"], ["expand", "--keep-boundary"], ["bmatrix"],
                 ["matchings"], ["snake-dot"], ["verify"])
FUZZ_VALUES = (None, True, 1.5, -1, 10 ** 6, "", [], {})


def slots(doc):
    """Every (container, key or index) pair of a JSON document."""
    out = []
    todo = [doc]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            pairs = node.items()
        elif isinstance(node, list):
            pairs = enumerate(node)
        else:
            continue
        for key, value in pairs:
            out.append((node, key))
            todo.append(value)
    return out


def mutate(doc, rng):
    """Make one or two random changes to ``doc`` in place: drop a key or
    an entry, or replace a value by one of FUZZ_VALUES."""
    for _ in range(rng.randint(1, 2)):
        node, key = rng.choice(slots(doc))
        if rng.random() < 0.25:
            del node[key]
        else:
            node[key] = json.loads(json.dumps(rng.choice(FUZZ_VALUES)))
    return doc


class TestMutationFuzz:
    """Seeded random damage to each fixture never escapes as a Python
    exception: every verb exits 0 or 1, with at most one stderr line."""

    SEEDS = 30

    @pytest.mark.parametrize("name,verbs", [
        ("annulus", SURFACE_VERBS),
        ("selffolded_disk", SURFACE_VERBS),
        ("punctured_torus", SURFACE_VERBS),
        ("hexagon", SURFACE_VERBS),
        ("skein_octagon", (["skein-check"],)),
    ])
    def test_mutated_fixture(self, tmp_path, name, verbs):
        path = str(tmp_path / "mutant.json")
        for seed in range(self.SEEDS):
            doc = mutate(json.loads(golden(name + ".json")),
                         random.Random(seed))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for verb in verbs:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code, _ = run(verb + [path])
                assert code in (0, 1), (seed, verb, doc)
                assert err.getvalue().count("\n") == (code == 1), \
                    (seed, verb, doc, err.getvalue())
