"""Command-line dispatch, exit codes, JSON round trips, SVG determinism."""

import io
import json
import sys
from fractions import Fraction
from xml.dom import minidom

import pytest

from air.cli import run_cli
from air.exactgeom import PointConfig
from air.infrared import StokesMatrix
from air.perv import MatrixDiagram, braid_word
from air.render import Overlay, Scene, render_svg, _dec6


def invoke(*argv):
    out, err = io.BytesIO(), io.BytesIO()
    code = run_cli(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def md(tmp_path):
    cfg = PointConfig.of([("w1", 0, 0), ("w2", 2, 1), ("w3", 1, -3)])
    d = MatrixDiagram(
        cfg, {l: 1 for l in cfg.labels},
        {l: [[Fraction(-1)]] for l in cfg.labels},
        {("w2", "w1"): [[Fraction(2)]], ("w3", "w1"): [[Fraction(5)]],
         ("w2", "w3"): [[Fraction(7)]]})
    path = tmp_path / "md.json"
    path.write_text(d.to_json())
    return d, str(path)


@pytest.fixture
def pentagon(tmp_path):
    cfg = PointConfig.of([("p1", 0, 0), ("p2", 4, 0), ("p3", 6, 3),
                          ("p4", 3, 6), ("p5", -1, 3)])
    path = tmp_path / "pentagon.json"
    path.write_text(cfg.to_json())
    return cfg, str(path)


# -- exit codes ----------------------------------------------------------------------


def test_zero_zeta_is_usage_error(md):
    _, path = md
    code, out, err = invoke("stokes", "--config", path, "--zeta", "0,0")
    assert code == 2
    assert b"usage error" in err


def test_missing_file_is_usage_error():
    code, _, err = invoke("secondary", "--config", "/no/such/file.json")
    assert code == 2


def test_unreadable_config_path_is_usage_error(tmp_path):
    code, out, err = invoke("triangulations", "--config", str(tmp_path))
    assert code == 2
    assert out == b""
    assert b"usage error" in err
    assert b"Traceback" not in err


@pytest.mark.parametrize("label", [1, [1]])
def test_non_string_label_is_domain_error(tmp_path, label):
    obj = PointConfig.of([("a", 0, 0), ("b", 4, 0), ("c", 0, 4)]).to_obj()
    obj["points"][1]["label"] = label
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    code, out, err = invoke("triangulations", "--config", str(path))
    assert code == 1
    assert out == b""
    payload = json.loads(err)
    assert payload["error"] == "GeometryError"
    assert "labels must be strings" in payload["message"]


def test_domain_error_is_machine_readable(md):
    _, path = md
    code, out, err = invoke("wallcross", "--config", path, "--ray", "1,1")
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "BadRay"
    assert "message" in payload


@pytest.mark.parametrize("argv", [
    ["stokes", "--zeta", "1,0"],
    ["wallcross", "--ray", "1,0"],
    ["mutate", "--word", "1"],
    ["trace", "--subset", "p1,p2,p3"],
])
def test_bare_configuration_for_a_diagram_is_domain_error(pentagon, argv):
    _, path = pentagon
    code, out, err = invoke(argv[0], "--config", path, *argv[1:])
    assert code == 1
    assert out == b""
    payload = json.loads(err)
    assert payload["error"] == "MalformedDiagram"
    assert "'phi_dims'" in payload["message"]


@pytest.mark.parametrize("key, label, value", [
    ("monodromies", "w1", 5),
    ("monodromies", "w1", [5]),
    ("transports", "w2->w1", 7),
    ("phi_dims", "w1", [1]),
    ("phi_dims", "w1", True),
    ("order", None, 5),
    ("order", None, [1, "w2", "w3"]),
    ("order", None, ["w1", "w2", ["w3"]]),
])
def test_wrong_value_type_in_a_diagram_is_domain_error(md, key, label, value):
    d, path = md
    obj = d.to_obj()
    if label is None:
        obj[key] = value
    else:
        obj[key][label] = value
    with open(path, "w") as f:
        json.dump(obj, f)
    code, out, err = invoke("stokes", "--config", path, "--zeta", "1,0")
    assert code == 1
    assert out == b""
    payload = json.loads(err)
    assert payload["error"] in ("MalformedDiagram", "MalformedMatrix")
    assert key in payload["message"]


@pytest.mark.parametrize("edit, error, named", [
    (lambda obj: obj["phi_dims"].update(w2=-1), "MalformedDiagram",
     "phi_dims[w2]"),
    (lambda obj: obj.update(points={}), "GeometryError", "points"),
    (lambda obj: obj.update(points=""), "GeometryError", "points"),
    (lambda obj: obj["transports"].update({"w2->w1": [[True]]}),
     "GeometryError", "True"),
    (lambda obj: obj["points"][0].update(x=True), "GeometryError", "True"),
    (lambda obj: obj["transports"].update({"w2->w1": [["1" * 4301]]}),
     "GeometryError", "1111"),
    (lambda obj: obj["transports"].update({"w1->w1": [["1"]]}),
     "MalformedDiagram", "'w1->w1'"),
], ids=["negative-dim", "points-object", "points-string", "true-entry",
        "true-coordinate", "over-long-entry", "self-transport"])
def test_malformed_diagram_entries_are_domain_errors(md, edit, error, named):
    d, path = md
    obj = d.to_obj()
    edit(obj)
    with open(path, "w") as f:
        json.dump(obj, f)
    code, out, err = invoke("stokes", "--config", path, "--zeta", "1,0")
    assert code == 1
    assert out == b""
    payload = json.loads(err)
    assert payload["error"] == error
    assert named in payload["message"]


def _int_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python reads integers of any length")
    return limit


@pytest.mark.parametrize("cmd", ["stokes", "triangulations", "lefschetz"])
def test_bare_json_number_past_the_int_digit_limit_is_domain_error(
        md, cmd):
    """json reads a bare integer with int, which refuses more digits than
    the limit; the quoted form is a GeometryError, and so is this one."""
    huge = "1" * (_int_digit_limit() + 1)
    d, path = md
    if cmd == "lefschetz":
        argv = ("lefschetz", "--coeffs", f'["0", {huge}, "0", "1"]')
    else:
        text = d.to_json().replace('"x": "2"', f'"x": {huge}', 1)
        assert huge in text
        with open(path, "w") as f:
            f.write(text)
        argv = (cmd, "--config", path) + (("--zeta", "1,0")
                                          if cmd == "stokes" else ())
    code, out, err = invoke(*argv)
    assert code == 1
    assert out == b""
    payload = json.loads(err)
    assert payload["error"] == "GeometryError"
    assert "too long" in payload["message"]


@pytest.mark.parametrize("cmd", ["triangulations", "secondary"])
def test_collinear_configuration_is_domain_error(tmp_path, cmd):
    cfg = PointConfig.of([("a", 0, 0), ("b", 1, 0), ("c", 2, 0),
                          ("d", 1, 2)])
    path = tmp_path / "collinear.json"
    path.write_text(cfg.to_json())
    code, out, err = invoke(cmd, "--config", str(path))
    assert code == 1
    assert out == b""
    assert b"Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "DegenerateConfig"
    assert "'a', 'b', 'c'" in payload["message"]


def test_success_exit_zero(md):
    _, path = md
    code, _, _ = invoke("stokes", "--config", path, "--zeta", "0,1")
    assert code == 0


# -- subcommands ---------------------------------------------------------------------


def test_stokes_oracle_reports_equal(md):
    _, path = md
    code, out, _ = invoke("stokes", "--config", path, "--zeta", "0,1",
                          "--oracle")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "EQUAL"
    assert obj["equal"] is True
    assert obj["stokes"] == obj["oracle"]
    assert obj["stokes"]["blocks"]["w2->w1"] == [["37"]]


def test_stokes_json_reads_back(md):
    d, path = md
    code, out, _ = invoke("stokes", "--config", path, "--zeta", "0,1")
    assert code == 0
    parsed = StokesMatrix.from_obj(json.loads(out)["stokes"])
    from air.infrared import stokes_matrix
    from air.exactgeom import Direction
    assert parsed == stokes_matrix(d, Direction.of(0, 1))


def test_secondary_pentagon(pentagon):
    _, path = pentagon
    code, out, _ = invoke("secondary", "--config", path)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 5
    assert obj["dim"] == 2


def test_triangulations_pentagon(pentagon):
    _, path = pentagon
    code, out, _ = invoke("triangulations", "--config", path)
    assert json.loads(out)["count"] == 5


def test_usage_error_leaves_the_parser_reusable(pentagon):
    # one parser serves every call in the process
    _, path = pentagon
    first = invoke("triangulations", "--config", path)
    bad = invoke("triangulations", "--config", path, "--bogus")
    assert bad[0] == 2 and bad[1] == b"" and b"usage error" in bad[2]
    assert invoke("triangulations") == (2, b"", invoke("triangulations")[2])
    assert invoke("triangulations", "--config", path) == first
    assert first[0] == 0


def test_paths_subcommand(md):
    _, path = md
    code, out, _ = invoke("paths", "--config", path, "--zeta", "0,1",
                          "--from", "w2", "--to", "w1")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == ["w2", "w3", "w1"]
    assert obj["paths"] == [["w2", "w1"], ["w2", "w3", "w1"]]


@pytest.mark.parametrize("src, dst", [("w2", "zz"), ("w1", "w2")],
                         ids=["unknown-label", "reversed-pair"])
def test_paths_names_bad_endpoints(md, src, dst):
    _, path = md
    code, out, err = invoke("paths", "--config", path, "--zeta", "0,1",
                            "--from", src, "--to", dst)
    assert code == 1 and out == b""
    assert json.loads(err)["error"] == "BadEndpoints"


@pytest.mark.parametrize("argv", [["stokes", "--zeta", "1,0"],
                                  ["trace", "--subset", "w1,w2,w3"]])
def test_singular_monodromy_is_named(md, argv):
    d, path = md
    obj = d.to_obj()
    obj["monodromies"]["w1"] = [["0"]]
    with open(path, "w") as f:
        json.dump(obj, f)
    code, out, err = invoke(argv[0], "--config", path, *argv[1:])
    assert code == 1 and out == b""
    payload = json.loads(err)
    assert payload["error"] == "SingularMonodromy"
    assert "w1" in payload["message"]


def test_mutate_round_trip(md):
    d, path = md
    code, out, _ = invoke("mutate", "--config", path, "--word", "1,2,-1")
    assert code == 0
    got = MatrixDiagram.from_obj(json.loads(out))
    want = braid_word(d, [(1, False), (2, False), (1, True)])
    assert got.to_json() == want.to_json()


def test_mutate_inverse_word_restores(md):
    d, path = md
    code, out, _ = invoke("mutate", "--config", path, "--word", "1,-1")
    assert MatrixDiagram.from_obj(json.loads(out)).to_json() == d.to_json()


def test_trace_subcommand(md):
    _, path = md
    code, out, _ = invoke("trace", "--config", path,
                          "--subset", "w1,w2,w3")
    assert code == 0
    assert json.loads(out)["trace"] == "0"  # one boundary edge is zero


def test_lefschetz_subcommand():
    code, out, _ = invoke("lefschetz", "--coeffs", '["0","-1","0","1/3"]')
    assert code == 0
    got = MatrixDiagram.from_obj(json.loads(out))
    assert abs(got.t("w1", "w2")[0][0]) == 1
    code2, _, err = invoke("lefschetz", "--coeffs", '["0","0","0","1"]')
    assert code2 == 1
    assert json.loads(err)["error"] == "NotMorse"


@pytest.mark.parametrize("coeffs", ['[null]', '[[1]]', '[{"a": 1}]',
                                    '["0", "x", "1"]', '[0, NaN, 1]'])
def test_lefschetz_rejects_junk_coefficients(coeffs):
    code, out, err = invoke("lefschetz", "--coeffs", coeffs)
    assert code == 1 and out == b""
    assert json.loads(err)["error"] == "GeometryError"


@pytest.mark.parametrize("coeffs", ['["1","2"]', '["1","2","0"]'],
                         ids=["degree-1", "zero-leading"])
def test_lefschetz_names_a_bad_superpotential(coeffs):
    code, out, err = invoke("lefschetz", "--coeffs", coeffs)
    assert code == 1 and out == b""
    assert json.loads(err)["error"] == "BadSuperpotential"


def test_lefschetz_reads_a_json_number_as_its_decimal():
    code, out, _ = invoke("lefschetz", "--coeffs", '["0", 0.1, "0", "1"]')
    assert code == 0
    assert out == invoke("lefschetz", "--coeffs", '["0", "1/10", "0", "1"]')[1]
    from air.lefschetz import Superpotential
    assert Superpotential.of([0, 0.1, 0, 1]).coefficients[1] == Fraction(1, 10)


def test_wallcross_subcommand(md):
    _, path = md
    code, out, _ = invoke("wallcross", "--config", path, "--ray", "2,1")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"after", "before", "connecting", "ray",
                        "zeta_after", "zeta_before"}


def test_verify_single_criterion():
    code, out, _ = invoke("verify", "--criteria", "2")
    assert code == 0
    assert out.decode().startswith("PASS criterion  2")


def test_format_pretty_same_object(md):
    _, path = md
    _, compact, _ = invoke("stokes", "--config", path, "--zeta", "0,1")
    _, pretty, _ = invoke("--format", "pretty", "stokes", "--config", path,
                          "--zeta", "0,1")
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


# -- rendering -----------------------------------------------------------------------


def scene_file(tmp_path, cfg, overlays):
    obj = {"config": cfg.to_obj(), "overlays": overlays}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_render_structure(tmp_path, pentagon):
    cfg, _ = pentagon
    path = scene_file(tmp_path, cfg, [
        {"kind": "hull"},
        {"kind": "path", "vertices": ["p1", "p2", "p3"]},
    ])
    code, out, _ = invoke("render", "--scene", path)
    assert code == 0
    text = out.decode()
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<circle") == 5
    assert "<polyline" in text
    assert 'class="hull"' in text


def test_render_single_point(tmp_path):
    cfg = PointConfig.of([("a", 1, 2)])
    path = scene_file(tmp_path, cfg, [])
    code, out, _ = invoke("render", "--scene", path)
    assert code == 0
    assert out.decode().count("<circle") == 1


def test_render_deterministic(tmp_path, pentagon):
    cfg, _ = pentagon
    path = scene_file(tmp_path, cfg, [{"kind": "rays"}])
    outs = {invoke("render", "--scene", path)[1] for _ in range(3)}
    assert len(outs) == 1


def test_render_escapes_labels_and_styles(tmp_path):
    fill = 'red" onload="alert(1)'
    scene = {"config": PointConfig.of([("a<b&c", 0, 0), ("d", 1, 1)]).to_obj(),
             "overlays": [{"kind": "path", "vertices": ["a<b&c", "d"]},
                          {"kind": "hull"}],
             "style": {"fill": fill, "stroke": 7}}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, out, _ = invoke("render", "--scene", str(path))
    assert code == 0
    doc = minidom.parseString(out)
    labels = [t.firstChild.data.strip("\u2009")
              for t in doc.getElementsByTagName("text")]
    assert labels == ["a<b&c", "d"]
    circles = doc.getElementsByTagName("circle")
    assert {c.getAttribute("fill") for c in circles} == {fill}
    assert not any(c.hasAttribute("onload") for c in circles)
    assert doc.getElementsByTagName("polyline")[0].getAttribute("stroke") == fill
    # a style value may be any JSON value; it is written as its str
    assert doc.getElementsByTagName("polygon")[0].getAttribute("stroke") == "7"


def test_render_to_file(tmp_path, pentagon):
    cfg, _ = pentagon
    path = scene_file(tmp_path, cfg, [])
    target = tmp_path / "out.svg"
    code, out, _ = invoke("render", "--scene", path, "--out", str(target))
    assert code == 0
    assert target.read_bytes().startswith(b'<?xml')
    assert json.loads(out)["path"] == str(target)


def test_render_empty_scene_domain_error(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"config": {"points": []}, "overlays": []}))
    code, _, err = invoke("render", "--scene", str(path))
    assert code == 1
    assert json.loads(err)["error"] == "EmptyScene"


_POINTS = {"points": [{"label": "a", "x": "0", "y": "0"},
                      {"label": "b", "x": "1", "y": "1"}]}


@pytest.mark.parametrize("scene", [
    {},
    [],
    {"config": _POINTS, "overlays": 5},
    {"config": _POINTS, "overlays": [5]},
    {"config": _POINTS, "overlays": [{"kind": "triangulation"}]},
    {"config": _POINTS, "overlays": [{"kind": "triangulation", "cells": [5]}]},
    {"config": _POINTS, "overlays": [{"kind": "path"}]},
    {"config": _POINTS, "overlays": [{"kind": "path", "vertices": 5}]},
    {"config": _POINTS, "overlays": [{"kind": "rays", "rays": [5]}]},
    {"config": _POINTS, "overlays": [{"kind": "rays", "rays": ["1,x"]}]},
    {"config": _POINTS, "overlays": [{"kind": "bogus"}]},
    {"config": _POINTS, "overlays": [{"kind": "path", "vertices": ["a", "z"]}]},
    {"config": _POINTS, "viewport": 5},
    {"config": _POINTS, "viewport": [0, 0, 1]},
    {"config": _POINTS, "style": [1]},
    {"config": _POINTS, "viewport": [1, 0, 1, 1]},
])
def test_render_malformed_scene_is_a_domain_error(tmp_path, scene):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, out, err = invoke("render", "--scene", str(path))
    assert code == 1 and out == b""
    assert json.loads(err)["error"] == "MalformedScene"


def test_render_rejects_unknown_labels():
    cfg = PointConfig.of([("a", 0, 0), ("b", 1, 1)])
    with pytest.raises(ValueError):
        Scene(cfg, [Overlay("path", vertices=["a", "zzz"])])


def test_scene_round_trip(pentagon):
    cfg, _ = pentagon
    scene = Scene(cfg, [Overlay("hull"),
                        Overlay("path", vertices=["p1", "p2"])])
    again = Scene.from_json(scene.to_json())
    assert again.to_json() == scene.to_json()
    assert render_svg(again) == render_svg(scene)


def test_dec6_exact_rounding():
    assert _dec6(Fraction(1, 3)) == "0.333333"
    assert _dec6(Fraction(-1, 2)) == "-0.500000"
    assert _dec6(Fraction(2)) == "2.000000"
    assert _dec6(Fraction(1, 2 * 10 ** 6)) == "0.000000"   # ties to even
    assert _dec6(Fraction(3, 2 * 10 ** 6)) == "0.000002"
    assert _dec6(Fraction(-1, 10 ** 7)) == "0.000000"      # no negative zero

