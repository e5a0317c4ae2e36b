import json
import math
import os
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from tripletree import cli
from tripletree import dataset as ds
from tripletree import tree as tr

from .conftest import build_tree
from .test_dataset import BAD_TRACES, CSV_READER_FAULTS

ROAD_FLAGS = ["--r-left", "-100", "--r-right", "-100", "--r-speed", "1",
              "--grid", "12,12", "--tol", "1e-5"]


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset and fitted tree shared across CLI tests."""
    base = tmp_path_factory.mktemp("cli")
    data = str(base / "road.csv")
    tree = str(base / "tree.json")
    assert run(["gen-road", *ROAD_FLAGS, "--samples", "1200",
                "--episode-len", "60", "--seed", "3", "--out", data]) == 0
    assert run(["fit", "--data", data, "--gamma", "0.99",
                "--theta", "0.2,0.6,0.2", "--max-leaves", "40",
                "--out", tree]) == 0
    return base, data, tree


def test_gen_road_and_fit_artifacts_exist(workspace):
    base, data, tree = workspace
    assert os.path.getsize(data) > 0
    loaded = tr.deserialize(Path(tree).read_bytes())
    assert loaded.n_leaves <= 40
    assert loaded.feature_names == ["pos", "speed"]
    assert all(l.transitions is not None for l in loaded.leaves.values())


def test_gen_road_json_is_the_csv_trace(workspace, tmp_path):
    base, data, tree = workspace
    out = tmp_path / "road.json"
    assert run(["gen-road", *ROAD_FLAGS, "--samples", "1200",
                "--episode-len", "60", "--seed", "3", "--format", "json",
                "--out", str(out)]) == 0
    assert out.read_bytes() == ds.trace_to_json_bytes(ds.load_trace_path(data))


def test_cli_determinism_gen_and_fit(workspace, tmp_path):
    base, data, tree = workspace
    other_data = str(tmp_path / "again.csv")
    other_tree = str(tmp_path / "again.json")
    assert run(["gen-road", *ROAD_FLAGS, "--samples", "1200",
                "--episode-len", "60", "--seed", "3",
                "--out", other_data]) == 0
    assert Path(other_data).read_bytes() == Path(data).read_bytes()
    assert run(["fit", "--data", other_data, "--gamma", "0.99",
                "--theta", "0.2,0.6,0.2", "--max-leaves", "40",
                "--out", other_tree]) == 0
    assert Path(other_tree).read_bytes() == Path(tree).read_bytes()


def test_eval_single_tree(workspace, tmp_path, capsys):
    base, data, tree = workspace
    out = str(tmp_path / "losses.json")
    assert run(["eval", "--tree", tree, "--data", data, "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert set(doc) >= {"action_loss", "value_loss", "deriv_loss"}
    assert doc["action_loss"] >= 0


def test_eval_curve(workspace, tmp_path):
    base, data, tree = workspace
    out = str(tmp_path / "curve.csv")
    assert run(["eval", "--data", data, "--curve", "--gamma", "0.99",
                "--theta", "1,1,1", "--max-leaves", "15", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "leaves,action_loss,value_loss,deriv_loss"
    assert len(lines) == 16  # header + one row per leaf count
    first = lines[1].split(",")
    assert first[0] == "1"
    # losses shrink as the tree grows
    assert float(lines[-1].split(",")[2]) <= float(lines[1].split(",")[2])


def test_predict_command(workspace, capsys):
    base, data, tree = workspace
    assert run(["predict", "--tree", tree, "--state", "1.5,0.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"action", "value", "derivative", "leaf"}


def test_explain_factual_counterfactual_temporal(workspace, capsys):
    base, data, tree = workspace
    loaded = tr.deserialize(Path(tree).read_bytes())
    s = "1.5,0.0"
    assert run(["explain", "--tree", tree, "--state", s]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Action = ")

    pred = tr.predict(loaded, [1.5, 0.0]).action
    foil = str(-0.001 if pred == 0.001 else 0.001)
    assert run(["explain", "--tree", tree, "--state", s,
                "--foil", foil, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert "Action would" in out or "never predicted" in out

    assert run(["explain", "--tree", tree, "--state", s,
                "--value-cond", "<=-50"]) == 0
    assert "Value" in capsys.readouterr().out


def test_explain_foil_of_a_text_label(tmp_path, capsys):
    # a CSV trace whose actions are words: the foil is a label, not a number
    rows = ["episode,t,terminal,x,a,r"]
    for ep in range(4):
        for t in range(6):
            rows.append(f"{ep},{t},{int(t == 5)},{t / 5!r},"
                        f"{'left' if t < 3 else 'right'},1.0")
    data = tmp_path / "labels.csv"
    data.write_text("\n".join(rows) + "\n")
    tree = str(tmp_path / "labels_tree.json")
    assert run(["fit", "--data", str(data), "--gamma", "0.9",
                "--theta", "1,0,0", "--max-leaves", "2", "--out", tree]) == 0
    capsys.readouterr()
    assert run(["explain", "--tree", tree, "--state", "0.1",
                "--foil", "right"]) == 0
    assert capsys.readouterr().out == "Action would = right if x >= 0.5\n"


def test_simulate_between_states(workspace, tmp_path, capsys):
    base, data, tree = workspace
    out = str(tmp_path / "path.json")
    svg = str(tmp_path / "path.svg")
    assert run(["simulate", "--tree", tree, "--start", "1.5,0.0",
                "--end", "1.5,0.02", "--out", out, "--svg", svg,
                "--max-iters", "60"]) == 0
    doc = json.loads(Path(out).read_text())
    if doc["path"] is not None:
        assert doc["path"]["probability"] > 0
        assert Path(svg).read_text().startswith("<svg")


def test_simulate_between_leaves_no_route_joins(tmp_path, capsys):
    # two leaves with no recorded transitions: the query is answered, with
    # no path
    tree = tmp_path / "two-leaves.json"
    tree.write_bytes(tr.serialize(build_tree(
        ("split", 0, 1.5, ("leaf", {}), ("leaf", {})),
        [[0.0, 3.0], [-1.0, 1.0]])))
    out = tmp_path / "path.json"
    capsys.readouterr()
    assert run(["simulate", "--tree", str(tree), "--start-leaf", "0",
                "--end-leaf", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        "no observed route from leaf 0 to leaf 1\n"
    assert json.loads(out.read_text()) == {"path": None}


def test_simulate_zone_mode(workspace, tmp_path):
    base, data, tree = workspace
    out = str(tmp_path / "zones.json")
    assert run(["simulate", "--tree", tree,
                "--start-zone", "1.4,-0.01:1.6,0.01",
                "--end-zone", "0.5,-0.05:2.5,0.05",
                "--min-prob", "0.2", "--max-iters", "40",
                "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert isinstance(doc["paths"], list)
    probs = [p["probability"] for p in doc["paths"]]
    assert probs == sorted(probs, reverse=True)
    assert all(p >= 0.2 for p in probs)


def test_viz_modes(workspace, tmp_path):
    base, data, tree = workspace
    for mode, attr in [("direct", "action"), ("direct", "derivative"),
                       ("projection", "value"), ("slice", "density")]:
        out = str(tmp_path / f"{mode}_{attr}.json")
        svg = str(tmp_path / f"{mode}_{attr}.svg")
        assert run(["viz", "--tree", tree, "--attribute", attr,
                    "--mode", mode, "--plane", "pos,speed",
                    "--resolution", "24,18", "--out", out,
                    "--svg", svg]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc
        assert Path(svg).read_text().startswith("<svg")


def _one_feature_tree(tmp_path) -> str:
    """A four-leaf tree file over one feature, ``x``."""
    rows = ["episode,t,terminal,x,a,r"] + [
        f"{e},{t},{int(t == 9)},{(7 * e + 3 * t) % 10 / 10},{t % 2},{t}"
        for e in range(4) for t in range(10)]
    (tmp_path / "d1.csv").write_text("\n".join(rows) + "\n")
    tree = str(tmp_path / "tree.json")
    assert run(["fit", "--data", str(tmp_path / "d1.csv"), "--gamma", "0.9",
                "--theta", "1,1,1", "--max-leaves", "4", "--out", tree]) == 0
    return tree


def test_viz_direct_on_a_one_feature_tree(tmp_path):
    tree = _one_feature_tree(tmp_path)
    out = str(tmp_path / "v.json")
    svg = tmp_path / "v.svg"
    for flags, code in (([], 0), (["--plane", "0,0"], 0),
                        (["--svg", str(svg)], 0),
                        (["--resolution=0,5"], 2), (["--fixed", "x=99"], 2)):
        assert run(["viz", "--tree", tree, "--mode", "direct", *flags,
                    "--out", out]) == code
    assert run(["viz", "--tree", tree, "--mode", "projection",
                "--out", out]) == 2
    # the SVG labels the x axis with the one feature, and the y axis not
    assert [el.text for el in ET.fromstring(svg.read_text())
            .iter("{http://www.w3.org/2000/svg}text")
            if el.get("font-size") == "11"] == ["x"]


@pytest.mark.parametrize("query", [["--start", "0.1", "--end", "0.9"],
                                   ["--start-zone", "0:0.3",
                                    "--end-zone", "0.5:1"]],
                         ids=["point", "zone"])
def test_simulate_on_a_one_feature_tree(query, tmp_path, capsys):
    # --svg is refused before any work, aligned or not; without it the
    # aligned paths of a one-feature tree are written
    tree = _one_feature_tree(tmp_path)
    out, svg = tmp_path / "s.json", tmp_path / "s.svg"
    for align in ([], ["--no-align"]):
        capsys.readouterr()
        assert run(["simulate", "--tree", tree, *query, *align,
                    "--out", str(out), "--svg", str(svg)]) == 2
        assert capsys.readouterr().err == \
            "error: --svg is only available for d=2 trees\n"
        assert not out.exists() and not svg.exists()
    assert run(["simulate", "--tree", tree, *query, "--out", str(out)]) == 0
    assert json.loads(out.read_text())


def test_viz_of_leaf_values_whose_range_overflows(tmp_path):
    # -1e308 and 1e308 load as finite values; their heat map's span
    # overflows, and they take the first and last viridis colours
    spec = ("split", 0, 1.0, ("leaf", {"action": "a", "value": -1e308}),
            ("leaf", {"action": "b", "value": 1e308}))
    tree = tmp_path / "tree.json"
    tree.write_bytes(tr.serialize(build_tree(spec, [[0.0, 2.0], [0.0, 2.0]])))
    svg = tmp_path / "v.svg"
    assert run(["viz", "--tree", str(tree), "--attribute", "value", "--mode",
                "direct", "--out", str(tmp_path / "v.json"),
                "--svg", str(svg)]) == 0
    fills = [el.get("fill") for el in ET.fromstring(svg.read_text())
             .iter("{http://www.w3.org/2000/svg}rect")]
    assert fills[1:3] == ["#440154", "#fde725"]


def test_svg_text_with_markup_characters_is_escaped(tmp_path):
    # feature names reach the axis labels and action labels the swatches
    labels = ["go<", "a&b>", "go\x01"]
    rows = ["episode,t,terminal,speed&x,pos<y,a,r"] + [
        f"{e},{t},{int(t == 9)},{(7 * e + 3 * t) % 10 / 10},{t / 10},"
        f"{labels[(e + t) % 3]},{t}" for e in range(4) for t in range(10)]
    (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
    tree = str(tmp_path / "tree.json")
    assert run(["fit", "--data", str(tmp_path / "d.csv"), "--gamma", "0.9",
                "--theta", "1,1,1", "--max-leaves", "6", "--out", tree]) == 0
    viz_svg, sim_svg = str(tmp_path / "viz.svg"), str(tmp_path / "sim.svg")
    assert run(["viz", "--tree", tree, "--attribute", "action", "--mode",
                "direct", "--out", str(tmp_path / "v.json"),
                "--svg", viz_svg]) == 0
    assert run(["simulate", "--tree", tree, "--start", "0.15,0.15",
                "--end", "0.85,0.85", "--out", str(tmp_path / "p.json"),
                "--svg", sim_svg]) == 0
    for svg in (viz_svg, sim_svg):
        texts = {el.text for el in ET.fromstring(Path(svg).read_text())
                 if el.tag.endswith("text")}
        # XML cannot hold a control character, even escaped
        assert {"speed&x", "pos<y", "go<", "a&b>", "go\ufffd"} <= texts


def test_sweep_theta_command(workspace, tmp_path):
    base, data, tree = workspace
    out = str(tmp_path / "sweep.csv")
    assert run(["sweep-theta", *ROAD_FLAGS, "--data", data,
                "--max-leaves", "12",
                "--theta-grid", "1,0,0;0,1,0;0,0,1;1,1,1",
                "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("theta_action,")
    assert sum(line.endswith(",1") for line in lines[1:]) == 1


def test_inspect_command(workspace, capsys):
    base, data, tree = workspace
    assert run(["inspect", "--tree", tree]) == 0
    out = capsys.readouterr().out
    assert "leaves" in out
    assert run(["inspect", "--tree", tree, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["action_kind"] == "discrete"


def test_exit_codes(workspace, tmp_path, capsys):
    base, data, tree = workspace
    # missing file -> data error
    assert run(["fit", "--data", str(tmp_path / "nope.csv"), "--gamma", "0.9",
                "--theta", "1,1,1", "--max-leaves", "4",
                "--out", str(tmp_path / "t.json")]) == 1
    # invalid theta -> usage error
    assert run(["fit", "--data", data, "--gamma", "0.9",
                "--theta", "-1,0,0", "--max-leaves", "4",
                "--out", str(tmp_path / "t.json")]) == 2
    assert run(["fit", "--data", data, "--gamma", "0.9",
                "--theta", "0,0,0", "--max-leaves", "4",
                "--out", str(tmp_path / "t.json")]) == 2
    # unknown flag -> argparse usage error
    assert run(["fit", "--nonsense"]) == 2
    # eval --curve with no --out, or a zero --max-leaves -> one usage line
    curve = ["eval", "--curve", "--data", data, "--gamma", "0.9",
             "--theta", "1,1,1"]
    capsys.readouterr()
    assert run([*curve, "--max-leaves", "3"]) == 2
    assert run([*curve, "--max-leaves", "0",
                "--out", str(tmp_path / "curve.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: --curve needs --data, --gamma, --theta, --max-leaves and --out\n"
        "error: max_leaves must be >= 1\n")
    assert not (tmp_path / "curve.csv").exists()
    # corrupt tree payload -> one data error line, exit 1
    bad = tmp_path / "bad.json"
    capsys.readouterr()
    bad.write_text("{")
    assert run(["inspect", "--tree", str(bad)]) == 1
    bad.write_text('{"version": 1}')
    assert run(["predict", "--tree", str(bad), "--state", "1,0"]) == 1
    err = capsys.readouterr().err
    assert err.count("data error: ") == 2 and err.count("\n") == 2


@pytest.mark.parametrize("command", ["viz", "dp-solve"])
def test_out_of_memory_prints_one_usage_error_line(command, workspace,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    # a flag value can ask for an array larger than the host holds; the
    # failing allocation is simulated, as a host that overcommits memory
    # could grant the real one and run out later
    base, data, tree = workspace
    reason = ("Unable to allocate 74.5 GiB for an array with shape "
              "(100000, 100000) and data type float64")

    def refuse(*args, **kwargs):
        raise MemoryError(reason)

    if command == "viz":
        monkeypatch.setattr(cli.viz, "pdp_projection", refuse)
        argv = ["viz", "--tree", tree, "--mode", "projection",
                "--resolution", "100000,100000"]
    else:
        monkeypatch.setattr(cli.road, "dp_solve", refuse)
        argv = ["dp-solve", *ROAD_FLAGS, "--grid", "2,100000000"]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {reason}\n"
    assert not out.exists()


BAD_ARGS = {
    "resolution-not-integers": ["viz", "--resolution", "abc"],
    "resolution-negative": ["viz", "--mode", "projection",
                            "--resolution=-3,4"],
    "resolution-zero": ["viz", "--mode", "projection", "--resolution=0,5"],
    "plane-one-feature": ["viz", "--plane", "0"],
    "fixed-not-a-number": ["viz", "--mode", "slice", "--fixed", "speed=abc"],
    "direct-resolution-zero": ["viz", "--mode", "direct", "--resolution=0,5"],
    "direct-fixed-off-range": ["viz", "--mode", "direct", "--fixed",
                               "speed=99"],
    "action-component-not-an-integer": ["viz", "--attribute", "action.x"],
    "action-component-negative": ["viz", "--attribute", "action.-9"],
    "derivative-component-negative": ["viz", "--attribute", "derivative.-1"],
    "value-cond-not-a-number": ["explain", "--state", "0,0",
                                "--value-cond", "<=abc"],
    "value-cond-nan": ["explain", "--state", "0,0", "--value-cond", "<=nan"],
    "value-cond-inf": ["explain", "--state", "0,0", "--value-cond", "<=inf"],
    "value-cond-minus-inf": ["explain", "--state", "0,0",
                             "--value-cond", ">=-inf"],
    "grid-one-number": ["gen-road", "--grid", "3"],
    "unknown-leaf-ids": ["simulate", "--start-leaf", "99999",
                         "--end-leaf", "99999"],
    "unknown-leaf-ids-no-align": ["simulate", "--start-leaf", "99999",
                                  "--end-leaf", "99999", "--no-align"],
    "min-prob-nan": ["simulate", "--start-zone", "1.4,-0.01:1.6,0.01",
                     "--end-zone", "0.5,-0.05:2.5,0.05", "--min-prob", "nan",
                     "--no-align"],
    "min-prob-inf": ["simulate", "--start-zone", "1.4,-0.01:1.6,0.01",
                     "--end-zone", "0.5,-0.05:2.5,0.05", "--min-prob", "inf",
                     "--no-align"],
    "align-step-size-nan": ["simulate", "--start", "1.5,0.0",
                            "--end", "1.5,0.02", "--step-size", "nan"],
    "align-max-iters-negative": ["simulate", "--start", "1.5,0.0",
                                 "--end", "1.5,0.02", "--max-iters", "-5"],
    "eval-without-tree-or-curve": ["eval"],
    "eval-curve-with-tree": ["eval", "--curve", "--tree", "tree.json",
                             "--gamma", "0.9", "--theta", "1,1,1",
                             "--max-leaves", "3"],
    "divisions-zero": ["sweep-theta", "--max-leaves", "4",
                       "--divisions", "0"],
    "divisions-negative": ["sweep-theta", "--max-leaves", "4",
                           "--divisions", "-1"],
    "theta-grid-empty": ["sweep-theta", "--max-leaves", "4",
                         "--theta-grid", ";"],
    "grid-past-index-range": ["dp-solve", "--grid", "2,1" + "0" * 30],
    "theta-malformed": ["fit", "--gamma", "0.99", "--max-leaves", "4",
                        "--theta", "1,x,1"],
    "theta-two-components": ["fit", "--gamma", "0.99", "--max-leaves", "4",
                             "--theta", "1,1"],
    "state-malformed": ["predict", "--state", "1.5;0"],
    "state-nan": ["predict", "--state", "1.5,nan"],
    "state-too-wide": ["predict", "--state", "1.5,0,0"],
    "feature-unknown": ["viz", "--mode", "projection", "--plane", "pos,spin"],
    "feature-index-out-of-range": ["viz", "--mode", "slice", "--plane", "0,2"],
    "foil-and-value-cond": ["explain", "--state", "1.5,0", "--foil", "0",
                            "--value-cond", "<=0.3"],
    "value-cond-and-next-state": ["explain", "--state", "1.5,0",
                                  "--value-cond", "<=0.3",
                                  "--next-state", "1.5,0.02"],
}


@pytest.mark.parametrize("name", list(BAD_ARGS))
def test_malformed_argument_prints_one_usage_error_line(name, workspace,
                                                        tmp_path, capsys):
    base, data, tree = workspace
    command, *flags = BAD_ARGS[name]
    argv = [command, *flags]
    if command in ("eval", "sweep-theta", "fit"):
        argv += ["--data", data]
    elif command not in ("gen-road", "dp-solve"):
        argv += ["--tree", tree]
    if command != "explain":
        argv += ["--out", str(tmp_path / "out.json")]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out.json")


# simulate queries that align no path, each with one bad alignment option:
# the options are checked before any path work, so each is a usage error
NO_ALIGNMENT = {
    "no-align": ["--start", "1.5,0.0", "--end", "1.5,0.02", "--no-align",
                 "--step-size", "nan"],
    "no-observed-route": ["--start-leaf", "0", "--end-leaf", "1",
                          "--max-iters", "-5"],
    "no-zone-path-above-min-prob": ["--start-zone", "1.4,-0.01:1.6,0.01",
                                    "--end-zone", "0.5,-0.05:2.5,0.05",
                                    "--min-prob", "2", "--tol", "nan"],
}


@pytest.mark.parametrize("name", list(NO_ALIGNMENT))
def test_simulate_checks_alignment_options_before_any_path_work(
        name, workspace, tmp_path, capsys):
    base, data, tree = workspace
    if name == "no-observed-route":
        # two leaves with no recorded transitions: no route joins them
        tree = str(tmp_path / "two-leaves.json")
        Path(tree).write_bytes(tr.serialize(build_tree(
            ("split", 0, 1.5, ("leaf", {}), ("leaf", {})),
            [[0.0, 3.0], [-1.0, 1.0]])))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(["simulate", "--tree", tree, *NO_ALIGNMENT[name],
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# simulate queries with a start or end that is missing or malformed, and
# what the error names
SIMULATE_USAGE = {
    "zone-nan-lower-bound": (["--start-zone", "nan,-0.03:0.9,0.0",
                              "--end-zone", "1.4,0.0:1.7,0.03",
                              "--min-prob", "0.05"], "is not a valid box"),
    "zone-nan-upper-bound": (["--start-zone", "0.7,-0.03:0.9,0.0",
                              "--end-zone", "1.4,0.0:1.7,nan"],
                             "is not a valid box"),
    "zone-without-upper-bounds": (["--start-zone", "0.7,-0.03",
                                   "--end-zone", "1.4,0.0:1.7,0.03"],
                                  "invalid zone"),
    "start-zone-alone": (["--start-zone", "0.7,-0.03:0.9,0.0"],
                         "zone mode needs both --start-zone and --end-zone"),
    "end-zone-alone": (["--end-zone", "1.4,0.0:1.7,0.03"],
                       "zone mode needs both --start-zone and --end-zone"),
    "no-start": (["--end", "1.5,0.02"],
                 "simulate needs --start or --start-leaf"),
    "start-without-end": (["--start", "1.5,0.0"],
                          "simulate needs --end or --end-leaf"),
}


@pytest.mark.parametrize("name", list(SIMULATE_USAGE))
def test_simulate_without_a_valid_start_and_end_prints_one_usage_line(
        name, workspace, tmp_path, capsys):
    base, data, tree = workspace
    flags, message = SIMULATE_USAGE[name]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run(["simulate", "--tree", tree, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_simulate_zone_bounds_may_be_infinite(workspace, tmp_path):
    # an infinite bound leaves the zone open on that side: the zones below
    # hold the same leaves as ones bounded past the data range
    base, data, tree = workspace
    docs = []
    for zones in (["-inf,-inf:0.9,inf", "1.4,-inf:inf,inf"],
                  ["-99,-99:0.9,99", "1.4,-99:99,99"]):
        out = tmp_path / "zones.json"
        assert run(["simulate", "--tree", tree, f"--start-zone={zones[0]}",
                    f"--end-zone={zones[1]}", "--min-prob", "0.01",
                    "--no-align", "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    assert docs[0] == docs[1] and docs[0]["paths"]


# road flags that no value iteration can meet, and what the error names
UNSOLVABLE_ROADS = {
    "reward-nan": (["--r-left", "nan"], "rewards must be finite"),
    "reward-inf": (["--r-speed", "inf"], "rewards must be finite"),
    "reward-minus-inf": (["--r-left", "-inf"], "rewards must be finite"),
    "values-overflow": (["--r-speed", "1e308"], "residual inf at sweep"),
    "tol-nan": (["--tol", "nan"], "tolerance nan"),
    "tol-inf": (["--tol", "inf"], "tolerance inf"),
    "tol-zero": (["--tol", "0"], "tolerance 0"),
    "tol-negative": (["--tol", "-0.5"], "tolerance -0.5"),
    "tol-negative-exponent": (["--tol", "-1e-06"],
                              "tolerance -1e-06 must be finite and > 0"),
    "tol-negative-plus-exponent": (["--tol", "-1e+2"], "tolerance -100 "),
}


@pytest.mark.parametrize("name", list(UNSOLVABLE_ROADS))
def test_unsolvable_road_prints_one_usage_error_line_at_once(name, tmp_path,
                                                             capsys):
    flags, message = UNSOLVABLE_ROADS[name]
    out = tmp_path / "road.csv"
    capsys.readouterr()
    t0 = time.perf_counter()
    assert run(["gen-road", *flags, "--samples", "10", "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 2.0  # not all 200000 sweeps
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-road", "sweep-theta"])
def test_tol_is_checked_when_no_solve_runs(command, workspace, tmp_path,
                                           capsys):
    # gen-road on a saved policy and sweep-theta solve nothing, yet a bad
    # --tol is the same one-line usage error as when dp_solve runs
    base, data, tree = workspace
    if command == "gen-road":
        policy = str(tmp_path / "policy.json")
        assert run(["dp-solve", *ROAD_FLAGS, "--out", policy]) == 0
        argv = ["gen-road", "--policy", policy, "--samples", "10"]
    else:
        argv = ["sweep-theta", "--data", data, "--max-leaves", "4",
                "--divisions", "1"]
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run([*argv, "--tol", "nan", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: tolerance nan must be finite and > 0\n"
    assert not out.exists()


def test_negative_numbers_in_scientific_notation_are_flag_values():
    args = cli.build_parser().parse_args(
        ["gen-road", "--r-left", "-100", "--r-right", "-1e+2",
         "--r-speed", "-2.5E-1", "--gamma", "-.5", "--tol", "-1e-06",
         "--out", "road.csv"])
    assert (args.r_left, args.r_right, args.r_speed, args.gamma, args.tol) == \
        (-100.0, -100.0, -0.25, -0.5, -1e-06)
    args = cli.build_parser().parse_args(
        ["simulate", "--tree", "t.json", "--min-prob", "-1e-3",
         "--step-size", "-5e+0", "--tol", "-1e-8", "--out", "p.json"])
    assert (args.min_prob, args.step_size, args.tol) == (-1e-3, -5.0, -1e-8)
    args = cli.build_parser().parse_args(
        ["dp-solve", "--r-left", "-inf", "--r-right", "-NaN", "--out", "p"])
    assert args.r_left == -math.inf and math.isnan(args.r_right)


@pytest.mark.parametrize("name", sorted(BAD_TRACES) + ["empty-vectors",
                                                      "non-utf8"]
                         + sorted(CSV_READER_FAULTS))
def test_fit_on_a_faulty_trace_prints_one_data_error_line(name, tmp_path,
                                                          capsys):
    payload = (BAD_TRACES[name][0].encode() if name in BAD_TRACES else
               CSV_READER_FAULTS[name][0].encode()
               if name in CSV_READER_FAULTS else
               b'[{"steps": [{"s": [0], "a": [], "r": 0}]}]'
               if name == "empty-vectors" else b"\xff")
    data = tmp_path / ("trace.csv" if name in CSV_READER_FAULTS
                       else "trace.json")
    data.write_bytes(payload)
    capsys.readouterr()
    assert run(["fit", "--data", str(data), "--gamma", "0.9", "--theta",
                "1,1,1", "--max-leaves", "4",
                "--out", str(tmp_path / "t.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


POLICY = {"pos_grid": [0.0, 3.0], "speed_grid": [-0.1, 0.1],
          "value": [[0.0, 0.0], [0.0, 0.0]], "action_idx": [[0, 1], [1, 0]],
          "actions": [-0.001, 0.001]}

DEEP = "[" * 100000 + "]" * 100000  # past Python's JSON nesting limit

BAD_FILES = {  # flag, file contents (None: a directory), error prefix
    "config-missing-key": (["gen-road", "--config"], "{}", "data error: "),
    "config-grid-not-a-list": (
        ["gen-road", "--config"],
        '{"r_left": -100, "r_right": -100, "r_speed": 1, "grid": 5}',
        "data error: "),
    "config-reward-not-a-number": (
        ["gen-road", "--config"],
        '{"r_left": "x", "r_right": -100, "r_speed": 1}', "data error: "),
    "config-not-utf8": (["gen-road", "--config"], b"\xff{}", "data error: "),
    "policy-missing-keys": (["gen-road", "--policy"], "{}", "data error: "),
    "policy-not-utf8": (["gen-road", "--policy"], b"\xff{}", "data error: "),
    "policy-one-point-grid": (
        ["gen-road", "--policy"],
        json.dumps({**POLICY, "pos_grid": [0.0], "value": [[0.0, 0.0]],
                    "action_idx": [[0, 1]]}), "data error: "),
    "policy-table-off-grid": (["gen-road", "--policy"],
                              json.dumps({**POLICY, "action_idx": [[0, 1]]}),
                              "data error: "),
    "policy-action-out-of-range": (
        ["gen-road", "--policy"],
        json.dumps({**POLICY, "action_idx": [[0, 2], [1, 0]]}),
        "data error: "),
    "policy-nan-in-grid": (
        ["gen-road", "--policy"],
        json.dumps({**POLICY, "pos_grid": [0.0, float("nan")]}),
        "data error: "),
    "policy-repeated-grid-entry": (
        ["gen-road", "--policy"],
        json.dumps({**POLICY, "speed_grid": [0.1, 0.1]}), "data error: "),
    "policy-nan-action": (
        ["gen-road", "--policy"],
        json.dumps({**POLICY, "actions": [float("nan"), 0.001]}),
        "data error: "),
    "config-reward-not-finite": (
        ["gen-road", "--config"],
        '{"r_left": -100, "r_right": -100, "r_speed": Infinity}',
        "data error: "),
    "config-range-reversed": (
        ["gen-road", "--config"],
        '{"r_left": -100, "r_right": -100, "r_speed": 1, "pos_range": [3, 0]}',
        "data error: "),
    "config-grid-below-2x2": (
        ["gen-road", "--config"],
        '{"r_left": -100, "r_right": -100, "r_speed": 1, "grid": [1, 5]}',
        "data error: "),
    "config-grid-past-index-range": (
        ["dp-solve", "--config"],
        '{"r_left": -100, "r_right": -100, "r_speed": 1, '
        '"grid": [2, 1%s]}' % ("0" * 30), "data error: "),
    "policy-iterations-past-float-range": (
        ["gen-road", "--policy"],
        json.dumps(POLICY)[:-1] + ', "iterations": 1e400}', "data error: "),
    "policy-action-index-not-integer": (
        ["gen-road", "--policy"],
        json.dumps({**POLICY, "action_idx": [[0, 0.5], [1, 0]]}),
        "data error: "),
    "policy-grid-step-past-float-range": (
        ["gen-road", "--policy"],
        json.dumps({**POLICY, "pos_grid": [-1e308, 1e308]}), "data error: "),
    "config-integer-past-float-range": (
        ["gen-road", "--config"],
        '{"r_left": -1%s, "r_right": -100, "r_speed": 1}' % ("0" * 400),
        "data error: "),
    "data-is-a-directory": (["fit", "--gamma", "0.9", "--theta", "1,1,1",
                             "--max-leaves", "4", "--data"], None,
                            "file error: "),
    "tree-is-a-directory": (["viz", "--tree"], None, "file error: "),
    "config-deep-nesting": (["gen-road", "--config"], DEEP, "data error: "),
    "policy-deep-nesting": (["gen-road", "--policy"], DEEP, "data error: "),
    "tree-deep-nesting": (["viz", "--tree"], DEEP, "data error: "),
}


@pytest.mark.filterwarnings("error")  # a warning would be another line
@pytest.mark.parametrize("name", list(BAD_FILES))
def test_faulty_input_file_prints_one_data_or_file_error_line(name, tmp_path,
                                                             capsys):
    argv, contents, prefix = BAD_FILES[name]
    path = tmp_path / "input"
    if contents is None:
        path.mkdir()
    else:
        path.write_bytes(contents if isinstance(contents, bytes)
                         else contents.encode())
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run([*argv, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not out.exists()


UTF16 = ("'utf-8' codec can't decode byte 0xff in position 0: invalid start "
         "byte")


@pytest.mark.parametrize("kind, fault, message", [
    ("tree", "utf-16", f"tree is not UTF-8 text: {UTF16}"),
    ("tree", "truncated", "invalid JSON tree: Unterminated string starting "
                          "at: line 1 column 10 (char 9)"),
    ("policy", "utf-16", f"policy is not UTF-8 text: {UTF16}"),
    ("policy", "truncated",
     "invalid JSON policy: Expecting value: line 1 column 16 (char 15)"),
], ids=["tree-utf-16", "tree-truncated", "policy-utf-16", "policy-truncated"])
def test_json_input_faults_read_as_the_reader_names_them(kind, fault, message,
                                                        tmp_path, capsys):
    # trees and policies are read as traces are: one message form per fault
    blob = (tr.serialize(build_tree(("leaf", {}), [[0.0, 1.0]]))
            if kind == "tree" else ds.json_bytes(POLICY))
    path = tmp_path / "input.json"
    path.write_bytes(blob.decode().encode("utf-16") if fault == "utf-16"
                     else blob[:15])
    out = tmp_path / "out.csv"
    argv = (["inspect", "--tree"] if kind == "tree"
            else ["gen-road", "--out", str(out), "--policy"])
    capsys.readouterr()
    assert run([*argv, str(path)]) == 1
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("header", ["episode,t,terminal,x,r",
                                    "episode,t,terminal,x,y,a0,r"])
def test_fit_on_a_csv_without_an_action_column_prints_one_line(header,
                                                                tmp_path,
                                                                capsys):
    width = header.count(",") + 1
    data = tmp_path / "f.csv"
    data.write_text(f"{header}\n"
                    + ",".join(["0", "0", "1"] + ["0.5"] * (width - 3)) + "\n")
    out = tmp_path / "t.json"
    capsys.readouterr()
    assert run(["fit", "--data", str(data), "--gamma", "0.9", "--theta",
                "1,1,1", "--max-leaves", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "data error: action columns must be named a, or a1..am\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a warning would be another line
@pytest.mark.parametrize("scale, reward", [(1e300, 0.0), (1.0, 1.7e308),
                                           (1.0, 1e200)],
                         ids=["states-1e300", "rewards-1.7e308",
                              "rewards-1e200"])
@pytest.mark.parametrize("argv", [
    ["fit", "--gamma", "0.9", "--theta", "1,1,1", "--max-leaves", "4"],
    ["eval", "--curve", "--gamma", "0.9", "--theta", "1,1,1",
     "--max-leaves", "20"],
    ["sweep-theta", "--max-leaves", "10", "--divisions", "2"]],
    ids=["fit", "eval-curve", "sweep-theta"])
def test_growing_commands_refuse_a_trace_whose_statistics_overflow(
        workspace, scale, reward, argv, tmp_path, capsys):
    # finite values whose spreads, returns or leaf statistics overflow: no
    # command writes a file, where fit once wrote a tree that every reader
    # refuses and eval --curve and sweep-theta wrote inf and nan losses
    trace = ds.load_trace_path(workspace[1])
    data = tmp_path / "f.csv"
    data.write_bytes(ds.trace_to_csv_bytes(ds.TraceDataset(
        trace.states * scale, trace.actions,
        np.full(trace.n_samples, reward), trace.starts, trace.terminal,
        trace.action_kind, trace.feature_names)))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--data", str(data), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: trace statistics overflow "
                                   "the float range") \
        and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_output_dir_env_var(workspace, tmp_path, monkeypatch):
    base, data, tree = workspace
    monkeypatch.setenv("TRIPLETREE_OUT_DIR", str(tmp_path / "outputs"))
    assert run(["eval", "--tree", tree, "--data", data,
                "--out", "losses.json"]) == 0
    assert (tmp_path / "outputs" / "losses.json").exists()


def test_gen_road_config_file(tmp_path):
    cfg = tmp_path / "road_cfg.json"
    cfg.write_text(json.dumps({"r_left": -100, "r_right": -100,
                               "r_speed": 1.0, "gamma": 0.99,
                               "grid": [10, 10]}))
    out = str(tmp_path / "d.csv")
    assert run(["gen-road", "--config", str(cfg), "--samples", "300",
                "--episode-len", "40", "--seed", "1", "--out", out]) == 0
    assert os.path.getsize(out) > 0


def test_explain_temporal_via_cli(workspace, capsys):
    base, data, tree = workspace
    loaded = tr.deserialize(Path(tree).read_bytes())
    # probe for two states with differing predictions
    states = [(p, s) for p in np.linspace(0.2, 2.8, 18)
              for s in np.linspace(-0.08, 0.08, 18)]
    pair = None
    base_state = (1.5, 0.0)
    a0 = tr.predict(loaded, base_state).action
    for s in states:
        if tr.predict(loaded, s).action != a0:
            pair = s
            break
    assert pair is not None
    assert run(["explain", "--tree", tree,
                "--state", f"{base_state[0]},{base_state[1]}",
                "--next-state", f"{pair[0]},{pair[1]}"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Action changed")


def test_nonfinite_state_rejected(workspace):
    base, data, tree = workspace
    assert run(["predict", "--tree", tree, "--state", "inf,0.0"]) == 2
    assert run(["predict", "--tree", tree, "--state", "nan,0.0"]) == 2


@pytest.mark.parametrize("features", [1, 3])
def test_eval_on_a_trace_of_another_width_is_a_data_error(
        workspace, tmp_path, capsys, features):
    base, data, tree = workspace
    names = ",".join(f"x{k}" for k in range(features))
    values = ",".join(["0.5"] * features)
    other = tmp_path / "other.csv"
    other.write_text(f"episode,t,terminal,{names},a,r\n"
                     f"0,0,0,{values},1.0,0.0\n0,1,1,{values},1.0,1.0\n")
    capsys.readouterr()
    assert run(["eval", "--tree", tree, "--data", str(other)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "tree has 2 features" in err


def _vector_trace(path, width, rng):
    """A 300-sample trace of 2 features and ``width`` action columns."""
    names = ",".join(f"a{k + 1}" for k in range(width))
    rows = [f"episode,t,terminal,x,y,{names},r"]
    for ep in range(30):
        for t in range(10):
            fields = [repr(float(v)) for v in rng.uniform(size=2 + width)]
            rows.append(f"{ep},{t},{int(t == 9)},{','.join(fields)},0.5")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("width", [1, 3])
def test_eval_on_vector_actions_of_another_width_is_a_data_error(
        tmp_path, capsys, width):
    rng = np.random.default_rng(9)
    tree = str(tmp_path / "tree.json")
    assert run(["fit", "--data", _vector_trace(tmp_path / "a.csv", 2, rng),
                "--gamma", "0.9", "--theta", "1,1,1", "--max-leaves", "8",
                "--out", tree]) == 0
    other = _vector_trace(tmp_path / "b.csv", width, rng)
    capsys.readouterr()
    assert run(["eval", "--tree", tree, "--data", other]) == 1
    err = capsys.readouterr().err
    assert err == (f"data error: actions have shape (300, {width}), but the "
                   f"tree predicts shape (2,)\n")


def test_tree_series_alias_for_curve(workspace, tmp_path):
    base, data, tree = workspace
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert run(["eval", "--data", data, "--curve", "--gamma", "0.99",
                "--theta", "1,1,1", "--max-leaves", "8", "--out", a]) == 0
    assert run(["eval", "--data", data, "--tree-series", "--gamma", "0.99",
                "--theta", "1,1,1", "--max-leaves", "8", "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_external_vector_action_trace_end_to_end(tmp_path, capsys):
    """Traces with multi-dimensional continuous actions (recorded elsewhere)
    fit, evaluate, and visualise through the same pipeline."""
    rng = np.random.default_rng(5)
    rows = ["episode,t,terminal,x,y,z,a1,a2,r"]
    for ep in range(30):
        T = int(rng.integers(3, 12))
        for t in range(T):
            s = [float(v) for v in rng.uniform(0, 1, size=3)]
            a = (float(s[0] > 0.5) - 0.5, float(rng.normal()))
            term = 1 if (t == T - 1 and ep % 2 == 0) else 0
            rows.append(f"{ep},{t},{term},{s[0]!r},{s[1]!r},{s[2]!r},"
                        f"{a[0]!r},{a[1]!r},{0.1!r}")
    data = tmp_path / "vec.csv"
    data.write_text("\n".join(rows) + "\n")
    tree = str(tmp_path / "vec_tree.json")
    assert run(["fit", "--data", str(data), "--gamma", "0.95",
                "--theta", "1,1,1", "--max-leaves", "12",
                "--out", tree]) == 0
    out = str(tmp_path / "vec_losses.json")
    assert run(["eval", "--tree", tree, "--data", str(data),
                "--out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["action_loss"] >= 0
    capsys.readouterr()
    assert run(["predict", "--tree", tree, "--state", "0.2,0.5,0.5"]) == 0
    pred = json.loads(capsys.readouterr().out)
    assert isinstance(pred["action"], list) and len(pred["action"]) == 2
    assert run(["explain", "--tree", tree, "--state", "0.2,0.5,0.5",
                "--foil", "abc,1"]) == 2
    assert capsys.readouterr().err == "error: invalid vector action 'abc,1'\n"
    viz_out = str(tmp_path / "vec_a0.json")
    assert run(["viz", "--tree", tree, "--attribute", "action.0",
                "--mode", "projection", "--plane", "x,y",
                "--resolution", "12,12", "--out", viz_out]) == 0
    grid = json.loads(Path(viz_out).read_text())
    assert len(grid["values"]) == 12
    slice_out = str(tmp_path / "vec_slice.json")
    assert run(["viz", "--tree", tree, "--attribute", "derivative",
                "--mode", "slice", "--plane", "x,y",
                "--fixed", "z=0.5", "--out", slice_out]) == 0
