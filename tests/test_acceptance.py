"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with -s or -v to see them).

The road reproduction artifacts (policy, 10^4-sample trace, four 200-leaf
trees) are built once and shared; their build time counts against the
criterion-3 budget.
"""

import math
import time

import numpy as np
import pytest

from tripletree import cli
from tripletree import dataset as ds
from tripletree import explain as ex
from tripletree import road_env as road
from tripletree import trajectory as tj
from tripletree import tree as tr
from tripletree import viz
from tripletree.viz import PlaneSpec

from .conftest import build_tree, random_tree, synthetic_aug
from .reference import (ReferenceActionTree, derivative_impurity,
                        enumerate_simple_paths, road_action_at, variance)
from .test_trajectory import independent_objective, right_angle_tree

THETAS = {"action": (1.0, 0.0, 0.0), "value": (0.0, 1.0, 0.0),
          "deriv": (0.0, 0.0, 1.0), "equal": (1 / 3, 1 / 3, 1 / 3)}


@pytest.fixture(scope="module")
def road_repro():
    t0 = time.time()
    cfg = road.RoadConfig(r_left=-100.0, r_right=-100.0, r_speed=1.0)
    policy = road.dp_solve(cfg, tolerance=1e-6)
    data = road.generate_dataset(cfg, policy, 10_000, 100, seed=0)
    aug = ds.augment(data, cfg.gamma)
    trees = {name: tr.fit(aug, np.array(theta), 200)
             for name, theta in THETAS.items()}
    losses = {name: tr.evaluate_losses(t, aug) for name, t in trees.items()}
    elapsed = time.time() - t0
    return cfg, policy, data, aug, trees, losses, elapsed


def test_criterion_1_cart_equivalence_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(10):
        n = 200
        d = int(rng.integers(2, 5))
        states = rng.uniform(0, 1, size=(n, d))
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n).astype(float)
        data = synthetic_aug(states=states, actions=labels)
        tree = tr.grow(data, [1, 0, 0], max_leaves=16)
        ref = ReferenceActionTree(states, data.action_codes,
                                  data.action_labels.size, max_leaves=16)
        assert tree.split_log == ref.split_log, f"fixture {trial} diverged"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1: PASS - 10 fixtures split-for-split identical to the "
          f"brute-force reference in {elapsed:.2f}s")


def test_criterion_2_impurity_oracles():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 301))
        x = rng.normal(scale=rng.uniform(0.5, 30), size=n)
        if n <= 60:
            # literal python double loop
            total = 0.0
            for a in x:
                for b in x:
                    total += (a - b) ** 2
            want = total / (2 * n * n)
        else:
            diff = x[:, None] - x[None, :]
            want = float((diff * diff).sum() / (2 * n * n))
        assert abs(variance(x) - want) <= 1e-9

        d = int(rng.integers(1, 4))
        D = rng.normal(size=(n, d))
        sigma = rng.uniform(0.1, 3.0, size=d)
        want_d = 0.0
        for f in range(d):
            col = D[:, f]
            diff = col[:, None] - col[None, :]
            want_d += float((diff * diff).sum() / (2 * n * n)) / sigma[f]
        assert abs(derivative_impurity(D, sigma) - want_d) <= 1e-9
        checked += 1
    print(f"ACCEPTANCE 2: PASS - moment impurities match pairwise sums "
          f"within 1e-9 on {checked} random sets")


def test_criterion_3a_exclusive_weightings_win_their_columns(road_repro):
    *_, losses, elapsed = road_repro
    cols = ["action", "value", "deriv"]
    for c, name in enumerate(cols):
        own = losses[name][c]
        others = {o: losses[o][c] for o in THETAS}
        assert own <= min(others.values()) + 1e-12, (
            f"{name} column not minimised by its exclusive weighting: {others}")
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3a: PASS - each exclusive weighting attains its own "
          f"loss-column minimum at 200 leaves (artifacts built in "
          f"{elapsed:.1f}s)")


def test_criterion_3b_equal_weighting_within_2x(road_repro):
    *_, losses, elapsed = road_repro
    cols = ["action", "value", "deriv"]
    ratios = {}
    for c, name in enumerate(cols):
        opt, eq = losses[name][c], losses["equal"][c]
        ratios[name] = (float("inf") if opt == 0 and eq > 0
                        else (1.0 if eq == opt == 0 else eq / opt))
    print(f"ACCEPTANCE 3b: measured equal/exclusive loss ratios: "
          + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items()))
    assert elapsed < 120.0
    for name, ratio in ratios.items():
        assert ratio <= 2.0, (
            f"equal weighting is {ratio:.2f}x the exclusive {name} optimum "
            f"(bound 2.0); losses: "
            + ", ".join(f"{k}={losses[k]}" for k in THETAS))
    print("ACCEPTANCE 3b: PASS - equal weighting within 2x of every "
          "exclusive optimum")


def test_criterion_4_transition_stochasticity(road_repro):
    trees = road_repro[4]
    checked = 0
    for tree in trees.values():
        for leaf in tree.leaves.values():
            assert leaf.transitions is not None
            if not leaf.transitions:
                continue
            total = sum(p for p, _ in leaf.transitions.values())
            assert abs(total - 1.0) <= 1e-9
            assert all(t >= 1.0 for _, t in leaf.transitions.values())
            checked += 1
    print(f"ACCEPTANCE 4: PASS - transition probabilities sum to 1 +- 1e-9 "
          f"and durations >= 1 on {checked} leaves across 4 fitted trees")


def test_criterion_5_counterfactual_minimality():
    t0 = time.time()
    rng = np.random.default_rng(99)
    queries = 0
    for trial in range(20):
        d = int(rng.integers(1, 5))
        n_leaves = int(rng.integers(2, 65))
        tree = random_tree(rng, d, n_leaves, actions=["a", "b", "c"],
                           feature_range=[[0.0, 1.0]] * d)
        widths = tree.feature_range[:, 1] - tree.feature_range[:, 0]
        w = np.where(widths > 0, widths, 1.0)
        for _ in range(100):
            s = rng.uniform(-0.1, 1.1, size=d)
            pred = tr.predict(tree, s).action
            foil = {"a": "b", "b": "c", "c": "a"}[pred]
            got = ex.counterfactual_action(tree, s, foil)
            eligible = sorted(lid for lid, leaf in tree.leaves.items()
                              if leaf.action_pred == foil)
            if not eligible:
                assert got.foil_unreachable
                continue
            best = None
            for lid in eligible:
                point = ex._project_into_leaf(s, tree.leaves[lid].box,
                                              tree.feature_range)
                changed = int(np.count_nonzero(point != s))
                l2 = float(np.sum(((point - s) / w) ** 2))
                key = (changed, l2, lid)
                if best is None or key < best:
                    best = key
            got_l2 = float(np.sum(((got.foil_point - s) / w) ** 2))
            assert (len(got.changed_features), got.target_leaf) == \
                (best[0], best[2])
            assert got_l2 == pytest.approx(best[1], rel=1e-12, abs=1e-15)
            queries += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 5: PASS - counterfactuals equal the exhaustive "
          f"lexicographic scan on {queries} queries in {elapsed:.1f}s")


def test_criterion_6_temporal_soundness():
    # exact hand-computed minimal foils on 1-D three-leaf fixtures
    tree = build_tree(
        ("split", 0, 0.5,
         ("leaf", {"action": "a"}),
         ("split", 0, 1.5,
          ("leaf", {"action": "a"}),
          ("leaf", {"action": "b"}))), [[0.0, 2.0]])
    expl = ex.temporal(tree, [0.2], [1.9])
    assert np.allclose(expl.foil_point, [1.5])
    assert expl.bounds == [(0, ">=", 1.5)]

    tree2 = build_tree(
        ("split", 0, 0.5,
         ("leaf", {"action": "b"}),
         ("split", 0, 1.5,
          ("leaf", {"action": "a"}),
          ("leaf", {"action": "b"}))), [[0.0, 2.0]])
    # nearer foil leaf fails purity (the a-leaf interposes), so the foil
    # point lands just inside the left b-leaf's open upper side
    expl2 = ex.temporal(tree2, [0.7], [0.3])
    assert expl2.foil_point[0] == pytest.approx(0.5 - 1e-9 * 2.0)
    assert expl2.bounds == [(0, "<", 0.5)]

    # independent bounding-box purity re-scan on random fixtures
    rng = np.random.default_rng(6)
    verified = 0
    for _ in range(60):
        d = int(rng.integers(1, 4))
        tree = random_tree(rng, d, int(rng.integers(3, 40)),
                           actions=["a", "b"],
                           feature_range=[[0.0, 1.0]] * d)
        s_t = rng.uniform(0, 1, size=d)
        s_next = rng.uniform(0, 1, size=d)
        a_t = tr.predict(tree, s_t).action
        a_n = tr.predict(tree, s_next).action
        if a_t == a_n:
            continue
        got = ex.temporal(tree, s_t, s_next)
        if got.unconstrained_fallback or got.foil_unreachable:
            continue
        lo = np.minimum(got.foil_point, s_next)
        hi = np.maximum(got.foil_point, s_next)
        for leaf in tree.leaves.values():
            touches = all(lo[f] < leaf.box.upper[f]
                          and hi[f] >= leaf.box.lower[f] for f in range(d))
            if touches:
                assert leaf.action_pred == a_n
        verified += 1
    assert verified >= 20
    print(f"ACCEPTANCE 6: PASS - hand-computed 1-D foils exact; bounding-box "
          f"purity re-verified on {verified} random cases")


def test_criterion_7_path_search_oracle():
    rng = np.random.default_rng(31)
    compared = 0
    for trial in range(200):
        n = int(rng.integers(2, 9))
        edges = {}
        for src in range(n):
            dests = [int(v) for v in rng.permutation(n)
                     if v != src][:int(rng.integers(0, 4))]
            if not dests:
                continue
            probs = rng.uniform(0.05, 1.0, size=len(dests))
            probs /= probs.sum()
            edges[src] = [(dest, float(p)) for dest, p in zip(dests, probs)]
        graph = tj.LeafGraph()
        graph.node_ids = list(range(n))
        for src, outs in edges.items():
            graph.edges[src] = [(dest, p, 1.0, -math.log(p))
                                for dest, p in sorted(outs)]
        start, end = 0, n - 1
        got = tj.most_probable_path(graph, start, end)
        brute = enumerate_simple_paths(edges, start, end)
        if not brute:
            assert got is None
            continue
        best = max(p for p, _ in brute)
        assert got is not None
        assert got.probability == pytest.approx(best, rel=1e-12)
        cost = 0.0
        for a, b in zip(got.leaves, got.leaves[1:]):
            cost += [e[3] for e in graph.out_edges(a) if e[0] == b][0]
        assert abs(got.probability - math.exp(-cost)) <= 1e-12 * max(
            1.0, got.probability)
        compared += 1
    assert compared >= 100
    print(f"ACCEPTANCE 7: PASS - Dijkstra equals exhaustive enumeration on "
          f"{compared} reachable random graphs; probability = exp(-cost)")


def test_criterion_8_alignment_optimiser():
    tree = right_angle_tree()
    path = tj.align_path(tree, [0, 2, 3], max_iters=30000, tol=0.0)
    hist = path.objective_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))
    for j, face in enumerate(path.face_constraints, start=1):
        node = path.nodes[j]
        assert abs(node[face["feature"]] - face["value"]) <= 1e-9
        assert np.all(node >= face["lower"] - 1e-9)
        assert np.all(node <= face["upper"] + 1e-9)

    derivs = [tree.leaves[l].deriv_pred for l in (0, 2, 3)]
    w = np.ones(2)
    worst = 0.0
    for j, face in enumerate(path.face_constraints, start=1):
        free = [f for f in range(2) if f != face["feature"]][0]
        lo, hi = face["lower"][free], face["upper"][free]
        span = (lo, hi)
        for _ in range(6):
            xs = np.linspace(span[0], span[1], 2001)
            vals = []
            for x in xs:
                trial = path.nodes.copy()
                trial[j][free] = x
                vals.append(independent_objective(trial, derivs, w))
            k = int(np.argmin(vals))
            width = (span[1] - span[0]) / 2000
            span = (max(lo, xs[k] - 2 * width), min(hi, xs[k] + 2 * width))
        worst = max(worst, abs(path.nodes[j][free] - xs[k]))
        assert abs(path.nodes[j][free] - xs[k]) < 1e-6

    # monotonicity on perturbed variants as well
    rng = np.random.default_rng(5)
    for _ in range(5):
        t2 = right_angle_tree()
        for lid in (0, 2, 3):
            t2.leaves[lid].deriv_pred = rng.uniform(-1, 1, size=2)
        p2 = tj.align_path(t2, [0, 2, 3], max_iters=400)
        h2 = p2.objective_history
        assert all(b <= a + 1e-15 for a, b in zip(h2, h2[1:]))
        for j, face in enumerate(p2.face_constraints, start=1):
            assert abs(p2.nodes[j][face["feature"]] - face["value"]) <= 1e-9
    print(f"ACCEPTANCE 8: PASS - objective non-increasing, faces respected "
          f"(<= 1e-9), right-angle node within {worst:.2e} of grid optimum")


def test_criterion_9_dp_sanity(road_repro):
    cfg, policy = road_repro[0], road_repro[1]
    state = (1.5, 0.0)
    for k in range(100):
        action = road_action_at(policy, state)
        state, _, terminal = road.step(cfg, state, action)
        assert not terminal, f"crashed after {k} steps"
    V = policy.value
    sym_gap = float(np.max(np.abs(V - V[::-1, ::-1])))
    assert sym_gap <= 1e-5  # value-iteration tolerance scale
    print(f"ACCEPTANCE 9: PASS - centred zero-speed start alive >= 100 "
          f"steps; mirror-symmetry gap {sym_gap:.2e}")


def test_criterion_10_visualisation_consistency(road_repro):
    tree = road_repro[4]["equal"]
    plane = PlaneSpec(0, 1, n_x=100, n_y=100)
    grid = viz.pdp_projection(tree, plane, "value")
    xe, ye = np.asarray(grid["x_edges"]), np.asarray(grid["y_edges"])
    cx, cy = (xe[:-1] + xe[1:]) / 2, (ye[:-1] + ye[1:]) / 2
    values = np.asarray(grid["values"])
    leaves = tree.ordered_leaves()
    for iy in range(0, 100):
        for ix in range(0, 100):
            hits = [l.value_pred for l in leaves
                    if l.box.lower[0] <= cx[ix] < l.box.upper[0]
                    and l.box.lower[1] <= cy[iy] < l.box.upper[1]]
            assert len(hits) == 1
            # identical up to one rounding step of the weighted average
            assert values[iy, ix] == pytest.approx(hits[0], rel=1e-12)

    doc = viz.ice_slice(tree, PlaneSpec(0, 1), "value")
    rects = doc["rects"]
    area = sum((r["x1"] - r["x0"]) * (r["y1"] - r["y0"]) for r in rects)
    widths = tree.feature_range[:, 1] - tree.feature_range[:, 0]
    assert area == pytest.approx(float(widths.prod()), abs=1e-9)
    overlap = 0.0
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            ox = max(0.0, min(a["x1"], b["x1"]) - max(a["x0"], b["x0"]))
            oy = max(0.0, min(a["y1"], b["y1"]) - max(a["y0"], b["y0"]))
            overlap += ox * oy
    assert overlap <= 1e-9
    print("ACCEPTANCE 10: PASS - projection equals the direct map "
          "cell-for-cell on a 100x100 grid; slice tiles the plane "
          "(overlap 0, area gap <= 1e-9)")


def test_criterion_11_cli_determinism(tmp_path):
    flags = ["--r-left", "-100", "--r-right", "-100", "--r-speed", "1",
             "--grid", "12,12", "--tol", "1e-5"]

    def run_all(out_dir):
        out_dir.mkdir(exist_ok=True)
        p = lambda name: str(out_dir / name)
        cmds = [
            ["gen-road", *flags, "--samples", "800", "--episode-len", "50",
             "--seed", "11", "--policy-out", p("policy.json"),
             "--out", p("road.csv")],
            ["dp-solve", *flags, "--out", p("dp.json")],
            ["fit", "--data", p("road.csv"), "--gamma", "0.99",
             "--theta", "0.2,0.6,0.2", "--max-leaves", "30",
             "--out", p("tree.json")],
            ["eval", "--tree", p("tree.json"), "--data", p("road.csv"),
             "--out", p("losses.json")],
            ["eval", "--data", p("road.csv"), "--curve", "--gamma", "0.99",
             "--theta", "1,1,1", "--max-leaves", "10", "--out", p("curve.csv")],
            ["predict", "--tree", p("tree.json"), "--state", "1.5,0.0",
             "--out", p("pred.json")],
            ["explain", "--tree", p("tree.json"), "--state", "1.5,0.0",
             "--out", p("factual.json")],
            ["explain", "--tree", p("tree.json"), "--state", "1.5,0.0",
             "--value-cond", "<=-50", "--out", p("cf_value.json")],
            ["simulate", "--tree", p("tree.json"), "--start", "1.5,0.0",
             "--end", "1.2,0.0", "--max-iters", "50", "--out", p("path.json"),
             "--svg", p("path.svg")],
            ["viz", "--tree", p("tree.json"), "--attribute", "action",
             "--mode", "direct", "--out", p("viz.json"),
             "--svg", p("viz.svg")],
            ["viz", "--tree", p("tree.json"), "--attribute", "value",
             "--mode", "projection", "--plane", "pos,speed",
             "--resolution", "20,20", "--out", p("pdp.json")],
            ["sweep-theta", *flags, "--data", p("road.csv"),
             "--max-leaves", "8", "--theta-grid", "1,0,0;0,1,0;0,0,1;1,1,1",
             "--out", p("sweep.csv")],
        ]
        for cmd in cmds:
            assert cli.main(cmd) == 0, f"command failed: {cmd}"

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")
    names = sorted(f.name for f in (tmp_path / "a").iterdir())
    assert len(names) >= 15
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"artifact {name} differs between runs"
    print(f"ACCEPTANCE 11: PASS - {len(names)} artifacts byte-identical "
          f"across two runs of every command")
