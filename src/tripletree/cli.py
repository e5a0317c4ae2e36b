"""Command-line entry point tying the workflow together: generate road
traces, solve policies, fit trees, evaluate losses, explain predictions,
simulate trajectories, and export visualisations.

Exit codes: 0 success, 1 data/file error, 2 usage/parameter error.  Every
command is deterministic given its flags, inputs, and seed.  Relative output
paths are placed under ``$TRIPLETREE_OUT_DIR`` when that variable is set.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import explain as ex
from . import road_env as road
from . import trajectory as tj
from . import tree as tr
from . import viz
from .errors import ParameterError, TraceFormatError


def _out_path(path: str) -> str:
    base = os.environ.get("TRIPLETREE_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _write(path: str, payload: bytes) -> None:
    with open(_out_path(path), "wb") as fh:
        fh.write(payload)


def _write_csv(path: str, header: list, rows) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    _write(path, buf.getvalue().encode())


def _load_tree(path: str) -> tr.TripleTree:
    return tr.deserialize(Path(path).read_bytes())


def _parse_theta(text: str) -> np.ndarray:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise ParameterError(f"invalid theta {text!r}") from None
    if len(parts) != 3:
        raise ParameterError("theta needs three comma-separated components")
    from .impurity import validate_theta
    return validate_theta(parts)


def _parse_state(text: str, d: int | None = None) -> np.ndarray:
    try:
        state = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ParameterError(f"invalid state {text!r}") from None
    if not np.all(np.isfinite(state)):
        raise ParameterError(f"state {text!r} has non-finite entries")
    if d is not None and state.size != d:
        raise ParameterError(f"state has {state.size} features, expected {d}")
    return state


def _parse_zone(text: str, d: int) -> tr.Box:
    try:
        lo_txt, hi_txt = text.split(":")
        lo = np.array([float(v) for v in lo_txt.split(",")])
        hi = np.array([float(v) for v in hi_txt.split(",")])
    except ValueError:
        raise ParameterError(
            f"invalid zone {text!r}; expected lo1,..,lod:hi1,..,hid") from None
    if lo.size != d or hi.size != d or not np.all(lo <= hi):  # NaN too
        raise ParameterError(f"zone {text!r} is not a valid box for d={d}")
    return tr.Box(lo, hi)


def _feature_index(tree: tr.TripleTree, token: str) -> int:
    token = token.strip()
    if token in tree.feature_names:
        return tree.feature_names.index(token)
    try:
        idx = int(token)
    except ValueError:
        raise ParameterError(f"unknown feature {token!r}") from None
    if not 0 <= idx < tree.d:
        raise ParameterError(f"feature index {idx} out of range")
    return idx


def _int_pair(text: str, flag: str) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(
            f"invalid {flag} {text!r}; expected two integers a,b") from None
    return a, b


def _parse_plane(tree, args) -> viz.PlaneSpec | None:
    """The view's plane from ``--plane``, ``--resolution`` and ``--fixed``;
    None for direct views, which draw no plane, once the other flags check."""
    try:
        fx_tok, fy_tok = args.plane.split(",")
    except ValueError:
        raise ParameterError(
            f"invalid --plane {args.plane!r}; expected fx,fy") from None
    nx, ny = _int_pair(args.resolution, "--resolution")
    fixed = {}
    if args.fixed is not None:
        for pair in args.fixed.split(","):
            name, _, val = pair.partition("=")
            try:
                value = float(val)  # val is "" when "=" is missing
            except ValueError:
                raise ParameterError(f"invalid --fixed entry {pair!r}") from None
            fixed[_feature_index(tree, name)] = value
    if args.mode == "direct":
        viz.check_grid(tree, nx, ny, fixed)
        return None
    return viz.PlaneSpec(f_x=_feature_index(tree, fx_tok),
                         f_y=_feature_index(tree, fy_tok),
                         n_x=nx, n_y=ny, fixed=fixed)


def _parse_action(tree: tr.TripleTree, text: str):
    if tree.action_kind == ds.CONTINUOUS_VECTOR:
        try:
            return np.array([float(v) for v in text.split(",")])
        except ValueError:
            raise ParameterError(f"invalid vector action {text!r}") from None
    try:
        return float(text)
    except ValueError:
        return text


def _road_config(args) -> road.RoadConfig:
    road.check_tolerance(args.tol)  # checked even when no solve runs
    if args.config is not None:
        return road.RoadConfig.from_json(
            ds.json_document(Path(args.config).read_bytes(), "road config"))
    n_pos, n_speed = _int_pair(args.grid, "--grid")
    return road.RoadConfig(r_left=args.r_left, r_right=args.r_right,
                           r_speed=args.r_speed, gamma=args.gamma,
                           grid=(n_pos, n_speed))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_road(args) -> int:
    config = _road_config(args)
    if args.policy is not None:
        policy = road.GridPolicy.from_json(
            ds.json_document(Path(args.policy).read_bytes(), "policy"))
    else:
        policy = road.dp_solve(config, tolerance=args.tol)
    if args.policy_out is not None:
        _write(args.policy_out, ds.json_bytes(policy.to_json()))
    data = road.generate_dataset(config, policy, args.samples,
                                 args.episode_len, args.seed)
    if args.format == "json":
        _write(args.out, ds.trace_to_json_bytes(data))
    else:
        _write(args.out, ds.trace_to_csv_bytes(data))
    print(f"wrote {data.n_samples} samples in {len(data.starts)} episodes "
          f"to {args.out}")
    return 0


def cmd_dp_solve(args) -> int:
    config = _road_config(args)
    policy = road.dp_solve(config, tolerance=args.tol)
    _write(args.out, ds.json_bytes(policy.to_json()))
    print(f"converged in {policy.iterations} sweeps "
          f"(residual {policy.residual:.3g}); wrote {args.out}")
    return 0


def cmd_fit(args) -> int:
    data = ds.load_trace_path(args.data, action_kind=args.action_kind)
    aug = ds.augment(data, args.gamma)
    theta = _parse_theta(args.theta)
    tree = tr.fit(aug, theta, args.max_leaves, min_leaf=args.min_leaf)
    _write(args.out, tr.serialize(tree))
    losses = tr.evaluate_losses(tree, aug)
    print(f"fitted {tree.n_leaves} leaves; training losses "
          f"action={losses[0]:.6g} value={losses[1]:.6g} deriv={losses[2]:.6g}")
    return 0


def cmd_eval(args) -> int:
    if args.curve:
        if args.tree is not None:
            raise ParameterError("--curve grows its own tree; drop --tree")
        if None in (args.gamma, args.theta, args.max_leaves, args.out):
            raise ParameterError(
                "--curve needs --data, --gamma, --theta, --max-leaves and --out")
        data = ds.load_trace_path(args.data, action_kind=args.action_kind)
        aug = ds.augment(data, args.gamma)
        curve = tr.grow(aug, _parse_theta(args.theta), args.max_leaves,
                        min_leaf=args.min_leaf).loss_curve
        _write_csv(args.out, ["leaves", "action_loss", "value_loss",
                              "deriv_loss"],
                   ([n, repr(a), repr(v), repr(d)]
                    for n, (a, v, d) in enumerate(curve, start=1)))
        print(f"wrote loss curve with {len(curve)} rows to {args.out}")
        return 0
    if args.tree is None:
        raise ParameterError("eval needs --tree, or --curve to grow one")
    tree = _load_tree(args.tree)
    data = ds.load_trace_path(args.data, action_kind=tree.action_kind)
    aug = ds.augment(data, tree.gamma)
    a, v, d = tr.evaluate_losses(tree, aug)
    doc = {"action_loss": a, "value_loss": v, "deriv_loss": d,
           "leaves": tree.n_leaves, "samples": aug.n}
    payload = ds.json_bytes(doc)
    if args.out is not None:
        _write(args.out, payload)
    sys.stdout.write(payload.decode())
    return 0


def cmd_predict(args) -> int:
    tree = _load_tree(args.tree)
    state = _parse_state(args.state, tree.d)
    pred = tr.predict(tree, state)
    action = pred.action
    if isinstance(action, np.ndarray):
        action = [float(v) for v in action]
    doc = {"action": action, "value": pred.value,
           "derivative": [float(v) for v in pred.derivative],
           "deriv_low_confidence": pred.deriv_low_confidence,
           "leaf": tr.leaf_of(tree, state)}
    payload = ds.json_bytes(doc)
    if args.out is not None:
        _write(args.out, payload)
    sys.stdout.write(payload.decode())
    return 0


def cmd_explain(args) -> int:
    tree = _load_tree(args.tree)
    state = _parse_state(args.state, tree.d)
    if (args.foil, args.value_cond, args.next_state).count(None) < 2:
        raise ParameterError(
            "use only one of --foil, --value-cond, --next-state")
    if args.foil is not None:
        expl = ex.counterfactual_action(tree, state,
                                        _parse_action(tree, args.foil))
    elif args.value_cond is not None:
        text = args.value_cond.strip()
        try:
            if text[:2] not in ("<=", ">=") or not np.isfinite(float(text[2:])):
                raise ValueError
            cond = (text[:2], float(text[2:]))
        except ValueError:
            raise ParameterError(
                "--value-cond must look like '<=0.3' or '>=1'") from None
        expl = ex.counterfactual_value(tree, state, cond)
    elif args.next_state is not None:
        expl = ex.temporal(tree, state, _parse_state(args.next_state, tree.d))
    else:
        expl = ex.factual(tree, state)
    sentence = ex.render_text(tree, expl)
    doc = ex.render_json(expl)
    doc["sentence"] = sentence
    print(sentence)
    payload = ds.json_bytes(doc)
    if args.format == "json":
        sys.stdout.write(payload.decode())
    if args.out is not None:
        _write(args.out, payload)
    return 0


def _path_doc(path: tj.TrajectoryPath | None):
    return None if path is None else path.to_json()


def _overlays(paths) -> list:
    """SVG overlays of the aligned paths' first two coordinates."""
    return [{"type": "path",
             "nodes": [[float(a), float(b)] for a, b in p.nodes[:, :2]],
             "probability": p.probability}
            for p in paths if p.nodes is not None]


def cmd_simulate(args) -> int:
    if not np.isfinite(args.min_prob):
        raise ParameterError(f"--min-prob {args.min_prob} is not finite")
    align_opts = {"max_iters": args.max_iters, "step_size": args.step_size,
                  "tol": args.tol}
    tj.check_align_options(**align_opts)  # also when no path is aligned
    tree = _load_tree(args.tree)
    if args.svg is not None and tree.d != 2:
        raise ParameterError("--svg is only available for d=2 trees")
    graph = tj.build_leaf_graph(tree)
    shown = []  # the paths drawn by --svg
    zones = (args.start_zone, args.end_zone)
    if zones != (None, None):
        if None in zones:
            raise ParameterError("zone mode needs both --start-zone and --end-zone")
        start_zone = _parse_zone(args.start_zone, tree.d)
        end_zone = _parse_zone(args.end_zone, tree.d)
        paths = tj.zone_paths(graph, start_zone, end_zone,
                              min_probability=args.min_prob)
        if args.align:
            paths = [tj.align_path(tree, p.leaves, **align_opts) for p in paths]
        doc = {"paths": [_path_doc(p) for p in paths]}
        shown = paths
        print(f"{len(paths)} zone paths with probability >= {args.min_prob:g}")
    else:
        if args.start_leaf is not None:
            start = args.start_leaf
        elif args.start is not None:
            start = tr.leaf_of(tree, _parse_state(args.start, tree.d))
        else:
            raise ParameterError("simulate needs --start or --start-leaf")
        if args.end_leaf is not None:
            end = args.end_leaf
        elif args.end is not None:
            end = tr.leaf_of(tree, _parse_state(args.end, tree.d))
        else:
            raise ParameterError("simulate needs --end or --end-leaf")
        for lid in (start, end):
            if lid not in tree.leaves:
                raise ParameterError(f"{lid} is not a leaf id of the tree")
        path = tj.most_probable_path(graph, start, end)
        if path is None:
            print(f"no observed route from leaf {start} to leaf {end}")
            doc = {"path": None}
        else:
            if args.align:
                path = tj.align_path(tree, path.leaves, **align_opts)
            doc = {"path": _path_doc(path)}
            shown = [path]
            print(f"path {path.leaves} probability {path.probability:.4g} "
                  f"expected duration {path.expected_duration:.4g}")
    _write(args.out, ds.json_bytes(doc))
    if args.svg is not None:
        base = viz.direct_map(tree, "action")
        svg = viz.render_svg(base, {"title": "simulated trajectories",
                                    "xlabel": tree.feature_names[0],
                                    "ylabel": tree.feature_names[1]},
                             overlays=_overlays(shown))
        _write(args.svg, svg.encode())
    return 0


def cmd_viz(args) -> int:
    tree = _load_tree(args.tree)
    plane = _parse_plane(tree, args)
    if args.attribute == "derivative":
        payload = viz.quiver(tree, plane,
                             mode="direct" if args.mode == "direct" else "slice")
    elif args.mode == "direct":
        payload = viz.direct_map(tree, args.attribute)
    elif args.mode == "projection":
        payload = viz.pdp_projection(tree, plane, args.attribute)
    else:  # "slice": argparse refuses any other --mode
        payload = viz.ice_slice(tree, plane, args.attribute)
    _write(args.out, ds.json_bytes(payload))
    if args.svg is not None:
        names = [tree.feature_names[f] for f in payload["plane"]]
        style = {"title": f"{args.attribute} ({args.mode})",
                 "xlabel": names[0], "ylabel": names[1] if tree.d > 1 else ""}
        _write(args.svg, viz.render_svg(payload, style).encode())
    print(f"wrote {args.attribute} {args.mode} view to {args.out}")
    return 0


def cmd_sweep_theta(args) -> int:
    gamma = _road_config(args).gamma  # road flags and --config may set it
    data = ds.load_trace_path(args.data, action_kind=args.action_kind)
    if args.theta_grid is not None:
        grid = [tuple(_parse_theta(part))
                for part in args.theta_grid.split(";") if part]
    else:
        grid = tr.simplex_theta_grid(args.divisions)
    result = tr.theta_sweep(ds.augment(data, gamma), grid, args.max_leaves,
                            min_leaf=args.min_leaf)
    _write_csv(args.out, ["theta_action", "theta_value", "theta_deriv",
                          "action_loss", "value_loss", "deriv_loss",
                          "worst_normalised_loss", "is_best"],
               ([*map(repr, row["theta"]), repr(row["action_loss"]),
                 repr(row["value_loss"]), repr(row["deriv_loss"]),
                 repr(row["worst_normalised_loss"]),
                 int(row["theta"] == result["best_theta"])]
                for row in result["rows"]))
    print(f"best theta {result['best_theta']} (of {len(result['rows'])} tried)")
    return 0


def cmd_inspect(args) -> int:
    tree = _load_tree(args.tree)
    doc = {
        "d": tree.d,
        "feature_names": tree.feature_names,
        "action_kind": tree.action_kind,
        "n_leaves": tree.n_leaves,
        "n_samples": tree.n_samples,
        "theta": [float(v) for v in tree.theta],
        "gamma": tree.gamma,
        "root_impurity": {
            "action": tree.root_impurity.action,
            "value": tree.root_impurity.value,
            "derivative": tree.root_impurity.derivative,
        },
        "has_transitions": all(l.transitions is not None
                               for l in tree.leaves.values()),
    }
    if args.format == "json":
        sys.stdout.write(ds.json_bytes(doc).decode())
    else:
        print(f"tree over {doc['d']} features {doc['feature_names']}, "
              f"{doc['n_leaves']} leaves, {doc['n_samples']} samples")
        print(f"action kind: {doc['action_kind']}; theta {doc['theta']}; "
              f"gamma {doc['gamma']}")
        ri = doc["root_impurity"]
        print(f"root impurity: action {ri['action']:.6g}, "
              f"value {ri['value']:.6g}, derivative {ri['derivative']:.6g}")
        print(f"transitions attached: {doc['has_transitions']}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that also reads negative numbers in scientific
    notation (``-1e-06``, ``-1e+2``), ``-inf`` and ``-nan`` as values, not
    as options, so they reach the flags' own checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)


def _add_road_flags(p):
    p.add_argument("--config", help="road config JSON file (overrides flags)")
    p.add_argument("--r-left", type=float, default=-100.0)
    p.add_argument("--r-right", type=float, default=-100.0)
    p.add_argument("--r-speed", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--grid", default="30,30")
    p.add_argument("--tol", type=float, default=1e-6)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tripletree",
        description="Joint action/value/dynamics trees for agent traces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-road", help="generate a road trace dataset")
    _add_road_flags(p)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--episode-len", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", help="reuse a saved policy JSON")
    p.add_argument("--policy-out", help="also save the solved policy")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_road)

    p = sub.add_parser("dp-solve", help="solve the road task by value iteration")
    _add_road_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dp_solve)

    p = sub.add_parser("fit", help="fit a tree to a trace file")
    p.add_argument("--data", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--theta", required=True, help="a,v,d weights")
    p.add_argument("--max-leaves", type=int, required=True)
    p.add_argument("--min-leaf", type=int, default=1)
    p.add_argument("--action-kind", choices=list(ds.ACTION_KINDS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="evaluate losses, or a loss-vs-leaves curve")
    p.add_argument("--tree")
    p.add_argument("--data", required=True)
    p.add_argument("--curve", "--tree-series", action="store_true",
                   dest="curve",
                   help="grow once and record losses at every leaf count")
    p.add_argument("--gamma", type=float)
    p.add_argument("--theta")
    p.add_argument("--max-leaves", type=int)
    p.add_argument("--min-leaf", type=int, default=1)
    p.add_argument("--action-kind", choices=list(ds.ACTION_KINDS))
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict action/value/derivative at a state")
    p.add_argument("--tree", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="factual/counterfactual/temporal rules")
    p.add_argument("--tree", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--foil", help="counterfactual action")
    p.add_argument("--value-cond", help="value condition, e.g. '<=0.3'")
    p.add_argument("--next-state", help="successor state for temporal mode")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("simulate", help="most probable leaf paths, aligned")
    p.add_argument("--tree", required=True)
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--start-leaf", type=int)
    p.add_argument("--end-leaf", type=int)
    p.add_argument("--start-zone")
    p.add_argument("--end-zone")
    p.add_argument("--min-prob", type=float, default=0.0)
    p.add_argument("--align", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--step-size", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("viz", help="export visualisation data and SVG")
    p.add_argument("--tree", required=True)
    p.add_argument("--attribute", default="action")
    p.add_argument("--mode", choices=["direct", "projection", "slice"],
                   default="direct")
    p.add_argument("--plane", default="0,1", help="fx,fy by index or name")
    p.add_argument("--resolution", default="200,200")
    p.add_argument("--fixed", help="off-plane values, e.g. speed=0.01")
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser("sweep-theta", help="score weightings by worst loss")
    _add_road_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--max-leaves", type=int, required=True)
    p.add_argument("--min-leaf", type=int, default=1)
    p.add_argument("--theta-grid", help="semicolon-separated a,v,d triples")
    p.add_argument("--divisions", type=int, default=5)
    p.add_argument("--action-kind", choices=list(ds.ACTION_KINDS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_theta)

    p = sub.add_parser("inspect", help="summarise a tree file")
    p.add_argument("--tree", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a flag value asked for too large an array
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
