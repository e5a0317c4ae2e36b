"""The benchmark workloads.

Each workload has ``setup(seed)``, which builds its inputs from the seed, and
``body(state, k, tracer)``, the timed part, which runs pass ``k`` and
returns an ``Outputs`` record.  ``setup_repeats`` says how many set-ups a run
times, and ``in_process`` whether the timed work runs in this process, so
that its times can be scaled to the reference speed.  ``check(state, outputs)`` is not timed: it
verifies the outputs and returns the failures as (operation index, message).

All workloads use the road task with r_left = r_right = -100, r_speed = 1,
gamma = 0.99, a 30x30 grid and 100-step episodes.  Library functions are
always called through their module (``tree.fit``, never a local alias), so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tripletree import cli, dataset, explain, road_env, trajectory, tree, viz

ROAD = {"r_left": -100.0, "r_right": -100.0, "r_speed": 1.0, "gamma": 0.99,
        "grid": (30, 30)}
EPISODE_LEN = 100
THETA = (0.2, 0.6, 0.2)

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "walkthrough_digests.json"


@dataclass
class Outputs:
    digest: str                                 # sha256 over every output
    errors: list = field(default_factory=list)  # (operation index, message)
    attempted: int = 0
    latencies: dict = field(default_factory=dict)  # kind -> [seconds]
    extra: object = None                        # what ``check`` needs


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _road_trace(seed: int, n_samples: int):
    config = road_env.RoadConfig(**ROAD)
    policy = road_env.dp_solve(config)
    data = road_env.generate_dataset(config, policy, n_samples, EPISODE_LEN,
                                     seed)
    return config, dataset.trace_to_csv_bytes(data)


def _transition_errors(fitted) -> list:
    bad = []
    for leaf in fitted.leaves.values():
        if leaf.transitions:  # a leaf whose runs were all cut off has none
            total = sum(p for p, _ in leaf.transitions.values())
            if abs(total - 1.0) > 1e-9:
                bad.append(leaf.id)
    return bad


class Fit:
    """CSV bytes of an n=1e5 trace through load, augment, a 1000-leaf fit,
    loss evaluation and serialisation.  One operation per pass."""

    n_samples = 100_000
    max_leaves = 1000
    setup_repeats = 3
    in_process = True

    def setup(self, seed: int):
        return _road_trace(seed, self.n_samples)[1]

    def body(self, csv_bytes, k: int, tracer=None) -> Outputs:
        data = dataset.load_trace(csv_bytes, "csv")
        aug = dataset.augment(data, ROAD["gamma"])
        fitted = tree.fit(aug, THETA, self.max_leaves)
        losses = tree.evaluate_losses(fitted, aug)
        blob = tree.serialize(fitted)
        return Outputs(digest=_sha(blob, repr(losses)), attempted=1,
                       extra=(fitted, blob))

    def check(self, csv_bytes, out: Outputs) -> list:
        fitted, blob = out.extra
        errors = []
        if fitted.n_leaves != self.max_leaves:
            errors.append((0, f"{fitted.n_leaves} leaves, "
                              f"expected {self.max_leaves}"))
        bad = _transition_errors(fitted)
        if bad:
            errors.append((0, f"transitions do not sum to 1 on leaves {bad[:5]}"))
        if tree.serialize(tree.deserialize(blob)) != blob:
            errors.append((0, "serialize/deserialize round trip differs"))
        return errors


# Mean cost of one query of each kind, rendering included, on the 1000-leaf
# analysis tree, measured on the commit that added this benchmark (2-vCPU
# x86-64 VM, Python 3.11, numpy 2.4, one BLAS thread).  A pass asks each kind ``round(share / cost)`` times, so
# that every kind takes about the same share of the pass: a 2x slowdown of
# any one kind then moves the workload's wall_s by about a third.
SEED_COST_S = {
    "factual": 22.4e-6,
    "counterfactual_action": 13.8e-3,
    "counterfactual_value": 19.0e-3,
    "temporal": 1.80,
    "simulate": 1.60,
    "viz": 0.20,
}


def balanced_counts(kinds, share_s: float) -> dict:
    return {kind: max(1, round(share_s / SEED_COST_S[kind])) for kind in kinds}


# The README's queries, asked of the analysis tree.
README_STATE = (1.2, 0.03)
README_NEXT_STATE = (1.21, 0.01)
README_PATH = ((0.8, -0.02), (1.6, 0.02))


class _TreeQueries:
    """One client's closed loop of queries against a 1000-leaf tree fitted
    on n=1e4 and reloaded from its serialised form.  One query is one
    operation.  The tree is fitted to the README's trace (seed 0) for every
    workload seed; the seed draws the queries."""

    n_samples = 10_000
    max_leaves = 1000
    trace_seed = 0
    setup_repeats = 3
    in_process = True
    per_pass: dict = {}

    def setup(self, seed: int):
        _, csv_bytes = _road_trace(self.trace_seed, self.n_samples)
        aug = dataset.augment(dataset.load_trace(csv_bytes, "csv"),
                              ROAD["gamma"])
        fitted = tree.deserialize(tree.serialize(
            tree.fit(aug, THETA, self.max_leaves)))
        return {"seed": seed, "tree": fitted, "states": aug.states,
                "labels": sorted(fitted.action_labels)}

    def _stream(self, state, k: int) -> list:
        raise NotImplementedError

    def body(self, state, k: int, tracer=None) -> Outputs:
        out = Outputs(digest="")
        results = []
        for op, (kind, arg) in enumerate(self._stream(state, k)):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                text = getattr(self, kind)(state, arg)
            except Exception as exc:  # counted as a failed operation
                out.errors.append((op, f"{kind}({arg}): {exc!r}"))
                text = repr(exc)
            out.latencies.setdefault(kind, []).append(time.perf_counter() - t0)
            if not text:
                out.errors.append((op, f"{kind}({arg}): empty rendering"))
            results.append(text)
        out.digest = _sha(*results)
        return out

    def check(self, state, out: Outputs) -> list:
        return out.errors


class Explain(_TreeQueries):
    """Factual, counterfactual-action (the other action is the foil) and
    counterfactual-value (``<= 0.3``) explanations of trace states drawn by
    the seed, each rendered with ``render_text``.  A pass is a shuffled
    stream with one second's worth of each kind."""

    per_pass = balanced_counts(
        ("factual", "counterfactual_action", "counterfactual_value"), 1.0)

    def _stream(self, state, k: int) -> list:
        rng = np.random.default_rng([state["seed"], k])
        n = state["states"].shape[0]
        queries = [(kind, int(i)) for kind, count in self.per_pass.items()
                   for i in rng.integers(0, n, count)]
        return [queries[j] for j in rng.permutation(len(queries))]

    def factual(self, state, i: int) -> str:
        t, s = state["tree"], state["states"][i]
        return explain.render_text(t, explain.factual(t, s))

    def counterfactual_action(self, state, i: int) -> str:
        t, s = state["tree"], state["states"][i]
        pred = tree.predict(t, s).action
        foil = next(a for a in state["labels"] if a != pred)
        return explain.render_text(t, explain.counterfactual_action(t, s, foil))

    def counterfactual_value(self, state, i: int) -> str:
        t, s = state["tree"], state["states"][i]
        return explain.render_text(
            t, explain.counterfactual_value(t, s, ("<=", 0.3)))


class TemporalSimulateViz(_TreeQueries):
    """The README's whole-tree queries: the temporal explanation of
    (1.2, 0.03) -> (1.21, 0.01), the point-to-point simulation from
    (0.8, -0.02) to (1.6, 0.02) (``most_probable_path`` + ``align_path``),
    and its three views (action map, derivative quiver, 120x120 value
    projection, each rendered as SVG).  Each costs about as much as the
    others' whole share, so a pass asks one temporal query and as many of
    the others as fill the same time.  The queries are fixed, so the seed
    only orders them: a per-seed draw would make the seeds differ mostly by
    which states they drew, as these costs range over 10x between states."""

    per_pass = balanced_counts(("temporal", "simulate", "viz"),
                               SEED_COST_S["temporal"])

    def _stream(self, state, k: int) -> list:
        queries = [(kind, n) for kind, count in self.per_pass.items()
                   for n in range(count)]
        rng = np.random.default_rng([state["seed"], k])
        return [queries[j] for j in rng.permutation(len(queries))]

    def temporal(self, state, _n: int) -> str:
        t = state["tree"]
        return explain.render_text(t, explain.temporal(
            t, np.array(README_STATE), np.array(README_NEXT_STATE)))

    def simulate(self, state, _n: int) -> str:
        t = state["tree"]
        start, end = (tree.leaf_of(t, np.array(p)) for p in README_PATH)
        graph = trajectory.build_leaf_graph(t)
        path = trajectory.most_probable_path(graph, start, end)
        if path is None:
            raise ValueError("no route between the README's states")
        aligned = trajectory.align_path(t, path.leaves)
        if not np.all(np.isfinite(aligned.nodes)):
            raise ValueError("aligned path has non-finite nodes")
        return json.dumps(aligned.to_json(), sort_keys=True)

    def viz(self, state, _n: int) -> str:
        t = state["tree"]
        views = [("action", viz.direct_map(t, "action")),
                 ("derivative", viz.quiver(t, viz.PlaneSpec(0, 1),
                                           mode="direct")),
                 ("value", viz.pdp_projection(
                     t, viz.PlaneSpec(0, 1, n_x=120, n_y=120), "value"))]
        svgs = []
        for title, payload in views:
            svg = viz.render_svg(payload, {"title": title})
            if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
                raise ValueError(f"malformed {title} SVG")
            svgs.append(svg)
        return "".join(svgs)


# The README walkthrough.  (label, argv); the label names the cli metric.
ROAD_FLAGS = ["--r-left", "-100", "--r-right", "-100", "--r-speed", "1"]
WALKTHROUGH = [
    ("gen-road", ["gen-road", *ROAD_FLAGS, "--gamma", "0.99",
                  "--samples", "10000", "--episode-len", "100", "--seed", "0",
                  "--out", "road.csv", "--policy-out", "policy.json"]),
    ("fit", ["fit", "--data", "road.csv", "--gamma", "0.99",
             "--theta", "0.2,0.6,0.2", "--max-leaves", "200",
             "--out", "tree.json"]),
    ("eval-curve", ["eval", "--data", "road.csv", "--curve", "--gamma", "0.99",
                    "--theta", "0.33,0.33,0.34", "--max-leaves", "200",
                    "--out", "curve.csv"]),
    ("explain", ["explain", "--tree", "tree.json", "--state", "1.2,0.03"]),
    ("explain", ["explain", "--tree", "tree.json", "--state", "1.2,0.03",
                 "--foil", "0.001"]),
    ("explain", ["explain", "--tree", "tree.json", "--state", "1.2,0.03",
                 "--value-cond", "<=0.3"]),
    ("explain", ["explain", "--tree", "tree.json", "--state", "1.2,0.03",
                 "--next-state", "1.21,0.01"]),
    ("simulate", ["simulate", "--tree", "tree.json", "--start", "0.8,-0.02",
                  "--end", "1.6,0.02", "--out", "path.json", "--svg", "path.svg"]),
    ("simulate-zone", ["simulate", "--tree", "tree.json",
                       "--start-zone", "0.7,-0.03:0.9,0.0",
                       "--end-zone", "1.4,0.0:1.7,0.03", "--min-prob", "0.05",
                       "--out", "zones.json"]),
    ("viz", ["viz", "--tree", "tree.json", "--attribute", "action",
             "--mode", "direct", "--out", "amap.json", "--svg", "amap.svg"]),
    ("viz", ["viz", "--tree", "tree.json", "--attribute", "derivative",
             "--mode", "direct", "--out", "quiver.json", "--svg", "quiver.svg"]),
    ("viz", ["viz", "--tree", "tree.json", "--attribute", "value",
             "--mode", "projection", "--resolution", "120,120",
             "--out", "vproj.json", "--svg", "vproj.svg"]),
    ("sweep-theta", ["sweep-theta", *ROAD_FLAGS, "--data", "road.csv",
                     "--max-leaves", "50", "--divisions", "5",
                     "--out", "sweep.csv"]),
    ("inspect", ["inspect", "--tree", "tree.json"]),
]


def child_env(src: Path, **extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.update(extra)
    return env


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def file_digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


class Walkthrough:
    """The 14 README CLI commands, in order, each a fresh interpreter with
    ``TRIPLETREE_OUT_DIR`` set to a scratch directory.  The README fixes the
    trace seed at 0, so every workload seed runs the same script; the seed
    only names the scratch directory.  One command is one operation.

    In the traced run the commands call ``tripletree.cli.main`` in-process,
    one span per command, so the library spans nest under each command.
    """

    # Set-up is one interpreter start, which is short and noisy: take the
    # median of many.
    setup_repeats = 11
    in_process = False  # the timed work runs in child processes

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work

    def setup(self, seed: int):
        # An interpreter start warms the file cache that the timed commands
        # then share.
        subprocess.run([sys.executable, "-c", "import tripletree.cli"],
                       env=child_env(self.src), check=True)
        return seed

    def _fresh_dir(self, seed: int, k: int) -> Path:
        d = self.work / f"walkthrough-{seed}-{k}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def body(self, seed, k: int, tracer=None) -> Outputs:
        d = self._fresh_dir(seed, k)
        runs = []
        if tracer is None:
            env = child_env(self.src, TRIPLETREE_OUT_DIR=str(d))
            for _, argv in WALKTHROUGH:
                proc = subprocess.run(
                    [sys.executable, "-m", "tripletree.cli", *argv], cwd=d,
                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                runs.append((proc.returncode, proc.stdout.decode(),
                             proc.stderr.decode()))
        else:
            runs = self._in_process(d, tracer)
        files = file_digests(d)
        shutil.rmtree(d)
        return Outputs(digest=_sha(json.dumps([files, [r[:2] for r in runs]])),
                       attempted=len(WALKTHROUGH), extra=(runs, files))

    def _in_process(self, d: Path, tracer) -> list:
        runs = []
        cwd = os.getcwd()
        saved = os.environ.get("TRIPLETREE_OUT_DIR")
        os.environ["TRIPLETREE_OUT_DIR"] = str(d)
        os.chdir(d)
        try:
            for label, argv in WALKTHROUGH:
                stdout, stderr = io.StringIO(), io.StringIO()
                span = tracer.begin(f"cli.{label}")
                try:
                    with contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(stderr):
                        code = cli.main(list(argv))
                except Exception as exc:  # counted as a failed command
                    code = repr(exc)
                finally:
                    tracer.end(span)
                runs.append((code, stdout.getvalue(), stderr.getvalue()))
        finally:
            os.chdir(cwd)
            if saved is None:
                del os.environ["TRIPLETREE_OUT_DIR"]
            else:
                os.environ["TRIPLETREE_OUT_DIR"] = saved
        return runs

    def check(self, seed, out: Outputs) -> list:
        runs, files = out.extra
        expected = json.loads(DIGESTS_FILE.read_text())
        errors = []
        for op, ((label, _), (code, stdout, stderr), want) in enumerate(
                zip(WALKTHROUGH, runs, expected["stdout"])):
            if code != 0:
                errors.append((op, f"{label} exited {code}: "
                                   f"{stderr.strip()[-200:]}"))
            elif stdout_digest(stdout) != want:
                errors.append((op, f"{label} printed {stdout[:200]!r}, which "
                                   f"differs from the recorded digest"))
        writer = {name: op for op, (_, argv) in enumerate(WALKTHROUGH)
                  for flag, name in zip(argv, argv[1:])
                  if flag in ("--out", "--svg", "--policy-out")}
        for name in sorted(set(expected["files"]) | set(files)):
            if files.get(name) != expected["files"].get(name):
                # an output no command names is charged to the first command
                errors.append((writer.get(name, 0),
                               f"{name} differs from the recorded digest"))
        return errors
