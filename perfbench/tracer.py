"""Spans and counters for the traced run.

The tracer wraps public functions of the ``tripletree`` modules from the
outside: every module attribute that is the original function object is
replaced by a timing wrapper, so calls made inside the library (``grow``
calling ``best_split``, ``zone_paths`` calling ``most_probable_path``) are
captured too.  ``restore`` puts every original back.  No library source is
touched.

Each span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span (or -1), kept in memory and written out once at the end.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict


def _align_iterations(path) -> int:
    history = path.objective_history or [0.0]
    return len(history) - 1


def _bytes_read(source) -> int:
    if hasattr(source, "tell"):
        return source.tell()  # load_trace has read the whole stream
    return len(source)


# (module, function, hook).  A hook maps a call's arguments and result to
# counter increments: hook(args, kwargs, result) -> {counter: increment}.
TARGETS = [
    ("road_env", "dp_solve", lambda a, k, r: {"dp_iterations": r.iterations}),
    ("road_env", "generate_dataset",
     lambda a, k, r: {"generate_samples": r.n_samples}),
    ("road_env", "theta_sweep", None),
    ("dataset", "load_trace", lambda a, k, r: {"load_bytes": _bytes_read(a[0])}),
    ("dataset", "trace_to_csv_bytes", None),
    ("dataset", "augment", None),
    ("impurity", "best_split",
     lambda a, k, r: {"best_split_rows": a[1].size * a[0].d,
                      "best_split_none": int(r is None)}),
    ("impurity", "node_impurity", None),
    ("tree", "fit", None),
    ("tree", "grow", lambda a, k, r: {"splits": len(r.split_log)}),
    ("tree", "select_best_leaf", None),
    ("tree", "compute_transitions", None),
    ("tree", "evaluate_losses", None),
    ("tree", "serialize", None),
    ("tree", "deserialize", lambda a, k, r: {"tree_bytes": len(a[0])}),
    ("explain", "factual", None),
    ("explain", "counterfactual_action", None),
    ("explain", "counterfactual_value", None),
    ("explain", "temporal",
     lambda a, k, r: {"temporal_fallbacks": int(r.unconstrained_fallback)}),
    ("explain", "render_text", None),
    ("trajectory", "build_leaf_graph", None),
    ("trajectory", "most_probable_path", None),
    ("trajectory", "zone_paths", lambda a, k, r: {"zone_kept": len(r)}),
    ("trajectory", "align_path",
     lambda a, k, r: {"align_iterations": _align_iterations(r),
                      "align_max_iters": int(_align_iterations(r)
                                             >= k.get("max_iters", 1000))}),
    ("viz", "direct_map", None),
    ("viz", "pdp_projection", None),
    ("viz", "quiver", None),
    ("viz", "render_svg", lambda a, k, r: {"svg_bytes": len(r)}),
]

MODULES = ("road_env", "dataset", "impurity", "tree", "explain", "trajectory",
           "viz", "cli")

CLI_COMMANDS = ("gen-road", "fit", "eval-curve", "explain", "simulate",
                "simulate-zone", "viz", "sweep-theta", "inspect")

# Per-module metrics of the traced run: (name, unit, better, module, moves).
# ``moves`` names the end-to-end metric and workloads the layer metric is
# expected to move; later performance changes cite these rows by name.  The
# traced run times the body only: a metric whose only calls are in a
# workload's set-up (road_env and write_csv outside the walkthrough) reads 0
# there, and its row names the set-up it moves.
LAYER_METRICS = [
    ("dp_solve_s", "s", "lower", "road_env", "walkthrough.wall_s; setup_s elsewhere"),
    ("dp_iterations", "count", "lower", "road_env", "walkthrough.wall_s; setup_s elsewhere"),
    ("generate_s", "s", "lower", "road_env", "walkthrough.wall_s; setup_s elsewhere"),
    ("generate_samples_per_s", "1/s", "higher", "road_env", "walkthrough.wall_s; setup_s elsewhere"),
    ("load_csv_s", "s", "lower", "dataset", "fit.wall_s, walkthrough.wall_s"),
    ("load_csv_mb_per_s", "MB/s", "higher", "dataset", "fit.wall_s, walkthrough.wall_s"),
    ("write_csv_s", "s", "lower", "dataset", "walkthrough.wall_s; setup_s elsewhere"),
    ("augment_s", "s", "lower", "dataset", "fit.wall_s, walkthrough.wall_s"),
    ("best_split_calls", "count", "lower", "impurity", "fit.wall_s, walkthrough.wall_s"),
    ("best_split_s", "s", "lower", "impurity", "fit.wall_s, walkthrough.wall_s"),
    ("best_split_rows", "count", "lower", "impurity", "fit.wall_s, walkthrough.wall_s"),
    ("best_split_none_ratio", "ratio", "lower", "impurity", "fit.wall_s, walkthrough.wall_s"),
    ("node_impurity_calls", "count", "lower", "impurity", "fit.wall_s, walkthrough.wall_s"),
    ("node_impurity_s", "s", "lower", "impurity", "fit.wall_s, walkthrough.wall_s"),
    ("select_best_leaf_calls", "count", "lower", "tree", "fit.wall_s; little change on walkthrough"),
    ("select_best_leaf_s", "s", "lower", "tree", "fit.wall_s; little change on walkthrough"),
    ("grow_s", "s", "lower", "tree", "fit.wall_s, walkthrough.wall_s"),
    ("grow_self_s", "s", "lower", "tree", "fit.wall_s, walkthrough.wall_s"),
    ("splits", "count", "higher", "tree", "fit.wall_s"),
    ("compute_transitions_s", "s", "lower", "tree", "fit.wall_s"),
    ("evaluate_losses_s", "s", "lower", "tree", "fit.wall_s"),
    ("serialize_s", "s", "lower", "tree", "fit.wall_s"),
    ("deserialize_s", "s", "lower", "tree", "walkthrough.wall_s; setup_s of explain, temporal-simulate-viz"),
    ("tree_bytes", "bytes", "lower", "tree", "walkthrough.wall_s; setup_s of explain, temporal-simulate-viz"),
    ("factual_ms", "ms", "lower", "explain", "explain.wall_s"),
    ("counterfactual_action_ms", "ms", "lower", "explain", "explain.wall_s"),
    ("counterfactual_value_ms", "ms", "lower", "explain", "explain.wall_s"),
    ("temporal_ms", "ms", "lower", "explain", "temporal-simulate-viz.wall_s"),
    ("temporal_fallback_ratio", "ratio", "lower", "explain", "temporal-simulate-viz.wall_s"),
    ("build_leaf_graph_s", "s", "lower", "trajectory", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("dijkstra_calls", "count", "lower", "trajectory", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("dijkstra_s", "s", "lower", "trajectory", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("zone_paths_kept_ratio", "ratio", "higher", "trajectory", "walkthrough.wall_s"),
    ("align_calls", "count", "lower", "trajectory", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("align_s", "s", "lower", "trajectory", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("align_iterations", "count", "lower", "trajectory", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("align_max_iters_ratio", "ratio", "lower", "trajectory", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("pdp_projection_s", "s", "lower", "viz", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("direct_map_s", "s", "lower", "viz", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("quiver_s", "s", "lower", "viz", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("render_svg_s", "s", "lower", "viz", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
    ("svg_bytes", "bytes", "lower", "viz", "temporal-simulate-viz.wall_s, walkthrough.wall_s"),
] + [
    (f"cli_{cmd}_s", "s", "lower", "cli", "walkthrough.wall_s")
    for cmd in CLI_COMMANDS
] + [
    ("cli_start_s", "s", "lower", "cli", "walkthrough.wall_s, walkthrough.setup_s"),
] + [
    (f"{mod}_self_s", "s", "lower", mod, "wall_s of the workloads that call it")
    for mod in MODULES
] + [
    ("trace_overhead_ratio", "ratio", "lower", "benchmark", "none: traced / untraced body time"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent]
        self._stack: list = []
        self.counts: dict = defaultdict(int)
        self._patches: list = []  # (module object, attribute, original)

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every tripletree module that refers to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tripletree"
                                         or name.startswith("tripletree."))]
        for mod_name, func_name, hook in TARGETS:
            original = getattr(sys.modules[f"tripletree.{mod_name}"], func_name)
            wrapper = self._wrapper(f"{mod_name}.{func_name}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrapper(self, span_name, original, hook):
        counts = self.counts

        def traced(*args, **kwargs):
            index = self.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if hook is not None:
                for key, increment in hook(args, kwargs, result).items():
                    counts[key] += increment
            return result

        traced.__wrapped__ = original
        return traced

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
               for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def metrics(self, body_s: float, untraced_body_s: float) -> dict:
        """Every per-module metric, computed from the spans and counters."""
        durations = defaultdict(list)
        self_time = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += (end - start) - child_time[i]

        def total(name):
            return sum(durations[name])

        def calls(name):
            return len(durations[name])

        def median_ms(name):
            d = durations[name]
            return statistics.median(d) * 1e3 if d else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        zone_pairs = sum(
            1 for name, _, _, parent in self.spans
            if name == "trajectory.most_probable_path" and parent >= 0
            and self.spans[parent][0] == "trajectory.zone_paths")
        out = {
            "dp_solve_s": total("road_env.dp_solve"),
            "dp_iterations": c["dp_iterations"],
            "generate_s": total("road_env.generate_dataset"),
            "generate_samples_per_s": ratio(c["generate_samples"],
                                            total("road_env.generate_dataset")),
            "load_csv_s": total("dataset.load_trace"),
            "load_csv_mb_per_s": ratio(c["load_bytes"] / 1e6,
                                       total("dataset.load_trace")),
            "write_csv_s": total("dataset.trace_to_csv_bytes"),
            "augment_s": total("dataset.augment"),
            "best_split_calls": calls("impurity.best_split"),
            "best_split_s": total("impurity.best_split"),
            "best_split_rows": c["best_split_rows"],
            "best_split_none_ratio": ratio(c["best_split_none"],
                                           calls("impurity.best_split")),
            "node_impurity_calls": calls("impurity.node_impurity"),
            "node_impurity_s": total("impurity.node_impurity"),
            "select_best_leaf_calls": calls("tree.select_best_leaf"),
            "select_best_leaf_s": total("tree.select_best_leaf"),
            "grow_s": total("tree.grow"),
            "grow_self_s": self_time["tree.grow"],
            "splits": c["splits"],
            "compute_transitions_s": total("tree.compute_transitions"),
            "evaluate_losses_s": total("tree.evaluate_losses"),
            "serialize_s": total("tree.serialize"),
            "deserialize_s": total("tree.deserialize"),
            "tree_bytes": c["tree_bytes"],
            "factual_ms": median_ms("explain.factual"),
            "counterfactual_action_ms": median_ms("explain.counterfactual_action"),
            "counterfactual_value_ms": median_ms("explain.counterfactual_value"),
            "temporal_ms": median_ms("explain.temporal"),
            "temporal_fallback_ratio": ratio(c["temporal_fallbacks"],
                                             calls("explain.temporal")),
            "build_leaf_graph_s": total("trajectory.build_leaf_graph"),
            "dijkstra_calls": calls("trajectory.most_probable_path"),
            "dijkstra_s": total("trajectory.most_probable_path"),
            "zone_paths_kept_ratio": ratio(c["zone_kept"], zone_pairs),
            "align_calls": calls("trajectory.align_path"),
            "align_s": total("trajectory.align_path"),
            "align_iterations": c["align_iterations"],
            "align_max_iters_ratio": ratio(c["align_max_iters"],
                                           calls("trajectory.align_path")),
            "pdp_projection_s": total("viz.pdp_projection"),
            "direct_map_s": total("viz.direct_map"),
            "quiver_s": total("viz.quiver"),
            "render_svg_s": total("viz.render_svg"),
            "svg_bytes": c["svg_bytes"],
        }
        for cmd in CLI_COMMANDS:
            out[f"cli_{cmd}_s"] = total(f"cli.{cmd}")
        for mod in MODULES:
            out[f"{mod}_self_s"] = sum(v for k, v in self_time.items()
                                       if k.startswith(mod + "."))
        out["trace_overhead_ratio"] = ratio(body_s, untraced_body_s)
        return out
