"""Decision trees that jointly model an agent's actions, returns, and state
dynamics from observed traces, with explanation, trajectory simulation, and
visualisation tooling built on top."""

from .dataset import (AugmentedDataset, Episode, TraceDataset, augment,
                      load_trace, load_trace_path)
from .errors import ParameterError, TraceFormatError
from .explain import (Explanation, counterfactual_action, counterfactual_value,
                      factual, render_json, render_text, temporal)
from .impurity import ImpurityTriple
from .road_env import (GridPolicy, RoadConfig, dp_solve, generate_dataset,
                       step)
from .trajectory import (LeafGraph, TrajectoryPath, align_path,
                         build_leaf_graph, most_probable_path, zone_paths)
from .tree import (Box, Leaf, TripleTree, compute_transitions, deserialize,
                   evaluate_losses, fit, grow, leaf_of, predict, serialize,
                   theta_sweep)
from .viz import PlaneSpec, direct_map, ice_slice, pdp_projection, quiver, render_svg

__version__ = "0.1.0"

__all__ = [
    "AugmentedDataset", "Box", "Episode", "Explanation", "GridPolicy",
    "ImpurityTriple", "Leaf", "LeafGraph", "ParameterError", "PlaneSpec",
    "RoadConfig", "TraceDataset", "TraceFormatError",
    "TrajectoryPath", "TripleTree", "align_path", "augment",
    "build_leaf_graph", "compute_transitions", "counterfactual_action",
    "counterfactual_value", "deserialize", "direct_map",
    "dp_solve", "evaluate_losses", "factual", "fit", "generate_dataset",
    "grow", "ice_slice", "leaf_of", "load_trace",
    "load_trace_path", "most_probable_path", "pdp_projection", "predict",
    "quiver", "render_json",
    "render_svg", "render_text", "serialize", "step",
    "temporal", "theta_sweep", "zone_paths",
]
