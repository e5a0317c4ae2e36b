"""Regenerate the committed golden files (review diffs before committing).

Run from the repository root: ``PYTHONPATH=src python -m tests.make_goldens``.
"""

import os

from tripletree import viz
from tripletree.viz import PlaneSpec

from .conftest import road_setup
from .test_dataset import TRACE_DIGEST, road_trace_digests
from .test_queries import QUERY_DIGEST, road_query_digests
from .test_tree import (README_DIGEST, ROAD_DIGEST, readme_tree_digests,
                        road_tree_digests)
from .test_viz import GOLDEN_DIR, VIEW_DIGEST, quad_tree, road_view_digests


def main():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    tree = quad_tree()

    with open(os.path.join(GOLDEN_DIR, "action_map.svg"), "wb") as fh:
        fh.write(viz.render_svg(
            viz.direct_map(tree, "action"),
            {"title": "action map", "xlabel": "f0", "ylabel": "f1"}).encode())

    grid = viz.pdp_projection(tree, PlaneSpec(0, 1, n_x=8, n_y=6), "value")
    with open(os.path.join(GOLDEN_DIR, "value_grid.svg"), "wb") as fh:
        fh.write(viz.render_svg(grid, {"title": "value grid"}).encode())

    overlay = [{"type": "path", "nodes": [[0.5, 0.5], [1.0, 0.6], [1.5, 1.5]],
                "probability": 0.4},
               {"type": "point", "xy": [0.5, 0.5]},
               {"type": "segment", "from": [0.2, 0.2], "to": [1.0, 1.0]}]
    with open(os.path.join(GOLDEN_DIR, "quiver_overlay.svg"), "wb") as fh:
        fh.write(viz.render_svg(viz.quiver(tree, mode="direct"),
                                {"title": "quiver"},
                                overlays=overlay).encode())

    aug = road_setup()[3]
    with open(ROAD_DIGEST, "w") as fh:
        fh.write(road_tree_digests(aug))
    with open(QUERY_DIGEST, "w") as fh:
        fh.write(road_query_digests(aug))
    with open(VIEW_DIGEST, "w") as fh:
        fh.write(road_view_digests(aug))
    with open(TRACE_DIGEST, "w") as fh:
        fh.write(road_trace_digests())
    with open(README_DIGEST, "w") as fh:
        fh.write(readme_tree_digests())
    print(f"goldens written to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
