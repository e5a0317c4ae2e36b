"""Regenerate the committed golden files (review diffs before committing).

Run from the repository root: ``PYTHONPATH=src python -m tests.make_goldens``.
With ``--check`` it rebuilds every golden in memory, writes nothing, and
exits 1 naming each file whose committed bytes differ (0 when none do).
"""

import argparse
import os
import sys

from tripletree import viz
from tripletree.viz import PlaneSpec

from .conftest import road_setup
from .test_dataset import (AUGMENT_DIGEST, TRACE_DIGEST, road_augment_digests,
                           road_trace_digests)
from .test_queries import QUERY_DIGEST, road_query_digests
from .test_tree import (README_DIGEST, ROAD_DIGEST, SWEEP_DIGEST,
                        VECTOR_DIGEST, readme_tree_digests, road_sweep_digest,
                        road_tree_digests, vector_tree_digests)
from .test_viz import GOLDEN_DIR, VIEW_DIGEST, quad_tree, road_view_digests


def goldens() -> dict:
    """Every golden file's path and the text it should hold."""
    tree = quad_tree()
    files = {}
    files[os.path.join(GOLDEN_DIR, "action_map.svg")] = viz.render_svg(
        viz.direct_map(tree, "action"),
        {"title": "action map", "xlabel": "f0", "ylabel": "f1"})

    grid = viz.pdp_projection(tree, PlaneSpec(0, 1, n_x=8, n_y=6), "value")
    files[os.path.join(GOLDEN_DIR, "value_grid.svg")] = viz.render_svg(
        grid, {"title": "value grid"})

    overlay = [{"type": "path", "nodes": [[0.5, 0.5], [1.0, 0.6], [1.5, 1.5]],
                "probability": 0.4},
               {"type": "point", "xy": [0.5, 0.5]},
               {"type": "segment", "from": [0.2, 0.2], "to": [1.0, 1.0]}]
    files[os.path.join(GOLDEN_DIR, "quiver_overlay.svg")] = viz.render_svg(
        viz.quiver(tree, mode="direct"), {"title": "quiver"},
        overlays=overlay)

    aug = road_setup()[3]
    files[ROAD_DIGEST] = road_tree_digests(aug)
    files[SWEEP_DIGEST] = road_sweep_digest(aug)
    files[QUERY_DIGEST] = road_query_digests(aug)
    files[VIEW_DIGEST] = road_view_digests(aug)
    files[TRACE_DIGEST] = road_trace_digests()
    files[AUGMENT_DIGEST] = road_augment_digests()
    files[README_DIGEST] = readme_tree_digests()
    files[VECTOR_DIGEST] = vector_tree_digests()
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed files; write nothing")
    args = parser.parse_args(argv)
    files = goldens()
    if args.check:
        differ = []
        for path, text in files.items():
            try:
                with open(path, "rb") as fh:
                    same = fh.read() == text.encode()
            except FileNotFoundError:
                same = False
            if not same:
                differ.append(os.path.relpath(path))
        for path in differ:
            print(f"differs: {path}")
        print(f"{len(files) - len(differ)} of {len(files)} goldens unchanged")
        return 1 if differ else 0
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for path, text in files.items():
        with open(path, "wb") as fh:
            fh.write(text.encode())
    print(f"goldens written to {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
