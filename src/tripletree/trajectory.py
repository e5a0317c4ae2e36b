"""Leaf transition graphs, maximum-probability leaf paths, and alignment of
piecewise-linear trajectories to per-leaf motion estimates.

Edge costs are negative log probabilities, so an additive shortest path is
the maximum-probability sequence.  A leaf graph carries the tree's leaf
table ids and stacked boxes, so ``zone_paths`` finds the leaves meeting a
zone with one mask.  Alignment runs projected gradient descent on interior
polyline nodes, each constrained to the boundary face it was initialised
on.  Each descent trial is one array pass over the (k, d) segments, one
clip onto the stacked face bounds and one crossing test; only when a node
crosses does the put-back, which depends on the node before it, run node
by node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .tree import Box, TripleTree

END = None  # episode-termination sink
_clip = np._core.umath.clip  # np.clip's ufunc, without the wrapper's checks


@dataclass
class LeafGraph:
    """Directed graph over leaf ids (plus the termination sink)."""

    edges: dict = field(default_factory=dict)  # src -> [(dest, p, t, cost), ...]
    node_ids: np.ndarray | list = field(default_factory=list)  # ascending
    boxes: Box | None = None  # stacked leaf boxes, one row per node id

    def out_edges(self, src):
        return self.edges.get(src, [])


@dataclass
class TrajectoryPath:
    leaves: list
    probability: float
    expected_duration: float
    nodes: np.ndarray | None = None   # (len(leaves) + 1, d) once aligned
    objective: float | None = None
    objective_history: list | None = None  # accepted objective per iteration
    face_constraints: list | None = None   # per interior node: dict of face data
    stop_reason: str | None = None  # tol | max_iters | no_descent

    @property
    def iterations(self) -> int | None:
        """Accepted descent steps (not in to_json); None until aligned."""
        history = self.objective_history
        return None if history is None else len(history) - 1

    def to_json(self) -> dict:
        return {
            "leaves": [(-1 if l is END else int(l)) for l in self.leaves],
            "probability": float(self.probability),
            "expected_duration": float(self.expected_duration),
            "nodes": (None if self.nodes is None
                      else [[float(v) for v in row] for row in self.nodes]),
            "objective": (None if self.objective is None
                          else float(self.objective)),
        }


def build_leaf_graph(tree: TripleTree) -> LeafGraph:
    """One edge per recorded positive-probability transition; sink included."""
    graph = LeafGraph(node_ids=tree.table.ids, boxes=tree.table.box)
    for lid in graph.node_ids.tolist():
        trans = tree.leaves[lid].transitions or {}
        out = []
        for dest in sorted(trans, key=lambda k: (k is END, k)):
            p, t = trans[dest]
            if p > 0:
                out.append((dest, float(p), float(t), float(-np.log(p))))
        if out:
            graph.edges[lid] = out
    return graph


def most_probable_path(graph: LeafGraph, start, end) -> TrajectoryPath | None:
    """Highest-probability leaf sequence from start to end, or None.

    A None result means the end is unreachable from the start under the
    recorded transitions, which is itself informative.
    """
    if start == end:
        return TrajectoryPath(leaves=[start], probability=1.0,
                              expected_duration=0.0)
    dist = {start: 0.0}
    prev: dict = {}
    heap = [(0.0, 0, start)]
    counter = 1
    settled = set()
    while heap:
        cost, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == end:
            seq = [node]
            while seq[-1] != start:
                seq.append(prev[seq[-1]])
            seq.reverse()
            prob, dur = 1.0, 0.0
            for a, b in zip(seq, seq[1:]):
                for dest, p, t, _ in graph.out_edges(a):
                    if dest == b:
                        prob *= p
                        dur += t
                        break
            return TrajectoryPath(leaves=seq, probability=prob,
                                  expected_duration=dur)
        for dest, _, _, ecost in graph.out_edges(node):
            if dest in settled:
                continue
            nd = cost + ecost
            if nd < dist.get(dest, np.inf):
                dist[dest] = nd
                prev[dest] = node
                heapq.heappush(heap, (nd, counter, dest))
                counter += 1
    return None


def zone_paths(graph: LeafGraph, start_zone: Box, end_zone: Box,
               min_probability: float = 0.0) -> list:
    """Most probable path for every (start, end) leaf pair intersecting the
    two zones, filtered by probability; sorted most probable first."""
    if np.any(start_zone.lower > start_zone.upper) or \
            np.any(end_zone.lower > end_zone.upper) or \
            len(graph.node_ids) == 0:
        return []  # a degenerate zone box, or an empty graph, has no leaf
    starts, ends = (graph.node_ids[graph.boxes.meets(z.lower, z.upper)].tolist()
                    for z in (start_zone, end_zone))
    paths = []
    for ls in starts:
        for le in ends:
            path = most_probable_path(graph, ls, le)
            if path is not None and path.probability >= min_probability:
                paths.append(path)
    paths.sort(key=lambda p: (-p.probability, p.leaves[0], p.leaves[-1]))
    return paths


# ---------------------------------------------------------------------------
# Path alignment
# ---------------------------------------------------------------------------

@dataclass
class _Face:
    feature: int
    value: float
    lower: np.ndarray  # rectangle bounds; lower[feature] == upper[feature]
    upper: np.ndarray
    init: np.ndarray


def _shared_face(a: Box, b: Box) -> _Face | None:
    d = a.lower.size
    for f in range(d):
        for val in ((a.upper[f],) if a.upper[f] == b.lower[f] else ()) + \
                   ((a.lower[f],) if b.upper[f] == a.lower[f] else ()):
            lo = np.maximum(a.lower, b.lower)
            hi = np.minimum(a.upper, b.upper)
            lo[f] = hi[f] = val
            if np.all(lo <= hi):
                init = (lo + hi) / 2.0
                return _Face(feature=f, value=float(val), lower=lo, upper=hi,
                             init=init)
    return None


def _exit_face(a: Box, target: np.ndarray) -> _Face:
    """Face of box ``a`` first crossed by the ray from its centre toward a
    target point; used when a recorded transition joins non-adjacent boxes."""
    c = (a.lower + a.upper) / 2.0
    direction = target - c
    best_t, best_f, best_val = np.inf, 0, a.upper[0]
    for f in range(c.size):
        if direction[f] > 0:
            t = (a.upper[f] - c[f]) / direction[f]
            val = a.upper[f]
        elif direction[f] < 0:
            t = (a.lower[f] - c[f]) / direction[f]
            val = a.lower[f]
        else:
            continue
        if t < best_t:
            best_t, best_f, best_val = t, f, val
    if not np.isfinite(best_t):
        best_t = 0.0
    point = np.clip(c + min(best_t, 1.0) * direction, a.lower, a.upper)
    lo, hi = a.lower.copy(), a.upper.copy()
    lo[best_f] = hi[best_f] = best_val
    point[best_f] = best_val
    return _Face(feature=best_f, value=float(best_val), lower=lo, upper=hi,
                 init=point)


class _Angles(NamedTuple):
    """Per-segment terms of the alignment objective at one set of nodes;
    ``ok`` selects the segments where neither the step nor the derivative is
    zero (a slice if that is all), and the other arrays hold those only."""

    ok: np.ndarray | slice
    u: np.ndarray
    nu: np.ndarray
    nuv: np.ndarray
    cos: np.ndarray
    phi: np.ndarray


def _angles(nodes, w, v, nv, live) -> _Angles:
    """One array pass over the (k, d) segments of a polyline: each rescaled
    step u, its norm, and its cosine and angle with the leaf derivative v.

    ``np.vecdot`` reproduces ``np.dot`` and ``np.linalg.norm`` on each row
    bit for bit, where ``einsum`` or ``(u * v).sum(1)`` round differently.
    """
    u = (nodes[1:] - nodes[:-1]) * w
    nu = np.sqrt(np.vecdot(u, u))
    ok = (nu != 0) & live  # live: nv != 0
    ok = slice(None) if ok.all() else ok
    u, nu, v, nv = u[ok], nu[ok], v[ok], nv[ok]
    nuv = nu * nv
    cos = _clip(np.vecdot(u, v) / nuv, -1.0, 1.0)
    return _Angles(ok, u, nu, nuv, cos, np.arccos(cos))


def _objective(a: _Angles) -> float:
    """Summed squared angles, added left to right as Python floats (``**``
    is libm ``pow``, which can differ from ``phi * phi`` in the last bit)."""
    total = 0.0
    for phi in a.phi.tolist():
        total += phi ** 2
    return total


def _gradient(a: _Angles, v) -> np.ndarray:
    """Objective gradient with respect to every node of the polyline."""
    s = np.maximum(np.sqrt(np.maximum(1.0 - a.cos * a.cos, 0.0)), 1e-12)
    du = np.zeros(v.shape)
    du[a.ok] = -(2.0 * a.phi / s)[:, None] * (
        v[a.ok] / a.nuv[:, None]
        - a.cos[:, None] * a.u / (a.nu * a.nu)[:, None])
    g = np.zeros((len(v) + 1, v.shape[1]))
    g[1:] += du
    g[:-1] -= du
    return g


def check_align_options(max_iters, step_size, tol) -> None:
    """Raise ``ParameterError`` unless ``align_path`` can run with these."""
    if not (np.isfinite(step_size) and step_size > 0):
        raise ParameterError(f"step size {step_size:g} must be finite and > 0")
    if not max_iters >= 0:
        raise ParameterError(f"max iters {max_iters} must be >= 0")
    if not (np.isfinite(tol) and tol >= 0):
        raise ParameterError(f"tolerance {tol:g} must be finite and >= 0")


def align_path(tree: TripleTree, leaf_sequence, max_iters: int = 1000,
               step_size: float = 0.05, tol: float = 1e-8,
               endpoints=None) -> TrajectoryPath:
    """Fit a polyline through a leaf sequence whose segments point along the
    leaves' predicted derivatives.

    Interior nodes start on the boundary between consecutive leaves and are
    kept on that face throughout.  Gradient steps minimise the summed
    squared angle between each segment and its leaf's derivative, both
    rescaled by 1/sigma; a step that raises the objective is retried at half
    size, so the accepted objective sequence never increases.  The result
    records the accepted steps (``iterations``) and why descent stopped
    (``stop_reason``: ``tol``, ``max_iters`` or ``no_descent``).
    """
    check_align_options(max_iters, step_size, tol)
    seq = list(leaf_sequence)
    if any(l is END for l in seq):
        raise ParameterError("cannot align a path through the termination sink")
    if not seq:
        raise ParameterError("empty leaf sequence")
    if any(l not in tree.leaves for l in seq):
        raise ParameterError("leaf sequence names a leaf the tree lacks")
    prob, dur = 1.0, 0.0
    for a, b in zip(seq, seq[1:]):
        trans = tree.leaves[a].transitions or {}
        if b not in trans or trans[b][0] <= 0:
            raise ParameterError(f"no recorded transition {a} -> {b}")
        prob *= trans[b][0]
        dur += trans[b][1]

    rows = tree.table.rows(seq)
    boxes = tree.table.box[rows].clipped(tree.feature_range)
    k = len(seq)
    p_start = (np.asarray(endpoints[0], dtype=float) if endpoints is not None
               else (boxes[0].lower + boxes[0].upper) / 2.0)
    if k == 1:
        # no free node: the single point is already optimal
        return TrajectoryPath(leaves=seq, probability=prob,
                              expected_duration=dur,
                              nodes=p_start[None, :].copy(), objective=0.0,
                              objective_history=[0.0], face_constraints=[],
                              stop_reason="tol")
    p_end = (np.asarray(endpoints[1], dtype=float) if endpoints is not None
             else (boxes[-1].lower + boxes[-1].upper) / 2.0)

    faces = []
    for j in range(1, k):
        face = _shared_face(boxes[j - 1], boxes[j])
        if face is None:
            face = _exit_face(boxes[j - 1], (boxes[j].lower + boxes[j].upper) / 2.0)
        faces.append(face)

    nodes = np.empty((k + 1, tree.d))
    nodes[0], nodes[k] = p_start, p_end
    nodes[1:k] = [f.init for f in faces]
    # flat index of node j's coordinate on faces[j - 1], and of node j - 1's
    face = np.arange(1, k) * tree.d + [f.feature for f in faces]
    prev = face - tree.d
    value = np.array([f.value for f in faces])
    lower = np.array([f.lower for f in faces])
    upper = np.array([f.upper for f in faces])
    visible = np.sign(nodes.take(face) - nodes.take(prev))

    w = np.where(tree.sigma > 0, 1.0 / np.where(tree.sigma > 0, tree.sigma, 1.0),
                 0.0)
    v = tree.table.deriv[rows] * w
    nv = np.sqrt(np.vecdot(v, v))
    live = nv != 0
    sigma_back = np.where(tree.sigma > 0, tree.sigma, 0.0)

    angles = _angles(nodes, w, v, nv, live)
    obj = _objective(angles)
    history = [obj]
    step = float(step_size)
    stop_reason = "max_iters"
    it = 0
    while it < max_iters:
        it += 1
        grad = _gradient(angles, v)[1:k]
        inner = nodes[1:k]
        accepted = False
        trial_step = step
        for _ in range(40):
            trial = nodes.copy()
            _clip(inner - trial_step * grad * sigma_back, lower, upper,
                  out=trial[1:k])
            trial.put(face, value)
            _reject_crossings(trial, nodes, face, prev, visible)
            trial_angles = _angles(trial, w, v, nv, live)
            new_obj = _objective(trial_angles)
            if new_obj <= obj:
                accepted = True
                break
            trial_step /= 2.0
        if not accepted:
            stop_reason = "no_descent"
            break
        delta = obj - new_obj
        nodes, obj, angles = trial, new_obj, trial_angles
        history.append(obj)
        step = min(trial_step * 1.2, float(step_size))
        if delta < tol:
            stop_reason = "tol"
            break

    return TrajectoryPath(
        leaves=seq, probability=prob, expected_duration=dur, nodes=nodes,
        objective=obj, objective_history=history,
        face_constraints=[{"feature": f.feature, "value": f.value,
                           "lower": f.lower.copy(), "upper": f.upper.copy()}
                          for f in faces],
        stop_reason=stop_reason)


def _reject_crossings(trial, nodes, face, prev, visible) -> None:
    """Put back, in place, each moved interior node that would cross its
    face (flat index ``face``) against the side it was first reached from.

    Node j's crossing is measured from node j - 1 (``prev``) as it ends up,
    so the rejections are decided one node after the other.
    """
    at = trial.take(face)
    moved = (at - trial.take(prev)) * visible < 0
    if not moved.any():
        return
    after_put_back = (at - nodes.take(prev)) * visible < 0
    reject = False
    for j, a, b in zip(range(1, moved.size + 1), moved.tolist(),
                       after_put_back.tolist()):
        reject = b if reject else a
        if reject:
            trial[j] = nodes[j]
