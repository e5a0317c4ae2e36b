"""The partition tree: best-first growth, prediction, transition statistics,
loss evaluation, JSON serialisation, and a sweep of fits over weightings.

Growth keeps the leaves in a max-priority queue keyed on the
population-weighted, root-normalised, theta-weighted impurity (computed once,
when a leaf is created; ties go to the earliest-created leaf).  It pops the
best leaf and applies the best axis-aligned split found for it, stopping at
the leaf budget or when no leaf admits a split with positive hybrid quality.
Growth keeps the open leaves' sample members to itself: a grown tree holds
what a loaded one does, plus the unserialised ``split_log`` and
``loss_curve``.  After growth the tree is immutable and queries read-only.

Queries and views that scan every leaf read ``TripleTree.table``: the
leaves in ascending id order as one structure of arrays (stacked boxes,
predictions, sample counts, densities and impurities), built once on first
use, as scikit-learn's ``Tree`` keeps its nodes.  ``TripleTree.factual_memo``
keeps each leaf's factual bounds and sentence, lazily, from the leaf's first
explanation.  Both rely on the tree being read-only after growth or loading.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .dataset import (CONTINUOUS_SCALAR, CONTINUOUS_VECTOR, DISCRETE,
                      AugmentedDataset, json_bytes, json_document)
from .errors import ParameterError, TraceFormatError
from .impurity import (ImpurityTriple, best_split, channel_block,
                       combine_qualities, node_stats, scaled_sum,
                       validate_theta)

SERIAL_VERSION = 1


@dataclass
class Box:
    """Axis-aligned hyperrectangle, half-open: lower <= x < upper.

    ``lower`` and ``upper`` may also be (L, d) arrays, one row per box; the
    queries that take a box then broadcast over the last axis and answer
    for all L boxes at once.
    """

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def unbounded(cls, d: int) -> "Box":
        return cls(np.full(d, -np.inf), np.full(d, np.inf))

    def __getitem__(self, rows) -> "Box":
        """The boxes at ``rows`` of a stacked Box; one row is a single Box."""
        return Box(self.lower[rows], self.upper[rows])

    def meets(self, lo, hi):
        """Whether the closed box [lo, hi] meets the half-open region; an
        array over the leading axes when either side holds several boxes."""
        return (np.all(lo < self.upper, axis=-1)
                & np.all(hi >= self.lower, axis=-1))

    def split(self, feature: int, threshold: float) -> tuple["Box", "Box"]:
        left = Box(self.lower.copy(), self.upper.copy())
        right = Box(self.lower.copy(), self.upper.copy())
        left.upper[feature] = threshold
        right.lower[feature] = threshold
        return left, right

    def clipped(self, feature_range: np.ndarray) -> "Box":
        """Bounds clipped into the dataset feature ranges (finite sides)."""
        return Box(np.maximum(self.lower, feature_range[:, 0]),
                   np.minimum(self.upper, feature_range[:, 1]))

    def center(self, feature_range: np.ndarray) -> np.ndarray:
        c = self.clipped(feature_range)
        return (c.lower + c.upper) / 2.0


@dataclass
class Leaf:
    id: int
    box: Box
    n: int
    impurity: ImpurityTriple
    action_pred: object
    value_pred: float
    deriv_pred: np.ndarray
    deriv_low_confidence: bool
    n_deriv: int
    density: float
    transitions: dict | None = None  # dest leaf id (None = episode end) -> (P, T)


class LeafTable(NamedTuple):
    """The leaves of a tree in ascending id order, one row per leaf."""

    ids: np.ndarray       # (L,) int64, ascending
    box: Box              # (L, d) stacked leaf boxes
    value: np.ndarray     # (L,) value predictions
    deriv: np.ndarray     # (L, d) derivative predictions
    action: np.ndarray    # (L,) object labels or numbers; (L, m) float vectors
    n: np.ndarray         # (L,) int64 sample counts
    density: np.ndarray   # (L,) samples per unit of normalised volume
    impurity: np.ndarray  # (L, 3) action, value and derivative impurities
    low_conf: np.ndarray  # (L,) bool: derivative inherited from the parent

    def rows(self, leaf_ids):
        """Row index of each given leaf id (ids of the table's leaves)."""
        return np.searchsorted(self.ids, leaf_ids)

    def predicts(self, action) -> np.ndarray:
        """Mask of the rows whose action prediction equals ``action``; a
        vector matches only an equal vector of the same length."""
        if self.action.ndim == 1:
            foil = np.empty((), dtype=object)  # compared whole, not broadcast
            foil[()] = action
            return self.action == foil
        foil = np.asarray(action, dtype=float)
        if foil.shape != self.action.shape[1:]:
            return np.zeros(self.ids.size, dtype=bool)
        return np.all(self.action == foil, axis=1)


class Prediction(NamedTuple):
    action: object
    value: float
    derivative: np.ndarray
    deriv_low_confidence: bool


@dataclass
class Node:
    feature: int | None = None
    threshold: float | None = None
    left: int | None = None
    right: int | None = None
    leaf_id: int | None = None


@dataclass
class TripleTree:
    nodes: list
    leaves: dict
    theta: np.ndarray
    gamma: float
    sigma: np.ndarray
    feature_range: np.ndarray
    medians: np.ndarray
    feature_names: list
    action_kind: str
    root_impurity: ImpurityTriple
    n_samples: int
    action_labels: list | None = None
    action_sigma: np.ndarray | None = None
    # growth records, not serialised: splits, and losses per leaf count
    split_log: list = field(default_factory=list)
    loss_curve: list = field(default_factory=list)

    @property
    def d(self) -> int:
        return self.feature_range.shape[0]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def ordered_leaves(self) -> list:
        return [self.leaves[k] for k in sorted(self.leaves)]

    @cached_property
    def table(self) -> LeafTable:
        """The leaf table, built on first use, once growth has returned."""
        leaves = self.ordered_leaves()

        def column(*names, dtype=float):
            return np.array(list(map(attrgetter(*names), leaves)), dtype=dtype)

        table = LeafTable(
            ids=column("id", dtype=np.int64),
            box=Box(column("box.lower"), column("box.upper")),
            value=column("value_pred"), deriv=column("deriv_pred"),
            action=(column("action_pred")
                    if self.action_kind == CONTINUOUS_VECTOR else
                    np.fromiter((leaf.action_pred for leaf in leaves),
                                dtype=object, count=len(leaves))),
            n=column("n", dtype=np.int64), density=column("density"),
            impurity=column("impurity.action", "impurity.value",
                            "impurity.derivative").reshape(-1, 3),
            low_conf=column("deriv_low_confidence", dtype=bool))
        for array in (table.box.lower, table.box.upper, *table):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False  # shared by every reader
        return table

    @cached_property
    def factual_memo(self) -> dict:
        """Leaf id -> [bound tuples, query action, sentence or None]: each
        leaf's factual explanation, filled in by ``explain`` on first use."""
        return {}


def select_best_leaf(queue: list) -> int | None:
    """Pop the id of the leaf with the highest growth priority, the
    earliest-created on ties, from a heap of ``(-priority, leaf_id)``.

    Returns None, leaving the heap as it is, when it is empty or its best
    priority is not positive: no leaf can then yield a positive-quality split.
    """
    if not queue or queue[0][0] >= 0:
        return None
    return heapq.heappop(queue)[1]


@np.errstate(over="ignore", invalid="ignore")  # checked before returning
def grow(data: AugmentedDataset, theta, max_leaves: int,
         min_leaf: int = 1) -> TripleTree:
    """Fit a tree to an augmented dataset under a leaf budget.

    A trace whose leaf statistics overflow the float range (a mean or an
    impurity of finite returns and changes) is a TraceFormatError, as
    ``augment`` makes one whose returns or spreads do.  So no tree that
    ``deserialize`` refuses is returned, and no non-finite training loss:
    the leaves' squared errors sum to at most the root's.

    ``tree.loss_curve[k]`` holds the training losses at k + 1 leaves,
    computed incrementally from leaf statistics.

    Each open leaf keeps its members, ascending, and its members in every
    feature's stable sort.  Only the root's are sorted: a split on (f, tau)
    filters each of the parent's orders by ``state[f] < tau`` and by its
    complement, which keeps their relative order, so every child's order is
    the one a stable sort of its own members gives.  The open leaves' orders
    are ``best_split``'s batch records: a popped leaf not yet searched whose
    orders fit in one chunk is searched with every other such open leaf
    (most leaves of a large fit are small), a larger one alone, and each
    keeps its cut until popped.  Each new leaf's priority is
    ``combine_qualities`` of its impurities on Python floats.
    """
    theta = validate_theta(theta)
    if max_leaves < 1:
        raise ParameterError("max_leaves must be >= 1")
    if min_leaf < 1:
        raise ParameterError("min_leaf must be >= 1")
    if data.n == 0:
        raise ParameterError("cannot grow a tree on an empty dataset")

    members = np.arange(data.n)
    orders = np.argsort(data.states.T, axis=1, kind="stable")
    root, sq = _make_leaf(data, 0, Box.unbounded(data.d), members,
                          parent_deriv=np.zeros(data.d))
    root_imp = root.impurity
    tree = TripleTree(
        nodes=[], leaves={}, theta=theta,
        gamma=data.gamma, sigma=data.sigma.copy(),
        feature_range=data.feature_range.copy(), medians=data.medians.copy(),
        feature_names=list(data.feature_names), action_kind=data.action_kind,
        root_impurity=root_imp, n_samples=data.n,
        action_labels=(list(data.action_labels) if data.action_labels is not None
                       else None),
        action_sigma=(data.action_sigma.copy() if data.action_sigma is not None
                      else None))

    # the open leaves: a heap of (-priority, id), and each one's members,
    # sorted orders and loss terms; every leaf's id is the index of its node
    queue: list = []
    frontier: dict = {}
    records: dict = {}  # each open leaf's orders until searched, then its cut
    weights, roots = theta.tolist(), root_imp.as_array().tolist()

    def add_leaf(leaf, members, orders, loss_terms):
        tree.nodes.append(Node(leaf_id=leaf.id))
        tree.leaves[leaf.id] = leaf
        frontier[leaf.id] = members, orders, loss_terms
        records[leaf.id] = orders
        imp = leaf.impurity
        quality = combine_qualities((imp.action, imp.value, imp.derivative),
                                    roots, weights)
        heapq.heappush(queue, (-(leaf.n * quality), leaf.id))

    # sq: summed squared errors of the current leaves, the training losses
    add_leaf(root, members, orders, sq)
    tree.loss_curve.append(_losses(tree, sq, data.n, root.n_deriv))
    block = channel_block(data)  # split search's columns, freed on return

    while len(tree.leaves) < max_leaves:
        lid = select_best_leaf(queue)
        if lid is None:
            break
        members, orders, terms = frontier.pop(lid)
        cand = best_split(data, members, root_imp, theta, min_leaf=min_leaf,
                          block=block, batch=(lid, records))
        if cand is None:
            continue  # unsplittable: the leaf stays out of the queue
        goes_left = data.states[orders, cand.feature] < cand.threshold
        lorders = orders[goes_left].reshape(data.d, -1)
        rorders = orders[~goes_left].reshape(data.d, -1)

        leaf = tree.leaves.pop(lid)
        li = len(tree.nodes)
        tree.nodes[lid] = Node(feature=cand.feature, threshold=cand.threshold,
                               left=li, right=li + 1)
        lbox, rbox = leaf.box.split(cand.feature, cand.threshold)
        left, lterms = _make_leaf(data, li, lbox, cand.left_idx,
                                  leaf.deriv_pred)
        right, rterms = _make_leaf(data, li + 1, rbox, cand.right_idx,
                                   leaf.deriv_pred)
        add_leaf(left, cand.left_idx, lorders, lterms)
        add_leaf(right, cand.right_idx, rorders, rterms)
        tree.split_log.append((lid, cand.feature, cand.threshold))
        sq = tuple(t - p + a + b for t, p, a, b in zip(sq, terms, lterms,
                                                        rterms))
        tree.loss_curve.append(_losses(tree, sq, data.n, root.n_deriv))
    _check_numbers(tree, "trace statistics overflow the float range: the "
                         "fitted tree")
    return tree


def _make_leaf(data, leaf_id, box, members, parent_deriv):
    """A leaf over ``members`` and its ``NodeStats.loss_terms``."""
    stats = node_stats(data, members)
    low_conf = stats.deriv is None
    deriv = (np.asarray(parent_deriv, dtype=float).copy() if low_conf
             else stats.deriv)
    leaf = Leaf(id=leaf_id, box=box, n=members.size, impurity=stats.impurity,
                action_pred=stats.action, value_pred=stats.value,
                deriv_pred=deriv, deriv_low_confidence=low_conf,
                n_deriv=stats.n_deriv,
                density=_leaf_density(box, members.size, data.feature_range))
    return leaf, stats.loss_terms


def _leaf_density(box, n, feature_range) -> float:
    """Samples per unit of the box's volume, clipped to the feature ranges
    and normalised by their widths (a zero width counts 1), on Python
    floats in feature order."""
    volume = 1.0
    for lo, hi, (a, b) in zip(box.lower.tolist(), box.upper.tolist(),
                              feature_range.tolist()):
        if b - a > 0:
            volume *= (min(hi, b) - max(lo, a)) / (b - a)
    return n / max(volume, 1e-300)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def leaf_of(tree: TripleTree, state) -> int:
    """Leaf id reached by propagating a state, converted once to Python
    floats, from the root.  States exactly on a threshold go right (to the
    >= side), as do NaN coordinates.  A state that is not a vector of the
    tree's d features is a ParameterError."""
    s = np.asarray(state, dtype=float)
    if s.shape != (tree.d,):
        raise ParameterError(f"state has shape {s.shape}, expected ({tree.d},)")
    s = s.tolist()
    nodes = tree.nodes
    node = nodes[0]
    while node.leaf_id is None:
        node = nodes[node.left if s[node.feature] < node.threshold
                     else node.right]
    return node.leaf_id


def assign_leaves(tree: TripleTree, states) -> np.ndarray:
    """Vectorised ``leaf_of`` for a (n, d) state matrix; states of another
    width are a TraceFormatError."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != tree.d:
        raise TraceFormatError(f"states have shape {states.shape}, but the "
                               f"tree has {tree.d} features")
    out = np.empty(states.shape[0], dtype=np.int64)
    stack = [(0, np.arange(states.shape[0]))]
    while stack:
        node_i, rows = stack.pop()
        if rows.size == 0:
            continue
        node = tree.nodes[node_i]
        if node.leaf_id is not None:
            out[rows] = node.leaf_id
        else:
            go_left = states[rows, node.feature] < node.threshold
            stack.append((node.left, rows[go_left]))
            stack.append((node.right, rows[~go_left]))
    return out


def predict(tree: TripleTree, state) -> Prediction:
    leaf = tree.leaves[leaf_of(tree, state)]
    action = leaf.action_pred
    return Prediction(  # copies: a change to the result leaves the tree as is
        action.copy() if isinstance(action, np.ndarray) else action,
        leaf.value_pred, leaf.deriv_pred.copy(), leaf.deriv_low_confidence)


# ---------------------------------------------------------------------------
# Transition statistics
# ---------------------------------------------------------------------------

def compute_transitions(tree: TripleTree, data: AugmentedDataset) -> TripleTree:
    """Estimate sequence-level leaf transition probabilities and durations.

    Sequences are runs of consecutive samples in one leaf, never spanning
    episode boundaries.  A run ending with episode termination records a
    transition to the end marker (None); a run cut off by truncation records
    nothing.  The episodes tile the samples in order and none is empty, as
    ``augment`` lays them out, so all runs come from one pass over the leaf
    sequence.
    """
    assign = assign_leaves(tree, data.states)
    n = assign.size
    start, stop, terminal = np.array(data.episode_slices, dtype=np.int64).T
    # a run begins at each episode start and each change of leaf, and ends
    # where the next one begins
    begins = np.zeros(n + 1, dtype=bool)
    begins[start] = begins[n] = True
    begins[1:n] |= assign[1:] != assign[:-1]
    edges = np.flatnonzero(begins)
    first, end = edges[:-1], edges[1:]
    closes = np.zeros(n + 1, dtype=np.int64)  # 1 truncated, 2 terminal end
    closes[stop] = 1 + terminal
    keep = closes[end] != 1  # a run cut off by truncation records nothing
    src = assign[first][keep]
    dest = np.where(closes[end] > 0, -1, assign[np.minimum(end, n - 1)])[keep]
    width = max(tree.leaves) + 2  # key = src * width + dest + 1, -1 the end
    keys, first_seen, which = np.unique(src * width + dest + 1,
                                        return_index=True, return_inverse=True)
    count = np.bincount(which).tolist()
    duration = np.bincount(which, weights=(end - first)[keep]).tolist()
    runs = np.bincount(src).tolist()  # recorded runs out of each leaf

    for leaf in tree.leaves.values():
        leaf.transitions = {}
    # in order of first appearance, as a scan of the episodes meets them
    for k in np.argsort(first_seen, kind="stable").tolist():
        s, d = divmod(int(keys[k]), width)
        tree.leaves[s].transitions[None if d == 0 else d - 1] = (
            count[k] / runs[s], duration[k] / count[k])
    return tree


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def evaluate_losses(tree: TripleTree, data: AugmentedDataset):
    """(action, value, derivative) prediction losses on a dataset.

    Action loss is the misclassification rate for discrete actions and the
    RMS error for continuous ones (per-dimension RMS scaled by the model's
    action spreads, summed, for vector actions).  Value loss is the RMS
    error on returns.  Derivative loss sums per-feature RMS error scaled by
    1/sigma over samples that have a derivative.  Actions of another shape
    than the tree's are a TraceFormatError.
    """
    t = tree.table
    if data.actions.shape[1:] != t.action.shape[1:]:
        raise TraceFormatError(f"actions have shape {data.actions.shape}, but "
                               f"the tree predicts shape {t.action.shape[1:]}")
    rows = t.rows(assign_leaves(tree, data.states))
    if tree.action_kind == DISCRETE:
        a_sq = float(np.sum(t.action[rows] != data.actions.astype(object)))
    else:
        a_sq = np.sum((t.action.astype(float)[rows] - data.actions) ** 2,
                      axis=0)
    v_sq = np.sum((t.value[rows] - data.V) ** 2)
    mask = data.has_deriv
    d_sq = np.sum((t.deriv[rows[mask]] - data.D[mask]) ** 2, axis=0)
    return _losses(tree, (a_sq, v_sq, d_sq), data.n, int(mask.sum()))


def _losses(tree, sq, n, m):
    """Losses from the summed squared errors ``sq`` (the misclassified count
    for discrete actions) over n samples, m of which have a derivative."""
    a_sq, v_sq, d_sq = sq
    if tree.action_kind == DISCRETE:
        a_loss = a_sq / n
    elif tree.action_kind == CONTINUOUS_SCALAR:
        a_loss = np.sqrt(max(a_sq, 0.0) / n)
    else:
        a_loss = scaled_sum(np.sqrt(np.maximum(a_sq, 0.0) / n),
                            tree.action_sigma)
    d_loss = (scaled_sum(np.sqrt(np.maximum(d_sq, 0.0) / m), tree.sigma)
              if m > 0 else 0.0)
    return (float(a_loss), float(np.sqrt(max(v_sq, 0.0) / n)), d_loss)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def _side(v):
    return None if np.isinf(v) else float(v)


def serialize(tree: TripleTree) -> bytes:
    """Lossless JSON encoding of the tree, without its growth records."""
    meta = {
        "d": tree.d,
        "feature_names": list(tree.feature_names),
        "theta": [float(v) for v in tree.theta],
        "gamma": float(tree.gamma),
        "sigma": [float(v) for v in tree.sigma],
        "ranges": [[float(a), float(b)] for a, b in tree.feature_range],
        "medians": [float(v) for v in tree.medians],
        "action_kind": tree.action_kind,
        "root_impurity": [float(v) for v in tree.root_impurity.as_array()],
        "n_samples": tree.n_samples,
    }
    if tree.action_labels is not None:
        meta["action_labels"] = [a if isinstance(a, str) else float(a)
                                 for a in tree.action_labels]
    if tree.action_sigma is not None:
        meta["action_sigma"] = [float(v) for v in tree.action_sigma]

    nodes = []
    for node in tree.nodes:
        if node.leaf_id is None:
            nodes.append({"f": node.feature, "tau": float(node.threshold),
                          "left": node.left, "right": node.right})
        else:
            leaf = tree.leaves[node.leaf_id]
            if leaf.transitions is None:
                trans = None
            else:
                trans = sorted(
                    ([dest, float(p), float(t)]
                     for dest, (p, t) in leaf.transitions.items()),
                    key=lambda e: (e[0] is None, e[0]))
            action = leaf.action_pred
            if isinstance(action, np.ndarray):
                action = [float(v) for v in action]
            elif not isinstance(action, str):
                action = float(action)
            nodes.append({"leaf": {
                "id": leaf.id,
                "box": [[_side(a), _side(b)]
                        for a, b in zip(leaf.box.lower, leaf.box.upper)],
                "n": int(leaf.n),
                "n_deriv": int(leaf.n_deriv),
                "preds": {
                    "action": action,
                    "value": float(leaf.value_pred),
                    "deriv": [float(v) for v in leaf.deriv_pred],
                    "deriv_low_confidence": bool(leaf.deriv_low_confidence),
                },
                "impurity": [float(v) for v in leaf.impurity.as_array()],
                "transitions": trans,
                "density": float(leaf.density),
            }})
    doc = {"version": SERIAL_VERSION, "meta": meta, "nodes": nodes}
    return json_bytes(doc)


def deserialize(payload: bytes) -> TripleTree:
    """Decode ``serialize`` output; any malformed payload raises
    TraceFormatError, a data error like a malformed trace."""
    doc = json_document(payload, "tree")
    if not isinstance(doc, dict) or doc.get("version") != SERIAL_VERSION:
        raise TraceFormatError(
            f"unsupported tree payload version {doc.get('version')!r}"
            if isinstance(doc, dict) else "corrupt tree payload")
    try:
        tree = _decode(doc)
        _check_values(tree)
    except TraceFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise TraceFormatError(
            f"corrupt tree payload: {type(exc).__name__}: {exc}") from None
    _check_structure(tree)
    return tree


def _array(value, shape) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.shape != shape:
        raise TraceFormatError(
            f"tree payload array has shape {out.shape}, expected {shape}")
    return out


def _decode(doc) -> TripleTree:
    meta = doc["meta"]
    d = int(meta["d"])
    tree = TripleTree(
        nodes=[], leaves={},
        theta=_array(meta["theta"], (3,)),
        gamma=float(meta["gamma"]),
        sigma=_array(meta["sigma"], (d,)),
        feature_range=_array(meta["ranges"], (d, 2)),
        medians=_array(meta["medians"], (d,)),
        feature_names=list(meta["feature_names"]),
        action_kind=meta["action_kind"],
        root_impurity=ImpurityTriple(*meta["root_impurity"]),
        n_samples=int(meta["n_samples"]),
        action_labels=meta.get("action_labels"),
        action_sigma=(np.asarray(meta["action_sigma"], dtype=float)
                      if "action_sigma" in meta else None))
    for entry in doc["nodes"]:
        if "leaf" in entry:
            rec = entry["leaf"]
            lower = _array([(-np.inf if a is None else a)
                            for a, _ in rec["box"]], (d,))
            upper = _array([(np.inf if b is None else b)
                            for _, b in rec["box"]], (d,))
            preds = rec["preds"]
            action = preds["action"]
            if tree.action_kind == CONTINUOUS_VECTOR:
                action = np.asarray(action, dtype=float)
            trans = rec["transitions"]
            if trans is not None:
                trans = {(None if dest is None else int(dest)): (float(p), float(t))
                         for dest, p, t in trans}
            leaf = Leaf(
                id=int(rec["id"]), box=Box(lower, upper), n=int(rec["n"]),
                impurity=ImpurityTriple(*rec["impurity"]),
                action_pred=action, value_pred=float(preds["value"]),
                deriv_pred=_array(preds["deriv"], (d,)),
                deriv_low_confidence=bool(preds["deriv_low_confidence"]),
                n_deriv=int(rec["n_deriv"]), density=float(rec["density"]),
                transitions=trans)
            if leaf.id in tree.leaves:
                raise TraceFormatError(f"tree payload repeats leaf id {leaf.id}")
            tree.nodes.append(Node(leaf_id=leaf.id))
            tree.leaves[leaf.id] = leaf
        else:
            tree.nodes.append(Node(feature=int(entry["f"]),
                                   threshold=float(entry["tau"]),
                                   left=int(entry["left"]),
                                   right=int(entry["right"])))
    return tree


def _finite(*values) -> bool:
    return bool(np.isfinite(np.concatenate(
        [np.asarray(v, dtype=float).ravel() for v in values])).all())


def _check_numbers(tree: TripleTree, what: str) -> None:
    """Every number a query reads is finite (``_check_structure`` checks box
    sides); ``what`` names the tree in the error."""
    if not _finite(tree.theta, tree.gamma, tree.sigma, tree.feature_range,
                   tree.medians, tree.root_impurity.as_array(),
                   [] if tree.action_sigma is None else tree.action_sigma):
        raise TraceFormatError(f"{what} meta holds a non-finite number")
    if not _finite([node.threshold for node in tree.nodes
                    if node.leaf_id is None]):
        raise TraceFormatError(f"{what} holds a non-finite threshold")
    t = tree.table
    if not _finite(t.value, t.deriv, t.density, t.impurity,
                   [a for a in t.action if not isinstance(a, str)]):
        raise TraceFormatError(f"{what} leaf holds a non-finite number")


def _check_values(tree: TripleTree) -> None:
    """``_check_numbers``, and each leaf's recorded transitions form a
    distribution over leaves of the tree and episode end."""
    _check_numbers(tree, "tree payload")
    for leaf in tree.ordered_leaves():
        if not leaf.transitions:
            continue  # absent or empty: no transition was observed
        probs = [p for p, _ in leaf.transitions.values()]
        if not all(map(math.isfinite, probs + [t for _, t in
                                               leaf.transitions.values()])) \
                or min(probs) < 0 or abs(math.fsum(probs) - 1.0) > 1e-9:
            raise TraceFormatError(f"tree payload leaf {leaf.id} transition "
                                 f"probabilities are not a distribution")
        if any(dest is not None and dest not in tree.leaves
               for dest in leaf.transitions):
            raise TraceFormatError(f"tree payload leaf {leaf.id} has a "
                                 f"transition to an unknown leaf")


def _check_structure(tree: TripleTree) -> None:
    """Every node reached exactly once from node 0, split nodes test a
    feature the tree has at a threshold inside their region, and each leaf's
    box is the region its ancestors' thresholds cut out.  Queries then
    cannot loop or index out of range, and the leaf boxes partition the
    space exactly as ``leaf_of`` does."""
    if not tree.nodes:
        raise TraceFormatError("tree payload has no nodes")
    seen = [False] * len(tree.nodes)
    stack = [(0, Box.unbounded(tree.d))]
    while stack:
        i, box = stack.pop()
        if not 0 <= i < len(tree.nodes):
            raise TraceFormatError(f"tree payload child index {i} out of range")
        if seen[i]:
            raise TraceFormatError(f"tree payload node {i} is reached twice")
        seen[i] = True
        node = tree.nodes[i]
        if node.leaf_id is not None:
            leaf = tree.leaves[node.leaf_id]
            if not (np.array_equal(leaf.box.lower, box.lower)
                    and np.array_equal(leaf.box.upper, box.upper)):
                raise TraceFormatError(f"tree payload leaf {leaf.id} box "
                                     f"disagrees with its ancestors' thresholds")
            continue
        f = node.feature
        if not 0 <= f < tree.d:
            raise TraceFormatError(f"tree payload node {i} splits on feature {f}")
        if not box.lower[f] < node.threshold < box.upper[f]:
            raise TraceFormatError(
                f"tree payload node {i} threshold lies outside its region")
        left, right = box.split(f, node.threshold)
        stack += [(node.right, right), (node.left, left)]
    if not all(seen):
        raise TraceFormatError(
            f"tree payload node {seen.index(False)} is unreachable")


def fit(data: AugmentedDataset, theta, max_leaves: int,
        min_leaf: int = 1) -> TripleTree:
    """``grow``, refusing a trace whose leaf statistics overflow as it does,
    with transition statistics from the fitting data: frequencies of
    observed runs, a distribution by construction."""
    return compute_transitions(grow(data, theta, max_leaves,
                                    min_leaf=min_leaf), data)


EXCLUSIVE_THETAS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def theta_sweep(data: AugmentedDataset, theta_grid, max_leaves: int,
                min_leaf: int = 1) -> dict:
    """Grow one tree per weighting and score each by its worst loss.

    Each loss column is normalised by the loss the corresponding exclusive
    weighting achieves at the same leaf budget, making the three losses
    commensurable; the winner minimises the maximum normalised loss.  Each
    distinct weighting, the exclusive ones first, is grown once.
    """
    if not theta_grid:
        raise ParameterError("the theta grid is empty")
    grid = [tuple(map(float, theta)) for theta in theta_grid]
    losses = {theta: evaluate_losses(grow(
        data, np.asarray(theta), max_leaves, min_leaf=min_leaf), data)
              for theta in dict.fromkeys((*EXCLUSIVE_THETAS, *grid))}
    optima = [losses[t][c] for c, t in enumerate(EXCLUSIVE_THETAS)]
    rows = []
    for theta in grid:
        raw = losses[theta]
        normalised = [raw[c] / optima[c] if optima[c] > 0
                      else 1.0 if raw[c] <= 0 else math.inf
                      for c in range(3)]
        rows.append({"theta": theta,
                     "action_loss": raw[0], "value_loss": raw[1],
                     "deriv_loss": raw[2],
                     "worst_normalised_loss": max(normalised)})
    best = min(rows, key=lambda r: r["worst_normalised_loss"])
    return {"rows": rows, "best_theta": best["theta"],
            "exclusive_optima": {"action": optima[0], "value": optima[1],
                                 "derivative": optima[2]}}


def simplex_theta_grid(divisions: int = 5):
    """All nonnegative integer weightings i+j+k = divisions, rescaled to
    sum to one."""
    if divisions < 1:
        raise ParameterError("divisions must be >= 1")
    grid = []
    for i in range(divisions + 1):
        for j in range(divisions + 1 - i):
            k = divisions - i - j
            grid.append((i / divisions, j / divisions, k / divisions))
    return grid
