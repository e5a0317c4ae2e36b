"""Rule-based explanations: factual bounds, minimal counterfactuals for
actions and value conditions, and temporal explanations of action changes.

Counterfactual targets are chosen by a two-stage comparison over candidate
points projected onto eligible leaf regions: fewest changed features first,
then smallest range-normalised Euclidean change, then lowest leaf id.

Every query reads the tree's leaf table (``TripleTree.table``): one mask
over its rows picks the eligible leaves, and their stacked boxes are
projected onto, and ranked, in one array pass.  A temporal query then tests
the ranked candidates for purity in order, each against every leaf box at
once, and stops at the first pure one.  Leaf boxes partition the state
space as ``leaf_of`` does (grown trees by construction, loaded trees by the
check in ``deserialize``), so the successor's own leaf is always pure and a
temporal rule is always the minimal one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from operator import is_

import numpy as np

from .errors import ParameterError
from .tree import Box, TripleTree, leaf_of, predict


@dataclass
class Explanation:
    kind: str  # factual | counterfactual_action | counterfactual_value | temporal
    bounds: list = field(default_factory=list)  # (feature, '<' or '>=', threshold)
    foil: object = None          # action label, or ('<='|'>=', threshold) for value
    target_leaf: int | None = None
    foil_point: np.ndarray | None = None
    changed_features: list = field(default_factory=list)
    query_action: object = None  # prediction at the query state
    foil_unreachable: bool = False
    unconstrained_fallback: bool = False  # always False; render_json emits it


def factual(tree: TripleTree, state) -> Explanation:
    """Bounds of the leaf containing the state, omitting unconstrained sides:
    a new list of the tuples that the leaf's ``tree.factual_memo`` entry
    keeps from its first query on, as the tree is read-only, and the query
    action kept with them (a vector as a read-only copy)."""
    lid = leaf_of(tree, state)
    memo = tree.factual_memo.get(lid)
    if memo is None:
        action = predict(tree, state).action  # a vector is a copy
        if isinstance(action, np.ndarray):
            action.flags.writeable = False
        memo = tree.factual_memo[lid] = [_box_bounds(tree.leaves[lid].box),
                                         action, None]
    return Explanation(kind="factual", bounds=list(memo[0]), target_leaf=lid,
                       query_action=memo[1])


def _box_bounds(box: Box) -> list:
    lower, upper = box.lower.tolist(), box.upper.tolist()
    bounds = []
    for f in range(len(lower)):
        if isfinite(lower[f]):
            bounds.append((f, ">=", lower[f]))
        if isfinite(upper[f]):
            bounds.append((f, "<", upper[f]))
    return bounds


def _project_into_leaf(state, box: Box, feature_range) -> np.ndarray:
    """Projection that lands strictly inside the half-open leaf region.

    The upper side of a box is open, so a clamp onto it is nudged inward by
    a sliver proportional to the feature's data range.  A stacked (L, d) box
    gives the (L, d) projections onto each of its boxes.
    """
    s = np.asarray(state, dtype=float)
    widths = feature_range[:, 1] - feature_range[:, 0]
    eps = 1e-9 * np.where(widths > 0, widths, 1.0)
    cand = box.upper - eps
    cand = np.where(cand >= box.upper, np.nextafter(box.upper, -np.inf), cand)
    nudged = np.where(box.lower > cand, box.lower, cand)
    inside = np.where((s >= box.upper) & np.isfinite(box.upper), nudged, s)
    return np.where(s < box.lower, box.lower, inside)


def _change_metrics(state, point, feature_range):
    """Changed-feature mask, changed count and range-normalised squared
    change of a projected point, or of each row of stacked points."""
    state = np.asarray(state, dtype=float)
    changed = point != state
    widths = feature_range[:, 1] - feature_range[:, 0]
    w = np.where(widths > 0, widths, 1.0)
    delta = (point - state) / w
    return changed, np.count_nonzero(changed, axis=-1), np.sum(delta * delta,
                                                             axis=-1)


def _changed_bounds(state, box: Box, changed) -> list:
    """For each changed feature, the violated side of the target region."""
    s, lower, upper = state.tolist(), box.lower.tolist(), box.upper.tolist()
    return [(f, ">=", lower[f]) if s[f] < lower[f] else (f, "<", upper[f])
            for f in changed]


def _counterfactual(kind, tree, state, pred, foil, eligible,
                    pure=lambda point: True) -> Explanation:
    """The minimal change of ``state`` into a leaf of the ``eligible`` table
    rows, or the foil marked unreachable when there is none.

    Candidates rank by fewest changed features, then smallest normalised L2
    change, then lowest leaf id; the first whose projected point ``pure``
    accepts wins.
    """
    if not eligible.any():
        return Explanation(kind=kind, foil=foil, query_action=pred,
                           foil_unreachable=True)
    t = tree.table
    ids = t.ids[eligible]
    points = _project_into_leaf(state, t.box[eligible], tree.feature_range)
    changed, l0, l2 = _change_metrics(state, points, tree.feature_range)
    i = next(i for i in np.lexsort((ids, l2, l0)).tolist() if pure(points[i]))
    lid, changed = int(ids[i]), np.nonzero(changed[i])[0].tolist()
    return Explanation(
        kind=kind, bounds=_changed_bounds(state, tree.leaves[lid].box, changed),
        foil=foil, target_leaf=lid, foil_point=points[i],
        changed_features=changed, query_action=pred)


def counterfactual_action(tree: TripleTree, state, foil) -> Explanation:
    """Minimal state change after which the model predicts the foil action."""
    state = np.asarray(state, dtype=float)
    lid = leaf_of(tree, state)
    eligible = tree.table.predicts(foil)
    if eligible[tree.table.rows(lid)]:
        raise ParameterError("foil equals the predicted action at this state")
    return _counterfactual("counterfactual_action", tree, state,
                           predict(tree, state).action, foil, eligible)


def counterfactual_value(tree: TripleTree, state, condition) -> Explanation:
    """Minimal state change under which the value prediction satisfies a
    threshold condition ``('<=', v)`` or ``('>=', v)``."""
    op, threshold = condition
    if op not in ("<=", ">="):
        raise ParameterError("value condition operator must be '<=' or '>='")
    threshold = float(threshold)
    state = np.asarray(state, dtype=float)
    pred = predict(tree, state).action
    value = tree.table.value
    eligible = value <= threshold if op == "<=" else value >= threshold
    return _counterfactual("counterfactual_value", tree, state, pred,
                           (op, threshold), eligible)


def temporal(tree: TripleTree, s_t, s_next) -> Explanation:
    """Explain an action change between consecutive states.

    Finds the minimal perturbation of ``s_t`` whose bounding box with
    ``s_next`` touches only leaves predicting the successor's action, so
    the reported rule covers the whole transition.  Such a perturbation
    always exists: the projection into the successor's own leaf spans a box
    inside that leaf, and leaf boxes do not overlap.
    """
    s_t = np.asarray(s_t, dtype=float)
    s_next = np.asarray(s_next, dtype=float)
    t = tree.table
    lid_t = leaf_of(tree, s_t)
    a_n = predict(tree, s_next).action
    is_foil = t.predicts(a_n)
    if is_foil[t.rows(lid_t)]:
        raise ParameterError("actions at s_t and s_next do not differ")
    return _counterfactual(
        "temporal", tree, s_t, predict(tree, s_t).action, a_n, is_foil,
        lambda p: np.all(is_foil[t.box.meets(np.minimum(p, s_next),
                                             np.maximum(p, s_next))]))


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

def _fmt_value(v) -> str:  # '%g' % x is format(x, 'g'), at half the cost
    if isinstance(v, str):
        return v
    if isinstance(v, np.ndarray):
        return "(" + ", ".join(["%g" % float(x) for x in v.tolist()]) + ")"
    return "%g" % float(v)


def _fmt_bounds(bounds, feature_names) -> str:
    """The bounds in the order given, as explanations list them (by feature,
    lower side first); a feature's two sides in a row read as an interval."""
    parts, low = [], None  # a lower side waiting for its feature's upper side
    for f, rel, tau in bounds:
        if low and (rel == ">=" or low[0] != f):
            parts.append("%s >= %g" % (feature_names[low[0]], low[1]))
            low = None
        if rel == ">=":
            low = f, tau
        elif not low:
            parts.append("%s < %g" % (feature_names[f], tau))
        else:
            parts.append("%s in [%g, %g]" % (feature_names[f], low[1], tau))
            low = None
    if low:
        parts.append("%s >= %g" % (feature_names[low[0]], low[1]))
    return " and ".join(parts)


def render_text(tree: TripleTree, expl: Explanation) -> str:
    """One sentence.  A factual one still holding its leaf's memo entry (the
    bound tuples and query action, by identity, as 0.0 == -0.0 prints
    otherwise) reads the sentence kept since the leaf's first rendering."""
    if expl.kind == "factual":
        memo = tree.factual_memo.get(expl.target_leaf)
        if (memo is None or expl.query_action is not memo[1]
                or len(expl.bounds) != len(memo[0])
                or not all(map(is_, expl.bounds, memo[0]))):
            return _factual_text(tree, expl)
        if memo[2] is None:
            memo[2] = _factual_text(tree, expl)
        return memo[2]
    conds = _fmt_bounds(expl.bounds, tree.feature_names)
    if expl.kind == "counterfactual_action":
        if expl.foil_unreachable:
            return (f"Action = {_fmt_value(expl.foil)} is never predicted "
                    f"by the model (foil unreachable)")
        return f"Action would = {_fmt_value(expl.foil)} if {conds}"
    if expl.kind == "counterfactual_value":
        op, v = expl.foil
        if expl.foil_unreachable:
            return f"Value {op} {v:g} is never predicted by the model (foil unreachable)"
        if not conds:
            return f"Value would {op} {v:g} with no change in state"
        return f"Value would {op} {v:g} if {conds}"
    if expl.kind == "temporal":
        return (f"Action changed {_fmt_value(expl.query_action)} -> "
                f"{_fmt_value(expl.foil)} because {conds}")
    raise ParameterError(f"unknown explanation kind {expl.kind!r}")


def _factual_text(tree: TripleTree, expl: Explanation) -> str:
    conds = _fmt_bounds(expl.bounds, tree.feature_names)
    if not conds:
        return f"Action = {_fmt_value(expl.query_action)} always"
    return f"Action = {_fmt_value(expl.query_action)} because {conds}"


def render_json(expl: Explanation) -> dict:
    def plain(v):
        if isinstance(v, np.ndarray):
            return [float(x) for x in v]
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        if isinstance(v, tuple):
            return list(v)
        return v

    return {
        "kind": expl.kind,
        "bounds": [[int(f), rel, float(tau)] for f, rel, tau in expl.bounds],
        "foil": plain(expl.foil),
        "target_leaf": expl.target_leaf,
        "foil_point": plain(expl.foil_point),
        "changed_features": [int(f) for f in expl.changed_features],
        "query_action": plain(expl.query_action),
        "foil_unreachable": expl.foil_unreachable,
        "unconstrained_fallback": expl.unconstrained_fallback,
    }
