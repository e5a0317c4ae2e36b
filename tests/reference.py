"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles with plain loops
and direct formulas, deliberately avoiding the library's vectorised paths.
"""

from __future__ import annotations

import csv
import html
import io
import json
import math

import numpy as np

from tripletree.dataset import (ACTION_KINDS, CONTINUOUS_SCALAR,
                                CONTINUOUS_VECTOR, DISCRETE, AugmentedDataset,
                                Episode, TraceDataset)
from tripletree.errors import ParameterError, TraceFormatError
from tripletree.impurity import (ImpurityTriple, NodeStats, SplitCandidate,
                                 validate_theta)
from tripletree.road_env import GridPolicy, _advance, check_tolerance
from tripletree.tree import Box, TripleTree, assign_leaves
from tripletree.viz import (_CATEGORICAL, _VIRIDIS, PlaneSpec, _canvas_for,
                            _f, _render_overlays)


def pairwise_variance(values):
    x = np.asarray(values, dtype=float)
    n = x.size
    if n == 0:
        return 0.0
    total = 0.0
    for a in x:
        for b in x:
            total += (a - b) ** 2
    return total / (2.0 * n * n)


def pairwise_deriv_impurity(D, sigma):
    D = np.asarray(D, dtype=float)
    if D.size == 0:
        return 0.0
    total = 0.0
    for f in range(D.shape[1]):
        if sigma[f] > 0:
            total += pairwise_variance(D[:, f]) / sigma[f]
    return total


# The one-node variance and derivative impurity, moved verbatim out of the
# library's public API; ``_mean_var`` and ``scaled_sum`` are defined below.
def variance(values) -> float:
    """Population variance; equals the half mean squared pairwise difference."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        return 0.0
    return float(_mean_var(x)[1])


def derivative_impurity(derivs, sigma) -> float:
    """Sum over features of per-feature variance scaled by 1/sigma.

    Features whose sigma is zero are skipped (their scale factor would be
    singular).  Terminal samples must already have been excluded.
    """
    D = np.asarray(derivs, dtype=float)
    if D.size == 0:
        return 0.0
    if D.ndim == 1:
        D = D[:, None]
    return scaled_sum(_mean_var(D)[1], sigma)


def gini(action_counts) -> float:
    """Gini impurity 1 - sum(p^2) from a label -> count map."""
    counts = np.asarray(list(action_counts.values()), dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def partition_quality(parent_impurity, left, right) -> float:
    """Impurity reduction of a two-way partition, weighted by populations."""
    (i0, n0), (i1, n1) = left, right
    n = n0 + n1
    return float(parent_impurity - (i0 * n0 + i1 * n1) / n)


def gini_of_labels(labels) -> float:
    labels = list(labels)
    n = len(labels)
    if n == 0:
        return 0.0
    out = 1.0
    for lab in sorted(set(labels)):
        p = labels.count(lab) / n
        out -= p * p
    return out


def quality(parent, left, right, n_left, n_right) -> float:
    n = n_left + n_right
    if n == 0:
        return 0.0
    return parent - (left * n_left + right * n_right) / n


def exhaustive_best_split(data, idx, root, theta, min_leaf=1):
    """Brute-force search over every (feature, midpoint threshold) pair.

    Returns (feature, threshold, q_star) or None, with the same tie rule as
    the library: lowest feature, then lowest threshold, strict improvement.
    """
    idx = np.asarray(idx)
    n = idx.size
    best = None
    roots = np.array([root.action, root.value, root.derivative])
    theta = np.asarray(theta, dtype=float)

    def channel_impurities(sub):
        if data.action_kind == "discrete":
            ia = gini_of_labels(data.action_codes[sub].tolist())
        elif data.action_kind == "continuous-scalar":
            ia = pairwise_variance(data.actions[sub])
        else:
            A = data.actions[sub]
            ia = sum(pairwise_variance(A[:, j]) / data.action_sigma[j]
                     for j in range(A.shape[1]) if data.action_sigma[j] > 0)
        iv = pairwise_variance(data.V[sub])
        mask = data.has_deriv[sub]
        idd = pairwise_deriv_impurity(data.D[sub][mask], data.sigma)
        return ia, iv, idd, int(mask.sum())

    ia_n, iv_n, id_n, m_n = channel_impurities(idx)
    for f in range(data.d):
        xs = data.states[idx, f]
        order = np.argsort(xs, kind="stable")
        sidx = idx[order]
        x = xs[order]
        for i in range(n - 1):
            if not x[i] < x[i + 1]:
                continue
            tau = (x[i] + x[i + 1]) / 2.0
            if tau <= x[i]:
                continue
            left, right = sidx[:i + 1], sidx[i + 1:]
            if left.size < min_leaf or right.size < min_leaf:
                continue
            ia_l, iv_l, id_l, m_l = channel_impurities(left)
            ia_r, iv_r, id_r, m_r = channel_impurities(right)
            qa = quality(ia_n, ia_l, ia_r, left.size, right.size)
            qv = quality(iv_n, iv_l, iv_r, left.size, right.size)
            qd = quality(id_n, id_l, id_r, m_l, m_r) if m_n > 0 else 0.0
            q_star = 0.0
            for c, qc in enumerate((qa, qv, qd)):
                if roots[c] > 0 and theta[c] > 0:
                    q_star += theta[c] * qc / roots[c]
            if q_star > 0 and (best is None or q_star > best[2]):
                best = (f, tau, q_star)
    return best


class ReferenceActionTree:
    """Best-first action-only tree grown with the exhaustive split search.

    Mirrors the growth protocol (priority, tie-breaks, id assignment) but
    shares no code with the library implementation.
    """

    def __init__(self, states, codes, n_codes, max_leaves, min_leaf=1):
        self.states = np.asarray(states, dtype=float)
        self.codes = np.asarray(codes)
        self.n_codes = n_codes
        self.split_log = []
        n = self.states.shape[0]
        root_gini = gini_of_labels(self.codes.tolist())
        members = {0: np.arange(n)}
        unsplittable = set()
        next_id = 1
        while len(members) < max_leaves:
            # Eq-style priority: count * gini / root gini, earliest id on ties
            best_id, best_p = None, -1.0
            for lid in sorted(members):
                if lid in unsplittable:
                    continue
                g = gini_of_labels(self.codes[members[lid]].tolist())
                p = members[lid].size * (g / root_gini if root_gini > 0 else 0.0)
                if p > best_p:
                    best_id, best_p = lid, p
            if best_id is None or best_p <= 0:
                break
            cand = self._best_gini_split(members[best_id], root_gini, min_leaf)
            if cand is None:
                unsplittable.add(best_id)
                continue
            f, tau = cand
            sub = members.pop(best_id)
            go_left = self.states[sub, f] < tau
            members[next_id] = np.sort(sub[go_left])
            members[next_id + 1] = np.sort(sub[~go_left])
            self.split_log.append((best_id, f, tau))
            next_id += 2

    def _best_gini_split(self, idx, root_gini, min_leaf):
        n = idx.size
        parent = gini_of_labels(self.codes[idx].tolist())
        best = None

        def gini_counts(labs):
            # recounted from scratch for every candidate, no shared state
            counts = np.bincount(labs, minlength=self.n_codes)
            p = counts / labs.size
            return 1.0 - float(np.sum(p * p))

        for f in range(self.states.shape[1]):
            xs = self.states[idx, f]
            order = np.argsort(xs, kind="stable")
            x = xs[order]
            labs = self.codes[idx][order]
            for i in range(n - 1):
                if not x[i] < x[i + 1]:
                    continue
                tau = (x[i] + x[i + 1]) / 2.0
                if tau <= x[i]:
                    continue
                nl, nr = i + 1, n - i - 1
                if nl < min_leaf or nr < min_leaf:
                    continue
                gl = gini_counts(labs[:i + 1])
                gr = gini_counts(labs[i + 1:])
                q = parent - (gl * nl + gr * nr) / n
                q_star = q / root_gini if root_gini > 0 else 0.0
                if q_star > 0 and (best is None or q_star > best[2]):
                    best = (f, tau, q_star)
        return None if best is None else (best[0], best[1])


def enumerate_simple_paths(edges, start, end):
    """All simple paths start -> end in an edge dict
    {src: [(dest, prob), ...]}; returns list of (prob, path)."""
    out = []

    def walk(node, seen, prob, path):
        if node == end:
            out.append((prob, list(path)))
            return
        for dest, p in edges.get(node, []):
            if dest in seen:
                continue
            seen.add(dest)
            path.append(dest)
            walk(dest, seen, prob * p, path)
            path.pop()
            seen.remove(dest)

    if start == end:
        return [(1.0, [start])]
    walk(start, {start}, 1.0, [start])
    return out


# ---------------------------------------------------------------------------
# Query-layer loops: one leaf, one feature or one segment at a time.  These
# are the per-item forms of the array passes in ``explain`` and
# ``trajectory``, kept as oracles that must agree with them bit for bit;
# and the numpy-scalar forms of the single-state lookup, factual bounds and
# rule text, which the float forms must match.
# ---------------------------------------------------------------------------

def leaf_of(tree: TripleTree, state) -> int:
    """Leaf id reached by propagating a state from the root.

    States exactly on a threshold go right (the >= side).
    """
    s = np.asarray(state, dtype=float)
    i = 0
    node = tree.nodes[i]
    while node.leaf_id is None:
        i = node.left if s[node.feature] < node.threshold else node.right
        node = tree.nodes[i]
    return node.leaf_id


def box_contains(box: Box, state) -> bool:
    s = np.asarray(state, dtype=float)
    return bool(np.all(s >= box.lower) and np.all(s < box.upper))


def box_bounds(box: Box) -> list:
    bounds = []
    for f in range(box.lower.size):
        if np.isfinite(box.lower[f]):
            bounds.append((f, ">=", float(box.lower[f])))
        if np.isfinite(box.upper[f]):
            bounds.append((f, "<", float(box.upper[f])))
    return bounds


def fmt_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, np.ndarray):
        return "(" + ", ".join(f"{float(x):g}" for x in v) + ")"
    return f"{float(v):g}"


def fmt_bounds(bounds, feature_names) -> str:
    per_feature: dict = {}
    for f, rel, tau in bounds:
        per_feature.setdefault(f, {})[rel] = tau
    parts = []
    for f in sorted(per_feature):
        name = feature_names[f]
        sides = per_feature[f]
        if ">=" in sides and "<" in sides:
            parts.append(f"{name} in [{sides['>=']:g}, {sides['<']:g}]")
        elif ">=" in sides:
            parts.append(f"{name} >= {sides['>=']:g}")
        else:
            parts.append(f"{name} < {sides['<']:g}")
    return " and ".join(parts)


def same_action(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a, dtype=float),
                              np.asarray(b, dtype=float))
    return a == b


def foil_leaves(tree, foil):
    """Ids of the leaves predicting ``foil``, one leaf at a time."""
    return [lid for lid, leaf in tree.leaves.items()
            if same_action(leaf.action_pred, foil)]


def project_into_leaf(state, box, feature_range):
    """Clamp into the half-open box, nudging an upper-side clamp inward."""
    s = np.asarray(state, dtype=float).copy()
    widths = feature_range[:, 1] - feature_range[:, 0]
    for f in range(s.size):
        if s[f] < box.lower[f]:
            s[f] = box.lower[f]
        elif s[f] >= box.upper[f] and np.isfinite(box.upper[f]):
            eps = 1e-9 * (widths[f] if widths[f] > 0 else 1.0)
            cand = box.upper[f] - eps
            if cand >= box.upper[f]:
                cand = np.nextafter(box.upper[f], -np.inf)
            s[f] = max(cand, box.lower[f])
    return s


def change_metrics(state, point, feature_range):
    state = np.asarray(state, dtype=float)
    changed = np.nonzero(point != state)[0]
    widths = feature_range[:, 1] - feature_range[:, 0]
    w = np.where(widths > 0, widths, 1.0)
    delta = (point - state) / w
    return changed, int(changed.size), float(np.sum(delta * delta))


def select_minimal(tree, state, eligible_ids):
    """(leaf id, point, changed features) minimising (changed count,
    normalised L2, leaf id), one eligible leaf at a time."""
    state = np.asarray(state, dtype=float)
    best = None
    for lid in sorted(eligible_ids):
        point = project_into_leaf(state, tree.leaves[lid].box,
                                  tree.feature_range)
        changed, l0, l2 = change_metrics(state, point, tree.feature_range)
        key = (l0, l2, lid)
        if best is None or key < best[0]:
            best = (key, lid, point, changed)
    return None if best is None else best[1:]


def temporal_choice(tree, s_t, s_next, foil):
    """The minimal candidate whose bounding box with ``s_next`` meets only
    leaves predicting ``foil``, tested leaf by leaf; None when none is."""
    s_t = np.asarray(s_t, dtype=float)
    s_next = np.asarray(s_next, dtype=float)
    best = None
    for lid in sorted(lid for lid, leaf in tree.leaves.items()
                      if same_action(leaf.action_pred, foil)):
        point = project_into_leaf(s_t, tree.leaves[lid].box,
                                  tree.feature_range)
        lo = np.minimum(point, s_next)
        hi = np.maximum(point, s_next)
        pure = all(same_action(leaf.action_pred, foil)
                   for leaf in tree.leaves.values()
                   if np.all(lo < leaf.box.upper)
                   and np.all(hi >= leaf.box.lower))
        if not pure:
            continue
        changed, l0, l2 = change_metrics(s_t, point, tree.feature_range)
        key = (l0, l2, lid)
        if best is None or key < best[0]:
            best = (key, lid, point, changed)
    return None if best is None else best[1:]


def angle_objective(nodes, derivs, w):
    """Summed squared angles between each segment, rescaled by ``w``, and
    its leaf's (rescaled) derivative; zero-length segments and zero
    derivatives add nothing."""
    total = 0.0
    for j in range(1, len(nodes)):
        u = (nodes[j] - nodes[j - 1]) * w
        v = derivs[j - 1]
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            continue
        c = np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)
        total += float(np.arccos(c)) ** 2
    return total


def angle_gradient(nodes, derivs, w):
    """Gradient of ``angle_objective`` in the rescaled coordinates."""
    g = np.zeros_like(nodes)
    for j in range(1, len(nodes)):
        u = (nodes[j] - nodes[j - 1]) * w
        v = derivs[j - 1]
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            continue
        c = np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)
        phi = float(np.arccos(c))
        s = max(np.sqrt(max(1.0 - c * c, 0.0)), 1e-12)
        du = -(2.0 * phi / s) * (v / (nu * nv) - c * u / (nu * nu))
        g[j] += du
        g[j - 1] -= du
    return g


def reject_crossings(trial, nodes, feat, visible):
    """Node j of ``trial`` put back to ``nodes[j]`` when it lies on the wrong
    side of its face (feature ``feat[j - 1]``) as seen from node j - 1,
    deciding one node after the other."""
    trial = np.array(trial, dtype=float)
    for j in range(1, len(trial) - 1):
        f, sign = feat[j - 1], visible[j - 1]
        if sign != 0 and (trial[j][f] - trial[j - 1][f]) * sign < 0:
            trial[j] = nodes[j]
    return trial


def align_descent(nodes, faces, derivs, w, sigma_back, max_iters, step_size,
                  tol):
    """Projected gradient descent on the interior nodes, face by face.

    ``faces`` are (feature, value, lower, upper) per interior node.  Returns
    the final nodes, objective and accepted objective history.
    """
    nodes = np.array(nodes, dtype=float)
    visible = [float(np.sign(nodes[j][f] - nodes[j - 1][f]))
               for j, (f, _, _, _) in enumerate(faces, start=1)]

    obj = angle_objective(nodes, derivs, w)
    history = [obj]
    step = float(step_size)
    for _ in range(max_iters):
        grad = angle_gradient(nodes, derivs, w)
        accepted = False
        trial_step = step
        for _ in range(40):
            trial = nodes.copy()
            for j, (f, value, lo, hi) in enumerate(faces, start=1):
                cand = nodes[j] - trial_step * grad[j] * sigma_back
                cand = np.clip(cand, lo, hi)
                cand[f] = value
                sign = visible[j - 1]
                if sign != 0 and (cand[f] - trial[j - 1][f]) * sign < 0:
                    cand = nodes[j]
                trial[j] = cand
            new_obj = angle_objective(trial, derivs, w)
            if new_obj <= obj:
                accepted = True
                break
            trial_step /= 2.0
        if not accepted:
            break
        delta = obj - new_obj
        nodes, obj = trial, new_obj
        history.append(obj)
        step = min(trial_step * 1.2, float(step_size))
        if delta < tol:
            break
    return nodes, obj, history


# ---------------------------------------------------------------------------
# Trace validation and augmentation: the episode-by-episode checks and the
# per-episode augment that ``dataset`` used before a trace held one set of
# columns, kept verbatim (validation takes the episodes as arguments) as the
# oracles for its messages and its arrays, bit for bit.
# ---------------------------------------------------------------------------

def validate_episodes(episodes, action_kind, feature_names) -> None:
    if action_kind not in ACTION_KINDS:
        raise TraceFormatError(f"unknown action kind {action_kind!r}")
    if not episodes:
        raise TraceFormatError("dataset has no episodes")
    d = episodes[0].states.shape[1] if episodes[0].states.ndim == 2 else -1
    if len(feature_names) != d:
        raise TraceFormatError(
            f"{len(feature_names)} feature names for {d} state features")
    first = episodes[0].actions
    m = (first.shape[1] if action_kind == CONTINUOUS_VECTOR
         and first.ndim == 2 else -1)  # vector actions' width
    for i, ep in enumerate(episodes):
        if len(ep) == 0:
            raise TraceFormatError(f"episode {i} is empty")
        if ep.states.ndim != 2 or ep.states.shape[1] != d:
            raise TraceFormatError(
                f"episode {i}: state vectors do not all have {d} entries")
        if not np.all(np.isfinite(ep.states)):
            t = int(np.argwhere(~np.isfinite(ep.states))[0][0])
            raise TraceFormatError(f"episode {i} step {t}: non-finite state value")
        if not np.all(np.isfinite(ep.rewards)):
            raise TraceFormatError(f"episode {i}: non-finite reward")
        if action_kind == CONTINUOUS_VECTOR:
            if ep.actions.ndim != 2:
                raise TraceFormatError(f"episode {i}: vector actions must be 2-D")
            if ep.actions.shape[1] != m:
                raise TraceFormatError(
                    f"episode {i}: action vectors do not all have {m} entries")
            if not np.all(np.isfinite(ep.actions)):
                raise TraceFormatError(f"episode {i}: non-finite action")
        elif action_kind == CONTINUOUS_SCALAR:
            if not np.all(np.isfinite(ep.actions.astype(float))):
                raise TraceFormatError(f"episode {i}: non-finite action")


def augment(data: TraceDataset, gamma: float) -> AugmentedDataset:
    if not (isinstance(gamma, (int, float)) and 0.0 <= gamma <= 1.0):
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma!r}")
    gamma = float(gamma)

    states = np.concatenate([ep.states for ep in data.episodes], axis=0)
    rewards = np.concatenate([ep.rewards for ep in data.episodes], axis=0)
    if data.action_kind == CONTINUOUS_VECTOR:
        actions = np.concatenate([ep.actions for ep in data.episodes], axis=0)
    else:
        actions = np.concatenate(
            [np.asarray(ep.actions) for ep in data.episodes], axis=0)

    n, d = states.shape
    V = np.zeros(n)
    D = np.zeros((n, d))
    has_deriv = np.zeros(n, dtype=bool)
    slices = []
    start = 0
    for ep in data.episodes:
        stop = start + len(ep)
        slices.append((start, stop, ep.terminal))
        # backwards recurrence V_t = R_t + gamma * V_{t+1}
        acc = 0.0
        for t in range(stop - 1, start - 1, -1):
            acc = rewards[t] + gamma * acc
            V[t] = acc
        if stop - start > 1:
            D[start:stop - 1] = states[start + 1:stop] - states[start:stop - 1]
            has_deriv[start:stop - 1] = True
        start = stop

    defined = D[has_deriv]
    if defined.shape[0] > 0:
        sigma = defined.std(axis=0)  # population (ddof=0)
    else:
        sigma = np.zeros(d)

    feature_range = np.stack([states.min(axis=0), states.max(axis=0)], axis=1)
    medians = np.median(states, axis=0)

    action_labels = action_codes = action_sigma = None
    if data.action_kind == DISCRETE:
        action_labels, action_codes = np.unique(actions, return_inverse=True)
        action_codes = action_codes.astype(np.int64)
    elif data.action_kind == CONTINUOUS_VECTOR:
        action_sigma = actions.std(axis=0)
    else:
        actions = actions.astype(float)

    return AugmentedDataset(
        base=data, gamma=gamma, states=states, actions=actions,
        rewards=rewards, V=V, D=D, has_deriv=has_deriv, sigma=sigma,
        feature_range=feature_range, medians=medians, episode_slices=slices,
        action_labels=action_labels, action_codes=action_codes,
        action_sigma=action_sigma, feature_names=list(data.feature_names))


# ---------------------------------------------------------------------------
# Trace loaders: the per-episode CSV and JSON parsers that ``dataset`` used
# before its one flat column assembler, kept verbatim (names made public) as
# the oracle the assembler must agree with on every trace, errors included.
# ---------------------------------------------------------------------------

def load_csv(text: str, action_kind: str | None) -> TraceDataset:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise TraceFormatError("empty CSV trace")
    header = rows[0]
    if header[:3] != ["episode", "t", "terminal"] or not header or header[-1] != "r":
        raise TraceFormatError(
            "CSV header must be episode,t,terminal,<features>,<a or a1..am>,r")
    middle = header[3:-1]
    if "a" in middle:
        a_start = middle.index("a")
    else:
        a_start = next((i for i, name in enumerate(middle) if name == "a1"), len(middle))
    action_cols = middle[a_start:]  # a lone a ends the header's middle
    if not action_cols or action_cols not in (
            ["a"], [f"a{k}" for k in range(1, len(action_cols) + 1)]):
        raise TraceFormatError("action columns must be named a, or a1..am")
    feature_names = middle[:a_start]
    if not feature_names:
        raise TraceFormatError("CSV trace has no state feature columns")
    d = len(feature_names)
    m = len(action_cols)
    width = 3 + d + m + 1

    episodes: list[Episode] = []
    cur_ep = None
    cur = None  # [states, actions, rewards, terminal]
    prev_t = None
    raw_actions: list = []
    for idx, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise TraceFormatError(
                f"row {idx}: expected {width} fields, got {len(row)}")
        try:
            ep_id = int(row[0])
            t = int(row[1])
            term = row[2].strip()
            s = [float(v) for v in row[3:3 + d]]
            r = float(row[-1])
        except ValueError as exc:
            raise TraceFormatError(f"row {idx}: {exc}") from None
        if term not in ("0", "1"):
            raise TraceFormatError(f"row {idx}: terminal flag must be 0 or 1")
        a_raw = row[3 + d:3 + d + m]
        if cur_ep is None or ep_id != cur_ep:
            if cur_ep is not None and ep_id < cur_ep:
                raise TraceFormatError(f"row {idx}: episodes out of order")
            if cur is not None:
                episodes.append(finish_episode(cur))
            cur_ep, cur, prev_t = ep_id, [[], [], [], False], None
            if t != 0:
                raise TraceFormatError(f"row {idx}: episode {ep_id} must start at t=0")
        elif prev_t is None or t != prev_t + 1:
            raise TraceFormatError(f"row {idx}: non-consecutive t within episode {ep_id}")
        prev_t = t
        cur[0].append(s)
        cur[1].append(a_raw[0] if m == 1 else a_raw)
        cur[2].append(r)
        cur[3] = term == "1"
        raw_actions.append((idx, a_raw))
    if cur is not None:
        episodes.append(finish_episode(cur))
    if not episodes:
        raise TraceFormatError("CSV trace has no data rows")

    kind, episodes = resolve_actions(episodes, m, action_kind, raw_actions)
    return TraceDataset.from_episodes(episodes, kind, feature_names)


def finish_episode(cur) -> Episode:
    states, actions, rewards, terminal = cur
    return Episode(states=np.asarray(states, dtype=float),
                   actions=np.asarray(actions, dtype=object),
                   rewards=np.asarray(rewards, dtype=float),
                   terminal=terminal)


def resolve_actions(episodes, m, action_kind, raw_actions):
    """Decide the action kind and coerce per-episode action arrays."""
    if m > 1:
        if action_kind not in (None, CONTINUOUS_VECTOR):
            raise TraceFormatError(
                f"multiple action columns are incompatible with {action_kind!r}")
        out = []
        for ep in episodes:
            try:
                acts = np.asarray([[float(v) for v in row] for row in ep.actions])
            except (TypeError, ValueError):
                bad = first_bad_action(raw_actions)
                raise TraceFormatError(
                    f"row {bad}: vector action entries must be numeric") from None
            out.append(Episode(ep.states, acts, ep.rewards, ep.terminal))
        return CONTINUOUS_VECTOR, out

    numeric = []
    for ep in episodes:
        flags = []
        for a in ep.actions:
            try:
                float(a)
                flags.append(True)
            except (TypeError, ValueError):
                flags.append(False)
        numeric.append(flags)
    all_numeric = all(all(f) for f in numeric)
    any_numeric = any(any(f) for f in numeric)
    if not all_numeric and any_numeric:
        bad = first_mixed_row(raw_actions)
        raise TraceFormatError(
            f"row {bad}: non-numeric action label mixed with numeric actions")

    kind = action_kind or DISCRETE
    if kind in (CONTINUOUS_SCALAR, CONTINUOUS_VECTOR) and not all_numeric:
        bad = first_mixed_row(raw_actions)
        raise TraceFormatError(f"row {bad}: continuous actions must be numeric")
    out = []
    for ep in episodes:
        if all_numeric:
            acts = np.asarray([float(a) for a in ep.actions])
            if kind == CONTINUOUS_VECTOR:
                acts = acts.reshape(-1, 1)
        else:
            acts = np.asarray([str(a) for a in ep.actions], dtype=object)
        out.append(Episode(ep.states, acts, ep.rewards, ep.terminal))
    return kind, out


def first_bad_action(raw_actions):
    for idx, vals in raw_actions:
        for v in vals:
            try:
                float(v)
            except (TypeError, ValueError):
                return idx
    return "?"


def first_mixed_row(raw_actions):
    return first_bad_action(raw_actions)


def load_json(text: str, action_kind: str | None) -> TraceDataset:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON trace: {exc}") from None
    if not isinstance(payload, list) or not payload:
        raise TraceFormatError("JSON trace must be a non-empty array of episodes")
    episodes = []
    raw_actions = []
    d = None
    vector = None
    row = 0
    for i, ep in enumerate(payload):
        if not isinstance(ep, dict) or "steps" not in ep:
            raise TraceFormatError(f"episode {i}: expected object with 'steps'")
        steps = ep["steps"]
        if not steps:
            raise TraceFormatError(f"episode {i} is empty")
        states, actions, rewards = [], [], []
        for j, step in enumerate(steps):
            row += 1
            try:
                s = [float(v) for v in step["s"]]
                r = float(step["r"])
                a = step["a"]
            except (KeyError, TypeError, ValueError):
                raise TraceFormatError(
                    f"episode {i} step {j}: malformed step record") from None
            if d is None:
                d = len(s)
            elif len(s) != d:
                raise TraceFormatError(
                    f"episode {i} step {j}: state has {len(s)} features, expected {d}")
            is_vec = isinstance(a, (list, tuple))
            if vector is None:
                vector = is_vec
            elif vector != is_vec:
                raise TraceFormatError(
                    f"episode {i} step {j}: mixed scalar and vector actions")
            states.append(s)
            actions.append(list(a) if is_vec else a)
            rewards.append(r)
            raw_actions.append((row, list(a) if is_vec else [a]))
        episodes.append(Episode(np.asarray(states, dtype=float),
                                np.asarray(actions, dtype=object),
                                np.asarray(rewards, dtype=float),
                                bool(ep.get("terminal", False))))
    m = len(raw_actions[0][1]) if vector else 1
    if vector:
        for idx, vals in raw_actions:
            if len(vals) != m:
                raise TraceFormatError(
                    f"record {idx}: action vector length {len(vals)}, expected {m}")
    kind, episodes = resolve_actions(episodes, m, action_kind, raw_actions)
    names = [f"f{k}" for k in range(d)]
    return TraceDataset.from_episodes(episodes, kind, names)


# ---------------------------------------------------------------------------
# Trace writer: the row-at-a-time CSV writer that ``dataset`` used before it
# formatted a column at a time, kept as the byte-for-byte oracle.  One change:
# each row is written with "\r\n" as the terminator, so that csv.writer
# quotes a field holding a lone "\r" as it quotes one holding "\n", and the
# terminator is then replaced by "\n".
# ---------------------------------------------------------------------------

class _NewlineRows:
    """A file for csv.writer that ends each "\\r\\n"-terminated row with
    "\\n" instead."""

    def __init__(self):
        self.rows = []

    def write(self, row: str):
        self.rows.append(row[:-2] + "\n")

    def getvalue(self) -> str:
        return "".join(self.rows)


def trace_to_csv_bytes(data: TraceDataset) -> bytes:
    buf = _NewlineRows()
    writer = csv.writer(buf, lineterminator="\r\n")
    if data.action_kind == CONTINUOUS_VECTOR:
        m = data.episodes[0].actions.shape[1]
        a_cols = [f"a{k}" for k in range(1, m + 1)]
    else:
        a_cols = ["a"]
    writer.writerow(["episode", "t", "terminal"] + list(data.feature_names)
                    + a_cols + ["r"])
    for ei, ep in enumerate(data.episodes):
        last = len(ep) - 1
        for t in range(len(ep)):
            term = "1" if (t == last and ep.terminal) else "0"
            s = [repr(float(v)) for v in ep.states[t]]
            if data.action_kind == CONTINUOUS_VECTOR:
                a = [repr(float(v)) for v in ep.actions[t]]
            else:
                av = ep.actions[t]
                a = [str(av) if isinstance(av, str) else repr(float(av))]
            writer.writerow([ei, t, term] + s + a + [repr(float(ep.rewards[t]))])
    return buf.getvalue().encode("utf-8")


def trace_to_json_bytes(data: TraceDataset) -> bytes:
    """The step-at-a-time JSON writer that ``dataset`` used before it read
    each episode's columns in one comprehension."""
    eps = []
    for ep in data.episodes:
        steps = []
        for t in range(len(ep)):
            if data.action_kind == CONTINUOUS_VECTOR:
                a = [float(v) for v in ep.actions[t]]
            else:
                av = ep.actions[t]
                a = av if isinstance(av, str) else float(av)
            steps.append({"s": [float(v) for v in ep.states[t]],
                          "a": a, "r": float(ep.rewards[t])})
        eps.append({"terminal": bool(ep.terminal), "steps": steps})
    return (json.dumps(eps, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# Value iteration: the sweep ``road_env.dp_solve`` made before its stencil
# tables were corner-major, one (action, pos, speed, corner) table summed over
# its last axis with ``np.sum``, kept as the bitwise oracle of the solver
# ---------------------------------------------------------------------------

@np.errstate(over="ignore")
def dp_solve(config, tolerance: float = 1e-6,
             max_iters: int = 200000) -> GridPolicy:
    check_tolerance(tolerance)
    n_pos, n_speed = config.grid
    pos = np.linspace(config.pos_range[0], config.pos_range[1], n_pos)
    spd = np.linspace(config.speed_range[0], config.speed_range[1], n_speed)
    n_actions = len(config.actions)
    P, S = np.meshgrid(pos, spd, indexing="ij")
    rewards = np.empty((n_actions, n_pos, n_speed))
    terminal = np.zeros((n_actions, n_pos, n_speed), dtype=bool)
    corners = np.zeros((n_actions, n_pos, n_speed, 4), dtype=np.int64)
    weights = np.zeros((n_actions, n_pos, n_speed, 4))
    for a, acc in enumerate(config.actions):
        pos2, speed2, rewards[a], terminal[a] = _advance(config, P, S, acc)
        ip = np.clip(np.searchsorted(pos, pos2) - 1, 0, n_pos - 2)
        js = np.clip(np.searchsorted(spd, speed2) - 1, 0, n_speed - 2)
        fx = np.clip((pos2 - pos[ip]) / (pos[ip + 1] - pos[ip]), 0.0, 1.0)
        fy = np.clip((speed2 - spd[js]) / (spd[js + 1] - spd[js]), 0.0, 1.0)
        corners[a, ..., 0] = ip * n_speed + js
        corners[a, ..., 1] = ip * n_speed + js + 1
        corners[a, ..., 2] = (ip + 1) * n_speed + js
        corners[a, ..., 3] = (ip + 1) * n_speed + js + 1
        weights[a, ..., 0] = (1 - fx) * (1 - fy)
        weights[a, ..., 1] = (1 - fx) * fy
        weights[a, ..., 2] = fx * (1 - fy)
        weights[a, ..., 3] = fx * fy
        weights[a][terminal[a]] = 0.0

    V = np.zeros((n_pos, n_speed))
    residual = np.inf
    history = []
    for it in range(1, max_iters + 1):
        succ = np.sum(weights * V.ravel()[corners], axis=-1)
        Q = rewards + config.gamma * succ
        V_new = Q.max(axis=0)
        residual = float(np.max(np.abs(V_new - V)))
        history.append(residual)
        V = V_new
        if residual < tolerance:
            break
        if not math.isfinite(residual):
            raise ParameterError(f"value iteration diverged: residual "
                                 f"{residual:g} at sweep {it}")
    else:
        raise ParameterError(
            f"value iteration did not converge: residual {residual:g} after "
            f"{max_iters} sweeps")

    succ = np.sum(weights * V.ravel()[corners], axis=-1)
    Q = rewards + config.gamma * succ
    action_idx = np.argmax(Q, axis=0)
    return GridPolicy(pos_grid=pos, speed_grid=spd, value=V,
                      action_idx=action_idx, actions=tuple(config.actions),
                      iterations=it, residual=residual,
                      residual_history=history)


# ---------------------------------------------------------------------------
# Road traces: the one-step-at-a-time generator that ``road_env`` used before
# it ran episodes in lockstep, with the scalar dynamics and grid lookup it
# called, kept verbatim as the byte-for-byte oracle
# ---------------------------------------------------------------------------

def road_step(config, state, action):
    pos, speed = state
    s_lo, s_hi = config.speed_range
    p_lo, p_hi = config.pos_range
    speed2 = min(max(speed + action, s_lo), s_hi)
    pos2 = pos + speed2
    if pos2 < p_lo:
        return (pos2, speed2), config.r_left, True
    if pos2 > p_hi:
        return (pos2, speed2), config.r_right, True
    return (pos2, speed2), config.r_speed * abs(speed2), False


def road_action_at(policy, state) -> float:
    pos, speed = state
    i = int(np.clip(np.rint((pos - policy.pos_grid[0])
                            / (policy.pos_grid[1] - policy.pos_grid[0])),
                    0, policy.pos_grid.size - 1))
    j = int(np.clip(np.rint((speed - policy.speed_grid[0])
                            / (policy.speed_grid[1] - policy.speed_grid[0])),
                    0, policy.speed_grid.size - 1))
    return policy.actions[int(policy.action_idx[i, j])]


def generate_road_dataset(config, policy, n_samples: int, episode_len: int,
                          seed: int) -> TraceDataset:
    if n_samples < 1 or episode_len < 1:
        raise ParameterError("n_samples and episode_len must be >= 1")
    rng = np.random.default_rng(seed)
    episodes = []
    total = 0
    while total < n_samples:
        pos = rng.uniform(*config.pos_range)
        speed = rng.uniform(*config.speed_range)
        states, actions, rewards = [], [], []
        terminal = False
        for _ in range(episode_len):
            acc = road_action_at(policy, (pos, speed))
            (pos2, speed2), r, term = road_step(config, (pos, speed), acc)
            states.append((pos, speed))
            actions.append(acc)
            rewards.append(r)
            if term:
                terminal = True
                break
            pos, speed = pos2, speed2
        room = n_samples - total
        if len(states) > room:
            states, actions, rewards = states[:room], actions[:room], rewards[:room]
            terminal = False
        episodes.append(Episode(states=np.asarray(states, dtype=float),
                                actions=np.asarray(actions, dtype=float),
                                rewards=np.asarray(rewards, dtype=float),
                                terminal=terminal))
        total += len(states)
    return TraceDataset.from_episodes(episodes, DISCRETE, ["pos", "speed"])


# ---------------------------------------------------------------------------
# Views: the per-leaf and per-cell view loops the table-reading views replace
# (bodies kept as they were, so ``==`` on their JSON and SVG text checks the
# new code byte for byte)
# ---------------------------------------------------------------------------

def _edges(tree, f, n):
    lo, hi = tree.feature_range[f]
    return np.linspace(lo, hi, n + 1)


def resolve_fixed(tree: TripleTree, plane: PlaneSpec) -> dict:
    """Fixed values for all off-plane features; dataset medians by default."""
    fixed = {}
    for f in range(tree.d):
        if f in (plane.f_x, plane.f_y):
            continue
        fixed[f] = float(plane.fixed.get(f, tree.medians[f]))
    return fixed


def _numeric_values(vals):
    return all(not isinstance(v, str) for v in vals)


def leaf_attribute(tree: TripleTree, leaf, attribute: str):
    """Scalar colouring attribute of a leaf; supports 'action.cmp' and
    'derivative.cmp' component access for vector quantities."""
    if attribute == "action":
        a = leaf.action_pred
        if isinstance(a, np.ndarray):
            raise ParameterError(
                "vector actions need a component, e.g. 'action.0'")
        return a
    if attribute == "value":
        return leaf.value_pred
    if attribute == "action_impurity":
        return leaf.impurity.action
    if attribute == "value_impurity":
        return leaf.impurity.value
    if attribute == "derivative_impurity":
        return leaf.impurity.derivative
    if attribute == "density":
        return leaf.density
    if attribute.startswith("action."):
        return float(np.asarray(leaf.action_pred).ravel()[int(attribute[7:])])
    if attribute.startswith("derivative."):
        return float(leaf.deriv_pred[int(attribute[11:])])
    if attribute == "derivative":
        raise ParameterError("derivative renders as a quiver; use quiver()")
    raise ParameterError(f"unknown colouring attribute {attribute!r}")


def direct_map(tree: TripleTree, attribute: str) -> dict:
    """One range-clipped rectangle per leaf, coloured by the attribute.

    Only valid when the state space has at most two features; higher
    dimensional trees must use projection or slicing.
    """
    if tree.d > 2:
        raise ParameterError(
            "direct maps need d <= 2; use pdp_projection or ice_slice")
    rects = []
    for lid in sorted(tree.leaves):
        leaf = tree.leaves[lid]
        box = leaf.box.clipped(tree.feature_range)
        val = leaf_attribute(tree, leaf, attribute)
        if tree.d == 2:
            rect = {"x0": float(box.lower[0]), "x1": float(box.upper[0]),
                    "y0": float(box.lower[1]), "y1": float(box.upper[1])}
        else:
            rect = {"x0": float(box.lower[0]), "x1": float(box.upper[0]),
                    "y0": 0.0, "y1": 1.0}
        rect["value"] = val
        rect["leaf"] = lid
        rects.append(rect)
    plane = [0, 1] if tree.d == 2 else [0]
    return {"plane": plane, "rects": rects,
            "x_range": [float(v) for v in tree.feature_range[0]],
            "y_range": ([float(v) for v in tree.feature_range[1]]
                        if tree.d == 2 else [0.0, 1.0])}


def pdp_projection(tree: TripleTree, plane: PlaneSpec, attribute: str) -> dict:
    """Marginal view of a scalar attribute on a two-feature plane.

    Each grid cell averages the attribute over every leaf whose projection
    covers the cell centre, weighted by leaf sample count.
    """
    plane.validate(tree)
    x_edges = _edges(tree, plane.f_x, plane.n_x)
    y_edges = _edges(tree, plane.f_y, plane.n_y)
    cx = (x_edges[:-1] + x_edges[1:]) / 2.0
    cy = (y_edges[:-1] + y_edges[1:]) / 2.0
    acc = np.zeros((plane.n_y, plane.n_x))
    wsum = np.zeros((plane.n_y, plane.n_x))
    for lid in sorted(tree.leaves):
        leaf = tree.leaves[lid]
        val = leaf_attribute(tree, leaf, attribute)
        if isinstance(val, str):
            raise ParameterError("projections need numeric attributes")
        mx = (cx >= leaf.box.lower[plane.f_x]) & (cx < leaf.box.upper[plane.f_x])
        my = (cy >= leaf.box.lower[plane.f_y]) & (cy < leaf.box.upper[plane.f_y])
        if not (mx.any() and my.any()):
            continue
        w = float(leaf.n)
        cover = np.outer(my, mx)
        acc += cover * (w * float(val))
        wsum += cover * w
    values = np.divide(acc, wsum, out=np.zeros_like(acc), where=wsum > 0)
    return {"plane": [plane.f_x, plane.f_y],
            "x_edges": [float(v) for v in x_edges],
            "y_edges": [float(v) for v in y_edges],
            "values": [[float(v) for v in row] for row in values]}


def _cut(tree: TripleTree, fixed: dict) -> list:
    """Sorted ids of the leaves whose boxes hold every fixed off-plane value."""
    t, f = tree.table, list(fixed)
    v = np.array(list(fixed.values()), dtype=float)
    return t.ids[Box(t.box.lower[:, f], t.box.upper[:, f]).meets(v, v)].tolist()


def ice_slice(tree: TripleTree, plane: PlaneSpec, attribute: str) -> dict:
    """Rectangles of every leaf cut by an axis-aligned planar cross-section.

    Off-plane features are pinned to the plane's fixed values (medians when
    unspecified), giving an individual conditional expectation view.
    """
    plane.validate(tree)
    fixed = resolve_fixed(tree, plane)
    rects = []
    for lid in _cut(tree, fixed):
        leaf = tree.leaves[lid]
        box = leaf.box.clipped(tree.feature_range)
        rects.append({
            "x0": float(box.lower[plane.f_x]), "x1": float(box.upper[plane.f_x]),
            "y0": float(box.lower[plane.f_y]), "y1": float(box.upper[plane.f_y]),
            "value": leaf_attribute(tree, leaf, attribute), "leaf": lid})
    return {"plane": [plane.f_x, plane.f_y], "rects": rects,
            "fixed": {str(f): v for f, v in sorted(fixed.items())},
            "x_range": [float(v) for v in tree.feature_range[plane.f_x]],
            "y_range": [float(v) for v in tree.feature_range[plane.f_y]]}


def quiver(tree: TripleTree, plane: PlaneSpec | None = None,
           mode: str = "direct") -> dict:
    """Arrow field of predicted state change, one arrow per leaf centre.

    Leaves without their own derivative estimate are omitted.  ``direct``
    mode shows every leaf (d <= 2); ``slice`` mode only leaves cut by the
    plane's fixed values.
    """
    if mode not in ("direct", "slice"):
        raise ParameterError("quiver mode must be 'direct' or 'slice'")
    if mode == "direct":
        if tree.d > 2:
            raise ParameterError("direct quiver needs d <= 2; use slice mode")
        fx, fy = (0, 1) if tree.d == 2 else (0, 0)
        ids = sorted(tree.leaves)
        fixed = {}
    else:
        if plane is None:
            raise ParameterError("slice quiver needs a plane")
        plane.validate(tree)
        fx, fy = plane.f_x, plane.f_y
        fixed = resolve_fixed(tree, plane)
        ids = _cut(tree, fixed)
    arrows = []
    for lid in ids:
        leaf = tree.leaves[lid]
        if leaf.deriv_low_confidence:
            continue
        c = leaf.box.center(tree.feature_range)
        arrows.append({"x": float(c[fx]), "y": float(c[fy]),
                       "dx": float(leaf.deriv_pred[fx]),
                       "dy": float(leaf.deriv_pred[fy]), "leaf": lid})
    return {"plane": [fx, fy], "arrows": arrows,
            "fixed": {str(f): v for f, v in sorted(fixed.items())},
            "x_range": [float(v) for v in tree.feature_range[fx]],
            "y_range": [float(v) for v in tree.feature_range[fy]]}


def _heat(v: float) -> str:
    if not math.isfinite(v):
        raise ParameterError(f"heat map value {v} is not finite")
    v = min(max(v, 0.0), 1.0)
    x = v * (len(_VIRIDIS) - 1)
    i = min(int(x), len(_VIRIDIS) - 2)
    f = x - i
    rgb = [round(a + (b - a) * f)
           for a, b in zip(_VIRIDIS[i], _VIRIDIS[i + 1])]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_svg(payload: dict, style: dict | None = None,
               overlays: list | None = None) -> str:
    """Deterministic SVG for a rectangle map, value grid, or arrow field.

    Overlays are drawn on top: ``{"type": "path", "nodes": [[x, y], ...],
    "probability": p}`` polylines (opacity proportional to probability),
    ``{"type": "point", "xy": [x, y]}`` markers, and ``{"type": "segment",
    "from": [..], "to": [..]}`` arrows.
    """
    style = {**{"width": 640, "height": 480, "margin": 45, "title": ""},
             **(style or {})}
    if "rects" in payload:
        body, legend = _render_rects(payload, style)
    elif "values" in payload:
        body, legend = _render_grid(payload, style)
    elif "arrows" in payload:
        body, legend = _render_arrows(payload, style)
    else:
        raise ParameterError("payload is not a rects/grid/arrows document")
    canvas = _canvas_for(payload, style)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas.w}" '
        f'height="{canvas.h}" viewBox="0 0 {canvas.w} {canvas.h}">',
        f'<rect x="0" y="0" width="{canvas.w}" height="{canvas.h}" fill="#ffffff"/>',
    ]
    parts.extend(body)
    parts.extend(_render_overlays(canvas, overlays or []))
    parts.append(
        f'<rect x="{_f(canvas.ml)}" y="{_f(canvas.mt)}" width="{_f(canvas.pw)}" '
        f'height="{_f(canvas.ph)}" fill="none" stroke="#000000"/>')
    parts.extend(_axis_labels(canvas, style))
    parts.extend(legend)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_rects(payload, style):
    canvas = _canvas_for(payload, style)
    vals = [r["value"] for r in payload["rects"]]
    out = []
    if _numeric_values(vals):
        vmin = min(vals) if vals else 0.0
        vmax = max(vals) if vals else 1.0
        span = (vmax - vmin) or 1.0
        color = lambda v: _heat((v - vmin) / span)
        legend = _colorbar(canvas, vmin, vmax)
    else:
        labels = sorted({str(v) for v in vals})
        cmap = {l: _CATEGORICAL[i % len(_CATEGORICAL)]
                for i, l in enumerate(labels)}
        color = lambda v: cmap[str(v)]
        legend = _swatches(canvas, labels, cmap)
    for r in payload["rects"]:
        x, y = canvas.x(r["x0"]), canvas.y(r["y1"])
        w = canvas.x(r["x1"]) - canvas.x(r["x0"])
        h = canvas.y(r["y0"]) - canvas.y(r["y1"])
        out.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" '
                   f'height="{_f(h)}" fill="{color(r["value"])}" '
                   f'stroke="#ffffff" stroke-width="0.3"/>')
    return out, legend


def _render_grid(payload, style):
    canvas = _canvas_for(payload, style)
    values = payload["values"]
    flat = [v for row in values for v in row]
    vmin, vmax = (min(flat), max(flat)) if flat else (0.0, 1.0)
    span = (vmax - vmin) or 1.0
    xe, ye = payload["x_edges"], payload["y_edges"]
    out = []
    for iy, row in enumerate(values):
        for ix, v in enumerate(row):
            x, y = canvas.x(xe[ix]), canvas.y(ye[iy + 1])
            w = canvas.x(xe[ix + 1]) - x
            h = canvas.y(ye[iy]) - y
            out.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" '
                       f'height="{_f(h)}" fill="{_heat((v - vmin) / span)}"/>')
    return out, _colorbar(canvas, vmin, vmax)


def _render_arrows(payload, style):
    canvas = _canvas_for(payload, style)
    arrows = payload["arrows"]
    mags = [np.hypot(a["dx"], a["dy"]) for a in arrows]
    top = max(mags) if mags else 1.0
    scale = 0.08 * min(canvas.pw, canvas.ph) / (top or 1.0)
    out = []
    for a in arrows:
        x, y = canvas.x(a["x"]), canvas.y(a["y"])
        dx, dy = a["dx"] * scale, -a["dy"] * scale
        tip_x, tip_y = x + dx, y + dy
        out.append(f'<line x1="{_f(x)}" y1="{_f(y)}" x2="{_f(tip_x)}" '
                   f'y2="{_f(tip_y)}" stroke="#202020" stroke-width="1"/>')
        norm = np.hypot(dx, dy)
        if norm > 1e-9:
            ux, uy = dx / norm, dy / norm
            left = (tip_x - 4 * ux + 2 * uy, tip_y - 4 * uy - 2 * ux)
            right = (tip_x - 4 * ux - 2 * uy, tip_y - 4 * uy + 2 * ux)
            out.append(
                f'<polygon points="{_f(tip_x)},{_f(tip_y)} {_f(left[0])},'
                f'{_f(left[1])} {_f(right[0])},{_f(right[1])}" fill="#202020"/>')
        else:
            out.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="1.5" '
                       f'fill="#202020"/>')
    return out, []


def _colorbar(canvas, vmin, vmax):
    x = canvas.ml + canvas.pw + 18
    out = []
    n = 48
    for i in range(n):
        frac = i / (n - 1)
        y = canvas.mt + canvas.ph * (1 - (i + 1) / n)
        out.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="14" '
                   f'height="{_f(canvas.ph / n + 0.5)}" fill="{_heat(frac)}"/>')
    out.append(f'<text x="{_f(x + 18)}" y="{_f(canvas.mt + canvas.ph)}" '
               f'font-family="monospace" font-size="10">{vmin:.4g}</text>')
    out.append(f'<text x="{_f(x + 18)}" y="{_f(canvas.mt + 10)}" '
               f'font-family="monospace" font-size="10">{vmax:.4g}</text>')
    return out


def _svg_text(s):
    """``s`` HTML-escaped without quotes, each character that XML 1.0 does
    not allow as U+FFFD."""
    def allowed(c):
        o = ord(c)
        return (o in (0x9, 0xA, 0xD) or 0x20 <= o <= 0xD7FF
                or 0xE000 <= o <= 0xFFFD or o >= 0x10000)
    return "".join(c if allowed(c) else "\ufffd"
                   for c in html.escape(str(s), quote=False))


def _axis_labels(canvas, style):
    out = []
    if style.get("title"):
        out.append(f'<text x="{_f(canvas.ml)}" y="{_f(canvas.mt - 10)}" '
                   f'font-family="monospace" font-size="13">'
                   f'{_svg_text(style["title"])}</text>')
    out.append(f'<text x="{_f(canvas.ml)}" y="{_f(canvas.mt + canvas.ph + 16)}" '
               f'font-family="monospace" font-size="10">{canvas.x0:.4g}</text>')
    out.append(f'<text x="{_f(canvas.ml + canvas.pw - 30)}" '
               f'y="{_f(canvas.mt + canvas.ph + 16)}" '
               f'font-family="monospace" font-size="10">{canvas.x1:.4g}</text>')
    out.append(f'<text x="{_f(canvas.ml - 40)}" y="{_f(canvas.mt + canvas.ph)}" '
               f'font-family="monospace" font-size="10">{canvas.y0:.4g}</text>')
    out.append(f'<text x="{_f(canvas.ml - 40)}" y="{_f(canvas.mt + 10)}" '
               f'font-family="monospace" font-size="10">{canvas.y1:.4g}</text>')
    if style.get("xlabel"):
        out.append(f'<text x="{_f(canvas.ml + canvas.pw / 2)}" '
                   f'y="{_f(canvas.mt + canvas.ph + 30)}" '
                   f'font-family="monospace" font-size="11">'
                   f'{_svg_text(style["xlabel"])}</text>')
    if style.get("ylabel"):
        out.append(f'<text x="12" y="{_f(canvas.mt + canvas.ph / 2)}" '
                   f'font-family="monospace" font-size="11">'
                   f'{_svg_text(style["ylabel"])}</text>')
    return out


def _swatches(canvas, labels, cmap):
    x = canvas.ml + canvas.pw + 14
    out = []
    for i, label in enumerate(labels):
        y = canvas.mt + 18 * i
        out.append(f'<rect x="{_f(x)}" y="{_f(y)}" width="12" height="12" '
                   f'fill="{cmap[label]}"/>')
        out.append(f'<text x="{_f(x + 16)}" y="{_f(y + 10)}" '
                   f'font-family="monospace" font-size="10">'
                   f'{_svg_text(label)}</text>')
    return out


# ---------------------------------------------------------------------------
# Transitions: the per-episode run scanner the array passes replace
# ---------------------------------------------------------------------------

def compute_transitions(tree: TripleTree, data: AugmentedDataset) -> TripleTree:
    """Estimate sequence-level leaf transition probabilities and durations.

    Sequences are runs of consecutive samples in one leaf, never spanning
    episode boundaries.  A run ending with episode termination records a
    transition to the end marker (None); a run cut off by truncation records
    nothing.
    """
    assign = assign_leaves(tree, data.states)
    counts: dict = {lid: {} for lid in tree.leaves}
    lens: dict = {lid: {} for lid in tree.leaves}
    for start, stop, terminal in data.episode_slices:
        seq = assign[start:stop]
        i = 0
        while i < seq.size:
            j = i + 1
            while j < seq.size and seq[j] == seq[i]:
                j += 1
            src = int(seq[i])
            if j < seq.size:
                dest = int(seq[j])
            elif terminal:
                dest = None
            else:
                i = j
                continue  # truncated run: no transition observed
            counts[src][dest] = counts[src].get(dest, 0) + 1
            lens[src][dest] = lens[src].get(dest, 0) + (j - i)
            i = j

    for lid, leaf in tree.leaves.items():
        total = sum(counts[lid].values())
        if total == 0:
            leaf.transitions = {}
            continue
        leaf.transitions = {
            dest: (c / total, lens[lid][dest] / c)
            for dest, c in counts[lid].items()}
    return tree


# ---------------------------------------------------------------------------
# Row-gather split search: ``best_split`` and ``node_stats`` as they were
# before the column scan, with their helpers, kept verbatim (bar the three
# renamed entry points) as a bitwise oracle.  They gather each channel as an
# (n, m) row block and cumulate it along axis 0.
# ---------------------------------------------------------------------------


def _mean_var(x):
    """Mean and population variance along the first axis, from the first two
    moments."""
    m = x.mean(axis=0)
    return m, np.maximum((x * x).mean(axis=0) - m * m, 0.0)


def scaled_sum(var, sigma) -> float:
    """Sum of per-dimension values scaled by 1/sigma, skipping sigma == 0."""
    sigma = np.asarray(sigma, dtype=float)
    mask = sigma > 0
    return float(np.sum(var[mask] / sigma[mask]))


def rowwise_hybrid_quality(q_triple, root_impurity: ImpurityTriple, theta):
    """Combine per-channel qualities, root-normalised and theta-weighted.

    Each entry of ``q_triple`` is a scalar or an array of candidates; the
    result has the same shape (a float for scalars).  Channels whose root
    impurity or weight is zero contribute nothing.  A leaf's growth priority
    is ``n * hybrid_quality(impurity)``.
    """
    theta = validate_theta(theta)
    roots = root_impurity.as_array()
    out = np.zeros(np.shape(q_triple[0]))
    for c in range(3):
        if roots[c] > 0 and theta[c] > 0:
            out += theta[c] * np.asarray(q_triple[c], dtype=float) / roots[c]
    return float(out) if out.ndim == 0 else out


def rowwise_node_stats(data, idx) -> NodeStats:
    """Statistics of the non-empty sample set ``idx`` of an augmented
    dataset, gathering each channel's members once."""
    n = idx.size

    def moments(x):
        m, var = _mean_var(x)
        return m, var, np.sum((x - m) ** 2, axis=0)

    if data.action_kind == DISCRETE:
        counts = np.bincount(data.action_codes[idx],
                             minlength=data.action_labels.size).astype(float)
        p = counts / n
        ia = float(1.0 - np.sum(p * p))
        k = int(np.argmax(counts))
        action = data.action_labels[k]
        action = action.item() if hasattr(action, "item") else action
        a_sq = float(n - counts[k])
    else:
        action, var, a_sq = moments(data.actions[idx])
        if data.action_kind == CONTINUOUS_SCALAR:
            ia, action, a_sq = float(var), float(action), float(a_sq)
        else:
            ia = scaled_sum(var, data.action_sigma)
    value, var_v, v_sq = moments(data.V[idx])
    D = data.D[idx][data.has_deriv[idx]]
    if D.shape[0] > 0:
        deriv, var_d, d_sq = moments(D)
        id_ = scaled_sum(var_d, data.sigma)
    else:
        deriv, id_, d_sq = None, 0.0, np.zeros(data.d)
    return NodeStats(ImpurityTriple(ia, float(var_v), id_), action, float(value),
                     deriv, D.shape[0], (a_sq, float(v_sq), d_sq))


def rowwise_best_split(data, idx, root_impurity: ImpurityTriple, theta,
                       min_leaf: int = 1) -> SplitCandidate | None:
    """Search all (feature, threshold) partitions of ``idx`` for the best
    hybrid quality.

    Thresholds are midpoints between consecutive distinct sorted feature
    values.  Returns None when no candidate has strictly positive hybrid
    quality.  Ties break toward the lowest feature index, then the lowest
    threshold.
    """
    theta = validate_theta(theta)
    n = idx.size
    if n < 2 * min_leaf or n < 2:
        return None

    best = None  # (q_star, feature, tau, triple, pos, sidx)
    for f in range(data.d):
        order = np.argsort(data.states[idx, f], kind="stable")
        sidx = idx[order]
        x = data.states[sidx, f]
        pos = np.nonzero(x[:-1] < x[1:])[0]
        if pos.size == 0:
            continue
        nl = (pos + 1).astype(float)
        nr = n - nl
        if min_leaf > 1:
            keep = (nl >= min_leaf) & (nr >= min_leaf)
            pos, nl, nr = pos[keep], nl[keep], nr[keep]
            if pos.size == 0:
                continue
        tau = (x[pos] + x[pos + 1]) / 2.0
        # midpoints that round down to the left value cannot separate the sets
        keep = tau > x[pos]
        pos, nl, nr, tau = pos[keep], nl[keep], nr[keep], tau[keep]
        if pos.size == 0:
            continue

        qa = _action_quality(data, sidx, pos, nl, nr, n)
        qv = _vector_moment_quality(data.V[sidx][:, None], _UNIT, None, pos,
                                    nl, nr)
        qd = _deriv_quality(data, sidx, pos)

        q_star = rowwise_hybrid_quality((qa, qv, qd), root_impurity, theta)

        k = int(np.argmax(q_star))
        if q_star[k] > 0 and (best is None or q_star[k] > best[0]):
            best = (float(q_star[k]), f, float(tau[k]),
                    (float(qa[k]), float(qv[k]), float(qd[k])), int(pos[k]), sidx)

    if best is None:
        return None
    q_star, f, tau, triple, p, sidx = best
    return SplitCandidate(feature=f, threshold=tau, quality_triple=triple,
                          hybrid_quality=q_star,
                          left_idx=np.sort(sidx[:p + 1]),
                          right_idx=np.sort(sidx[p + 1:]))


_UNIT = np.ones(1)  # the sigma of a one-column channel


def _action_quality(data, sidx, pos, nl, nr, n):
    if data.action_kind == DISCRETE:
        codes = data.action_codes[sidx]
        k = data.action_labels.size
        onehot = np.zeros((sidx.size, k))
        onehot[np.arange(sidx.size), codes] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[pos]
        total = cum[-1]
        right = total - left
        gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        p = total / n
        gini_n = 1.0 - np.sum(p * p)
        return gini_n - (gini_l * nl + gini_r * nr) / n
    return _vector_moment_quality(
        data.actions[sidx].reshape(sidx.size, -1),
        _UNIT if data.action_sigma is None else data.action_sigma,
        None, pos, nl, nr)


def _deriv_quality(data, sidx, pos):
    mask = data.has_deriv[sidx]
    return _vector_moment_quality(data.D[sidx], data.sigma, mask, pos,
                                  None, None)


def _vector_moment_quality(M, sigma, defined_mask, pos, nl, nr):
    """Quality on a vector channel: per-dim variances scaled by 1/sigma.
    A scalar channel (value, scalar actions) is one column with sigma 1.

    When ``defined_mask`` is given, undefined rows are excluded from the
    moments and the per-side counts; the channel then weights sides by the
    defined counts.
    """
    n_rows = M.shape[0]
    if defined_mask is None:
        w = np.ones(n_rows)
        ml, mr = nl, nr
        m_tot = float(n_rows)
    else:
        w = defined_mask.astype(float)
        cw = np.cumsum(w)
        ml = cw[pos]
        m_tot = cw[-1]
        mr = m_tot - ml
    if m_tot <= 0:
        return np.zeros(pos.size)
    Mw = M * w[:, None]
    c1 = np.cumsum(Mw, axis=0)
    c2 = np.cumsum(Mw * Mw, axis=0)
    s1l, s2l = c1[pos], c2[pos]
    s1r, s2r = c1[-1] - s1l, c2[-1] - s2l
    keep = sigma > 0
    inv = np.zeros_like(sigma)
    inv[keep] = 1.0 / sigma[keep]

    def weighted(var):
        # each column's variance times its weight, added left to right
        total = var[..., 0] * inv[0]
        for j in range(1, inv.size):
            total = total + var[..., j] * inv[j]
        return total

    def imp(s1, s2, m):
        safe = np.maximum(m, 1.0)[:, None]
        var = np.maximum(s2 / safe - (s1 / safe) ** 2, 0.0)
        out = weighted(var)
        out[m <= 0] = 0.0
        return out

    il = imp(s1l, s2l, np.asarray(ml, dtype=float))
    ir = imp(s1r, s2r, np.asarray(mr, dtype=float))
    mean = c1[-1] / m_tot
    var_n = np.maximum(c2[-1] / m_tot - mean * mean, 0.0)
    i_n = float(weighted(var_n))
    ml = np.asarray(ml, dtype=float)
    mr = np.asarray(mr, dtype=float)
    return i_n - (il * ml + ir * mr) / m_tot
