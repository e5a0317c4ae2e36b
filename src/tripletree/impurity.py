"""Impurity measures and the axis-aligned split search.

Three channels are measured on every node: action (Gini for discrete
actions, variance for continuous ones, per-dimension normalised variance
sum for vector actions), return variance, and the normalised sum of
per-feature derivative variances.  ``node_stats`` gathers a node's channels
once for its impurities, leaf predictions and share of the training losses.
``best_split`` scans each feature's stable sort of the members.  Growth
sorts each feature once, at the root, and a split partitions every sorted
order for the children, as SLIQ and SPRINT partition their pre-sorted
attribute lists.  Growth also builds the dataset's ``channel_block`` once
(a count row per action label, ``has_deriv``, each continuous action
component, V and each derivative component, with the weights that decode
them).  Per feature the scan gathers its rows in that order once, cumulates
them and their squared moment rows in place, and scores every cut on row
slices of those sums.  A split's quality on a channel is the
population-weighted impurity reduction; ``combine_qualities`` combines the
three, each normalised by its root impurity, for split search and leaf
priority alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import CONTINUOUS_SCALAR, DISCRETE
from .errors import ParameterError


@dataclass(frozen=True)
class ImpurityTriple:
    action: float
    value: float
    derivative: float

    def as_array(self) -> np.ndarray:
        return np.array([self.action, self.value, self.derivative])


@dataclass
class SplitCandidate:
    feature: int
    threshold: float
    quality_triple: tuple[float, float, float]
    hybrid_quality: float
    left_idx: np.ndarray   # members with state[feature] < threshold
    right_idx: np.ndarray  # members with state[feature] >= threshold


class NodeStats(NamedTuple):
    """Per-channel statistics of one node's members."""

    impurity: ImpurityTriple
    action: object                 # modal label, mean, or per-dimension mean
    value: float                   # mean return
    deriv: np.ndarray | None       # mean derivative; None when no member has one
    n_deriv: int
    # summed squared errors about the predictions, per channel: the
    # misclassified count for discrete actions, per-dimension sums for vectors
    loss_terms: tuple


def scaled_sum(var, sigma) -> float:
    """Sum of per-dimension values scaled by 1/sigma, skipping sigma == 0."""
    sigma = np.asarray(sigma, dtype=float)
    mask = sigma > 0
    return float(np.sum(var[mask] / sigma[mask]))


def combine_qualities(q_triple, roots, theta):
    """Combine per-channel qualities, each normalised by its root impurity
    in ``roots`` and weighted by the validated ``theta``.

    Each entry of ``q_triple`` is a scalar or an array of candidates; the
    result has the same shape (a float for scalars).  Channels whose root
    impurity or weight is zero contribute nothing.  A leaf's growth priority
    is ``n * combine_qualities(impurity, ...)``.
    """
    out = np.zeros(np.shape(q_triple[0]))
    for c in range(3):
        if roots[c] > 0 and theta[c] > 0:
            out += theta[c] * np.asarray(q_triple[c], dtype=float) / roots[c]
    return float(out) if out.ndim == 0 else out


def validate_theta(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3,):
        raise ParameterError("theta must have exactly three components")
    if np.any(theta < 0) or not np.all(np.isfinite(theta)):
        raise ParameterError("theta components must be finite and >= 0")
    if theta.sum() <= 0:
        raise ParameterError("theta must have a positive sum")
    return theta


def node_stats(data, idx) -> NodeStats:
    """Statistics of the non-empty sample set ``idx`` of an augmented
    dataset, gathering each channel's members once."""
    n = idx.size

    def moments(x):
        # mean and population variance as x.mean(axis=0) rounds them: a sum,
        # then a true division
        k = x.shape[0]
        m = np.add.reduce(x, axis=0) / k
        var = np.maximum(np.add.reduce(x * x, axis=0) / k - m * m, 0.0)
        return m, var, np.add.reduce((x - m) ** 2, axis=0)

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
        action, var, a_sq = moments(np.take(data.actions, idx, axis=0))
        if data.action_kind == CONTINUOUS_SCALAR:
            ia, action, a_sq = float(var), float(action), float(a_sq)
        else:
            ia = scaled_sum(var, data.action_sigma)
    value, var_v, v_sq = moments(data.V[idx])
    D = np.take(data.D, idx[data.has_deriv[idx]], axis=0)
    if D.shape[0] > 0:
        deriv, var_d, d_sq = moments(D)
        id_ = scaled_sum(var_d, data.sigma)
    else:
        deriv, id_, d_sq = None, 0.0, np.zeros(data.d)
    return NodeStats(ImpurityTriple(ia, float(var_v), id_), action, float(value),
                     deriv, D.shape[0], (a_sq, float(v_sq), d_sq))


def node_impurity(data, idx) -> ImpurityTriple:
    """All three impurities of the sample set ``idx`` of an augmented dataset."""
    if idx.size == 0:
        return ImpurityTriple(0.0, 0.0, 0.0)
    return node_stats(data, idx).impurity


def best_split(data, idx, root_impurity: ImpurityTriple, theta,
               min_leaf: int = 1, *, orders, block) -> SplitCandidate | None:
    """Search all (feature, threshold) partitions of ``idx`` for the best
    hybrid quality.

    Thresholds are midpoints between consecutive distinct sorted feature
    values.  Returns None when no candidate has strictly positive hybrid
    quality.  Ties break toward the lowest feature index, then the lowest
    threshold.  ``idx`` is ascending, ``orders`` holds the members in each
    feature's stable sort, one row per feature, and ``block`` is
    ``channel_block(data)``; ``grow`` keeps all three.
    """
    theta = validate_theta(theta)
    n = idx.size
    if n < 2 * min_leaf or n < 2:
        return None
    roots = root_impurity.as_array()
    best = None  # (q_star, feature, tau, triple)
    for f in range(data.d):
        sidx = orders[f]
        x = data.states[:, f][sidx]
        pos = (x[:-1] < x[1:]).nonzero()[0]
        if min_leaf > 1:
            pos = pos[(pos >= min_leaf - 1) & (pos < n - min_leaf)]
        if pos.size == 0:
            continue
        below = x[pos]
        tau = (below + x[pos + 1]) / 2.0
        # midpoints that round down to the left value cannot separate the sets
        keep = tau > below
        if not keep.all():
            pos, tau = pos[keep], tau[keep]
            if pos.size == 0:
                continue
        nl = (pos + 1).astype(float)
        nr = n - nl

        qa, qv, qd = _scan(block, sidx, pos, nl, nr)
        q_star = combine_qualities((qa, qv, qd), roots, theta)

        k = int(q_star.argmax())
        if q_star[k] > 0 and (best is None or q_star[k] > best[0]):
            best = (float(q_star[k]), f, float(tau[k]),
                    (float(qa[k]), float(qv[k]), float(qd[k])))

    if best is None:
        return None
    q_star, f, tau, triple = best
    goes_left = data.states[idx, f] < tau
    return SplitCandidate(feature=f, threshold=tau, quality_triple=triple,
                          hybrid_quality=q_star, left_idx=idx[goes_left],
                          right_idx=idx[~goes_left])


class ChannelBlock(NamedTuple):
    """The per-sample columns split search scans, as the rows of one
    C-contiguous (k, n) float block: a count row per action label
    (discrete), ``has_deriv``, each action component (continuous), V, and
    each derivative component times ``has_deriv``.  Rows after
    ``has_deriv`` are the moment rows."""

    rows: np.ndarray
    labels: int               # label-count rows; 0 for continuous actions
    a_inv: np.ndarray | None  # action weights 1/sigma; None when discrete
    d_inv: np.ndarray         # derivative weights 1/sigma


_UNIT = np.ones(1)  # the sigma of a one-column channel


def channel_block(data) -> ChannelBlock:
    """The channel block of an augmented dataset, built once per growth."""
    n = data.n
    labels = data.action_labels.size if data.action_kind == DISCRETE else 0
    actions = np.empty((0, n)) if labels else data.actions.reshape(n, -1).T
    v = labels + 1 + actions.shape[0]  # V's row
    rows = np.empty((v + 1 + data.d, n))
    rows[:labels] = np.arange(labels)[:, None] == data.action_codes
    rows[labels] = data.has_deriv
    rows[labels + 1:v] = actions
    rows[v] = data.V
    np.multiply(data.D.T, rows[labels], out=rows[v + 1:])
    a_inv = None if labels else _inverse(
        _UNIT if data.action_sigma is None else data.action_sigma)
    return ChannelBlock(rows, labels, a_inv, _inverse(data.sigma))


def _inverse(sigma):
    """Per-column weights 1/sigma, 0 where sigma is 0."""
    return np.divide(1.0, sigma, out=np.zeros(len(sigma)), where=sigma > 0)


def _scan(block, sidx, pos, nl, nr):
    """Action, value and derivative qualities of the cuts ``pos`` of the
    members in the sorted order ``sidx``, ``nl``/``nr`` rows each side.

    The rows of the ``ChannelBlock`` are gathered in that order once; the
    gathered block and its moment rows' squares are cumulated in place, and
    only their columns at the cuts and at the end are kept."""
    n = sidx.size
    labels, a_inv = block.labels, block.a_inv
    C1 = block.rows.take(sidx, axis=1)
    C2 = np.square(C1[labels + 1:])  # action components (continuous), V, D
    np.cumsum(C1, axis=1, out=C1)
    np.cumsum(C2, axis=1, out=C2)
    if pos.size < n - 1:  # keep each cut's prefix sums, then the totals
        cuts = np.append(pos, n - 1)
        C2 = C2.take(cuts, axis=1)
        C1 = C1.take(cuts, axis=1)
    v = 0 if labels else a_inv.size  # V's row in C2; labels + 1 + v in C1
    if labels:
        qa = _gini_quality(C1[:labels], nl, nr, n)
    else:
        qa = _moment_quality(C1[1:v + 1], C2[:v], a_inv, nl, nr, n)
    qv = _moment_quality(C1[labels + 1 + v:labels + 2 + v], C2[v:v + 1],
                         _UNIT, nl, nr, n)
    ml, m_tot = C1[labels, :-1], C1[labels, -1]  # rows with a derivative
    if m_tot <= 0:
        return qa, qv, np.zeros(pos.size)
    return qa, qv, _moment_quality(C1[labels + 2 + v:], C2[v + 1:],
                                   block.d_inv, ml, m_tot - ml, m_tot,
                                   counted=m_tot < n)


def _gini_quality(counts, nl, nr, n):
    """Gini reduction of the cuts from the cumulated label-count rows."""
    left, total = counts[:, :-1], counts[:, -1:]
    p = total[:, 0] / n
    gini_l = 1.0 - _label_sum((left / nl) ** 2)
    gini_r = 1.0 - _label_sum(((total - left) / nr) ** 2)
    return (1.0 - (p * p).sum()) - (gini_l * nl + gini_r * nr) / n


def _label_sum(rows):
    """Column sums of the label rows as np.sum(axis=1) rounds the contiguous
    (cuts x labels) block; one or two rows round alike added directly."""
    if len(rows) <= 2:
        return rows[0] + rows[1] if len(rows) == 2 else rows[0]
    return np.sum(np.ascontiguousarray(rows.T), axis=1)


def _moment_quality(c1, c2, inv, ml, mr, m_tot, counted=False):
    """Quality of the cuts on a channel from its cumulated rows ``c1`` and
    squared rows ``c2`` (columns at the cuts, then the totals), ``ml``/``mr``
    rows each side of ``m_tot``: the reduction of their variances summed
    with weights ``inv``.  On a ``counted`` channel some members lack a
    derivative, so a side may hold none; its rows are zeros, so it divides
    by 1 and its variance is 0.

    A channel of several columns sums its variances with a matrix product
    of the (cuts x columns) block.  OpenBLAS's gemv rounds a row of it
    differently for a different number of rows, so only the kept cuts may
    be scored.  One column of weight 1 is returned as is."""
    safe_l, safe_r = ((np.maximum(ml, 1.0), np.maximum(mr, 1.0)) if counted
                      else (ml, mr))
    l1, l2, t1, t2 = c1[:, :-1], c2[:, :-1], c1[:, -1:], c2[:, -1:]
    # each side's variances, computed in place in the rows of a C-contiguous
    # (cuts x columns) block
    var_l = np.divide(l2, safe_l, out=np.empty((ml.size, len(inv))).T)
    var_l -= np.square(l1 / safe_l)
    var_r = np.subtract(t2, l2, out=np.empty((ml.size, len(inv))).T)
    var_r /= safe_r
    var_r -= np.square((t1 - l1) / safe_r)
    for var in (var_l, var_r):
        np.maximum(var, 0.0, out=var)
    mean = t1[:, 0] / m_tot
    var_n = np.maximum(t2[:, 0] / m_tot - mean * mean, 0.0)

    il, ir = (var[0] if len(var) == 1 and inv[0] == 1.0 else var.T @ inv
              for var in (var_l, var_r))
    return float(var_n @ inv) - (il * ml + ir * mr) / m_tot
