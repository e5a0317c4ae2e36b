"""Impurity measures and the axis-aligned split search.

Three channels are measured on every node: action (Gini for discrete
actions, variance for continuous ones, per-dimension normalised variance
sum for vector actions), return variance, and the normalised sum of
per-feature derivative variances.  ``node_stats`` gathers a node's channels
once for its impurities, leaf predictions and share of the training losses.
``best_split`` scans each feature's sort of the members one 1-D channel
column at a time (a label's counts, an action component, V, a derivative
component).  A split's quality on a channel is the population-weighted
impurity reduction; ``hybrid_quality`` combines the three, each normalised
by its root impurity, for split search and leaf priority alike.
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


def hybrid_quality(q_triple, root_impurity: ImpurityTriple, theta):
    """Combine per-channel qualities, root-normalised and theta-weighted.

    Each entry of ``q_triple`` is a scalar or an array of candidates; the
    result has the same shape (a float for scalars).  Channels whose root
    impurity or weight is zero contribute nothing.  A leaf's growth priority
    is ``n * hybrid_quality(impurity)``.
    """
    return combine_qualities(q_triple, root_impurity.as_array(),
                             validate_theta(theta))


def combine_qualities(q_triple, roots, theta):
    """``hybrid_quality`` for root impurities as an array, theta validated."""
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
    roots = root_impurity.as_array()
    best = None  # (q_star, feature, tau, triple, pos, sidx)
    for f in range(data.d):
        x = data.states[:, f][idx]
        order = x.argsort(kind="stable")
        x, sidx = x[order], idx[order]
        pos = (x[:-1] < x[1:]).nonzero()[0]
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

        qa, qv, qd = _channel_qualities(data, sidx, pos, nl, nr)
        q_star = combine_qualities((qa, qv, qd), roots, theta)

        k = int(q_star.argmax())
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


def _channel_qualities(data, sidx, pos, nl, nr):
    """Action, value and derivative qualities of the cuts ``pos`` of the
    members in the sorted order ``sidx``, ``nl``/``nr`` rows each side."""
    n = sidx.size
    if data.action_kind == DISCRETE:
        codes = data.action_codes[sidx]
        cum = [(codes == j).cumsum(dtype=float)
               for j in range(data.action_labels.size)]
        left = [c[pos] for c in cum]
        p = np.array([c[-1] for c in cum]) / n
        gini_l = 1.0 - _row_sum([(a / nl) ** 2 for a in left])
        gini_r = 1.0 - _row_sum([((c[-1] - a) / nr) ** 2
                                 for c, a in zip(cum, left)])
        qa = (1.0 - (p * p).sum()) - (gini_l * nl + gini_r * nr) / n
    else:
        A = data.actions
        sigma = np.ones(1) if data.action_sigma is None else data.action_sigma
        qa = _moment_quality([a[sidx] for a in ([A] if A.ndim == 1 else A.T)],
                             sigma, pos, nl, nr)
    qv = _moment_quality([data.V[sidx]], np.ones(1), pos, nl, nr)
    w = data.has_deriv[sidx]
    return qa, qv, _moment_quality([D[sidx] for D in data.D.T], data.sigma,
                                   pos, nl, nr,
                                   None if w.all() else w.astype(float))


def _row_sum(parts):
    """Row sums of stacked ``parts`` as np.sum(axis=1) rounds them; two
    terms round alike in either order."""
    return (sum(parts[1:], parts[0]) if len(parts) <= 2
            else np.sum(np.stack(parts, axis=1), axis=1))


def _moment_quality(cols, sigma, pos, nl, nr, w=None):
    """Quality of the cuts ``pos`` on a channel of sorted columns, rows
    weighing ``w`` (0 or 1) or all 1: the reduction of their variances summed
    with weights 1/sigma (0 for sigma 0), by a matrix product (it rounds
    unlike a sum) except for one column of weight 1, which it returns as is."""
    inv = np.divide(1.0, sigma, out=np.zeros(len(sigma)), where=sigma > 0)
    ml, mr, m_tot = nl, nr, cols[0].size
    safe_l, safe_r = nl, nr  # both >= 1
    if w is not None:
        cw = w.cumsum()
        ml, m_tot = cw[pos], float(cw[-1])
        if m_tot <= 0:
            return np.zeros(pos.size)
        mr = m_tot - ml
        safe_l, safe_r = np.maximum(ml, 1.0), np.maximum(mr, 1.0)
        cols = [x * w for x in cols]
    var_l, var_r, var_n = [], [], []
    for x in cols:
        c1, c2 = x.cumsum(), (x * x).cumsum()
        l1, l2, t1, t2 = c1[pos], c2[pos], float(c1[-1]), float(c2[-1])
        var_l.append(np.maximum(l2 / safe_l - (l1 / safe_l) ** 2, 0.0))
        var_r.append(np.maximum((t2 - l2) / safe_r - ((t1 - l1) / safe_r) ** 2,
                                0.0))
        mean = t1 / m_tot
        var_n.append(max(t2 / m_tot - mean * mean, 0.0))

    il, ir = (var[0] if len(var) == 1 and inv[0] == 1.0
              else np.stack(var, axis=1) @ inv for var in (var_l, var_r))
    if w is not None:
        il[ml <= 0], ir[mr <= 0] = 0.0, 0.0
    i_n = float(np.array(var_n) @ inv)
    return i_n - (il * ml + ir * mr) / m_tot
