"""Impurity measures and the axis-aligned split search.

Three channels are measured on every node: action (Gini for discrete
actions, variance for continuous ones, per-dimension normalised variance
sum for vector actions), return variance, and the normalised sum of
per-feature derivative variances.  ``node_stats`` gathers each channel of a
node once and derives from it the impurities, the leaf predictions and the
node's share of the training losses.  A split's quality on a channel is the
population-weighted impurity reduction; ``hybrid_quality`` combines the
three, each normalised by its impurity at the root, for split search and
leaf priority alike.
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


def hybrid_quality(q_triple, root_impurity: ImpurityTriple, theta):
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

        q_star = hybrid_quality((qa, qv, qd), root_impurity, theta)

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

    def imp(s1, s2, m):
        safe = np.maximum(m, 1.0)[:, None]
        var = np.maximum(s2 / safe - (s1 / safe) ** 2, 0.0)
        out = var @ inv
        out[m <= 0] = 0.0
        return out

    il = imp(s1l, s2l, np.asarray(ml, dtype=float))
    ir = imp(s1r, s2r, np.asarray(mr, dtype=float))
    mean = c1[-1] / m_tot
    var_n = np.maximum(c2[-1] / m_tot - mean * mean, 0.0)
    i_n = float(var_n @ inv)
    ml = np.asarray(ml, dtype=float)
    mr = np.asarray(mr, dtype=float)
    return i_n - (il * ml + ir * mr) / m_tot
