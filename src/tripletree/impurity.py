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
them).  A split's quality on a channel is the population-weighted impurity
reduction; ``combine_qualities`` combines the three, each normalised by its
root impurity, for split search and leaf priority alike.

The scan needs only running sums, as SPRINT's does.  Per feature one mask
over the sorted values finds every cut.  The block's rows are gathered in
sorted order ``_CHUNK`` members at a time and cumulated in place with their
squared moment rows, carrying the running sums into the next chunk, and
each chunk's slice of the cuts is scored on them, so every sum and quality
is the one a whole-order scan gives.  A node of several chunks cumulates
them once for its totals, keeping the last, and recomputes the others as it
scores them.  A channel of several columns (the derivatives; vector
actions) is the exception: OpenBLAS's gemv rounds a row of its weighted
variance sum differently for a different number of rows, so each side's
(cuts x columns) variances are kept for all of the feature's cuts and
summed at once.  On the n=1e5 benchmark trace the root's scan peaks at 8.0
MB under tracemalloc, and a 1000-leaf ``grow`` at 15.2 MB (22.5 and 29.7 MB
with whole-node buffers).
"""

from __future__ import annotations

import math
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
    components = theta.tolist()
    if not all(0 <= c < math.inf for c in components):
        raise ParameterError("theta components must be finite and >= 0")
    if sum(components) <= 0:
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
    threshold, on the qualities as computed in floating point: candidates
    whose qualities are equal in exact arithmetic may round apart, so either
    can win.  ``idx`` is ascending, ``orders`` holds the members in each
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
        found = _best_cut(block, data.states[:, f], orders[f], min_leaf,
                          roots, theta)
        if found is not None and (best is None or found[0] > best[0]):
            best = (found[0], f, *found[1:])

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


_CHUNK = 8192  # members of a sorted order cumulated and scored at a time


def _best_cut(block, x, sidx, min_leaf, roots, theta):
    """The best cut of the sorted order ``sidx`` of the values ``x``, as
    (hybrid quality, threshold, quality triple), the lowest threshold on
    ties; None when no cut has a positive quality."""
    pos = _cuts(x[sidx], min_leaf)
    if pos.size == 0:
        return None
    qa, qv, qd = _scan(block, sidx, pos)
    q_star = combine_qualities((qa, qv, qd), roots, theta)
    k = int(q_star.argmax())
    if not q_star[k] > 0:
        return None
    p = pos[k]
    return (float(q_star[k]), float((x[sidx[p]] + x[sidx[p + 1]]) / 2.0),
            (float(qa[k]), float(qv[k]), float(qd[k])))


def _cuts(xs, min_leaf):
    """The cuts of the sorted values ``xs``: each position p whose value is
    below the next, with a midpoint above it (one that rounds down cannot
    separate the sets) and ``min_leaf`` members each side."""
    lo, hi = xs[:-1], xs[1:]
    pos = ((lo < hi) & ((lo + hi) / 2.0 > lo)).nonzero()[0]
    if min_leaf > 1:
        pos = pos[(pos >= min_leaf - 1) & (pos < xs.size - min_leaf)]
    return pos


def _cumulated(block, members, carry=None):
    """The block's columns ``members`` and their moment rows' squares, each
    cumulated along its rows after the running sums ``carry`` of the
    members before them."""
    C1 = block.rows.take(members, axis=1)
    C2 = np.square(C1[block.labels + 1:])
    if carry is not None:
        C1[:, 0] += carry[0]
        C2[:, 0] += carry[1]
    C1.cumsum(axis=1, out=C1)
    C2.cumsum(axis=1, out=C2)
    return C1, C2


def _scan(block, sidx, pos):
    """Action, value and derivative qualities of the cuts at the positions
    ``pos`` of the members in the sorted order ``sidx``, scored ``_CHUNK``
    members at a time."""
    n, m = sidx.size, pos.size
    labels, a_inv = block.labels, block.a_inv
    starts = range(0, n, _CHUNK)
    carries = [None]  # the running sums entering each chunk
    for a in starts[1:]:
        C1, C2 = _cumulated(block, sidx[a - _CHUNK:a], carries[-1])
        carries.append((C1[:, -1].copy(), C2[:, -1].copy()))
    last = _cumulated(block, sidx[starts[-1]:], carries[-1])
    t1, t2 = last[0][:, -1:], last[1][:, -1:]  # the totals

    v = 0 if labels else a_inv.size  # V's row in C2; labels + 1 + v in C1
    gini = np.empty(m) if labels else None
    action = None if labels else _Moments(t1[1:v + 1], t2[:v], a_inv, n, m)
    value = _Moments(t1[labels + 1 + v:labels + 2 + v], t2[v:v + 1], _UNIT,
                     n, m)
    m_tot = t1[labels, 0]  # rows with a derivative
    deriv = (_Moments(t1[labels + 2 + v:], t2[v + 1:], block.d_inv, m_tot, m,
                      counted=m_tot < n) if m_tot > 0 else None)
    first = np.searchsorted(pos, [*starts, n]).tolist()  # chunks' first cuts
    for a, carry, i, j in zip(starts, carries, first, first[1:]):
        if i == j:
            continue
        s, at = slice(i, j), pos[i:j]
        C1, C2 = (last if a == starts[-1] else
                  _cumulated(block, sidx[a:a + _CHUNK], carry))
        if at[-1] - a >= at.size:  # not the chunk's first columns
            C1, C2 = C1.take(at - a, axis=1), C2.take(at - a, axis=1)
        l1, l2 = C1[:, :at.size], C2[:, :at.size]
        nl = (at + 1).astype(float)
        nr = n - nl
        if labels:
            _gini_quality(l1[:labels], t1[:labels], nl, nr, n, out=gini[s])
        else:
            action.add(s, l1[1:v + 1], l2[:v], nl, nr)
        value.add(s, l1[labels + 1 + v:labels + 2 + v], l2[v:v + 1], nl, nr)
        if deriv is not None:
            ml = l1[labels]
            deriv.add(s, l1[labels + 2 + v:], l2[v + 1:], ml, m_tot - ml)
    return (gini if labels else action.quality(), value.quality(),
            np.zeros(m) if deriv is None else deriv.quality())


def _gini_quality(left, total, nl, nr, n, out):
    """Gini reduction of the cuts, into ``out``, from the cumulated
    label-count rows at the cuts and at the end."""
    p = total[:, 0] / n
    gini_l = 1.0 - _label_sum((left / nl) ** 2)
    gini_r = 1.0 - _label_sum(((total - left) / nr) ** 2)
    np.subtract(1.0 - np.add.reduce(p * p), (gini_l * nl + gini_r * nr) / n,
                out=out)


def _label_sum(rows):
    """Column sums of the label rows as np.sum(axis=1) rounds the contiguous
    (cuts x labels) block; one or two rows round alike added directly."""
    if len(rows) <= 2:
        return rows[0] + rows[1] if len(rows) == 2 else rows[0]
    return np.add.reduce(np.ascontiguousarray(rows.T), axis=1)


class _Moments:
    """A channel's qualities of a feature's ``m`` cuts, scored a chunk of
    cuts at a time from its cumulated rows: the reduction of the variances
    of ``m_tot`` rows, summed with weights ``inv``.  ``t1``/``t2`` are the
    totals of its rows and squared rows (one column each).  On a
    ``counted`` channel some members lack a derivative, so a side may hold
    none; its rows are zeros, so it divides by 1 and its variance is 0.

    A channel of several columns sums its variances with a matrix product
    of each side's (cuts x columns) block.  OpenBLAS's gemv rounds a row of
    it differently for a different number of rows, so those blocks hold
    all ``m`` cuts and are summed once, by ``quality``."""

    def __init__(self, t1, t2, inv, m_tot, m, counted=False):
        self.t1, self.t2, self.inv, self.m_tot = t1, t2, inv, m_tot
        self.counted = counted
        mean = t1[:, 0] / m_tot
        self.var_n = float(np.maximum(t2[:, 0] / m_tot - mean * mean, 0.0)
                           @ inv)
        self.blocks = ((np.empty((m, inv.size)), np.empty((m, inv.size)))
                       if inv.size > 1 else None)
        self.q = np.empty(m)  # the qualities; the cuts' ml while blocked

    def add(self, s, l1, l2, ml, mr):
        """Score the cuts ``s`` from their cumulated columns ``l1``/``l2``,
        ``ml``/``mr`` rows each side."""
        safe_l, safe_r = ((np.maximum(ml, 1.0), np.maximum(mr, 1.0))
                          if self.counted else (ml, mr))
        t1, t2 = self.t1, self.t2
        # each side's variances, computed in place in the rows of a
        # C-contiguous (cuts x columns) block
        if self.blocks:
            var_l, var_r = self.blocks[0][s].T, self.blocks[1][s].T
        else:
            var_l, var_r = np.empty((ml.size, 1)).T, np.empty((ml.size, 1)).T
        np.divide(l2, safe_l, out=var_l)
        var_l -= np.square(l1 / safe_l)
        np.subtract(t2, l2, out=var_r)
        var_r /= safe_r
        var_r -= np.square((t1 - l1) / safe_r)
        np.maximum(var_l, 0.0, out=var_l)
        np.maximum(var_r, 0.0, out=var_r)
        if self.blocks:
            self.q[s] = ml
        elif self.inv[0] == 1.0:  # one column of weight 1 is taken as is
            self._reduction(var_l[0], var_r[0], ml, mr, self.q[s])
        else:
            self._reduction(var_l.T @ self.inv, var_r.T @ self.inv, ml, mr,
                            self.q[s])

    def quality(self):
        """The qualities of all ``m`` cuts, once every chunk is added."""
        if self.blocks:
            var_l, var_r = self.blocks
            self.blocks = None
            il = var_l @ self.inv
            del var_l
            ir = var_r @ self.inv
            del var_r
            self._reduction(il, ir, self.q, self.m_tot - self.q, self.q)
        return self.q

    def _reduction(self, il, ir, ml, mr, out):
        """Qualities of cuts, into ``out``, from each side's weighted
        variance sums (overwritten)."""
        il *= ml
        ir *= mr
        il += ir
        il /= self.m_tot
        np.subtract(self.var_n, il, out=out)
