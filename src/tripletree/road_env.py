"""A 1-D road driving task on a 2-D state space (position, speed), with a
value-iteration policy solver, trace generation, and a weighting sweep.

The vehicle accelerates by a small fixed amount each step; crossing either
end of the road terminates the episode with that wall's reward, and every
surviving step pays a reward proportional to absolute speed.  Optimal
policies come from value iteration on a regular grid over the state box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import DISCRETE, Episode, TraceDataset, augment
from .errors import ParameterError, TraceFormatError
from .tree import evaluate_losses, grow

FEATURE_NAMES = ("pos", "speed")


@dataclass
class RoadConfig:
    r_left: float
    r_right: float
    r_speed: float
    gamma: float = 0.99
    grid: tuple = (30, 30)
    pos_range: tuple = (0.0, 3.0)
    speed_range: tuple = (-0.1, 0.1)
    actions: tuple = (-0.001, 0.001)

    def __post_init__(self):
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ParameterError("grid must be at least 2x2")
        if not 0.0 <= self.gamma <= 1.0:
            raise ParameterError("gamma must lie in [0, 1]")
        if not (self.pos_range[0] < self.pos_range[1]
                and self.speed_range[0] < self.speed_range[1]):
            raise ParameterError("each range must run from low to high")

    def to_json(self) -> dict:
        return {"r_left": self.r_left, "r_right": self.r_right,
                "r_speed": self.r_speed, "gamma": self.gamma,
                "grid": list(self.grid), "pos_range": list(self.pos_range),
                "speed_range": list(self.speed_range),
                "actions": list(self.actions)}

    @classmethod
    def from_json(cls, doc: dict) -> "RoadConfig":
        """The config of a JSON document.  A missing reward, or a field that
        is not a number (a list of two integers for ``grid``, of two numbers
        for a range, of numbers for ``actions``), raises TraceFormatError."""
        if not isinstance(doc, dict):
            raise TraceFormatError("road config is not a JSON object")
        kwargs = {k: doc.get(k) for k in ("r_left", "r_right", "r_speed")}
        if "gamma" in doc:
            kwargs["gamma"] = doc["gamma"]
        for k, value in kwargs.items():
            if not _is_number(value):
                raise TraceFormatError(f"road config {k!r} is missing or "
                                       f"not a number")
        for k in ("grid", "pos_range", "speed_range", "actions"):
            if k not in doc:
                continue
            value, types = doc[k], int if k == "grid" else (int, float)
            if not (isinstance(value, list) and value
                    and (k == "actions" or len(value) == 2)
                    and all(_is_number(v, types) for v in value)):
                raise TraceFormatError(f"road config {k!r} is not a list of "
                                       f"the right numbers")
            kwargs[k] = tuple(value)
        return cls(**kwargs)


def _is_number(value, types=(int, float)) -> bool:
    """Whether a JSON value is a number of ``types``; booleans are not."""
    return isinstance(value, types) and not isinstance(value, bool)


def step(config: RoadConfig, state, action):
    """Advance one timestep: speed updates first (clamped), then position.

    Returns ((pos', speed'), reward, terminal).  Crossing an end of the road
    terminates with that wall's reward, which replaces the speed reward for
    the step.
    """
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


@dataclass
class GridPolicy:
    """Greedy policy and value table over a regular (pos, speed) grid."""

    pos_grid: np.ndarray
    speed_grid: np.ndarray
    value: np.ndarray       # (n_pos, n_speed)
    action_idx: np.ndarray  # (n_pos, n_speed) indices into ``actions``
    actions: tuple
    iterations: int = 0
    residual: float = 0.0
    residual_history: list = field(default_factory=list)  # not serialised

    def _nearest(self, state):
        pos, speed = state
        i = int(np.clip(np.rint((pos - self.pos_grid[0])
                                / (self.pos_grid[1] - self.pos_grid[0])),
                        0, self.pos_grid.size - 1))
        j = int(np.clip(np.rint((speed - self.speed_grid[0])
                                / (self.speed_grid[1] - self.speed_grid[0])),
                        0, self.speed_grid.size - 1))
        return i, j

    def action_at(self, state) -> float:
        i, j = self._nearest(state)
        return self.actions[int(self.action_idx[i, j])]

    def to_json(self) -> dict:
        return {"pos_grid": [float(v) for v in self.pos_grid],
                "speed_grid": [float(v) for v in self.speed_grid],
                "value": [[float(v) for v in row] for row in self.value],
                "action_idx": [[int(v) for v in row] for row in self.action_idx],
                "actions": [float(a) for a in self.actions],
                "iterations": int(self.iterations),
                "residual": float(self.residual)}

    @classmethod
    def from_json(cls, doc: dict) -> "GridPolicy":
        """The policy of a JSON document; a missing key, a value of the wrong
        type, or tables that do not fit the grids raise TraceFormatError."""
        try:
            policy = cls(
                pos_grid=np.asarray(doc["pos_grid"], dtype=float),
                speed_grid=np.asarray(doc["speed_grid"], dtype=float),
                value=np.asarray(doc["value"], dtype=float),
                action_idx=np.asarray(doc["action_idx"], dtype=np.int64),
                actions=tuple(doc["actions"]),
                iterations=int(doc.get("iterations", 0)),
                residual=float(doc.get("residual", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"malformed policy: {type(exc).__name__}: {exc}") from None
        shape = (policy.pos_grid.size, policy.speed_grid.size)
        if not (policy.pos_grid.ndim == policy.speed_grid.ndim == 1
                and min(shape) >= 2
                and policy.value.shape == policy.action_idx.shape == shape
                and all(map(_is_number, policy.actions))
                and np.all(policy.action_idx >= 0)
                and np.all(policy.action_idx < len(policy.actions))):
            raise TraceFormatError("policy tables do not fit its grids and "
                                   "actions")
        return policy


def dp_solve(config: RoadConfig, tolerance: float = 1e-6,
             max_iters: int = 200000) -> GridPolicy:
    """Value iteration over the grid until the max value change drops below
    ``tolerance``; successor values are bilinearly interpolated between the
    four surrounding grid nodes.

    Raises on non-convergence, reporting the residual reached.
    """
    n_pos, n_speed = config.grid
    pos = np.linspace(config.pos_range[0], config.pos_range[1], n_pos)
    spd = np.linspace(config.speed_range[0], config.speed_range[1], n_speed)
    n_actions = len(config.actions)

    # Precompute rewards, terminal flags, and interpolation stencils for
    # every (cell, action) pair; the sweep is then pure table arithmetic.
    P, S = np.meshgrid(pos, spd, indexing="ij")
    rewards = np.empty((n_actions, n_pos, n_speed))
    terminal = np.zeros((n_actions, n_pos, n_speed), dtype=bool)
    corners = np.zeros((n_actions, n_pos, n_speed, 4), dtype=np.int64)
    weights = np.zeros((n_actions, n_pos, n_speed, 4))
    for a, acc in enumerate(config.actions):
        speed2 = np.clip(S + acc, config.speed_range[0], config.speed_range[1])
        pos2 = P + speed2
        term_l = pos2 < config.pos_range[0]
        term_r = pos2 > config.pos_range[1]
        rewards[a] = config.r_speed * np.abs(speed2)
        rewards[a][term_l] = config.r_left
        rewards[a][term_r] = config.r_right
        terminal[a] = term_l | term_r
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


def generate_dataset(config: RoadConfig, policy: GridPolicy, n_samples: int,
                     episode_len: int, seed: int) -> TraceDataset:
    """Run the greedy policy from uniform random starts until enough samples
    accumulate; deterministic for a given seed.

    Episodes stop at termination or after ``episode_len`` steps; the final
    episode is trimmed so the sample count is exact (and marked truncated if
    the trim removed its ending).
    """
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
            acc = policy.action_at((pos, speed))
            (pos2, speed2), r, term = step(config, (pos, speed), acc)
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
    return TraceDataset(episodes=episodes, action_kind=DISCRETE,
                        feature_names=list(FEATURE_NAMES))


EXCLUSIVE_THETAS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def theta_sweep(config: RoadConfig, dataset: TraceDataset, theta_grid,
                max_leaves: int, min_leaf: int = 1) -> dict:
    """Grow one tree per weighting and score each by its worst loss.

    Each loss column is normalised by the loss the corresponding exclusive
    weighting achieves at the same leaf budget, making the three losses
    commensurable; the winner minimises the maximum normalised loss.
    """
    if not theta_grid:
        raise ParameterError("the theta grid is empty")
    aug = augment(dataset, config.gamma)
    losses_by_theta = {}

    def losses_for(theta):
        key = tuple(float(v) for v in theta)
        if key not in losses_by_theta:
            tree = grow(aug, np.asarray(key), max_leaves, min_leaf=min_leaf)
            losses_by_theta[key] = evaluate_losses(tree, aug)
        return losses_by_theta[key]

    optima = [losses_for(t)[c] for c, t in enumerate(EXCLUSIVE_THETAS)]

    rows = []
    for theta in theta_grid:
        key = tuple(float(v) for v in theta)
        raw = losses_for(key)
        normalised = []
        for c in range(3):
            if optima[c] > 0:
                normalised.append(raw[c] / optima[c])
            else:
                normalised.append(1.0 if raw[c] <= 0 else float("inf"))
        rows.append({"theta": key,
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


def save_policy(policy: GridPolicy, path):
    with open(path, "wb") as fh:
        fh.write((json.dumps(policy.to_json(), sort_keys=True,
                             separators=(",", ":")) + "\n").encode())


def load_policy(path) -> GridPolicy:
    with open(path, "rb") as fh:
        return GridPolicy.from_json(json.loads(fh.read().decode()))
