"""A 1-D road driving task on a 2-D state space (position, speed), with a
value-iteration policy solver and trace generation.

The vehicle accelerates by a small fixed amount each step; crossing either
end of the road terminates the episode with that wall's reward, and every
surviving step pays a reward proportional to absolute speed.  Optimal
policies come from value iteration on a regular grid over the state box.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import DISCRETE, TraceDataset, json_bytes
from .errors import ParameterError, TraceFormatError
from .tree import theta_sweep  # noqa: F401  (perfbench traces it here)

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
        # the dynamics are float64 arithmetic, whatever numbers were given
        self.r_left, self.r_right, self.r_speed = map(
            float, (self.r_left, self.r_right, self.r_speed))
        self.pos_range = tuple(map(float, self.pos_range))
        self.speed_range = tuple(map(float, self.speed_range))
        self.actions = tuple(map(float, self.actions))
        if not all(map(math.isfinite, (self.r_left, self.r_right,
                                       self.r_speed))):
            raise ParameterError("rewards must be finite")
        if not self.actions:
            raise ParameterError("actions must not be empty")
        if not all(map(math.isfinite,
                       self.actions + self.pos_range + self.speed_range)):
            raise ParameterError("ranges and actions must be finite")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ParameterError("grid must be at least 2x2")
        # dp_solve's tables of four 8-byte stencil entries per action and
        # node must fit numpy's np.intp sizes
        if (32 * len(self.actions) * self.grid[0] * self.grid[1]
                > np.iinfo(np.intp).max):
            raise ParameterError(f"grid {self.grid[0]}x{self.grid[1]} is "
                                 f"too large to solve")
        if not 0.0 <= self.gamma <= 1.0:
            raise ParameterError("gamma must lie in [0, 1]")
        if not (self.pos_range[0] < self.pos_range[1]
                and self.speed_range[0] < self.speed_range[1]):
            raise ParameterError("each range must run from low to high")

    @classmethod
    def from_json(cls, doc: dict) -> "RoadConfig":
        """The config of a JSON document.  A missing reward, a field that is
        not a number (a list of two integers for ``grid``, of two numbers for
        a range, of numbers for ``actions``), a reward, range or action that
        is not finite, or a value out of its domain raises
        TraceFormatError."""
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
        numbers = [kwargs[k] for k in ("r_left", "r_right", "r_speed")]
        for k in ("pos_range", "speed_range", "actions"):
            numbers += kwargs.get(k, ())
        if not all(map(_is_finite, numbers)):
            raise TraceFormatError("road config holds a number that is not "
                                   "finite")
        try:
            return cls(**kwargs)
        except ParameterError as exc:
            raise TraceFormatError(f"road config: {exc}") from None


def _is_number(value, types=(int, float)) -> bool:
    """Whether a JSON value is a number of ``types``; booleans are not."""
    return isinstance(value, types) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """Whether a number is a finite float (an integer past the float range
    is not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _advance(config: RoadConfig, pos, speed, action):
    """Advance states one timestep: speed updates first (clamped), then
    position.  Arrays (or scalars) in, arrays out.

    Returns (pos', speed', reward, terminal).  Crossing an end of the road
    terminates with that wall's reward, which replaces the speed reward for
    the step.  The clamp picks as ``min(max(speed + action, lo), hi)`` does,
    so a NaN or a signed zero passes through it unchanged.
    """
    s_lo, s_hi = config.speed_range
    p_lo, p_hi = config.pos_range
    speed2 = speed + action
    speed2 = np.where(s_lo > speed2, s_lo, speed2)
    speed2 = np.where(s_hi < speed2, s_hi, speed2)
    pos2 = pos + speed2
    left, right = pos2 < p_lo, pos2 > p_hi
    reward = np.where(left, config.r_left,
                      np.where(right, config.r_right,
                               config.r_speed * np.abs(speed2)))
    return pos2, speed2, reward, left | right


def step(config: RoadConfig, state, action):
    """``_advance`` for one state: ((pos', speed'), reward, terminal) as
    Python floats and a bool."""
    pos2, speed2, reward, terminal = _advance(config, *state, action)
    return (float(pos2), float(speed2)), float(reward), bool(terminal)


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

    def action_indices(self, pos, speed):
        """Indices into ``actions`` at arrays (or scalars) of states: the
        nearest grid node of each, clipped to the grid."""
        return self.action_idx[_nearest_node(self.pos_grid, pos),
                               _nearest_node(self.speed_grid, speed)]

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
        type (a non-integer action index, an infinite iteration count), or
        tables that do not fit the grids raise TraceFormatError."""
        try:
            policy = cls(
                pos_grid=np.asarray(doc["pos_grid"], dtype=float),
                speed_grid=np.asarray(doc["speed_grid"], dtype=float),
                value=np.asarray(doc["value"], dtype=float),
                action_idx=np.asarray(doc["action_idx"]),
                actions=tuple(doc["actions"]),
                iterations=int(doc.get("iterations", 0)),
                residual=float(doc.get("residual", 0.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TraceFormatError(
                f"malformed policy: {type(exc).__name__}: {exc}") from None
        shape = (policy.pos_grid.size, policy.speed_grid.size)
        if not (policy.pos_grid.ndim == policy.speed_grid.ndim == 1
                and min(shape) >= 2
                and policy.value.shape == policy.action_idx.shape == shape
                and all(map(_is_number, policy.actions))
                and policy.action_idx.dtype.kind == "i"  # JSON integers
                and np.all(policy.action_idx >= 0)
                and np.all(policy.action_idx < len(policy.actions))):
            raise TraceFormatError("policy tables do not fit its grids and "
                                   "actions")
        for name in ("pos_grid", "speed_grid"):
            with np.errstate(over="ignore"):  # an overflow is an inf step
                steps = np.diff(getattr(policy, name))
            if not (np.all(np.isfinite(steps)) and np.all(steps > 0)):
                raise TraceFormatError(f"policy {name} is not finite and "
                                       f"strictly increasing")
        if not all(map(_is_finite, policy.actions)):
            raise TraceFormatError("policy actions are not all finite")
        return policy


def _nearest_node(grid, x):
    """Index of the nearest node of a regular grid to each of ``x``,
    clipped to the grid."""
    u = np.rint((x - grid[0]) / (grid[1] - grid[0]))
    return np.clip(u, 0, grid.size - 1).astype(np.intp)


def check_tolerance(tolerance: float) -> None:
    """Raise unless a value-iteration tolerance is finite and positive."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ParameterError(f"tolerance {tolerance:g} must be finite and > 0")


@np.errstate(over="ignore")  # an overflow ends as a non-finite residual
def dp_solve(config: RoadConfig, tolerance: float = 1e-6,
             max_iters: int = 200000) -> GridPolicy:
    """Value iteration over the grid until the max value change drops below
    ``tolerance``; successor values are bilinearly interpolated between the
    four surrounding grid nodes.

    Raises on non-convergence, reporting the residual reached, and at the
    first sweep whose residual is not finite (the values overflowed).
    """
    check_tolerance(tolerance)
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


def generate_dataset(config: RoadConfig, policy: GridPolicy, n_samples: int,
                     episode_len: int, seed: int) -> TraceDataset:
    """Run the greedy policy from uniform random starts until enough samples
    accumulate; deterministic for a given seed.

    Episodes stop at termination or after ``episode_len`` steps; the final
    episode is trimmed so the sample count is exact (and marked truncated if
    the trim removed its ending).  Episodes run in rounds, a batch at a time
    in lockstep; each round draws its starts as (pos, speed) pairs in one
    call, so the random stream, and the trace, are those of drawing one
    episode's start at a time.
    """
    if n_samples < 1 or episode_len < 1:
        raise ParameterError("n_samples and episode_len must be >= 1")
    rng = np.random.default_rng(seed)
    low = (config.pos_range[0], config.speed_range[0])
    high = (config.pos_range[1], config.speed_range[1])
    states = np.empty((n_samples, 2))
    actions, rewards = np.empty(n_samples), np.empty(n_samples)
    episodes = []  # each round's episode starts and flags
    need, rounds, runs, run_samples = n_samples, 0, 0, 0
    while need:
        # no sample past ``need`` is kept, so no run goes further; start as
        # many runs as the mean run length so far says will fill the need,
        # and at least 2**rounds, so that even if every run lasts one step
        # there are O(log n) rounds
        steps = min(episode_len, need)
        mean = run_samples / runs if runs else steps
        k = min(need, max(math.ceil(need / mean), 1 << rounds))
        starts = rng.uniform(low, high, size=(k, 2))
        filled = n_samples - need
        first, terminal, kept, simulated = _run_episodes(
            config, policy, starts, steps,
            (states[filled:], actions[filled:], rewards[filled:]))
        episodes.append((filled + first, terminal))
        need -= kept
        rounds, runs, run_samples = (rounds + 1, runs + k,
                                     run_samples + simulated)
    firsts, terminals = map(np.concatenate, zip(*episodes))
    return TraceDataset(states, actions, rewards, firsts, terminals, DISCRETE,
                        list(FEATURE_NAMES))


def _run_episodes(config, policy, starts, steps, out):
    """Run the greedy policy from each start for up to ``steps`` steps, one
    array step for every live run; then cut the runs into episodes, in start
    order, into the ``room`` rows of the columns ``out`` (states, actions,
    rewards) until they are filled (trimming the last).

    A live run is cut as soon as its next sample cannot land within the
    room, whatever the runs before it do: after step t the run of rank r
    among the live ones starts at or past ``done + r * (t + 1)``, where
    ``done`` counts the samples of the ended runs before it.  So at step t
    at most ``room / t`` runs are live, and a round simulates at most about
    ``room * (2 + ln steps)`` samples however many runs it starts.

    Returns the kept episodes' first rows and flags, the rows filled and the
    number of samples simulated."""
    room = len(out[2])
    accel = np.asarray(policy.actions, dtype=float)
    live = np.arange(len(starts))
    pos, speed = starts.T
    done = np.zeros(len(starts), dtype=np.int64)
    length = np.full(len(starts), steps)
    terminal = np.zeros(len(starts), dtype=bool)
    record = []  # per step: the live runs and their state, action, reward
    for t in range(steps):
        acc = accel[policy.action_indices(pos, speed)]
        pos2, speed2, reward, term = _advance(config, pos, speed, acc)
        record.append((live, pos, speed, acc, reward))
        if term.any():
            length[live[term]] = t + 1
            terminal[live[term]] = True
            keep = ~term
            done = (done + (t + 1) * (np.cumsum(term) - term))[keep]
            live, pos, speed = live[keep], pos2[keep], speed2[keep]
        else:
            pos, speed = pos2, speed2
        # cut the live runs whose next sample lands past the room
        if live.size and done[-1] + live.size * (t + 1) >= room:
            next_at = done + np.arange(1, live.size + 1) * (t + 1)
            cut = int(np.searchsorted(next_at, room))
            length[live[cut:]] = t + 1
            live, pos, speed, done = (live[:cut], pos[:cut], speed[:cut],
                                      done[:cut])
        if not live.size:
            break

    # cut the runs in start order: all runs up to the one that fills the
    # room, that one trimmed to fit
    ends = np.cumsum(length)
    used = min(int(np.searchsorted(ends, room)) + 1, ends.size)
    kept = min(int(ends[used - 1]), room)
    terminal[used - 1] &= kept == ends[used - 1]

    # the step-t sample of run e lands at start[e] + t; only the kept ones
    # are written, a step at a time, dropping each step's record once written
    start = ends - length
    columns = (out[0][:, 0], out[0][:, 1], *out[1:])
    for t in range(len(record) - 1, -1, -1):
        runs, *values = record.pop()
        at = start[runs] + t
        mask = at < kept
        at = at[mask]
        for column, value in zip(columns, values):
            column[at] = value[mask]
    return start[:used], terminal[:used], kept, int(ends[-1])


def save_policy(policy: GridPolicy, path):
    with open(path, "wb") as fh:
        fh.write(json_bytes(policy.to_json()))


def load_policy(path) -> GridPolicy:
    with open(path, "rb") as fh:
        return GridPolicy.from_json(json.loads(fh.read().decode()))
