import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletree import dataset as ds
from tripletree import road_env as road
from tripletree import tree as tr
from tripletree.errors import ParameterError, TraceFormatError

from . import reference as ref


def test_step_dynamics_examples():
    cfg = road.RoadConfig(r_left=-100, r_right=-100, r_speed=1.0)
    (pos, speed), r, term = road.step(cfg, (1.0, 0.05), 0.001)
    assert (pos, speed) == (pytest.approx(1.051), pytest.approx(0.051))
    assert r == pytest.approx(0.051)
    assert not term

    (_, _), r, term = road.step(cfg, (2.99, 0.099), 0.001)
    assert term and r == cfg.r_right  # pos' = 3.09 crosses the right end

    (_, speed), _, _ = road.step(cfg, (1.0, 0.1), 0.001)
    assert speed == 0.1  # clamped at the speed limit

    (_, _), r, term = road.step(cfg, (0.01, -0.05), -0.001)
    assert term and r == cfg.r_left


def test_config_validation():
    with pytest.raises(ParameterError):
        road.RoadConfig(r_left=0, r_right=0, r_speed=0, grid=(1, 5))
    with pytest.raises(ParameterError):
        road.RoadConfig(r_left=0, r_right=0, r_speed=0, gamma=1.5)
    for ranges in ({"pos_range": (3.0, 0.0)}, {"speed_range": (0.1, 0.1)}):
        with pytest.raises(ParameterError):
            road.RoadConfig(r_left=0, r_right=0, r_speed=0, **ranges)


@pytest.mark.parametrize("field, value, message", [
    ("actions", (), "actions must not be empty"),
    ("actions", (0.001, math.nan), "ranges and actions must be finite"),
    ("pos_range", (0.0, math.inf), "ranges and actions must be finite"),
    ("speed_range", (-math.inf, 0.1), "ranges and actions must be finite")])
def test_config_rejects_unusable_actions_and_ranges(field, value, message):
    # each was accepted, and dp_solve then raised a bare ValueError (no
    # actions) or warned of invalid values in its arithmetic
    with pytest.raises(ParameterError, match=f"^{message}$"):
        road.RoadConfig(r_left=0, r_right=0, r_speed=0, **{field: value})
    # a JSON config is checked before it is built, with its own messages
    doc = {"r_left": 0, "r_right": 0, "r_speed": 0, field: list(value)}
    want = ("road config 'actions' is not a list of the right numbers"
            if not value else "road config holds a number that is not finite")
    with pytest.raises(TraceFormatError, match=f"^{want}$"):
        road.RoadConfig.from_json(doc)


def test_dp_solve_toy_grid_matches_inline_backups():
    cfg = road.RoadConfig(r_left=-4.0, r_right=8.0, r_speed=0.5,
                          gamma=0.5, grid=(2, 2))
    got = road.dp_solve(cfg, tolerance=1e-12)

    # independent fixed-point iteration written directly from the update rule
    pos = np.array([0.0, 3.0])
    spd = np.array([-0.1, 0.1])

    def backup(V):
        new = np.zeros((2, 2))
        for i, p in enumerate(pos):
            for j, v in enumerate(spd):
                qs = []
                for acc in cfg.actions:
                    v2 = min(max(v + acc, -0.1), 0.1)
                    p2 = p + v2
                    if p2 < 0:
                        qs.append(cfg.r_left)
                        continue
                    if p2 > 3:
                        qs.append(cfg.r_right)
                        continue
                    fx = (p2 - 0.0) / 3.0
                    fy = (v2 + 0.1) / 0.2
                    interp = ((1 - fx) * (1 - fy) * V[0, 0]
                              + (1 - fx) * fy * V[0, 1]
                              + fx * (1 - fy) * V[1, 0]
                              + fx * fy * V[1, 1])
                    qs.append(cfg.r_speed * abs(v2) + cfg.gamma * interp)
                new[i, j] = max(qs)
        return new

    V = np.zeros((2, 2))
    for _ in range(200):
        V = backup(V)
    assert np.allclose(got.value, V, atol=1e-9)


def test_dp_mirror_symmetry(road_fixture):
    cfg, policy, _, _ = road_fixture
    V = policy.value
    assert np.max(np.abs(V - V[::-1, ::-1])) < 1e-5


def test_dp_policy_survives_from_centre(road_fixture):
    cfg, policy, _, _ = road_fixture
    state = (1.5, 0.0)
    for k in range(150):
        action = ref.road_action_at(policy, state)
        state, _, terminal = road.step(cfg, state, action)
        if terminal:
            pytest.fail(f"crashed after {k} steps")


def test_dp_policy_greedy_wrt_own_values(road_fixture):
    cfg, policy, _, _ = road_fixture
    rng = np.random.default_rng(0)
    for _ in range(40):
        i = int(rng.integers(policy.pos_grid.size))
        j = int(rng.integers(policy.speed_grid.size))
        s = (policy.pos_grid[i], policy.speed_grid[j])
        qs = []
        for acc in policy.actions:
            (p2, v2), r, term = road.step(cfg, s, acc)
            if term:
                qs.append(r)
            else:
                qs.append(r + cfg.gamma * _bilinear(policy, p2, v2))
        assert policy.action_idx[i, j] == int(np.argmax(qs))


def _bilinear(policy, p, v):
    pos, spd = policy.pos_grid, policy.speed_grid
    i = int(np.clip(np.searchsorted(pos, p) - 1, 0, pos.size - 2))
    j = int(np.clip(np.searchsorted(spd, v) - 1, 0, spd.size - 2))
    fx = np.clip((p - pos[i]) / (pos[i + 1] - pos[i]), 0, 1)
    fy = np.clip((v - spd[j]) / (spd[j + 1] - spd[j]), 0, 1)
    V = policy.value
    return ((1 - fx) * (1 - fy) * V[i, j] + (1 - fx) * fy * V[i, j + 1]
            + fx * (1 - fy) * V[i + 1, j] + fx * fy * V[i + 1, j + 1])


def test_dp_nonconvergence_raises():
    cfg = road.RoadConfig(r_left=-100, r_right=-100, r_speed=1.0)
    with pytest.raises(ParameterError, match="residual"):
        road.dp_solve(cfg, tolerance=1e-12, max_iters=5)


def test_policy_json_round_trip(road_fixture):
    _, policy, _, _ = road_fixture
    back = road.GridPolicy.from_json(
        ds.json_document(ds.json_bytes(policy.to_json()), "policy"))
    assert np.array_equal(back.value, policy.value)
    assert np.array_equal(back.action_idx, policy.action_idx)
    assert back.actions == policy.actions


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def test_generate_dataset_deterministic(road_fixture):
    cfg, policy, _, _ = road_fixture
    a = road.generate_dataset(cfg, policy, 500, 40, seed=7)
    b = road.generate_dataset(cfg, policy, 500, 40, seed=7)
    assert ds.trace_to_csv_bytes(a) == ds.trace_to_csv_bytes(b)
    c = road.generate_dataset(cfg, policy, 500, 40, seed=8)
    assert ds.trace_to_csv_bytes(a) != ds.trace_to_csv_bytes(c)


def test_generate_dataset_structure(road_fixture):
    cfg, policy, data, _ = road_fixture
    assert data.n_samples == 3000
    assert 3000 // 100 <= len(data.episodes) <= 3000
    for ep in data.episodes:
        assert 1 <= len(ep) <= 100
        assert np.all(ep.states[:, 0] >= cfg.pos_range[0])
        assert np.all(ep.states[:, 0] <= cfg.pos_range[1])
        assert np.all(ep.states[:, 1] >= cfg.speed_range[0])
        assert np.all(ep.states[:, 1] <= cfg.speed_range[1])
        assert set(np.unique(ep.actions)) <= set(cfg.actions)
    assert data.feature_names == ["pos", "speed"]
    assert data.action_kind == ds.DISCRETE


def test_generated_rewards_match_dynamics(road_fixture):
    cfg, _, data, _ = road_fixture
    for ep in data.episodes[:20]:
        for t in range(len(ep)):
            (p2, v2), r, term = road.step(cfg, tuple(ep.states[t]),
                                          float(ep.actions[t]))
            assert r == ep.rewards[t]
            if t + 1 < len(ep):
                assert not term
                assert (p2, v2) == tuple(ep.states[t + 1])
            elif ep.terminal:
                assert term or len(ep) == 100


def test_huge_episode_len_runs_no_step_past_the_sample_count(road_fixture):
    cfg, policy, _, _ = road_fixture
    for n in (10, 2000):
        start = time.perf_counter()
        data = road.generate_dataset(cfg, policy, n, 10 ** 9, seed=3)
        assert time.perf_counter() - start < 2.0
        assert ds.trace_to_csv_bytes(data) == ds.trace_to_csv_bytes(
            road.generate_dataset(cfg, policy, n, n, seed=3))


def test_a_round_simulates_a_bounded_number_of_samples(road_fixture,
                                                       monkeypatch):
    # with seed 25 the first run meets a wall at its fifth step, so the next
    # round starts about n / 5 runs, and on this road many of them never
    # meet one: each run is cut once its samples cannot land within the room
    cfg, policy, _, _ = road_fixture
    rounds = []
    run_episodes = road._run_episodes

    def counted(config, policy, starts, steps, out):
        result = run_episodes(config, policy, starts, steps, out)
        rounds.append((len(starts), steps, len(out[2]), result[-1]))
        return result

    monkeypatch.setattr(road, "_run_episodes", counted)
    n = 2000
    data = road.generate_dataset(cfg, policy, n, 10 ** 9, seed=25)
    assert max(k for k, *_ in rounds) > 100
    for _, steps, room, simulated in rounds:
        assert simulated <= room * (2 + math.log(steps))
    assert ds.trace_to_csv_bytes(data) == ds.trace_to_csv_bytes(
        ref.generate_road_dataset(cfg, policy, n, n, 25))


def test_the_run_that_fills_the_trace_keeps_its_last_sample(road_fixture):
    # with seed 11 the second round has room for 3 samples and starts 2
    # runs; after its second step the later run is cut, since its samples
    # cannot land within the room, while the first still has one to record
    cfg, policy, _, _ = road_fixture
    got = road.generate_dataset(cfg, policy, 50, 12, seed=11)
    want = ref.generate_road_dataset(cfg, policy, 50, 12, 11)
    assert ds.trace_to_csv_bytes(got) == ds.trace_to_csv_bytes(want)


def test_integer_config_numbers_give_float_arithmetic():
    # the config stores its numbers as floats: with an integer speed bound 0
    # and an integer negative r_speed, a stopped car's reward is -0.0, where
    # Python int arithmetic gave 0
    cfg = road.RoadConfig.from_json(
        {"r_left": -1, "r_right": 1, "r_speed": -1, "pos_range": [0, 100],
         "speed_range": [0, 1], "actions": [-1]})
    assert all(type(v) is float for v in (cfg.r_left, cfg.r_right,
                                          cfg.r_speed, *cfg.pos_range,
                                          *cfg.speed_range, *cfg.actions))
    (_, speed2), reward, _ = road.step(cfg, (1.0, 0.5), cfg.actions[0])
    assert repr((speed2, reward)) == "(0.0, -0.0)"
    data = road.generate_dataset(cfg, road.dp_solve(cfg), 50, 10, seed=0)
    rewards = np.concatenate([ep.rewards for ep in data.episodes])
    assert rewards.size == 50
    assert np.all(rewards == 0.0) and np.all(np.signbit(rewards))


def test_every_run_lasting_one_step_fills_the_trace():
    # the road is shorter than the slowest speed, so every episode ends at
    # its first step, and each round must start far more runs than the last
    cfg = road.RoadConfig(r_left=-1.0, r_right=1.0, r_speed=1.0,
                          pos_range=(0.0, 1e-4), speed_range=(0.05, 0.1))
    policy = road.dp_solve(cfg)
    data = road.generate_dataset(cfg, policy, 3000, 100, seed=0)
    assert len(data.episodes) == 3000
    assert all(ep.terminal for ep in data.episodes)
    assert ds.trace_to_csv_bytes(data) == ds.trace_to_csv_bytes(
        ref.generate_road_dataset(cfg, policy, 3000, 100, 0))


_SMALL = st.one_of(st.integers(-3, 3), st.sampled_from([0.0, -0.0]),
                   st.floats(-3.0, 3.0, allow_subnormal=False))


def _increasing(draw, low, width, size):
    steps = [draw(st.floats(1e-3, max(width, 1e-3))) for _ in range(size - 1)]
    return list(np.cumsum([float(low)] + steps))


@st.composite
def road_configs(draw):
    """A road config read from a JSON document with integer-valued numbers
    among its floats, and signed zeros among its speed bounds.  The config
    turns the integers into floats, so both generators see floats: the
    integers check that reading them changes nothing else."""
    p_lo = draw(_SMALL)
    p_width = draw(st.one_of(st.integers(1, 4), st.floats(1e-3, 10.0)))
    s_lo = draw(st.one_of(st.sampled_from([0.0, -0.0, 0, -1]),
                          st.floats(-1.0, 0.5)))
    s_width = draw(st.one_of(st.integers(1, 2), st.floats(1e-3, 2.0)))
    s_hi = draw(st.sampled_from([0.0, -0.0, s_lo + s_width])) if s_lo < 0 \
        else s_lo + s_width
    actions = draw(st.lists(st.one_of(
        _SMALL, st.floats(-s_width, s_width, allow_subnormal=False)),
        min_size=1, max_size=4))
    doc = {"r_left": draw(_SMALL), "r_right": draw(_SMALL),
           "r_speed": draw(_SMALL), "gamma": draw(st.floats(0.0, 0.9)),
           "grid": [draw(st.integers(2, 6)), draw(st.integers(2, 6))],
           "pos_range": [p_lo, p_lo + p_width],
           "speed_range": [s_lo, s_hi], "actions": actions}
    return road.RoadConfig.from_json(json.loads(json.dumps(doc)))


@st.composite
def road_cases(draw):
    """A road config and a policy for it, either solved from it or read
    from a JSON document of its own."""
    config = draw(road_configs())
    if draw(st.booleans()):
        return config, road.dp_solve(config)
    (p_lo, p_hi), (s_lo, s_hi) = config.pos_range, config.speed_range
    n_pos, n_speed = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    policy_actions = draw(st.lists(_SMALL, min_size=1, max_size=4))
    policy = {
        "pos_grid": _increasing(draw, p_lo - draw(st.floats(0.0, 1.0)),
                                p_hi - p_lo, n_pos),
        "speed_grid": _increasing(draw, s_lo - draw(st.floats(0.0, 1.0)),
                                  s_hi - s_lo, n_speed),
        "value": [[0.0] * n_speed] * n_pos,
        "action_idx": [[draw(st.integers(0, len(policy_actions) - 1))
                        for _ in range(n_speed)] for _ in range(n_pos)],
        "actions": policy_actions}
    return config, road.GridPolicy.from_json(json.loads(json.dumps(policy)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=road_cases(), n_samples=st.integers(1, 5000),
       episode_len=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_lockstep_generator_writes_the_bytes_of_the_step_loop(
        case, n_samples, episode_len, seed):
    """Both generators write the same bytes.  The integer-valued numbers of
    the drawn JSON configs are floats by the time either generator runs:
    ``RoadConfig`` converts them (``test_integer_config_numbers_give_float_
    arithmetic`` pins that change)."""
    config, policy = case
    got = road.generate_dataset(config, policy, n_samples, episode_len, seed)
    want = ref.generate_road_dataset(config, policy, n_samples, episode_len,
                                     seed)
    assert ds.trace_to_csv_bytes(got) == ds.trace_to_csv_bytes(want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=road_configs(), data=st.data())
def test_step_follows_the_scalar_dynamics_bit_for_bit(config, data):
    # states and actions at the clamp bounds and signed zeros, whose sign
    # the clamp keeps, and NaN, which it passes on
    s_lo, s_hi = config.speed_range
    edges = st.sampled_from([0.0, -0.0, s_lo, s_hi, float("nan"),
                             *config.actions])
    pos = data.draw(st.one_of(st.floats(*config.pos_range), edges))
    speed = data.draw(st.one_of(st.floats(s_lo, s_hi), edges))
    action = data.draw(st.one_of(edges, st.floats(-2.0, 2.0)))
    got = road.step(config, (pos, speed), action)
    (q2, w2), r, term = ref.road_step(config, (pos, speed), action)
    assert repr(got) == repr(((float(q2), float(w2)), float(r), term))


def test_step_is_the_scalar_view_of_the_array_dynamics(road_fixture):
    cfg, policy, _, _ = road_fixture
    rng = np.random.default_rng(5)
    states = rng.uniform((-0.5, -0.15), (3.5, 0.15), size=(200, 2))
    for pos, speed in states:
        action = ref.road_action_at(policy, (pos, speed))
        (p2, v2), r, term = road.step(cfg, (pos, speed), action)
        (q2, w2), s, end = ref.road_step(cfg, (pos, speed), action)
        assert (p2, v2, r, term) == (q2, w2, s, end)
        assert type(p2) is type(v2) is type(r) is float
        assert type(term) is bool


@pytest.mark.parametrize("grid", [[0.0, float("nan")], [0.0, 0.0, 3.0],
                                  [0.0, float("inf")], [3.0, 0.0]])
def test_policy_grid_not_finite_and_increasing_is_a_format_error(grid):
    doc = {"pos_grid": grid, "speed_grid": [-0.1, 0.1],
           "value": [[0.0, 0.0]] * len(grid),
           "action_idx": [[0, 1]] * len(grid), "actions": [-0.001, 0.001]}
    with pytest.raises(TraceFormatError, match="pos_grid"):
        road.GridPolicy.from_json(json.loads(json.dumps(doc)))


def test_dp_residual_monotone_after_burn_in(road_fixture):
    _, policy, _, _ = road_fixture
    hist = policy.residual_history
    assert len(hist) == policy.iterations
    tail = hist[5:]
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(tail, tail[1:]))


def test_equal_weighting_losses_fall_well_below_small_budget(road_fixture):
    cfg, _, _, aug = road_fixture
    curve = tr.grow(aug, np.array([1 / 3, 1 / 3, 1 / 3]), 200).loss_curve
    at_10 = curve[9]
    at_end = curve[-1]
    assert len(curve) == 200
    for c in range(3):
        assert at_end[c] < at_10[c]


@pytest.mark.parametrize("rewards", [(100.0, -100.0, 1.0),
                                     (100.0, 100.0, 1.0),
                                     (0.0, -100.0, 1.0)])
def test_exclusive_weightings_win_columns_on_other_variants(rewards):
    rl, rr, rs = rewards
    cfg = road.RoadConfig(r_left=rl, r_right=rr, r_speed=rs)
    policy = road.dp_solve(cfg, tolerance=1e-6)
    data = road.generate_dataset(cfg, policy, 6000, 100, seed=0)
    aug = ds.augment(data, cfg.gamma)
    thetas = {"a": (1.0, 0, 0), "v": (0, 1.0, 0), "d": (0, 0, 1.0),
              "e": (1 / 3, 1 / 3, 1 / 3)}
    losses = {k: tr.evaluate_losses(tr.grow(aug, np.array(t), 150), aug)
              for k, t in thetas.items()}
    for c, ex in enumerate("avd"):
        assert losses[ex][c] <= min(l[c] for l in losses.values()) + 1e-12
