import numpy as np
import pytest

from tripletree import dataset as ds
from tripletree import road_env as road
from tripletree import tree as tr
from tripletree.errors import ParameterError


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
        action = policy.action_at(state)
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


def test_policy_json_round_trip(road_fixture, tmp_path):
    _, policy, _, _ = road_fixture
    path = tmp_path / "policy.json"
    road.save_policy(policy, path)
    back = road.load_policy(path)
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
            assert r == pytest.approx(ep.rewards[t])
            if t + 1 < len(ep):
                assert not term
                assert (p2, v2) == (pytest.approx(ep.states[t + 1][0]),
                                    pytest.approx(ep.states[t + 1][1]))
            elif ep.terminal:
                assert term or len(ep) == 100


# ---------------------------------------------------------------------------
# Weighting sweep
# ---------------------------------------------------------------------------

def test_theta_sweep_degenerate_grid(road_fixture):
    cfg, _, data, _ = road_fixture
    result = road.theta_sweep(cfg, data, [(1.0, 0.0, 0.0)], max_leaves=20)
    assert result["best_theta"] == (1.0, 0.0, 0.0)
    assert len(result["rows"]) == 1


def test_theta_sweep_vertices_minimise_their_own_columns(road_fixture):
    cfg, _, data, _ = road_fixture
    grid = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
            (1 / 3, 1 / 3, 1 / 3)]
    result = road.theta_sweep(cfg, data, grid, max_leaves=60)
    rows = {r["theta"]: r for r in result["rows"]}
    cols = ["action_loss", "value_loss", "deriv_loss"]
    for c, vertex in enumerate(road.EXCLUSIVE_THETAS):
        own = rows[vertex][cols[c]]
        assert own <= min(r[cols[c]] for r in result["rows"]) + 1e-12
        # normalised diagonals are exactly 1 (or 0/0 treated as 1)
        opt = list(result["exclusive_optima"].values())[c]
        assert own == pytest.approx(opt)


@pytest.mark.xfail(
    reason="at matched leaf budgets the derivative channel dominates the "
    "worst-loss minimax on this task, so no weighting with the value "
    "component strictly largest wins the sweep", strict=False)
def test_theta_sweep_winner_emphasises_value(road_fixture):
    cfg, _, data, _ = road_fixture
    result = road.theta_sweep(cfg, data, road.simplex_theta_grid(5),
                              max_leaves=60)
    ta, tv, td = result["best_theta"]
    assert tv > ta and tv > td


def test_simplex_grid_covers_vertices():
    grid = road.simplex_theta_grid(5)
    assert len(grid) == 21
    for vertex in road.EXCLUSIVE_THETAS:
        assert vertex in grid
    assert all(abs(sum(t) - 1.0) < 1e-12 for t in grid)


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
