import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ltlfplan import pbvi
from ltlfplan.dfa import compile_minimal_dfa
from ltlfplan.ltlf import TRUE, parse_formula
from ltlfplan.pbvi import (
    AlphaPolicy, SolverConfig, TimeIndexedPolicy, _backup_tables, _point_backup,
    check_policy, exact_value_oracle, load_policy, policy_from_dict, policy_to_dict, save_policy,
    solve_discounted, solve_finite_horizon, start_value,
)
from ltlfplan.planner import scalarize
from ltlfplan.pomdp import LabeledPomdp, StoppingModel, derive_seed, make_rng, sample_trajectory
from ltlfplan.product import build_product
from ltlfplan.benchmarks import PRESETS, build_instance, random_tiny_model, twostate_constrained

from helpers import (
    deterministic_chain, fully_observable, mdp_value_iteration_discounted,
    mdp_value_iteration_finite, uninformative_two_state,
)


def product_of(model, spec_text):
    dfa = compile_minimal_dfa(parse_formula(spec_text), atoms=model.atoms)
    return build_product(model, dfa)


def trivial_product(model):
    return product_of(model, "true")


# --------------------------------------------------------------------------
# Discounted solver
# --------------------------------------------------------------------------

def test_single_state_geometric_series():
    P = np.ones((1, 1, 1))
    m = LabeledPomdp("unit", ["s"], ["a"], ["o"], P, np.ones((1, 1)), np.ones(1),
                     (), np.zeros(1, dtype=np.int64), np.ones((1, 1)),
                     StoppingModel.geometric(0.5))
    prod = trivial_product(m)
    policy = solve_discounted(prod, prod.rewards, 0.5, SolverConfig(n_beliefs=1))
    assert policy.value_at(np.ones(1)) == pytest.approx(2.0, abs=1e-6)


def test_fully_observable_matches_exact_value_iteration():
    P = np.zeros((2, 2, 2))
    P[0, 0] = (1.0, 0.0)
    P[0, 1] = (0.2, 0.8)
    P[1, 0] = (0.0, 1.0)
    P[1, 1] = (0.7, 0.3)
    R = np.array([[0.2, 0.0], [1.0, 0.4]])
    gamma = 0.9
    m = fully_observable(P, R, gamma=gamma)
    prod = trivial_product(m)
    cfg = SolverConfig(n_beliefs=16, max_backup_rounds=2000, bellman_tolerance=1e-9)
    policy = solve_discounted(prod, prod.rewards, gamma, cfg)
    V = mdp_value_iteration_discounted(P, R, gamma)
    for s in range(2):
        point = np.zeros(2)
        point[s] = 1.0
        assert policy.value_at(point) == pytest.approx(V[s], abs=1e-6)


def test_solver_value_consistent_with_rollouts():
    model, _ = twostate_constrained(0.8)
    prod = product_of(model, "F g")
    cfg = SolverConfig(n_beliefs=12, max_backup_rounds=1000, bellman_tolerance=1e-9)
    policy = solve_discounted(prod, prod.rewards, 0.8, cfg)
    n = 10_000
    totals = np.empty(n)
    for i in range(n):
        totals[i] = sample_trajectory(prod, policy, derive_seed(31, i)).rewards.sum()
    se = totals.std(ddof=1) / np.sqrt(n)
    assert abs(totals.mean() - start_value(policy, prod)) <= 3 * se


def test_monotone_improvement_and_bounds(monkeypatch):
    """Point values at the belief set never fall as the round cap grows,
    from cap 0 (the floor and warm-start winners) to the converged solve."""
    model = uninformative_two_state(stopping=StoppingModel.geometric(0.9))
    prod = trivial_product(model)
    cfg = SolverConfig(n_beliefs=24, max_backup_rounds=300, bellman_tolerance=1e-8)
    policy = solve_discounted(prod, prod.rewards, 0.9, cfg)
    beliefs = policy.stats["beliefs"]
    rounds = policy.stats["rounds"]
    assert policy.converged and rounds > 1

    def capped(cap):
        return solve_discounted(prod, prod.rewards, 0.9, replace(cfg, max_backup_rounds=cap))

    # Same seed, same walk: the first and last caps rebuild this belief set,
    # so the sweep below reuses it instead of repeating the walk per cap.
    for cap in (0, rounds):
        assert np.array_equal(capped(cap).stats["beliefs"], beliefs)
    monkeypatch.setattr(pbvi, "expand_beliefs_random_walk", lambda *args: beliefs)
    values = [(beliefs @ capped(cap).alphas.T).max(axis=1) for cap in range(rounds + 1)]
    for older, newer in zip(values, values[1:]):
        assert np.all(newer >= older - 1e-12)
    assert np.any(values[-1] > values[0])
    assert np.array_equal(values[-1], (beliefs @ policy.alphas.T).max(axis=1))
    lo = prod.rewards.min() / (1 - 0.9)
    hi = prod.rewards.max() / (1 - 0.9)
    assert np.all(policy.alphas >= lo - 1e-9)
    assert np.all(policy.alphas <= hi + 1e-9)


def test_solver_deterministic():
    model = uninformative_two_state(stopping=StoppingModel.geometric(0.9))
    prod = trivial_product(model)
    cfg = SolverConfig(n_beliefs=24, max_backup_rounds=120, expansion_seed=5)
    p1 = solve_discounted(prod, prod.rewards, 0.9, cfg)
    p2 = solve_discounted(prod, prod.rewards, 0.9, cfg)
    assert np.array_equal(p1.actions, p2.actions)
    assert np.array_equal(p1.alphas, p2.alphas)


def test_nonconvergence_flagged_not_raised():
    model = uninformative_two_state(stopping=StoppingModel.geometric(0.99))
    prod = trivial_product(model)
    policy = solve_discounted(prod, prod.rewards, 0.99,
                              SolverConfig(n_beliefs=8, max_backup_rounds=3))
    assert policy.converged is False


def test_discounted_argument_validation():
    model = uninformative_two_state()
    prod = trivial_product(model)
    with pytest.raises(ValueError):
        solve_discounted(prod, prod.rewards, 1.0, SolverConfig())
    with pytest.raises(ValueError):
        solve_discounted(prod, np.zeros((3, 3)), 0.9, SolverConfig())
    with pytest.raises(ValueError):
        SolverConfig(n_beliefs=0)


# --------------------------------------------------------------------------
# The point backup against the dense back-projection formula
# --------------------------------------------------------------------------

NEAR_TIE = 1e-12


def dense_point_backup(prod, reward, gamma, beliefs, mat):
    """Reference backup through the dense back-projections
    G_a[x, o, i] = sum_y P[x, a, y] Z[y, o] alpha_i[y].

    Returns (new_mat, new_acts, values, clear) where clear[b] says that no
    near-tie decided row b: neither between actions nor, for the chosen
    action, at an observation o of positive mass between alphas that differ
    where Z[:, o] > 0 (alphas equal there back-project to the same vector).
    """
    X, A, O = prod.n_states, prod.n_actions, prod.n_observations
    n, nb = mat.shape[0], beliefs.shape[0]
    W = (prod.Z[:, :, None] * mat.T[:, None, :]).reshape(X, O * n)
    # same_on[o, i, j]: alphas i and j agree on the states that can emit o
    same_on = np.stack([np.all(mat[:, None, prod.Z[:, o] > 0] == mat[None, :, prod.Z[:, o] > 0],
                               axis=2) for o in range(O)])
    scale = 1.0 + np.abs(mat).max()
    vecs = np.empty((A, nb, X))
    values = np.empty((A, nb))
    alpha_clear = np.empty((A, nb), dtype=bool)
    for a in range(A):
        G = (prod.P[:, a, :] @ W).reshape(X, O, n)
        scores = (beliefs @ G.reshape(X, O * n)).reshape(nb, O, n)
        best = scores.argmax(axis=2)
        vecs[a] = reward[None, :, a] + gamma * G.transpose(1, 0, 2)[np.arange(O), :, best].sum(axis=1)
        values[a] = (vecs[a] * beliefs).sum(axis=1)
        # scores are mass-weighted posterior values: a near-tie is relative to the mass
        mass = (beliefs @ prod.P[:, a, :]) @ prod.Z
        near = scores >= scores.max(axis=2, keepdims=True) - NEAR_TIE * scale * mass[:, :, None]
        same = same_on[np.arange(O)[None, :], best]  # (nb, O, n)
        alpha_clear[a] = np.all((mass == 0) | np.all(same | ~near, axis=2), axis=1)
    choice = values.argmax(axis=0)
    rows = np.arange(nb)
    ranked = np.sort(values, axis=0)
    action_clear = ranked[-1] - ranked[-2] > NEAR_TIE * scale if A > 1 else np.ones(nb, dtype=bool)
    clear = action_clear & alpha_clear[choice, rows]
    return vecs[choice, rows], choice, values[choice, rows], clear


def random_sparse_instance(seed, X=14, A=3, O=6, n_alphas=9, n_beliefs=40):
    """Sparse P (at most three successors per row) and sparse Z whose last
    column is all zero; a third of the beliefs sit on a single state, so
    many (belief, action, observation) triples carry no mass."""
    rng = make_rng(seed)
    P = np.zeros((X, A, X))
    for x in range(X):
        for a in range(A):
            succ = rng.choice(X, size=int(rng.integers(1, 4)), replace=False)
            P[x, a, succ] = rng.random(succ.size) + 0.1
    P /= P.sum(axis=2, keepdims=True)
    Z = np.zeros((X, O))
    for y in range(X):
        seen = rng.choice(O - 1, size=int(rng.integers(1, 3)), replace=False)
        Z[y, seen] = rng.random(seen.size) + 0.1
    Z /= Z.sum(axis=1, keepdims=True)
    beliefs = np.zeros((n_beliefs, X))
    for b in range(n_beliefs):
        support = rng.choice(X, size=1 if b % 3 == 0 else int(rng.integers(2, X + 1)), replace=False)
        beliefs[b, support] = rng.random(support.size) + 0.01
    beliefs /= beliefs.sum(axis=1, keepdims=True)
    prod = SimpleNamespace(P=P, Z=Z, n_states=X, n_actions=A, n_observations=O)
    return prod, rng.normal(size=(X, A)), beliefs, rng.normal(size=(n_alphas, X))


def assert_backups_agree(prod, reward, gamma, beliefs, mat, min_clear=0.5):
    want_mat, want_acts, want_values, clear = dense_point_backup(prod, reward, gamma, beliefs, mat)
    got_mat, got_acts, got_values = _point_backup(_backup_tables(prod), reward, gamma, beliefs, mat)
    assert np.array_equal(got_acts, want_acts)
    assert np.max(np.abs(got_values - want_values)) <= 1e-12
    assert clear.mean() >= min_clear  # the vector check below is not vacuous
    assert np.max(np.abs(got_mat[clear] - want_mat[clear])) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("gamma", [0.95, 1.0])
def test_point_backup_matches_dense_on_random_sparse_pomdps(seed, gamma):
    prod, reward, beliefs, mat = random_sparse_instance(seed)
    assert not prod.Z[:, -1].any()
    masses = np.einsum("bx,xay,yo->bao", beliefs, prod.P, prod.Z[:, :-1])
    assert (masses == 0).any()
    assert_backups_agree(prod, reward, gamma, beliefs, mat)


def test_point_backup_single_alpha():
    prod, reward, beliefs, mat = random_sparse_instance(7, n_alphas=1)
    assert_backups_agree(prod, reward, 1.0, beliefs, mat)


def test_point_backup_matches_dense_on_pruned_m7():
    _, _, prod = build_instance("M7")
    preset = PRESETS["M7"]
    gamma = prod.stopping.gamma
    for lam in (preset.B / 2, 0.0):
        reward, _ = scalarize(prod, lam, 1.0 - preset.threshold)
        policy = solve_discounted(prod, reward, gamma, SolverConfig(
            n_beliefs=100, max_backup_rounds=60, expansion_seed=1))
        assert policy.alphas.shape[0] > 10
        assert_backups_agree(prod, reward, gamma, policy.stats["beliefs"], policy.alphas)


# --------------------------------------------------------------------------
# Finite-horizon solver and the exact oracle
# --------------------------------------------------------------------------

def test_horizon_zero_picks_best_immediate_action():
    model = uninformative_two_state(rewards=((1.0, 0.0), (0.0, 2.0)))
    prod = trivial_product(model)
    policy = solve_finite_horizon(prod, prod.rewards, 0, SolverConfig(exhaustive=True))
    b0 = np.full(2, 0.5)
    # uninformative observation keeps the uniform prior; action 1 averages 1.0
    assert policy.action(b0, 0) == 1
    assert policy.value_at(b0, 0) == pytest.approx(1.0)
    with pytest.raises(IndexError):
        policy.action(b0, 1)


def test_zero_reward_zero_value():
    model = uninformative_two_state(rewards=((0.0, 0.0), (0.0, 0.0)))
    prod = trivial_product(model)
    policy = solve_finite_horizon(prod, prod.rewards, 2, SolverConfig(exhaustive=True))
    assert start_value(policy, prod) == pytest.approx(0.0)


def test_constant_reward_oracle():
    model = uninformative_two_state(rewards=((0.3, 0.3), (0.3, 0.3)))
    prod = trivial_product(model)
    for T in (0, 1, 3):
        assert exact_value_oracle(prod, prod.rewards, T) == pytest.approx(0.3 * (T + 1))


def test_oracle_deterministic_chain_hand_value():
    chain = deterministic_chain(3, reward_on={0: 1.0, 1: 5.0}, stopping=StoppingModel.fixed(1))
    prod = trivial_product(chain)
    # single action: collect r(s0) then r(s1)
    assert exact_value_oracle(prod, prod.rewards, 1) == pytest.approx(6.0)


def test_oracle_matches_exact_mdp_on_identity_observations():
    P = np.zeros((2, 2, 2))
    P[0, 0] = (1.0, 0.0)
    P[0, 1] = (0.0, 1.0)
    P[1, 0] = (0.5, 0.5)
    P[1, 1] = (1.0, 0.0)
    R = np.array([[0.1, 0.9], [2.0, 0.0]])
    m = fully_observable(P, R, gamma=0.9)
    prod = trivial_product(m)
    T = 3
    V = mdp_value_iteration_finite(P, R, T)
    want = float(m.varpi @ V)
    assert exact_value_oracle(prod, prod.rewards, T) == pytest.approx(want, abs=1e-12)


def test_finite_horizon_solver_matches_oracle_small():
    for seed, n_states, T in ((3, 2, 2), (4, 3, 3)):
        model = random_tiny_model(seed, n_states=n_states, horizon=T)
        prod = product_of(model, "F a")
        cfg = SolverConfig(exhaustive=True)
        lam = 0.7
        terminal = lam * prod.r_final
        policy = solve_finite_horizon(prod, prod.rewards, T, cfg, terminal=terminal)
        oracle = exact_value_oracle(prod, prod.rewards, T, terminal=terminal)
        assert start_value(policy, prod) == pytest.approx(oracle, abs=1e-9)


def test_oracle_guards_large_trees():
    model = uninformative_two_state()
    prod = trivial_product(model)
    with pytest.raises(RuntimeError):
        exact_value_oracle(prod, prod.rewards, 3, max_tree=2)


# --------------------------------------------------------------------------
# Action selection
# --------------------------------------------------------------------------

def test_policy_action_single_vector():
    policy = AlphaPolicy([[0.0, 1.0]], [2], gamma=0.9)
    assert policy.action(np.array([1.0, 0.0])) == 2
    assert policy.action(np.array([0.0, 1.0])) == 2


def test_policy_action_tie_breaks_low_index():
    policy = AlphaPolicy([[1.0, 1.0], [1.0, 1.0]], [3, 0], gamma=0.9)
    assert policy.action(np.array([0.5, 0.5])) == 3


def test_policy_action_dominating_action():
    policy = AlphaPolicy([[5.0, 0.0], [0.0, 5.0]], [0, 1], gamma=0.9)
    assert policy.action(np.array([1.0, 0.0])) == 0
    assert policy.action(np.array([0.0, 1.0])) == 1
    with pytest.raises(ValueError):
        policy.action(np.zeros(3))


@pytest.mark.parametrize("alphas, actions", [
    (np.zeros((0, 2)), []),               # no vectors
    ([0.0, 1.0], [0]),                    # not a matrix
    ([[0.0, np.nan]], [0]),               # non-finite entry
    ([[0.0, 1.0]], [0, 1]),               # one action per vector
])
def test_alpha_policy_rejects_malformed_arrays(alphas, actions):
    with pytest.raises(ValueError):
        AlphaPolicy(alphas, actions)


def test_check_policy_against_product():
    fixed = trivial_product(uninformative_two_state(stopping=StoppingModel.fixed(2)))
    geometric = trivial_product(uninformative_two_state(stopping=StoppingModel.geometric(0.9)))
    X, A = fixed.n_states, fixed.n_actions
    stationary = AlphaPolicy(np.zeros((1, X)), [A - 1])
    check_policy(stationary, fixed)
    check_policy(stationary, geometric)
    covering = TimeIndexedPolicy([stationary] * 3)
    check_policy(covering, fixed)
    for policy, prod in [
        (AlphaPolicy(np.zeros((1, X + 1)), [0]), fixed),     # wrong state count
        (AlphaPolicy(np.zeros((1, X)), [A]), fixed),         # action out of range
        (AlphaPolicy(np.zeros((1, X)), [-1]), fixed),
        (TimeIndexedPolicy([stationary] * 2), fixed),        # horizon 1 < T = 2
        (covering, geometric),                               # no fixed horizon
    ]:
        with pytest.raises(ValueError):
            check_policy(policy, prod)


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------

def test_policy_file_roundtrip(tmp_path):
    model = uninformative_two_state(stopping=StoppingModel.geometric(0.9))
    prod = trivial_product(model)
    policy = solve_discounted(prod, prod.rewards, 0.9, SolverConfig(n_beliefs=8, max_backup_rounds=40))
    path = tmp_path / "policy.json"
    save_policy(policy, path)
    again = load_policy(path)
    assert again.kind == "stationary"
    assert len(again.alphas) == len(policy.alphas)
    b = np.full(prod.n_states, 1.0 / prod.n_states)
    assert again.value_at(b) == pytest.approx(policy.value_at(b))
    assert again.action(b, 0) == policy.action(b, 0)


def test_time_indexed_policy_roundtrip():
    model = uninformative_two_state()
    prod = trivial_product(model)
    policy = solve_finite_horizon(prod, prod.rewards, 2, SolverConfig(exhaustive=True))
    again = policy_from_dict(policy_to_dict(policy))
    b = np.full(prod.n_states, 1.0 / prod.n_states)
    for t in range(3):
        assert again.action(b, t) == policy.action(b, t)


STATIONARY_DOC = (
    '{"kind": "stationary", "n_states": 2, "converged": false, "gamma": 0.9, "alphas": '
    '[{"action": 1, "values": [0.5, -1.25]}, {"action": 0, "values": [2.0, 0.0]}]}')
TIME_INDEXED_DOC = (
    '{"kind": "time_indexed", "n_states": 2, "converged": true, "horizon": 1, "alphas": '
    '[[{"action": 0, "values": [1.0, 0.0]}], '
    '[{"action": 1, "values": [0.25, 0.75]}, {"action": 0, "values": [0.5, 0.5]}]]}')


@pytest.mark.parametrize("policy, want", [
    (AlphaPolicy([[0.5, -1.25], [2.0, 0.0]], [1, 0], gamma=0.9, converged=False),
     STATIONARY_DOC),
    (TimeIndexedPolicy([AlphaPolicy([[1.0, 0.0]], [0]),
                        AlphaPolicy([[0.25, 0.75], [0.5, 0.5]], [1, 0])]),
     TIME_INDEXED_DOC),
], ids=["stationary", "time_indexed"])
def test_policy_file_format_is_pinned(policy, want, tmp_path):
    """Kind, key order and values of a policy file, byte for byte."""
    assert json.dumps(policy_to_dict(policy)) == want
    save_policy(policy, tmp_path / "policy.json")
    assert (tmp_path / "policy.json").read_text() == want + "\n"
    assert json.dumps(policy_to_dict(load_policy(tmp_path / "policy.json"))) == want
