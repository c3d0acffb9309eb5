import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ltlfplan import pbvi
from ltlfplan.dfa import compile_minimal_dfa
from ltlfplan.ltlf import TRUE, parse_formula
from ltlfplan.pbvi import (
    AlphaPolicy, SolverConfig, TimeIndexedPolicy, _backup_plan, _point_backup,
    check_policy, exact_value_oracle, expand_beliefs_random_walk, load_policy, mdp_upper_bound,
    policy_from_dict, policy_to_dict, save_policy, solve_discounted, solve_finite_horizon,
    start_value,
)
from ltlfplan.planner import scalarize
from ltlfplan.pomdp import LabeledPomdp, StoppingModel, derive_seed, make_rng, sample_trajectory
from ltlfplan.product import build_product, constrained_product
from ltlfplan.benchmarks import PRESETS, build_instance, random_tiny_model, twostate_constrained

from helpers import (
    deterministic_chain, fully_observable, mdp_value_iteration_discounted,
    mdp_value_iteration_finite, reference_random_walk, uninformative_two_state,
)


def product_of(model, spec_text):
    dfa = compile_minimal_dfa(parse_formula(spec_text), atoms=model.atoms)
    return build_product(model, dfa)


def trivial_product(model):
    return product_of(model, "true")


def twostate_product():
    """The pruned product of the two-state instance at gamma 0.9, spec F g."""
    return constrained_product(*twostate_constrained(0.9))


def walked_solve(prod, reward, gamma, cfg):
    """A cold solve at the random walk's belief set, the one planner.solve_at hands it."""
    return solve_discounted(prod, reward, gamma, cfg, expand_beliefs_random_walk(prod, cfg, gamma))


# --------------------------------------------------------------------------
# Discounted solver
# --------------------------------------------------------------------------

def test_single_state_geometric_series():
    P = np.ones((1, 1, 1))
    m = LabeledPomdp("unit", ["s"], ["a"], ["o"], P, np.ones((1, 1)), np.ones(1),
                     (), np.zeros(1, dtype=np.int64), np.ones((1, 1)),
                     StoppingModel.geometric(0.5))
    prod = trivial_product(m)
    policy = walked_solve(prod, prod.rewards, 0.5, SolverConfig(n_beliefs=1))
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
    policy = walked_solve(prod, prod.rewards, gamma, cfg)
    V = mdp_value_iteration_discounted(P, R, gamma)
    for s in range(2):
        point = np.zeros(2)
        point[s] = 1.0
        assert policy.value_at(point) == pytest.approx(V[s], abs=1e-6)


def test_solver_value_consistent_with_rollouts():
    model, _ = twostate_constrained(0.8)
    prod = product_of(model, "F g")
    cfg = SolverConfig(n_beliefs=12, max_backup_rounds=1000, bellman_tolerance=1e-9)
    policy = walked_solve(prod, prod.rewards, 0.8, cfg)
    n = 10_000
    totals = np.empty(n)
    for i in range(n):
        totals[i] = sample_trajectory(prod, policy, derive_seed(31, i)).rewards.sum()
    se = totals.std(ddof=1) / np.sqrt(n)
    assert abs(totals.mean() - start_value(policy, prod)) <= 3 * se


def test_monotone_improvement_and_bounds():
    """Point values at the belief set never fall as the round cap grows,
    from cap 0 (the floor and warm-start winners) to the converged solve."""
    model = uninformative_two_state(stopping=StoppingModel.geometric(0.9))
    prod = trivial_product(model)
    cfg = SolverConfig(n_beliefs=24, max_backup_rounds=300, bellman_tolerance=1e-8)
    policy = walked_solve(prod, prod.rewards, 0.9, cfg)
    beliefs = policy.stats["beliefs"]
    rounds = policy.stats["rounds"]
    assert policy.converged and rounds > 1

    def capped(cap):
        return solve_discounted(prod, prod.rewards, 0.9, replace(cfg, max_backup_rounds=cap),
                                beliefs)

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
    p1 = walked_solve(prod, prod.rewards, 0.9, cfg)
    p2 = walked_solve(prod, prod.rewards, 0.9, cfg)
    assert np.array_equal(p1.actions, p2.actions)
    assert np.array_equal(p1.alphas, p2.alphas)


# --------------------------------------------------------------------------
# Belief walk
# --------------------------------------------------------------------------

def drifting_two_state():
    """The uninformative two-state model started in s0: its beliefs drift
    toward (0.5, 0.5) through infinitely many distinct values, so the walk
    stalls once they lie within BELIEF_GAP of held ones, yet a later step
    can still reach a belief no held one is bit for bit."""
    m = uninformative_two_state(stopping=StoppingModel.geometric(0.9))
    return LabeledPomdp(m.name, m.states, m.actions, m.observations, m.P, m.Z, [1.0, 0.0],
                        m.atoms, m.labels, m.rewards, m.stopping)


def close_seeds_two_state():
    """The two-state model with a faint two-valued observation: its initial
    posteriors (0.502, 0.498) and (0.498, 0.502) lie within BELIEF_GAP of
    each other, and the walk holds both, as it admits initial posteriors
    unless one equals a held one."""
    m = uninformative_two_state(stopping=StoppingModel.geometric(0.9))
    return LabeledPomdp(m.name, m.states, m.actions, ["lo", "hi"], m.P,
                        [[0.502, 0.498], [0.498, 0.502]], m.varpi, m.atoms, m.labels,
                        m.rewards, m.stopping)


WALKS = {
    "twostate": twostate_product,  # 4 reachable beliefs: a closed set
    "fully_observable": lambda: product_of(fully_observable(
        [[(0.5, 0.5, 0.0), (0.1, 0.2, 0.7)], [(0.0, 0.6, 0.4), (0.8, 0.0, 0.2)],
         [(0.3, 0.3, 0.4), (0.0, 0.0, 1.0)]], np.zeros((3, 2)), labels=[0, 0, 1]), "F a"),
    "uninformative": lambda: trivial_product(  # one belief, (0.5, 0.5): closed at once
        uninformative_two_state(stopping=StoppingModel.geometric(0.9))),
    "drift": lambda: trivial_product(drifting_two_state()),  # stalls, but never closed
    "close_seeds": lambda: trivial_product(close_seeds_two_state()),  # seeds within BELIEF_GAP
    "M1": lambda: build_instance("M1"),
    "M7": lambda: build_instance("M7"),
    "M8": lambda: build_instance("M8"),
}


@pytest.mark.parametrize("n_beliefs, seed", [(8, 1), (12, 2), (60, 3), (100, 1)])
@pytest.mark.parametrize("case", sorted(WALKS))
def test_walk_returns_the_full_walks_beliefs(case, n_beliefs, seed):
    """The closure stop changes no bit of the returned belief array."""
    prod = WALKS[case]()
    cfg = SolverConfig(n_beliefs=n_beliefs, expansion_seed=seed)
    got = expand_beliefs_random_walk(prod, cfg, prod.stopping.gamma)
    want = reference_random_walk(prod, cfg, prod.stopping.gamma)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_walk_stops_once_its_set_is_closed(monkeypatch):
    """The two-state product holds all 4 of its beliefs within a few dozen
    steps, and the walk ends soon after, far short of its 200 * n_beliefs
    step cap; each predictive step, and each closure successor, is one
    ``predict`` call."""
    calls = []
    step = pbvi.predict

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(pbvi, "predict", counting)
    cfg = SolverConfig(n_beliefs=12, expansion_seed=1)
    assert len(expand_beliefs_random_walk(twostate_product(), cfg, 0.9)) == 4
    assert 0 < len(calls) < 200 * cfg.n_beliefs // 20


# sha256 of a solve's alpha matrix bytes, action bytes, round count and
# converged flag (per stage for the finite-horizon case): any change to which
# vectors a round backs up or keeps, or to a single bit of one, changes a
# digest.  Preset rows, and the two-state instance perfbench's twostate_eg
# runs, are their pruned products at lam = B/2, solved cold.
# The digests are taken with BLAS on one thread, as perfbench runs: with two
# OpenBLAS threads the point values beliefs @ mat.T differ in the last bit,
# and M1's digest changes.
SOLVER_DIGESTS = {
    "M1": "7af1a0be7515c80c69dc37eb240616ee9b25d93ffae09e8905b37eef22f556d3",
    "M2": "a838edc2e755dee056a459da69164246d039977140cba65b506a68a3f70eaaf4",
    "M7": "e47f4a111cdfd952cc3b9087352c45b7076e33343cf5b7d0dc2c3d3a57d4fcc2",
    "M9": "da3727b728a71a25a9c4e1737e09a320377e91cbf7cbad52e1f267063a52698f",
    "finite": "b1222bf7943ca2c25aec608ac1fcd7b27c601f0c2586d628527e5f748fe3cc13",
    "twostate": "7584381bac781e521312a9ea5f738daeaa60ec54349dc89a2bd80d6a39b2b591",
}


def solver_digest(case):
    digest = hashlib.sha256()
    if case == "finite":
        P = np.zeros((3, 2, 3))
        P[0] = ((0.5, 0.5, 0.0), (0.1, 0.2, 0.7))
        P[1] = ((0.0, 0.6, 0.4), (0.8, 0.0, 0.2))
        P[2] = ((0.3, 0.3, 0.4), (0.0, 0.0, 1.0))
        model = fully_observable(P, [[0.1, 0.9], [2.0, 0.0], [0.0, 0.5]], labels=[0, 0, 1],
                                 stopping=StoppingModel.fixed(4))
        prod = product_of(model, "F a")
        policy = solve_finite_horizon(prod, prod.rewards, 4, SolverConfig(n_beliefs=20, expansion_seed=1),
                                      terminal=0.7 * prod.r_final)
        stages = [(stage, None) for stage in policy]
    else:
        if case == "twostate":  # perfbench's twostate_eg instance and solver config
            prod, lam, delta = twostate_product(), 2.0, 0.25
            cfg = SolverConfig(n_beliefs=12, max_backup_rounds=500, bellman_tolerance=1e-8,
                               expansion_seed=1)
        else:
            prod, preset = build_instance(case), PRESETS[case]
            lam, delta = preset.B / 2, 1.0 - preset.threshold
            cfg = SolverConfig(expansion_seed=1, max_backup_rounds=60)
        reward, _, _ = scalarize(prod, lam, delta)
        policy = walked_solve(prod, reward, prod.stopping.gamma, cfg)
        stages = [(policy, policy.stats["rounds"])]
    for stage, rounds in stages:
        digest.update(stage.alphas.tobytes())
        digest.update(stage.actions.tobytes())
        digest.update(repr(rounds).encode())
    digest.update(repr(policy.converged).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def solver_digests():
    """Every case's digest, from one child process with BLAS on one thread."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
               **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    code = ("import json, test_pbvi; "
            f"print(json.dumps({{c: test_pbvi.solver_digest(c) for c in {sorted(SOLVER_DIGESTS)!r}}}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", sorted(SOLVER_DIGESTS))
def test_solves_are_the_recorded_bits(case, solver_digests):
    assert solver_digests[case] == SOLVER_DIGESTS[case]


def test_nonconvergence_flagged_not_raised():
    model = uninformative_two_state(stopping=StoppingModel.geometric(0.99))
    prod = trivial_product(model)
    policy = walked_solve(prod, prod.rewards, 0.99, SolverConfig(n_beliefs=8, max_backup_rounds=3))
    assert policy.converged is False


def test_discounted_argument_validation():
    model = uninformative_two_state()
    prod = trivial_product(model)
    with pytest.raises(ValueError):
        solve_discounted(prod, prod.rewards, 1.0, SolverConfig(), np.eye(2))
    with pytest.raises(ValueError):
        solve_discounted(prod, np.zeros((3, 3)), 0.9, SolverConfig(), np.eye(2))
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
    got_mat, got_acts = _point_backup(_backup_plan(prod, beliefs), reward, gamma, mat)
    got_values = (got_mat * beliefs).sum(axis=1)
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
    prod = build_instance("M7")
    preset = PRESETS["M7"]
    gamma = prod.stopping.gamma
    for lam in (preset.B / 2, 0.0):
        reward, _, _ = scalarize(prod, lam, 1.0 - preset.threshold)
        policy = walked_solve(prod, reward, gamma, SolverConfig(
            n_beliefs=100, max_backup_rounds=60, expansion_seed=1))
        assert policy.alphas.shape[0] > 10
        assert_backups_agree(prod, reward, gamma, policy.stats["beliefs"], policy.alphas)


# --------------------------------------------------------------------------
# Finite-horizon solver and the exact oracle
# --------------------------------------------------------------------------

def test_horizon_zero_picks_best_immediate_action():
    model = uninformative_two_state(rewards=((1.0, 0.0), (0.0, 2.0)))
    prod = trivial_product(model)
    policy = solve_finite_horizon(prod, prod.rewards, 0, SolverConfig(n_beliefs=1))
    assert policy.converged is True
    b0 = np.full(2, 0.5)
    # uninformative observation keeps the uniform prior; action 1 averages 1.0
    assert policy.action(b0, 0) == 1
    assert policy.value_at(b0, 0) == pytest.approx(1.0)
    with pytest.raises(IndexError):
        policy.action(b0, 1)


def test_zero_reward_zero_value():
    model = uninformative_two_state(rewards=((0.0, 0.0), (0.0, 0.0)))
    prod = trivial_product(model)
    policy = solve_finite_horizon(prod, prod.rewards, 2, SolverConfig(n_beliefs=1))
    assert policy.converged is True
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
        # stage t holds 2 * 4**t beliefs; the solve backs up at stages 0..T-1
        cfg = SolverConfig(n_beliefs=2 * 4 ** (T - 1))
        lam = 0.7
        terminal = lam * prod.r_final
        policy = solve_finite_horizon(prod, prod.rewards, T, cfg, terminal=terminal)
        assert policy.converged is True
        oracle = exact_value_oracle(prod, prod.rewards, T, terminal=terminal)
        assert start_value(policy, prod) == pytest.approx(oracle, abs=1e-9)


def test_finite_horizon_stages_share_one_transposed_p(monkeypatch):
    """solve_finite_horizon lays out P_T once per solve, not once per stage."""
    model = random_tiny_model(4, n_states=3, horizon=4)
    prod = product_of(model, "F a")
    plans = []
    make_plan = pbvi._backup_plan

    def recording(*args):
        plans.append(make_plan(*args))
        return plans[-1]

    monkeypatch.setattr(pbvi, "_backup_plan", recording)
    solve_finite_horizon(prod, prod.rewards, 4, SolverConfig(n_beliefs=512))
    assert len(plans) == 4 and all(plan.P_T is plans[0].P_T for plan in plans)
    assert np.array_equal(plans[0].P_T, prod.P.transpose(1, 2, 0))


def test_stage_expansion_enumerates_every_successor_then_caps_in_order():
    """The 6-state F G a product has 3 * 6**t distinct beliefs at stage t.
    Uncapped, T = 5 enumerates all 23 328 of the last stage within the bound;
    capped at 100, each stage keeps 100 of its successors in enumeration
    order."""
    model = random_tiny_model(7, n_states=3, n_actions=2, n_obs=3, horizon=5, n_atoms=2)
    prod = product_of(model, "F G a")
    tic = time.perf_counter()
    stages, capped = pbvi.expand_stage_beliefs(prod, 5, SolverConfig(n_beliefs=23_328))
    assert time.perf_counter() - tic < 10.0
    assert [len(stage) for stage in stages] == [3, 18, 108, 648, 3888, 23_328] and not capped
    small, capped = pbvi.expand_stage_beliefs(prod, 5, SolverConfig(n_beliefs=100))
    assert [len(stage) for stage in small] == [3, 18, 100, 100, 100, 100] and capped
    rows = {row.tobytes(): i for i, row in enumerate(stages[2])}
    kept = [rows[row.tobytes()] for row in small[2]]
    assert kept == sorted(set(kept))


def test_oracle_guards_large_trees(monkeypatch):
    model = uninformative_two_state()
    prod = trivial_product(model)
    monkeypatch.setattr("ltlfplan.pbvi.ORACLE_MAX_TREE", 2)
    with pytest.raises(RuntimeError):
        exact_value_oracle(prod, prod.rewards, 3)


# --------------------------------------------------------------------------
# The MDP upper bound
# --------------------------------------------------------------------------

def _fixed_horizon_cases(case):
    """(product, reward, terminal, horizon) instances with an exact oracle."""
    if case == "tiny":  # acceptance-5 instances
        for seed, n_states, spec_text, T, n_atoms, lam in (
                (102, 3, "F a", 2, 1, 0.8), (106, 2, "a U b", 3, 2, 1.2),
                (108, 3, "G a", 1, 1, 2.0)):
            model = random_tiny_model(seed, n_states=n_states, horizon=T, n_atoms=n_atoms)
            prod = product_of(model, spec_text)
            yield prod, prod.rewards, lam * prod.r_final, T
    elif case == "chain":
        chain = deterministic_chain(3, reward_on={0: 1.0, 1: 5.0}, stopping=StoppingModel.fixed(2))
        prod = product_of(chain, "F a")
        yield prod, prod.rewards, 0.5 * prod.r_final, 2
    else:  # the observation reveals the state
        P = np.zeros((2, 2, 2))
        P[0, 0] = (1.0, 0.0)
        P[0, 1] = (0.3, 0.7)
        P[1, 0] = (0.5, 0.5)
        P[1, 1] = (1.0, 0.0)
        prod = trivial_product(fully_observable(P, [[0.1, 0.9], [2.0, 0.0]],
                                                stopping=StoppingModel.fixed(3)))
        yield prod, prod.rewards, None, 3


@pytest.mark.parametrize("case", ["tiny", "chain", "revealing", "twostate", "M1", "M7"])
def test_mdp_upper_bound(case):
    """The product-MDP bound is >= the exact optimum under fixed stopping and
    equal to it where the observation reveals the state; under geometric
    stopping it is >= PBVI's start value at lam = 0 and B/2, and on the
    two-state product at lam = 0 within 1e-6 of a converged cold solve."""
    if case in ("tiny", "chain", "revealing"):
        for prod, reward, terminal, T in _fixed_horizon_cases(case):
            oracle = exact_value_oracle(prod, reward, T, terminal=terminal)
            bound = mdp_upper_bound(prod, reward, terminal)
            if case == "revealing":
                assert bound == pytest.approx(oracle, abs=1e-12)
            else:
                assert bound >= oracle - 1e-12
        return
    if case == "twostate":
        model, spec_text = twostate_constrained(0.9)
        prod, B, threshold = product_of(model, spec_text), 4.0, 0.75
        cfg = SolverConfig(n_beliefs=12, max_backup_rounds=400, bellman_tolerance=1e-8,
                           expansion_seed=2)
    else:
        prod, preset = build_instance(case), PRESETS[case]
        B, threshold = preset.B, preset.threshold
        cfg = SolverConfig(n_beliefs=50, max_backup_rounds=100, expansion_seed=1)
    for lam in (0.0, B / 2):
        reward, _, _ = scalarize(prod, lam, 1.0 - threshold)
        bound = mdp_upper_bound(prod, reward)
        lower = start_value(walked_solve(prod, reward, prod.stopping.gamma, cfg), prod)
        assert bound >= lower
        if case == "twostate" and lam == 0.0:
            assert bound - lower <= 1e-6


def test_mdp_upper_bound_rejects_bad_reward_maps():
    prod = trivial_product(uninformative_two_state(stopping=StoppingModel.geometric(0.9)))
    with pytest.raises(ValueError, match="shape"):
        mdp_upper_bound(prod, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        mdp_upper_bound(prod, np.array([[0.0, np.nan], [1.0, 0.0]]))


# --------------------------------------------------------------------------
# Action selection
# --------------------------------------------------------------------------

def test_policy_action_single_vector():
    policy = AlphaPolicy([[0.0, 1.0]], [2])
    assert policy.action(np.array([1.0, 0.0])) == 2
    assert policy.action(np.array([0.0, 1.0])) == 2


def test_policy_action_tie_breaks_low_index():
    policy = AlphaPolicy([[1.0, 1.0], [1.0, 1.0]], [3, 0])
    assert policy.action(np.array([0.5, 0.5])) == 3


def test_policy_action_dominating_action():
    policy = AlphaPolicy([[5.0, 0.0], [0.0, 5.0]], [0, 1])
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
    policy = walked_solve(prod, prod.rewards, 0.9, SolverConfig(n_beliefs=8, max_backup_rounds=40))
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
    policy = solve_finite_horizon(prod, prod.rewards, 2, SolverConfig(n_beliefs=1))
    again = policy_from_dict(policy_to_dict(policy))
    b = np.full(prod.n_states, 1.0 / prod.n_states)
    for t in range(3):
        assert again.action(b, t) == policy.action(b, t)


STATIONARY_DOC = (
    '{"kind": "stationary", "n_states": 2, "converged": false, "alphas": '
    '[{"action": 1, "values": [0.5, -1.25]}, {"action": 0, "values": [2.0, 0.0]}]}')
TIME_INDEXED_DOC = (
    '{"kind": "time_indexed", "n_states": 2, "converged": true, "horizon": 1, "alphas": '
    '[[{"action": 0, "values": [1.0, 0.0]}], '
    '[{"action": 1, "values": [0.25, 0.75]}, {"action": 0, "values": [0.5, 0.5]}]]}')


@pytest.mark.parametrize("policy, want", [
    (AlphaPolicy([[0.5, -1.25], [2.0, 0.0]], [1, 0], converged=False),
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


@pytest.mark.parametrize("field, value", [("horizon", 1.0), ("n_states", 2.0),
                                          ("converged", 1), ("converged", "true")])
def test_policy_file_numbers_are_not_coerced(field, value):
    doc = json.loads(TIME_INDEXED_DOC)
    doc[field] = value
    with pytest.raises(ValueError, match=field):
        policy_from_dict(doc)


def test_policy_file_ignores_a_legacy_gamma():
    """Policy files once carried the solve's discount as ``gamma``; such a
    key is ignored, as any unknown key is."""
    for gamma in (0.9, None, "0.9", 7, True):
        doc = dict(json.loads(STATIONARY_DOC), gamma=gamma)
        assert json.dumps(policy_to_dict(policy_from_dict(doc))) == STATIONARY_DOC
