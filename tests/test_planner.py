import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ltlfplan import pbvi, planner
from ltlfplan.benchmarks import (
    PRESETS, accepting_sink_instance, build_instance, chain3, make_model, make_spec,
    random_tiny_model, twostate_constrained,
)
from ltlfplan.dfa import compile_minimal_dfa
from ltlfplan.ltlf import parse_formula
from ltlfplan.pbvi import (
    AlphaPolicy, SolverConfig, expand_beliefs_random_walk, mdp_upper_bound, solve_discounted,
    solve_finite_horizon, start_value,
)
from ltlfplan.planner import (
    ConstrainedProblem, MixedPolicy, auto_eta, eg_solve, eg_update_lambda, mc_evaluate,
    reduce_support_bfs, regret_bound, result_to_dict, scalarize,
)
from ltlfplan.pomdp import LabeledPomdp, StoppingModel, derive_seed
from ltlfplan.product import build_product, constrained_product

from helpers import deterministic_chain, eval_stationary_product_policy, reference_mc_evaluate


def product_for(model, spec):
    dfa = compile_minimal_dfa(parse_formula(spec), atoms=model.atoms, name=spec)
    return build_product(model, dfa)


@pytest.fixture(scope="module")
def twostate_product():
    model, spec = twostate_constrained(0.9)
    return product_for(model, spec)


# --------------------------------------------------------------------------
# Scalarization
# --------------------------------------------------------------------------

def test_scalarize_bonus_coefficient():
    model, spec = twostate_constrained(0.99)
    prod = product_for(model, spec)
    reward, _, _ = scalarize(prod, 5.0, 0.25)
    bonus = reward - prod.rewards
    coef = 5.0 * 0.01 / 0.99
    assert np.allclose(bonus, coef * prod.r_final[:, None])
    assert coef == pytest.approx(0.050505, abs=1e-6)


def test_scalarize_zero_multiplier_trivial_offset():
    model, spec = twostate_constrained(0.9)
    prod = product_for(model, spec)
    reward, terminal, offset = scalarize(prod, 0.0, 1.0)
    assert np.array_equal(reward, prod.rewards)
    assert terminal is None  # geometric stopping has no terminal channel
    assert offset == 0.0


def test_scalarize_fixed_branch_shapes():
    chain = deterministic_chain(3, stopping=StoppingModel.fixed(2))
    prod = product_for(chain, "F a")
    reward, terminal, offset = scalarize(prod, 2.0, 0.25)
    assert reward.shape == (prod.n_states, prod.n_actions)
    assert np.array_equal(terminal, 2.0 * prod.r_final)
    assert offset == pytest.approx(-2.0 * 0.75)


def test_scalarize_identity_on_accepting_sink():
    # single-route chain whose automaton accepts from the first step on:
    # the discounted value of the bonus channel alone must equal lam exactly
    model, spec = accepting_sink_instance(gamma=0.5)
    prod = product_for(model, spec)
    lam = 1.0
    reward, _, offset = scalarize(prod, lam, 0.0)
    # exact policy evaluation of the only policy (single action)
    X = prod.n_states
    actions = np.zeros(X, dtype=np.int64)
    Ppi = prod.P[np.arange(X), actions, :]
    rpi = reward[np.arange(X), actions]
    value = prod.varpi @ np.linalg.inv(np.eye(X) - 0.5 * Ppi) @ rpi
    assert value == pytest.approx(lam, abs=1e-12)
    # and the Monte-Carlo satisfaction probability is exactly one
    est = mc_evaluate(AlphaPolicy(np.zeros((1, prod.n_states)), [0]), prod, 200, seed=3)
    assert est.p_hat == 1.0
    # q0 not accepting here, so the offset is just the threshold term
    assert offset == pytest.approx(-lam)


# --------------------------------------------------------------------------
# Multiplier update
# --------------------------------------------------------------------------

def test_eg_update_fixed_point():
    for lam in (0.5, 1.0, 3.9):
        assert eg_update_lambda(lam, 0.75, 2.0, 4.0, 0.25) == pytest.approx(lam, abs=1e-12)


def test_eg_update_hand_value():
    # lam=1, B=2, eta=1, p_hat - 1 + delta = -1: lam' = 2e / (1 + e)
    got = eg_update_lambda(1.0, 0.0, 1.0, 2.0, 0.0)
    want = 2 * math.e / (1 + math.e)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(1.46212, abs=1e-5)


def test_eg_update_grows_on_violation():
    lam = 2.0
    out = eg_update_lambda(lam, 0.3, 2.0, 4.0, 0.25)  # p_hat below 0.75
    assert out > lam


def test_eg_update_monotone_decreasing_in_p_hat():
    values = [eg_update_lambda(2.0, p, 2.0, 4.0, 0.25) for p in np.linspace(0, 1, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_eg_update_stays_interior_under_extremes():
    lam = 2.0
    for p_hat in (-1.0, 0.0, 1.0, 2.0):
        for eta in (1e-6, 1.0, 1e6):
            out = eg_update_lambda(lam, p_hat, eta, 4.0, 0.25)
            assert 0.0 < out < 4.0


def test_eg_update_rejects_boundary_input():
    with pytest.raises(ValueError):
        eg_update_lambda(0.0, 0.5, 1.0, 4.0, 0.25)
    with pytest.raises(ValueError):
        eg_update_lambda(4.0, 0.5, 1.0, 4.0, 0.25)


# --------------------------------------------------------------------------
# Monte-Carlo evaluation
# --------------------------------------------------------------------------

def test_mc_all_accepting_product_saturates():
    model, spec = accepting_sink_instance(0.5)
    prod = product_for(model, spec)
    est = mc_evaluate(AlphaPolicy(np.zeros((1, prod.n_states)), [0]), prod, 500, seed=11)
    assert est.p_hat == 1.0
    assert est.p_se == 0.0


def test_mc_degenerate_mixture_matches_pure():
    model, spec = twostate_constrained(0.9)
    prod = product_for(model, spec)
    go = AlphaPolicy(np.zeros((1, prod.n_states)), [1])
    stay = AlphaPolicy(np.zeros((1, prod.n_states)), [0])
    mixture = MixedPolicy([go, stay], [1.0, 0.0])
    a = mc_evaluate(mixture, prod, 400, seed=21)
    b = mc_evaluate(go, prod, 400, seed=21)
    assert a.r_hat == b.r_hat
    assert a.p_hat == b.p_hat


def test_mc_deterministic_single_run_exact():
    chain = deterministic_chain(3, reward_on={0: 1.0, 1: 0.25, 2: 7.0},
                                stopping=StoppingModel.fixed(2))
    prod = product_for(chain, "F a")
    est = mc_evaluate(AlphaPolicy(np.zeros((1, prod.n_states)), [0]), prod, 64, seed=5)
    assert est.r_hat == pytest.approx(8.25, abs=1e-12)
    assert est.r_se == 0.0
    assert est.p_hat == 1.0


def test_row_sums_are_the_rows_own_sums():
    """mc_evaluate sums runs of one length as the rows of one array; numpy must
    reduce each row of a C-contiguous float64 array as it reduces the row
    alone, or r_hat moves by an ulp.  Pinned bit for bit at lengths 1-300."""
    rng = np.random.default_rng(8)
    for length in range(1, 301):
        rows = (rng.standard_normal((5, length)) * 10.0 ** rng.integers(-3, 4, (5, length))).tolist()
        got = np.array(rows).sum(axis=1)
        want = [np.add.reduce(np.array(row, dtype=np.float64)) for row in rows]
        assert got.tolist() == [float(x) for x in want], length


def test_mixture_linearity():
    model, spec = twostate_constrained(0.5)
    prod = product_for(model, spec)
    go = AlphaPolicy(np.zeros((1, prod.n_states)), [1])
    stay = AlphaPolicy(np.zeros((1, prod.n_states)), [0])
    w = 0.3
    mixture = MixedPolicy([go, stay], [w, 1 - w])
    n = 100_000
    mixed = mc_evaluate(mixture, prod, n, seed=33)
    e_go = mc_evaluate(go, prod, 20_000, seed=34)
    e_stay = mc_evaluate(stay, prod, 20_000, seed=35)
    want_r = w * e_go.r_hat + (1 - w) * e_stay.r_hat
    want_p = w * e_go.p_hat + (1 - w) * e_stay.p_hat
    se_r = math.sqrt(mixed.r_se ** 2 + (w * e_go.r_se) ** 2 + ((1 - w) * e_stay.r_se) ** 2)
    se_p = math.sqrt(mixed.p_se ** 2 + (w * e_go.p_se) ** 2 + ((1 - w) * e_stay.p_se) ** 2)
    assert abs(mixed.r_hat - want_r) <= 3 * max(se_r, 1e-9)
    assert abs(mixed.p_hat - want_p) <= 3 * max(se_p, 1e-9)


def test_mixed_policy_validation():
    p = AlphaPolicy(np.zeros((1, 2)), [0])
    with pytest.raises(ValueError):
        MixedPolicy([p], [0.5])
    with pytest.raises(ValueError):
        MixedPolicy([p, p], [1.5, -0.5])
    # non-finite weights would pass the sum check; strings and booleans are not coerced
    for weights in ([math.nan, 1.0], [math.inf, 0.0], ["0.5", "0.5"], [True, False]):
        with pytest.raises(ValueError, match="finite|numbers"):
            MixedPolicy([p, p], weights)
    # the selection table is built once, from the mixture's own read-only weights
    weights = np.array([0.25, 0.75])
    mixture = MixedPolicy([p, p], weights)
    weights[0] = 1.0
    assert mixture.weights.tolist() == [0.25, 0.75] and not mixture.weights.flags.writeable
    assert mixture.selection == (1.0, [0.25, 1.0], [0, 1, 1])


# sha256 of " ".join(float.hex) of mc_evaluate's (r_hat, p_hat, r_se, p_se):
# any change to a selection draw, a run, the verdict or the order the
# estimates are summed in changes a digest.  Policies are solved cold; as for
# the solver digests, BLAS runs on one thread.
EVAL_DIGESTS = {
    "twostate_alpha": "02742f7a070ac3ef88fbe1d2959a9ce9cf4f3f5eb38805687a55fffd3b8d060d",
    "twostate_mixture": "c9eadb2a9116651c90a5350e1ced4286f212d51aea6ba0d15284f066f95703fc",
    "m7": "c37ebd70e32059e5abcc54aa7c0330004ea30776d00912ad20cf0f8f4bbc1381",
    "fixed": "be95278b1bc5cef2c5dc7042998397992194780d2e572be976ac4583f5dc9734",
}


def eval_case(case):
    """(policy, product, n, seed) of one recorded evaluation."""
    if case.startswith("twostate"):
        prod = constrained_product(*twostate_constrained(0.9))
        cfg = SolverConfig(n_beliefs=12, max_backup_rounds=200, expansion_seed=1)
        beliefs = expand_beliefs_random_walk(prod, cfg, 0.9)
        solved = [solve_discounted(prod, scalarize(prod, lam, 0.25)[0], 0.9, cfg, beliefs)
                  for lam in (0.5, 2.0, 8.0)]
        if case == "twostate_alpha":
            policy, n, seed = solved[1], 3000, 61
        else:
            policy, n, seed = MixedPolicy(solved, [0.55, 0.0, 0.45]), 3000, 62
    elif case == "m7":
        prod = build_instance("M7")
        cfg = SolverConfig(n_beliefs=20, max_backup_rounds=30, expansion_seed=1)
        gamma = prod.stopping.gamma
        policy = solve_discounted(prod, scalarize(prod, 12.5, 0.2)[0], gamma, cfg,
                                  expand_beliefs_random_walk(prod, cfg, gamma))
        n, seed = 400, 63
    else:
        prod = constrained_product(random_tiny_model(7, n_states=3, n_actions=2, n_obs=3,
                                                     horizon=12, n_atoms=2), "F G a")
        reward, terminal, _ = scalarize(prod, 2.0, 0.2)
        policy = solve_finite_horizon(prod, reward, 12, SolverConfig(n_beliefs=3), terminal=terminal)
        assert policy.kind == "time_indexed"
        n, seed = 500, 64
    return policy, prod, n, seed


def eval_digest(case):
    policy, prod, n, seed = eval_case(case)
    est = mc_evaluate(policy, prod, n, seed)
    values = (est.r_hat, est.p_hat, est.r_se, est.p_se)
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


@pytest.fixture(scope="module")
def eval_digests():
    """Every case's digest, from one child process with BLAS on one thread."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
               **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    code = ("import json, test_planner; "
            f"print(json.dumps({{c: test_planner.eval_digest(c) for c in {sorted(EVAL_DIGESTS)!r}}}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", sorted(EVAL_DIGESTS))
def test_evaluations_are_the_recorded_bits(case, eval_digests):
    assert eval_digests[case] == EVAL_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(EVAL_DIGESTS))
def test_recorded_evaluations_match_the_reference(case):
    """Each recorded evaluation is the reference oracle's, which reads the
    rollout layout with plain numpy; a pure policy as its one-policy mixture."""
    policy, prod, n, seed = eval_case(case)
    mixture = policy if isinstance(policy, MixedPolicy) else MixedPolicy([policy], [1.0])
    est = mc_evaluate(policy, prod, n, seed)
    assert (est.r_hat, est.p_hat, est.r_se, est.p_se) == reference_mc_evaluate(mixture, prod, n, seed)


# --------------------------------------------------------------------------
# Support reduction
# --------------------------------------------------------------------------

def test_bfs_hand_vertex():
    w = reduce_support_bfs([2.0, 0.0], [0.5, 1.0], threshold=0.75, slack=0.0)
    assert np.allclose(w, [0.5, 0.5])
    assert w @ np.array([2.0, 0.0]) == pytest.approx(1.0)


def test_bfs_point_mass_when_all_feasible():
    w = reduce_support_bfs([1.0, 3.0, 2.0], [0.9, 0.8, 0.95], threshold=0.75)
    assert np.allclose(w, [0.0, 1.0, 0.0])


def test_bfs_infeasible_returns_none():
    assert reduce_support_bfs([1.0, 2.0], [0.1, 0.2], threshold=0.75) is None


def test_bfs_respects_slack():
    w = reduce_support_bfs([1.0, 2.0], [0.1, 0.2], threshold=0.75, slack=0.6)
    assert w is not None
    assert w @ np.array([0.1, 0.2]) >= 0.15 - 1e-12


def test_bfs_support_at_most_two_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        K = int(rng.integers(1, 12))
        r = rng.random(K) * 3
        p = rng.random(K)
        w = reduce_support_bfs(r, p, threshold=0.6, slack=0.05)
        if w is None:
            assert p.max() < 0.55
            continue
        assert np.count_nonzero(w) <= 2
        assert w.sum() <= 1 + 1e-12
        assert w @ p >= 0.55 - 1e-9


def test_bfs_beats_uniform_when_uniform_feasible():
    rng = np.random.default_rng(1)
    for _ in range(30):
        K = int(rng.integers(2, 10))
        r = rng.random(K) * 2
        p = 0.5 + 0.5 * rng.random(K)
        threshold = float(p.mean())  # uniform mixture is exactly feasible
        w = reduce_support_bfs(r, p, threshold=threshold, slack=0.0)
        assert w is not None
        assert w @ r >= r.mean() - 1e-9


# --------------------------------------------------------------------------
# The loop
# --------------------------------------------------------------------------

def test_auto_eta_and_bound_values():
    assert auto_eta(100, 5.0) == pytest.approx(0.0117741, abs=1e-6)
    assert regret_bound(100, 5.0) == pytest.approx(1.17741, abs=1e-5)
    assert regret_bound(400, 5.0) == pytest.approx(regret_bound(100, 5.0) / 2)


def test_constrained_problem_validation(twostate_product):
    with pytest.raises(ValueError):
        ConstrainedProblem(twostate_product, threshold=1.5, B=4, K=10)
    with pytest.raises(ValueError):
        ConstrainedProblem(twostate_product, threshold=0.5, B=0, K=10)
    with pytest.raises(ValueError):
        ConstrainedProblem(twostate_product, threshold=0.5, B=4, K=0)
    with pytest.raises(ValueError):
        ConstrainedProblem(twostate_product, threshold=0.5, B=4, K=10, eta=-1)
    prob = ConstrainedProblem(twostate_product, threshold=0.5, B=4, K=10)
    assert prob.resolved_eta() == pytest.approx(auto_eta(10, 4))


def test_eg_lambda_decreases_when_always_satisfied():
    model, spec = accepting_sink_instance(0.5)
    prod = product_for(model, spec)
    problem = ConstrainedProblem(prod, threshold=0.0, B=2.0, K=8, eta=0.5, simu=40, base_seed=1)
    result = eg_solve(problem, SolverConfig(n_beliefs=4, max_backup_rounds=100))
    lams = [rec.lam for rec in result.records]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert all(rec.p_hat == 1.0 for rec in result.records)


def test_eg_multiplier_confinement_and_trace_sign(twostate_product):
    problem = ConstrainedProblem(twostate_product, threshold=0.75, B=4.0, K=25,
                                 eta=1.5, simu=120, base_seed=3)
    result = eg_solve(problem, SolverConfig(n_beliefs=12, max_backup_rounds=200,
                                            bellman_tolerance=1e-6))
    for rec in result.records:
        assert 0.0 < rec.lam < 4.0
    for rec, nxt in zip(result.records, result.records[1:]):
        if rec.p_hat > 0.75:
            assert nxt.lam < rec.lam
        elif rec.p_hat < 0.75:
            assert nxt.lam > rec.lam
    assert result.mixture.weights.sum() == pytest.approx(1.0)
    assert len(result.mixture.policies) == 25
    assert np.allclose(result.mixture.weights, 1.0 / 25)
    # BFS reduction on the recorded candidates
    if result.bfs_weights is not None:
        assert np.count_nonzero(result.bfs_weights) <= 2


def test_eg_near_optimal_on_twostate(twostate_product):
    # small-K smoke of the acceptance-6 setup, bound is loose at K=60
    prod = twostate_product
    problem = ConstrainedProblem(prod, threshold=0.75, B=4.0, K=60, simu=400, base_seed=11)
    result = eg_solve(problem, SolverConfig(n_beliefs=12, max_backup_rounds=400,
                                            bellman_tolerance=1e-8, expansion_seed=2))
    # exact frontier: all 16 stationary product policies
    best = -np.inf
    feasible = []
    for bits in range(2 ** prod.n_states):
        actions = np.array([(bits >> x) & 1 for x in range(prod.n_states)])
        r, p = eval_stationary_product_policy(prod, actions, 0.9)
        feasible.append((r, p))
    rs = np.array([f[0] for f in feasible])
    ps = np.array([f[1] for f in feasible])
    from helpers import lp_mixture_optimum
    oracle = lp_mixture_optimum(rs, ps, 0.75)
    est = mc_evaluate(result.mixture, prod, 4000, seed=91)
    assert est.r_hat >= oracle - result.bound - 3 * est.r_se
    assert est.p_hat >= 0.75 - result.eps_f - 3 * est.p_se


def test_theorem2_report_contents(twostate_product):
    problem = ConstrainedProblem(twostate_product, threshold=0.6, B=4.0, K=5,
                                 eta=1.0, simu=50, base_seed=2)
    result = eg_solve(problem, SolverConfig(n_beliefs=8, max_backup_rounds=150))
    report = result_to_dict(result)
    assert list(report) == ["bound", "B", "K", "eta", "lam_bar", "r_hat_mixture",
                            "p_hat_mixture", "threshold", "r_m_upper_bound", "eps_f_surrogate",
                            "trace", "slack", "bfs_weights", "mixture_weights"]
    assert report["bound"] == pytest.approx(regret_bound(5, 4.0))
    assert len(report["trace"]) == 5
    assert {"k", "lambda", "r_hat", "p_hat", "converged", "gap"} <= set(report["trace"][0])
    assert all(rec.gap >= 0.0 for rec in result.records)
    reward, _, _ = scalarize(twostate_product, 0.0, problem.delta)
    cfg = SolverConfig(n_beliefs=8, max_backup_rounds=150)
    unconstrained = solve_discounted(twostate_product, reward, 0.9, cfg,
                                     expand_beliefs_random_walk(twostate_product, cfg, 0.9))
    assert report["r_m_upper_bound"] >= start_value(unconstrained, twostate_product)


def test_upper_bound_stops_within_its_slack_and_is_the_recorded_gap(monkeypatch):
    """On M1 at lam = B/2, mdp_q_table's table is >= one iterated on to a
    1e-12 fall, entrywise, and its start bound exceeds that table's by at
    most UPPER_SLACK of the value span; each eg_solve record's gap is
    mdp_upper_bound at its lam minus the iterate's start value, exactly."""
    prod, preset = build_instance("M1"), PRESETS["M1"]
    delta = 1.0 - preset.threshold
    reward = scalarize(prod, preset.B / 2, delta)[0]
    gamma = prod.stopping.gamma
    span = (reward.max() - reward.min()) / (1.0 - gamma)
    table = pbvi.mdp_q_table(prod, reward)
    with monkeypatch.context() as patch:  # stops once no value falls by more than 1e-12
        patch.setattr(pbvi, "UPPER_SLACK", 1e-12 * gamma / (1.0 - gamma) / span)
        fine = pbvi.mdp_q_table(prod, reward)
    assert np.all(table >= fine) and not np.array_equal(table, fine)
    excess = pbvi.start_bound(table, prod) - pbvi.start_bound(fine, prod)
    assert 0.0 <= excess <= pbvi.UPPER_SLACK * span
    problem = ConstrainedProblem(prod, threshold=preset.threshold, B=preset.B, K=3,
                                 eta=preset.eta, simu=20, base_seed=1)
    result = eg_solve(problem, SolverConfig(n_beliefs=20, max_backup_rounds=30, expansion_seed=1))
    for rec, policy in zip(result.records, result.mixture.policies):
        bound = mdp_upper_bound(prod, scalarize(prod, rec.lam, delta)[0])
        assert rec.gap == bound - start_value(policy, prod)


def test_eg_solve_makes_k_solves_over_one_belief_walk(twostate_product, monkeypatch):
    """A geometric eg_solve walks belief space once and solves once per
    iteration, each solve after the first warm-started by keyword."""
    solves, walks = [], []
    solve, walk = planner.solve_discounted, pbvi.expand_beliefs_random_walk

    def counting_solve(*args, **kwargs):
        solves.append(kwargs)
        return solve(*args, **kwargs)

    def counting_walk(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(planner, "solve_discounted", counting_solve)
    monkeypatch.setattr(pbvi, "expand_beliefs_random_walk", counting_walk)
    problem = ConstrainedProblem(twostate_product, threshold=0.6, B=4.0, K=4,
                                 eta=1.0, simu=20, base_seed=3)
    eg_solve(problem, SolverConfig(n_beliefs=8, max_backup_rounds=150))
    assert len(solves) == problem.K
    assert len(walks) == 1
    assert all(kwargs.get("warm_start") is not None for kwargs in solves[1:])


def test_m1_seed_2001_solve_is_flagged_unconverged():
    """The cold M1 solve over expansion seed 2001's belief walk stops on its
    Bellman residual with gap 0.967 at b0, a fifth of its value span: the
    policy plays badly (p_hat 0.10 against threshold 0.75), and it is flagged."""
    prod, preset = build_instance("M1"), PRESETS["M1"]
    problem = ConstrainedProblem(prod, threshold=preset.threshold, B=preset.B, K=1,
                                 eta=preset.eta, simu=20)
    (rec,) = eg_solve(problem, SolverConfig(expansion_seed=2001)).records
    assert rec.converged is False
    assert rec.gap == pytest.approx(0.967, abs=5e-4)


@pytest.mark.parametrize("seed", [2000, 2001, 2002])
def test_converged_discounted_solves_are_within_the_gap_share(seed):
    prod, preset = build_instance("M1"), PRESETS["M1"]
    problem = ConstrainedProblem(prod, threshold=preset.threshold, B=preset.B, K=2,
                                 eta=preset.eta, simu=20)
    result = eg_solve(problem, SolverConfig(expansion_seed=seed))
    for rec, policy in zip(result.records, result.mixture.policies):
        reward = scalarize(prod, rec.lam, problem.delta)[0]
        span = (reward.max() - reward.min()) / (1.0 - prod.stopping.gamma)
        assert type(rec.converged) is bool and rec.converged is policy.converged
        assert not rec.converged or rec.gap <= planner.GAP_SHARE * span


def tiny_fixed_product(T=3):
    model = random_tiny_model(7, n_states=3, n_actions=2, n_obs=2, horizon=T, n_atoms=2)
    return constrained_product(model, "F a")


def test_fixed_horizon_eg_solve_iterates_are_cold_finite_horizon_solves():
    prod = tiny_fixed_product()
    cfg = SolverConfig(n_beliefs=128)  # the largest stage, so none is capped
    problem = ConstrainedProblem(prod, threshold=0.6, B=4.0, K=4, eta=1.0, simu=30, base_seed=2)
    result = eg_solve(problem, cfg)
    assert len({rec.lam for rec in result.records}) == problem.K
    for rec, policy in zip(result.records, result.mixture.policies):
        reward, terminal, _ = scalarize(prod, rec.lam, problem.delta)
        cold = solve_finite_horizon(prod, reward, prod.stopping.T, cfg, terminal=terminal)
        assert policy.kind == "time_indexed" and len(policy) == len(cold)
        for stage, cold_stage in zip(policy, cold):
            assert np.array_equal(stage.alphas, cold_stage.alphas)
            assert np.array_equal(stage.actions, cold_stage.actions)
        assert rec.converged is True
        assert rec.gap == mdp_upper_bound(prod, reward, terminal) - start_value(policy, prod)


def test_preset_scale_fixed_horizon_solves_are_capped_and_flagged(monkeypatch):
    """M1 stopped at T = 20: four EG iterations finish within the bound, no
    stage holds more than n_beliefs beliefs, and every capped solve is
    flagged unconverged."""
    m = make_model("M1")
    base = LabeledPomdp(m.name, m.states, m.actions, m.observations, m.P, m.Z, m.varpi,
                        m.atoms, m.labels, m.rewards, StoppingModel.fixed(20))
    preset = PRESETS["M1"]
    prod = constrained_product(base, make_spec(preset.spec))
    sizes = []
    expand = pbvi.expand_stage_beliefs

    def recording(*args):
        stages, capped = expand(*args)
        sizes.append([len(stage) for stage in stages])
        return stages, capped

    monkeypatch.setattr(pbvi, "expand_stage_beliefs", recording)
    cfg = SolverConfig()
    problem = ConstrainedProblem(prod, threshold=preset.threshold, B=preset.B, K=4,
                                 eta=preset.eta, simu=preset.simu)
    tic = time.perf_counter()
    result = eg_solve(problem, cfg)
    assert time.perf_counter() - tic < 30.0
    assert len(sizes) == 4 and max(max(stage) for stage in sizes) == cfg.n_beliefs
    for rec, policy in zip(result.records, result.mixture.policies):
        assert rec.converged is False and policy.converged is False


def test_solve_at_hands_on_the_belief_walk_only_under_geometric_stopping(
        twostate_product, monkeypatch):
    policy, gap, warm = planner.solve_at(tiny_fixed_product(2), 2.0, 0.4, SolverConfig())
    assert policy.kind == "time_indexed" and warm is None
    walks = []
    walk = pbvi.expand_beliefs_random_walk

    def counting_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(pbvi, "expand_beliefs_random_walk", counting_walk)
    cfg = SolverConfig(n_beliefs=8, max_backup_rounds=150)
    first, _, warm = planner.solve_at(twostate_product, 2.0, 0.4, cfg)
    second, _, _ = planner.solve_at(twostate_product, 1.5, 0.4, cfg, warm)
    assert len(walks) == 1
    assert second.stats["beliefs"] is first.stats["beliefs"]


def test_records_carry_the_iteration_standard_errors(twostate_product):
    problem = ConstrainedProblem(twostate_product, threshold=0.6, B=4.0, K=3,
                                 eta=1.0, simu=40, base_seed=5)
    result = eg_solve(problem, SolverConfig(n_beliefs=8, max_backup_rounds=150))
    report = result_to_dict(result)
    for rec, policy, entry in zip(result.records, result.mixture.policies, report["trace"]):
        est = mc_evaluate(policy, twostate_product, problem.simu,
                          derive_seed(problem.base_seed, rec.k))
        assert (rec.p_hat, rec.r_hat, rec.p_se, rec.r_se) == \
            (est.p_hat, est.r_hat, est.p_se, est.r_se)
        assert (entry["p_se"], entry["r_se"]) == (est.p_se, est.r_se)
    assert any(rec.p_se > 0 or rec.r_se > 0 for rec in result.records)


def test_records_carry_each_solves_rounds_alphas_and_beliefs(twostate_product):
    """A record's solver counts are its policy's, and reach the trace rows; a
    fixed-horizon solve counts one round per stage t < T and the belief
    points of those stages."""
    cfg = SolverConfig(n_beliefs=8, max_backup_rounds=150)
    stages, _ = pbvi.expand_stage_beliefs(tiny_fixed_product(), 2, cfg)
    for prod in (twostate_product, tiny_fixed_product()):
        problem = ConstrainedProblem(prod, threshold=0.6, B=4.0, K=2, eta=1.0, simu=10)
        result = eg_solve(problem, cfg)
        for rec, policy, row in zip(result.records, result.mixture.policies,
                                    planner.trace_rows(result)):
            if policy.kind == "stationary":
                want = (policy.stats["rounds"], len(policy.alphas), len(policy.stats["beliefs"]))
            else:
                want = (3, sum(len(stage.alphas) for stage in policy), sum(map(len, stages)))
            assert (rec.rounds, rec.alphas, rec.beliefs) == want
            assert (row["rounds"], row["alphas"], row["beliefs"]) == want
            assert all(count > 0 for count in want)


def test_lemma2_identity_statistical_small():
    # quick version of the scalarization identity on the bundled chain
    model, spec = chain3(0.9)
    prod = product_for(model, spec)
    gamma = 0.9
    # exact forward recursion for (1-gamma)/gamma * sum_{t>=1} gamma^t E r_f(X_t)
    M = prod.P[:, 0, :]
    dist = prod.varpi.copy()
    total = 0.0
    t = 1
    while gamma ** t > 1e-12:
        dist = dist @ M
        total += gamma ** t * float(dist @ prod.r_final)
        t += 1
    exact = (1 - gamma) / gamma * total
    est = mc_evaluate(AlphaPolicy(np.zeros((1, prod.n_states)), [0]), prod, 20_000, seed=55)
    se = max(est.p_se, 1e-9)
    assert abs(est.p_hat - exact) <= 3.5 * se
