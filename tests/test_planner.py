import math

import numpy as np
import pytest

from ltlfplan.benchmarks import accepting_sink_instance, chain3, twostate_constrained
from ltlfplan.dfa import compile_minimal_dfa
from ltlfplan.ltlf import parse_formula
from ltlfplan.pbvi import AlphaPolicy, SolverConfig
from ltlfplan.planner import (
    ConstrainedProblem, MixedPolicy, auto_eta, eg_solve, eg_update_lambda, mc_evaluate,
    reduce_support_bfs, regret_bound, scalarize, theorem2_report,
)
from ltlfplan.pomdp import FixedActionPolicy, StoppingModel, derive_seed
from ltlfplan.product import build_product

from helpers import deterministic_chain, eval_stationary_product_policy


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
    reward, _ = scalarize(prod, 5.0, 0.25)
    bonus = reward - prod.rewards
    coef = 5.0 * 0.01 / 0.99
    assert np.allclose(bonus, coef * prod.r_final[:, None])
    assert coef == pytest.approx(0.050505, abs=1e-6)


def test_scalarize_zero_multiplier_trivial_offset():
    model, spec = twostate_constrained(0.9)
    prod = product_for(model, spec)
    reward, offset = scalarize(prod, 0.0, 1.0)
    assert np.array_equal(reward, prod.rewards)
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
    reward, offset = scalarize(prod, lam, 0.0)
    # exact policy evaluation of the only policy (single action)
    X = prod.n_states
    actions = np.zeros(X, dtype=np.int64)
    Ppi = prod.P[np.arange(X), actions, :]
    rpi = reward[np.arange(X), actions]
    value = prod.varpi @ np.linalg.inv(np.eye(X) - 0.5 * Ppi) @ rpi
    assert value == pytest.approx(lam, abs=1e-12)
    # and the Monte-Carlo satisfaction probability is exactly one
    est = mc_evaluate(FixedActionPolicy(0), prod, 200, seed=3)
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
    est = mc_evaluate(FixedActionPolicy(0), prod, 500, seed=11)
    assert est.p_hat == 1.0
    assert est.p_se == 0.0


def test_mc_degenerate_mixture_matches_pure():
    model, spec = twostate_constrained(0.9)
    prod = product_for(model, spec)
    go = AlphaPolicy(np.zeros((1, prod.n_states)), [1], gamma=0.9)
    stay = AlphaPolicy(np.zeros((1, prod.n_states)), [0], gamma=0.9)
    mixture = MixedPolicy([go, stay], [1.0, 0.0])
    a = mc_evaluate(mixture, prod, 400, seed=21)
    b = mc_evaluate(go, prod, 400, seed=21)
    assert a.r_hat == b.r_hat
    assert a.p_hat == b.p_hat


def test_mc_deterministic_single_run_exact():
    chain = deterministic_chain(3, reward_on={0: 1.0, 1: 0.25, 2: 7.0},
                                stopping=StoppingModel.fixed(2))
    prod = product_for(chain, "F a")
    est = mc_evaluate(FixedActionPolicy(0), prod, 64, seed=5)
    assert est.r_hat == pytest.approx(8.25, abs=1e-12)
    assert est.r_se == 0.0
    assert est.p_hat == 1.0


def test_mixture_linearity():
    model, spec = twostate_constrained(0.5)
    prod = product_for(model, spec)
    go = AlphaPolicy(np.zeros((1, prod.n_states)), [1], gamma=0.5)
    stay = AlphaPolicy(np.zeros((1, prod.n_states)), [0], gamma=0.5)
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
    p = AlphaPolicy(np.zeros((1, 2)), [0], gamma=0.5)
    with pytest.raises(ValueError):
        MixedPolicy([p], [0.5])
    with pytest.raises(ValueError):
        MixedPolicy([p, p], [1.5, -0.5])


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
    assert theorem2_report.__name__  # imported
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
    report = theorem2_report(result)
    assert report["bound"] == pytest.approx(regret_bound(5, 4.0))
    assert len(report["trace"]) == 5
    assert {"k", "lambda", "r_hat", "p_hat", "converged"} <= set(report["trace"][0])
    assert report["r_m_estimate_lower_bound"] >= 0.0


def test_records_carry_the_iteration_standard_errors(twostate_product):
    problem = ConstrainedProblem(twostate_product, threshold=0.6, B=4.0, K=3,
                                 eta=1.0, simu=40, base_seed=5)
    result = eg_solve(problem, SolverConfig(n_beliefs=8, max_backup_rounds=150))
    report = theorem2_report(result)
    for rec, policy, entry in zip(result.records, result.mixture.policies, report["trace"]):
        est = mc_evaluate(policy, twostate_product, problem.simu,
                          derive_seed(problem.base_seed, rec.k))
        assert (rec.p_hat, rec.r_hat, rec.p_se, rec.r_se) == \
            (est.p_hat, est.r_hat, est.p_se, est.r_se)
        assert (entry["p_se"], entry["r_se"]) == (est.p_se, est.r_se)
    assert any(rec.p_se > 0 or rec.r_se > 0 for rec in result.records)


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
    est = mc_evaluate(FixedActionPolicy(0), prod, 20_000, seed=55)
    se = max(est.p_se, 1e-9)
    assert abs(est.p_hat - exact) <= 3.5 * se
