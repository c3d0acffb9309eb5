"""Acceptance gate: each test enforces one numbered criterion at its stated
tolerance and prints a PASS line with the measured values (visible with -s).

Criteria 7/8/9 share the expensive exponentiated-gradient runs through
module-scoped fixtures, so the whole gate stays inside the stated runtime
budgets on desk hardware.
"""

import math
import time

import numpy as np
import pytest

from ltlfplan.benchmarks import chain3, coupling_suite, random_tiny_model, run_experiment, twostate_constrained
from ltlfplan.dfa import compile_dfa, compile_minimal_dfa, empty_accept, progress
from ltlfplan.ltlf import Word, enumerate_letters, evaluate_trace, parse_formula, satisfaction_table
from ltlfplan.pbvi import (
    AlphaPolicy, SolverConfig, exact_value_oracle, solve_finite_horizon, start_value,
)
from ltlfplan.planner import ConstrainedProblem, eg_solve, mc_evaluate, regret_bound
from ltlfplan.pomdp import RandomPolicy, derive_seed, sample_trajectory
from ltlfplan.product import build_product, prune_unreachable

from helpers import eval_stationary_product_policy, formula_corpus, lp_mixture_optimum

SPEC_TEXTS = {
    "phi1": "F a & G !b",
    "phi2": "F (a & F b)",
    "phi3": "F (a & F (b & F c))",
    "phi4": "!b U (a & F b)",
    "phi5": "F (a | b) & G (b -> (!d U c))",
    "phi6": "F a & G ((a & X b -> F c) & (a & X !b -> F d))",
}


def acceptance_corpus():
    named = [(parse_formula(text), None) for text in SPEC_TEXTS.values()]
    random = [(f, ("a", "b")) for f in formula_corpus(200, seed=20240, depth=4)]
    return named + random


def _atoms_of(formula, fixed):
    if fixed is not None:
        return fixed
    from ltlfplan.ltlf import formula_atoms
    return tuple(sorted(formula_atoms(formula))) or ("a",)


# --------------------------------------------------------------------------
# 1. LTLf <-> DFA equivalence (exact, exhaustive words of length 1..5)
# --------------------------------------------------------------------------

def test_acceptance_1_dfa_trace_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    checked_words = 0
    for formula, fixed in acceptance_corpus():
        atoms = _atoms_of(formula, fixed)
        dfa = compile_minimal_dfa(formula, atoms=atoms)
        accepting = dfa.accepts_mask()
        for length in range(1, 6):
            letters = enumerate_letters(len(atoms), length)
            want = satisfaction_table(formula, atoms, length)[:, 0]
            got = accepting[dfa.run_batch(letters)]
            mismatches += int(np.count_nonzero(want != got))
            checked_words += letters.shape[0]
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: DFA == trace oracle on {checked_words} words, "
          f"206 formulas, 0 mismatches, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Progression soundness (exact, same corpus)
# --------------------------------------------------------------------------

def test_acceptance_2_progression_soundness():
    t0 = time.monotonic()
    mismatches = 0
    for formula, fixed in acceptance_corpus():
        atoms = _atoms_of(formula, fixed)
        n_letters = 1 << len(atoms)
        letter_sets = [frozenset(a for i, a in enumerate(atoms) if m >> i & 1)
                       for m in range(n_letters)]
        for length in range(1, 6):
            table = satisfaction_table(formula, atoms, length)[:, 0]
            block = n_letters ** (length - 1)
            for first, sigma in enumerate(letter_sets):
                residual = progress(formula, sigma)
                want = table[first * block:(first + 1) * block]
                if length == 1:
                    got = np.array([empty_accept(residual)])
                else:
                    got = satisfaction_table(residual, atoms, length - 1)[:, 0]
                mismatches += int(np.count_nonzero(want != got))
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    print(f"\nPASS criterion 2: progression suffix recursion exact on the corpus, "
          f"0 mismatches, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. Pathwise product coupling over 10^4 trajectories on 5 bundled models
# --------------------------------------------------------------------------

def test_acceptance_3_pathwise_coupling():
    per_model = 2000
    total = 0
    for model_idx, (model, spec_text) in enumerate(coupling_suite()):
        formula = parse_formula(spec_text, atoms=model.atoms)
        dfa = compile_minimal_dfa(formula, atoms=model.atoms)
        prod = build_product(model, dfa)
        label_sets = model.label_sets()
        for i in range(per_model):
            policy = RandomPolicy(prod.n_actions, seed=derive_seed(model_idx, i, 1))
            traj = sample_trajectory(prod, policy, derive_seed(model_idx, i, 2))
            base_states = prod.base_run(traj)
            base_sum = model.rewards[base_states, traj.actions].sum()
            assert traj.rewards.sum() == base_sum  # exact, not approximate
            word = Word.from_sets([label_sets[s] for s in base_states], atoms=model.atoms)
            assert prod.accepts_at_stop[traj.state_list[-1]] == evaluate_trace(formula, word, 0)
            total += 1
    assert total == 5 * per_model
    print(f"\nPASS criterion 3: reward and acceptance coupling exact on {total} trajectories")


# --------------------------------------------------------------------------
# 4. Scalarization identity on the bundled chain (statistical, 3 SE)
# --------------------------------------------------------------------------

def test_acceptance_4_geometric_final_reward_identity():
    t0 = time.monotonic()
    gamma = 0.9
    model, spec_text = chain3(gamma)
    dfa = compile_minimal_dfa(parse_formula(spec_text), atoms=model.atoms)
    prod = build_product(model, dfa)
    # exact forward matrix recursion for (1-gamma)/gamma sum_{t>=1} gamma^t E r_f(X_t)
    M = prod.P[:, 0, :]
    dist = prod.varpi.copy()
    series = 0.0
    t = 1
    while gamma ** t > 1e-12:
        dist = dist @ M
        series += gamma ** t * float(dist @ prod.r_final)
        t += 1
    exact = (1 - gamma) / gamma * series
    est = mc_evaluate(AlphaPolicy(np.zeros((1, prod.n_states)), [0]), prod, 100_000, seed=4040)
    elapsed = time.monotonic() - t0
    assert abs(est.p_hat - exact) <= 3 * est.p_se
    assert elapsed < 60.0
    print(f"\nPASS criterion 4: E r_f(X_(T+1)) = {est.p_hat:.4f} vs exact {exact:.4f} "
          f"(3 SE = {3 * est.p_se:.4f}), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. Finite-horizon solver exact on ten tiny instances (1e-9)
# --------------------------------------------------------------------------

def test_acceptance_5_finite_horizon_optimality():
    cases = [
        (101, 3, "F a", 1, 1, 0.0), (102, 3, "F a", 2, 1, 0.8),
        (103, 3, "G a", 3, 1, 1.5), (104, 3, "G a", 2, 1, 0.0),
        (105, 2, "a U b", 2, 2, 0.7), (106, 2, "a U b", 3, 2, 1.2),
        (107, 3, "F a", 3, 1, 0.5), (108, 3, "G a", 1, 1, 2.0),
        (109, 2, "a U b", 1, 2, 0.0), (110, 3, "F a", 2, 1, 1.0),
    ]
    worst = 0.0
    for seed, n_states, spec_text, T, n_atoms, lam in cases:
        model = random_tiny_model(seed, n_states=n_states, horizon=T, n_atoms=n_atoms)
        dfa = compile_minimal_dfa(parse_formula(spec_text), atoms=model.atoms)
        prod = build_product(model, dfa)
        assert prod.n_states <= 6 and prod.n_observations <= 2 and T <= 3
        terminal = lam * prod.r_final
        # n_beliefs at least every stage's size (at most 128), so no stage is capped
        policy = solve_finite_horizon(prod, prod.rewards, T, SolverConfig(n_beliefs=128),
                                      terminal=terminal)
        assert policy.converged is True
        oracle = exact_value_oracle(prod, prod.rewards, T, terminal=terminal)
        gap = abs(start_value(policy, prod) - oracle)
        worst = max(worst, gap)
        assert gap <= 1e-9
    print(f"\nPASS criterion 5: 10 tiny instances, worst |solver - oracle| = {worst:.2e}")


# --------------------------------------------------------------------------
# 6. EG near-optimality against an exact LP oracle (K = 400, B = 4)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eg_twostate_run():
    model, spec_text = twostate_constrained(0.9)
    dfa = compile_minimal_dfa(parse_formula(spec_text), atoms=model.atoms)
    prod = build_product(model, dfa)
    problem = ConstrainedProblem(prod, threshold=0.75, B=4.0, K=400, eta="auto",
                                 simu=2000, base_seed=606)
    cfg = SolverConfig(n_beliefs=12, max_backup_rounds=500, bellman_tolerance=1e-8,
                       expansion_seed=1)
    t0 = time.monotonic()
    result = eg_solve(problem, cfg)
    elapsed = time.monotonic() - t0
    final = mc_evaluate(result.mixture, prod, 20_000, seed=6464)
    return prod, problem, result, final, elapsed


@pytest.mark.slow
def test_acceptance_6_eg_near_optimality(eg_twostate_run):
    prod, problem, result, final, elapsed = eg_twostate_run
    gamma = prod.stopping.gamma
    # exact frontier over all deterministic stationary product policies
    rewards, sats = [], []
    for bits in range(2 ** prod.n_states):
        actions = np.array([(bits >> x) & 1 for x in range(prod.n_states)])
        r, p = eval_stationary_product_policy(prod, actions, gamma)
        rewards.append(r)
        sats.append(p)
    oracle = lp_mixture_optimum(rewards, sats, problem.threshold)
    bound = regret_bound(problem.K, problem.B)
    assert bound == pytest.approx(0.471, abs=5e-4)
    assert final.r_hat >= oracle - bound - 3 * final.r_se
    assert final.p_hat >= problem.threshold - result.eps_f - 3 * final.p_se
    assert elapsed < 600.0
    print(f"\nPASS criterion 6: r_hat {final.r_hat:.3f} >= {oracle:.3f} - {bound:.3f} "
          f"- 3se; p_hat {final.p_hat:.3f} >= {problem.threshold} - {result.eps_f:.3f} "
          f"- 3se; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 7. Desk-scale reproduction of the reported gridworld rows (soft targets)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def gridworld_runs():
    t0 = time.monotonic()
    runs = {}
    for name in ("M1", "M3"):
        row, result, prod = run_experiment(name, K=30, seed=2026, eval_rollouts=1500)
        runs[name] = (row, result, prod)
    return runs, time.monotonic() - t0


@pytest.mark.slow
def test_acceptance_7_gridworld_soft_reproduction(gridworld_runs):
    runs, elapsed = gridworld_runs
    row1 = runs["M1"][0]
    assert row1["p_hat"] >= 0.70
    assert row1["r_hat"] >= 1.3
    row3 = runs["M3"][0]
    assert row3["p_hat"] >= 0.70
    assert elapsed < 1800.0
    print(f"\nPASS criterion 7: M1/phi1 p_hat={row1['p_hat']:.3f} (>=0.70, reported 0.75) "
          f"r_hat={row1['r_hat']:.3f} (>=1.3, reported 1.72); "
          f"M3/phi2 p_hat={row3['p_hat']:.3f} (>=0.70, reported 0.76); {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 8. Multiplier trace shape: sign of every update matches the violation sign
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_8_eg_trace_shape(gridworld_runs):
    runs, _ = gridworld_runs
    checked = 0
    for name, (row, result, _) in runs.items():
        threshold = result.threshold
        for rec, nxt in zip(result.records, result.records[1:]):
            if rec.p_hat > threshold:
                assert nxt.lam < rec.lam, (name, rec.k)
            elif rec.p_hat < threshold:
                assert nxt.lam > rec.lam, (name, rec.k)
            checked += 1
    print(f"\nPASS criterion 8: multiplier moves against the violation sign at all "
          f"{checked} iterations of both runs")


# --------------------------------------------------------------------------
# 9. Support reduction: two policies suffice on every completed run
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_9_bfs_reduction(eg_twostate_run, gridworld_runs):
    runs, _ = gridworld_runs
    results = [eg_twostate_run[2]] + [runs[name][1] for name in runs]
    for result in results:
        w = result.bfs_weights
        assert w is not None
        r_hats = np.array([rec.r_hat for rec in result.records])
        p_hats = np.array([rec.p_hat for rec in result.records])
        assert np.count_nonzero(w) <= 2
        assert w @ r_hats >= r_hats.mean() - 1e-9
        assert w @ p_hats >= result.threshold - result.slack - 1e-12
    print(f"\nPASS criterion 9: BFS mixtures have support <= 2, dominate the uniform "
          f"mixture, and meet the slack-relaxed constraint on all {len(results)} runs")
