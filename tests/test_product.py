import numpy as np
import pytest

from ltlfplan.benchmarks import make_model
from ltlfplan.dfa import compile_minimal_dfa
from ltlfplan.ltlf import TRUE, Word, evaluate_trace, parse_formula
from ltlfplan.pomdp import (
    LabeledPomdp, ModelError, RandomPolicy, StoppingModel, derive_seed, model_to_dict,
    sample_trajectory,
)
from ltlfplan.product import (
    automaton_state_after, build_product, constrained_product, load_product, product_from_dict,
    product_to_dict, prune_unreachable, save_product,
)

from helpers import deterministic_chain, uninformative_two_state


@pytest.fixture(scope="module")
def m1_product():
    model = make_model("M1")
    dfa = compile_minimal_dfa(parse_formula("F a & G !b"), atoms=model.atoms, name="phi1")
    return model, dfa, build_product(model, dfa)


def test_product_is_a_labeled_pomdp(m1_product):
    model, _, prod = m1_product
    assert isinstance(prod, LabeledPomdp)
    assert np.array_equal(prod.labels, model.labels[prod.pairs[:, 0]])
    doc = product_to_dict(prod)
    assert {k: v for k, v in doc.items() if k not in ("final_reward", "provenance")} \
        == model_to_dict(prod)


def test_constrained_product_is_the_hand_pipeline():
    model = make_model("M7")
    text = "F a & G ((a & X b -> F c) & (a & X !b -> F d))"
    dfa = compile_minimal_dfa(parse_formula(text, atoms=model.atoms), atoms=model.atoms,
                              name=text)
    want = prune_unreachable(build_product(model, dfa))
    got = constrained_product(model, text)
    assert got.n_states < model.n_states * dfa.n_states  # pruning removed states
    assert got.equals(want)
    assert np.array_equal(got.pairs, want.pairs)
    assert np.array_equal(got.r_final, want.r_final)


def test_product_size_and_transition_rule():
    model = uninformative_two_state()
    dfa = compile_minimal_dfa(parse_formula("F a"), atoms=model.atoms)
    prod = build_product(model, dfa)
    assert prod.n_states == model.n_states * dfa.n_states
    Q = dfa.n_states
    for s in range(model.n_states):
        for q in range(Q):
            x = s * Q + q
            q_next = int(dfa.delta[q, model.labels[s]])
            for a in range(model.n_actions):
                for s2 in range(model.n_states):
                    for q2 in range(Q):
                        want = model.P[s, a, s2] if q2 == q_next else 0.0
                        assert prod.P[x, a, s2 * Q + q2] == want


def test_product_with_trivial_spec_is_isomorphic():
    model = uninformative_two_state()
    dfa = compile_minimal_dfa(TRUE, atoms=model.atoms)
    assert dfa.n_states == 1
    prod = build_product(model, dfa)
    assert prod.n_states == model.n_states
    assert np.array_equal(prod.P[:, :, :], model.P)
    assert np.array_equal(prod.rewards, model.rewards)
    assert np.all(prod.r_final == 1.0)


def test_m1_product_structure(m1_product):
    model, dfa, prod = m1_product
    assert model.n_states == 16 and dfa.n_states == 3
    assert prod.n_states == 48
    assert np.allclose(prod.P.sum(axis=2), 1.0, atol=1e-9)
    # marginalizing the automaton component recovers the base dynamics
    Q = dfa.n_states
    marg = prod.P.reshape(16, Q, 5, 16, Q).sum(axis=4)
    for q in range(Q):
        assert np.allclose(marg[:, q, :, :], model.P)
    # observation channel depends only on the base component
    for x in range(prod.n_states):
        assert np.array_equal(prod.Z[x], model.Z[prod.base_state(x)])
    assert set(np.unique(prod.r_final)) <= {0.0, 1.0}


def test_product_rejects_atom_mismatch():
    model = uninformative_two_state()
    dfa = compile_minimal_dfa(parse_formula("F z"), atoms=["z"])
    with pytest.raises(ModelError):
        build_product(model, dfa)


def test_automaton_state_after_examples():
    model = make_model("M1")
    dfa = compile_minimal_dfa(parse_formula("F a & G !b"), atoms=model.atoms)
    prod = build_product(model, dfa)
    a_cell = model.states.index("(3,3)")
    b_cell = model.states.index("(1,2)")
    start = model.states.index("(0,0)")
    assert automaton_state_after(prod, [start, a_cell]) in dfa.accepting
    assert automaton_state_after(prod, [start, start]) not in dfa.accepting
    dead = automaton_state_after(prod, [start, b_cell, a_cell])
    assert dead not in dfa.accepting
    # dead state is absorbing: no suffix can recover
    assert automaton_state_after(prod, [start, b_cell, a_cell, a_cell]) == dead


def test_final_state_replay_consistency(m1_product):
    model, dfa, prod = m1_product
    for i in range(30):
        traj = sample_trajectory(prod, RandomPolicy(prod.n_actions, seed=i), seed=derive_seed(4, i))
        base_states = prod.base_run(traj)
        assert prod.final_automaton_state(traj) == automaton_state_after(prod, base_states)


def test_simulate_records_final_automaton_state(m1_product):
    _, dfa, prod = m1_product
    traj = prod.simulate(RandomPolicy(prod.n_actions, seed=9), seed=derive_seed(10))
    assert traj.final_dfa_state is not None
    assert traj.final_dfa_state == prod.final_automaton_state(traj)
    assert 0 <= traj.final_dfa_state < dfa.n_states


def test_theorem1_pathwise_coupling(m1_product):
    model, dfa, prod = m1_product
    formula = parse_formula("F a & G !b")
    label_sets = model.label_sets()
    for i in range(200):
        traj = sample_trajectory(prod, RandomPolicy(prod.n_actions, seed=1000 + i),
                                 seed=derive_seed(5, i))
        base_states = prod.base_run(traj)
        base_reward = model.rewards[base_states, traj.actions].sum()
        assert traj.rewards.sum() == base_reward  # bit-exact channel copy
        word = Word.from_sets([label_sets[s] for s in base_states], atoms=model.atoms)
        assert prod.final_satisfied(traj) == evaluate_trace(formula, word, 0)


def test_prune_preserves_named_dynamics(m1_product):
    model, dfa, prod = m1_product
    pruned = prune_unreachable(prod)
    assert pruned.n_states <= prod.n_states
    assert np.allclose(pruned.P.sum(axis=2), 1.0, atol=1e-9)
    # same runs modulo renaming, for identical seeds
    for i in range(10):
        t_full = sample_trajectory(prod, RandomPolicy(5, seed=i), seed=derive_seed(6, i))
        t_pruned = sample_trajectory(pruned, RandomPolicy(5, seed=i), seed=derive_seed(6, i))
        assert [prod.states[x] for x in t_full.states] == [pruned.states[x] for x in t_pruned.states]
        assert np.array_equal(t_full.rewards, t_pruned.rewards)
        assert prod.final_satisfied(t_full) == pruned.final_satisfied(t_pruned)


def test_prune_keeps_initial_support():
    chain = deterministic_chain(4, stopping=StoppingModel.fixed(3))
    dfa = compile_minimal_dfa(parse_formula("F a"), atoms=chain.atoms)
    prod = build_product(chain, dfa)
    pruned = prune_unreachable(prod)
    assert pruned.varpi.sum() == pytest.approx(1.0)
    assert pruned.n_states < prod.n_states


def test_product_serialization_roundtrip(tmp_path, m1_product):
    _, _, prod = m1_product
    path = tmp_path / "product.json"
    save_product(prod, path)
    again = load_product(path)
    assert again.n_states == prod.n_states
    assert np.array_equal(again.P, prod.P)
    assert np.array_equal(again.r_final, prod.r_final)
    assert np.array_equal(again.pairs, prod.pairs)
    assert again.dfa.accepting == prod.dfa.accepting
    assert again.base.equals(prod.base)


def test_product_dict_requires_provenance(m1_product):
    _, _, prod = m1_product
    doc = product_to_dict(prod)
    del doc["provenance"]
    with pytest.raises(ModelError):
        product_from_dict(doc)
