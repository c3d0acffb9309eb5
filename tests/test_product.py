import json
from collections import deque

import numpy as np
import pytest

import ltlfplan.product
from ltlfplan.benchmarks import (
    PRESETS, build_instance, make_model, make_spec, random_tiny_model,
)
from ltlfplan.dfa import compile_minimal_dfa
from ltlfplan.ltlf import TRUE, LtlfError, Word, evaluate_trace, parse_formula
from ltlfplan.pomdp import (
    LabeledPomdp, ModelError, RandomPolicy, StoppingModel, derive_seed, model_to_dict,
    sample_trajectory,
)
from ltlfplan.product import (
    build_product, constrained_product, load_product, product_from_dict, product_to_dict,
    prune_unreachable, save_product,
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


def twostate_full():
    model = uninformative_two_state()
    return build_product(model, compile_minimal_dfa(parse_formula("F a"), atoms=model.atoms))


def tiny_fixed_horizon_pruned():
    model = random_tiny_model(12345, n_states=3, n_actions=2, n_obs=2, horizon=6, n_atoms=2)
    return constrained_product(model, "a U b")


TRANSITION_RULE_PRODUCTS = {
    "twostate_full": twostate_full,
    "m7_phi6_pruned": lambda: constrained_product(make_model("M7"), make_spec("phi6")),
    "tiny_fixed_pruned": tiny_fixed_horizon_pruned,
}


@pytest.mark.parametrize("case", sorted(TRANSITION_RULE_PRODUCTS))
def test_product_size_and_transition_rule(case):
    prod = TRANSITION_RULE_PRODUCTS[case]()
    model, dfa = prod.base, prod.dfa
    dense = model.n_states * dfa.n_states
    assert prod.n_states == dense if case.endswith("_full") else prod.n_states < dense
    s, q = prod.pairs.T.tolist()
    for x in range(prod.n_states):
        q_next = int(dfa.delta[q[x], model.labels[s[x]]])
        for a in range(model.n_actions):
            for y in range(prod.n_states):
                want = model.P[s[x], a, s[y]] if q[y] == q_next else 0.0
                assert prod.P[x, a, y] == want


@pytest.mark.parametrize("row", sorted(PRESETS))
def test_pruned_product_is_the_full_product_restricted(row):
    """Pruning keeps pairs only: the pruned product's tables are the full
    product's, restricted by np.ix_ to the kept indices, bit for bit."""
    model = make_model(row)
    text = make_spec(PRESETS[row].spec)
    dfa = compile_minimal_dfa(parse_formula(text, atoms=model.atoms), atoms=model.atoms,
                              name=text)
    full = build_product(model, dfa)
    pruned = prune_unreachable(full)
    keep = pruned.pairs[:, 0] * dfa.n_states + pruned.pairs[:, 1]  # full index s*Q + q
    assert np.all(np.diff(keep) > 0)
    assert pruned.states == [full.states[x] for x in keep]
    restricted = {"P": full.P[np.ix_(keep, np.arange(full.n_actions), keep)]}
    for field in ("Z", "varpi", "rewards", "labels", "pairs", "r_final", "accepts_at_stop"):
        restricted[field] = getattr(full, field)[keep]
    for field, want in restricted.items():
        got = getattr(pruned, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field


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
        assert np.array_equal(prod.Z[x], model.Z[prod.pairs[x, 0]])
    assert set(np.unique(prod.r_final)) <= {0.0, 1.0}


def test_product_rejects_atom_mismatch():
    model = uninformative_two_state()
    dfa = compile_minimal_dfa(parse_formula("F z"), atoms=["z"])
    with pytest.raises(ModelError):
        build_product(model, dfa)


def stop_state(prod, word):
    """The product state at which a run whose base states are ``word`` stops:
    its last base state paired with the automaton state before that state's
    label, found by Dfa.run over the labels of the rest of the word."""
    want = (word[-1], prod.dfa.run(prod.base.labels[word[:-1]]))
    (x,) = np.flatnonzero((prod.pairs == want).all(axis=1))
    return x


def test_automaton_state_after_examples():
    """Spec verdicts of M1 runs stopping after each word, read off accepts_at_stop."""
    model = make_model("M1")
    dfa = compile_minimal_dfa(parse_formula("F a & G !b"), atoms=model.atoms)
    prod = build_product(model, dfa)
    a_cell = model.states.index("(3,3)")
    b_cell = model.states.index("(1,2)")
    start = model.states.index("(0,0)")
    assert prod.accepts_at_stop[stop_state(prod, [start, a_cell])]
    assert not prod.accepts_at_stop[stop_state(prod, [start, start])]
    assert not prod.accepts_at_stop[stop_state(prod, [start, b_cell, a_cell])]
    assert not prod.accepts_at_stop[stop_state(prod, [start, b_cell, a_cell, a_cell])]
    # the automaton state after b is dead: no run through it is accepted
    dead = prod.pairs[stop_state(prod, [start, b_cell, a_cell]), 1]
    assert dead == prod.pairs[stop_state(prod, [start, b_cell, a_cell, a_cell]), 1]
    assert not prod.accepts_at_stop[prod.pairs[:, 1] == dead].any()
    with pytest.raises(ValueError):
        prod.accepts_at_stop[0] = True  # read-only


def test_final_state_replay_consistency(m1_product):
    model, dfa, prod = m1_product
    for i in range(30):
        traj = sample_trajectory(prod, RandomPolicy(prod.n_actions, seed=i), seed=derive_seed(4, i))
        word = model.labels[prod.base_run(traj)]
        assert prod.accepts_at_stop[traj.state_list[-1]] == (dfa.run(word) in dfa.accepting)


def test_product_runs_are_plain_pomdp_runs(m1_product):
    """planner.rollouts samples product runs through product.sample_trajectory,
    which is the POMDP simulator itself; its Outcome of a run has that run's
    rewards and last state."""
    _, _, prod = m1_product
    assert ltlfplan.product.sample_trajectory is sample_trajectory
    full = sample_trajectory(prod, RandomPolicy(prod.n_actions, seed=9), seed=derive_seed(10))
    assert vars(full).keys() == {"state_list", "action_list", "observation_list", "reward_list"}
    lean = sample_trajectory(prod, RandomPolicy(prod.n_actions, seed=9), seed=derive_seed(10),
                             full=False)
    assert (lean.reward_list, lean.last_state, len(lean)) == \
        (full.reward_list, full.state_list[-1], len(full))


def base_words(prod):
    """For every product state x, a base-state word of a run that reaches x,
    found by breadth-first search over the product's transitions."""
    words = {int(x): [int(prod.pairs[x, 0])] for x in np.flatnonzero(prod.varpi)}
    frontier = deque(words)
    support = prod.P.sum(axis=1) > 0
    while frontier:
        x = frontier.popleft()
        for y in np.flatnonzero(support[x]).tolist():
            if y not in words:
                words[y] = words[x] + [int(prod.pairs[y, 0])]
                frontier.append(y)
    return words


def assert_accepts_at_stop_is_the_dfa_verdict(prod):
    dfa, labels = prod.dfa, prod.base.labels
    words = base_words(prod)
    assert sorted(words) == list(range(prod.n_states))  # pruned: every state reachable
    for x, word in words.items():
        assert prod.pairs[x, 1] == dfa.run(labels[word[:-1]])
        assert prod.accepts_at_stop[x] == (dfa.run(labels[word]) in dfa.accepting)


@pytest.mark.parametrize("row", sorted(PRESETS))
def test_accepts_at_stop_on_every_preset_product(row, tmp_path):
    prod = build_instance(row)
    assert prod.accepts_at_stop.shape == (prod.n_states,)
    assert_accepts_at_stop_is_the_dfa_verdict(prod)
    path = tmp_path / "product.json"
    save_product(prod, path)
    again = load_product(path)
    assert np.array_equal(again.accepts_at_stop, prod.accepts_at_stop)
    assert_accepts_at_stop_is_the_dfa_verdict(again)


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
        assert prod.accepts_at_stop[traj.state_list[-1]] == evaluate_trace(formula, word, 0)


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
        assert prod.accepts_at_stop[t_full.state_list[-1]] == \
            pruned.accepts_at_stop[t_pruned.state_list[-1]]


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


def test_provenance_dfa_entries_are_not_coerced():
    doc = product_to_dict(twostate_full())
    doc["provenance"]["dfa_doc"]["initial"] = 0.0
    with pytest.raises(LtlfError, match="JSON integers"):
        product_from_dict(doc)


def _swap_pairs(doc):
    pairs = doc["provenance"]["pairs"]
    pairs[0], pairs[1] = pairs[1], pairs[0]


def _duplicate_pair(doc):
    pairs = doc["provenance"]["pairs"]
    pairs[1] = list(pairs[0])


def _q_out_of_range(doc):
    doc["provenance"]["pairs"][0][1] = 99


def _pairs_string(doc):
    doc["provenance"]["pairs"] = "0,0"


def _edit_transition(doc):
    row = next(r for r in doc["transitions"] if len(r["next"]) == 2)
    row["next"] = dict(zip(row["next"], reversed(list(row["next"].values()))))


def _flip_final_reward(doc):
    name = next(iter(doc["final_reward"]))
    doc["final_reward"][name] = 1 - doc["final_reward"][name]


MALFORMED_PRODUCTS = {
    "swapped_pairs": _swap_pairs,
    "duplicated_pair": _duplicate_pair,
    "q_out_of_range": _q_out_of_range,
    "pairs_string": _pairs_string,
    "missing_pairs": lambda doc: doc["provenance"].pop("pairs"),
    "edited_transition": _edit_transition,
    "edited_final_reward": _flip_final_reward,
    "missing_final_reward": lambda doc: doc.pop("final_reward"),
    "name_number": lambda doc: doc.update(name=7),
    "base_name_null": lambda doc: doc["provenance"]["base_model"].update(name=None),
    "invalid_json": None,  # the document's text cut short
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PRODUCTS))
def test_malformed_product_document_is_a_model_error(case, tmp_path):
    path = tmp_path / "product.json"
    doc = product_to_dict(twostate_full())
    path.write_text(json.dumps(doc))
    assert load_product(path).equals(product_from_dict(doc))  # the unedited document loads
    if MALFORMED_PRODUCTS[case] is None:
        path.write_text(json.dumps(doc)[:-1])
    else:
        MALFORMED_PRODUCTS[case](doc)
        path.write_text(json.dumps(doc))
    with pytest.raises(ModelError):
        load_product(path)
