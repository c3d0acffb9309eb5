import hashlib
import json

import numpy as np
import pytest

from ltlfplan.benchmarks import MODEL_NAMES, make_model
from ltlfplan.dfa import (
    ALIVE, Dfa, DfaBudgetError, canonical_form, compile_dfa, compile_minimal_dfa,
    dfa_from_dict, dfa_to_dict, dfa_to_dot, empty_accept, load_dfa, minimize_dfa, progress,
    save_dfa,
)
from ltlfplan.ltlf import (
    FALSE, TRUE, And, Atom, Eventually, LtlfError, Not, Word, enumerate_letters,
    formula_atoms, parse_formula, satisfaction_table,
)
from ltlfplan.pomdp import make_rng

from helpers import formula_corpus, random_formula

A, B = Atom("a"), Atom("b")
PHI = {name: parse_formula(text) for name, text in {
    "phi1": "F a & G !b",
    "phi2": "F (a & F b)",
    "phi3": "F (a & F (b & F c))",
    "phi4": "!b U (a & F b)",
    "phi5": "F (a | b) & G (b -> (!d U c))",
    "phi6": "F a & G ((a & X b -> F c) & (a & X !b -> F d))",
}.items()}


def batch_language_equal(dfa, formula, atoms, max_len=5):
    accepting = dfa.accepts_mask()
    for length in range(1, max_len + 1):
        letters = enumerate_letters(len(atoms), length)
        want = satisfaction_table(formula, atoms, length)[:, 0]
        got = accepting[dfa.run_batch(letters)]
        if not np.array_equal(want, got):
            return False
    return True


# --------------------------------------------------------------------------
# Progression and empty-word acceptance
# --------------------------------------------------------------------------

def test_progress_eventually():
    assert progress(Eventually(A), {"a"}) == TRUE
    assert progress(Eventually(A), set()) == Eventually(A)


def test_progress_next_uses_alive_marker():
    from ltlfplan.ltlf import Next
    assert progress(Next(A), {"b"}) == And(A, ALIVE)


def test_empty_accept_table():
    assert empty_accept(TRUE) is True
    assert empty_accept(Eventually(A)) is False
    assert empty_accept(parse_formula("G !b")) is True
    assert empty_accept(parse_formula("N a")) is True
    assert empty_accept(parse_formula("X true")) is False
    assert empty_accept(parse_formula("a R b")) is True


# --------------------------------------------------------------------------
# Canonicalization
# --------------------------------------------------------------------------

def test_canonicalize_idempotence_and_domination():
    assert canonical_form(And(A, A))[0] == canonical_form(A)[0]
    assert canonical_form(parse_formula("F a | true"))[0] == canonical_form(TRUE)[0]
    assert canonical_form(parse_formula("a | !a"))[0] == canonical_form(TRUE)[0]
    assert canonical_form(parse_formula("a & !a"))[0] == canonical_form(FALSE)[0]


def test_canonicalize_discharges_progressed_conjunct():
    residual = progress(PHI["phi1"], {"a"})
    assert canonical_form(residual)[0] == canonical_form(parse_formula("G !b"))[0]


def test_canonical_form_representative_is_equivalent():
    f = parse_formula("(a -> F b) & (F b -> F b)")
    key, rep = canonical_form(f)
    assert canonical_form(rep)[0] == key
    for length in range(1, 4):
        assert np.array_equal(satisfaction_table(f, ("a", "b"), length),
                              satisfaction_table(rep, ("a", "b"), length))


# --------------------------------------------------------------------------
# Compilation
# --------------------------------------------------------------------------

def test_compile_eventually_structure():
    d = compile_dfa(Eventually(A))
    assert d.n_states == 2
    assert d.initial == 0
    assert d.accepting == frozenset({1})
    assert d.delta.tolist() == [[0, 1], [1, 1]]  # {}-loop, {a} reaches the sink


def test_compile_true_single_accepting_sink():
    d = compile_dfa(TRUE, atoms=["a"])
    assert d.n_states == 1
    assert d.accepting == frozenset({0})


def test_compile_reach_avoid_three_states():
    d = minimize_dfa(compile_dfa(PHI["phi1"]))
    assert d.n_states == 3
    assert batch_language_equal(d, PHI["phi1"], ("a", "b"))


@pytest.mark.parametrize("name,size", [
    ("phi1", 3), ("phi2", 3), ("phi3", 4), ("phi4", 4), ("phi5", 4), ("phi6", 10),
])
def test_compile_benchmark_spec_sizes(name, size):
    d = compile_minimal_dfa(PHI[name])
    assert d.n_states == size


def test_compile_rejects_too_many_atoms():
    atoms = [f"a{i}" for i in range(9)]
    with pytest.raises(LtlfError):
        compile_dfa(A, atoms=atoms)


def test_compile_budget_error(monkeypatch):
    monkeypatch.setattr("ltlfplan.dfa.STATE_BUDGET", 2)
    with pytest.raises(DfaBudgetError):
        compile_dfa(PHI["phi3"])


def test_compiler_transitions_match_progress_canonicalize():
    # delta(state, letter) must be the canonical form of progressing the
    # state's representative formula
    d = compile_dfa(PHI["phi1"])
    reps = [parse_formula(ann) for ann in d.annotations]
    for q, rep in enumerate(reps):
        for mask in range(d.alphabet_size):
            sigma = {a for i, a in enumerate(d.atoms) if mask >> i & 1}
            target = int(d.delta[q, mask])
            assert canonical_form(progress(rep, sigma))[0] == canonical_form(reps[target])[0]


# --------------------------------------------------------------------------
# Minimization
# --------------------------------------------------------------------------

def test_minimize_idempotent_on_minimal():
    d = compile_minimal_dfa(PHI["phi4"])
    again = minimize_dfa(d)
    assert again.n_states == d.n_states
    assert np.array_equal(again.delta, d.delta)
    assert again.accepting == d.accepting


def test_minimize_merges_duplicated_sink():
    # F a with two copies of the accepting sink
    delta = np.array([[0, 1], [2, 1], [1, 2]])
    redundant = Dfa(("a",), delta, 0, {1, 2})
    mini = minimize_dfa(redundant)
    assert mini.n_states == 2
    for length in range(1, 6):
        letters = enumerate_letters(1, length)
        got = mini.accepts_mask()[mini.run_batch(letters)]
        want = redundant.accepts_mask()[redundant.run_batch(letters)]
        assert np.array_equal(got, want)


# sha256 of the sorted-key JSON of [dfa_to_dict(raw), dfa_to_dict(minimize_dfa(raw))]
# for raw = compile_dfa(f, atoms) over a case's formulas: any change to the
# states either step keeps, their numbering, acceptance or annotations changes
# a digest.  An atom case covers every phi1..phi6 over that atom set;
# "redundant" is the duplicated-sink DFA above plus an unreachable dead state.
AUTOMATON_DIGESTS = {
    "ab": "16e240d48467f43031a1faaa7691f6d5fb14193cca45ce6bfa0ed1b645a6383a",
    "abc": "7a1eceaa3ea1b1cf60c9200d2671042b47fb360674393e56308b625b3acd0dc7",
    "abcd": "a27ee7490356e3e60cb77eb3ee00983beb32fc2f1f7b872375f6ee771ceb9916",
    "corpus": "b6bd0f05631423cd329d1cbe9c6e7c907bfa1cfe7347d36f5ab2f133ab82c556",
    "redundant": "e0c1c3431ed3410fb306dc620764537ffd0b360a4822ae9ad2392073435b7c9b",
}


def automaton_docs(case):
    if case == "redundant":
        delta = np.array([[0, 1], [2, 1], [1, 2], [3, 3]])
        raw = Dfa(("a",), delta, 0, {1, 2}, ["q0", "q1", "q2", "q3"], name="redundant")
        return [[dfa_to_dict(raw), dfa_to_dict(minimize_dfa(raw))]]
    if case == "corpus":
        pairs = [(f, ("a", "b")) for f in formula_corpus(300, seed=2024, depth=4)]
    else:
        pairs = [(f, tuple(case)) for f in PHI.values() if formula_atoms(f) <= set(case)]
    docs = []
    for f, atoms in pairs:
        raw = compile_dfa(f, atoms=atoms)
        docs.append([dfa_to_dict(raw), dfa_to_dict(minimize_dfa(raw))])
    return docs


def test_atom_cases_are_the_preset_atom_sets():
    assert {"".join(make_model(name).atoms) for name in MODEL_NAMES} == {"ab", "abc", "abcd"}


@pytest.mark.parametrize("case", ["ab", "abc", "abcd", "corpus", "redundant"])
def test_automata_are_the_recorded_bits(case):
    doc = json.dumps(automaton_docs(case), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == AUTOMATON_DIGESTS[case]


def test_minimize_drops_unreachable_states():
    delta = np.array([[0, 1], [1, 1], [0, 0]])  # state 2 unreachable
    d = Dfa(("a",), delta, 0, {1})
    mini = minimize_dfa(d)
    assert mini.n_states == 2


def test_minimize_strict_order_spec_is_four_states():
    assert compile_minimal_dfa(PHI["phi4"]).n_states == 4


def test_minimization_preserves_language_random_words():
    rng = make_rng(17)
    for f in formula_corpus(25, seed=31, depth=4):
        atoms = ("a", "b")
        raw = compile_dfa(f, atoms=atoms)
        mini = minimize_dfa(raw)
        for length in range(1, 7):
            letters = enumerate_letters(2, length)
            assert np.array_equal(raw.accepts_mask()[raw.run_batch(letters)],
                                  mini.accepts_mask()[mini.run_batch(letters)])
        long_words = rng.integers(0, 4, size=(10_000, 12))
        assert np.array_equal(raw.accepts_mask()[raw.run_batch(long_words)],
                              mini.accepts_mask()[mini.run_batch(long_words)])


# --------------------------------------------------------------------------
# Acceptance runs
# --------------------------------------------------------------------------

def test_dfa_accepts_examples():
    d = compile_minimal_dfa(Eventually(A), atoms=["a"])
    assert d.run(Word.from_sets([{"a"}]).letters) in d.accepting
    assert d.run(Word.from_sets([set(), set()], atoms=["a"]).letters) not in d.accepting


def test_dfa_rejects_avoid_violation():
    d = compile_minimal_dfa(PHI["phi1"])
    w = Word.from_sets([set(), {"b"}, {"a"}], atoms=["a", "b"])
    assert d.run(w.letters) not in d.accepting


def test_dfa_accepts_empty_word_is_initial_acceptance():
    for f in (PHI["phi1"], parse_formula("G !b"), TRUE):
        d = compile_minimal_dfa(f, atoms=["a", "b"])
        assert (d.run([]) in d.accepting) == empty_accept(f)


def test_dfa_letter_out_of_range():
    d = compile_minimal_dfa(Eventually(A), atoms=["a"])
    with pytest.raises(LtlfError):
        d.step(0, 5)


def test_compiler_correctness_random_sample():
    for f in formula_corpus(60, seed=77, depth=4):
        d = compile_minimal_dfa(f, atoms=("a", "b"))
        assert batch_language_equal(d, f, ("a", "b"), max_len=4)


def test_dfa_structural_validation():
    with pytest.raises(LtlfError):
        Dfa(("a",), np.array([[0, 2], [1, 1]]), 0, {1})  # dangling target
    with pytest.raises(LtlfError):
        Dfa(("a",), np.array([[0, 1], [1, 1]]), 5, {1})  # bad initial
    with pytest.raises(LtlfError):
        Dfa(("a",), np.array([[0, 1], [1, 1]]), 0, {7})  # bad accepting


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def test_dfa_roundtrip_file(tmp_path):
    d = compile_minimal_dfa(PHI["phi4"], name="phi4")
    path = tmp_path / "dfa.json"
    save_dfa(d, path)
    loaded = load_dfa(path)
    assert loaded.n_states == d.n_states
    assert np.array_equal(loaded.delta, d.delta)
    assert loaded.accepting == d.accepting
    assert loaded.atoms == d.atoms
    assert loaded.name == "phi4"


def test_dfa_dict_validation():
    doc = dfa_to_dict(compile_minimal_dfa(Eventually(A)))
    doc["n_states"] = 99
    with pytest.raises(LtlfError):
        dfa_from_dict(doc)
    good = {"atoms": ["a"], "delta": [[0, 1], [1, 1]], "initial": 0, "accepting": [1]}
    assert dfa_from_dict(good).delta.tolist() == good["delta"]
    for field, value in [("delta", [[0.7, 1], [1, 1]]), ("delta", [["1", 1], [1, 1]]),
                         ("delta", [[True, 1], [1, 1]]), ("delta", [0, 1]),
                         ("initial", 0.9), ("initial", True), ("accepting", [1.5]),
                         ("accepting", [True]), ("accepting", 1)]:
        with pytest.raises(LtlfError, match="JSON integers"):
            dfa_from_dict({**good, field: value})
    assert dfa_from_dict({**good, "n_states": 2}).n_states == 2
    for value in (2.0, "2", True, None):
        with pytest.raises(LtlfError, match="n_states must be a JSON integer"):
            dfa_from_dict({**good, "n_states": value})
    # atoms, annotations and name are refused, not coerced
    assert dfa_from_dict({**good, "annotations": None, "name": "F a"}).name == "F a"
    for field, value in [("atoms", "a"), ("atoms", ["a", 1]), ("annotations", "xy"),
                         ("annotations", ["x", 2]), ("annotations", [None, "y"]),
                         ("name", 7), ("name", None), ("name", ["F a"])]:
        with pytest.raises(LtlfError, match="strings"):
            dfa_from_dict({**good, field: value})


def test_dfa_dict_needs_one_annotation_per_state():
    doc = {"atoms": ["a"], "delta": [[0, 1], [1, 1]], "initial": 0, "accepting": [1]}
    assert dfa_from_dict({**doc, "annotations": ["x", "y"]}).annotations == ["x", "y"]
    with pytest.raises(LtlfError, match="1 annotations for 2 states"):
        dfa_from_dict({**doc, "annotations": ["x"]})


def test_dot_export_mentions_every_state():
    d = compile_minimal_dfa(PHI["phi1"])
    dot = dfa_to_dot(d)
    for q in range(d.n_states):
        assert f"q{q}" in dot
    assert "doublecircle" in dot
