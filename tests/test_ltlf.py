import numpy as np
import pytest

from ltlfplan.dfa import dfa_from_dict
from ltlfplan.ltlf import (
    FALSE, TRUE, Always, And, Atom, Eventually, Implies, LtlfError, LtlfSyntaxError,
    Next, Not, Or, Release, Until, UnknownAtomError, WeakNext, Word, check_atoms,
    enumerate_letters, evaluate_trace, format_formula, formula_atoms, parse_formula,
    satisfaction_table,
)
from ltlfplan.pomdp import LabeledPomdp, ModelError, make_rng, model_from_dict, model_to_dict

from helpers import formula_corpus, random_formula, uninformative_two_state

A, B, C = Atom("a"), Atom("b"), Atom("c")


def word(*sets, atoms=None):
    return Word.from_sets(sets, atoms=atoms)


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

def test_parse_precedence_reach_avoid():
    # unary binds tighter than & so this must read as a conjunction of F and G
    assert parse_formula("F a & G !b") == And(Eventually(A), Always(Not(B)))


def test_parse_single_atom():
    assert parse_formula("a") == A


def test_parse_until_right_associative():
    assert parse_formula("a U b U c") == Until(A, Until(B, C))


def test_parse_release_and_mixed_until():
    assert parse_formula("a R b") == Release(A, B)
    assert parse_formula("a U b R c") == Until(A, Release(B, C))


def test_parse_implies_right_associative():
    assert parse_formula("a -> b -> c") == Implies(A, Implies(B, C))


def test_parse_literals_and_parens():
    assert parse_formula("true") is TRUE or parse_formula("true") == TRUE
    assert parse_formula("(a | false) & X b") == And(Or(A, FALSE), Next(B))
    assert parse_formula("N a") == WeakNext(A)


def test_parse_precedence_levels():
    assert parse_formula("a U b & c") == And(Until(A, B), C)
    assert parse_formula("a & b | c") == Or(And(A, B), C)
    assert parse_formula("a | b -> c") == Implies(Or(A, B), C)


def test_parse_syntax_error_has_position():
    with pytest.raises(LtlfSyntaxError) as err:
        parse_formula("a U")
    assert err.value.position == 3
    with pytest.raises(LtlfSyntaxError):
        parse_formula("a &&& b")
    with pytest.raises(LtlfSyntaxError):
        parse_formula("(a U b")
    with pytest.raises(LtlfSyntaxError):
        parse_formula("a b")


def test_parse_unknown_atom_with_explicit_list():
    with pytest.raises(UnknownAtomError):
        parse_formula("a & c", atoms=["a", "b"])
    assert parse_formula("a & b", atoms=["a", "b"]) == And(A, B)


def test_atom_name_validation():
    with pytest.raises(LtlfError):
        Atom("Bad")
    with pytest.raises(LtlfError):
        Atom("")
    with pytest.raises(LtlfError):
        Atom("true")
    Atom("a0_z")


# --------------------------------------------------------------------------
# Formatting
# --------------------------------------------------------------------------

def test_format_examples():
    assert format_formula(And(Eventually(A), Always(Not(B)))) == "F a & G !b"
    assert format_formula(Until(A, Until(B, C))) == "a U b U c"
    assert format_formula(Not(Until(A, B))) == "!(a U b)"


def test_format_forces_parens_only_when_needed():
    assert format_formula(Until(Until(A, B), C)) == "(a U b) U c"
    assert format_formula(And(A, And(B, C))) == "a & (b & c)"
    assert format_formula(And(And(A, B), C)) == "a & b & c"
    assert format_formula(Implies(Implies(A, B), C)) == "(a -> b) -> c"
    assert format_formula(Or(And(A, B), C)) == "a & b | c"
    assert format_formula(And(Or(A, B), C)) == "(a | b) & c"


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_round_trip_random_formulas(seed):
    rng = make_rng(seed)
    for _ in range(80):
        f = random_formula(rng, depth=5, atoms=("a", "b", "c"))
        assert parse_formula(format_formula(f)) == f


# --------------------------------------------------------------------------
# Words
# --------------------------------------------------------------------------

def test_word_infers_sorted_atoms_and_masks():
    w = word({"b"}, {"a", "b"}, set())
    assert w.atoms == ("a", "b")
    assert w.letters == (2, 3, 0)
    assert w.letter_set(1) == frozenset({"a", "b"})


BAD_ATOM_LISTS = [["a", "", "b"], ["a", "a"], ["a", "B"], ["a", "true"], ["false"], ["a", 1]]


@pytest.mark.parametrize("atoms", BAD_ATOM_LISTS, ids=repr)
def test_check_atoms_rejects(atoms):
    with pytest.raises(LtlfError):
        check_atoms(atoms)


def labeled_pomdp_over(atoms):
    m = uninformative_two_state()
    return LabeledPomdp(m.name, m.states, m.actions, m.observations, m.P, m.Z, m.varpi,
                        atoms, m.labels, m.rewards, m.stopping)


# every way an atom list enters the library, with the error it raises
ATOM_LIST_READERS = {
    "LabeledPomdp": (labeled_pomdp_over, ModelError),
    "Word": (lambda atoms: Word(atoms, []), LtlfError),
    "dfa_from_dict": (lambda atoms: dfa_from_dict(
        {"atoms": atoms, "delta": [[0] * (1 << len(atoms))], "initial": 0, "accepting": [0]}),
        LtlfError),
    "model_from_dict": (lambda atoms: model_from_dict(
        {**model_to_dict(uninformative_two_state()), "atoms": atoms}), ModelError),
}


@pytest.mark.parametrize("reader", sorted(ATOM_LIST_READERS))
def test_atom_list_readers_reject_duplicates(reader):
    read, error = ATOM_LIST_READERS[reader]
    read(["a", "b"])
    with pytest.raises(error, match="duplicate atom names"):
        read(["a", "a"])


def test_word_mask_range_checked():
    with pytest.raises(LtlfError):
        Word(("a",), [2])
    with pytest.raises(UnknownAtomError):
        Word.from_sets([{"z"}], atoms=["a"])


# --------------------------------------------------------------------------
# Trace semantics
# --------------------------------------------------------------------------

def test_eventually_holds_at_only_position():
    assert evaluate_trace(Eventually(A), word({"a"}), 0) is True


def test_strict_next_fails_without_successor():
    assert evaluate_trace(Next(TRUE), word(set(), atoms=["a"]), 0) is False
    assert evaluate_trace(WeakNext(FALSE), word(set(), atoms=["a"]), 0) is True


def test_until_with_nested_eventually():
    # k = 0 witnesses the until: a holds there and F b is satisfied later
    f = Until(Not(B), And(A, Eventually(B)))
    assert evaluate_trace(f, word({"a"}, {"b"}), 0) is True
    assert evaluate_trace(f, word({"b"}, {"a"}), 0) is False


def test_evaluate_trace_errors():
    with pytest.raises(LtlfError):
        evaluate_trace(A, Word(("a",), []), 0)
    with pytest.raises(IndexError):
        evaluate_trace(A, word({"a"}), 1)
    with pytest.raises(UnknownAtomError):
        evaluate_trace(C, word({"a"}), 0)


def test_satisfaction_matches_scalar_evaluator():
    rng = make_rng(99)
    atoms = ("a", "b")
    for _ in range(40):
        f = random_formula(rng, depth=4, atoms=atoms)
        for length in (1, 3):
            letters = enumerate_letters(2, length)
            table = satisfaction_table(f, atoms, length)
            for n in range(0, letters.shape[0], 3):
                w = Word(atoms, letters[n].tolist())
                for i in range(length):
                    assert evaluate_trace(f, w, i) == bool(table[n, i])


def _tables_equal(f, g, atoms=("a", "b"), max_len=4):
    return all(
        np.array_equal(satisfaction_table(f, atoms, L), satisfaction_table(g, atoms, L))
        for L in range(1, max_len + 1)
    )


def test_derived_operator_equivalences():
    rng = make_rng(7)
    for _ in range(25):
        f = random_formula(rng, depth=3, atoms=("a", "b"))
        assert _tables_equal(Eventually(f), Until(TRUE, f))
        assert _tables_equal(Always(f), Not(Eventually(Not(f))))
        assert _tables_equal(WeakNext(f), Not(Next(Not(f))))
        g = random_formula(rng, depth=3, atoms=("a", "b"))
        assert _tables_equal(Or(f, g), Not(And(Not(f), Not(g))))
        assert _tables_equal(Implies(f, g), Or(Not(f), g))
        assert _tables_equal(Release(f, g), Not(Until(Not(f), Not(g))))


def test_always_eventually_duality_exhaustive():
    for f in formula_corpus(20, seed=21, depth=3):
        dual = Not(Eventually(Not(f)))
        for length in range(1, 6):
            assert np.array_equal(
                satisfaction_table(Always(f), ("a", "b"), length),
                satisfaction_table(dual, ("a", "b"), length),
            )


def test_suffix_recursion():
    rng = make_rng(5)
    letters = enumerate_letters(2, 5)
    for _ in range(20):
        f = random_formula(rng, depth=3, atoms=("a", "b"))
        table = satisfaction_table(f, ("a", "b"), 5)
        for n in range(0, letters.shape[0], 41):
            w = Word(("a", "b"), letters[n].tolist())
            for i in range(5):
                assert bool(table[n, i]) == evaluate_trace(f, Word(w.atoms, w.letters[i:]), 0)


def test_formula_atoms():
    f = parse_formula("F (a & F (b & F c))")
    assert formula_atoms(f) == frozenset({"a", "b", "c"})
    assert formula_atoms(TRUE) == frozenset()
