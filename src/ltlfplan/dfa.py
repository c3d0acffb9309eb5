"""Compile LTLf formulas to DFAs over 2^AP by formula progression.

States are canonical boolean forms over the "temporal atoms" of the source
formula (propositions plus maximal subformulas rooted at a temporal
operator); reading a letter progresses the state; accepting states are those
whose residual obligation is satisfied by the empty remaining word.  Strict
next is encoded with the in-language marker ``F true``, which holds on every
nonempty word and fails on the empty one, so no extra alphabet symbols are
needed.  Moore partition refinement yields the minimal automaton.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .files import json_list, read_json, write_json
from .ltlf import (
    FALSE, TRUE, Always, And, Atom, Eventually, FalseConst, Formula, Implies,
    LtlfError, Next, Not, Or, Release, TrueConst, Until, WeakNext, check_atoms,
    format_formula, formula_atoms,
)

# nonemptiness marker: true on every nonempty word, false on the empty word
ALIVE = Eventually(TRUE)

MAX_ATOMS = 8
STATE_BUDGET = 10_000  # progression states allowed before minimization


class DfaBudgetError(RuntimeError):
    """Raised when progression exceeds the pre-minimization state budget."""


# --------------------------------------------------------------------------
# Simplifying constructors (constant folding only; propositional equivalence
# is the job of canonical_form)
# --------------------------------------------------------------------------

def f_not(f: Formula) -> Formula:
    if isinstance(f, TrueConst):
        return FALSE
    if isinstance(f, FalseConst):
        return TRUE
    if isinstance(f, Not):
        return f.child
    return Not(f)


def f_and(a: Formula, b: Formula) -> Formula:
    if isinstance(a, FalseConst) or isinstance(b, FalseConst):
        return FALSE
    if isinstance(a, TrueConst):
        return b
    if isinstance(b, TrueConst):
        return a
    if a == b:
        return a
    return And(a, b)


def f_or(a: Formula, b: Formula) -> Formula:
    if isinstance(a, TrueConst) or isinstance(b, TrueConst):
        return TRUE
    if isinstance(a, FalseConst):
        return b
    if isinstance(b, FalseConst):
        return a
    if a == b:
        return a
    return Or(a, b)


def f_implies(a: Formula, b: Formula) -> Formula:
    if isinstance(a, FalseConst) or isinstance(b, TrueConst):
        return TRUE
    if isinstance(a, TrueConst):
        return b
    if isinstance(b, FalseConst):
        return f_not(a)
    return Implies(a, b)


# --------------------------------------------------------------------------
# Progression and empty-word acceptance
# --------------------------------------------------------------------------

def progress(formula: Formula, letter: Iterable[str]) -> Formula:
    """Residual obligation after reading one letter (a set of atom names).

    ``X f`` progresses to ``f & F true``: the obligation is f itself at the
    next position, and the marker forces that position to exist.  ``N f``
    dually progresses to ``f | !F true``.
    """
    sigma = frozenset(letter)
    return _progress(formula, sigma)


def _progress(f: Formula, sigma: frozenset) -> Formula:
    if isinstance(f, TrueConst) or isinstance(f, FalseConst):
        return f
    if isinstance(f, Atom):
        return TRUE if f.name in sigma else FALSE
    if isinstance(f, Not):
        return f_not(_progress(f.child, sigma))
    if isinstance(f, And):
        return f_and(_progress(f.left, sigma), _progress(f.right, sigma))
    if isinstance(f, Or):
        return f_or(_progress(f.left, sigma), _progress(f.right, sigma))
    if isinstance(f, Implies):
        return f_implies(_progress(f.left, sigma), _progress(f.right, sigma))
    if isinstance(f, Next):
        return f_and(f.child, ALIVE)
    if isinstance(f, WeakNext):
        return f_or(f.child, f_not(ALIVE))
    if isinstance(f, Eventually):
        return f_or(_progress(f.child, sigma), f)
    if isinstance(f, Always):
        return f_and(_progress(f.child, sigma), f)
    if isinstance(f, Until):
        return f_or(_progress(f.right, sigma), f_and(_progress(f.left, sigma), f))
    if isinstance(f, Release):
        return f_and(_progress(f.right, sigma), f_or(_progress(f.left, sigma), f))
    raise TypeError(f"unknown formula node {type(f).__name__}")  # pragma: no cover


def empty_accept(formula: Formula) -> bool:
    """Satisfaction over the empty remaining word (existentials vacuously
    false, universals vacuously true)."""
    f = formula
    if isinstance(f, TrueConst):
        return True
    if isinstance(f, FalseConst) or isinstance(f, Atom):
        return False
    if isinstance(f, Not):
        return not empty_accept(f.child)
    if isinstance(f, And):
        return empty_accept(f.left) and empty_accept(f.right)
    if isinstance(f, Or):
        return empty_accept(f.left) or empty_accept(f.right)
    if isinstance(f, Implies):
        return (not empty_accept(f.left)) or empty_accept(f.right)
    if isinstance(f, Next) or isinstance(f, Eventually) or isinstance(f, Until):
        return False
    if isinstance(f, WeakNext) or isinstance(f, Always) or isinstance(f, Release):
        return True
    raise TypeError(f"unknown formula node {type(f).__name__}")  # pragma: no cover


# --------------------------------------------------------------------------
# Canonical boolean forms over temporal atoms
# --------------------------------------------------------------------------

def _collect_variables(f: Formula, out: dict) -> None:
    # decision variables: propositions and maximal temporal subformulas
    if isinstance(f, (TrueConst, FalseConst)):
        return
    if isinstance(f, Not):
        _collect_variables(f.child, out)
    elif isinstance(f, (And, Or, Implies)):
        _collect_variables(f.left, out)
        _collect_variables(f.right, out)
    else:
        out.setdefault(f, format_formula(f))


def _eval_boolean(f: Formula, assign: dict) -> np.ndarray:
    if isinstance(f, TrueConst):
        return np.ones(1, dtype=bool) if not assign else np.ones_like(next(iter(assign.values())))
    if isinstance(f, FalseConst):
        return np.zeros(1, dtype=bool) if not assign else np.zeros_like(next(iter(assign.values())))
    if isinstance(f, Not):
        return ~_eval_boolean(f.child, assign)
    if isinstance(f, And):
        return _eval_boolean(f.left, assign) & _eval_boolean(f.right, assign)
    if isinstance(f, Or):
        return _eval_boolean(f.left, assign) | _eval_boolean(f.right, assign)
    if isinstance(f, Implies):
        return ~_eval_boolean(f.left, assign) | _eval_boolean(f.right, assign)
    return assign[f]


def canonical_form(formula: Formula) -> tuple[tuple, Formula]:
    """Canonical key and a synthesized representative formula.

    The key is an ordered, reduced truth table over the formula's temporal
    atoms (variables ordered by their printed form), so two formulas get the
    same key exactly when they are propositionally equivalent as boolean
    combinations of identical temporal atoms.
    """
    found: dict[Formula, str] = {}
    _collect_variables(formula, found)
    variables = sorted(found, key=found.__getitem__)
    k = len(variables)
    n = 1 << k
    idx = np.arange(n)
    assign = {v: (idx >> i & 1).astype(bool) for i, v in enumerate(variables)}
    table = _eval_boolean(formula, assign)
    if k == 0:
        table = table[:1]
    # drop variables the function does not depend on (highest bit first so
    # bit positions of remaining variables stay valid)
    for i in reversed(range(k)):
        mask = (np.arange(table.size) >> i & 1).astype(bool)
        if np.array_equal(table[~mask], table[mask]):
            table = table[~mask]
            variables.pop(i)
    key = (tuple(found[v] for v in variables), table.tobytes())
    return key, _synthesize(variables, table)


def _synthesize(variables: list[Formula], table: np.ndarray) -> Formula:
    if not variables:
        return TRUE if table[0] else FALSE
    v = variables[0]
    mask = (np.arange(table.size) >> 0 & 1).astype(bool)
    low = _synthesize(variables[1:], table[~mask])
    high = _synthesize(variables[1:], table[mask])
    if low == high:
        return low
    return f_or(f_and(v, high), f_and(f_not(v), low))


# --------------------------------------------------------------------------
# DFA
# --------------------------------------------------------------------------

class Dfa:
    """Deterministic finite automaton over the alphabet 2^atoms.

    ``delta`` is a total (n_states, 2^|atoms|) table of state indices; bit i
    of a letter corresponds to ``atoms[i]``.
    """

    def __init__(self, atoms: Sequence[str], delta, initial: int, accepting: Iterable[int],
                 annotations: Sequence[str] | None = None, name: str = ""):
        self.atoms = check_atoms(atoms)
        self.delta = np.asarray(delta, dtype=np.int64)
        self.initial = int(initial)
        self.accepting = frozenset(int(q) for q in accepting)
        self.annotations = list(annotations) if annotations is not None else None
        self.name = name
        self.validate()

    @property
    def n_states(self) -> int:
        return self.delta.shape[0]

    @property
    def alphabet_size(self) -> int:
        return self.delta.shape[1]

    def validate(self) -> None:
        if self.delta.ndim != 2:
            raise LtlfError("delta must be a 2-d table")
        n, a = self.delta.shape
        if a != 1 << len(self.atoms):
            raise LtlfError(f"alphabet size {a} does not match {len(self.atoms)} atoms")
        if not (0 <= self.initial < n):
            raise LtlfError("initial state out of range")
        if self.delta.min(initial=0) < 0 or self.delta.max(initial=0) >= n:
            raise LtlfError("delta entry out of range")
        if not self.accepting <= set(range(n)):
            raise LtlfError("accepting set contains unknown states")
        if self.annotations is not None and len(self.annotations) != n:
            raise LtlfError(f"{len(self.annotations)} annotations for {n} states")

    def step(self, state: int, letter: int) -> int:
        if not 0 <= letter < self.alphabet_size:
            raise LtlfError(f"letter bitmask {letter} out of alphabet range {self.alphabet_size}")
        return int(self.delta[state, letter])

    def run(self, letters: Iterable[int]) -> int:
        q = self.initial
        for m in letters:
            q = self.step(q, m)
        return q

    def run_batch(self, letters: np.ndarray) -> np.ndarray:
        """Final states for a (num_words, length) letter array."""
        states = np.full(letters.shape[0], self.initial, dtype=np.int64)
        for t in range(letters.shape[1]):
            states = self.delta[states, letters[:, t]]
        return states

    def accepts_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_states, dtype=bool)
        mask[list(self.accepting)] = True
        return mask


def _bfs(succ, start: int) -> list[int]:
    """States reachable from ``start``, breadth-first in letter order;
    ``succ[q]`` lists the successors of q by letter."""
    order, seen = [start], {start}
    for q in order:
        for nxt in succ[q]:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


def compile_dfa(formula: Formula, atoms: Sequence[str] | None = None, name: str = "") -> Dfa:
    """Breadth-first progression fixpoint from the canonical form of the formula.

    Each state is a distinct canonical key; delta(state, letter) is the
    canonical form of the progressed state; a state accepts iff its residual
    holds on the empty word.  Termination: keys live in the finite boolean
    closure over the formula's temporal atoms (including the F true marker).
    More than STATE_BUDGET states raise DfaBudgetError.
    """
    atoms = check_atoms(sorted(formula_atoms(formula)) if atoms is None else atoms)
    missing = formula_atoms(formula) - set(atoms)
    if missing:
        raise LtlfError(f"formula atoms {sorted(missing)} not in atom set {atoms}")
    if len(atoms) > MAX_ATOMS:
        raise LtlfError(f"atom set of size {len(atoms)} exceeds the limit of {MAX_ATOMS}")
    n_letters = 1 << len(atoms)
    letter_sets = [frozenset(a for i, a in enumerate(atoms) if m >> i & 1) for m in range(n_letters)]

    key0, rep0 = canonical_form(formula)
    index = {key0: 0}
    reps = [rep0]
    rows: list[list[int]] = []
    for rep in reps:  # reps grows as states are found: state q's row is rows[q]
        row = []
        for sigma in letter_sets:
            key, rep_next = canonical_form(_progress(rep, sigma))
            nxt = index.get(key)
            if nxt is None:
                nxt = len(reps)
                if nxt >= STATE_BUDGET:
                    raise DfaBudgetError(f"state budget of {STATE_BUDGET} states exceeded")
                index[key] = nxt
                reps.append(rep_next)
            row.append(nxt)
        rows.append(row)
    accepting = [q for q, rep in enumerate(reps) if empty_accept(rep)]
    annotations = [format_formula(rep) for rep in reps]
    return Dfa(atoms, rows, 0, accepting, annotations, name=name or format_formula(formula))


def minimize_dfa(dfa: Dfa) -> Dfa:
    """Language-equivalent minimal DFA over the reachable states.

    Moore partition refinement on the whole table: equivalence depends only
    on future behaviour, so unreachable states cannot split reachable ones.
    Each block keeps the annotation of its first state in breadth-first order,
    and the blocks are numbered breadth-first from the initial one (letter
    order), so state 0 is always the initial state and the numbering is
    deterministic.
    """
    delta = dfa.delta.tolist()
    block = [int(q in dfa.accepting) for q in range(dfa.n_states)]
    n_blocks = len(set(block))
    while True:
        ids: dict[tuple, int] = {}
        block = [ids.setdefault((block[q], *(block[t] for t in row)), len(ids))
                 for q, row in enumerate(delta)]
        if len(ids) == n_blocks:
            break
        n_blocks = len(ids)

    first: dict[int, int] = {}  # block -> its first state in breadth-first order
    for q in _bfs(delta, dfa.initial):
        first.setdefault(block[q], q)
    quotient = {b: [block[t] for t in delta[q]] for b, q in first.items()}
    order = _bfs(quotient, block[dfa.initial])
    number = {b: i for i, b in enumerate(order)}
    return Dfa(dfa.atoms, [[number[c] for c in quotient[b]] for b in order], 0,
               [i for i, b in enumerate(order) if first[b] in dfa.accepting],
               None if dfa.annotations is None else [dfa.annotations[first[b]] for b in order],
               name=dfa.name)


def compile_minimal_dfa(formula: Formula, atoms: Sequence[str] | None = None,
                        name: str = "") -> Dfa:
    """Convenience: compile, minimize."""
    return minimize_dfa(compile_dfa(formula, atoms=atoms, name=name))


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def dfa_to_dict(dfa: Dfa) -> dict:
    return {
        "name": dfa.name,
        "atoms": list(dfa.atoms),
        "n_states": dfa.n_states,
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "delta": dfa.delta.tolist(),
        "annotations": dfa.annotations,
    }


def dfa_from_dict(doc: dict) -> Dfa:
    try:
        atoms, delta, initial, accepting = [doc[f] for f in ("atoms", "delta", "initial",
                                                              "accepting")]
    except KeyError as exc:
        raise LtlfError(f"DFA document missing field {exc}") from exc
    annotations, name = doc.get("annotations"), doc.get("name", "")
    if not (json_list(delta, (list,)) and all(json_list(row, (int,)) for row in delta)
            and json_list(accepting, (int,)) and type(initial) is int
            and json_list(atoms, (str,)) and type(name) is str
            and (annotations is None or json_list(annotations, (str,)))):
        raise LtlfError("DFA initial, accepting and delta entries must be JSON integers, and "
                        "its atoms, name and annotations (when not null) JSON strings")
    dfa = Dfa(atoms, delta, initial, accepting, annotations, name=name)
    if "n_states" in doc:
        n_states = doc["n_states"]
        if type(n_states) is not int:
            raise LtlfError(f"DFA n_states must be a JSON integer, got {n_states!r}")
        if n_states != dfa.n_states:
            raise LtlfError("n_states does not match delta table")
    return dfa


def save_dfa(dfa: Dfa, path) -> None:
    write_json(path, dfa_to_dict(dfa))


def load_dfa(path) -> Dfa:
    return dfa_from_dict(read_json(path, LtlfError, "DFA"))


def dfa_to_dot(dfa: Dfa) -> str:
    """Graphviz export for debugging; letters shown as atom sets."""
    lines = ["digraph dfa {", "  rankdir=LR;", '  init [shape=point, label=""];',
             f"  init -> q{dfa.initial};"]
    for q in range(dfa.n_states):
        shape = "doublecircle" if q in dfa.accepting else "circle"
        note = f"\\n{dfa.annotations[q]}" if dfa.annotations else ""
        lines.append(f'  q{q} [shape={shape}, label="q{q}{note}"];')
    for q in range(dfa.n_states):
        by_target: dict[int, list[str]] = {}
        for m in range(dfa.alphabet_size):
            label = "{" + ",".join(a for i, a in enumerate(dfa.atoms) if m >> i & 1) + "}"
            by_target.setdefault(int(dfa.delta[q, m]), []).append(label)
        for target, labels in sorted(by_target.items()):
            lines.append(f'  q{q} -> q{target} [label="{" ".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines)
