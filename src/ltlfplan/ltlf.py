"""Finite-trace linear temporal logic: syntax trees, parsing, printing, semantics.

Formulas are immutable trees built from the constructors below.  Satisfaction
on finite words follows the standard inductive clauses with a *strict* next:
``X f`` requires a successor position to exist.  ``evaluate_trace`` is the
reference evaluator used as the ground-truth oracle by the DFA compiler.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class LtlfError(ValueError):
    """Base class for formula errors."""


class LtlfSyntaxError(LtlfError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(LtlfError):
    pass


def check_atoms(atoms: Iterable[str]) -> tuple:
    """The atom list as a tuple; LtlfError unless its names are distinct
    identifiers other than the literals ``true`` and ``false``."""
    atoms = tuple(atoms)
    for name in atoms:
        if not isinstance(name, str) or not _IDENT_RE.match(name):
            raise LtlfError(f"invalid atom name {name!r}")
        if name in ("true", "false"):
            raise LtlfError(f"{name!r} is a reserved literal, not an atom")
    if len(set(atoms)) < len(atoms):
        raise LtlfError(f"duplicate atom names in {atoms}")
    return atoms


# --------------------------------------------------------------------------
# Syntax trees
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class FalseConst(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        check_atoms((self.name,))


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


@dataclass(frozen=True)
class WeakNext(Formula):
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    child: Formula


@dataclass(frozen=True)
class Always(Formula):
    child: Formula


TRUE = TrueConst()
FALSE = FalseConst()

_UNARY = (Not, Next, WeakNext, Eventually, Always)
_BINARY = (And, Or, Implies, Until, Release)


def formula_atoms(formula: Formula) -> frozenset[str]:
    """All atomic-proposition names occurring in the formula."""
    out: set[str] = set()
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            out.add(f.name)
        elif isinstance(f, _UNARY):
            stack.append(f.child)
        elif isinstance(f, _BINARY):
            stack.append(f.left)
            stack.append(f.right)
    return frozenset(out)


# --------------------------------------------------------------------------
# Words
# --------------------------------------------------------------------------

class Word:
    """A finite word over 2^AP, letters encoded as bitmasks.

    Bit i of a letter corresponds to ``atoms[i]``; the atom ordering is
    lexicographic when inferred and is frozen at construction.
    """

    __slots__ = ("atoms", "letters")

    def __init__(self, atoms: Sequence[str], letters: Iterable[int]):
        atoms = check_atoms(atoms)
        limit = 1 << len(atoms)
        letters = tuple(int(m) for m in letters)
        for m in letters:
            if not 0 <= m < limit:
                raise LtlfError(f"letter bitmask {m} out of range for {len(atoms)} atoms")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, *args):  # pragma: no cover - defensive
        raise AttributeError("Word is immutable")

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[str]], atoms: Sequence[str] | None = None) -> "Word":
        sets = [frozenset(s) for s in sets]
        if atoms is None:
            atoms = sorted(set().union(*sets)) if sets else []
        index = {name: i for i, name in enumerate(atoms)}
        letters = []
        for s in sets:
            mask = 0
            for name in s:
                if name not in index:
                    raise UnknownAtomError(f"atom {name!r} not in atom set {tuple(atoms)}")
                mask |= 1 << index[name]
            letters.append(mask)
        return cls(atoms, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def has(self, i: int, name: str) -> bool:
        try:
            bit = self.atoms.index(name)
        except ValueError:
            raise UnknownAtomError(f"atom {name!r} not in atom set {self.atoms}") from None
        return bool(self.letters[i] >> bit & 1)

    def letter_set(self, i: int) -> frozenset[str]:
        return frozenset(a for j, a in enumerate(self.atoms) if self.letters[i] >> j & 1)

    def __eq__(self, other):
        return isinstance(other, Word) and self.atoms == other.atoms and self.letters == other.letters

    def __hash__(self):
        return hash((self.atoms, self.letters))

    def __repr__(self):
        sets = [set(self.letter_set(i)) or "{}" for i in range(len(self))]
        return f"Word({self.atoms}, {sets})"


# --------------------------------------------------------------------------
# Trace semantics
# --------------------------------------------------------------------------

def evaluate_trace(formula: Formula, word: Word, i: int = 0) -> bool:
    """Decide ``word, i |= formula`` on a nonempty finite word.

    Implements the inductive satisfaction clauses directly (existential /
    universal quantification over positions), with strict next: ``X f`` holds
    at i iff position i+1 exists and f holds there.
    """
    if len(word) == 0:
        raise LtlfError("satisfaction is undefined on the empty word")
    if not 0 <= i < len(word):
        raise IndexError(f"position {i} out of range for word of length {len(word)}")
    missing = formula_atoms(formula) - set(word.atoms)
    if missing:
        raise UnknownAtomError(f"formula atoms {sorted(missing)} not in word atoms {word.atoms}")
    return _sat(formula, word, i, {})


def _sat(f: Formula, w: Word, i: int, memo: dict) -> bool:
    key = (id(f), i)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n = len(w)
    if isinstance(f, TrueConst):
        v = True
    elif isinstance(f, FalseConst):
        v = False
    elif isinstance(f, Atom):
        v = w.has(i, f.name)
    elif isinstance(f, Not):
        v = not _sat(f.child, w, i, memo)
    elif isinstance(f, And):
        v = _sat(f.left, w, i, memo) and _sat(f.right, w, i, memo)
    elif isinstance(f, Or):
        v = _sat(f.left, w, i, memo) or _sat(f.right, w, i, memo)
    elif isinstance(f, Implies):
        v = (not _sat(f.left, w, i, memo)) or _sat(f.right, w, i, memo)
    elif isinstance(f, Next):
        v = i + 1 < n and _sat(f.child, w, i + 1, memo)
    elif isinstance(f, WeakNext):
        v = i + 1 >= n or _sat(f.child, w, i + 1, memo)
    elif isinstance(f, Eventually):
        v = any(_sat(f.child, w, j, memo) for j in range(i, n))
    elif isinstance(f, Always):
        v = all(_sat(f.child, w, j, memo) for j in range(i, n))
    elif isinstance(f, Until):
        v = False
        for k in range(i, n):
            if _sat(f.right, w, k, memo) and all(_sat(f.left, w, j, memo) for j in range(i, k)):
                v = True
                break
    elif isinstance(f, Release):
        # dual of until: at every k >= i, either f.right holds at k or
        # f.left already held at some j in [i, k)
        v = True
        released = False
        for k in range(i, n):
            if released:
                break
            if not _sat(f.right, w, k, memo):
                v = False
                break
            if _sat(f.left, w, k, memo):
                released = True
    else:  # pragma: no cover
        raise TypeError(f"unknown formula node {type(f).__name__}")
    memo[key] = v
    return v


def enumerate_letters(n_atoms: int, length: int) -> np.ndarray:
    """Letters of every word of the given length, shape (num_words, length).

    Words are enumerated lexicographically with position 0 most significant.
    """
    base = 1 << n_atoms
    n_words = base ** length
    idx = np.arange(n_words)
    cols = [(idx // base ** (length - 1 - t)) % base for t in range(length)]
    return np.stack(cols, axis=1).astype(np.int64)


def satisfaction_table(formula: Formula, atoms: Sequence[str], length: int) -> np.ndarray:
    """Satisfaction of the formula at every position of every word.

    Returns a boolean array of shape (num_words, length) where entry
    ``[n, i]`` is ``word_n, i |= formula``; word enumeration matches
    ``enumerate_letters``.  Same clauses as ``evaluate_trace``, vectorized
    over all words so exhaustive checks stay cheap.
    """
    if length < 1:
        raise LtlfError("satisfaction table needs length >= 1")
    atoms = tuple(atoms)
    missing = formula_atoms(formula) - set(atoms)
    if missing:
        raise UnknownAtomError(f"formula atoms {sorted(missing)} not in atom set {atoms}")
    letters = enumerate_letters(len(atoms), length)
    return _sat_table(formula, letters, atoms, {})


def _sat_table(f: Formula, letters: np.ndarray, atoms: tuple, memo: dict) -> np.ndarray:
    cached = memo.get(f)
    if cached is not None:
        return cached
    n_words, length = letters.shape
    if isinstance(f, TrueConst):
        v = np.ones((n_words, length), dtype=bool)
    elif isinstance(f, FalseConst):
        v = np.zeros((n_words, length), dtype=bool)
    elif isinstance(f, Atom):
        bit = atoms.index(f.name)
        v = (letters >> bit & 1).astype(bool)
    elif isinstance(f, Not):
        v = ~_sat_table(f.child, letters, atoms, memo)
    elif isinstance(f, And):
        v = _sat_table(f.left, letters, atoms, memo) & _sat_table(f.right, letters, atoms, memo)
    elif isinstance(f, Or):
        v = _sat_table(f.left, letters, atoms, memo) | _sat_table(f.right, letters, atoms, memo)
    elif isinstance(f, Implies):
        v = ~_sat_table(f.left, letters, atoms, memo) | _sat_table(f.right, letters, atoms, memo)
    elif isinstance(f, Next):
        c = _sat_table(f.child, letters, atoms, memo)
        v = np.zeros_like(c)
        v[:, :-1] = c[:, 1:]
    elif isinstance(f, WeakNext):
        c = _sat_table(f.child, letters, atoms, memo)
        v = np.ones_like(c)
        v[:, :-1] = c[:, 1:]
    elif isinstance(f, Eventually):
        c = _sat_table(f.child, letters, atoms, memo)
        v = np.logical_or.accumulate(c[:, ::-1], axis=1)[:, ::-1]
    elif isinstance(f, Always):
        c = _sat_table(f.child, letters, atoms, memo)
        v = np.logical_and.accumulate(c[:, ::-1], axis=1)[:, ::-1]
    elif isinstance(f, Until):
        t1 = _sat_table(f.left, letters, atoms, memo)
        t2 = _sat_table(f.right, letters, atoms, memo)
        v = np.zeros_like(t1)
        for i in range(length):
            acc = np.zeros(n_words, dtype=bool)
            prefix = np.ones(n_words, dtype=bool)
            for k in range(i, length):
                acc |= t2[:, k] & prefix
                prefix &= t1[:, k]
            v[:, i] = acc
    elif isinstance(f, Release):
        t1 = _sat_table(f.left, letters, atoms, memo)
        t2 = _sat_table(f.right, letters, atoms, memo)
        v = np.zeros_like(t1)
        for i in range(length):
            acc = np.ones(n_words, dtype=bool)
            seen_left = np.zeros(n_words, dtype=bool)
            for k in range(i, length):
                acc &= t2[:, k] | seen_left
                seen_left |= t1[:, k]
            v[:, i] = acc
    else:  # pragma: no cover
        raise TypeError(f"unknown formula node {type(f).__name__}")
    memo[f] = v
    return v


# --------------------------------------------------------------------------
# Parser
#
# Grammar (whitespace insignificant):
#   implies := or ('->' implies)?                right associative
#   or      := and ('|' and)*
#   and     := until ('&' until)*
#   until   := unary (('U' | 'R') until)?        right associative
#   unary   := ('!' | 'X' | 'N' | 'F' | 'G') unary | primary
#   primary := 'true' | 'false' | ident | '(' implies ')'
#   ident   := [a-z][a-z0-9_]*
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<ident>[a-z][a-z0-9_]*)|(?P<op>->|[!&|()XNFGUR])")

_UNARY_OPS = {"!": Not, "X": Next, "N": WeakNext, "F": Eventually, "G": Always}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LtlfSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append(("op", m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.implies()
        kind, value, at = self.peek()
        if kind != "end":
            raise LtlfSyntaxError(f"unexpected token {value!r}", at)
        return f

    def implies(self) -> Formula:
        left = self.disjunction()
        kind, value, _ = self.peek()
        if kind == "op" and value == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[:2] == ("op", "|"):
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until()
        while self.peek()[:2] == ("op", "&"):
            self.take()
            f = And(f, self.until())
        return f

    def until(self) -> Formula:
        left = self.unary()
        kind, value, _ = self.peek()
        if kind == "op" and value in ("U", "R"):
            self.take()
            right = self.until()
            return Until(left, right) if value == "U" else Release(left, right)
        return left

    def unary(self) -> Formula:
        kind, value, _ = self.peek()
        if kind == "op" and value in _UNARY_OPS:
            self.take()
            return _UNARY_OPS[value](self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind, value, at = self.take()
        if kind == "ident":
            if value == "true":
                return TRUE
            if value == "false":
                return FALSE
            return Atom(value)
        if kind == "op" and value == "(":
            f = self.implies()
            kind, value, at = self.take()
            if (kind, value) != ("op", ")"):
                raise LtlfSyntaxError("expected ')'", at)
            return f
        raise LtlfSyntaxError(f"expected a formula, found {value!r}" if value else "unexpected end of input", at)


def parse_formula(text: str, atoms: Sequence[str] | str = "infer") -> Formula:
    """Parse a formula string; see the grammar in the module source.

    With an explicit ``atoms`` list, any identifier outside it is rejected.
    """
    formula = _Parser(text).parse()
    if atoms != "infer":
        allowed = set(atoms)
        unknown = formula_atoms(formula) - allowed
        if unknown:
            raise UnknownAtomError(f"unknown atoms {sorted(unknown)}; declared atom set is {sorted(allowed)}")
    return formula


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------

_PRECEDENCE = {
    TrueConst: 5, FalseConst: 5, Atom: 5,
    Not: 4, Next: 4, WeakNext: 4, Eventually: 4, Always: 4,
    Until: 3, Release: 3,
    And: 2, Or: 1, Implies: 0,
}

_UNARY_SYMBOL = {Not: "!", Next: "X ", WeakNext: "N ", Eventually: "F ", Always: "G "}
_BINARY_SYMBOL = {And: "&", Or: "|", Implies: "->", Until: "U", Release: "R"}
_RIGHT_ASSOC = (Implies, Until, Release)


def format_formula(formula: Formula) -> str:
    """Render with minimal parentheses; re-parses to an identical tree."""
    if isinstance(formula, TrueConst):
        return "true"
    if isinstance(formula, FalseConst):
        return "false"
    if isinstance(formula, Atom):
        return formula.name
    prec = _PRECEDENCE[type(formula)]
    if isinstance(formula, _UNARY):
        return _UNARY_SYMBOL[type(formula)] + _wrap(formula.child, prec, strict=False)
    sym = _BINARY_SYMBOL[type(formula)]
    if isinstance(formula, _RIGHT_ASSOC):
        left = _wrap(formula.left, prec, strict=True)
        right = _wrap(formula.right, prec, strict=False)
    else:
        left = _wrap(formula.left, prec, strict=False)
        right = _wrap(formula.right, prec, strict=True)
    return f"{left} {sym} {right}"


def _wrap(child: Formula, parent_prec: int, strict: bool) -> str:
    child_prec = _PRECEDENCE[type(child)]
    text = format_formula(child)
    if child_prec < parent_prec or (strict and child_prec == parent_prec):
        return f"({text})"
    return text
