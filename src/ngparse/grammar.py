"""Context-free grammar for a small WHILE-style language.

The grammar is fixed at import time: statements (assignment, if/else,
while), right-recursive arithmetic, comparisons/boolean combinations with
explicit delimiters, five variables and ten digit constants. Every rule's
right-hand side can be split by a single left-to-right scan with a nesting
counter, which is what makes hand-coded decomposition possible.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field
from functools import cached_property

__all__ = [
    "Nonterminal",
    "Token",
    "ProductionRule",
    "Grammar",
    "GrammarError",
    "build_grammar",
    "validate_grammar",
]

# Minimum depth or length of a nonterminal that derives no terminal string.
INF = 10**9


class GrammarError(Exception):
    """Hard error for grammar-level precondition violations."""


def is_int(value) -> bool:
    """True for a Python or numpy integer; False for a bool, a float or a
    string. Checks for counts and token ids both use it."""
    return type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )


def check_int(name: str, value, minimum=None) -> None:
    """Raise ValueError unless value is an integer (see is_int) and, when
    minimum is given, at least minimum."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_number(name: str, value, minimum=None, above=None, below=None) -> None:
    """Raise ValueError unless value is a real number (a Python or numpy
    float or int, not a bool or a string) that meets each bound given:
    value >= minimum, value > above, value < below. NaN meets no bound."""
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not (
        (minimum is None or value >= minimum)
        and (above is None or value > above)
        and (below is None or value < below)
    ):
        bounds = ((">=", minimum), (">", above), ("<", below))
        rule = " and ".join(f"{op} {b}" for op, b in bounds if b is not None)
        raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class Nonterminal:
    id: int
    name: str


@dataclass(frozen=True)
class Token:
    id: int
    text: str


@dataclass(frozen=True)
class ProductionRule:
    """One rewrite rule. rhs mixes Token and Nonterminal, in order."""

    id: int
    name: str
    lhs: Nonterminal
    rhs: tuple

    # rhs_nonterminals(), made on its first call, so building a grammar
    # stays cheap; a declared field, unlike a cached_property, keeps
    # attribute reads such as rule.rhs on the fast path.
    _kids: tuple = field(default=None, init=False, repr=False, compare=False)

    def rhs_nonterminals(self) -> tuple:
        if self._kids is None:
            kids = tuple(s for s in self.rhs if isinstance(s, Nonterminal))
            object.__setattr__(self, "_kids", kids)
        return self._kids

    def rhs_terminal_count(self) -> int:
        return len(self.rhs) - len(self.rhs_nonterminals())


# (rule name, lhs name, rhs symbols); uppercase-initial entries are
# nonterminals, everything else is a terminal string.
_NT_NAMES = ("Stmt", "SimpStmt", "AExpr", "ATerm", "AFactor", "BExpr", "Var", "Const")

_RULE_TABLE = [
    ("S1", "Stmt", ["SimpStmt", ";", "Stmt"]),
    ("S2", "Stmt", ["SimpStmt", ";"]),
    ("A1", "SimpStmt", ["Var", "=", "AExpr"]),
    ("I1", "SimpStmt", ["if", "BExpr", "then", "Stmt", "else", "Stmt", "endif"]),
    ("W1", "SimpStmt", ["while", "BExpr", "do", "Stmt", "endwhile"]),
    ("E1", "AExpr", ["ATerm", "+", "AExpr"]),
    ("E2", "AExpr", ["ATerm", "-", "AExpr"]),
    ("E3", "AExpr", ["ATerm"]),
    ("T1", "ATerm", ["AFactor", "*", "ATerm"]),
    ("T2", "ATerm", ["AFactor"]),
    ("F1", "AFactor", ["(", "AExpr", ")"]),
    ("F2", "AFactor", ["Var"]),
    ("F3", "AFactor", ["Const"]),
    ("B1", "BExpr", ["AExpr", "<", "AExpr"]),
    ("B2", "BExpr", ["AExpr", "==", "AExpr"]),
    ("B3", "BExpr", ["not", "BExpr"]),
    ("B4", "BExpr", ["(", "BExpr", "and", "BExpr", ")"]),
]
_RULE_TABLE += [(f"V{i + 1}", "Var", [f"v{i}"]) for i in range(5)]
_RULE_TABLE += [(f"C{i + 1}", "Const", [str(i)]) for i in range(10)]

# Tokens that open / close a nesting level during decomposition scans.
OPENERS = ("if", "while", "(")
CLOSERS = ("endif", "endwhile", ")")


class Grammar:
    """Immutable rule table with dense ids and lookup helpers."""

    def __init__(self, nonterminals, vocabulary, rules, start):
        self.nonterminals = tuple(nonterminals)
        self.vocabulary = tuple(vocabulary)
        self.rules = tuple(rules)
        self.start = start
        self._nt_by_name = {nt.name: nt for nt in self.nonterminals}
        self._tok_by_text = {t.text: t for t in self.vocabulary}
        self._rule_by_name = {}
        self._candidates = {}
        self.small_trees = {}  # tree.shared_node's one copy of each small tree
        by_lhs = [[] for _ in self.nonterminals]
        for r in self.rules:
            if not 0 <= r.lhs.id < len(by_lhs):
                raise GrammarError(
                    f"rule {r.name}: lhs {r.lhs.name} has id {r.lhs.id}, "
                    f"outside 0..{len(by_lhs) - 1}"
                )
            by_lhs[r.lhs.id].append(r)
            self._rule_by_name[r.name] = r
        # Nonterminal id -> its rules, in rule-id order.
        self.rules_by_lhs = tuple(map(tuple, by_lhs))

    # -- lookups -----------------------------------------------------------

    def rules_for(self, nt: Nonterminal) -> tuple:
        """All rules with the given lhs, in rule-id order."""
        if not 0 <= nt.id < len(self.nonterminals) or self.nonterminals[nt.id] != nt:
            raise GrammarError(f"unknown nonterminal: {nt!r}")
        return self.rules_by_lhs[nt.id]

    def rule_by_id(self, rule_id: int) -> ProductionRule:
        if not 0 <= rule_id < len(self.rules):
            raise GrammarError(f"unknown rule id: {rule_id}")
        return self.rules[rule_id]

    def rule_by_name(self, name: str) -> ProductionRule:
        try:
            return self._rule_by_name[name]
        except KeyError:
            raise GrammarError(f"unknown rule name: {name}") from None

    def nonterminal(self, name: str) -> Nonterminal:
        try:
            return self._nt_by_name[name]
        except KeyError:
            raise GrammarError(f"unknown nonterminal name: {name}") from None

    def token(self, text: str) -> Token:
        try:
            return self._tok_by_text[text]
        except KeyError:
            raise GrammarError(f"unknown terminal: {text!r}") from None

    def encode(self, text: str) -> tuple:
        """Space-separated terminal string -> tuple of token ids."""
        return tuple(self.token(w).id for w in text.split())

    def decode(self, token_ids) -> str:
        return " ".join(self.vocabulary[i].text for i in token_ids)

    def check_tokens(self, tokens, error) -> None:
        """Raise error(tok, pos) for the first of tokens that is not an
        integer id in the vocabulary (see is_int); error makes the caller's
        exception, worded its own way."""
        size = len(self.vocabulary)
        for pos, tok in enumerate(tokens):
            if not (is_int(tok) and 0 <= tok < size):
                raise error(tok, pos)

    @cached_property
    def nesting(self) -> dict:
        """Token id -> +1 for a nesting opener, -1 for a closer; built on
        first use, so building a grammar does not pay for it."""
        steps = {**dict.fromkeys(OPENERS, 1), **dict.fromkeys(CLOSERS, -1)}
        return {t.id: steps[t.text] for t in self.vocabulary if t.text in steps}

    @cached_property
    def min_depths(self) -> tuple:
        """Nonterminal id -> the least depth of a tree it roots, INF if it
        derives no terminal string. One fixpoint, built on first use."""
        return self._least(
            lambda r, best: 1 + max((best[k.id] for k in r.rhs_nonterminals()), default=0)
        )

    @cached_property
    def min_lengths(self) -> tuple:
        """Nonterminal id -> the least yield length of a tree it roots, INF
        if it derives no terminal string. One fixpoint, built on first use."""
        return self._least(
            lambda r, best: r.rhs_terminal_count()
            + sum(best[k.id] for k in r.rhs_nonterminals())
        )

    @cached_property
    def leaves(self) -> tuple:
        """Rule id -> the grammar's one Ast(rule id, ()) for a rule whose rhs
        has no nonterminal, else None; built on first use. Parses share
        these leaves, so a caller that keeps many trees holds one copy."""
        from .tree import Ast

        return tuple(None if r.rhs_nonterminals() else Ast(r.id, ()) for r in self.rules)

    @cached_property
    def search_plans(self) -> tuple:
        """Nonterminal id -> one (rule id, rhs min length, steps, leaf) per
        rule, in rule-id order: the search baseline's view of each rhs,
        built on first use. steps codes the rhs as (token id or None,
        nonterminal id or None, min length after this symbol); leaf is the
        rule's entry in leaves for an rhs of exactly one terminal, else
        None."""
        min_len = self.min_lengths
        plans = []
        for rules in self.rules_by_lhs:
            plan = []
            for r in rules:
                steps, after = [], 0
                for sym in reversed(r.rhs):
                    if isinstance(sym, Token):
                        steps.append((sym.id, None, after))
                        after += 1
                    else:
                        steps.append((None, sym.id, after))
                        after += min_len[sym.id]
                one_terminal = len(r.rhs) == 1 and isinstance(r.rhs[0], Token)
                leaf = self.leaves[r.id] if one_terminal else None
                plan.append((r.id, after, tuple(reversed(steps)), leaf))
            plans.append(tuple(plan))
        return tuple(plans)

    def _least(self, cost) -> tuple:
        """Least fixpoint of best[lhs] = min over its rules of cost(rule,
        best); a cost over an INF entry is at least INF, so it never wins."""
        best = [INF] * len(self.nonterminals)
        changed = True
        while changed:
            changed = False
            for r in self.rules:
                c = cost(r, best)
                if c < best[r.lhs.id]:
                    best[r.lhs.id] = c
                    changed = True
        return tuple(best)

    @cached_property
    def lookahead(self) -> dict:
        """Rule id -> (FIRST, LAST): the token ids a string the rule derives
        can start and end with. One fixpoint over the rules, built on first
        use. Every rhs symbol derives a nonempty string, so a rule's FIRST
        (LAST) is that of its first (last) rhs symbol alone; a rule with an
        empty rhs raises GrammarError."""
        for r in self.rules:
            if not r.rhs:
                raise GrammarError(f"rule {r.name}: empty rhs, so no FIRST or LAST token")
        first = {nt.id: set() for nt in self.nonterminals}
        last = {nt.id: set() for nt in self.nonterminals}

        def of(sets, sym):
            return sets[sym.id] if isinstance(sym, Nonterminal) else {sym.id}

        changed = True
        while changed:
            changed = False
            for r in self.rules:
                for sets, sym in ((first, r.rhs[0]), (last, r.rhs[-1])):
                    new = of(sets, sym) - sets[r.lhs.id]
                    if new:
                        sets[r.lhs.id] |= new
                        changed = True
        return {
            r.id: (frozenset(of(first, r.rhs[0])), frozenset(of(last, r.rhs[-1])))
            for r in self.rules
        }

    def candidates(self, nt: Nonterminal, first: int, last: int) -> tuple:
        """The rules of nt that can derive a span starting with token id
        first and ending with token id last (its FIRST and LAST sets hold
        them), in rule-id order. Each (nt, first, last) is worked out on
        first use and kept; an unknown nt raises GrammarError."""
        key = (nt, first, last)
        found = self._candidates.get(key)
        if found is None:
            lookahead = self.lookahead
            found = self._candidates[key] = tuple(
                r for r in self.rules_for(nt)
                if first in lookahead[r.id][0] and last in lookahead[r.id][1]
            )
        return found

    # -- fingerprints ------------------------------------------------------

    def rule_lines(self) -> list:
        """The canonical rule table, one line per rule: its id, a tab, then
        "lhs -> rhs"."""
        return [
            f"{r.id}\t{r.lhs.name} -> "
            + " ".join(s.name if isinstance(s, Nonterminal) else s.text for s in r.rhs)
            for r in self.rules
        ]

    def rule_fingerprint(self) -> int:
        """64-bit digest of the canonical rule table."""
        return _digest64("\n".join(self.rule_lines()))

    def vocab_fingerprint(self) -> int:
        return _digest64("\n".join(f"{t.id}\t{t.text}" for t in self.vocabulary))


def _digest64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def build_grammar() -> Grammar:
    """Construct the built-in WHILE grammar (32 rules, 33 terminals)."""
    nts = tuple(Nonterminal(i, name) for i, name in enumerate(_NT_NAMES))
    nt_by_name = {nt.name: nt for nt in nts}

    terminal_texts = []
    for _, _, rhs in _RULE_TABLE:
        for sym in rhs:
            if sym not in nt_by_name and sym not in terminal_texts:
                terminal_texts.append(sym)
    vocab = tuple(Token(i, text) for i, text in enumerate(terminal_texts))
    tok_by_text = {t.text: t for t in vocab}

    rules = []
    for rid, (name, lhs, rhs) in enumerate(_RULE_TABLE):
        symbols = tuple(
            nt_by_name[s] if s in nt_by_name else tok_by_text[s] for s in rhs
        )
        rules.append(ProductionRule(rid, name, nt_by_name[lhs], symbols))

    return Grammar(nts, vocab, rules, nt_by_name["Stmt"])


def validate_grammar(g: Grammar) -> list:
    """Return a list of defect strings; empty means the grammar is valid.

    Checks that every nonterminal a rule names is declared, reachability
    from the start symbol, productivity (every nonterminal derives some
    terminal string), and duplicate right-hand sides under the same lhs.
    Defects are data, not exceptions. An undeclared nonterminal is reported
    alone: the other checks index the grammar's tables by nonterminal id.
    """
    undeclared = [
        f"undeclared: {k.name} in {r.name}"
        for r in g.rules for k in (r.lhs, *r.rhs_nonterminals()) if k not in g.nonterminals
    ]
    if undeclared:
        return undeclared
    defects = [
        f"nonproductive: {nt.name}"
        for nt, length in zip(g.nonterminals, g.min_lengths)
        if length == INF
    ]

    # reachability from start
    reachable = {g.start.id}
    frontier = [g.start.id]
    while frontier:
        nid = frontier.pop()
        for r in g.rules_by_lhs[nid]:
            for child in r.rhs_nonterminals():
                if child.id not in reachable:
                    reachable.add(child.id)
                    frontier.append(child.id)
    for nt in g.nonterminals:
        if nt.id not in reachable:
            defects.append(f"unreachable: {nt.name}")

    # duplicate rhs under one lhs
    for nt, rules in zip(g.nonterminals, g.rules_by_lhs):
        seen = {}
        for r in rules:
            if r.rhs in seen:
                defects.append(f"duplicate: {seen[r.rhs]} and {r.name} under {nt.name}")
            else:
                seen[r.rhs] = r.name
    return defects
