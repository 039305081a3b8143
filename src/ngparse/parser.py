"""Deterministic recursive-descent parser for the built-in grammar.

Ground-truth oracle: produces the unique derivation of a token sequence,
including explicit chain nodes (E3, T2, F2/F3), so its trees are
structurally identical to the generator's and to guided inference output.
"""

from __future__ import annotations

from .grammar import Grammar
from .tree import Ast

__all__ = ["ParseError", "reference_parse"]


class ParseError(Exception):
    """Input has no derivation from the requested nonterminal."""

    def __init__(self, message: str, furthest: int):
        super().__init__(f"{message} (furthest token index {furthest})")
        self.furthest = furthest


class _Parser:
    def __init__(self, g: Grammar, tokens: tuple):
        self.g = g
        self.toks = tokens
        self.texts = tuple(g.vocabulary[i].text for i in tokens)
        self.furthest = 0
        self._rid = {r.name: r.id for r in g.rules}

    def fail(self, pos: int, message: str):
        self.furthest = max(self.furthest, pos)
        raise ParseError(message, self.furthest)

    def peek(self, pos: int) -> str:
        return self.texts[pos] if pos < len(self.texts) else ""

    def expect(self, pos: int, text: str) -> int:
        if self.peek(pos) != text:
            self.fail(pos, f"expected {text!r}, found {self.peek(pos) or 'end'!r}")
        return pos + 1

    # Each parse_* returns (Ast, next position).

    def parse_stmt(self, pos: int):
        simp, pos = self.parse_simpstmt(pos)
        pos = self.expect(pos, ";")
        # S1 iff another statement follows at this level; "else"/"endif"/
        # "endwhile"/end never start a SimpStmt, so one-token lookahead decides.
        if self.peek(pos) in ("if", "while") or self.peek(pos).startswith("v"):
            rest, pos = self.parse_stmt(pos)
            return Ast(self._rid["S1"], (simp, rest)), pos
        return Ast(self._rid["S2"], (simp,)), pos

    def parse_simpstmt(self, pos: int):
        head = self.peek(pos)
        if head == "if":
            cond, p = self.parse_bexpr(pos + 1)
            p = self.expect(p, "then")
            then_s, p = self.parse_stmt(p)
            p = self.expect(p, "else")
            else_s, p = self.parse_stmt(p)
            p = self.expect(p, "endif")
            return Ast(self._rid["I1"], (cond, then_s, else_s)), p
        if head == "while":
            cond, p = self.parse_bexpr(pos + 1)
            p = self.expect(p, "do")
            body, p = self.parse_stmt(p)
            p = self.expect(p, "endwhile")
            return Ast(self._rid["W1"], (cond, body)), p
        var, p = self.parse_var(pos)
        p = self.expect(p, "=")
        rhs, p = self.parse_aexpr(p)
        return Ast(self._rid["A1"], (var, rhs)), p

    def parse_aexpr(self, pos: int):
        term, p = self.parse_aterm(pos)
        nxt = self.peek(p)
        if nxt == "+":
            rest, p2 = self.parse_aexpr(p + 1)
            return Ast(self._rid["E1"], (term, rest)), p2
        if nxt == "-":
            rest, p2 = self.parse_aexpr(p + 1)
            return Ast(self._rid["E2"], (term, rest)), p2
        return Ast(self._rid["E3"], (term,)), p

    def parse_aterm(self, pos: int):
        factor, p = self.parse_afactor(pos)
        if self.peek(p) == "*":
            rest, p2 = self.parse_aterm(p + 1)
            return Ast(self._rid["T1"], (factor, rest)), p2
        return Ast(self._rid["T2"], (factor,)), p

    def parse_afactor(self, pos: int):
        head = self.peek(pos)
        if head == "(":
            inner, p = self.parse_aexpr(pos + 1)
            p = self.expect(p, ")")
            return Ast(self._rid["F1"], (inner,)), p
        if head.startswith("v"):
            var, p = self.parse_var(pos)
            return Ast(self._rid["F2"], (var,)), p
        const, p = self.parse_const(pos)
        return Ast(self._rid["F3"], (const,)), p

    def parse_bexpr(self, pos: int):
        head = self.peek(pos)
        if head == "not":
            inner, p = self.parse_bexpr(pos + 1)
            return Ast(self._rid["B3"], (inner,)), p
        if head == "(":
            # "(" opens either a parenthesized arithmetic factor inside a
            # comparison (B1/B2) or a boolean conjunction (B4); try the
            # comparison first and fall back.
            try:
                return self.parse_comparison(pos)
            except ParseError:
                lhs, p = self.parse_bexpr(pos + 1)
                p = self.expect(p, "and")
                rhs, p = self.parse_bexpr(p)
                p = self.expect(p, ")")
                return Ast(self._rid["B4"], (lhs, rhs)), p
        return self.parse_comparison(pos)

    def parse_comparison(self, pos: int):
        lhs, p = self.parse_aexpr(pos)
        op = self.peek(p)
        if op == "<":
            rhs, p2 = self.parse_aexpr(p + 1)
            return Ast(self._rid["B1"], (lhs, rhs)), p2
        if op == "==":
            rhs, p2 = self.parse_aexpr(p + 1)
            return Ast(self._rid["B2"], (lhs, rhs)), p2
        self.fail(p, f"expected comparison operator, found {op or 'end'!r}")

    def parse_var(self, pos: int):
        head = self.peek(pos)
        if head in ("v0", "v1", "v2", "v3", "v4"):
            return Ast(self._rid[f"V{int(head[1]) + 1}"]), pos + 1
        self.fail(pos, f"expected variable, found {head or 'end'!r}")

    def parse_const(self, pos: int):
        head = self.peek(pos)
        if head.isdigit() and len(head) == 1:
            return Ast(self._rid[f"C{int(head) + 1}"]), pos + 1
        self.fail(pos, f"expected constant, found {head or 'end'!r}")


_DISPATCH = {
    "Stmt": _Parser.parse_stmt,
    "SimpStmt": _Parser.parse_simpstmt,
    "AExpr": _Parser.parse_aexpr,
    "ATerm": _Parser.parse_aterm,
    "AFactor": _Parser.parse_afactor,
    "BExpr": _Parser.parse_bexpr,
    "Var": _Parser.parse_var,
    "Const": _Parser.parse_const,
}


def _unknown_token(tok, pos) -> ParseError:
    return ParseError(f"token id {tok} is not in the vocabulary", pos)


def reference_parse(g: Grammar, tokens, nt=None) -> Ast:
    """Parse a token-id sequence into the unique tree rooted at nt.

    Raises ParseError (with a furthest-token diagnostic) when no
    derivation consumes the input exactly or a token id is not an integer
    in the vocabulary, and GrammarError for a nonterminal not in g.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise ParseError("empty input", 0)
    g.check_tokens(tokens, _unknown_token)
    if nt is None:
        nt = g.start
    g.rules_for(nt)
    p = _Parser(g, tokens)
    t, end = _DISPATCH[nt.name](p, 0)
    if end != len(tokens):
        p.fail(end, f"unconsumed input starting at {p.texts[end]!r}")
    return t
