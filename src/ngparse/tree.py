"""Rule-application trees: metrics, equality, yield, and text serialization.

A tree node stores only its rule id; terminals are implied by the rule, so
structural equality (``==`` on the frozen dataclass) and the parenthesized
text format are both canonical.
Token sequences are plain tuples of vocabulary ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import Grammar, Token

__all__ = [
    "Ast",
    "TreeError",
    "validate_tree",
    "pretty_print",
    "depth",
    "node_count",
    "serialize",
    "deserialize",
]


class TreeError(Exception):
    """Malformed tree or unreadable tree text."""


@dataclass(frozen=True, slots=True)
class Ast:
    rule_id: int
    children: tuple = ()


def validate_tree(g: Grammar, t: Ast) -> None:
    """Raise TreeError unless every node's children match its rule's rhs."""
    _walk(g, t)


def pretty_print(g: Grammar, t: Ast) -> tuple:
    """Terminal yield of the derivation, as a tuple of token ids.

    Raises TreeError for a tree too deep for Python's stack, and for a
    malformed one at the first fault met by a preorder walk that checks a
    node's child count on reaching it and each child's lhs just before
    descending into that child. So in S1(A1(C1, ...), V1) it names A1's
    child C1, not S1's second child V1."""
    return tuple(_walk(g, t))


def yield_spans(g: Grammar, t: Ast) -> tuple:
    """(pretty_print(g, t), spans): spans holds each node's (rule, start,
    end) in preorder, yield[start:end] being the node's yield."""
    spans = []
    return tuple(_walk(g, t, spans)), spans


def _walk(g: Grammar, t: Ast, spans: list = None) -> list:
    out = []
    try:
        _yield_into(g, t, g.rule_by_id(t.rule_id), out, spans)
    except RecursionError as exc:
        raise TreeError(f"tree too deep to walk: {exc}") from None
    return out


def _yield_into(g: Grammar, t: Ast, rule, out: list, spans) -> None:
    """Append the yield of t, whose rule is rule, to out, checking each
    node before its children; record its span in spans unless None."""
    kids = rule.rhs_nonterminals()
    if len(t.children) != len(kids):
        raise TreeError(
            f"{rule.name}: expected {len(kids)} children, got {len(t.children)}"
        )
    if spans is not None:
        slot, start = len(spans), len(out)
        spans.append(None)  # filled once the children's yields are known
    child_iter = iter(t.children)
    for sym in rule.rhs:
        if isinstance(sym, Token):
            out.append(sym.id)
            continue
        child = next(child_iter)
        child_rule = g.rule_by_id(child.rule_id)
        if child_rule.lhs != sym:
            raise TreeError(
                f"{rule.name}: child rule {child_rule.name} has lhs "
                f"{child_rule.lhs.name}, expected {sym.name}"
            )
        _yield_into(g, child, child_rule, out, spans)
    if spans is not None:
        spans[slot] = (rule, start, len(out))


def depth(t: Ast) -> int:
    """Node count of the longest root-to-leaf path."""
    return 1 + max((depth(c) for c in t.children), default=0)


def node_count(t: Ast) -> int:
    return 1 + sum(node_count(c) for c in t.children)


def serialize(g: Grammar, t: Ast) -> str:
    """Parenthesized pre-order rule-name list, e.g. ``(S2 (A1 (V1) ...))``."""
    validate_tree(g, t)
    out = []
    _write(g, t, out)
    return "".join(out)


def _write(g: Grammar, t: Ast, out: list) -> None:
    # One frame per level, as the walk, so a tree that validates also writes.
    out.append("(" + g.rule_by_id(t.rule_id).name)
    for c in t.children:
        out.append(" ")
        _write(g, c, out)
    out.append(")")


def deserialize(g: Grammar, text: str) -> Ast:
    """Inverse of serialize; rejects ill-formed text and invalid trees."""
    pos = 0
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def parse(i):
        i = skip_ws(i)
        if i >= n or text[i] != "(":
            raise TreeError(f"expected '(' at position {i}")
        i += 1
        start = i
        while i < n and text[i] not in "() \t\n":
            i += 1
        name = text[start:i]
        if not name:
            raise TreeError(f"missing rule name at position {start}")
        rule = g.rule_by_name(name)
        children = []
        i = skip_ws(i)
        while i < n and text[i] == "(":
            child, i = parse(i)
            children.append(child)
            i = skip_ws(i)
        if i >= n or text[i] != ")":
            raise TreeError(f"expected ')' at position {i}")
        return Ast(rule.id, tuple(children)), i + 1

    try:
        t, pos = parse(0)
    except Exception as exc:
        if isinstance(exc, TreeError):
            raise
        raise TreeError(str(exc)) from exc
    pos = skip_ws(pos)
    if pos != n:
        raise TreeError(f"trailing text at position {pos}")
    validate_tree(g, t)
    return t
