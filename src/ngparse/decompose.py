"""Hand-coded rule inverses: split a token sequence per a rule's rhs.

One left-to-right scan over the rhs matches each terminal at the current
position. A nonterminal's component runs up to the first occurrence of the
next rhs terminal at nesting level 0, counted with the grammar's nesting
table (if/endif, while/endwhile, parentheses). A span that does not fit
raises DecompositionFailure, which the inference engine catches to try
the nonterminal's other rules.
"""

from __future__ import annotations

from .grammar import Grammar, ProductionRule, Token

__all__ = ["DecompositionFailure", "decompose"]


class DecompositionFailure(Exception):
    """Input does not fit the rule's surface shape (recoverable)."""


def decompose(g: Grammar, tokens, rule: ProductionRule) -> list:
    """Split tokens into one component per rhs nonterminal, in rhs order.

    Interleaving the returned components with the rule's rhs terminals
    reproduces the input exactly; every component is nonempty. Raises
    DecompositionFailure when a required terminal is missing at top
    level, a component would be empty, or tokens are left over. Token ids
    are only compared, so any id, in the vocabulary or not, either splits
    or raises DecompositionFailure.
    """
    toks = tuple(tokens)
    if not toks:
        raise DecompositionFailure(f"{rule.name}: empty input")
    nesting = g.nesting

    components = []
    pos = 0
    start = None  # where the pending nonterminal's component starts
    for sym in rule.rhs:
        if not isinstance(sym, Token):
            if start is not None:
                raise DecompositionFailure(
                    f"{rule.name}: adjacent nonterminals are not splittable"
                )
            start = pos
            continue
        if start is not None:
            # The pending component ends at the first sym at nesting level
            # 0. An unmatched closer or the end of the span stops the scan
            # where sym is not, so the match below fails there.
            level = 0
            for pos in range(start, len(toks)):
                if level == 0 and toks[pos] == sym.id:
                    break
                level += nesting.get(toks[pos], 0)
                if level < 0:
                    break
            else:
                pos = len(toks)
            if pos == start:
                raise DecompositionFailure(
                    f"{rule.name}: empty component before {sym.text!r}"
                )
            components.append(toks[start:pos])
            start = None
        if pos >= len(toks) or toks[pos] != sym.id:
            raise DecompositionFailure(f"{rule.name}: expected {sym.text!r} at {pos}")
        pos += 1
    if start is not None:
        if start == len(toks):
            raise DecompositionFailure(f"{rule.name}: empty trailing component")
        components.append(toks[start:])
    elif pos != len(toks):
        raise DecompositionFailure(f"{rule.name}: leftover tokens at position {pos}")
    return components
