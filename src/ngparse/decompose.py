"""Hand-coded rule inverses: split a token sequence per a rule's rhs.

One left-to-right scan with a nesting counter (if/endif, while/endwhile,
parentheses) finds the first top-level occurrence of each rhs terminal;
the gaps between matched terminals become the nonterminal components.
Failures are recoverable values so the inference engine can fall back to
lower-ranked rules.
"""

from __future__ import annotations

from .grammar import CLOSERS, OPENERS, Grammar, ProductionRule, Token

__all__ = ["DecompositionFailure", "decompose"]


class DecompositionFailure(Exception):
    """Input does not fit the rule's surface shape (recoverable)."""


def decompose(g: Grammar, tokens, rule: ProductionRule) -> list:
    """Split tokens into one component per rhs nonterminal, in rhs order.

    Interleaving the returned components with the rule's rhs terminals
    reproduces the input exactly; every component is nonempty. Raises
    DecompositionFailure when a required terminal is missing at top
    level, a component would be empty, or tokens are left over.
    """
    toks = tuple(tokens)
    if not toks:
        raise DecompositionFailure(f"{rule.name}: empty input")
    rhs = rule.rhs
    # A split matches a leading rhs terminal at the first token and a
    # trailing one at the last, so a span that does not is rejected here,
    # before the scan.
    for sym, tok in zip(rhs[:1] + rhs[-1:], (toks[0], toks[-1])):
        if isinstance(sym, Token) and tok != sym.id:
            raise DecompositionFailure(f"{rule.name}: span does not fit {sym.text!r}")
    texts = tuple(g.vocabulary[i].text for i in toks)
    openers = set(OPENERS)
    closers = set(CLOSERS)

    components = []
    pos = 0
    i = 0
    while i < len(rhs):
        sym = rhs[i]
        if isinstance(sym, Token):
            if pos >= len(toks) or toks[pos] != sym.id:
                found = texts[pos] if pos < len(toks) else "end"
                raise DecompositionFailure(
                    f"{rule.name}: expected {sym.text!r} at {pos}, found {found!r}"
                )
            pos += 1
            i += 1
            continue
        # Nonterminal: its component extends to the first top-level
        # occurrence of the next rhs terminal, or to the end of input if
        # the rhs ends with this nonterminal.
        delim = None
        if i + 1 < len(rhs):
            nxt = rhs[i + 1]
            if not isinstance(nxt, Token):
                raise DecompositionFailure(
                    f"{rule.name}: adjacent nonterminals are not splittable"
                )
            delim = nxt.text
        if delim is None:
            if pos >= len(toks):
                raise DecompositionFailure(f"{rule.name}: empty trailing component")
            components.append(toks[pos:])
            pos = len(toks)
            i += 1
            continue
        level = 0
        end = None
        for j in range(pos, len(toks)):
            word = texts[j]
            if word == delim and level == 0:
                end = j
                break
            if word in openers:
                level += 1
            elif word in closers:
                level -= 1
                if level < 0:
                    break
        if end is None:
            raise DecompositionFailure(
                f"{rule.name}: no top-level {delim!r} after position {pos}"
            )
        if end == pos:
            raise DecompositionFailure(
                f"{rule.name}: empty component before {delim!r}"
            )
        components.append(toks[pos:end])
        pos = end + 1  # consume the delimiter together with the component
        i += 2
    if pos != len(toks):
        raise DecompositionFailure(
            f"{rule.name}: leftover tokens starting at {texts[pos]!r}"
        )
    return components
