"""Purely search-based comparator: iterative deepening DFS over rule
applications, accepting the first derivation whose yield is exactly the
input. Pruning is limited to terminal-prefix matching, minimum-depth
bounds, and minimum-yield-length bounds; rule order is rule-id order with
leftmost nonterminal expanded first. Each rule's rhs is read from the
grammar's search plans, built once per grammar.

A found tree hands each subtree of at most three tokens over to one copy
kept per grammar, so result trees may share frozen subtrees with other
results: compare them with ``==``.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass

from .grammar import Grammar, check_int, check_number
from .tree import Ast

__all__ = ["SearchConfig", "SearchResult", "iddfs_parse"]

# A found tree's subtrees of at most _SHARE_MAX_YIELD tokens are swapped for
# one copy per grammar (build_grammar() has 1,530 such trees), so a caller
# that keeps many results, as perfbench's closed loop does, holds about a
# third of the bytes; once a grammar's table holds _SHARE_MAX_ENTRIES,
# subtrees not in it stay as they are.
_SHARE_MAX_YIELD = 3
_SHARE_MAX_ENTRIES = 4096
_shared = weakref.WeakKeyDictionary()  # grammar -> {small tree: its one copy}


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int = 24
    time_limit_s: float = 3600.0

    def __post_init__(self):
        check_int("max_depth", self.max_depth, 1)
        check_number("time_limit_s", self.time_limit_s, above=0)


@dataclass(slots=True)
class SearchResult:
    status: str  # "found" | "timeout" | "exhausted"
    tree: Ast | None = None
    depth_limit: int = 0
    elapsed_s: float = 0.0
    nodes_expanded: int = 0


class _Timeout(Exception):
    pass


def _unknown_token(tok, pos) -> ValueError:
    return ValueError(f"token id {tok} at position {pos} is not in the vocabulary")


def iddfs_parse(g: Grammar, tokens, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Depth limits 1, 2, ... up to cfg.max_depth; within each, DFS over
    derivations rooted at the start symbol. Timeouts and exhaustion are
    results, not exceptions; an empty input, or a token id that is not an
    integer in the vocabulary, raises ValueError."""
    toks = tuple(tokens)
    if not toks:
        raise ValueError("empty input")
    g.check_tokens(toks, _unknown_token)
    n = len(toks)
    min_depth, min_len, plans = g.min_depths, g.min_lengths, g.search_plans
    deadline = time.perf_counter() + cfg.time_limit_s
    start_time = time.perf_counter()
    expanded = 0

    def search(nt_id, pos, budget, tail_min):
        """Yield (tree, end position) for every derivation of nt starting
        at pos with depth <= budget, leaving at least tail_min tokens."""
        nonlocal expanded
        if budget < min_depth[nt_id]:
            return
        if pos + min_len[nt_id] + tail_min > n:
            return
        expanded += 1
        if expanded % 1024 == 0 and time.perf_counter() > deadline:
            raise _Timeout
        for rule_id, need, steps, leaf in plans[nt_id]:
            if pos + need + tail_min > n:
                continue
            if leaf is not None:
                if toks[pos] == steps[0][0]:
                    yield leaf, pos + 1
                continue
            yield from _expand(rule_id, steps, 0, pos, (), budget, tail_min)

    def _expand(rule_id, steps, i, pos, children, budget, tail_min):
        """Match steps[i:] from pos: terminals inline, then one child
        derivation per way the next nonterminal can be derived."""
        while i < len(steps):
            tok, nt_id, after = steps[i]
            if nt_id is not None:
                break
            if pos == n or toks[pos] != tok:
                return
            i += 1
            pos += 1
        else:
            yield Ast(rule_id, children), pos
            return
        for child, end in search(nt_id, pos, budget - 1, after + tail_min):
            yield from _expand(
                rule_id, steps, i + 1, end, children + (child,), budget, tail_min
            )

    try:
        for limit in range(min_depth[g.start.id], cfg.max_depth + 1):
            for tree, end in search(g.start.id, 0, limit, 0):
                if end == n:
                    return SearchResult(
                        "found",
                        tree=_share(g, tree),
                        depth_limit=limit,
                        elapsed_s=time.perf_counter() - start_time,
                        nodes_expanded=expanded,
                    )
        status = "exhausted"
    except _Timeout:
        status = "timeout"
    return SearchResult(
        status,
        depth_limit=cfg.max_depth,
        elapsed_s=time.perf_counter() - start_time,
        nodes_expanded=expanded,
    )


def _share(g: Grammar, tree: Ast) -> Ast:
    """tree with each small subtree replaced by the grammar's one copy of
    it, in one bottom-up pass."""
    table = _shared.get(g)
    if table is None:
        table = _shared[g] = {}
    rules = g.rules

    def walk(t):
        # each child stands for one rhs nonterminal; the rest are terminals
        kids, moved = [], False
        length = len(rules[t.rule_id].rhs) - len(t.children)
        for c in t.children:
            kid, k = walk(c)
            kids.append(kid)
            length += k
            moved = moved or kid is not c
        if moved:
            t = Ast(t.rule_id, tuple(kids))
        if length <= _SHARE_MAX_YIELD:
            full = len(table) >= _SHARE_MAX_ENTRIES
            t = table.get(t, t) if full else table.setdefault(t, t)
        return t, length

    return walk(tree)[0]
