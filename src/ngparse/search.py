"""Purely search-based comparator: iterative deepening DFS over rule
applications, accepting the first derivation whose yield is exactly the
input. Pruning is limited to terminal-prefix matching, minimum-depth
bounds, and minimum-yield-length bounds; rule order is rule-id order with
leftmost nonterminal expanded first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .grammar import Grammar, Token
from .tree import Ast

__all__ = ["SearchConfig", "SearchResult", "iddfs_parse"]


@dataclass(frozen=True)
class SearchConfig:
    max_depth: int = 24
    time_limit_s: float = 3600.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not self.time_limit_s > 0:
            raise ValueError(f"time_limit_s must be > 0, got {self.time_limit_s}")


@dataclass
class SearchResult:
    status: str  # "found" | "timeout" | "exhausted"
    tree: Ast = None
    depth_limit: int = 0
    elapsed_s: float = 0.0
    nodes_expanded: int = 0


class _Timeout(Exception):
    pass


def iddfs_parse(g: Grammar, tokens, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Depth limits 1, 2, ... up to cfg.max_depth; within each, DFS over
    derivations rooted at the start symbol. Timeouts and exhaustion are
    results, not exceptions."""
    toks = tuple(tokens)
    if not toks:
        raise ValueError("empty input")
    min_depth, min_len, rules_by_lhs = g.min_depths, g.min_lengths, g.rules_by_lhs
    deadline = time.perf_counter() + cfg.time_limit_s
    start_time = time.perf_counter()
    expanded = 0

    def search(nt_id, pos, budget, tail_min):
        """Yield (tree, end position) for every derivation of nt starting
        at pos with depth <= budget, leaving at least tail_min tokens."""
        nonlocal expanded
        if budget < min_depth[nt_id]:
            return
        if pos + min_len[nt_id] + tail_min > len(toks):
            return
        expanded += 1
        if expanded % 1024 == 0 and time.perf_counter() > deadline:
            raise _Timeout
        for rule in rules_by_lhs[nt_id]:
            # remaining minimum length of rhs elements after each position
            suffix = [0] * (len(rule.rhs) + 1)
            for i in range(len(rule.rhs) - 1, -1, -1):
                sym = rule.rhs[i]
                need = 1 if isinstance(sym, Token) else min_len[sym.id]
                suffix[i] = suffix[i + 1] + need
            if pos + suffix[0] + tail_min > len(toks):
                continue
            yield from _expand(rule, 0, pos, (), budget, suffix, tail_min)

    def _expand(rule, i, pos, children, budget, suffix, tail_min):
        if i == len(rule.rhs):
            yield Ast(rule.id, children), pos
            return
        sym = rule.rhs[i]
        if isinstance(sym, Token):
            if pos < len(toks) and toks[pos] == sym.id:
                yield from _expand(
                    rule, i + 1, pos + 1, children, budget, suffix, tail_min
                )
            return
        for child, end in search(sym.id, pos, budget - 1, suffix[i + 1] + tail_min):
            yield from _expand(
                rule, i + 1, end, children + (child,), budget, suffix, tail_min
            )

    try:
        for limit in range(min_depth[g.start.id], cfg.max_depth + 1):
            for tree, end in search(g.start.id, 0, limit, 0):
                if end == len(toks):
                    return SearchResult(
                        "found",
                        tree=tree,
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
