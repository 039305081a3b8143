"""Recursive guided inference: pick a rule per layer, split the tokens,
recurse. Three variants: greedy (trust the top rule), fallback (retry
rules in descending probability on any failure), and beam (keep the
best-scoring partial derivations).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .decompose import DecompositionFailure, decompose
from .grammar import Grammar, Nonterminal
from .guider import GuiderModel, predict_rule_distribution
from .parser import ParseError, reference_parse
from .tree import Ast, pretty_print

__all__ = [
    "InferConfig",
    "InferenceError",
    "Unparseable",
    "DepthLimitExceeded",
    "InconsistentParse",
    "infer",
    "infer_file",
    "model_selector",
    "oracle_selector",
]


class InferenceError(Exception):
    kind = "error"


class Unparseable(InferenceError):
    kind = "unparseable"


class DepthLimitExceeded(InferenceError):
    kind = "depth_limit"


class InconsistentParse(InferenceError):
    kind = "inconsistent_parse"


@dataclass(frozen=True)
class InferConfig:
    mode: str = "fallback"  # greedy | fallback | beam
    beam_width: int = 4
    max_recursion_depth: int = 64
    verify_reconstruction: bool = True

    def __post_init__(self):
        if self.mode not in ("greedy", "fallback", "beam"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.beam_width < 1 or self.max_recursion_depth < 1:
            raise ValueError("beam_width and max_recursion_depth must be >= 1")


def model_selector(g: Grammar, model: GuiderModel):
    """Selector backed by the trained guider: returns (rule_id, logprob)
    pairs for applicable rules, best first."""
    model.check_grammar(g)

    def select(tokens, nt: Nonterminal, states: dict):
        probs = predict_rule_distribution(g, tokens, nt, model, states=states)
        ranked = [
            (r.id, math.log(probs[r.id]) if probs[r.id] > 0 else -math.inf)
            for r in g.rules_for(nt)
        ]
        ranked.sort(key=lambda p: (-p[1], p[0]))
        return ranked

    return select


def oracle_selector(g: Grammar):
    """Point-mass selector on the reference parser's root rule; used for
    oracle-equivalence testing. It has no encoder, so it ignores states."""

    def select(tokens, nt: Nonterminal, states: dict):
        try:
            t = reference_parse(g, tokens, nt)
        except ParseError:
            return []
        return [(t.rule_id, 0.0)]

    return select


def infer(
    g: Grammar,
    tokens,
    selector,
    cfg: InferConfig = InferConfig(),
    nt: Nonterminal = None,
) -> Ast:
    """Algorithm: select a rule for (tokens, nt), decompose, recurse.

    selector(tokens, nt, states) -> [(rule_id, logprob)] sorted best-first,
    e.g. from model_selector or oracle_selector. tokens is a span of the
    input. states is one dict per infer call, for the selector to keep
    what its calls on this input share (model_selector: the encoder's
    prefix trie, see guider.encode); it is dropped when the call returns.
    Within a call the selector is asked about each (span, nt) once.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise Unparseable("empty input")
    if nt is None:
        nt = g.start

    states, memo = {}, {}

    def select(toks, goal):
        key = (toks, goal.id)
        ranked = memo.get(key)
        if ranked is None:
            ranked = memo[key] = selector(toks, goal, states)
        return ranked

    if cfg.mode == "greedy":
        result = _infer_greedy(g, tokens, nt, select, cfg, 1)
    elif cfg.mode == "fallback":
        result = _infer_fallback(g, tokens, nt, select, cfg, 1)
    else:
        result = _infer_beam(g, tokens, nt, select, cfg)

    if cfg.verify_reconstruction and pretty_print(g, result) != tokens:
        raise InconsistentParse("reconstructed yield differs from input")
    return result


def _infer_greedy(g, tokens, nt, selector, cfg, level):
    if level > cfg.max_recursion_depth:
        raise DepthLimitExceeded(f"recursion deeper than {cfg.max_recursion_depth}")
    ranked = selector(tokens, nt)
    if not ranked:
        raise Unparseable(f"no rule proposed for {nt.name}")
    rule = g.rule_by_id(ranked[0][0])
    try:
        components = decompose(g, tokens, rule)
    except DecompositionFailure as exc:
        raise Unparseable(str(exc)) from exc
    children = tuple(
        _infer_greedy(g, comp, knt, selector, cfg, level + 1)
        for comp, knt in zip(components, rule.rhs_nonterminals())
    )
    return Ast(rule.id, children)


def _infer_fallback(g, tokens, nt, selector, cfg, level):
    if level > cfg.max_recursion_depth:
        raise DepthLimitExceeded(f"recursion deeper than {cfg.max_recursion_depth}")
    for rule_id, logprob in selector(tokens, nt):
        if logprob == -math.inf:
            continue
        rule = g.rule_by_id(rule_id)
        try:
            components = decompose(g, tokens, rule)
        except DecompositionFailure:
            continue
        children = []
        try:
            for comp, knt in zip(components, rule.rhs_nonterminals()):
                children.append(
                    _infer_fallback(g, comp, knt, selector, cfg, level + 1)
                )
        except Unparseable:
            continue
        return Ast(rule_id, tuple(children))
    raise Unparseable(f"all rules exhausted for {nt.name}")


def _infer_beam(g, tokens, nt, selector, cfg):
    """Level-synchronous beam over leftmost-first expansions.

    A state is (score, preorder rule ids, stack of pending (tokens, nt)
    goals); completed states have an empty stack. Returns the
    best-scoring completed derivation.
    """
    start = (0.0, (), ((tuple(tokens), nt),))
    beam = [start]
    completed = []
    steps = 0
    limit = cfg.max_recursion_depth * max(64, len(tokens)) * cfg.beam_width
    while beam:
        steps += 1
        if steps > limit:
            raise DepthLimitExceeded("beam expansion budget exhausted")
        nxt = []
        for score, chosen, stack in beam:
            toks, goal_nt = stack[-1]
            rest = stack[:-1]
            for rule_id, logprob in selector(toks, goal_nt):
                if logprob == -math.inf:
                    continue
                rule = g.rule_by_id(rule_id)
                try:
                    components = decompose(g, toks, rule)
                except DecompositionFailure:
                    continue
                new_goals = tuple(
                    zip(components, rule.rhs_nonterminals())
                )
                new_stack = rest + tuple(reversed(new_goals))
                state = (score + logprob, chosen + (rule_id,), new_stack)
                if new_stack:
                    nxt.append(state)
                else:
                    completed.append(state)
        nxt.sort(key=lambda s: -s[0])
        beam = nxt[: cfg.beam_width]
    if not completed:
        raise Unparseable("beam exhausted without a complete derivation")
    best = max(completed, key=lambda s: s[0])
    tree, used = _tree_from_preorder(g, best[1], 0, nt)
    return tree


def _tree_from_preorder(g, rule_ids, idx, nt):
    rule = g.rule_by_id(rule_ids[idx])
    idx += 1
    children = []
    for knt in rule.rhs_nonterminals():
        child, idx = _tree_from_preorder(g, rule_ids, idx, knt)
        children.append(child)
    return Ast(rule.id, tuple(children)), idx


def infer_file(g: Grammar, corpus_path, selector, cfg: InferConfig = InferConfig()):
    """Run inference over a corpus file (token string TAB tree text per
    line); yields one result row per program with the wall time of the
    infer call alone. Bad lines become error rows, processing continues."""
    rows = []
    with open(corpus_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            text = line.split("\t")[0]
            try:
                tokens = g.encode(text)
            except Exception as exc:
                rows.append((lineno, None, f"bad_input: {exc}", 0.0))
                continue
            t0 = time.perf_counter()
            try:
                tree = infer(g, tokens, selector, cfg)
                err = None
            except InferenceError as exc:
                tree = None
                err = exc.kind
            rows.append((lineno, tree, err, time.perf_counter() - t0))
    return rows
