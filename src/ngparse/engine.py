"""Recursive guided inference: pick a rule per layer, split the tokens,
recurse. One expansion step proposes the lookahead candidates that
decompose a span, ranked by the selector where they leave it a choice. A
depth-first search over them is fallback (retry the next rule when a
child does not parse) or, over the top-ranked rule only, greedy; beam
keeps the best-scoring partial derivations of each level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .decompose import DecompositionFailure, decompose
from .grammar import Grammar, Nonterminal, check_int
from .guider import (
    KEPT_TOKENS,
    GuiderModel,
    _unknown_token as _unknown_guider_token,
    predict_rule_distribution,
)
from .parser import ParseError, reference_parse
from .search import share_subtrees
from .tree import Ast, TreeError, pretty_print

__all__ = [
    "InferConfig",
    "InferenceError",
    "Unparseable",
    "DepthLimitExceeded",
    "InconsistentParse",
    "MODES",
    "infer",
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


MODES = ("greedy", "fallback", "beam")


@dataclass(frozen=True)
class InferConfig:
    mode: str = "fallback"  # one of MODES
    beam_width: int = 4
    max_recursion_depth: int = 64

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("beam_width", "max_recursion_depth"):
            check_int(name, getattr(self, name), 1)


# The most prefix states and answers one model_selector keeps at a time.
KEPT_MAX = 16_384


def model_selector(g: Grammar, model: GuiderModel):
    """Selector backed by the trained guider: returns a tuple of
    (rule_id, logprob) pairs for applicable rules, best first.

    The selector keeps, across parses, what depends only on the model and
    the token ids, with K = guider.KEPT_TOKENS (4): under "proj" and
    "prefixes" guider.encode's tables, each token's projection row and the
    state after each prefix of at most K tokens it has encoded; under
    "answers" its answer for each span of at most K tokens it has been
    asked about, keyed by (tokens, nt). It puts all three into the states
    of each infer call. The prefix states and answers are bounded by the
    input stream, not the grammar, so together they hold at most KEPT_MAX
    entries: when an ask that misses could take them past it, both tables
    are cleared and refill as asks come. At d_h 256 a state takes about
    1.25 KB and an answer at most about 1 KB (tracemalloc), so full tables
    take at most about 20.5 MB. A span's token ids are checked
    before the lookup, so a bad id raises GuiderError as on a miss, and a
    nonterminal foreign to g never hits and raises GrammarError. A kept
    answer, like a recomputed state, has the bits the same call computes
    afresh, so trees are bit-identical, before and after a clear; answers
    are tuples, so no caller can change a kept one. It reads the weights
    when it first needs them, so after changing a model in place, make a
    new selector.
    """
    model.check_grammar(g)
    kept = {"proj": {}, "prefixes": {}, "answers": {}}
    prefixes, answers = kept["prefixes"], kept["answers"]

    def select(tokens, nt: Nonterminal, states: dict):
        if not states:
            states.update(kept)
        short = len(tokens) <= KEPT_TOKENS
        if short:
            g.check_tokens(tokens, _unknown_guider_token)
            key = (tuple(tokens), nt)
            ranked = answers.get(key)
            if ranked is not None:
                return ranked
        # a miss keeps at most K states and one answer
        if len(prefixes) + len(answers) + KEPT_TOKENS + 1 > KEPT_MAX:
            prefixes.clear()
            answers.clear()
        probs = predict_rule_distribution(g, tokens, nt, model, states=states)
        ranked = tuple(sorted(
            ((r.id, math.log(probs[r.id]) if probs[r.id] > 0 else -math.inf)
             for r in g.rules_for(nt)),
            key=lambda p: (-p[1], p[0]),
        ))
        if short:
            answers[key] = ranked
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


def _unknown_token(tok, pos) -> Unparseable:
    return Unparseable(f"token id {tok} at position {pos} is not in the vocabulary")


def infer(
    g: Grammar,
    tokens,
    selector,
    cfg: InferConfig = InferConfig(),
    nt: Nonterminal = None,
) -> Ast:
    """Algorithm: select a rule for (tokens, nt), decompose, recurse.

    selector(tokens, nt, states) -> a sequence of (rule_id, logprob)
    sorted best-first, e.g. from model_selector (a tuple) or
    oracle_selector (a list); infer only slices and iterates it. tokens is
    a span of the input. states is one dict per infer call, for the
    selector to keep what its calls on this input share; it is dropped when
    the call returns. model_selector puts its own tables into it, which
    outlive the call: the states after the prefixes of at most
    guider.KEPT_TOKENS (4) tokens and its answers for spans that short, at
    most KEPT_MAX of them together. The states after longer prefixes it
    keeps in states itself, so they end with the call (see guider.encode).
    Trees are bit-identical to asking afresh.
    Within a call the selector is asked about each (span, nt) at most once,
    and only when its answer can change the result: when at least two
    candidates decompose the span in fallback, at least one in greedy and
    beam. The candidates are g.candidates for the span's first and last
    token, the rules of nt that can derive a span with those ends. So
    fallback tries a lone splitting candidate even if the selector would
    rank it -inf.

    Every mode uses one expansion step: the candidates that decompose the
    span, with their child goals; when the selector was asked, in its
    order and without the rules it ranks -inf. fallback and greedy
    (top-ranked rule only) search them depth first; beam keeps the
    best-scoring partial derivations of each level. An empty input, or one
    with a token id outside the vocabulary, raises Unparseable before any
    work; so does a token id that is not an integer. The result's subtrees
    of at most three tokens are the grammar's shared copies
    (search.share_subtrees), so a caller that keeps many results holds about
    a third of the bytes; compare trees with ==.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise Unparseable("empty input")
    g.check_tokens(tokens, _unknown_token)
    if nt is None:
        nt = g.start

    states, memo = {}, {}
    # The fewest splitting rules that leave the selector a choice: greedy
    # needs its top-ranked rule and beam its scores even for one.
    ask_from = 2 if cfg.mode == "fallback" else 1
    alternatives = 1 if cfg.mode == "greedy" else None

    def expand(toks, goal):
        """The proposals (rule, logprob, ((span, nt), ...)), best first;
        logprob is None where the selector was not asked."""
        key = (toks, goal.id)
        proposals = memo.get(key)
        if proposals is None:
            splits = {}
            for rule in g.candidates(goal, toks[0], toks[-1]):
                try:
                    components = decompose(g, toks, rule)
                except DecompositionFailure:
                    continue
                splits[rule.id] = rule, tuple(zip(components, rule.rhs_nonterminals()))
            if len(splits) < ask_from:
                proposals = [(rule, None, goals) for rule, goals in splits.values()]
            else:
                proposals = []
                for rule_id, logprob in selector(toks, goal, states)[:alternatives]:
                    if logprob != -math.inf and rule_id in splits:
                        rule, goals = splits[rule_id]
                        proposals.append((rule, logprob, goals))
            memo[key] = proposals
        return proposals

    try:
        if cfg.mode == "beam":
            result = _infer_beam(g, expand, tokens, nt, cfg)
        else:
            result = _infer_dfs(g, expand, tokens, nt, cfg.max_recursion_depth, 1)
        result = share_subtrees(g, result)
        consistent = pretty_print(g, result) == tokens
    except (RecursionError, TreeError) as exc:
        # The trees built here are well formed, so the verification walk
        # raises TreeError only when it, too, runs out of stack.
        raise DepthLimitExceeded(f"recursion deeper than Python's stack allows: {exc}") from None
    if not consistent:
        raise InconsistentParse("reconstructed yield differs from input")
    return result


def _infer_dfs(g, expand, tokens, nt, max_depth, level):
    """The first proposal whose children all parse, a rule without
    nonterminals giving the grammar's leaf. Only Unparseable moves on to
    the next one: DepthLimitExceeded ends the whole call."""
    if level > max_depth:
        raise DepthLimitExceeded(f"recursion deeper than {max_depth}")
    for rule, _, goals in expand(tokens, nt):
        children = []
        try:
            for comp, knt in goals:
                children.append(_infer_dfs(g, expand, comp, knt, max_depth, level + 1))
        except Unparseable:
            continue
        return g.leaves[rule.id] or Ast(rule.id, tuple(children))
    raise Unparseable(f"all rules exhausted for {nt.name}")


def _infer_beam(g, expand, tokens, nt, cfg):
    """Level-synchronous beam over leftmost-first expansions.

    A state is (score, preorder rule ids, stack of pending (tokens, nt,
    level) goals); completed states have an empty stack. Popping a goal
    deeper than max_recursion_depth raises DepthLimitExceeded, as in the
    depth-first search. Each level adds one node to every state, and a
    derivation has at most one leaf per token and no path longer than the
    limit, so the loop ends. Returns the best-scoring completed derivation.
    """
    max_depth = cfg.max_recursion_depth
    beam = [(0.0, (), ((tokens, nt, 1),))]
    completed = []
    while beam:
        nxt = []
        for score, chosen, stack in beam:
            toks, goal, level = stack[-1]
            if level > max_depth:
                raise DepthLimitExceeded(f"recursion deeper than {max_depth}")
            rest = stack[:-1]
            for rule, logprob, goals in expand(toks, goal):
                new_stack = rest + tuple([(c, k, level + 1) for c, k in goals[::-1]])
                state = (score + logprob, chosen + (rule.id,), new_stack)
                (nxt if new_stack else completed).append(state)
        nxt.sort(key=lambda s: -s[0])
        beam = nxt[: cfg.beam_width]
    if not completed:
        raise Unparseable("beam exhausted without a complete derivation")
    best = max(completed, key=lambda s: s[0])
    return _tree_from_preorder(g, best[1], 0)[0]


def _tree_from_preorder(g, rule_ids, idx):
    rule = g.rule_by_id(rule_ids[idx])
    idx += 1
    children = []
    for _ in rule.rhs_nonterminals():
        child, idx = _tree_from_preorder(g, rule_ids, idx)
        children.append(child)
    return g.leaves[rule.id] or Ast(rule.id, tuple(children)), idx
