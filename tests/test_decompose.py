import hashlib

import numpy as np
import pytest

from ngparse.decompose import DecompositionFailure, decompose
from ngparse.grammar import CLOSERS, OPENERS, Nonterminal, Token
from ngparse.parser import ParseError, reference_parse
from ngparse.sampler import SampleBucket, sample_corpus
from ngparse.tree import pretty_print


def test_if_rule_split(g):
    toks = g.encode("if v0 < 1 then v1 = 2 ; else v1 = 3 ; endif")
    comps = decompose(g, toks, g.rule_by_name("I1"))
    assert [g.decode(c) for c in comps] == ["v0 < 1", "v1 = 2 ;", "v1 = 3 ;"]


def test_nested_if_split_skips_inner_else(g):
    text = (
        "if v0 < 1 then "
        "if v1 < 2 then v2 = 3 ; else v2 = 4 ; endif ; "
        "else v2 = 5 ; endif"
    )
    comps = decompose(g, g.encode(text), g.rule_by_name("I1"))
    assert g.decode(comps[1]) == "if v1 < 2 then v2 = 3 ; else v2 = 4 ; endif ;"
    assert g.decode(comps[2]) == "v2 = 5 ;"


def test_chain_rule_identity(g):
    comps = decompose(g, g.encode("v0"), g.rule_by_name("F2"))
    assert [g.decode(c) for c in comps] == ["v0"]


def test_missing_leading_terminal_fails(g):
    with pytest.raises(DecompositionFailure):
        decompose(g, g.encode("v0 = 1 ;"), g.rule_by_name("I1"))


def test_leftover_tokens_fail(g):
    with pytest.raises(DecompositionFailure):
        decompose(g, g.encode("v0 = 1 ; v1 = 2 ;"), g.rule_by_name("S2"))


def test_right_associative_splits(g):
    comps = decompose(g, g.encode("1 + 2 + 3"), g.rule_by_name("E1"))
    assert [g.decode(c) for c in comps] == ["1", "2 + 3"]
    comps = decompose(g, g.encode("v0 = 1 ; v1 = 2 ; v2 = 3 ;"), g.rule_by_name("S1"))
    assert [g.decode(c) for c in comps] == ["v0 = 1", "v1 = 2 ; v2 = 3 ;"]


def test_paren_closer_at_top_level(g):
    comps = decompose(g, g.encode("( ( 1 ) )"), g.rule_by_name("F1"))
    assert [g.decode(c) for c in comps] == ["( 1 )"]
    comps = decompose(g, g.encode("( 1 < 2 and ( 3 < 4 and 5 < 6 ) )"),
                      g.rule_by_name("B4"))
    assert [g.decode(c) for c in comps] == ["1 < 2", "( 3 < 4 and 5 < 6 )"]


def test_empty_component_fails(g):
    with pytest.raises(DecompositionFailure):
        decompose(g, g.encode("= 1"), g.rule_by_name("A1"))


def test_empty_input_fails(g):
    with pytest.raises(DecompositionFailure):
        decompose(g, (), g.rule_by_name("E3"))


def _interleave(g, rule, comps):
    out = []
    it = iter(comps)
    for sym in rule.rhs:
        if isinstance(sym, Token):
            out.append(sym.id)
        else:
            out.extend(next(it))
    return tuple(out)


def test_oracle_agreement_on_generated_trees(g):
    corpus = sample_corpus(g, SampleBucket(4, 28, 1, 11, seed=9), 120)

    def check(node):
        rule = g.rule_by_id(node.rule_id)
        toks = pretty_print(g, node)
        comps = decompose(g, toks, rule)
        kids = rule.rhs_nonterminals()
        assert len(comps) == len(kids)
        assert _interleave(g, rule, comps) == toks
        for comp, child in zip(comps, node.children):
            assert comp == pretty_print(g, child)
        for child in node.children:
            check(child)

    for _, tree in corpus:
        check(tree)


def test_true_root_rule_always_decomposes(g):
    corpus = sample_corpus(g, SampleBucket(4, 28, 1, 11, seed=10), 120)
    for tokens, tree in corpus:
        decompose(g, tokens, g.rule_by_id(tree.rule_id))  # must not raise


def _fuzz_spans(g, n, seed):
    """Seeded token spans: the empty span, every single token, then uniform
    random spans, bracket-heavy (often unbalanced) spans, delimiter-heavy
    spans and spans built from a random rule's rhs with short random fills,
    which split far more often than random ones."""
    rng = np.random.default_rng(seed)
    vocab = len(g.vocabulary)
    brackets = [g.token(t).id for t in OPENERS + CLOSERS]
    delims = sorted({s.id for r in g.rules for s in r.rhs[1:] if isinstance(s, Token)})
    yield ()
    for tok in range(vocab):
        yield (tok,)
    for _ in range(n):
        kind = int(rng.integers(4))
        length = int(rng.integers(1, 16))
        if kind == 0:
            span = rng.integers(0, vocab, size=length)
        elif kind in (1, 2):
            biased = brackets if kind == 1 else delims
            pick = rng.random(length) < 0.6
            span = np.where(pick, rng.choice(biased, size=length),
                            rng.integers(0, vocab, size=length))
        else:
            rule = g.rules[int(rng.integers(len(g.rules)))]
            span = []
            for sym in rule.rhs:
                if isinstance(sym, Token):
                    span.append(sym.id)
                else:
                    fill = int(rng.integers(0, 4))
                    span.extend(rng.choice(brackets + delims + list(range(vocab)),
                                           size=fill))
        yield tuple(int(t) for t in span)


# sha256 of every (span, rule) outcome below: the components of a split, or
# "fail" for a DecompositionFailure. Any other exception fails the test.
PINNED_DECOMPOSE_SHA256 = "92a74fda347f1bd53bed2559edc39c555c980730b64278dbdd74976c58d8e8e1"


def test_decompose_fuzz_outcomes_are_pinned(g):
    h = hashlib.sha256()
    splits = 0
    for span in _fuzz_spans(g, 3000, seed=5):
        for rule in g.rules:
            try:
                out = decompose(g, span, rule)
            except DecompositionFailure:
                out = "fail"
            else:
                splits += 1
                assert _interleave(g, rule, out) == span
            h.update(f"{span} {rule.id} {out}\n".encode())
    assert splits > 500
    assert h.hexdigest() == PINNED_DECOMPOSE_SHA256


def test_lookahead_drops_only_rules_that_cannot_derive_the_span(g):
    """A rule the candidate index leaves out for a span either fails to
    decompose it or has a component its nonterminal does not derive."""
    dropped_splits = 0
    for span in _fuzz_spans(g, 3000, seed=5):
        if not span:
            continue
        for nt in g.nonterminals:
            kept = {r.id for r in g.candidates(nt, span[0], span[-1])}
            for rule in g.rules_for(nt):
                if rule.id in kept:
                    continue
                try:
                    comps = decompose(g, span, rule)
                except DecompositionFailure:
                    continue
                dropped_splits += 1
                rejected = 0
                for comp, knt in zip(comps, rule.rhs_nonterminals()):
                    try:
                        reference_parse(g, comp, knt)
                    except ParseError:
                        rejected += 1
                assert rejected, (span, rule.name)
    assert dropped_splits > 1000


def test_unknown_token_ids_split_or_fail_typed(g):
    """decompose only compares ids, so a span with ids outside the
    vocabulary splits like any other span or raises DecompositionFailure."""
    program = g.encode("if v0 < ( 1 + v2 ) then v1 = 2 ; else v1 = 3 ; endif ;")
    splits = 0
    for bad in (-1, len(g.vocabulary), 999):
        spans = [(bad,), (bad, bad)]
        spans += [program[:i] + (bad,) + program[i:] for i in range(len(program) + 1)]
        spans += [program[:i] + (bad,) + program[i + 1:] for i in range(len(program))]
        for span in spans:
            for rule in g.rules:
                try:
                    out = decompose(g, span, rule)
                except DecompositionFailure:
                    continue
                splits += 1
                assert _interleave(g, rule, out) == span
    assert splits > 0
