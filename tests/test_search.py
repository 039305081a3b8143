import hashlib
import statistics
from collections import Counter

import numpy as np
import pytest

from conftest import enumerated_trees, stack_room
from ngparse.grammar import Grammar, Nonterminal, ProductionRule, Token, build_grammar
from ngparse.parser import reference_parse
from ngparse.sampler import SampleBucket, sample_corpus
from ngparse import tree as tree_module
from ngparse.search import SearchConfig, iddfs_parse
from ngparse.tree import Ast, pretty_print, serialize


def test_finds_assignment_at_its_depth(g):
    res = iddfs_parse(g, g.encode("v0 = 1 ;"))
    assert res.status == "found"
    assert res.depth_limit == 6
    assert serialize(g, res.tree) == "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"


def test_agrees_with_reference_parser(g):
    cfg = SearchConfig(max_depth=16, time_limit_s=30)
    for tokens, truth in sample_corpus(g, SampleBucket(4, 14, 1, 11, seed=31), 40):
        res = iddfs_parse(g, tokens, cfg)
        assert res.status == "found"
        assert res.tree == truth
        assert res.tree == reference_parse(g, tokens)
        assert pretty_print(g, res.tree) == tokens


def test_exhausted_on_unparseable(g):
    res = iddfs_parse(g, g.encode("v0 v0 ;"), SearchConfig(max_depth=10, time_limit_s=10))
    assert res.status == "exhausted"
    assert res.tree is None


def test_timeout_is_a_result(g):
    long_program, _ = sample_corpus(g, SampleBucket(26, 30, 1, 13, seed=32), 1)[0]
    res = iddfs_parse(g, long_program, SearchConfig(max_depth=30, time_limit_s=1e-4))
    assert res.status == "timeout"
    assert res.tree is None


def test_python_stack_running_out_is_a_depth_limit_result(g):
    # 80 statements need depth 85; 100 frames of stack run out near 33.
    tokens = g.encode(" ".join(["v0 = 1 ;"] * 80))
    with stack_room(100):
        res = iddfs_parse(g, tokens, SearchConfig(max_depth=2000, time_limit_s=60))
        short = iddfs_parse(g, tokens[:20], SearchConfig(max_depth=2000, time_limit_s=60))
    assert res.status == "depth_limit" and res.tree is None
    assert 10 < res.depth_limit < 85 and res.nodes_expanded > 0
    assert short.status == "found" and pretty_print(g, short.tree) == tokens[:20]


def test_empty_input_rejected(g):
    with pytest.raises(ValueError):
        iddfs_parse(g, ())


@pytest.mark.parametrize("bad", [-1, 33, "v0", 18.0, True])
def test_token_ids_outside_the_vocabulary_rejected(g, bad):
    # 18.0 equals the id of "v0", so a search comparing it would find "v0 = v0 ;"
    tokens = g.encode("v0 = 1 ;")
    with pytest.raises(ValueError, match=f"token id {bad} at position 2 "):
        iddfs_parse(g, tokens[:2] + (bad,) + tokens[3:])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_depth": 0},
        {"max_depth": -5},
        {"max_depth": 2.5},
        {"max_depth": True},
        {"max_depth": "24"},
        {"time_limit_s": 0},
        {"time_limit_s": -1},
        {"time_limit_s": "5"},
        {"time_limit_s": True},
    ],
    ids=[
        "zero-depth",
        "negative-depth",
        "float-depth",
        "bool-depth",
        "str-depth",
        "zero-time-limit",
        "negative-time-limit",
        "str-time-limit",
        "bool-time-limit",
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SearchConfig(**kwargs)


def test_config_takes_a_numpy_integer_depth(g):
    res = iddfs_parse(g, g.encode("v0 = 1 ;"), SearchConfig(max_depth=np.int64(24)))
    assert res.status == "found"


def test_median_time_superlinear(g):
    cfg = SearchConfig(max_depth=20, time_limit_s=60)
    medians, expanded = {}, {}
    for length in (8, 16):
        times, nodes = [], []
        for tokens, _ in sample_corpus(g, SampleBucket(length, length, 1, 14, seed=33), 12):
            # the best of three runs, so a host slowdown during one run
            # does not set the program's time
            runs = [iddfs_parse(g, tokens, cfg) for _ in range(3)]
            assert all(res.status == "found" for res in runs)
            times.append(min(res.elapsed_s for res in runs))
            nodes.append(runs[0].nodes_expanded)
        medians[length] = statistics.median(times)
        expanded[length] = statistics.median(nodes)
    # The work behind the times, which does not move with the host: the
    # median nodes expanded read 926 at length 16 against 118.5 at 8 (7.8x).
    assert expanded[16] >= 7 * expanded[8]
    assert medians[16] >= 4 * medians[8]


# sha256 over each input's serialized tree, status, final depth limit and
# nodes expanded: 60 seeded programs and one input the search exhausts.
PINNED_SEARCH_SHA256 = "2fcbdc75614429d0b90df86ef85e18e3bd716dc961231271418327b847737e9a"


def test_search_outcomes_are_pinned(g):
    cfg = SearchConfig(max_depth=16, time_limit_s=600)
    inputs = [t for t, _ in sample_corpus(g, SampleBucket(4, 14, 1, 11, seed=34), 60)]
    inputs.append(g.encode("v0 v0 ;"))
    h = hashlib.sha256()
    statuses = []
    for tokens in inputs:
        res = iddfs_parse(g, tokens, cfg)
        tree = serialize(g, res.tree) if res.tree is not None else None
        statuses.append(res.status)
        h.update(f"{tokens} {tree} {res.status} {res.depth_limit} {res.nodes_expanded}\n".encode())
    assert statuses == ["found"] * 60 + ["exhausted"]
    assert h.hexdigest() == PINNED_SEARCH_SHA256


def _small_grammar():
    """S -> A b S | a b | A;  A -> a | c A | B B;  B -> b. S2 is a
    two-token all-terminal rhs, S1 and S3 start with a nonterminal."""
    S, A, B = Nonterminal(0, "S"), Nonterminal(1, "A"), Nonterminal(2, "B")
    a, b, c = Token(0, "a"), Token(1, "b"), Token(2, "c")
    table = [
        ("S1", S, (A, b, S)),
        ("S2", S, (a, b)),
        ("S3", S, (A,)),
        ("A1", A, (a,)),
        ("A2", A, (c, A)),
        ("A3", A, (B, B)),
        ("B1", B, (b,)),
    ]
    rules = [ProductionRule(i, name, lhs, rhs) for i, (name, lhs, rhs) in enumerate(table)]
    return Grammar((S, A, B), (a, b, c), rules, S)


def test_search_plans_inline_only_one_terminal_rules():
    g = _small_grammar()
    a, b, c = 0, 1, 2
    S, A, B = 0, 1, 2
    assert g.search_plans == (
        (
            (0, 3, ((None, A, 2), (b, None, 1), (None, S, 0)), None),
            (1, 2, ((a, None, 1), (b, None, 0)), None),
            (2, 1, ((None, A, 0),), None),
        ),
        (
            (3, 1, ((a, None, 0),), Ast(3, ())),
            (4, 2, ((c, None, 1), (None, A, 0)), None),
            (5, 2, ((None, B, 1), (None, B, 0)), None),
        ),
        ((6, 1, ((b, None, 0),), Ast(6, ())),),
    )


# (input, tree, status, final depth limit, nodes expanded) for the small
# grammar, as the search gave them before it read Grammar.search_plans.
SMALL_GRAMMAR_OUTCOMES = [
    ("a", "(S3 (A1))", "found", 2, 3),
    ("a b", "(S2)", "found", 1, 1),
    ("b b", "(S3 (A3 (B1) (B1)))", "found", 3, 7),
    ("a b a b", "(S1 (A1) (S2))", "found", 2, 4),
    ("c c a b b b", "(S1 (A2 (A2 (A1))) (S3 (A3 (B1) (B1))))", "found", 4, 19),
    ("b b b a b", "(S1 (A3 (B1) (B1)) (S2))", "found", 3, 9),
    ("a a", None, "exhausted", 8, 21),
    ("c", None, "exhausted", 8, 15),
    ("b", None, "exhausted", 8, 15),
]


def test_small_grammar_outcomes_are_pinned():
    g = _small_grammar()
    cfg = SearchConfig(max_depth=8, time_limit_s=60)
    got = []
    for text, *_ in SMALL_GRAMMAR_OUTCOMES:
        res = iddfs_parse(g, g.encode(text), cfg)
        tree = serialize(g, res.tree) if res.tree is not None else None
        got.append((text, tree, res.status, res.depth_limit, res.nodes_expanded))
    assert got == SMALL_GRAMMAR_OUTCOMES


def _nodes(t):
    yield t
    for c in t.children:
        yield from _nodes(c)


def _shared_corpus_trees(g):
    cfg = SearchConfig(max_depth=16, time_limit_s=600)
    corpus = sample_corpus(g, SampleBucket(4, 14, 1, 11, seed=34), 60)
    trees = [iddfs_parse(g, tokens, cfg).tree for tokens, _ in corpus]
    for tree, (tokens, truth) in zip(trees, corpus):
        assert tree == truth
        assert serialize(g, tree) == serialize(g, truth)
        assert pretty_print(g, tree) == tokens
    return trees


def test_results_share_small_subtrees():
    g = build_grammar()  # a fresh grammar: its table holds these results only
    trees = _shared_corpus_trees(g)
    small = tree_module._SHARE_MAX_YIELD
    first = {}  # small subtree -> the first object seen with its value
    holders = {}  # small subtree -> indices of the results it occurs in
    for i, tree in enumerate(trees):
        for node in _nodes(tree):
            if len(pretty_print(g, node)) <= small:
                assert first.setdefault(node, node) is node
                holders.setdefault(node, set()).add(i)
    assert any(len(found_in) > 1 for found_in in holders.values())

    nodes = [node for tree in trees for node in _nodes(tree)]
    distinct = {id(node): node for node in nodes}
    for key, uses in Counter(map(id, nodes)).items():
        if uses > 1:
            assert len(pretty_print(g, distinct[key])) <= small
    assert len(distinct) <= len(nodes) // 2

    trees_of_small_yield = enumerated_trees(g, 16, small)
    assert sum(n for counts in trees_of_small_yield.values() for n in counts.values()) == 1530
    assert 0 < len(g.small_trees) <= 1530
    assert all(len(pretty_print(g, t)) <= small for t in g.small_trees.values())


def test_a_full_share_table_keeps_its_size(monkeypatch):
    g = build_grammar()
    monkeypatch.setattr(tree_module, "_SHARE_MAX_ENTRIES", 5)
    _shared_corpus_trees(g)
    assert len(g.small_trees) == 5


def test_shared_subtrees_do_not_grow_with_the_shortest_program():
    """S -> P P P P P; P -> A A A A; A -> a | b: the shortest program has
    20 tokens, yet only the two one-token leaves are shared, as g.leaves,
    and the table keeps none of the 16 four-token P trees."""
    S, P, A = Nonterminal(0, "S"), Nonterminal(1, "P"), Nonterminal(2, "A")
    a, b = Token(0, "a"), Token(1, "b")
    table = [("S1", S, (P,) * 5), ("P1", P, (A,) * 4), ("A1", A, (a,)), ("A2", A, (b,))]
    rules = [ProductionRule(i, name, lhs, rhs) for i, (name, lhs, rhs) in enumerate(table)]
    g = Grammar((S, P, A), (a, b), rules, S)
    assert g.min_lengths[S.id] == 20
    cfg = SearchConfig(max_depth=3, time_limit_s=60)
    for k in range(16):
        tokens = tuple((k >> j) & 1 for j in range(4)) * 5
        res = iddfs_parse(g, tokens, cfg)
        assert res.status == "found" and pretty_print(g, res.tree) == tokens
        for node in _nodes(res.tree):
            if not node.children:
                assert node is g.leaves[node.rule_id]
    assert g.leaves == (None, None, Ast(2, ()), Ast(3, ()))
    assert g.small_trees == {}
