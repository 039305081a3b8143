import gc
import hashlib
import itertools
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import enumerated_trees
from ngparse import sampler
from ngparse.grammar import build_grammar
from ngparse.parser import reference_parse
from ngparse.sampler import (
    SampleBucket,
    UnsatisfiableBucket,
    curriculum_schedule,
    derive_seed,
    extract_training_pairs,
    feasible_cells,
    sample_corpus,
    sample_program,
    write_corpus,
    write_pairs,
)
from ngparse.tree import Ast, TreeError, depth, deserialize, node_count, pretty_print, serialize


def test_minimal_bucket_yields_assignments(g):
    bucket = SampleBucket(4, 4, 6, 6, seed=1)
    for _ in range(3):
        tokens, tree = sample_program(g, bucket)
        words = g.decode(tokens).split()
        assert len(words) == 4
        assert words[0].startswith("v") and words[1] == "=" and words[3] == ";"
        assert words[2].isdigit()
        assert depth(tree) == 6


def test_bounds_hold_over_many_draws(g):
    bucket = SampleBucket(5, 15, 1, 9, seed=2)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        tokens, tree = sample_program(g, bucket, rng)
        assert 5 <= len(tokens) <= 15
        assert depth(tree) <= 9


def test_determinism_same_seed(g):
    bucket = SampleBucket(5, 15, 1, 9, seed=42)
    assert sample_program(g, bucket) == sample_program(g, bucket)
    assert sample_corpus(g, bucket, 20) == sample_corpus(g, bucket, 20)


def test_generated_pairs_agree_with_parser(g):
    for tokens, tree in sample_corpus(g, SampleBucket(4, 25, 1, 11, seed=3), 200):
        assert reference_parse(g, tokens) == tree


def test_unsatisfiable_bucket(g):
    with pytest.raises(UnsatisfiableBucket):
        sample_program(g, SampleBucket(5, 5, 1, 9, seed=0))  # no length-5 programs
    with pytest.raises(UnsatisfiableBucket):
        sample_program(g, SampleBucket(10, 15, 1, 6, seed=0))  # depth 6 is length 4 only


def test_bucket_validation():
    with pytest.raises(ValueError):
        SampleBucket(3, 10, 1, 9)  # below minimum derivable length
    with pytest.raises(ValueError):
        SampleBucket(10, 5, 1, 9)
    with pytest.raises(ValueError):
        SampleBucket(5, 10, 5, 2)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SampleBucket(5, 10, 1, 9, seed=-1)
    for args, field in [((5.5, 8, 1, 9), "min_length"), ((5, "8", 1, 9), "max_length"),
                        ((5, 8, True, 9), "min_depth"), ((5, 8, 1, 9.0), "max_depth"),
                        ((5, 8, 1, 9, 1.5), "seed")]:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SampleBucket(*args)
    assert SampleBucket(*map(np.int64, (5, 8, 1, 9, 2))).max_depth == 9


def test_sample_corpus_rejects_a_non_generator_rng(g):
    bucket = SampleBucket(5, 10, 1, 9)
    legacy = np.random.RandomState(0)
    for rng in (legacy, 0):
        with pytest.raises(TypeError, match="rng must be a numpy.random.Generator"):
            sample_corpus(g, bucket, 3, rng)
    assert legacy.randint(1 << 30) == np.random.RandomState(0).randint(1 << 30)


def test_sample_corpus_rejects_bad_counts(g):
    bucket = SampleBucket(5, 10, 1, 9)
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        sample_corpus(g, bucket, 2.5)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        sample_corpus(g, bucket, -1)
    assert sample_corpus(g, bucket, np.int64(0)) == []


def test_exact_cell_sampling(g):
    bucket = SampleBucket(15, 15, 11, 11, seed=7)
    for tokens, tree in sample_corpus(g, bucket, 25):
        assert len(tokens) == 15
        assert depth(tree) == 11


def test_feasible_cells_match_sampling(g):
    cells = feasible_cells(g, SampleBucket(4, 12, 1, 9, seed=0))
    assert (6, 4) in cells
    assert all(d >= 6 for d, _ in cells)  # programs can't be shallower


def test_extract_pairs_assignment(g):
    tree = reference_parse(g, g.encode("v0 = 1 ;"))
    pairs = extract_training_pairs(g, tree)
    assert len(pairs) == node_count(tree) == 7
    as_text = {(g.decode(p.tokens), p.nt.name, g.rule_by_id(p.rule_id).name) for p in pairs}
    assert ("v0 = 1 ;", "Stmt", "S2") in as_text
    assert ("1", "Const", "C2") in as_text


def test_extract_pairs_leaf(g):
    from ngparse.tree import Ast

    pairs = extract_training_pairs(g, Ast(g.rule_by_name("V1").id))
    assert len(pairs) == 1
    assert g.decode(pairs[0].tokens) == "v0"
    assert pairs[0].nt.name == "Var"


@pytest.mark.parametrize(
    "tree,match",
    [(("S1",), "S1: expected 2 children, got 0"),
     (("V1", ("V1",)), "V1: expected 0 children, got 1"),
     (("S2", ("V1",)), "S2: child rule V1 has lhs Var, expected SimpStmt")],
    ids=["missing-children", "extra-child", "wrong-child-lhs"],
)
def test_extract_pairs_rejects_malformed_trees(g, tree, match):
    def build(name, *kids):
        return Ast(g.rule_by_name(name).id, tuple(build(*k) for k in kids))

    with pytest.raises(TreeError, match=f"^{match}$"):
        extract_training_pairs(g, build(*tree))


def test_pairs_label_consistent_and_yield_correct(g):
    for tokens, tree in sample_corpus(g, SampleBucket(4, 20, 1, 10, seed=4), 50):
        pairs = extract_training_pairs(g, tree)
        assert len(pairs) == node_count(tree)
        assert pairs[0].tokens == tokens
        for p in pairs:
            assert g.rule_by_id(p.rule_id).lhs == p.nt
        assert [(p.tokens, p.nt, p.rule_id) for p in pairs] == _node_pairs(g, tree)
    for _, tree in sample_corpus(g, SampleBucket(30, 30, 11, 11, seed=4), 50):
        pairs = extract_training_pairs(g, tree)
        assert [(p.tokens, p.nt, p.rule_id) for p in pairs] == _node_pairs(g, tree)


def _node_pairs(g, t):
    """(yield, lhs, rule id) of every node of t, in preorder, each yield
    from pretty_print on that node's own subtree."""
    rule = g.rule_by_id(t.rule_id)
    out = [(pretty_print(g, t), rule.lhs, rule.id)]
    for c in t.children:
        out.extend(_node_pairs(g, c))
    return out


@pytest.mark.parametrize("walk", [pretty_print, serialize, extract_training_pairs])
def test_malformed_tree_fault_is_the_first_the_walk_meets(g, walk):
    # S1's second child V1 is wrong and comes first in preorder, but the
    # walk checks a child's lhs only just before descending into it, so it
    # meets A1's wrong first child C1 first.
    def build(name, *kids):
        return Ast(g.rule_by_name(name).id, tuple(build(*k) for k in kids))

    t = build("S1", ("A1", ("C1",), ("E3", ("T2", ("F3", ("C2",))))), ("V1",))
    with pytest.raises(TreeError, match="^A1: child rule C1 has lhs Const, expected Var$"):
        walk(g, t)


def test_curriculum_stage_lengths(g):
    sched = curriculum_schedule(4, base_seed=0)
    assert len(sched) == 12
    assert [b.max_length for b in sched] == [7, 10, 12, 15] * 3
    maxima = [b.max_depth for b in sched[:4]]
    assert maxima == sorted(maxima) and maxima[-1] == 9
    for b in sched:
        assert b.max_length <= 15 and b.max_depth <= 9
        assert b.min_length == 5
        sample_program(g, b)  # every stage bucket must be satisfiable


def test_curriculum_degenerate(g):
    sched = curriculum_schedule(1, base_seed=0)
    assert len(sched) == 3
    for b in sched:
        assert (b.min_length, b.max_length, b.min_depth, b.max_depth) == (5, 15, 1, 9)


def test_curriculum_rejects_bad_counts():
    for kwargs, match in [({"stages": 0}, "stages must be >= 1, got 0"),
                          ({"stages": 1.5}, "stages must be an integer"),
                          ({"stages": 2, "repeats": 0}, "repeats must be >= 1, got 0"),
                          ({"stages": 2, "repeats": -1}, "repeats must be >= 1, got -1"),
                          ({"stages": 2, "repeats": 2.5}, "repeats must be an integer")]:
        with pytest.raises(ValueError, match=match):
            curriculum_schedule(**kwargs)


def test_curriculum_seeds_distinct():
    sched = curriculum_schedule(4, base_seed=0)
    assert len({b.seed for b in sched}) == len(sched)


def test_seed_namespaces_disjoint():
    train = {derive_seed("train", 0, r, i) for r in range(3) for i in range(8)}
    eval_ = {derive_seed("eval", 0, d, l) for d in range(6, 12) for l in range(15, 31)}
    assert not train & eval_


def test_corpus_file_roundtrip(g, tmp_path):
    corpus = sample_corpus(g, SampleBucket(5, 15, 1, 9, seed=11), 30)
    corpus.append((g.encode("v0 = 1 ;"), deserialize(g, "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))")))
    path = tmp_path / "corpus.tsv"
    write_corpus(g, corpus, path)
    lines = path.read_text().split("\n")
    assert lines.pop() == "" and len(lines) == 31
    assert lines[-1] == "v0 = 1 ;\t(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"
    for line, (tokens, t) in zip(lines, corpus):
        assert line == f"{g.decode(tokens)}\t{serialize(g, t)}"
        program, text = line.split("\t")
        assert (g.encode(program), deserialize(g, text)) == (tokens, t)


def test_pairs_file_lines_are_exact(g, tmp_path):
    t = deserialize(g, "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))")
    path = tmp_path / "pairs.tsv"
    write_pairs(g, extract_training_pairs(g, t), path)
    assert path.read_text().splitlines() == [
        "v0 = 1 ;\tStmt\t1",
        "v0 = 1\tSimpStmt\t2",
        "v0\tVar\t17",
        "1\tAExpr\t7",
        "1\tATerm\t9",
        "1\tAFactor\t12",
        "1\tConst\t23",
    ]


def test_each_grammar_has_its_own_count_table():
    g1, g2 = build_grammar(), build_grammar()
    bucket = SampleBucket(5, 15, 1, 9, seed=17)
    assert sample_corpus(g1, bucket, 20) == sample_corpus(g2, bucket, 20)
    tab = sampler._table(g1, 9, 15)
    assert tab is not sampler._table(g2, 9, 15)
    freed = weakref.ref(tab)
    del g1, tab
    gc.collect()
    assert freed() is None


def test_count_table_grows_past_its_caps():
    g = build_grammar()
    tab = sampler._table(g, 9, 15)
    grown = sampler._table(g, 8, 20)
    assert grown is not tab and (grown.max_depth, grown.max_length) == (9, 20)
    assert sampler._table(g, 9, 15) is grown


def _corpus_text(g, buckets) -> str:
    return "".join(
        f"{g.decode(tokens)}\t{serialize(g, t)}\n"
        for b in buckets
        for tokens, t in sample_corpus(g, b, 20)
    )


def test_a_grown_count_table_draws_the_same_corpus():
    buckets = PINNED_BUCKETS + tuple(curriculum_schedule(4, base_seed=3, repeats=1))
    fresh, grown = build_grammar(), build_grammar()
    sampler._table(grown, 16, 45)
    assert _corpus_text(fresh, buckets) == _corpus_text(grown, buckets)


def _enumerated_counts(g, max_depth, max_length):
    """Per nonterminal id, the number of trees of depth <= max_depth and
    yield length <= max_length in each (depth, length) cell."""
    counts = {}
    for nt_id, summaries in enumerated_trees(g, max_depth, max_length).items():
        counts[nt_id] = Counter()
        for (d, l, _, _), n in summaries.items():
            counts[nt_id][(d, l)] += n
    return counts


def test_count_table_matches_tree_enumeration(g):
    max_depth, max_length = 7, 5
    tab = sampler._table(g, max_depth, max_length)
    enumerated = _enumerated_counts(g, max_depth, max_length)
    assert sum(sum(c.values()) for c in enumerated.values()) > 1000
    for nt in g.nonterminals:
        cells = enumerated[nt.id]
        for d in range(1, max_depth + 1):
            for l in range(max_length + 1):
                exact = cells[(d, l)]
                leq = sum(cells[(dd, l)] for dd in range(1, d + 1))
                assert tab.exact(nt.id, d, l) == exact, (nt.name, d, l)
                assert tab.leq[nt.id][d][l] == leq, (nt.name, d, l)
                if exact:
                    assert tab.rule_pick(nt.id, d, l, True)[-1] == exact, (nt.name, d, l)
                if leq:
                    assert tab.rule_pick(nt.id, d, l, False)[-1] == leq, (nt.name, d, l)


# sha256 of the draws below as the sampler made them before its "<= d" and
# "exactly d" recursions became one: the same rng calls with the same
# weights give the same bytes. The buckets are the perfbench parse
# workloads', a curriculum stage's and one reaching down to depth 1.
PINNED_BUCKETS = (
    SampleBucket(30, 30, 11, 11),
    SampleBucket(8, 15, 1, 9),
    SampleBucket(8, 16, 1, 12),
    curriculum_schedule(4, base_seed=0)[1],
    SampleBucket(4, 8, 1, 7),
)
PINNED_CORPUS_SHA256 = "999b5adc5b0997bfd9c2711f8103a94b9dd2339b466db65011ee8a82f455c252"
# Draws from every nonterminal at depth 1 and 2, "exactly d" and "<= d".
PINNED_EDGE_SHA256 = "0a39d6b2b98a68c6a9bccb3b8dec655313760d60e14b2e125debca6755a4207a"


def test_draws_are_pinned(g):
    h = hashlib.sha256()
    for b in PINNED_BUCKETS:
        h.update(repr(feasible_cells(g, b)).encode())
        for seed in range(3):
            for tokens, t in sample_corpus(g, b, 20, np.random.default_rng(seed)):
                h.update(f"{g.decode(tokens)}\t{serialize(g, t)}\n".encode())
    assert h.hexdigest() == PINNED_CORPUS_SHA256

    tab = sampler._table(g, 8, 16)
    words = sampler._words(np.random.default_rng(5))
    h = hashlib.sha256()
    for nt in g.nonterminals:
        for d in (1, 2):
            for l in range(17):
                for exact in (True, False):
                    if not (tab.exact(nt.id, d, l) if exact else tab.leq[nt.id][d][l]):
                        continue
                    for _ in range(3):
                        t = sampler._sample(tab, words, nt.id, d, l, exact, [])
                        h.update(f"{nt.name} {d} {l} {exact} {serialize(g, t)}\n".encode())
    assert h.hexdigest() == PINNED_EDGE_SHA256


@pytest.mark.parametrize(
    "bucket", PINNED_BUCKETS,
    ids=lambda b: f"{b.min_length}:{b.max_length}:{b.min_depth}:{b.max_depth}",
)
def test_sample_program_is_the_first_of_a_corpus(g, bucket):
    assert sample_program(g, bucket) == sample_corpus(g, bucket, 1)[0]


def _assert_drawn_pair(g, tokens, t):
    """tokens is t's yield (so t also passes the checked walk) and every
    leaf of t is the grammar's own."""
    assert type(tokens) is tuple and pretty_print(g, t) == tokens
    stack = [t]
    while stack:
        node = stack.pop()
        if not node.children:
            assert node is g.leaves[node.rule_id]
        stack.extend(node.children)


@pytest.mark.parametrize(
    "bucket", PINNED_BUCKETS,
    ids=lambda b: f"{b.min_length}:{b.max_length}:{b.min_depth}:{b.max_depth}",
)
def test_drawn_tokens_are_the_yield_and_leaves_are_shared(bucket):
    g = build_grammar()
    drawn = sample_corpus(g, bucket, 40)
    for tokens, t in drawn:
        _assert_drawn_pair(g, tokens, t)
    sampler._table(g, 16, 45)  # the count table grows
    again = sample_corpus(g, bucket, 40)
    assert again == drawn
    for tokens, t in again:
        _assert_drawn_pair(g, tokens, t)


def test_depth_at_most_draws_emit_the_yield(g):
    tab = sampler._table(g, 9, 15)
    words = sampler._words(np.random.default_rng(8))
    try:
        for nt in g.nonterminals:
            for l in range(16):
                for _ in range(3 if tab.leq[nt.id][9][l] else 0):
                    out = []
                    t = sampler._sample(tab, words, nt.id, 9, l, False, out)
                    assert len(out) == l and depth(t) <= 9
                    _assert_drawn_pair(g, tuple(out), t)
    finally:
        words.close()


# sha256 of the draws and of the generator's state after them, as the
# sampler made them when it drew one 32-bit word per rng call: the sampler
# must leave the caller's generator exactly where those calls did (train()
# draws its batches from it next). Each generator starts one 32-bit word
# into its stream, half way through a 64-bit output for PCG64 and SFC64.
PINNED_RNG_STATE_SHA256 = "18eb9bd0d4ea674898aba74c3a3334d1217281a8a299421e1fe2d2a6131aecfa"


def test_generator_state_after_sampling_is_pinned(g):
    h = hashlib.sha256()
    for bitgen in (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64):
        for n in (0, 1, 7, 300):
            rng = np.random.Generator(bitgen(n + 11))
            rng.integers(0, 1 << 32, dtype=np.uint64)
            for tokens, t in sample_corpus(g, SampleBucket(8, 30, 1, 11), n, rng):
                h.update(f"{g.decode(tokens)}\t{serialize(g, t)}\n".encode())
            h.update(repr(rng.bit_generator.state).encode())
            h.update(repr(rng.integers(0, 1 << 62, size=3).tolist()).encode())
    assert h.hexdigest() == PINNED_RNG_STATE_SHA256


def test_a_failed_draw_leaves_the_generator_after_the_words_it_used(g, monkeypatch):
    sample, make_words, calls, served, used = sampler._sample, sampler._words, [], [], []

    def counted_words(rng):
        inner = make_words(rng)
        try:
            for w in inner:
                served.append(w)
                yield w
        finally:
            inner.close()

    def tenth_node_fails(tab, words, *args):
        calls.append(args)
        if len(calls) == 10:
            used.append(len(served))
            raise RuntimeError("draw failed")
        return sample(tab, words, *args)

    monkeypatch.setattr(sampler, "_words", counted_words)
    monkeypatch.setattr(sampler, "_sample", tenth_node_fails)
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(RuntimeError, match="draw failed"):
        sample_corpus(g, SampleBucket(8, 30, 1, 11), 5, rng)
    [count] = used
    assert count > 2
    twin.integers(0, 1 << 32, size=count, dtype=np.uint64)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_sample_corpus_closes_its_word_generator(g, monkeypatch):
    """The word generator's finally moves the rng back, so one left open
    would move it whenever it is collected: sample_corpus closes it after
    a normal return and after a draw that raises."""
    rng = np.random.default_rng(4)
    sample_corpus(g, SampleBucket(8, 30, 1, 11), 5, rng)
    state = rng.bit_generator.state
    gc.collect()
    assert rng.bit_generator.state == state

    def fails(*args):
        raise RuntimeError("draw failed")

    monkeypatch.setattr(sampler, "_sample", fails)
    with pytest.raises(RuntimeError, match="draw failed") as failed:
        sample_corpus(g, SampleBucket(8, 30, 1, 11), 5, rng)
    state = rng.bit_generator.state  # the traceback keeps the call's frame
    del failed
    gc.collect()
    assert rng.bit_generator.state == state


def _scan_pick(x: int, weights) -> int:
    """The pick before cumulative weights: scan for the weight x falls in."""
    for i, w in enumerate(weights):
        if x < w:
            return i
        x -= w
    raise AssertionError("x is not below the total")


def test_bisect_pick_matches_the_linear_scan():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weight = st.one_of(st.just(0), st.integers(1, 5), st.integers(0, 1 << 80))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(weight, min_size=1, max_size=8), st.data())
    def check(weights, data):
        total = sum(weights)
        hypothesis.assume(total > 0)
        x = data.draw(st.integers(0, total - 1))
        # The 32-bit words of x, most significant first, make
        # _rand_below(total) return x.
        count = (total.bit_length() + 31) // 32
        words = iter([(x >> (32 * i)) & 0xFFFFFFFF for i in reversed(range(count))])
        cum = list(itertools.accumulate(weights))
        assert sampler._weighted_pick(words, cum) == _scan_pick(x, weights)

    check()
