import numpy as np
import pytest

from ngparse.parser import reference_parse
from ngparse.sampler import SampleBucket, extract_training_pairs, sample_corpus
from ngparse.tree import (
    Ast,
    TreeError,
    depth,
    deserialize,
    node_count,
    pretty_print,
    serialize,
    validate_tree,
)


def _tree(g, text):
    return deserialize(g, text)


def test_pretty_print_assignment(g):
    t = _tree(g, "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))")
    assert g.decode(pretty_print(g, t)) == "v0 = 1 ;"


def test_pretty_print_leaf(g):
    t = Ast(g.rule_by_name("V1").id)
    assert g.decode(pretty_print(g, t)) == "v0"


def test_pretty_print_rejects_wrong_child(g):
    bad = Ast(g.rule_by_name("S2").id, (Ast(g.rule_by_name("V1").id),))
    with pytest.raises(TreeError):
        pretty_print(g, bad)


def test_depth_examples(g):
    assert depth(Ast(g.rule_by_name("V1").id)) == 1
    t = _tree(g, "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))")
    assert depth(t) == 6
    assert node_count(t) == 7


def test_depth_recurrence(g):
    two = _tree(
        g,
        "(S1 (A1 (V1) (E3 (T2 (F3 (C2))))) (S2 (A1 (V2) (E3 (T2 (F3 (C3)))))))",
    )
    assert depth(two) == 1 + max(depth(c) for c in two.children)


def test_ast_equal(g):
    a = _tree(g, "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))")
    assert a == a
    b = _tree(g, "(S2 (A1 (V1) (E3 (T2 (F3 (C3))))))")
    assert a != b
    s1 = _tree(
        g,
        "(S1 (A1 (V1) (E3 (T2 (F3 (C2))))) (S2 (A1 (V1) (E3 (T2 (F3 (C2)))))))",
    )
    assert a != s1


def test_serialize_roundtrip(g):
    t = _tree(g, "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))")
    assert deserialize(g, serialize(g, t)) == t


def test_deserialize_leaf(g):
    assert deserialize(g, "(V1)") == Ast(g.rule_by_name("V1").id)


def test_deserialize_rejects_invariant_violation(g):
    with pytest.raises(TreeError):
        deserialize(g, "(S2 (V1))")


@pytest.mark.parametrize(
    "text", ["", "(", "(S2", "(Z9)", "(S2 (A1 (V1) (E3 (T2 (F3 (C2)))))) junk"]
)
def test_deserialize_rejects_garbage(g, text):
    with pytest.raises(TreeError):
        deserialize(g, text)


def test_random_roundtrips_and_monotonicity(g):
    corpus = sample_corpus(g, SampleBucket(4, 30, 1, 11, seed=77), 150)
    for tokens, t in corpus:
        assert deserialize(g, serialize(g, t)) == t
        assert reference_parse(g, pretty_print(g, t)) == t
        d, n = depth(t), len(pretty_print(g, t))
        for child in t.children:
            assert depth(child) < d
            assert len(pretty_print(g, child)) <= n


def _mutants(g, n, seed):
    """Seeded mutations of serialized trees: each applies one to three
    edits (delete, insert or replace a character, truncate, or splice in a
    slice of another tree's text) to a sampled tree's text."""
    rng = np.random.default_rng(seed)
    texts = [serialize(g, t) for _, t in
             sample_corpus(g, SampleBucket(4, 30, 1, 11, seed=seed), 60)]
    alphabet = list("() \t\nSAIWETFBVC0123456789x") + ["é", "\x00"]
    for _ in range(n):
        text = list(texts[int(rng.integers(len(texts)))])
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(len(text) + 1))
            kind = int(rng.integers(5))
            if kind == 0 and i < len(text):
                del text[i]
            elif kind == 1:
                text.insert(i, alphabet[int(rng.integers(len(alphabet)))])
            elif kind == 2 and i < len(text):
                text[i] = alphabet[int(rng.integers(len(alphabet)))]
            elif kind == 3:
                del text[i:]
            else:
                donor = texts[int(rng.integers(len(texts)))]
                a, b = sorted(int(x) for x in rng.integers(len(donor) + 1, size=2))
                text[i:i] = donor[a:b]
        yield "".join(text)


def test_deserialize_fuzz_gives_trees_or_tree_errors(g):
    """Mutated tree texts and one 5,000-deep nesting: every outcome is a
    valid tree (which serializes back to itself) or a TreeError; any other
    exception fails the test."""
    parsed = 0
    for text in _mutants(g, 3000, seed=21):
        try:
            t = deserialize(g, text)
        except TreeError:
            continue
        parsed += 1
        assert deserialize(g, serialize(g, t)) == t
    assert 0 < parsed < 3000
    leaf = "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))"
    with pytest.raises(TreeError):
        deserialize(g, "(S1 (A1 (V1) (E3 (T2 (F3 (C2))))) " * 5000 + leaf + ")" * 5000)


def _s1_chain(g, n):
    """A valid tree of n S1 nodes over one assignment, built in a loop."""
    t = deserialize(g, "(S2 (A1 (V1) (E3 (T2 (F3 (C2))))))")
    for _ in range(n):
        t = Ast(g.rule_by_name("S1").id, (t.children[0], t))
    return t


def test_tree_too_deep_for_the_stack_raises_tree_error(g):
    t = _s1_chain(g, 2000)
    for walk in (pretty_print, validate_tree, serialize, extract_training_pairs):
        with pytest.raises(TreeError, match="^tree too deep to walk"):
            walk(g, t)


def test_deep_tree_that_validates_also_writes(g):
    text = serialize(g, _s1_chain(g, 800))
    assert text.count("(S1 ") == 800
    assert serialize(g, deserialize(g, text)) == text
