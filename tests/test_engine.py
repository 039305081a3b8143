import hashlib
import math

import pytest

from conftest import FIXTURE_MODEL
from ngparse import guider
from ngparse.engine import (
    DepthLimitExceeded,
    InferConfig,
    InferenceError,
    Unparseable,
    infer,
    infer_file,
    model_selector,
    oracle_selector,
)
from ngparse.guider import predict_rule_distribution
from ngparse.sampler import SampleBucket, sample_corpus, write_corpus
from ngparse.tree import ast_equal, pretty_print, serialize


def test_config_validation():
    with pytest.raises(ValueError):
        InferConfig(mode="bogus")
    with pytest.raises(ValueError):
        InferConfig(beam_width=0)


@pytest.mark.parametrize("mode,width", [("greedy", 1), ("fallback", 1), ("beam", 3)])
def test_oracle_equivalence_all_modes(g, mode, width):
    selector = oracle_selector(g)
    cfg = InferConfig(mode=mode, beam_width=width)
    for tokens, truth in sample_corpus(g, SampleBucket(4, 30, 1, 11, seed=21), 150):
        assert ast_equal(infer(g, tokens, selector, cfg), truth)


def test_fallback_survives_terminal_mismatch(g, tiny_model):
    # At nt=Var all five rules are applicable; only the one matching the
    # actual terminal decomposes, whatever the model prefers.
    selector = model_selector(g, tiny_model)
    t = infer(g, g.encode("v0"), selector, InferConfig(mode="fallback"),
              nt=g.nonterminal("Var"))
    assert serialize(g, t) == "(V1)"


def test_empty_input_rejected(g):
    with pytest.raises(Unparseable):
        infer(g, (), oracle_selector(g))


def test_unparseable_input(g, small_trained):
    selector = model_selector(g, small_trained)
    for mode in ("greedy", "fallback", "beam"):
        with pytest.raises(Unparseable):
            infer(g, g.encode("v0 v0 v0 ;"), selector, InferConfig(mode=mode))


def test_depth_limit(g):
    text = "v0 = ( ( ( ( 1 ) ) ) ) ;"
    with pytest.raises(DepthLimitExceeded):
        infer(g, g.encode(text), oracle_selector(g),
              InferConfig(mode="fallback", max_recursion_depth=4))


def test_trained_model_parses_in_distribution(g, small_trained):
    selector = model_selector(g, small_trained)
    corpus = sample_corpus(g, SampleBucket(5, 15, 1, 9, seed=22), 100)
    ok = sum(
        ast_equal(infer(g, tokens, selector, InferConfig(mode="fallback")), truth)
        for tokens, truth in corpus
    )
    assert ok == len(corpus)


def _tree_score(g, model, tree, tokens, nt):
    """Sum of log-probabilities of each node's rule under the guider."""
    probs = predict_rule_distribution(g, tokens, nt, model)
    p = probs[tree.rule_id]
    score = math.log(p) if p > 0 else -math.inf
    rule = g.rule_by_id(tree.rule_id)
    from ngparse.decompose import decompose

    comps = decompose(g, tokens, rule)
    for child, comp, knt in zip(tree.children, comps, rule.rhs_nonterminals()):
        score += _tree_score(g, model, child, comp, knt)
    return score


@pytest.mark.parametrize("width", [1, 2, 4])
def test_beam_dominates_greedy(g, small_trained, width):
    selector = model_selector(g, small_trained)
    greedy_cfg = InferConfig(mode="greedy")
    beam_cfg = InferConfig(mode="beam", beam_width=width)
    corpus = sample_corpus(g, SampleBucket(5, 20, 1, 10, seed=23), 60)
    for tokens, _ in corpus:
        try:
            gt = infer(g, tokens, selector, greedy_cfg)
        except Exception:
            continue
        bt = infer(g, tokens, selector, beam_cfg)  # must succeed
        gs = _tree_score(g, small_trained, gt, tokens, g.start)
        bs = _tree_score(g, small_trained, bt, tokens, g.start)
        assert bs >= gs - 1e-9


def test_verification_catches_nothing_on_sound_paths(g):
    # with verification off, fallback output still reconstructs the input
    selector = oracle_selector(g)
    cfg = InferConfig(mode="fallback", verify_reconstruction=False)
    for tokens, _ in sample_corpus(g, SampleBucket(4, 20, 1, 10, seed=24), 50):
        assert pretty_print(g, infer(g, tokens, selector, cfg)) == tokens


def test_infer_file(g, small_trained, tmp_path):
    corpus = sample_corpus(g, SampleBucket(5, 15, 1, 9, seed=25), 20)
    path = tmp_path / "corpus.tsv"
    write_corpus(g, corpus, path)
    with open(path, "a") as fh:
        fh.write("v0 v0 v0 ;\t(V1)\n")  # unparseable line, must not abort the run
    rows = infer_file(g, path, model_selector(g, small_trained))
    assert len(rows) == 21
    good = [r for r in rows[:-1]]
    assert all(r[1] is not None and r[2] is None for r in good)
    assert all(r[3] < 1.0 for r in rows)
    assert rows[-1][1] is None and rows[-1][2] == "unparseable"


def test_infer_file_empty(g, small_trained, tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert infer_file(g, path, model_selector(g, small_trained)) == []


def test_fallback_encodes_each_span_prefix_once_per_call(g, small_trained, monkeypatch):
    steps = []
    step = guider._gru_step
    monkeypatch.setattr(
        guider, "_gru_step", lambda *a: steps.append(1) or step(*a)
    )
    model_select = model_selector(g, small_trained)
    spans = set()

    def selector(tokens, nt, states):
        spans.add(tokens)
        return model_select(tokens, nt, states)

    cfg = InferConfig(mode="fallback")
    tokens, truth = sample_corpus(g, SampleBucket(30, 30, 11, 11, seed=26), 1)[0]
    assert ast_equal(infer(g, tokens, selector, cfg), truth)
    prefixes = {s[:i] for s in spans for i in range(1, len(s) + 1)}
    first = len(steps)
    assert first == len(prefixes)
    infer(g, tokens, selector, cfg)
    assert len(steps) == 2 * first


@pytest.mark.parametrize("mode", ["greedy", "fallback", "beam"])
def test_shared_states_do_not_change_trees(g, small_trained, mode):
    shared = model_selector(g, small_trained)

    def unshared(tokens, nt, states):
        return shared(tokens, nt, {})

    cfg = InferConfig(mode=mode)
    for tokens, _ in sample_corpus(g, SampleBucket(8, 30, 1, 11, seed=27), 30):
        try:
            expect = infer(g, tokens, unshared, cfg)
        except Unparseable:
            with pytest.raises(Unparseable):
                infer(g, tokens, shared, cfg)
            continue
        assert infer(g, tokens, shared, cfg) == expect


# sha256 of the trees and error kinds below, computed with the unfused
# encoder (one matmul per gate). A change to the encoder's arithmetic that
# flips any of these 540 parses changes it.
PINNED_TREES_SHA256 = "a5a57fe023c22728ff0ef95f03bfec934aa4314bf0f41273ada7967f7d49972d"


def test_fixture_model_trees_are_pinned(g):
    selector = model_selector(g, guider.load_model(FIXTURE_MODEL, g))
    lines = []
    for bucket in [(30, 30, 11, 11), (8, 15, 1, 9), (16, 24, 5, 10)]:
        corpus = sample_corpus(g, SampleBucket(*bucket, seed=41), 60)
        for mode in ("greedy", "fallback", "beam"):
            for tokens, _ in corpus:
                try:
                    out = serialize(g, infer(g, tokens, selector, InferConfig(mode=mode)))
                except InferenceError as exc:
                    out = f"ERROR {exc.kind}"
                lines.append(f"{bucket} {mode} {out}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_TREES_SHA256
