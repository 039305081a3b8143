import hashlib
import math

import numpy as np
import pytest

from conftest import FIXTURE_MODEL
from ngparse import engine, guider
from ngparse.decompose import DecompositionFailure, decompose
from ngparse.engine import (
    DepthLimitExceeded,
    InferConfig,
    InferenceError,
    Unparseable,
    infer,
    model_selector,
    oracle_selector,
)
from ngparse.grammar import GrammarError, Nonterminal
from ngparse.guider import KEPT_TOKENS, predict_rule_distribution
from ngparse.parser import ParseError, reference_parse
from ngparse.sampler import SampleBucket, derive_seed, sample_corpus
from ngparse.tree import pretty_print, serialize


def test_config_validation():
    with pytest.raises(ValueError):
        InferConfig(mode="bogus")
    with pytest.raises(ValueError):
        InferConfig(beam_width=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "beam", "beam_width": 2.5},
        {"mode": "beam", "beam_width": True},
        {"max_recursion_depth": 2.5},
        {"max_recursion_depth": False},
        {"max_recursion_depth": "64"},
    ],
    ids=["float-width", "bool-width", "float-depth", "bool-depth", "str-depth"],
)
def test_config_rejects_non_integer_counts(kwargs):
    with pytest.raises(ValueError, match=list(kwargs)[-1]):
        InferConfig(**kwargs)


def test_config_takes_numpy_integer_counts():
    cfg = InferConfig(mode="beam", beam_width=np.int64(4), max_recursion_depth=np.int32(8))
    assert (cfg.beam_width, cfg.max_recursion_depth) == (4, 8)


@pytest.mark.parametrize("mode,width", [("greedy", 1), ("fallback", 1), ("beam", 3)])
def test_oracle_equivalence_all_modes(g, mode, width):
    selector = oracle_selector(g)
    cfg = InferConfig(mode=mode, beam_width=width)
    for tokens, truth in sample_corpus(g, SampleBucket(4, 30, 1, 11, seed=21), 150):
        assert infer(g, tokens, selector, cfg) == truth


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


@pytest.mark.parametrize("mode", ["greedy", "fallback", "beam"])
def test_depth_limit_on_a_span_repeated_across_levels(g, mode):
    # The second v0 sits at level 6 and shares its (span, nt) with the
    # first at level 3; serving it from the selector memo must not let it
    # past the limit.
    tokens, selector = g.encode("v0 = v0 ;"), oracle_selector(g)
    with pytest.raises(DepthLimitExceeded):
        infer(g, tokens, selector, InferConfig(mode=mode, max_recursion_depth=5))
    tree = infer(g, tokens, selector, InferConfig(mode=mode, max_recursion_depth=6))
    assert serialize(g, tree) == "(S2 (A1 (V1) (E3 (T2 (F2 (V1))))))"


@pytest.mark.parametrize("mode", ["fallback", "beam"])
def test_python_stack_running_out_raises_depth_limit(g, mode):
    # The limit is past what Python's stack holds, so the stack runs out
    # first: in the search, in building the beam's tree, or in verifying it.
    def uniform(toks, nt, states):
        return [(r.id, 0.0) for r in g.rules_for(nt)]

    tokens = g.encode(" ".join(["v0 = 1 ;"] * 1000))
    with pytest.raises(DepthLimitExceeded, match="Python's stack"):
        infer(g, tokens, uniform, InferConfig(mode=mode, max_recursion_depth=2000))


def test_trained_model_parses_in_distribution(g, small_trained):
    selector = model_selector(g, small_trained)
    corpus = sample_corpus(g, SampleBucket(5, 15, 1, 9, seed=22), 100)
    ok = sum(
        infer(g, tokens, selector, InferConfig(mode="fallback")) == truth
        for tokens, truth in corpus
    )
    assert ok == len(corpus)


def _tree_score(g, model, tree, tokens, nt):
    """Sum of log-probabilities of each node's rule under the guider."""
    probs = predict_rule_distribution(g, tokens, nt, model)
    p = probs[tree.rule_id]
    score = math.log(p) if p > 0 else -math.inf
    rule = g.rule_by_id(tree.rule_id)
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
    # fallback output reconstructs the input, so the check never fires
    selector = oracle_selector(g)
    cfg = InferConfig(mode="fallback")
    for tokens, _ in sample_corpus(g, SampleBucket(4, 20, 1, 10, seed=24), 50):
        assert pretty_print(g, infer(g, tokens, selector, cfg)) == tokens


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
    assert infer(g, tokens, selector, cfg) == truth
    prefixes = {s[:i] for s in spans for i in range(1, len(s) + 1)}
    first = len(steps)
    assert first == len(prefixes)
    # a second call reuses the selector's prefixes of up to KEPT_TOKENS
    # tokens and encodes each longer one again, once
    infer(g, tokens, selector, cfg)
    assert len(steps) - first == len([p for p in prefixes if len(p) > KEPT_TOKENS])


@pytest.mark.parametrize("mode", ["greedy", "fallback", "beam"])
def test_shared_states_do_not_change_trees(g, small_trained, mode):
    shared = model_selector(g, small_trained)

    def unshared(tokens, nt, states):
        return model_selector(g, small_trained)(tokens, nt, {})

    cfg = InferConfig(mode=mode)
    for tokens, _ in sample_corpus(g, SampleBucket(8, 30, 1, 11, seed=27), 30):
        try:
            expect = infer(g, tokens, unshared, cfg)
        except Unparseable:
            with pytest.raises(Unparseable):
                infer(g, tokens, shared, cfg)
            continue
        assert infer(g, tokens, shared, cfg) == expect


def test_selector_tables_give_the_states_and_logprobs_of_a_fresh_encode(
    g, small_trained, monkeypatch
):
    # The two inputs share their prefixes of up to four tokens, so the second
    # reads the first's entries in the selector's tables, and grows the
    # longer prefixes of its spans from a kept state.
    encoded = []
    encode = guider.encode

    def recording(g_, tokens, m, states=None):
        h = encode(g_, tokens, m, states=states)
        encoded.append((tuple(tokens), h))
        return h

    monkeypatch.setattr(guider, "encode", recording)
    select = model_selector(g, small_trained)
    asked = []
    for text in ("v0 = 1 + 2 ; v1 = 1 + v0 ;", "v0 = 1 + 2 * v1 ; v0 = 2 ;"):
        tokens, states = g.encode(text), {}
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens) + 1):
                for nt in g.nonterminals:
                    asked.append((tokens[i:j], nt, select(tokens[i:j], nt, states)))
    monkeypatch.undo()
    # One encode per ask that missed the answer memo: every span of more than
    # KEPT_TOKENS tokens, and the first ask of each shorter (span, nt).
    short = {(tokens, nt) for tokens, nt, _ in asked if len(tokens) <= KEPT_TOKENS}
    assert len(encoded) == len([a for a in asked if len(a[0]) > KEPT_TOKENS]) + len(short)
    for tokens, h in encoded:
        assert np.array_equal(h, encode(g, tokens, small_trained))
    for tokens, nt, ranked in asked:
        probs = predict_rule_distribution(g, tokens, nt, small_trained)
        assert sorted(ranked, key=lambda p: p[0]) == [
            (r.id, math.log(probs[r.id]) if probs[r.id] > 0 else -math.inf)
            for r in g.rules_for(nt)
        ]


def test_selector_keeps_only_prefixes_of_up_to_four_tokens(g, small_trained, monkeypatch):
    select = model_selector(g, small_trained)
    seen, short_asks, answered = [], set(), []
    head = engine.predict_rule_distribution

    def counting(g_, tokens, nt, m, states=None):
        if len(tokens) <= KEPT_TOKENS:
            answered.append((tuple(tokens), nt))
        return head(g_, tokens, nt, m, states=states)

    def recording(tokens, nt, states):
        seen.append(states)
        if len(tokens) <= KEPT_TOKENS:
            short_asks.add((tokens, nt))
        return select(tokens, nt, states)

    monkeypatch.setattr(engine, "predict_rule_distribution", counting)
    # fallback asks about few spans this short here; beam asks about many.
    for mode in ("fallback", "beam"):
        for tokens, _ in sample_corpus(g, SampleBucket(30, 30, 11, 11, seed=28), 200):
            try:
                infer(g, tokens, recording, InferConfig(mode=mode))
            except InferenceError:
                pass
    monkeypatch.undo()
    kept = seen[0]["prefixes"]
    assert all(states["prefixes"] is kept for states in seen)
    assert len(seen[0]["proj"]) <= len(g.vocabulary)
    assert {len(p) for p in kept} == set(range(1, KEPT_TOKENS + 1))
    for prefix, h in kept.items():
        assert np.array_equal(h, guider.encode(g, prefix, small_trained))
    # Below the cap nothing was cleared, so each short (span, nt) was
    # computed once: one head call per answer kept.
    assert len(kept) + len(short_asks) <= engine.KEPT_MAX
    assert 0 < len(answered) == len(short_asks)


def test_selector_keeps_the_answers_for_spans_of_up_to_four_tokens(
    g, small_trained, monkeypatch
):
    heads = []
    head = engine.predict_rule_distribution

    def recording(g_, tokens, nt, m, states=None):
        heads.append(tuple(tokens))
        return head(g_, tokens, nt, m, states=states)

    monkeypatch.setattr(engine, "predict_rule_distribution", recording)
    select = model_selector(g, small_trained)
    tokens = g.encode("v0 = 1 + v1 ; v1 = v0 * 2 ;")
    cfg = InferConfig(mode="beam")
    first = infer(g, tokens, select, cfg)
    assert any(len(span) <= KEPT_TOKENS for span in heads)
    heads.clear()
    assert infer(g, tokens, select, cfg) == first
    assert heads and all(len(span) > KEPT_TOKENS for span in heads)

    # Token id 1, which True and 1.0 equal and hash like as dict keys.
    one, nt = (1,), g.start
    select(one, nt, {})
    asked = len(heads)
    hit = select(one, nt, {})
    assert len(heads) == asked
    assert isinstance(hit, tuple)
    assert hit == model_selector(g, small_trained)(one, nt, {})
    for bad in ((True,), (1.0,), ("1",)):
        with pytest.raises(guider.GuiderError):
            select(bad, nt, {})
    with pytest.raises(GrammarError):
        select(one, Nonterminal(nt.id, "Foreign"), {})


def _outcome(g, tokens, selector, mode):
    try:
        return infer(g, tokens, selector, InferConfig(mode=mode))
    except InferenceError as exc:
        return exc.kind


def test_a_full_selector_clears_its_tables_and_keeps_its_answers(
    g, small_trained, monkeypatch
):
    monkeypatch.setattr(engine, "KEPT_MAX", 64)
    select, sizes = model_selector(g, small_trained), []

    def capped(tokens, nt, states):
        ranked = select(tokens, nt, states)
        sizes.append(len(states["prefixes"]) + len(states["answers"]))
        assert ranked == model_selector(g, small_trained)(tokens, nt, {})
        return ranked

    def unshared(tokens, nt, states):
        return model_selector(g, small_trained)(tokens, nt, {})

    rng = np.random.default_rng(derive_seed("selector-cap"))
    V = len(g.vocabulary)
    inputs = [t for t, _ in sample_corpus(g, SampleBucket(8, 30, 1, 11), 40, rng)]
    inputs += [tuple(rng.integers(V, size=int(rng.integers(1, 13))).tolist()) for _ in range(20)]
    for mode in ("fallback", "beam"):
        for tokens in inputs:
            assert _outcome(g, tokens, capped, mode) == _outcome(g, tokens, unshared, mode)
    # random spans asked directly, most of them parsed by no rule
    for _ in range(200):
        tokens = tuple(rng.integers(V, size=int(rng.integers(1, 7))).tolist())
        capped(tokens, g.nonterminals[int(rng.integers(len(g.nonterminals)))], {})
    assert max(sizes) <= 64
    # the tables filled to the cap and were cleared, more than once
    assert sum(b < a for a, b in zip(sizes, sizes[1:])) > 1


# GRU rows run per program of the fallback-long bucket (depth 11, length
# 30) under the fixture model, after warming the selector on a disjoint
# pool of the same bucket. Keeping the prefixes of at most two tokens ran
# 4,561 rows over these 100 programs.
PINNED_FALLBACK_ROWS = 3707


def test_rows_run_on_fresh_programs_after_warming_are_pinned(g, monkeypatch):
    rows = []
    step = guider._gru_step
    monkeypatch.setattr(guider, "_gru_step", lambda *a: rows.append(1) or step(*a))
    select = model_selector(g, guider.load_model(FIXTURE_MODEL, g))
    warm, fresh = (
        [t for t, _ in sample_corpus(g, SampleBucket(30, 30, 11, 11, seed=seed), 100)]
        for seed in (42, 43)
    )
    assert not set(warm) & set(fresh)
    for tokens in warm:
        infer(g, tokens, select, InferConfig())
    rows.clear()
    for tokens in fresh:
        infer(g, tokens, select, InferConfig())
    assert len(rows) == PINNED_FALLBACK_ROWS


def _preorder(t):
    yield t
    for c in t.children:
        yield from _preorder(c)


@pytest.mark.parametrize("mode", ["fallback", "beam"])
def test_results_share_their_small_subtrees(g, mode):
    select, cfg = oracle_selector(g), InferConfig(mode=mode)
    corpus = sample_corpus(g, SampleBucket(8, 20, 1, 10, seed=44), 20)
    first = [infer(g, tokens, select, cfg) for tokens, _ in corpus]
    for (tokens, truth), before in zip(corpus, first):
        again = infer(g, tokens, select, cfg)
        assert again == before == truth
        # a subtree of at most three tokens is the grammar's one copy; a
        # larger one is built afresh by each call
        for a, b in zip(_preorder(again), _preorder(before)):
            assert (a is b) == (len(pretty_print(g, a)) <= 3)


# sha256 of the trees and error kinds below, one digest per mode, computed
# with the unfused encoder (one matmul per gate). A change to the encoder's
# arithmetic that flips any of these 540 parses changes one of them.
PINNED_TREES_SHA256 = {
    "greedy": "ae5fe127723d4a8e7c4ccdfd6995d4e19131de5245128f83baa92dcccec7a8e9",
    "fallback": "fa26601cf9c6b1b2f968d22d274a468140cb310d49ffcb32a20e8b1195382f2e",
    "beam": "f92e3655535cadbf9ff4147f5f32f781148336b1233dfeecf5a222b23a99c8b2",
}


def test_fixture_model_trees_are_pinned(g):
    selector = model_selector(g, guider.load_model(FIXTURE_MODEL, g))
    lines = {mode: [] for mode in PINNED_TREES_SHA256}
    for bucket in [(30, 30, 11, 11), (8, 15, 1, 9), (16, 24, 5, 10)]:
        corpus = sample_corpus(g, SampleBucket(*bucket, seed=41), 60)
        for mode in lines:
            for tokens, _ in corpus:
                try:
                    out = serialize(g, infer(g, tokens, selector, InferConfig(mode=mode)))
                except InferenceError as exc:
                    out = f"ERROR {exc.kind}"
                lines[mode].append(f"{bucket} {mode} {out}")
    digests = {
        mode: hashlib.sha256("\n".join(out).encode()).hexdigest()
        for mode, out in lines.items()
    }
    assert digests == PINNED_TREES_SHA256


def _splitting_rules(g, tokens, nt):
    out = []
    for rule in g.rules_for(nt):
        try:
            decompose(g, tokens, rule)
        except DecompositionFailure:
            continue
        out.append(rule.id)
    return out


# Selector calls of fallback on the (30, 30, 11, 11) bucket of the pinned
# corpus when infer asked about every (span, nt) it visited, before it
# decomposed first. Asking only where a choice remains made 1242, and 632
# since it counts lookahead candidates (see PINNED_WORK_COUNTS).
FALLBACK_CALLS_ASKING_EVERY_VISIT = 2808


def test_selector_is_asked_only_when_a_choice_remains(g):
    select = model_selector(g, guider.load_model(FIXTURE_MODEL, g))
    fewest = {"fallback": 2, "greedy": 1, "beam": 1}
    for bucket in [(30, 30, 11, 11), (8, 15, 1, 9), (16, 24, 5, 10)]:
        corpus = sample_corpus(g, SampleBucket(*bucket, seed=41), 60)
        for mode in ("greedy", "fallback", "beam"):
            calls = 0
            for tokens, _ in corpus:
                asked = []

                def counting(toks, nt, states):
                    asked.append((toks, nt))
                    return select(toks, nt, states)

                try:
                    infer(g, tokens, counting, InferConfig(mode=mode))
                except InferenceError:
                    pass
                assert len(set(asked)) == len(asked)
                for toks, nt in asked:
                    assert len(_splitting_rules(g, toks, nt)) >= fewest[mode]
                calls += len(asked)
            if bucket == (30, 30, 11, 11) and mode == "fallback":
                assert calls < FALLBACK_CALLS_ASKING_EVERY_VISIT


# (selector asks, decompose calls) per bucket and mode on the pinned
# corpus. Before the FIRST/LAST candidate index, when every rule of nt was
# decomposed, they were:
#   (30, 30, 11, 11): greedy (257, 885), fallback (1242, 11023), beam (4000, 23184)
#   (8, 15, 1, 9):    greedy (1072, 4050), fallback (339, 4281), beam (1378, 7923)
#   (16, 24, 5, 10):  greedy (948, 3617), fallback (647, 6868), beam (2443, 14272)
PINNED_WORK_COUNTS = {
    (30, 30, 11, 11): {"greedy": (256, 451), "fallback": (632, 4554), "beam": (3831, 6503)},
    (8, 15, 1, 9): {"greedy": (1072, 1771), "fallback": (113, 1838), "beam": (1298, 2140)},
    (16, 24, 5, 10): {"greedy": (948, 1587), "fallback": (288, 2934), "beam": (2302, 3834)},
}


def test_work_counts_are_pinned(g, monkeypatch):
    select = model_selector(g, guider.load_model(FIXTURE_MODEL, g))
    counts = [0, 0]

    def counting_select(toks, nt, states):
        counts[0] += 1
        return select(toks, nt, states)

    def counting_decompose(*args):
        counts[1] += 1
        return decompose(*args)

    monkeypatch.setattr(engine, "decompose", counting_decompose)
    found = {}
    for bucket in PINNED_WORK_COUNTS:
        corpus = sample_corpus(g, SampleBucket(*bucket, seed=41), 60)
        found[bucket] = {}
        for mode in ("greedy", "fallback", "beam"):
            counts[:] = [0, 0]
            for tokens, _ in corpus:
                try:
                    infer(g, tokens, counting_select, InferConfig(mode=mode))
                except InferenceError:
                    pass
            found[bucket][mode] = tuple(counts)
    assert found == PINNED_WORK_COUNTS


def test_fallback_takes_a_lone_splitting_rule_the_selector_rules_out(g):
    # Only V1 splits "v0" as a Var. Fallback takes it without asking, so
    # the selector's -inf never counts; greedy and beam ask and drop it.
    asked = []

    def rules_out_all(tokens, nt, states):
        asked.append(tokens)
        return [(r.id, -math.inf) for r in g.rules_for(nt)]

    tokens, var = g.encode("v0"), g.nonterminal("Var")
    tree = infer(g, tokens, rules_out_all, InferConfig(mode="fallback"), nt=var)
    assert serialize(g, tree) == "(V1)" and asked == []
    for mode in ("greedy", "beam"):
        with pytest.raises(Unparseable):
            infer(g, tokens, rules_out_all, InferConfig(mode=mode), nt=var)
    assert asked == [tokens, tokens]


@pytest.mark.parametrize("mode", ["greedy", "fallback", "beam"])
def test_oracle_on_a_non_derivable_input_is_unparseable(g, mode):
    # S2 is the only rule to split the Stmt span, so fallback tries it
    # without asking the oracle, which ranks nothing here; no rule splits
    # "v0 v0 v0" as a SimpStmt.
    with pytest.raises(Unparseable):
        infer(g, g.encode("v0 v0 v0 ;"), oracle_selector(g), InferConfig(mode=mode))


def _spans_with_unknown_ids(g):
    """(span, position of its first unknown id): lone ids just outside the
    vocabulary and far from it, ids that are not integers, and a valid
    program with one spliced in."""
    program = g.encode("if v0 < 1 then v1 = ( 2 + v0 ) ; else v1 = 3 ; endif ;")
    for bad in (-1, len(g.vocabulary), 999, "v0", 18.0):
        yield (bad,), 0
        yield program[:9] + (bad,) + program[9:], 9


@pytest.mark.parametrize("mode", ["greedy", "fallback", "beam"])
@pytest.mark.parametrize("which", ["model", "oracle"])
def test_unknown_token_ids_are_unparseable_before_any_work(g, tiny_model, mode, which):
    base = model_selector(g, tiny_model) if which == "model" else oracle_selector(g)
    calls = []

    def selector(tokens, nt, states):
        calls.append(tokens)
        return base(tokens, nt, states)

    for span, pos in _spans_with_unknown_ids(g):
        with pytest.raises(Unparseable, match=f"token id {span[pos]} at position {pos}"):
            infer(g, span, selector, InferConfig(mode=mode))
    assert calls == []


def test_beam_parses_the_benchmark_pool_that_exhausted_it(g):
    # The beam-short pool of the benchmark's seed 133, drawn as it draws
    # it. Program 63 once ended in "beam exhausted": rules that split its
    # spans but whose components cannot parse took the beam's slots.
    rng = np.random.default_rng(derive_seed("perfbench", "beam-short", 133))
    pool = sample_corpus(g, SampleBucket(8, 15, 1, 9), 500, rng)
    selector = model_selector(g, guider.load_model(FIXTURE_MODEL, g))
    cfg = InferConfig(mode="beam", beam_width=4)
    wrong = []
    for i, (tokens, truth) in enumerate(pool):
        try:
            if infer(g, tokens, selector, cfg) == truth:
                continue
        except InferenceError:
            pass
        wrong.append(i)
    assert wrong == []


def _hostile_inputs(g):
    """120 token-id tuples: 25 sampled programs of length 20-40 and depth
    <= 14, each with one token deleted, one inserted, two neighbours
    swapped and one substituted, then 20 random id strings of length
    5-40."""
    rng = np.random.default_rng(derive_seed("hostile-inputs"))
    v = len(g.vocabulary)
    out = []
    for toks, _ in sample_corpus(g, SampleBucket(20, 40, 1, 14), 25, rng):
        n = len(toks)
        i = int(rng.integers(n))
        out.append(toks[:i] + toks[i + 1 :])
        i, t = int(rng.integers(n + 1)), int(rng.integers(v))
        out.append(toks[:i] + (t,) + toks[i:])
        i = int(rng.integers(n - 1))
        out.append(toks[:i] + (toks[i + 1], toks[i]) + toks[i + 2 :])
        i, t = int(rng.integers(n)), int(rng.integers(v))
        out.append(toks[:i] + (t,) + toks[i + 1 :])
    for _ in range(20):
        out.append(tuple(int(t) for t in rng.integers(v, size=int(rng.integers(5, 41)))))
    return out


PINNED_HOSTILE_SHA256 = "de8552f87e81e284440cd18b185b6acab3bf922ba9ad4a287d76874c8b0b19ee"


def test_hostile_inputs_are_typed_and_pinned(g):
    # Fallback is complete here: it finds the reference tree exactly when
    # one exists. Greedy and beam may miss it, but only with a typed error.
    selector = model_selector(g, guider.load_model(FIXTURE_MODEL, g))
    inputs = _hostile_inputs(g)
    assert len(inputs) == 120
    h = hashlib.sha256()
    for tokens in inputs:
        try:
            ref = reference_parse(g, tokens)
        except ParseError:
            ref = None
        for mode in ("fallback", "greedy", "beam"):
            try:
                out = infer(g, tokens, selector, InferConfig(mode=mode))
            except InferenceError as exc:
                out = exc
            if mode == "fallback":
                assert (out == ref) if ref is not None else isinstance(out, InferenceError)
            elif isinstance(out, InferenceError):
                assert isinstance(out, (Unparseable, DepthLimitExceeded)), (mode, tokens)
            else:
                assert out == ref, (mode, tokens)
            kind = out.kind if isinstance(out, InferenceError) else "tree"
            h.update(f"{mode}\t{tokens}\t{kind}\n".encode())
    assert h.hexdigest() == PINNED_HOSTILE_SHA256
