import hashlib
import math
import re
import struct

import numpy as np
import pytest

from conftest import FIXTURE_MODEL, openblas_corename, save_with_tensors
from ngparse import guider
from ngparse.engine import model_selector
from ngparse.grammar import Nonterminal
from ngparse.guider import (
    AdamState,
    GuiderError,
    GuiderModel,
    TrainConfig,
    _forward,
    adam_step,
    encode,
    gru_cell,
    init_model,
    load_model,
    loss_and_gradients,
    predict_rule_distribution,
    save_model,
    train,
    write_training_log,
)
from ngparse.sampler import SampleBucket, TrainingPair, sample_corpus, extract_training_pairs


def _zero_params(m):
    return {k: np.zeros_like(v) for k, v in m.params.items()}


# ---------------------------------------------------------------------------
# recurrent cell


def test_cell_zero_weights_halves_state(g, tiny_model):
    params = _zero_params(tiny_model)
    h = np.random.default_rng(0).normal(size=16)
    out = gru_cell(params, np.zeros(8), h)
    assert np.allclose(out, 0.5 * h)


def test_cell_zero_state_zero_weights(g, tiny_model):
    params = _zero_params(tiny_model)
    assert np.allclose(gru_cell(params, np.zeros(8), np.zeros(16)), 0.0)


def test_cell_matches_scalar_oracle():
    # d_emb = d_h = 2; recompute the gate equations element by element
    rng = np.random.default_rng(5)
    p = {
        name: rng.normal(scale=0.3, size=shape)
        for name, shape in [
            ("W_z", (2, 2)), ("U_z", (2, 2)), ("b_z", (2,)),
            ("W_r", (2, 2)), ("U_r", (2, 2)), ("b_r", (2,)),
            ("W_h", (2, 2)), ("U_h", (2, 2)), ("b_h", (2,)),
        ]
    }
    x, h = rng.normal(size=2), rng.normal(size=2)

    def sig(v):
        return 1 / (1 + math.exp(-v))

    expect = []
    for i in range(2):
        z = sig(sum(x[j] * p["W_z"][j, i] for j in range(2))
                + sum(h[j] * p["U_z"][j, i] for j in range(2)) + p["b_z"][i])
        r_row = [
            sig(sum(x[j] * p["W_r"][j, k] for j in range(2))
                + sum(h[j] * p["U_r"][j, k] for j in range(2)) + p["b_r"][k])
            for k in range(2)
        ]
        cand = math.tanh(
            sum(x[j] * p["W_h"][j, i] for j in range(2))
            + sum(r_row[j] * h[j] * p["U_h"][j, i] for j in range(2))
            + p["b_h"][i]
        )
        expect.append((1 - z) * h[i] + z * cand)
    assert np.allclose(gru_cell(p, x, h), expect)


def test_cell_rejects_nonfinite(tiny_model):
    with pytest.raises(GuiderError):
        gru_cell(tiny_model.params, np.array([np.nan] * 8), np.zeros(16))


# ---------------------------------------------------------------------------
# encoder


def test_encode_zero_model_single_token(g, zero_model):
    out = encode(g, g.encode("v0"), zero_model)
    assert np.allclose(out, 0.0)


def test_encode_deterministic(g, tiny_model):
    toks = g.encode("v0 = 1 + 2 ;")
    assert np.array_equal(encode(g, toks, tiny_model), encode(g, toks, tiny_model))


def test_encode_order_sensitive(g, tiny_model):
    a = encode(g, g.encode("v0 = 1 ;"), tiny_model)
    b = encode(g, g.encode("; 1 = v0"), tiny_model)
    assert not np.allclose(a, b)


def test_encode_rejects_unknown_token(g, tiny_model):
    with pytest.raises(GuiderError):
        encode(g, (999,), tiny_model)
    with pytest.raises(GuiderError):
        encode(g, (), tiny_model)
    # ids that are not integers; 18.0 equals the id of the "v0" before it
    for bad in ("v0", 18.0, True, np.float64(3)):
        with pytest.raises(GuiderError, match=f"^unknown token id {bad}$"):
            encode(g, g.encode("v0 =") + (bad,), tiny_model)
    assert np.array_equal(
        encode(g, np.array(g.encode("v0 = 1")), tiny_model),
        encode(g, g.encode("v0 = 1"), tiny_model),
    )


@pytest.mark.parametrize("d_emb,d_h", [(8, 16), (64, 256)])
def test_encode_shared_trie_matches_forward_on_every_subspan(g, d_emb, d_h):
    m = init_model(g, d_emb=d_emb, d_h=d_h, seed=4)
    corpus = sample_corpus(g, SampleBucket(30, 30, 1, 12, seed=31), 2)
    for tokens, _ in corpus:
        states = {}
        for i in range(len(tokens)):
            for j in range(i + 1, len(tokens) + 1):
                span = tokens[i:j]
                alone, _ = _forward(m, [span], want_cache=False)
                assert np.array_equal(encode(g, span, m, states=states), alone[0])


def test_encode_errors_unchanged_with_states(g, tiny_model):
    states = {}
    toks = g.encode("v0 = 1 ;")
    expect = encode(g, toks, tiny_model)
    with pytest.raises(GuiderError, match="empty token sequence"):
        encode(g, (), tiny_model, states=states)
    with pytest.raises(GuiderError, match="unknown token id 999"):
        encode(g, toks[:2] + (999,), tiny_model, states=states)
    with pytest.raises(GuiderError, match="unknown token id -1"):
        encode(g, (-1,), tiny_model, states=states)
    assert np.array_equal(encode(g, toks, tiny_model, states=states), expect)


def test_encode_runs_one_step_per_new_prefix(g, tiny_model, monkeypatch):
    steps = []
    step = guider._gru_step
    monkeypatch.setattr(
        guider, "_gru_step", lambda *a: steps.append(1) or step(*a)
    )
    states = {}
    encode(g, g.encode("v0 = 1 ;"), tiny_model, states=states)
    encode(g, g.encode("v0 = 2 ;"), tiny_model, states=states)
    encode(g, g.encode("v0 ="), tiny_model, states=states)
    assert len(steps) == 4 + 2
    encode(g, g.encode("v0 ="), tiny_model)
    assert len(steps) == 6 + 2


def test_encode_matches_per_gate_reference_at_full_size(g):
    # The cell equations with one matmul per named gate tensor, at the
    # default size; the scalar oracle above only covers d = 2.
    m = init_model(g, d_emb=64, d_h=256, seed=8)
    p = m.params
    rng = np.random.default_rng(8)
    for name in ("b_z", "b_r", "b_h"):
        p[name][...] = rng.uniform(-0.5, 0.5, size=256)

    def sig(v):
        return 1 / (1 + np.exp(-v))

    for tokens, _ in sample_corpus(g, SampleBucket(20, 30, 5, 11, seed=9), 3):
        h = np.zeros((1, 256), dtype=np.float32)
        for tid in tokens:
            x = p["embedding"][[tid]]
            z = sig(x @ p["W_z"] + h @ p["U_z"] + p["b_z"])
            r = sig(x @ p["W_r"] + h @ p["U_r"] + p["b_r"])
            cand = np.tanh(x @ p["W_h"] + (r * h) @ p["U_h"] + p["b_h"])
            h = (1 - z) * h + z * cand
        assert np.abs(encode(g, tokens, m) - h[0]).max() <= 1e-6


def _rebuilt(m):
    return GuiderModel(
        {name: p.copy() for name, p in m.params.items()},
        m.d_emb, m.d_h, m.vocab_fingerprint, m.rule_fingerprint,
    )


def test_in_place_updates_reach_the_packed_gates(g):
    m = init_model(g, d_emb=8, d_h=16, seed=6)
    toks = g.encode("v0 = 1 + 2 ;")
    # a selector made and asked before the changes keeps its own tables;
    # a bare encode must still see every change
    model_selector(g, m)(toks, g.start, {})
    m.params["U_r"][...] = 0.0
    assert not m.U_zr[:, 16:32].any()
    assert np.array_equal(encode(g, toks, m), encode(g, toks, _rebuilt(m)))

    before = encode(g, toks, m)
    _, grads = loss_and_gradients(g, _some_pairs(g, n=4), m)
    adam_step(AdamState(lr=1e-2), m.params, grads)
    after = encode(g, toks, m)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, encode(g, toks, _rebuilt(m)))


# ---------------------------------------------------------------------------
# masked distribution


def test_zero_model_uniform_over_applicable(g, zero_model):
    probs = predict_rule_distribution(
        g, g.encode("v0 = 1 ;"), g.nonterminal("Stmt"), zero_model
    )
    s1, s2 = g.rule_by_name("S1").id, g.rule_by_name("S2").id
    assert probs[s1] == pytest.approx(0.5) and probs[s2] == pytest.approx(0.5)
    assert probs.sum() == pytest.approx(1.0)


def test_masking_var_only(g, tiny_model):
    probs = predict_rule_distribution(g, g.encode("v3"), g.nonterminal("Var"), tiny_model)
    var_ids = [r.id for r in g.rules_for(g.nonterminal("Var"))]
    assert probs[var_ids].sum() == pytest.approx(1.0, abs=1e-6)
    others = np.delete(probs, var_ids)
    assert np.all(others == 0.0)


def test_distribution_normalized_everywhere(g, tiny_model):
    rng = np.random.default_rng(8)
    corpus = sample_corpus(g, SampleBucket(5, 15, 1, 9, seed=6), 20)
    for tokens, _ in corpus:
        nt = g.nonterminals[int(rng.integers(0, len(g.nonterminals)))]
        probs = predict_rule_distribution(g, tokens, nt, tiny_model)
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert g.rule_by_id(int(probs.argmax())).lhs == nt


# ---------------------------------------------------------------------------
# loss and gradients


def _some_pairs(g, n=3, seed=13):
    corpus = sample_corpus(g, SampleBucket(5, 12, 1, 9, seed=seed), 3)
    pairs = [p for _, t in corpus for p in extract_training_pairs(g, t)]
    return pairs[:n]


def test_zero_model_loss_is_mean_log_k(g, zero_model):
    pairs = _some_pairs(g, n=6)
    loss, _ = loss_and_gradients(g, pairs, zero_model)
    expected = np.mean([np.log(len(g.rules_for(p.nt))) for p in pairs])
    assert loss == pytest.approx(expected, rel=1e-6)


def test_loss_invariant_under_duplication(g, tiny_model):
    pairs = _some_pairs(g, n=4)
    l1, _ = loss_and_gradients(g, pairs, tiny_model)
    l2, _ = loss_and_gradients(g, pairs + pairs, tiny_model)
    assert l1 == pytest.approx(l2, rel=1e-6)


def test_inapplicable_label_rejected(g, tiny_model):
    const = g.nonterminal("Const")
    cases = [
        (g.encode("v0"), g.nonterminal("Var"), g.rule_by_name("C1").id),
        (g.encode("3"), const, -1),  # as an index, -1 is the last rule, C10
        (g.encode("3"), const, len(g.rules)),
        (g.encode("3"), Nonterminal(len(g.nonterminals), "X"), g.rule_by_name("C4").id),
    ]
    for tokens, nt, rule_id in cases:
        with pytest.raises(GuiderError, match=rf"^label {rule_id} not applicable for {nt.name}$"):
            loss_and_gradients(g, [TrainingPair(tokens, nt, rule_id)], tiny_model)


@pytest.mark.parametrize("bad", ["v0", 18.0, -1])
def test_loss_rejects_token_ids_outside_the_vocabulary(g, tiny_model, bad):
    const = g.nonterminal("Const")
    pairs = [TrainingPair(g.encode("3"), const, g.rule_by_name("C4").id),
             TrainingPair((bad,), const, g.rule_by_name("C4").id)]
    with pytest.raises(GuiderError, match=f"^unknown token id {bad}$"):
        loss_and_gradients(g, pairs, tiny_model)


def _fd_loss(g, m, pairs, name, idx, delta):
    """Loss at a perturbed coordinate, computed in float64 so that the
    finite-difference oracle stays accurate for float32 models too."""
    params = {k: v.astype(np.float64) for k, v in m.params.items()}
    params[name][idx] += delta
    m64 = GuiderModel(
        params=params,
        d_emb=m.d_emb,
        d_h=m.d_h,
        vocab_fingerprint=m.vocab_fingerprint,
        rule_fingerprint=m.rule_fingerprint,
    )
    loss, _ = loss_and_gradients(g, pairs, m64)
    return loss


def _finite_diff_check(g, seed, dtype, eps, n_coords=40):
    m = init_model(g, d_emb=4, d_h=4, seed=seed, dtype=dtype)
    pairs = _some_pairs(g, n=3, seed=seed)
    _, grads = loss_and_gradients(g, pairs, m)
    rng = np.random.default_rng(seed)
    worst = 0.0
    names = list(m.params)
    for _ in range(n_coords):
        name = names[int(rng.integers(0, len(names)))]
        p = m.params[name]
        idx = tuple(int(rng.integers(0, s)) for s in p.shape)
        lp = _fd_loss(g, m, pairs, name, idx, eps)
        lm = _fd_loss(g, m, pairs, name, idx, -eps)
        fd = (lp - lm) / (2 * eps)
        ana = grads[name][idx]
        rel = abs(ana - fd) / max(abs(ana), abs(fd), 1e-3)
        worst = max(worst, rel)
    return worst


def _mixed_length_batch(g, per_length=2, seed=21):
    """per_length pairs of each token count 1..15 in shuffled order, with
    random tokens and random (applicable) labels."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.repeat(np.arange(1, 16), per_length))
    batch = []
    for n in lengths:
        rule = g.rules[int(rng.integers(0, len(g.rules)))]
        tokens = tuple(int(t) for t in rng.integers(0, len(g.vocabulary), size=n))
        batch.append(TrainingPair(tokens, rule.lhs, rule.id))
    return batch


def _reference_gradients(g, m, batch):
    """Float64 gradients of the mean masked cross-entropy, one example at a
    time: the cell equations with one matrix per named gate, unrolled and
    backpropagated step by step, with no batching or padding."""
    p = {k: v.astype(np.float64) for k, v in m.params.items()}
    grads = {k: np.zeros_like(v) for k, v in p.items()}

    def sig(v):
        return 1 / (1 + np.exp(-v))

    for pair in batch:
        h, steps = np.zeros(m.d_h), []
        for tid in pair.tokens:
            x = p["embedding"][tid]
            z = sig(x @ p["W_z"] + h @ p["U_z"] + p["b_z"])
            r = sig(x @ p["W_r"] + h @ p["U_r"] + p["b_r"])
            c = np.tanh(x @ p["W_h"] + (r * h) @ p["U_h"] + p["b_h"])
            steps.append((tid, x, h, z, r, c))
            h = (1 - z) * h + z * c
        applicable = [r.id for r in g.rules_for(pair.nt)]
        logits = h @ p["W_out"] + p["b_out"]
        e = np.exp(logits[applicable] - logits[applicable].max())
        dlogits = np.zeros(len(g.rules))
        dlogits[applicable] = e / e.sum()
        dlogits[pair.rule_id] -= 1
        dlogits /= len(batch)
        grads["W_out"] += np.outer(h, dlogits)
        grads["b_out"] += dlogits
        dh = p["W_out"] @ dlogits
        for tid, x, h, z, r, c in reversed(steps):
            dc = dh * z * (1 - c * c)
            dz = dh * (c - h) * z * (1 - z)
            drh = p["U_h"] @ dc
            dr = drh * h * r * (1 - r)
            for gate, d, h_in in (("z", dz, h), ("r", dr, h), ("h", dc, r * h)):
                grads[f"W_{gate}"] += np.outer(x, d)
                grads[f"U_{gate}"] += np.outer(h_in, d)
                grads[f"b_{gate}"] += d
                grads["embedding"][tid] += p[f"W_{gate}"] @ d
            dh = dh * (1 - z) + drh * r + p["U_z"] @ dz + p["U_r"] @ dr
    return grads


def _worst_relative(got, ref):
    return max(np.abs(got[k] - ref[k]).max() / np.abs(ref[k]).max() for k in ref)


@pytest.mark.parametrize("d_emb,d_h", [(8, 16), (64, 256)])
def test_mixed_length_gradients_match_per_example_reference(g, d_emb, d_h):
    m = init_model(g, d_emb=d_emb, d_h=d_h, seed=11)
    rng = np.random.default_rng(11)
    for name in ("b_z", "b_r", "b_h"):
        m.params[name][...] = rng.uniform(-0.5, 0.5, size=d_h)
    batch = _mixed_length_batch(g)
    _, grads = loss_and_gradients(g, batch, m)
    assert set(grads) == set(m.params)
    assert _worst_relative(grads, _reference_gradients(g, m, batch)) <= 1e-5


def test_permuting_a_batch_permutes_rows_and_keeps_gradients(g):
    m = init_model(g, d_emb=64, d_h=256, seed=12)
    batch = _mixed_length_batch(g)
    perm = np.random.default_rng(12).permutation(len(batch))
    shuffled = [batch[i] for i in perm]
    h, _ = _forward(m, [p.tokens for p in batch], want_cache=False)
    h_perm, _ = _forward(m, [p.tokens for p in shuffled], want_cache=False)
    assert np.abs(h_perm - h[perm]).max() <= 1e-6
    _, grads = loss_and_gradients(g, batch, m)
    _, grads_perm = loss_and_gradients(g, shuffled, m)
    assert _worst_relative(grads_perm, grads) <= 1e-6


def test_forward_computes_one_row_per_token(g, tiny_model, monkeypatch):
    rows = []
    step = guider._gru_step
    monkeypatch.setattr(
        guider, "_gru_step", lambda *a: rows.append(len(a[-1])) or step(*a)
    )
    seqs = [p.tokens for p in _mixed_length_batch(g)]
    for want_cache in (False, True):
        rows.clear()
        _forward(tiny_model, seqs, want_cache=want_cache)
        assert sum(rows) == sum(len(s) for s in seqs)


def test_gradients_match_finite_differences_64bit(g):
    worst = max(_finite_diff_check(g, seed, np.float64, 1e-6) for seed in range(3))
    assert worst < 1e-6


def test_gradients_match_finite_differences_32bit(g):
    worst = max(_finite_diff_check(g, seed, np.float32, 1e-6) for seed in range(3))
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_signed_lr(g):
    params = {"w": np.zeros(3)}
    grads = {"w": np.array([0.3, -0.2, 0.0])}
    state = AdamState(lr=1e-4)
    adam_step(state, params, grads)
    assert params["w"][0] == pytest.approx(-1e-4, rel=1e-3)
    assert params["w"][1] == pytest.approx(1e-4, rel=1e-3)
    assert params["w"][2] == 0.0
    assert state.step == 1


def test_adam_zero_gradient_no_move(g):
    params = {"w": np.ones(4)}
    adam_step(AdamState(), params, {"w": np.zeros(4)})
    assert np.array_equal(params["w"], np.ones(4))


def test_adam_two_steps_match_closed_form_trace():
    # quadratic loss 0.5*theta^2 from theta=1; recompute the update trace
    # with explicit scalar arithmetic
    lr, b1, b2, eps = 1e-4, 0.9, 0.9, 1e-8
    theta, m, v = 1.0, 0.0, 0.0
    trace = []
    for t in (1, 2):
        grad = theta
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        theta = theta - lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        trace.append(theta)

    params = {"w": np.array([1.0])}
    state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    got = []
    for _ in range(2):
        adam_step(state, params, {"w": params["w"].copy()})
        got.append(float(params["w"][0]))
    assert got == pytest.approx(trace, rel=1e-12)
    assert trace[1] < trace[0] < 1.0


def test_adam_monotone_on_quadratic():
    rng = np.random.default_rng(1)
    params = {"w": rng.normal(size=20)}
    state = AdamState(lr=1e-4)
    losses = []
    for _ in range(100):
        losses.append(0.5 * float(params["w"] @ params["w"]))
        adam_step(state, params, {"w": params["w"].copy()})
    assert all(b < a for a, b in zip(losses, losses[1:]))


def _adam_reference(state, params, grads):
    """adam_step's formula with one new array per operation."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        gval = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        state.m[name] = b1 * state.m[name] + (1 - b1) * gval
        state.v[name] = b2 * state.v[name] + (1 - b2) * gval * gval
        m_hat = state.m[name] / (1 - b1**t)
        v_hat = state.v[name] / (1 - b2**t)
        p -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.dtype)


def test_adam_in_place_is_bit_identical_to_the_formula(g):
    m = init_model(g, d_emb=8, d_h=16, seed=14)
    ref = _rebuilt(m)
    state, ref_state = AdamState(lr=1e-2), AdamState(lr=1e-2)
    pairs = _some_pairs(g, n=8, seed=14)
    for _ in range(20):
        _, grads = loss_and_gradients(g, pairs, m)
        adam_step(state, m.params, grads)
        _adam_reference(ref_state, ref.params, grads)
    assert state.step == ref_state.step == 20
    for name in m.params:
        assert np.array_equal(m.params[name], ref.params[name])
        assert np.array_equal(state.m[name], ref_state.m[name])
        assert np.array_equal(state.v[name], ref_state.v[name])


def test_adam_rejects_nonfinite_gradient():
    with pytest.raises(GuiderError):
        adam_step(AdamState(), {"w": np.zeros(2)}, {"w": np.array([1.0, np.inf])})


# ---------------------------------------------------------------------------
# training loop


def test_zero_iterations_returns_init(g):
    from ngparse.sampler import curriculum_schedule

    cfg = TrainConfig(d_emb=8, d_h=16, iters_per_stage=0, programs_per_stage=20,
                      heldout_programs=5, seed=12)
    model, log = train(g, curriculum_schedule(1, base_seed=12)[:1], cfg)
    ref = init_model(g, d_emb=8, d_h=16, seed=12)
    for name in ref.params:
        assert np.array_equal(model.params[name], ref.params[name])
    assert log == []


@pytest.mark.parametrize(
    "field,value",
    [("d_emb", 0), ("d_h", 0), ("batch_size", 0), ("programs_per_stage", 0),
     ("heldout_programs", 0), ("eval_every", 0), ("iters_per_stage", -1), ("seed", -1),
     ("batch_size", 2.5), ("d_h", True), ("iters_per_stage", 1.5), ("seed", 0.5),
     ("eval_every", "5"), ("d_emb", np.float64(8)),
     ("lr", -0.1), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf), ("lr", "0.1"),
     ("beta1", 1.5), ("beta1", 1.0), ("beta1", True), ("beta2", -1.0), ("beta2", math.nan),
     ("early_stop_acc", "0.9")],
)
def test_train_config_rejects_bad_sizes(field, value):
    rate = field in ("lr", "beta1", "beta2", "early_stop_acc")
    if type(value) is int:
        match = rf"{field} must be >= \d, got {value}$"
    elif rate and type(value) is float:
        match = rf"{field} must be [^,]+, got {value}$"
    else:
        kind = "a number" if rate else "an integer"
        match = rf"{field} must be {kind}, got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=match):
        TrainConfig(**{field: value})


def test_train_config_takes_numpy_integers():
    cfg = TrainConfig(batch_size=np.int64(8), seed=np.uint32(3))
    assert (cfg.batch_size, cfg.seed) == (8, 3)


def test_train_config_takes_rates_at_their_bounds():
    cfg = TrainConfig(lr=1, beta1=0, beta2=np.float32(0.999), early_stop_acc=2.0)
    assert (cfg.lr, cfg.beta1, cfg.early_stop_acc) == (1, 0, 2.0)


@pytest.mark.parametrize(
    "kwargs,match",
    [({"d_emb": 0}, "d_emb must be >= 1, got 0"), ({"d_h": 0}, "d_h must be >= 1, got 0"),
     ({"d_h": 2.5}, "d_h must be an integer, got 2.5"), ({"seed": -1}, "seed must be >= 0, got -1")],
    ids=["zero-d-emb", "zero-d-h", "float-d-h", "negative-seed"],
)
def test_init_model_rejects_bad_sizes(g, kwargs, match):
    with pytest.raises(ValueError, match=match):
        init_model(g, **kwargs)


def test_training_log_deterministic(g):
    from ngparse.sampler import curriculum_schedule

    cfg = TrainConfig(d_emb=8, d_h=16, iters_per_stage=20, programs_per_stage=30,
                      heldout_programs=10, eval_every=10, seed=5)
    sched = curriculum_schedule(1, base_seed=5)[:1]
    _, log1 = train(g, sched, cfg)
    _, log2 = train(g, sched, cfg)
    assert log1 == log2 and len(log1) == 2


def _balanced_batch_per_pool(rng, by_nt, size):
    """_balanced_batch with one scalar draw per pool, as it once was."""
    nts = sorted(by_nt)
    batch = []
    for k in rng.integers(0, len(nts), size=size):
        pool = by_nt[nts[k]]
        batch.append(pool[int(rng.integers(0, len(pool)))])
    return batch


@pytest.mark.parametrize("sizes", [(1, 1, 1), (1, 2, 3, 7), (5, 700, 40_000, 1)])
def test_balanced_batch_matches_a_draw_per_pool(sizes):
    by_nt = {nt: [(nt, i) for i in range(n)] for nt, n in enumerate(sizes)}
    for seed in range(5):
        one, per_pool = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (guider._balanced_batch(one, by_nt, 64)
                == _balanced_batch_per_pool(per_pool, by_nt, 64))
        assert one.bit_generator.state == per_pool.bit_generator.state


# sha256 of the model file and of the log that one small train() run
# writes, recorded before training's loss and held-out accuracy shared one
# masked head. A change to training's arithmetic changes one of them. The
# model's bytes also depend on the OpenBLAS kernel, which rounds the
# float32 products its own way (the parameters differ by at most 1.5e-8),
# so it has one digest per kernel, each measured under OPENBLAS_CORETYPE;
# the log's digest is the same under all of them.
PINNED_TRAINING_SHA256 = {
    "model": {
        "SkylakeX": "1891f0df6b34925dedc2314ff0b28efb0b2589fc340aab7e47c9960a586d6ae4",
        "Haswell": "0d8a93fa78d58487385bb9180d0a0b6a6dd23610461c002185a8c1292391c1ea",
        "Sandybridge": "26e0cdcc6739b34f69f83a21853cd6f813819c545f47f2f8a79bb38cee80be7c",
    },
    "log": "8887eee965767a09fcbed0cbb0f3f6c7430df4d5a4c09a7a958cbb6c319d5e6d",
}


def test_training_output_is_pinned(g, tmp_path):
    from ngparse.sampler import curriculum_schedule

    cfg = TrainConfig(d_emb=8, d_h=16, iters_per_stage=20, programs_per_stage=40,
                      heldout_programs=10, eval_every=10, seed=5)
    model, log = train(g, curriculum_schedule(2, base_seed=5, repeats=1), cfg)
    save_model(model, tmp_path / "m.bin")
    write_training_log(log, tmp_path / "log.csv")
    digests = {
        name: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
        for name, file in (("model", "m.bin"), ("log", "log.csv"))
    }
    kernel = openblas_corename()
    assert digests["log"] == PINNED_TRAINING_SHA256["log"], f"OpenBLAS kernel {kernel}"
    mismatch = _model_digest_mismatch(kernel, digests["model"])
    assert mismatch is None, mismatch


def _model_digest_mismatch(kernel, digest):
    """Why digest is not the model digest pinned for the OpenBLAS kernel, or
    None when it is. Where the kernel cannot be read (None), any pinned
    digest passes."""
    pinned = PINNED_TRAINING_SHA256["model"]
    if kernel is None:
        if digest in pinned.values():
            return None
        return f"OpenBLAS kernel unknown; model digest {digest} is none of the pinned ones"
    if kernel not in pinned:
        return f"no model digest pinned for OpenBLAS kernel {kernel}; it reads {digest}"
    if digest != pinned[kernel]:
        return f"OpenBLAS kernel {kernel}: model digest {digest}, pinned {pinned[kernel]}"
    return None


def test_model_digest_is_checked_per_kernel_or_against_all_when_unknown():
    pinned = PINNED_TRAINING_SHA256["model"]
    other = "0" * 64
    for kernel, digest in pinned.items():
        assert _model_digest_mismatch(kernel, digest) is None
        assert _model_digest_mismatch(None, digest) is None
        assert kernel in _model_digest_mismatch(kernel, other)
    assert "unknown" in _model_digest_mismatch(None, other)
    assert "Nehalem" in _model_digest_mismatch("Nehalem", pinned["SkylakeX"])
    assert _model_digest_mismatch("Haswell", pinned["SkylakeX"]) is not None
    kernel = openblas_corename()
    assert kernel is None or isinstance(kernel, str) and kernel


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip_bitwise(g, tiny_model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(tiny_model, path)
    back = load_model(path, g)
    assert set(back.params) == set(tiny_model.params)
    for name, p in tiny_model.params.items():
        assert np.array_equal(back.params[name], p.astype(np.float32))
    assert back.d_emb == tiny_model.d_emb and back.d_h == tiny_model.d_h


def test_load_rejects_grammar_mismatch(g, tiny_model, tmp_path):
    import dataclasses

    path = tmp_path / "m.bin"
    save_model(dataclasses.replace(tiny_model, rule_fingerprint=12345), path)
    with pytest.raises(GuiderError, match="mismatch"):
        load_model(path, g)


def test_load_rejects_bad_magic(g, tiny_model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(tiny_model, path)
    data = bytearray(path.read_bytes())
    data[:5] = b"XXXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(GuiderError, match="magic"):
        load_model(path, g)



def test_fixture_model_round_trips_byte_for_byte(g, tmp_path):
    path = tmp_path / "m.bin"
    save_model(load_model(FIXTURE_MODEL, g), path)
    assert path.read_bytes() == FIXTURE_MODEL.read_bytes()


@pytest.mark.parametrize("name,shape", [("W_out", (16, 5)), ("U_r", (16, 15)), ("b_h", (15,))])
def test_load_rejects_misshaped_tensor(g, tiny_model, tmp_path, name, shape):
    path = tmp_path / "m.bin"
    save_with_tensors(path, tiny_model, **{name: np.zeros(shape, dtype=np.float32)})
    with pytest.raises(GuiderError, match=re.escape(f"tensor {name} has shape {shape},")):
        load_model(path, g)


def test_load_rejects_truncation(g, tiny_model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(tiny_model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(GuiderError, match="truncated"):
        load_model(path, g)


def _model_file(m, *records):
    """A model file with m's header and the given raw tensor records."""
    return guider._MAGIC + struct.pack("<QQ", m.rule_fingerprint, m.vocab_fingerprint) + b"".join(records)


def _record(name):
    """A raw record of a rank-0 tensor holding 0.0."""
    return struct.pack("<I", len(name)) + name.encode() + struct.pack("<If", 0, 0.0)


@pytest.mark.parametrize(
    "record,match",
    [
        # rank 2**30 in a 30-byte file: no 4 GB buffer is asked for
        (b"\x01\x00\x00\x00W\x00\x00\x00\x40", "rank"),
        # 2**31 x 2**31 floats: counted in Python ints, not np.prod
        (b"\x01\x00\x00\x00W\x02\x00\x00\x00" + b"\x00\x00\x00\x80" * 2, "truncated"),
        (b"\x02\x00\x00\x00\xff\xfe\x00\x00\x00\x00", "UTF-8"),
        (b"\xff\xff\xff\x7f", "truncated"),
        (_record("junk"), "unknown tensor 'junk'"),
        (_record("W_out") * 2, "duplicate tensor W_out"),
    ],
    ids=["huge-rank", "huge-dims", "bad-name", "huge-name", "unknown-name", "duplicate-name"],
)
def test_load_rejects_hostile_records(g, tiny_model, tmp_path, record, match):
    path = tmp_path / "m.bin"
    path.write_bytes(_model_file(tiny_model, record))
    with pytest.raises(GuiderError, match=match):
        load_model(path, g)


def test_load_rejects_non_finite_tensor(g, tiny_model, tmp_path):
    path = tmp_path / "m.bin"
    w_out = tiny_model.params["W_out"].copy()
    w_out[0, 0] = np.nan
    save_with_tensors(path, tiny_model, W_out=w_out)
    with pytest.raises(GuiderError, match="tensor W_out has non-finite values"):
        load_model(path, g)


def test_load_fuzzed_files_give_a_model_or_a_guider_error(g, tiny_model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(tiny_model, path)
    data = path.read_bytes()
    rng = np.random.default_rng(6)
    cases = [data[:n] for n in rng.integers(0, len(data), size=150)]
    for pos, bit in zip(rng.integers(0, len(data), size=600), rng.integers(0, 8, size=600)):
        flipped = bytearray(data)
        flipped[pos] ^= 1 << bit
        cases.append(bytes(flipped))
    outcomes = set()
    for case in cases:
        path.write_bytes(case)
        try:
            outcomes.add(type(load_model(path, g)))
        except GuiderError:
            outcomes.add(GuiderError)
    assert outcomes == {GuiderModel, GuiderError}
